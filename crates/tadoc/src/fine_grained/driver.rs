//! The fine-grained scheduler, written once.
//!
//! G-TADOC has *one* scheduling strategy — chunk-granular work items claimed
//! dynamically (Section IV-B) — and accumulates into private per-worker
//! state, never a shared table (Figure 5).  This module owns the claim loop
//! and the phase clock every task runs under:
//!
//! * [`claim_loop`] — the dynamic work-queue claim loop with its
//!   once-per-claim cancel/deadline checkpoint;
//! * [`run_phases`] — the phase clock (`init` / `shared_init` / `traversal`
//!   / `finalize` / `warm`) that assembles the [`TaskExecution`].
//!
//! Nothing here merges: every window table is grouped by its leading word
//! with one counting sort (`word_table` at `l` = 1, `fill_window_table` at
//! `l` ≥ 2), and every query is one pass over contiguous word ranges of a
//! cached table.

use super::engine::RunCharge;
use super::exec::{self, WorkerPool};
use crate::apps::TaskExecution;
use crate::results::AnalyticsOutput;
use crate::timing::{PhaseTimings, Timer};
use std::sync::Arc;

/// Runs `each(state, item)` for every `item in 0..items` across the pool:
/// workers claim `claim` items at a time from a shared queue, pass the
/// cancel/deadline checkpoint once per claim, and fold into a private
/// `init()` state.  Returns the states in worker order.
pub(crate) fn claim_loop<S, I, F>(
    pool: &WorkerPool,
    items: usize,
    claim: usize,
    init: I,
    each: F,
) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let queue = exec::WorkQueue::new(items, claim);
    pool.collect(|_w| {
        let mut state = init();
        while let Some(range) = queue.next() {
            pool.checkpoint();
            for item in range {
                each(&mut state, item);
            }
        }
        state
    })
}

/// The phase clock: times `prepare` as the initialization phase (the
/// [`RunCharge`] it threads through the `ensure_*` calls becomes
/// `shared_init` / `warm`, plus what a window fill it ran measured),
/// `traverse` + `finalize` as the traversal phase, and `finalize` alone as
/// its finalize portion.  `traverse` may record stage timings of its own.
/// `init_work` / `traversal_work` stay at their default: the fine engine
/// counts no abstract work (the sequential reference does, for
/// `tadoc::cost`).
pub(crate) fn run_phases<P, T>(
    prepare: impl FnOnce(&mut RunCharge) -> P,
    traverse: impl FnOnce(&P, &mut PhaseTimings) -> T,
    finalize: impl FnOnce(P, T) -> AnalyticsOutput,
) -> TaskExecution {
    let init_timer = Timer::start();
    let mut charge = RunCharge::default();
    let prepared = prepare(&mut charge);
    let mut timings = PhaseTimings {
        init: init_timer.elapsed(),
        shared_init: charge.time,
        warm: !charge.computed,
        ..charge.fill_timings
    };

    let traversal_timer = Timer::start();
    let partial = traverse(&prepared, &mut timings);
    let finalize_timer = Timer::start();
    let output = finalize(prepared, partial);
    timings.finalize = finalize_timer.elapsed();
    timings.traversal = traversal_timer.elapsed();
    TaskExecution {
        output: Arc::new(output),
        timings,
        frame: None,
    }
}
