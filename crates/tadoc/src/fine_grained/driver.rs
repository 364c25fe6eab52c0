//! The fine-grained scheduler, written once.
//!
//! G-TADOC has *one* scheduling strategy — chunk-granular work items spread
//! across threads (Section IV-B) — and accumulates into private per-worker
//! state, never a shared table (Figure 5).  Every pass over the worker pool
//! is one claim loop or one split:
//!
//! * [`claim_loop`] — workers claim items off one atomic cursor, with the
//!   once-per-claim cancel/deadline checkpoint (the window fill's scan,
//!   term vector's two prep loops, the word table's root fold, wide levels
//!   of the rule weights);
//! * [`exec::split`](super::exec::split) — one contiguous range per
//!   worker, cut from a running-cost column and handed out with
//!   [`WorkerPool::map_workers`] (the passes over a window table, the
//!   fill's sort and fold, wide head/tail levels, term vector's files).
//!
//! Oversized items are cut first, by one chunker
//! ([`exec::chunk_ranges`](super::exec::chunk_ranges)).
//! [`run_phases`] is the phase clock (`init` / `shared_init` / `traversal`
//! / `finalize` / `warm`) that assembles the [`TaskExecution`].
//!
//! Nothing here merges: every window table is grouped by its leading word
//! with one counting sort (`word_table` at `l` = 1, `fill_window_table` at
//! `l` ≥ 2), and every query is one pass over contiguous word ranges of a
//! cached table.

use super::engine::RunCharge;
use super::exec::WorkerPool;
use crate::apps::TaskExecution;
use crate::results::AnalyticsOutput;
use crate::timing::{PhaseTimings, Timer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Runs `each(state, item)` for every `item in 0..items` across the pool:
/// workers claim `claim` items at a time off one atomic cursor, pass the
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
    let (cursor, claim) = (AtomicUsize::new(0), claim.max(1));
    pool.collect(|_w| {
        let mut state = init();
        loop {
            let start = cursor.fetch_add(claim, Ordering::Relaxed);
            if start >= items {
                return state;
            }
            pool.checkpoint();
            for item in start..(start + claim).min(items) {
                each(&mut state, item);
            }
        }
    })
}

/// The phase clock: times `prepare` as the initialization phase (the
/// [`RunCharge`] it threads through the `ensure_*` calls becomes
/// `shared_init` / `warm`, plus what a window fill it ran measured),
/// `traverse` + `finalize` as the traversal phase, and `finalize` alone as
/// its finalize portion.
/// `init_work` / `traversal_work` stay at their default: the fine engine
/// counts no abstract work (the sequential reference does, for
/// `tadoc::cost`).
pub(crate) fn run_phases<P, T>(
    prepare: impl FnOnce(&mut RunCharge) -> P,
    traverse: impl FnOnce(&P) -> T,
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
    let partial = traverse(&prepared);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every item is handed out exactly once, whatever the claim size and
    /// the pool width, and a worker's items arrive in claim order.
    #[test]
    fn claim_loop_hands_out_every_item_exactly_once() {
        for threads in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(threads);
            for claim in [1usize, 7, 64] {
                for items in [0usize, 1, 103] {
                    let states =
                        claim_loop(&pool, items, claim, Vec::new, |seen, item| seen.push(item));
                    assert_eq!(states.len(), threads);
                    let label = format!("{items} items, claim {claim}, {threads} threads");
                    assert!(states.iter().all(|s| s.is_sorted()), "{label}");
                    let mut all: Vec<usize> = states.into_iter().flatten().collect();
                    all.sort_unstable();
                    assert_eq!(all, (0..items).collect::<Vec<_>>(), "{label}");
                }
            }
        }
    }

    /// Per-worker states fold to the serial sum, both through the states
    /// and through a shared atomic, at the claim size a wide DAG level gets.
    #[test]
    fn claim_loop_sums_correctly() {
        use std::sync::atomic::AtomicU64;
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        let claim = (1000 / (pool.threads() * 8)).clamp(1, 64);
        let states = claim_loop(
            &pool,
            1000,
            claim,
            || 0u64,
            |sum, i| {
                *sum += i as u64;
                total.fetch_add(i as u64, Ordering::Relaxed);
            },
        );
        assert_eq!(states.iter().sum::<u64>(), 999 * 1000 / 2);
        assert_eq!(total.into_inner(), 999 * 1000 / 2);
    }

    /// The cancel/deadline checkpoint runs once per claim: a cancelled
    /// query aborts at its first claim, and a loop with nothing to claim
    /// never reaches the checkpoint.
    #[test]
    fn claim_loop_checks_the_control_once_per_claim() {
        use crate::fine_grained::exec::Abort;
        let pool = WorkerPool::new(2);
        let cancel = Arc::new(std::sync::atomic::AtomicBool::new(true));
        pool.install_control(Some(cancel), None);
        let run = |items| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                claim_loop(&pool, items, 1, || (), |_, _| {})
            }))
        };
        assert!(run(0).is_ok(), "no claim, no checkpoint");
        let payload = run(1).expect_err("a cancelled claim must abort");
        assert_eq!(payload.downcast_ref::<Abort>(), Some(&Abort::Cancelled));
        assert!(!pool.is_poisoned());
    }
}
