//! The fine-grained scheduler, written once.
//!
//! G-TADOC has *one* scheduling strategy — chunk-granular work items claimed
//! dynamically (Section IV-B) — feeding *one* accumulation scheme — private
//! per-worker buffers merged by statically owned hash shard (Figure 5).  The
//! tasks differ only in what a work item emits and how a shard's sorted
//! entries become result columns.  This module owns everything else:
//!
//! * [`claim_loop`] — the dynamic work-queue claim loop with its
//!   once-per-claim cancel/deadline checkpoint;
//! * [`run_sharded`] — claim loop → per-worker [`Shards`] routed by
//!   [`exec::shard_of`] → shard transpose → one [`ShardBuf::merge`] per
//!   shard on the pool → the kernel's finalizer;
//! * [`run_phases`] — the phase clock (`init` / `shared_init` / `traversal`
//!   / `finalize` / `warm`) that assembles the [`TaskExecution`].
//!
//! A task is a [`Kernel`].

use super::engine::RunCharge;
use super::exec::{self, WorkerPool};
use crate::apps::TaskExecution;
use crate::results::AnalyticsOutput;
use crate::timing::{PhaseTimings, Timer};
use arena::shard::{ShardBuf, ShardEntry};
use std::sync::Arc;
use std::time::Duration;

/// Work items per queue claim of a sharded traversal.
const ITEMS_PER_CLAIM: usize = 16;

/// What distinguishes one sharded task from another.  Built by the closure
/// handed to [`run_sharded`], which is also where the task `ensure_*`s the
/// analysis artifacts it scans.
pub(crate) trait Kernel: Sized + Sync {
    /// What a work item emits; equal keys fold by [`ShardEntry::absorb`].
    type Entry: ShardEntry + Send;
    /// Per-worker scratch reused across work items (`()` when none).
    type Scratch: Default + Send;
    /// One shard's columnar output.
    type Run: Send;

    /// Size of the work-item space.
    fn items(&self) -> usize;

    /// Scans work item `item`, routing what it emits into `out`.
    fn scan(&self, item: usize, scratch: &mut Self::Scratch, out: &mut Shards<Self::Entry>);

    /// Turns one shard's sorted, duplicate-free entries into its run.
    fn shard_run(&self, entries: Vec<Self::Entry>) -> Self::Run;

    /// Merges the key-disjoint shard runs into the ordered result.
    fn finalize(self, runs: Vec<Self::Run>, pool: &WorkerPool) -> AnalyticsOutput;
}

/// One worker's accumulation state: a [`ShardBuf`] per merge shard.
pub(crate) struct Shards<E> {
    bufs: Vec<ShardBuf<E>>,
}

impl<E> Shards<E> {
    /// The buffer of the shard that owns `hash` ([`exec::shard_of`]).
    #[inline]
    pub(crate) fn route(&mut self, hash: u64) -> &mut ShardBuf<E> {
        let shard = exec::shard_of(hash, self.bufs.len());
        &mut self.bufs[shard]
    }
}

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
/// `shared_init` / `warm`), `traverse` + `finalize` as the traversal phase,
/// and `finalize` alone as its finalize portion.  `init_work` /
/// `traversal_work` stay at their default: the fine engine counts no
/// abstract work (the sequential reference does, for `tadoc::cost`).
pub(crate) fn run_phases<P, T>(
    prepare: impl FnOnce(&mut RunCharge) -> P,
    traverse: impl FnOnce(&P) -> T,
    finalize: impl FnOnce(P, T) -> AnalyticsOutput,
) -> TaskExecution {
    let init_timer = Timer::start();
    let mut charge = RunCharge::default();
    let prepared = prepare(&mut charge);
    let init = init_timer.elapsed();

    let traversal_timer = Timer::start();
    let partial = traverse(&prepared);
    let finalize_timer = Timer::start();
    let output = finalize(prepared, partial);
    let finalize = finalize_timer.elapsed();
    let traversal = traversal_timer.elapsed();

    TaskExecution {
        output: Arc::new(output),
        timings: PhaseTimings {
            init,
            traversal,
            shared_init: charge.time,
            finalize,
            warm: !charge.computed,
            ..Default::default()
        },
    }
}

/// Runs one sharded task: every worker scans claimed work items into its
/// own [`Shards`], each shard's per-worker buffers are handed to exactly one
/// merge worker (shards partition the key space, so the merges need no
/// synchronization), and the kernel k-way merges the per-shard runs.  The
/// two pool epochs of the traversal are timed apart as
/// [`PhaseTimings::scan`] and [`PhaseTimings::shard_merge`].
pub(crate) fn run_sharded<K: Kernel>(
    pool: &WorkerPool,
    prepare: impl FnOnce(&mut RunCharge) -> K,
) -> TaskExecution {
    let threads = pool.threads();
    let (mut scan, mut shard_merge) = (Duration::ZERO, Duration::ZERO);
    let mut exec = run_phases(
        prepare,
        |kernel| {
            let scan_timer = Timer::start();
            let locals = claim_loop(
                pool,
                kernel.items(),
                ITEMS_PER_CLAIM,
                || {
                    let bufs = (0..threads).map(|_| ShardBuf::default()).collect();
                    (Shards { bufs }, K::Scratch::default())
                },
                |(shards, scratch), item| kernel.scan(item, scratch, shards),
            );
            scan = scan_timer.elapsed();
            // Transpose worker-major buffers into shard-major pieces so
            // each merge worker owns its shard's data without cloning.
            let mut by_shard: Vec<Vec<ShardBuf<K::Entry>>> =
                (0..threads).map(|_| Vec::with_capacity(threads)).collect();
            for (shards, _) in locals {
                for (pieces, buf) in by_shard.iter_mut().zip(shards.bufs) {
                    pieces.push(buf);
                }
            }
            let merge_timer = Timer::start();
            let runs = pool.map_workers(by_shard, |_s, pieces| {
                kernel.shard_run(ShardBuf::merge(pieces))
            });
            shard_merge = merge_timer.elapsed();
            runs
        },
        |kernel, runs| kernel.finalize(runs, pool),
    );
    exec.timings.scan = scan;
    exec.timings.shard_merge = shard_merge;
    exec
}
