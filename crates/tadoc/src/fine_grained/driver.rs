//! The fine-grained scheduler, written once.
//!
//! G-TADOC has *one* scheduling strategy — chunk-granular work items claimed
//! dynamically (Section IV-B) — feeding *one* accumulation scheme — private
//! per-worker buffers merged by statically owned key range (Figure 5).  This
//! module owns both, and the phase clock every task runs under:
//!
//! * [`claim_loop`] — the dynamic work-queue claim loop with its
//!   once-per-claim cancel/deadline checkpoint;
//! * [`scan_and_merge`] — claim loop → per-worker [`Shards`] routed by each
//!   entry's leading word into key-range buckets → bucket transpose →
//!   contiguous bucket groups of ≈ 1/threads of the entries, one per merge
//!   worker, one [`ShardBuf::merge`] per bucket → the bucket runs, in key
//!   order;
//! * [`run_phases`] — the phase clock (`init` / `shared_init` / `traversal`
//!   / `finalize` / `warm`) that assembles the [`TaskExecution`].
//!
//! The one [`Kernel`] is the per-`l` window fill of the sequence tasks at
//! `l` ≥ 2: it runs [`scan_and_merge`] once per session inside an analysis
//! fill and finalizes into the window table, which every query then reads
//! in one pass.  The word tasks read the `l` = 1 table, which is built
//! without a merge, so no query runs [`scan_and_merge`] on a warm session.
//!
//! Buckets are cut at quantiles of the engine's word-mass column
//! ([`exec::range_splitters`]), `BUCKETS_PER_THREAD` per worker, and the
//! merge groups are cut by the entries the scan actually left
//! ([`exec::partition_by_cost`]).  The limit: one leading word is one
//! bucket, so a word that starts more than 1/threads of all entries is
//! still merged by one worker — the answer is the same, that fill slower.

use super::engine::RunCharge;
use super::exec::{self, WorkerPool};
use crate::apps::TaskExecution;
use crate::results::AnalyticsOutput;
use crate::timing::{PhaseTimings, Timer};
use arena::shard::{ShardBuf, ShardEntry};
use sequitur::WordId;
use std::sync::Arc;

/// Work items per queue claim of a sharded traversal.
const ITEMS_PER_CLAIM: usize = 16;

/// Key-range buckets per pool worker: enough that the merge groups can be
/// cut near 1/threads of the entries around a bucket heavier than the rest.
/// A 1-thread pool routes everything into one bucket.
const BUCKETS_PER_THREAD: usize = 8;

/// What a sharded scan emits: the work-item space and each item's entries.
pub(crate) trait Kernel: Sync {
    /// What a work item emits; equal keys fold by [`ShardEntry::absorb`].
    type Entry: ShardEntry + Send;

    /// Size of the work-item space.
    fn items(&self) -> usize;

    /// Scans work item `item`, routing what it emits into `out` by each
    /// entry's leading word.
    fn scan(&self, item: usize, out: &mut Shards<'_, Self::Entry>);
}

/// One worker's accumulation state: a [`ShardBuf`] per key-range bucket.
pub(crate) struct Shards<'c, E> {
    bufs: Vec<ShardBuf<E>>,
    /// The words at which buckets `1..` begin ([`exec::range_splitters`]).
    cuts: &'c [WordId],
}

impl<E> Shards<'_, E> {
    /// The buffer of the bucket that owns the keys led by word `lead`.
    #[inline]
    pub(crate) fn route(&mut self, lead: WordId) -> &mut ShardBuf<E> {
        &mut self.bufs[self.cuts.partition_point(|&c| c <= lead)]
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
/// `shared_init` / `warm`, plus what a sharded fill it ran measured),
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
    }
}

/// Every worker scans claimed work items into its own [`Shards`], cut at
/// `BUCKETS_PER_THREAD` quantiles per worker of the word-mass column `mass`
/// (one bucket on a 1-thread pool); the buckets are grouped into one
/// contiguous range per merge worker by the entries they hold, and each
/// worker merges its buckets in order (buckets partition the key space, so
/// the merges need no synchronization).  Returns the bucket runs in key
/// order, and records the two pool epochs' wall times
/// ([`PhaseTimings::scan`], [`PhaseTimings::shard_merge`]) and what the
/// merge got ([`PhaseTimings::merge_entries`],
/// [`PhaseTimings::largest_merge_group`]) in `timings`.
pub(crate) fn scan_and_merge<K: Kernel>(
    pool: &WorkerPool,
    kernel: &K,
    mass: &[u64],
    timings: &mut PhaseTimings,
) -> Vec<Vec<K::Entry>> {
    let threads = pool.threads();
    let buckets = if threads == 1 {
        1
    } else {
        BUCKETS_PER_THREAD * threads
    };
    let cuts = &exec::range_splitters(mass, buckets);
    let scan_timer = Timer::start();
    let locals = claim_loop(
        pool,
        kernel.items(),
        ITEMS_PER_CLAIM,
        || Shards {
            bufs: (0..=cuts.len()).map(|_| ShardBuf::default()).collect(),
            cuts,
        },
        |shards, item| kernel.scan(item, shards),
    );
    timings.scan = scan_timer.elapsed();
    // Transpose worker-major buffers into bucket-major pieces so each merge
    // worker owns its buckets' data without cloning.
    let mut by_bucket: Vec<Vec<ShardBuf<K::Entry>>> = (0..=cuts.len())
        .map(|_| Vec::with_capacity(threads))
        .collect();
    for shards in locals {
        for (pieces, buf) in by_bucket.iter_mut().zip(shards.bufs) {
            pieces.push(buf);
        }
    }
    let sizes: Vec<u64> = by_bucket
        .iter()
        .map(|pieces| pieces.iter().map(|buf| buf.len() as u64).sum())
        .collect();
    let groups = exec::partition_by_cost(&sizes, threads);
    timings.merge_entries = sizes.iter().sum();
    timings.largest_merge_group = groups
        .iter()
        .map(|g| sizes[g.clone()].iter().sum())
        .max()
        .unwrap_or(0);
    let mut buckets = by_bucket.into_iter();
    let inputs: Vec<Vec<_>> = groups
        .iter()
        .map(|g| buckets.by_ref().take(g.len()).collect())
        .collect();
    let merge_timer = Timer::start();
    let runs = pool.map_workers(inputs, |_w, group| {
        group.into_iter().map(ShardBuf::merge).collect::<Vec<_>>()
    });
    timings.shard_merge = merge_timer.elapsed();
    runs.into_iter().flatten().collect()
}
