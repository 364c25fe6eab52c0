//! Phase timing and abstract work accounting.
//!
//! TADOC and G-TADOC both split execution into an *initialization* phase
//! (data-structure preparation, light-weight scanning) and a *graph traversal*
//! phase (the analytics proper); Figure 10 of the paper reports speedups per
//! phase.  Besides wall-clock, every phase of the sequential reference
//! ([`run_task`](crate::apps::run_task)) also records [`WorkStats`] —
//! abstract operation counts that feed the platform cost models so the
//! experiment harness can estimate execution time on the paper's hardware
//! rather than on whatever machine happens to run this reproduction.  The
//! fine-grained engine records wall-clock only and leaves both
//! [`WorkStats`] fields at their default: nothing reads them there.

use std::time::{Duration, Instant};

/// Abstract operation counts accumulated while executing a phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkStats {
    /// Grammar elements (symbols) visited.
    pub elements_scanned: u64,
    /// Hash/word-table operations (insert, merge, lookup-update).
    pub table_ops: u64,
    /// Words materialized into output or intermediate streams.
    pub words_emitted: u64,
    /// Bytes read or written from main data structures.
    pub bytes_moved: u64,
    /// Synchronization operations (atomic updates, lock acquisitions).
    pub sync_ops: u64,
}

impl WorkStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &WorkStats) {
        self.elements_scanned += other.elements_scanned;
        self.table_ops += other.table_ops;
        self.words_emitted += other.words_emitted;
        self.bytes_moved += other.bytes_moved;
        self.sync_ops += other.sync_ops;
    }
}

/// Why a query was served by the sequential fallback instead of the
/// execution path the session was built for.  Recorded in
/// [`PhaseTimings::degraded`] when the fine-grained path faulted and the
/// engine transparently retried the query sequentially (oracle-identical by
/// construction) — the answer is still correct, but a serving layer will
/// want to alert on the latency cliff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// A worker panicked mid-query; the pool was healed (rebuilt) and the
    /// query retried on the sequential path.
    WorkerPanic,
}

/// A snapshot of the session results cache taken as a query completed,
/// attached to [`PhaseTimings::results_cache`] when the engine was built
/// with [`results_cache(true)`](crate::fine_grained::EngineBuilder::results_cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultsCacheStats {
    /// `true` when *this* query was answered from the results cache
    /// without executing anything.
    pub hit: bool,
    /// Cumulative cache hits for the session, including this query.
    pub hits: u64,
    /// Cumulative cache misses for the session, including this query.
    pub misses: u64,
}

/// Wall-clock and work accounting for the two execution phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Initialization phase duration.
    pub init: Duration,
    /// DAG traversal phase duration.
    pub traversal: Duration,
    /// Work performed during initialization.  Counted by the sequential
    /// reference (and the uncompressed baseline) for [`crate::cost`]; left
    /// at `WorkStats::default()` by the fine-grained engine.
    pub init_work: WorkStats,
    /// Work performed during traversal; same contract as `init_work`.
    pub traversal_work: WorkStats,
    /// Portion of `init` spent *computing* shared session artifacts (DAG
    /// levels, rule weights, the rule × file matrix, window tables, chunk
    /// lists).  On a cold
    /// [`Engine`](crate::fine_grained::Engine) run this is most of `init`;
    /// on a warm run every artifact is served from the session cache and
    /// this is [`Duration::ZERO`].  The sequential path does not break out a
    /// shared portion and leaves it zero.
    pub shared_init: Duration,
    /// Portion of `traversal` spent turning the workers' parts into the
    /// final [`AnalyticsOutput`](crate::results::AnalyticsOutput):
    /// concatenating the parts, which are in key order, into the ordered
    /// columnar tables.
    /// Recorded by the fine-grained finalizers; the sequential path, which
    /// interleaves result construction with the scan, leaves it zero.
    pub finalize: Duration,
    /// Portion of `shared_init` the window fill of a sequence length
    /// `l` ≥ 2 spends in the claim loop: workers scanning work items into
    /// their private window lists, as the wall time of that pool epoch.
    /// Recorded by the query that runs the fill; zero on every other query
    /// (the word tasks and `l` = 1 read a table built without a scan), and
    /// on the sequential path.
    pub scan: Duration,
    /// Portion of `shared_init` the same window fill spends after the scan:
    /// grouping the windows by leading word with a counting sort, sorting
    /// each leading word's group of each worker's range in one pool epoch,
    /// then folding the ranges into the table's columns in a second.
    /// Zero where `scan` is.
    pub window_sort: Duration,
    /// Windows the scan emitted, one per local occurrence.  Zero where
    /// `scan` is.
    pub merge_entries: u64,
    /// The windows of the largest word range one worker sorted, before the
    /// fold; `merge_entries / threads` is the balanced share.
    pub largest_merge_group: u64,
    /// `true` when every shared artifact the task needed was served from a
    /// warm session cache (nothing was computed this run), or the whole
    /// output came from the results cache.  Always `false` for
    /// [`run_task`](crate::apps::run_task), which keeps no analysis layer.
    pub warm: bool,
    /// Set when the run was *degraded*: the fine-grained path faulted and
    /// the engine served the query through the sequential fallback instead.
    /// `None` on every run served by the requested path.
    pub degraded: Option<Degradation>,
    /// Results-cache accounting for this query: `Some` only on engines
    /// built with the results cache enabled, `None` everywhere else.
    pub results_cache: Option<ResultsCacheStats>,
}

impl PhaseTimings {
    /// Total duration of both phases.
    pub fn total(&self) -> Duration {
        self.init + self.traversal
    }
}

/// A simple scope timer.
#[derive(Debug)]
pub struct Timer {
    start: Instant,
}

impl Timer {
    /// Starts a timer.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Elapsed time since the timer started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_stats_merge_and_total() {
        let mut a = WorkStats {
            elements_scanned: 10,
            table_ops: 5,
            words_emitted: 2,
            bytes_moved: 100,
            sync_ops: 1,
        };
        let b = WorkStats {
            elements_scanned: 1,
            table_ops: 1,
            words_emitted: 1,
            bytes_moved: 1,
            sync_ops: 1,
        };
        a.merge(&b);
        assert_eq!(a.elements_scanned, 11);
        assert_eq!(a.bytes_moved, 101);
    }

    #[test]
    fn phase_timings_total() {
        let t = PhaseTimings {
            init: Duration::from_millis(10),
            traversal: Duration::from_millis(25),
            ..Default::default()
        };
        assert_eq!(t.total(), Duration::from_millis(35));
    }

    #[test]
    fn timer_measures_elapsed_time() {
        let t = Timer::start();
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.elapsed() >= Duration::from_millis(1));
    }
}
