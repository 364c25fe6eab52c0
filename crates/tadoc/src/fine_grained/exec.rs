//! Persistent worker-pool executor for the fine-grained engine.
//!
//! The GPU runs one SIMT thread per rule; on the CPU we approximate the same
//! fine-grained schedule with a small pool of OS threads.  Every pass over
//! the pool is one of two shapes: the engine's claim loop, where workers
//! pull chunks of the rule (or file, or chunk) index space off an atomic
//! cursor — a worker that lands on cheap rules simply claims more, the way
//! the paper's thread groups balance load — or one contiguous range per
//! worker, cut from a running-cost column by [`split`].  Oversized items
//! are cut into chunks first ([`chunk_ranges`]).
//!
//! The pool is **persistent**: [`WorkerPool::new`] spawns its helper threads
//! once, parks them on a condvar, and every subsequent phase or DAG level is
//! dispatched as an *epoch* — a generation-counted barrier round — over the
//! same threads: waking a parked thread is all a level costs, and worker
//! `w` of one level is the same OS thread as worker `w` of the next.
//!
//! An epoch is the level barrier of the traversal: [`WorkerPool::run`] does
//! not return until every worker has finished the epoch, so every write a
//! worker makes during a level is visible to the caller and to all workers
//! of the next level.

// The session layer (this module and `engine`) is the error boundary of the
// fine path: every fallible edge must either return a typed error or carry a
// documented unreachability argument — bare `.unwrap()` is banned outright
// (enforced by the CI `robustness-gate` clippy run).
#![deny(clippy::unwrap_used)]

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Type-erased pointer to one epoch's job closure.
///
/// The pointee is only dereferenced between the epoch announcement and the
/// worker's completion signal, a window during which [`WorkerPool::run`] is
/// still blocked and the borrow it erased is therefore still live.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: `JobPtr` crosses threads (it is handed to the parked helpers
// through `EpochState`), so it must be `Send`; two obligations make that
// sound.  (1) Shared use: the pointee is `dyn Fn + Sync`, so concurrent
// `&`-calls from every helper are fine by `Sync`'s own contract.
// (2) Lifetime-erasure: the pointer was transmuted to `'static` in
// `WorkerPool::epoch` from a borrow that is *not* static, so `Send` must
// never let a helper dereference it after that borrow ends.  It cannot:
// the pointer is published only in `EpochState.job`, helpers read it only
// between the epoch announcement and their `remaining` decrement, and
// `epoch` blocks (via `EpochGuard`, even when unwinding) until
// `remaining == 0` and then clears `job` — so every dereference happens
// while the caller's frame, and therefore the erased borrow, is still
// alive.  The erasure never escapes this module: `JobPtr` is private, and
// the public API's borrow checking is untouched (see the `compile_fail`
// doctest on [`WorkerPool::run`]).
unsafe impl Send for JobPtr {}

/// Level passes over at most this many rules (or indices) run inline on the
/// caller: even waking parked threads costs more than a near-empty DAG
/// level itself.
pub const INLINE_THRESHOLD: usize = 32;

/// Barrier generation state shared between the caller and the parked
/// helper threads.
struct EpochState {
    /// Generation counter: incremented once per dispatched epoch.
    epoch: u64,
    /// The current epoch's job (present while an epoch is in flight).
    job: Option<JobPtr>,
    /// Helper threads still running the current epoch.
    remaining: usize,
    /// First panic payload caught from a helper this epoch (re-thrown on
    /// the calling thread once the barrier completes).
    panic: Option<Box<dyn std::any::Any + Send>>,
    /// Set once, on drop: helpers exit instead of waiting for a new epoch.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<EpochState>,
    /// Helpers park here waiting for the next epoch (or shutdown).
    start: Condvar,
    /// The caller parks here waiting for `remaining == 0`.
    done: Condvar,
}

/// Unreachable in practice: no code path holds a pool mutex across anything
/// that can unwind — helpers run jobs under `catch_unwind` *outside* the
/// lock, and the control checkpoint releases its lock before raising an
/// abort — so the `.expect(POOL_MUTEX_MSG)` sites assert an invariant rather
/// than handle a reachable error.
const POOL_MUTEX_MSG: &str = "worker pool mutex poisoned";

/// A controlled early exit of a query, raised as a typed panic payload by
/// [`WorkerPool::checkpoint`] when the installed control trips.  It rides
/// the same panic-safe barrier machinery as a real fault — every worker
/// unwinds to the barrier, the epoch completes — but the dispatcher
/// recognizes the payload and treats the query as cleanly aborted: an
/// `Abort` never poisons the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Abort {
    /// The query's cancel token was triggered.
    Cancelled,
    /// The query's deadline passed.
    DeadlineExceeded,
}

/// The per-query cooperative-cancellation control (cancel flag + absolute
/// deadline) checked by [`WorkerPool::checkpoint`].
#[derive(Default)]
struct ControlState {
    cancel: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

struct Control {
    /// Fast-path gate: `true` only while a cancel token or deadline is
    /// installed, so control-free queries pay a single relaxed load per
    /// chunk boundary.
    active: AtomicBool,
    state: Mutex<ControlState>,
}

/// A persistent pool of parked worker threads dispatching jobs as
/// generation-counted barrier epochs.
///
/// Worker 0 is the calling thread; `threads - 1` helper threads are spawned
/// once and parked between epochs.  Worker ids are stable across epochs
/// (worker `w` is always the same OS thread).
///
/// ```
/// use tadoc::fine_grained::exec::{split, WorkerPool};
///
/// let pool = WorkerPool::new(4);
/// // Three epochs over the same four workers — no threads are spawned
/// // after `new`.
/// let squares = pool.collect(|w| w * w);
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// let doubled = pool.map_workers(vec![1, 2, 3, 4], |_w, x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8]);
/// // One range of `0..6` per worker, balanced by cost (1, 1, 1, 1, 4, 4).
/// let ranges = split(&[0, 1, 2, 3, 4, 8, 12], pool.threads());
/// let sums = pool.map_workers(ranges, |_w, range| range.sum::<usize>());
/// assert_eq!(sums, vec![3, 3, 4, 5]);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Set when an epoch faulted with anything other than a controlled
    /// [`Abort`]: worker-local state (scratch mid-write, a word range
    /// mid-sort) may be inconsistent, and the owner should rebuild the pool
    /// before trusting it with another query.  The *barrier* is intact
    /// either way — a poisoned pool still completes epochs.
    poisoned: AtomicBool,
    control: Control,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("epochs", &self.epochs())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `threads` workers total (the calling thread plus
    /// `threads - 1` parked helpers; `threads` is clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(EpochState {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fine-worker-{w}"))
                    .spawn(move || helper_loop(&shared, w))
                    .expect("failed to spawn pool worker thread")
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
            poisoned: AtomicBool::new(false),
            control: Control {
                active: AtomicBool::new(false),
                state: Mutex::new(ControlState::default()),
            },
        }
    }

    /// Total number of workers, including the calling thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of epochs (barrier generations) dispatched to the helper
    /// threads so far.  Single-threaded pools run everything inline and
    /// never dispatch an epoch.
    pub fn epochs(&self) -> u64 {
        self.shared.state.lock().expect(POOL_MUTEX_MSG).epoch
    }

    /// Runs `f(worker_id)` once per worker as one barrier epoch (worker 0 on
    /// the calling thread) and blocks until every worker has finished — the
    /// level barrier of the traversal.
    ///
    /// Panics propagate like `thread::scope`: every worker's body runs
    /// under `catch_unwind`, the barrier is always completed first, and then
    /// the first caught payload (worker 0's takes precedence) is re-thrown on
    /// the calling thread — so the job closure is never referenced after
    /// `run` unwinds, and the pool is structurally intact either way.  A
    /// payload other than [`Abort`] marks the pool
    /// [poisoned](WorkerPool::is_poisoned) before it is re-thrown.
    ///
    /// The lifetime-erasure `run` performs internally (handing the borrowed
    /// closure to the helper threads) never leaks into the API: `f` is
    /// borrowed only for the call, and borrows *inside* `f` still obey
    /// ordinary scoping.  Smuggling a short-lived borrow out through the
    /// job does not compile:
    ///
    /// ```compile_fail,E0597
    /// use tadoc::fine_grained::exec::WorkerPool;
    /// use std::sync::Mutex;
    ///
    /// let pool = WorkerPool::new(2);
    /// let sink: Mutex<Vec<&usize>> = Mutex::new(Vec::new());
    /// {
    ///     let local = 7usize;
    ///     // error[E0597]: `local` does not live long enough — the borrow
    ///     // pushed into `sink` must outlive the inner scope, and the
    ///     // erased pointer inside `run` grants no such extension.
    ///     pool.run(&|_| sink.lock().expect("sink").push(&local));
    /// }
    /// drop(sink);
    /// ```
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if let Err(payload) = self.epoch(f) {
            // Controlled aborts leave only *discarded* per-query state
            // behind; anything else may have broken invariants mid-write.
            if !payload.is::<Abort>() {
                self.poisoned.store(true, Ordering::Release);
            }
            std::panic::resume_unwind(payload);
        }
    }

    /// One barrier epoch with every worker's unwind caught: the first
    /// payload, once the barrier has completed.
    fn epoch(&self, f: &(dyn Fn(usize) + Sync)) -> std::thread::Result<()> {
        if self.handles.is_empty() {
            return std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                failpoints::fail_point!("worker-epoch");
                f(0);
            }));
        }
        // SAFETY: erasing the borrow's lifetime is sound because this
        // function only returns after every helper has signalled completion
        // (`remaining == 0`), and helpers never touch the job pointer after
        // signalling — so the pointee outlives every dereference.
        let job = JobPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const (dyn Fn(usize) + Sync))
        });
        {
            let mut st = self.shared.state.lock().expect(POOL_MUTEX_MSG);
            debug_assert_eq!(st.remaining, 0, "epoch dispatched while one is in flight");
            st.job = Some(job);
            st.remaining = self.handles.len();
            st.panic = None;
            st.epoch += 1;
            self.shared.start.notify_all();
        }
        // Wait out the barrier even if worker 0's share panics below: the
        // helpers are still dereferencing the lifetime-erased job pointer,
        // so unwinding past it before `remaining == 0` would be a
        // use-after-free.  (Worker 0 is additionally wrapped in
        // `catch_unwind`, but the guard keeps the barrier panic-safe even
        // against unwinds `catch_unwind` cannot see, e.g. a checkpoint
        // abort raised between the dispatch above and the catch below.)
        struct EpochGuard<'a>(&'a PoolShared);
        impl Drop for EpochGuard<'_> {
            fn drop(&mut self) {
                let mut st = self.0.state.lock().expect(POOL_MUTEX_MSG);
                while st.remaining > 0 {
                    st = self.0.done.wait(st).expect(POOL_MUTEX_MSG);
                }
                st.job = None;
            }
        }
        let guard = EpochGuard(&self.shared);
        let worker0 = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            failpoints::fail_point!("worker-epoch");
            f(0);
        }));
        drop(guard);
        let helper_payload = self.shared.state.lock().expect(POOL_MUTEX_MSG).panic.take();
        match (worker0, helper_payload) {
            (Err(payload), _) | (Ok(()), Some(payload)) => Err(payload),
            (Ok(()), None) => Ok(()),
        }
    }

    /// Whether a past epoch faulted with a non-[`Abort`] panic.  The barrier
    /// machinery survives a fault, but worker-local data touched by the
    /// faulted epoch may be inconsistent; the owning session heals by
    /// rebuilding the pool (cheap: `threads - 1` thread spawns) before the
    /// next query.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Installs the cooperative-cancellation control for the queries that
    /// follow: an optional shared cancel flag and an optional absolute
    /// deadline, both checked by [`WorkerPool::checkpoint`].  Overwrites any
    /// previously installed control; [`WorkerPool::clear_control`] removes
    /// it.
    pub fn install_control(&self, cancel: Option<Arc<AtomicBool>>, deadline: Option<Instant>) {
        let mut st = self.control.state.lock().expect(POOL_MUTEX_MSG);
        let active = cancel.is_some() || deadline.is_some();
        st.cancel = cancel;
        st.deadline = deadline;
        self.control.active.store(active, Ordering::Release);
    }

    /// Removes the installed control: subsequent checkpoints are a single
    /// relaxed load.
    pub fn clear_control(&self) {
        self.install_control(None, None);
    }

    /// A cooperative cancellation point, called by every app path once per
    /// claimed chunk and between DAG levels.  When the installed control has
    /// tripped (token cancelled, or deadline passed) this raises a typed
    /// [`Abort`] unwind, which the panic-safe barrier contains and the
    /// dispatcher maps to a clean `Cancelled`/`DeadlineExceeded` error —
    /// the pool is **not** poisoned.  Without an installed control the cost
    /// is one relaxed atomic load.
    #[inline]
    pub fn checkpoint(&self) {
        failpoints::fail_point!("chunk-boundary");
        if self.control.active.load(Ordering::Acquire) {
            self.checkpoint_slow();
        }
    }

    #[cold]
    fn checkpoint_slow(&self) {
        let st = self.control.state.lock().expect(POOL_MUTEX_MSG);
        let abort = if st
            .cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
        {
            Some(Abort::Cancelled)
        } else if st.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(Abort::DeadlineExceeded)
        } else {
            None
        };
        // Release the lock before unwinding: a panic while holding the
        // control mutex would poison it for every later checkpoint.
        drop(st);
        if let Some(abort) = abort {
            std::panic::panic_any(abort);
        }
    }

    /// Runs `f(worker_id)` once per worker and returns the results in worker
    /// order.
    pub fn collect<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = (0..self.threads).map(|_| Mutex::new(None)).collect();
        self.run(&|w| {
            let r = f(w);
            *slots[w].lock().expect("worker result slot poisoned") = Some(r);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker result slot poisoned")
                    .expect("worker finished without a result")
            })
            .collect()
    }

    /// Hands one owned input to each worker (`f(worker_id, input)`) and
    /// returns the results in worker order.  Used to move each worker's
    /// owned buffers into its thread; because worker ids are stable, input
    /// `w` lands on the same OS thread in every phase.
    ///
    /// Accepts at most [`Self::threads`] inputs; workers beyond the input
    /// count idle through the epoch.
    pub fn map_workers<T, R, F>(&self, inputs: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = inputs.len();
        assert!(
            n <= self.threads,
            "map_workers got {n} inputs for a pool of {} workers",
            self.threads
        );
        type Slot<T, R> = Mutex<(Option<T>, Option<R>)>;
        let slots: Vec<Slot<T, R>> = inputs
            .into_iter()
            .map(|t| Mutex::new((Some(t), None)))
            .collect();
        self.run(&|w| {
            if w >= n {
                return;
            }
            let input = slots[w]
                .lock()
                .expect("worker input slot poisoned")
                .0
                .take()
                .expect("worker input consumed twice");
            let r = f(w, input);
            slots[w].lock().expect("worker input slot poisoned").1 = Some(r);
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker input slot poisoned")
                    .1
                    .expect("worker finished without a result")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect(POOL_MUTEX_MSG);
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Body of one parked helper thread: wait for the next epoch generation (or
/// shutdown), run the job, signal completion, park again.
fn helper_loop(shared: &PoolShared, worker: usize) {
    let mut seen = 0u64;
    loop {
        let (epoch, job) = {
            let mut st = shared.state.lock().expect(POOL_MUTEX_MSG);
            while !st.shutdown && st.epoch == seen {
                st = shared.start.wait(st).expect(POOL_MUTEX_MSG);
            }
            if st.shutdown {
                return;
            }
            (st.epoch, st.job.expect("epoch announced without a job"))
        };
        // Panics are caught so the barrier always completes (a missing
        // decrement would deadlock the caller) and reported to the calling
        // thread; `AssertUnwindSafe` matches `thread::scope` semantics —
        // the fault propagates, and the epoch's shared state is discarded
        // with it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Inside the catch: a broken barrier is a pool fault and must
            // complete the barrier like any other worker panic.  No epoch
            // can be dispatched before every helper finished the last one,
            // so each helper sees every epoch, in order.
            debug_assert_eq!(epoch, seen + 1, "worker {worker} skipped an epoch");
            failpoints::fail_point!("worker-epoch");
            // SAFETY: `WorkerPool::epoch` keeps the closure alive until this worker
            // (and all others) decrement `remaining` below — the pointee
            // outlives every dereference.
            (unsafe { &*job.0 })(worker)
        }));
        seen = epoch;
        let mut st = shared.state.lock().expect(POOL_MUTEX_MSG);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// Splits `n` items into `parts` contiguous ranges of near-equal cost.
/// `bounds` is their running-cost column: `n + 1` entries from 0, so item
/// `i` costs `bounds[i + 1] - bounds[i]` (a table's `u32` CSR offsets, a
/// counting sort's `usize` starts, a layout's record ends), each read in
/// place as a `usize`.  Part `p` ends at the item boundary nearest
/// `total × (p + 1) / parts` — the lower one on a tie —
/// and together the ranges cover `0..n` exactly once.  Every static split
/// of the engine's pool passes is this one.
///
/// **No-empty-part guarantee:** while items remain, every part takes at
/// least one, and a part stops claiming items early rather than starve the
/// parts after it.  So a part can only be empty when there are fewer items
/// than parts — in particular, after [`chunk_ranges`] has split oversized
/// items, a single huge item (the root) can no longer absorb several parts'
/// cost targets and leave the later parts empty.
///
/// ```
/// use tadoc::fine_grained::exec::split;
///
/// // Costs 3, 1, 1, 1, 3, 3, as a table's `u32` CSR offsets.
/// let ranges = split(&[0u32, 3, 4, 5, 6, 9, 12], 3);
/// assert_eq!(ranges, vec![0..2, 2..5, 5..6]);
///
/// // One item dwarfing the rest (costs 100, 1, 1, 1) still leaves no part
/// // empty.
/// let ranges = split(&[0, 100, 101, 102, 103], 4);
/// assert_eq!(ranges, vec![0..1, 1..2, 2..3, 3..4]);
/// ```
pub fn split<B: Copy>(bounds: &[B], parts: usize) -> Vec<Range<usize>>
where
    usize: TryFrom<B>,
{
    let get = |b: B| usize::try_from(b).unwrap_or(usize::MAX);
    let parts = parts.max(1);
    let n = bounds.len().saturating_sub(1);
    let total = bounds.last().map_or(0, |&b| get(b));
    let mut start = 0;
    (0..parts)
        .map(|p| {
            let end = if start >= n || p + 1 == parts {
                // Everything left (including trailing zero-cost items)
                // belongs to the last part.
                n
            } else {
                // The cut lies in `lo..=hi`: at least one item for this
                // part, at least one for each part after it.
                let target = total * (p + 1) / parts;
                let lo = start + 1;
                let hi = (n + p + 1).saturating_sub(parts).max(lo);
                let past = lo + bounds[lo..hi].partition_point(|&b| get(b) < target);
                if past > lo && get(bounds[past - 1]) + get(bounds[past]) >= 2 * target {
                    past - 1
                } else {
                    past
                }
            };
            let range = start..end;
            start = end;
            range
        })
        .collect()
}

/// One chunk of an item's index space: the sub-range `[begin, end)` of work
/// item `item`.  Produced by [`chunk_ranges`]; consumed by the app paths so
/// that a single huge item (dataset B's root rule, a giant local-word list)
/// fans out across the whole pool instead of serialising on one worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Index of the item this chunk belongs to.
    pub item: u32,
    /// First index of the chunk within the item.
    pub begin: u32,
    /// One past the last index of the chunk.
    pub end: u32,
}

/// Splits every item's `0..len` index space into chunks of at most `target`
/// indices, in item order.  Items of length 0 produce no chunks.  Each chunk
/// is weighted individually into [`split`] (cost = its length) or claimed on
/// its own, which is what keeps one oversized item from starving the other
/// workers.
///
/// ```
/// use tadoc::fine_grained::exec::{chunk_ranges, Chunk};
///
/// let chunks = chunk_ranges([2, 0, 5].into_iter(), 3);
/// assert_eq!(
///     chunks,
///     vec![
///         Chunk { item: 0, begin: 0, end: 2 },
///         Chunk { item: 2, begin: 0, end: 3 },
///         Chunk { item: 2, begin: 3, end: 5 },
///     ]
/// );
/// ```
pub fn chunk_ranges<I: IntoIterator<Item = usize>>(lens: I, target: usize) -> Vec<Chunk> {
    let target = target.max(1);
    let mut out = Vec::new();
    for (item, len) in lens.into_iter().enumerate() {
        let mut begin = 0usize;
        while begin < len {
            let end = (begin + target).min(len);
            out.push(Chunk {
                item: item as u32,
                begin: begin as u32,
                end: end as u32,
            });
            begin = end;
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests may assert by unwrapping
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn collect_returns_worker_order() {
        let pool = WorkerPool::new(4);
        let out = pool.collect(|w| w * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn map_workers_moves_inputs() {
        let pool = WorkerPool::new(2);
        let regions = vec![vec![0u32; 2], vec![0u32; 3]];
        let out = pool.map_workers(regions, |w, mut r| {
            r.fill(w as u32 + 1);
            r
        });
        assert_eq!(out, vec![vec![1, 1], vec![2, 2, 2]]);
    }

    #[test]
    fn map_workers_accepts_fewer_inputs_than_workers() {
        let pool = WorkerPool::new(4);
        let out = pool.map_workers(vec![5u32], |w, x| (w, x));
        assert_eq!(out, vec![(0, 5)]);
    }

    #[test]
    fn epochs_count_barrier_generations_and_threads_persist() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.epochs(), 0);
        // Worker ids must be stable across epochs: record each epoch's
        // (worker id -> thread id) mapping and compare.
        let first: Vec<(usize, std::thread::ThreadId)> =
            pool.collect(|w| (w, std::thread::current().id()));
        for _ in 0..100 {
            let again: Vec<(usize, std::thread::ThreadId)> =
                pool.collect(|w| (w, std::thread::current().id()));
            assert_eq!(again, first, "worker ids must stay pinned to OS threads");
        }
        assert_eq!(pool.epochs(), 101);
    }

    #[test]
    fn single_thread_pool_runs_inline_without_epochs() {
        let pool = WorkerPool::new(1);
        let out = pool.collect(|w| w);
        assert_eq!(out, vec![0]);
        pool.run(&|_| {});
        assert_eq!(pool.epochs(), 0, "no helpers, no epochs");
    }

    #[test]
    fn helper_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 3 {
                    panic!("helper boom");
                }
            });
        }));
        assert!(result.is_err(), "helper panic must reach the caller");
        // The barrier completed despite the panic, so the pool is reusable.
        assert_eq!(pool.collect(|w| w), vec![0, 1, 2, 3]);
    }

    #[test]
    fn caller_panic_completes_barrier_before_unwinding() {
        let pool = WorkerPool::new(4);
        let finished = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 0 {
                    panic!("caller boom");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                // Relaxed suffices: the barrier inside run() orders these
                // increments before the caller's load below.
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "worker 0's panic must propagate");
        // run() must not unwind while helpers still reference the job: all
        // three helpers finished their (slower) share before the panic
        // escaped.
        assert_eq!(finished.load(Ordering::Relaxed), 3);
        assert_eq!(pool.collect(|w| w * 2), vec![0, 2, 4, 6]);
    }

    /// Runs one epoch of `f` on `pool`, returning the payload `run`
    /// re-throws, if any.
    fn run_caught(pool: &WorkerPool, f: &(dyn Fn(usize) + Sync)) -> std::thread::Result<()> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(f)))
    }

    #[test]
    fn a_faulted_epoch_rethrows_its_payload_and_poisons_the_pool() {
        let pool = WorkerPool::new(4);
        assert!(!pool.is_poisoned());
        let payload = run_caught(&pool, &|w| {
            if w == 2 {
                panic!("epoch boom");
            }
        })
        .expect_err("fault must be reported");
        let msg = payload.downcast_ref::<&str>().expect("str payload");
        assert_eq!(*msg, "epoch boom");
        assert!(pool.is_poisoned(), "a real fault poisons the pool");
        // Poisoned is advisory: the barrier is intact and epochs still run.
        assert_eq!(pool.collect(|w| w), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_thread_pool_contains_worker_zero_fault() {
        let pool = WorkerPool::new(1);
        assert!(run_caught(&pool, &|_| panic!("inline boom")).is_err());
        assert!(pool.is_poisoned());
    }

    #[test]
    fn cancel_checkpoint_aborts_without_poisoning() {
        let pool = WorkerPool::new(4);
        let cancel = Arc::new(AtomicBool::new(true));
        pool.install_control(Some(cancel), None);
        let payload =
            run_caught(&pool, &|_| pool.checkpoint()).expect_err("cancelled epoch must abort");
        assert_eq!(payload.downcast_ref::<Abort>(), Some(&Abort::Cancelled));
        assert!(!pool.is_poisoned(), "a controlled abort must not poison");
        pool.clear_control();
        assert!(run_caught(&pool, &|_| pool.checkpoint()).is_ok());
    }

    #[test]
    fn deadline_checkpoint_aborts_in_bounded_time() {
        let pool = WorkerPool::new(2);
        pool.install_control(None, Some(Instant::now()));
        let payload = run_caught(&pool, &|_| loop {
            pool.checkpoint();
        })
        .expect_err("expired deadline must abort");
        assert_eq!(
            payload.downcast_ref::<Abort>(),
            Some(&Abort::DeadlineExceeded)
        );
        pool.clear_control();
        assert!(!pool.is_poisoned());
    }

    #[test]
    fn checkpoint_without_control_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.run(&|_| (0..100).for_each(|_| pool.checkpoint()));
        assert!(!pool.is_poisoned());
    }

    /// The running-cost column of `costs`.
    fn bounds(costs: &[usize]) -> Vec<usize> {
        std::iter::once(0)
            .chain(costs.iter().scan(0, |sum, &c| {
                *sum += c;
                Some(*sum)
            }))
            .collect()
    }

    #[test]
    fn split_covers_exactly_and_balances() {
        let costs: Vec<usize> = (0..100).map(|i| i % 7 + 1).collect();
        let total: usize = costs.iter().sum();
        for parts in [1usize, 3, 8, 200] {
            let ranges = split(&bounds(&costs), parts);
            assert_eq!(ranges.len(), parts);
            let mut next = 0usize;
            for range in &ranges {
                assert_eq!(range.start, next, "{parts} parts: contiguous coverage");
                next = range.end;
                let cost: usize = costs[range.clone()].iter().sum();
                assert!(
                    cost <= total / parts + 7,
                    "{parts} parts: range {range:?} cost {cost} exceeds fair share"
                );
            }
            assert_eq!(next, costs.len());
        }
    }

    #[test]
    fn split_handles_degenerate_inputs() {
        assert_eq!(split(&bounds(&[]), 3), vec![0..0, 0..0, 0..0]);
        assert_eq!(split(&bounds(&[0, 0, 0]), 2), vec![0..1, 1..3]);
        assert_eq!(split(&bounds(&[5]), 4), vec![0..1, 1..1, 1..1, 1..1]);
        assert_eq!(split(&bounds(&[1, 1]), 0), vec![0..2]);
        assert_eq!(
            split::<u32>(&[], 2),
            vec![0..0, 0..0],
            "no column, no items"
        );
    }

    /// Regression for the pre-chunking degenerate case: one item whose cost
    /// exceeds the sum of all the others used to absorb several parts' cost
    /// targets and leave the later parts empty.  With at least as many items
    /// as parts, no part may be empty.
    #[test]
    fn split_never_yields_empty_parts_when_items_suffice() {
        let cases: Vec<(Vec<usize>, usize)> = vec![
            (vec![100, 1, 1, 1], 4),
            (vec![1, 1000, 1, 1, 1, 1], 4),
            (vec![1, 1, 1, 1000], 3),
            (vec![0, 0, 7, 0], 4),
            (
                (0..64).map(|i| if i == 5 { 10_000 } else { 1 }).collect(),
                8,
            ),
        ];
        for (costs, parts) in cases {
            assert!(costs.len() >= parts);
            let ranges = split(&bounds(&costs), parts);
            let mut next = 0usize;
            for range in &ranges {
                assert!(
                    !range.is_empty(),
                    "{costs:?} split {parts} ways left {range:?} empty: {ranges:?}"
                );
                assert_eq!(range.start, next);
                next = range.end;
            }
            assert_eq!(next, costs.len());
        }
    }

    /// A cut lands on the boundary nearest its target, not the first one at
    /// or past it: four files of 100, 90, 110 and 95 split two ways as
    /// 190 / 205, where the first boundary past 197 would give 300 / 95.
    #[test]
    fn split_cuts_at_the_nearest_boundary() {
        let costs = [100, 90, 110, 95];
        assert_eq!(split(&bounds(&costs), 2), vec![0..2, 2..4]);
        // A tie goes to the lower boundary: the target 10 lies halfway
        // between 5 and 15.
        assert_eq!(split(&bounds(&[5, 10, 5]), 2), vec![0..1, 1..3]);
    }

    #[test]
    fn chunk_ranges_cover_items_exactly() {
        let lens = [0usize, 10, 3, 4097, 1];
        let target = 7;
        let chunks = chunk_ranges(lens.iter().copied(), target);
        for (item, &len) in lens.iter().enumerate() {
            let mut covered = 0usize;
            for c in chunks.iter().filter(|c| c.item == item as u32) {
                assert_eq!(c.begin as usize, covered);
                assert!(c.begin < c.end && c.end - c.begin <= target as u32);
                covered = c.end as usize;
            }
            assert_eq!(covered, len, "item {item}");
        }
        assert!(
            !chunks.iter().any(|c| c.item == 0),
            "len-0 items yield no chunks"
        );
    }
}
