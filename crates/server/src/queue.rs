//! The bounded admission queue between connection handlers and executors.
//!
//! Admission control beyond the engine's try-lock: handlers
//! [`try_push`](AdmissionQueue::try_push) (never block, never grow the queue
//! past its capacity — a full queue sheds the request immediately),
//! executors [`drain`](AdmissionQueue::drain) work (the server's executors
//! take one job per turn), blocking while the queue is empty and open.
//! [`close`](AdmissionQueue::close) wakes every
//! waiting executor; drains after close still hand out the remaining
//! admitted work (graceful shutdown = drain, then refuse), and return `None`
//! once the queue is both closed and empty.
//!
//! The queue also keeps the high-water mark of its depth, which the serving
//! report surfaces (`max_queue_depth`) to show how close the system ran to
//! shedding.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Outcome of a non-blocking push.
#[derive(Debug)]
pub enum Push<T> {
    /// Admitted; `depth` is the queue depth including this item.
    Queued {
        /// Queue depth right after the push.
        depth: usize,
    },
    /// The queue is at capacity — the item comes back to be shed.
    Full(T),
    /// The queue is closed (shutdown) — the item comes back to be refused.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    max_depth: usize,
}

/// A bounded multi-producer multi-consumer queue with shed-on-full
/// semantics.
pub struct AdmissionQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> AdmissionQueue<T> {
    /// A queue admitting at most `capacity` items at a time.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                max_depth: 0,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking admission: queues the item, or returns it for shedding
    /// (full) / refusal (closed).
    pub fn try_push(&self, item: T) -> Push<T> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed {
            return Push::Closed(item);
        }
        if inner.items.len() >= self.capacity {
            return Push::Full(item);
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        inner.max_depth = inner.max_depth.max(depth);
        drop(inner);
        self.ready.notify_one();
        Push::Queued { depth }
    }

    /// Takes up to `max` items, blocking while the queue is empty and open.
    /// Returns `None` once the queue is closed **and** drained — the
    /// executor's signal to exit.
    pub fn drain(&self, max: usize) -> Option<Vec<T>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if !inner.items.is_empty() {
                let take = max.max(1).min(inner.items.len());
                let batch: Vec<T> = inner.items.drain(..take).collect();
                // More work may remain for a sibling executor.
                if !inner.items.is_empty() {
                    self.ready.notify_one();
                }
                return Some(batch);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: new pushes return [`Push::Closed`], waiting
    /// executors wake, and remaining items still drain.
    pub fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }

    /// Current depth (snapshot).
    pub fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .items
            .len()
    }

    /// High-water mark of the depth since construction.
    pub fn max_depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn sheds_when_full_and_tracks_high_water() {
        let q = AdmissionQueue::new(2);
        assert!(matches!(q.try_push(1), Push::Queued { depth: 1 }));
        assert!(matches!(q.try_push(2), Push::Queued { depth: 2 }));
        match q.try_push(3) {
            Push::Full(v) => assert_eq!(v, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.max_depth(), 2);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn drain_batches_and_leaves_the_rest() {
        let q = AdmissionQueue::new(8);
        for i in 0..5 {
            assert!(matches!(q.try_push(i), Push::Queued { .. }));
        }
        let batch = q.drain(3).expect("open queue");
        assert_eq!(batch, vec![0, 1, 2]);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_refuses_new_work_but_drains_the_old() {
        let q = AdmissionQueue::new(8);
        assert!(matches!(q.try_push(7), Push::Queued { .. }));
        q.close();
        match q.try_push(8) {
            Push::Closed(v) => assert_eq!(v, 8),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.drain(4), Some(vec![7]));
        assert_eq!(q.drain(4), None);
    }

    #[test]
    fn blocked_drain_wakes_on_push_and_on_close() {
        let q = Arc::new(AdmissionQueue::new(4));

        // Wakes on push.
        let qa = Arc::clone(&q);
        let h = thread::spawn(move || qa.drain(2));
        thread::sleep(Duration::from_millis(20));
        assert!(matches!(q.try_push(42), Push::Queued { .. }));
        assert_eq!(h.join().expect("drain thread"), Some(vec![42]));

        // Wakes on close.
        let qa = Arc::clone(&q);
        let h = thread::spawn(move || qa.drain(2));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().expect("drain thread"), None);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert!(matches!(q.try_push(1), Push::Queued { depth: 1 }));
        assert!(matches!(q.try_push(2), Push::Full(2)));
    }
}
