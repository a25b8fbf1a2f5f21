//! A bounded MPMC queue with explicit overload and shutdown semantics.
//!
//! This is the admission-control primitive of the serving layer: the
//! acceptor `try_push`es connections and **sheds** on [`PushError::Full`]
//! instead of queueing unboundedly; workers `pop` until the queue is
//! closed *and* drained, which is what makes graceful shutdown finish
//! every accepted connection instead of dropping it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a `try_push` was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity — the caller should shed the item
    /// (overload policy), not wait.
    Full(T),
    /// The queue was closed (shutdown) — no new work is admitted.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue.
///
/// Unlike a channel, it never blocks producers: `try_push` either
/// succeeds or reports why, so overload policy lives at the call site.
/// Consumers block in [`pop`](BoundedQueue::pop) until an item arrives
/// or the queue is closed and empty.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BoundedQueue(cap {})", self.capacity)
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues without blocking. Returns the new depth on success.
    pub fn try_push(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available (returns `Some`) or the queue is
    /// closed **and** drained (returns `None`). Items pushed before
    /// `close` are always delivered — that is the drain guarantee.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Enqueues without blocking and without the capacity check; only a
    /// closed queue refuses. The reactor uses this for requests from
    /// **already admitted** connections: admission control happens once,
    /// at accept time (`len() >= capacity` sheds the connection), and an
    /// admitted client must never have an in-flight request dropped just
    /// because other connections got busy. Depth stays bounded by the
    /// number of open connections, each of which carries at most one
    /// in-flight request.
    pub fn push_unbounded(&self, item: T) -> Result<usize, PushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        drop(inner);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Closes the queue: future pushes fail with [`PushError::Closed`],
    /// and every consumer wakes once the remaining items drain.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_sheds_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert_eq!(q.try_push(2).unwrap(), 2);
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn closed_queue_refuses_pushes_but_drains() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        match q.try_push("c") {
            Err(PushError::Closed("c")) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push_or_close() {
        let q = Arc::new(BoundedQueue::new(1));
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        q.try_push(7u32).unwrap();
        assert_eq!(h.join().unwrap(), Some(7));

        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.pop());
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn push_unbounded_ignores_capacity_but_not_close() {
        let q = BoundedQueue::new(1);
        assert_eq!(q.try_push(1).unwrap(), 1);
        assert!(matches!(q.try_push(2), Err(PushError::Full(2))));
        assert_eq!(q.push_unbounded(2).unwrap(), 2);
        assert_eq!(q.len(), 2);
        q.close();
        assert!(matches!(q.push_unbounded(3), Err(PushError::Closed(3))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_floor_is_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.try_push(1).unwrap();
        assert!(matches!(q.try_push(2), Err(PushError::Full(2))));
    }
}
