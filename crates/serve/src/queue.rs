//! Bounded MPSC queues with explicit close semantics.
//!
//! One queue feeds each shard worker. The queue itself never blocks a
//! producer: admission control ([`crate::Admission`]) decides *before*
//! pushing whether an arrival is admitted, delayed, or shed, so
//! [`BoundedQueue::try_push`] failing is an accounting event, not a wait.
//! The consumer side blocks with a timeout so a worker can run its
//! deadline enforcer even when no arrivals flow.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Outcome of a [`BoundedQueue::pop_timeout`].
#[derive(Debug)]
pub enum Pop<T> {
    /// A message was dequeued.
    Msg(T),
    /// The timeout elapsed with the queue still open and empty.
    TimedOut,
    /// The queue is closed and fully drained: the consumer is done.
    Closed,
}

struct QueueState<T> {
    buf: VecDeque<T>,
    closed: bool,
}

/// A mutex-and-condvar bounded FIFO. Zero-dependency by policy (std
/// only); the serving hot path is the model forward, not the queue, so a
/// lock-free ring would buy nothing measurable here.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    readable: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be at least 1");
        Self {
            state: Mutex::new(QueueState {
                buf: VecDeque::new(),
                closed: false,
            }),
            readable: Condvar::new(),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Messages currently queued. A point-in-time read: admission uses it
    /// as a watermark, not an exact reservation.
    pub fn depth(&self) -> usize {
        self.lock().buf.len()
    }

    /// Enqueues `msg` unless the queue is full or closed; on failure the
    /// message is handed back so the caller can account for it.
    pub fn try_push(&self, msg: T) -> Result<usize, T> {
        let mut s = self.lock();
        if s.closed || s.buf.len() >= self.capacity {
            return Err(msg);
        }
        s.buf.push_back(msg);
        let depth = s.buf.len();
        drop(s);
        self.readable.notify_one();
        Ok(depth)
    }

    /// Dequeues the next message, waiting up to `timeout` for one to
    /// arrive. [`Pop::Closed`] is only returned once the queue is both
    /// closed *and* empty — close is a drain barrier, not a drop.
    pub fn pop_timeout(&self, timeout: Duration) -> Pop<T> {
        let mut s = self.lock();
        loop {
            if let Some(msg) = s.buf.pop_front() {
                return Pop::Msg(msg);
            }
            if s.closed {
                return Pop::Closed;
            }
            let (guard, res) = self
                .readable
                .wait_timeout(s, timeout)
                .unwrap_or_else(|e| e.into_inner());
            s = guard;
            if res.timed_out() && s.buf.is_empty() && !s.closed {
                return Pop::TimedOut;
            }
        }
    }

    /// Closes the queue: producers are rejected from now on; the consumer
    /// drains what is already queued, then sees [`Pop::Closed`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.readable.notify_all();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        // A producer/consumer panicking mid-push leaves the VecDeque
        // consistent (push_back/pop_front are atomic w.r.t. the lock), so
        // poisoning is safe to clear — required: a chaos-killed worker
        // must not wedge the whole shard queue.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn fifo_order_and_capacity_are_enforced() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(1));
        assert_eq!(q.try_push(2), Ok(2));
        assert_eq!(q.try_push(3), Err(3), "full queue must reject");
        assert_eq!(q.depth(), 2);
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(1)),
            Pop::Msg(1)
        ));
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(1)),
            Pop::Msg(2)
        ));
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(1)),
            Pop::TimedOut
        ));
    }

    #[test]
    fn close_is_a_drain_barrier() {
        let q = BoundedQueue::new(4);
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.try_push(8), Err(8), "closed queue rejects producers");
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(1)),
            Pop::Msg(7)
        ));
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(1)),
            Pop::Closed
        ));
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(1)),
            Pop::Closed
        ));
    }

    #[test]
    fn consumer_wakes_on_push_and_on_close() {
        let q = Arc::new(BoundedQueue::new(4));
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut seen = Vec::new();
            loop {
                match qc.pop_timeout(Duration::from_secs(5)) {
                    Pop::Msg(m) => seen.push(m),
                    Pop::Closed => return seen,
                    Pop::TimedOut => panic!("producer should wake us well before 5s"),
                }
            }
        });
        let t0 = Instant::now();
        for i in 0..10 {
            while q.try_push(i).is_err() {
                std::thread::yield_now();
            }
        }
        q.close();
        let seen = consumer.join().unwrap();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(t0.elapsed() < Duration::from_secs(5));
    }
}
