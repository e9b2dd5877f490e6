//! A bounded multi-producer/multi-consumer job queue with explicit
//! backpressure and drain-on-close semantics.
//!
//! Producers (connection readers) use the non-blocking
//! [`BoundedQueue::try_push`]: a full queue is an immediate
//! [`PushError::Full`], which the server turns into an `Overloaded`
//! response — load is shed at the door instead of building an unbounded
//! backlog. Consumers (workers) block in [`BoundedQueue::pop_batch`];
//! [`BoundedQueue::close`] lets already-queued jobs drain (pops keep
//! succeeding) and wakes every worker once the queue is empty.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue is closed (server shutting down); the item is handed
    /// back.
    Closed(T),
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Most items ever queued at once.
    high_water: usize,
}

/// The bounded MPMC queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        BoundedQueue {
            state: Mutex::new(State {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                high_water: 0,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues without blocking; a full or closed queue refuses the
    /// item immediately.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        state.items.push_back(item);
        state.high_water = state.high_water.max(state.items.len());
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Dequeues up to `max` items into `out`, blocking only for the
    /// first one. Whatever else is *already* queued rides along (up to
    /// the cap) without waiting — batch formation never adds latency: a
    /// lone job departs alone, a backlog drains in packs. Returns the
    /// number of items appended; `0` means the queue is closed **and**
    /// drained.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !state.items.is_empty() {
                let take = max.min(state.items.len());
                out.extend(state.items.drain(..take));
                return take;
            }
            if state.closed {
                return 0;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// [`pop_batch`](Self::pop_batch) that waits at most `patience` for
    /// the first item: `Some(0)` when none came, `None` once the queue is
    /// closed **and** drained. For a consumer with something to check at
    /// intervals whether or not anything is queued.
    pub fn pop_batch_timeout(
        &self,
        out: &mut Vec<T>,
        max: usize,
        patience: Duration,
    ) -> Option<usize> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.items.is_empty() && !state.closed {
            let waited = self.available.wait_timeout(state, patience);
            state = waited.unwrap_or_else(|e| e.into_inner()).0;
        }
        if state.items.is_empty() && state.closed {
            return None;
        }
        let take = max.min(state.items.len());
        out.extend(state.items.drain(..take));
        Some(take)
    }

    /// Closes the queue: future pushes fail, queued items still drain,
    /// and idle consumers wake up to observe the close.
    pub fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        drop(state);
        self.available.notify_all();
    }

    /// The items queued now and the most ever queued at once, read
    /// together under the queue's lock.
    pub fn depth(&self) -> (usize, usize) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (state.items.len(), state.high_water)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn backpressure_at_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 1), 1);
        assert_eq!(out, vec![1]);
        q.try_push(3).unwrap();
        assert_eq!(q.depth(), (2, 2));
    }

    #[test]
    fn depth_tracks_high_water() {
        let q = BoundedQueue::new(8);
        let mut out = Vec::new();
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop_batch(&mut out, 1), 1);
        q.try_push(3).unwrap();
        assert_eq!(q.depth(), (2, 2));
        q.try_push(4).unwrap();
        assert_eq!(q.pop_batch(&mut out, 8), 3);
        assert_eq!(q.depth(), (0, 3), "a pop leaves the high-water mark");
        // A refused push changes neither.
        q.close();
        assert!(q.try_push(5).is_err());
        assert_eq!(q.depth(), (0, 3));
    }

    #[test]
    fn close_drains_then_wakes() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(PushError::Closed(3)));
        // Queued items still drain, one pop at a time.
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 1), 1);
        assert_eq!(q.pop_batch(&mut out, 1), 1);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(q.pop_batch(&mut out, 1), 0);
    }

    #[test]
    fn blocked_consumer_wakes_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_batch(&mut Vec::new(), 8));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), 0);
    }

    #[test]
    fn pop_batch_timeout_gives_up_drains_and_wakes_on_close() {
        use std::time::{Duration, Instant};

        let q = Arc::new(BoundedQueue::new(4));
        let mut out = Vec::new();
        let patience = Duration::from_millis(10);
        // Nothing came: an empty batch, not the end.
        assert_eq!(q.pop_batch_timeout(&mut out, 8, patience), Some(0));
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop_batch_timeout(&mut out, 8, patience), Some(2));
        // What was accepted before the close still drains; then the end.
        q.try_push(3).unwrap();
        q.close();
        assert_eq!(q.pop_batch_timeout(&mut out, 8, patience), Some(1));
        assert_eq!(q.pop_batch_timeout(&mut out, 8, patience), None);
        assert_eq!(out, vec![1, 2, 3]);

        // A consumer waiting out a long patience wakes when the queue closes.
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let started = Instant::now();
        let h = std::thread::spawn(move || {
            q2.pop_batch_timeout(&mut Vec::new(), 8, Duration::from_secs(60))
        });
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
        assert!(started.elapsed() < Duration::from_secs(30));
    }

    #[test]
    fn pop_batch_drains_backlog_without_blocking() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        // The remainder comes in the next batch, even under a larger cap.
        assert_eq!(q.pop_batch(&mut out, 64), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn pop_batch_lone_item_departs_alone() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || {
            let mut out = Vec::new();
            let n = q2.pop_batch(&mut out, 16);
            (n, out)
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(7).unwrap();
        let (n, out) = h.join().unwrap();
        // The blocked worker takes what is there; it does not linger
        // hoping for a fuller batch.
        assert_eq!((n, out), (1, vec![7]));
    }

    #[test]
    fn pop_batch_observes_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        q.try_push(1).unwrap();
        q.close();
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out, 8), 1);
        assert_eq!(q.pop_batch(&mut out, 8), 0, "closed and drained");
        assert_eq!(q.pop_batch(&mut out, 0), 0, "zero cap never blocks");
    }

    #[test]
    fn many_producers_many_consumers() {
        let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(8));
        let mut consumers = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            consumers.push(std::thread::spawn(move || {
                let mut sum = 0u64;
                let mut out = Vec::new();
                while q.pop_batch(&mut out, 3) > 0 {
                    sum += out.drain(..).sum::<u64>();
                }
                sum
            }));
        }
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    let v = p * 1000 + i;
                    loop {
                        match q.try_push(v) {
                            Ok(()) => break,
                            Err(PushError::Full(_)) => std::thread::yield_now(),
                            Err(PushError::Closed(_)) => panic!("closed early"),
                        }
                    }
                }
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        let expected: u64 = (0..4u64)
            .flat_map(|p| (0..100u64).map(move |i| p * 1000 + i))
            .sum();
        assert_eq!(total, expected);
    }
}
