//! A keyed, bounded MPMC queue with non-blocking admission — the
//! backpressure primitive for the serving layer.
//!
//! The experiment engine's `par_map` family works over a *known* input
//! slice; a daemon instead receives work at an uncontrolled rate and must
//! never buffer it unboundedly. [`FairQueue`] gives producers a
//! non-blocking [`try_push`](FairQueue::try_push), capped per client key
//! and in total (so an acceptor thread can turn "queue full" into an
//! immediate `503` instead of stalling the socket), and consumers a
//! blocking [`pop`](FairQueue::pop) that serves keys round-robin and
//! parks on a condvar until work or shutdown arrives.
//! [`close`](FairQueue::close) begins a graceful drain: producers are
//! refused, consumers finish whatever is already queued and then observe
//! `None`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Why a [`FairQueue::try_push`] was refused. The rejected item is
/// handed back so the caller can respond to it (e.g. write a `503`).
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; shed load.
    Full(T),
    /// The queue is closed; no new work is accepted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

struct FairState<K, T> {
    /// Per-key subqueues; `BTreeMap` keeps key iteration deterministic.
    queues: BTreeMap<K, VecDeque<T>>,
    /// Round-robin rotation of keys that currently hold items.
    rotation: VecDeque<K>,
    total: usize,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue that shares its
/// capacity fairly between client keys.
///
/// Items are enqueued under a client key (e.g. the peer address); each key
/// gets its own bounded subqueue and [`pop`](FairQueue::pop) serves keys
/// round-robin. One client flooding the server can therefore fill only its
/// *own* subqueue — its excess is shed with [`PushError::Full`] while other
/// clients' items keep flowing at full rate. A total cap bounds aggregate
/// memory regardless of how many distinct keys appear.
///
/// # Examples
///
/// ```
/// use nvpg_exec::queue::FairQueue;
///
/// let q = FairQueue::new(2, 8);
/// q.try_push("noisy", 1).unwrap();
/// q.try_push("noisy", 2).unwrap();
/// assert!(q.try_push("noisy", 3).is_err()); // per-key cap
/// q.try_push("quiet", 9).unwrap();          // other keys unaffected
/// assert_eq!(q.pop(), Some(1));
/// assert_eq!(q.pop(), Some(9));             // round-robin, not FIFO
/// q.close();
/// ```
pub struct FairQueue<K, T> {
    state: Mutex<FairState<K, T>>,
    not_empty: Condvar,
    per_key_capacity: usize,
    total_capacity: usize,
}

impl<K: Ord + Clone, T> FairQueue<K, T> {
    /// Creates a queue holding at most `per_key_capacity` items per key
    /// and `total_capacity` items overall.
    ///
    /// # Panics
    ///
    /// Panics when either capacity is zero (a queue that refuses every
    /// push is a configuration error, not load shedding).
    pub fn new(per_key_capacity: usize, total_capacity: usize) -> Self {
        assert!(per_key_capacity >= 1, "per-key capacity must be at least 1");
        assert!(total_capacity >= 1, "total capacity must be at least 1");
        FairQueue {
            state: Mutex::new(FairState {
                queues: BTreeMap::new(),
                rotation: VecDeque::new(),
                total: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            per_key_capacity,
            total_capacity,
        }
    }

    /// The per-key subqueue capacity.
    pub fn per_key_capacity(&self) -> usize {
        self.per_key_capacity
    }

    /// The aggregate capacity across all keys.
    pub fn total_capacity(&self) -> usize {
        self.total_capacity
    }

    /// Total items queued right now (racy; for metrics, not decisions).
    pub fn len(&self) -> usize {
        self.state.lock().expect("fair queue state").total
    }

    /// `true` when no items are queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().expect("fair queue state").closed
    }

    /// Enqueues `item` under `key` without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] when the key's subqueue or the total cap is at
    /// capacity (the caller sheds that client's request, not the queue);
    /// [`PushError::Closed`] after [`close`](Self::close).
    pub fn try_push(&self, key: K, item: T) -> Result<(), PushError<T>> {
        let mut state = self.state.lock().expect("fair queue state");
        if state.closed {
            return Err(PushError::Closed(item));
        }
        if state.total >= self.total_capacity {
            return Err(PushError::Full(item));
        }
        let sub_len = state.queues.get(&key).map_or(0, VecDeque::len);
        if sub_len >= self.per_key_capacity {
            return Err(PushError::Full(item));
        }
        if sub_len == 0 {
            state.rotation.push_back(key.clone());
        }
        state.queues.entry(key).or_default().push_back(item);
        state.total += 1;
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the next item in round-robin key order, blocking while
    /// the queue is empty and open. Returns `None` only when closed *and*
    /// drained — the worker-thread exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("fair queue state");
        loop {
            if let Some(key) = state.rotation.pop_front() {
                let sub = state.queues.get_mut(&key).expect("rotated key present");
                let item = sub.pop_front().expect("rotated key non-empty");
                if sub.is_empty() {
                    state.queues.remove(&key);
                } else {
                    state.rotation.push_back(key);
                }
                state.total -= 1;
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("fair queue state");
        }
    }

    /// Closes the queue: pushes are refused, queued items stay poppable,
    /// blocked consumers wake. Idempotent.
    pub fn close(&self) {
        self.state.lock().expect("fair queue state").closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    #[should_panic(expected = "per-key capacity")]
    fn zero_capacity_is_rejected() {
        let _ = FairQueue::<&str, i32>::new(0, 8);
    }

    #[test]
    #[should_panic(expected = "total capacity")]
    fn zero_total_capacity_is_rejected() {
        let _ = FairQueue::<&str, i32>::new(8, 0);
    }

    #[test]
    fn fair_queue_round_robins_across_keys() {
        let q = FairQueue::new(8, 64);
        // "a" floods first, then "b" and "c" each add one.
        for v in 0..4 {
            q.try_push("a", ("a", v)).unwrap();
        }
        q.try_push("b", ("b", 0)).unwrap();
        q.try_push("c", ("c", 0)).unwrap();
        // Round-robin: a, b, c each get a turn before a's backlog drains.
        assert_eq!(q.pop(), Some(("a", 0)));
        assert_eq!(q.pop(), Some(("b", 0)));
        assert_eq!(q.pop(), Some(("c", 0)));
        assert_eq!(q.pop(), Some(("a", 1)));
        assert_eq!(q.pop(), Some(("a", 2)));
        assert_eq!(q.pop(), Some(("a", 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn fair_queue_per_key_cap_sheds_only_the_flooder() {
        let q = FairQueue::new(2, 16);
        q.try_push("noisy", 1).unwrap();
        q.try_push("noisy", 2).unwrap();
        match q.try_push("noisy", 3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        // A different key is still admitted.
        q.try_push("quiet", 10).unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn fair_queue_total_cap_bounds_aggregate() {
        let q = FairQueue::new(8, 3);
        q.try_push(1, "x").unwrap();
        q.try_push(2, "y").unwrap();
        q.try_push(3, "z").unwrap();
        assert!(matches!(q.try_push(4, "w"), Err(PushError::Full("w"))));
        // Popping frees aggregate room for any key.
        assert!(q.pop().is_some());
        q.try_push(4, "w").unwrap();
    }

    #[test]
    fn fair_queue_close_drains_then_signals_exit() {
        let q = FairQueue::new(4, 16);
        q.try_push("k", 1).unwrap();
        q.close();
        assert!(q.is_closed());
        assert!(matches!(q.try_push("k", 2), Err(PushError::Closed(2))));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "close is sticky");
    }

    #[test]
    fn fair_queue_blocked_consumers_wake() {
        let q = Arc::new(FairQueue::new(16, 64));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        for v in 0..20 {
            let key = v % 3;
            while let Err(PushError::Full(_)) = q.try_push(key, v) {
                std::thread::yield_now();
            }
        }
        q.close();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|h| h.join().expect("consumer"))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..20).collect::<Vec<_>>());
    }
}
