//! Deterministic discrete-event queue.
//!
//! Events pop in the canonical order of their [`EventKey`]: time first,
//! then a rank the scheduler assigns, then push order. A simulator that
//! ranks every class of event whose push order could vary between two
//! equivalent schedules — for example, where a core happened to yield —
//! gets results that do not depend on push order at all. Plain
//! [`EventQueue::push`] uses rank 0, so a queue that never ranks is FIFO
//! at equal times.

use crate::time::Ps;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event's place in the canonical order: its time, then its rank.
/// Events with equal keys pop in push order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// When the event fires.
    pub at: Ps,
    /// Its order among events at the same time (lower first).
    pub rank: u64,
}

impl EventKey {
    /// A key above every other.
    pub const MAX: EventKey = EventKey::new(Ps::MAX, u64::MAX);

    /// The key of an event of rank `rank` at `at`.
    pub const fn new(at: Ps, rank: u64) -> Self {
        EventKey { at, rank }
    }
}

struct Entry<T> {
    key: EventKey,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    // Reversed so that the std max-heap yields the *lowest* key first;
    // equal keys break on insertion order (FIFO) for determinism.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// An event queue ordered by `(time, rank, push order)`.
///
/// Every simulator in this workspace drives its model by popping the
/// lowest pending key, advancing the clock to its timestamp, and handling
/// it. Events at the same timestamp pop in rank order, and events with
/// equal keys in insertion order, which makes simulations bit-reproducible
/// across runs.
///
/// # Examples
///
/// ```
/// use dl_engine::{EventQueue, Ps};
///
/// let mut q = EventQueue::new();
/// q.push(Ps::from_ns(5), 'b');
/// q.push_ranked(Ps::from_ns(5), 7, 'd'); // same time, higher rank: later
/// q.push(Ps::from_ns(5), 'c'); // same key as 'b': FIFO
/// q.push(Ps::from_ns(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c', 'd']);
/// ```
#[derive(Default)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Pushes so far: the next entry's FIFO tie-break, and the count
    /// [`Self::total_scheduled`] reports.
    seq: u64,
    /// Timestamp of the last popped event: the queue's notion of "current
    /// sim time", against which the audit build checks causality.
    #[cfg(feature = "audit")]
    now: Ps,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            #[cfg(feature = "audit")]
            now: Ps::ZERO,
        }
    }

    /// Schedules `payload` to fire at absolute time `at`, with rank 0.
    pub fn push(&mut self, at: Ps, payload: T) {
        self.push_ranked(at, 0, payload);
    }

    /// Schedules `payload` to fire at absolute time `at`, after every
    /// event at `at` of a lower rank and before every one of a higher rank.
    ///
    /// Under `feature = "audit"`, panics if `at` predates the timestamp of
    /// the last popped event — scheduling into the past means a handler's
    /// effect could never be observed in causal order.
    pub fn push_ranked(&mut self, at: Ps, rank: u64, payload: T) {
        #[cfg(feature = "audit")]
        assert!(
            at >= self.now,
            "causality violation: event scheduled at {at} but sim time already advanced to {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let key = EventKey::new(at, rank);
        self.heap.push(Entry { key, seq, payload });
    }

    /// Removes and returns the event with the lowest key, if any.
    pub fn pop(&mut self) -> Option<(Ps, T)> {
        let next = self.heap.pop().map(|e| (e.key.at, e.payload));
        #[cfg(feature = "audit")]
        if let Some((at, _)) = &next {
            self.now = *at;
        }
        next
    }

    /// The key of the next event to pop.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|e| e.key)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (a cheap progress metric).
    pub fn total_scheduled(&self) -> u64 {
        self.seq
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("scheduled", &self.seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Ps::from_ns(3), 3u32);
        q.push(Ps::from_ns(1), 1u32);
        q.push(Ps::from_ns(2), 2u32);
        assert_eq!(q.pop(), Some((Ps::from_ns(1), 1)));
        assert_eq!(q.pop(), Some((Ps::from_ns(2), 2)));
        assert_eq!(q.pop(), Some((Ps::from_ns(3), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(Ps::from_ns(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn rank_beats_push_order_at_equal_times() {
        let mut q = EventQueue::new();
        q.push_ranked(Ps::from_ns(4), 9, "high");
        q.push_ranked(Ps::from_ns(4), 2, "low");
        q.push(Ps::from_ns(4), "zero");
        // An earlier time still wins over any rank.
        q.push_ranked(Ps::from_ns(3), u64::MAX, "earlier");
        assert_eq!(q.peek_key(), Some(EventKey::new(Ps::from_ns(3), u64::MAX)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["earlier", "zero", "low", "high"]);
    }

    #[test]
    fn equal_ranks_stay_fifo() {
        let mut q = EventQueue::new();
        for i in 0..50u32 {
            q.push_ranked(Ps::from_ns(7), 3, i);
            q.push_ranked(Ps::from_ns(7), 1, 100 + i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        let expected: Vec<u32> = (100..150).chain(0..50).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn plain_push_is_rank_zero() {
        // `push` is rank 0: FIFO among equal keys, and ahead of every
        // higher-ranked event at the same time.
        let mut q = EventQueue::new();
        q.push_ranked(Ps::from_ns(2), 1, 'x');
        q.push(Ps::from_ns(2), 'a');
        q.push_ranked(Ps::from_ns(2), 0, 'b');
        q.push(Ps::from_ns(2), 'c');
        assert_eq!(q.peek_key(), Some(EventKey::new(Ps::from_ns(2), 0)));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['a', 'b', 'c', 'x']);
        assert_eq!(q.total_scheduled(), 4);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Ps::from_ns(9), ());
        assert_eq!(q.peek_key(), Some(EventKey::new(Ps::from_ns(9), 0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn counts_scheduled() {
        let mut q = EventQueue::new();
        q.push(Ps::ZERO, ());
        q.push(Ps::ZERO, ());
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "causality violation")]
    fn audit_rejects_scheduling_into_the_past() {
        let mut q = EventQueue::new();
        q.push(Ps::from_ns(10), ());
        q.pop(); // sim time is now 10 ns
        q.push(Ps::from_ns(9), ()); // handler schedules before its own cause
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_accepts_scheduling_at_current_time() {
        // Zero-latency (same-timestamp) events are causal: FIFO tie-break
        // delivers them after their cause.
        let mut q = EventQueue::new();
        q.push(Ps::from_ns(10), 0u32);
        q.pop();
        q.push(Ps::from_ns(10), 1u32);
        q.push(Ps::from_ns(11), 2u32);
        assert_eq!(q.pop(), Some((Ps::from_ns(10), 1)));
        assert_eq!(q.pop(), Some((Ps::from_ns(11), 2)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Ps::from_ns(10), "late");
        q.push(Ps::from_ns(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(Ps::from_ns(5), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }
}
