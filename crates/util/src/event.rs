//! The timing wheel's test oracle: a binary heap keyed by virtual time.
//!
//! [`EventHeap`] is a thin wrapper over a binary heap that breaks ties by
//! insertion order — the obviously correct "earliest deadline first, FIFO
//! among equals" queue. Nothing outside the tests uses it: the differential
//! suites in `wheel.rs` hold [`TimerWheel`](crate::TimerWheel) to its pop
//! sequence, and the tests below pin the oracle itself.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;
use crate::wheel::EventKey;

#[derive(Debug)]
struct Entry<T> {
    key: EventKey,
    value: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A min-heap of `(SimTime, T)` with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventHeap<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventHeap<T> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        EventHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `value` to fire at `time`. Returns the key, which can be used
    /// by callers that keep their own cancellation sets.
    #[inline]
    pub fn push(&mut self, time: SimTime, value: T) -> EventKey {
        let key = EventKey {
            time,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { key, value }));
        key
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|Reverse(e)| (e.key.time, e.value))
    }

    /// Removes and returns the earliest event together with its key.
    #[inline]
    pub fn pop_with_key(&mut self) -> Option<(EventKey, T)> {
        self.heap.pop().map(|Reverse(e)| (e.key, e.value))
    }

    /// Returns the deadline of the earliest event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.key.time)
    }

    /// Removes and returns the earliest event only if its deadline is at or
    /// before `now`. The due check peeks before popping, so the common
    /// nothing-due case is a single branch on the heap root.
    #[inline]
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        match self.heap.peek() {
            Some(Reverse(e)) if e.key.time <= now => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut h = EventHeap::new();
        h.push(SimTime::from_millis(30), 3);
        h.push(SimTime::from_millis(10), 1);
        h.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| h.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut h = EventHeap::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            h.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| h.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut h = EventHeap::new();
        h.push(SimTime::from_millis(10), "a");
        h.push(SimTime::from_millis(20), "b");
        assert_eq!(h.pop_due(SimTime::from_millis(5)), None);
        assert_eq!(h.pop_due(SimTime::from_millis(10)).unwrap().1, "a");
        assert_eq!(h.pop_due(SimTime::from_millis(15)), None);
        assert_eq!(h.pop_due(SimTime::from_millis(25)).unwrap().1, "b");
        assert!(h.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut h = EventHeap::new();
        h.push(SimTime::from_secs(1), ());
        assert_eq!(h.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut h = EventHeap::new();
        h.push(SimTime::ZERO, 1);
        h.push(SimTime::ZERO, 2);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn keys_are_unique_and_monotone() {
        let mut h = EventHeap::new();
        let k1 = h.push(SimTime::ZERO, ());
        let k2 = h.push(SimTime::ZERO, ());
        assert!(k2.seq > k1.seq);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Pop order is globally sorted by deadline, FIFO among equal
            /// deadlines — the invariant the deterministic scheduler rests
            /// on. Deadlines are drawn from a tiny domain so collisions are
            /// guaranteed.
            #[test]
            fn pops_sorted_by_time_then_insertion(times in prop::collection::vec(0u64..8, 1..300)) {
                let mut h = EventHeap::new();
                for (i, &t) in times.iter().enumerate() {
                    h.push(SimTime::from_micros(t), i);
                }
                let mut popped = Vec::new();
                while let Some((t, i)) = h.pop() {
                    popped.push((t, i));
                }
                prop_assert_eq!(popped.len(), times.len());
                for w in popped.windows(2) {
                    prop_assert!(w[0].0 <= w[1].0, "deadlines out of order");
                    if w[0].0 == w[1].0 {
                        prop_assert!(
                            w[0].1 < w[1].1,
                            "equal deadlines must pop in insertion order"
                        );
                    }
                }
            }

            /// Interleaving pops with pushes never breaks the FIFO tie-break:
            /// among events that share a deadline, earlier insertion always
            /// pops first, even when insertions straddle pops.
            #[test]
            fn fifo_survives_interleaved_pops(
                batches in prop::collection::vec(prop::collection::vec(0u64..4, 1..10), 1..40),
            ) {
                let mut h = EventHeap::new();
                let mut seq = 0usize;
                let mut popped: Vec<(SimTime, usize)> = Vec::new();
                for batch in &batches {
                    for &t in batch {
                        h.push(SimTime::from_micros(t), seq);
                        seq += 1;
                    }
                    // Drain only what is due "now" (the smallest deadline).
                    if let Some(t0) = h.peek_time() {
                        while let Some(e) = h.pop_due(t0) {
                            popped.push(e);
                        }
                    }
                }
                while let Some(e) = h.pop() {
                    popped.push(e);
                }
                prop_assert_eq!(popped.len(), seq);
                // Two events with the same deadline are either in the heap
                // together (FIFO pop) or the earlier one was already drained
                // in an earlier round — so insertion order must be ascending
                // among ALL equal-deadline pairs, not just adjacent ones, no
                // matter how pops interleave.
                let mut last_seq_at: std::collections::BTreeMap<SimTime, usize> =
                    std::collections::BTreeMap::new();
                for &(t, seq) in &popped {
                    if let Some(&prev) = last_seq_at.get(&t) {
                        prop_assert!(
                            prev < seq,
                            "later insertion popped before an earlier one at deadline {t}: \
                             seq {prev} then {seq}"
                        );
                    }
                    last_seq_at.insert(t, seq);
                }
            }

            /// `pop_due` returns exactly the prefix of events with deadline
            /// <= now, in the same order a full drain would yield them.
            #[test]
            fn pop_due_is_a_prefix_of_full_drain(
                times in prop::collection::vec(0u64..10, 1..200),
                cut in 0u64..10,
            ) {
                let now = SimTime::from_micros(cut);
                let mut a = EventHeap::new();
                let mut b = EventHeap::new();
                for (i, &t) in times.iter().enumerate() {
                    a.push(SimTime::from_micros(t), i);
                    b.push(SimTime::from_micros(t), i);
                }
                let mut due = Vec::new();
                while let Some(e) = a.pop_due(now) {
                    due.push(e);
                }
                let mut all = Vec::new();
                while let Some(e) = b.pop() {
                    all.push(e);
                }
                let expected_len = times.iter().filter(|&&t| t <= cut).count();
                prop_assert_eq!(due.len(), expected_len);
                prop_assert_eq!(&due[..], &all[..due.len()]);
            }
        }
    }
}
