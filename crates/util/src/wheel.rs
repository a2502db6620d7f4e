//! A hierarchical timing wheel for the per-packet scheduler path.
//!
//! [`TimerWheel`] is the emulator's one event queue. Where a binary heap
//! pays `O(log n)` per push/pop, the wheel buckets deadlines into fixed-width slots sized around the
//! emulator's scheduler quantum, so near-term deadlines cost `O(1)` to insert
//! and `O(1)` amortised to pop — independent of how many pipes are pending.
//!
//! # Structure
//!
//! Two wheel levels plus an overflow heap:
//!
//! * **Level 0** — 256 slots of one quantum each (default quantum `2^17` ns ≈
//!   131 µs, the power of two nearest the paper's 100 µs hardware tick).
//!   Horizon ≈ 33.5 ms: queueing and transmission deadlines land here.
//! * **Level 1** — 256 slots of 256 quanta each, horizon ≈ 8.6 s: long
//!   propagation delays and retransmission timers land here and cascade into
//!   level 0 as the wheel turns.
//! * **Overflow** — a comparison-based min-heap for deadlines beyond the
//!   level-1 horizon (idle application timers, far-future wakeups). These are
//!   rare by construction, so the `O(log n)` cost is off the per-packet path.
//!
//! # Semantics
//!
//! Pop order is that of a binary heap over `(time, seq)`: earliest deadline
//! first, FIFO among equal deadlines (each push is stamped with a monotonic
//! sequence number and entries are ordered by the full key, not by slot). A
//! deadline already in the past pops immediately. The differential property
//! tests at the bottom of this file pin the wheel to the byte-identical
//! `(time, seq)` pop sequences of that heap (`EventHeap`, kept in
//! `event.rs` as the test-only oracle) across random workloads, including
//! deadlines that cross the overflow level.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// Ordering key of a queued event: deadline first, then insertion sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// The virtual time at which the event fires.
    pub time: SimTime,
    /// Monotonic insertion sequence number, used to break ties
    /// deterministically (FIFO among equal deadlines).
    pub seq: u64,
}

/// Slots per wheel level (`2^SLOT_BITS`).
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Bitmap words per level.
const OCC_WORDS: usize = SLOTS / 64;

/// Default quantum: `2^17` ns ≈ 131 µs, the power of two nearest the
/// emulator's 100 µs scheduler tick.
const DEFAULT_QUANTUM_SHIFT: u32 = 17;

/// The slot width of a default-quantum wheel. Periodic work that should
/// land on slot boundaries (e.g. the fluid-epoch grid) rounds its cadence
/// to a multiple of this, keeping the wheel's high-water mark flat.
pub const DEFAULT_WHEEL_QUANTUM: SimDuration = SimDuration::from_nanos(1 << DEFAULT_QUANTUM_SHIFT);

/// Maximum number of drained slot buffers kept for reuse.
const SPARE_POOL: usize = 8;

#[derive(Debug, Clone)]
struct OverflowEntry<T> {
    key: EventKey,
    value: T,
}

impl<T> PartialEq for OverflowEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for OverflowEntry<T> {}
impl<T> PartialOrd for OverflowEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for OverflowEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Returns the index of the first set bit at or after `from`, if any.
#[inline]
fn first_set(occ: &[u64; OCC_WORDS], from: usize) -> Option<usize> {
    if from >= SLOTS {
        return None;
    }
    let mut word = from >> 6;
    let mut bits = occ[word] & (!0u64 << (from & 63));
    loop {
        if bits != 0 {
            return Some((word << 6) + bits.trailing_zeros() as usize);
        }
        word += 1;
        if word >= OCC_WORDS {
            return None;
        }
        bits = occ[word];
    }
}

/// A hierarchical timing wheel with binary-heap semantics: a
/// min-queue of `(SimTime, T)` with FIFO tie-breaking, `O(1)` for deadlines
/// within the wheel horizon.
///
/// # Examples
///
/// ```
/// use mn_util::{SimTime, TimerWheel};
///
/// let mut wheel = TimerWheel::new();
/// wheel.push(SimTime::from_millis(5), "later");
/// wheel.push(SimTime::from_millis(1), "sooner");
/// assert_eq!(wheel.pop().unwrap().1, "sooner");
/// assert_eq!(wheel.pop().unwrap().1, "later");
/// assert!(wheel.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct TimerWheel<T> {
    /// log2 of the quantum in nanoseconds.
    shift: u32,
    /// The wheel's position: the quantum index of the earliest slot that may
    /// still hold entries. Only ever advances.
    current: u64,
    /// Level 0: one slot per quantum for the 256 quanta at `current`'s
    /// 256-block. Entries are unsorted except for the active slot.
    l0: Box<[Vec<(EventKey, T)>; SLOTS]>,
    /// Level 1: one slot per 256 quanta for `current`'s 65536-block.
    l1: Box<[Vec<(EventKey, T)>; SLOTS]>,
    l0_occ: [u64; OCC_WORDS],
    l1_occ: [u64; OCC_WORDS],
    /// Deadlines beyond the level-1 horizon, ordered by full key.
    overflow: BinaryHeap<Reverse<OverflowEntry<T>>>,
    /// Warmed slot buffers recovered from cascaded level-1 slots. A level-1
    /// slot is touched once per level-0 revolution and then not again for a
    /// full level-1 revolution (~8.6 s at the default quantum), so without
    /// this pool every freshly touched slot would grow a `Vec` from zero —
    /// a steady trickle of allocations on an otherwise allocation-free path.
    spare: Vec<Vec<(EventKey, T)>>,
    /// The level-0 slot currently sorted for popping (descending by key, so
    /// `Vec::pop` yields the minimum), if any.
    active: Option<usize>,
    len: usize,
    next_seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel with the default ≈131 µs quantum.
    pub fn new() -> Self {
        Self::with_quantum_shift(DEFAULT_QUANTUM_SHIFT)
    }

    /// Creates an empty wheel whose slot width is the largest power of two at
    /// or below `quantum` (clamped to `[1 µs, ~1 s]`).
    pub fn with_quantum(quantum: SimDuration) -> Self {
        let nanos = quantum.as_nanos().max(1);
        let shift = (63 - nanos.leading_zeros()).clamp(10, 30);
        Self::with_quantum_shift(shift)
    }

    fn with_quantum_shift(shift: u32) -> Self {
        TimerWheel {
            shift,
            current: 0,
            l0: Box::new(std::array::from_fn(|_| Vec::new())),
            l1: Box::new(std::array::from_fn(|_| Vec::new())),
            l0_occ: [0; OCC_WORDS],
            l1_occ: [0; OCC_WORDS],
            overflow: BinaryHeap::new(),
            spare: Vec::new(),
            active: None,
            len: 0,
            next_seq: 0,
        }
    }

    /// The slot width in virtual time.
    pub fn quantum(&self) -> SimDuration {
        SimDuration::from_nanos(1 << self.shift)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events. The wheel position resets to zero; sequence
    /// numbers keep counting so keys stay unique across a clear.
    pub fn clear(&mut self) {
        for slot in self.l0.iter_mut().chain(self.l1.iter_mut()) {
            slot.clear();
        }
        self.l0_occ = [0; OCC_WORDS];
        self.l1_occ = [0; OCC_WORDS];
        self.overflow.clear();
        self.active = None;
        self.current = 0;
        self.len = 0;
    }

    /// The quantum index a deadline files under, clamped so that past
    /// deadlines land in the earliest still-reachable slot (they pop
    /// immediately, exactly like a heap push of a past time).
    #[inline]
    fn tick_of(&self, time: SimTime) -> u64 {
        (time.as_nanos() >> self.shift).max(self.current)
    }

    /// Schedules `value` to fire at `time`. Returns the key, which can be
    /// used by callers that keep their own cancellation sets.
    #[inline]
    pub fn push(&mut self, time: SimTime, value: T) -> EventKey {
        let key = EventKey {
            time,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        self.insert(key, value);
        self.len += 1;
        key
    }

    fn insert(&mut self, key: EventKey, value: T) {
        let tick = self.tick_of(key.time);
        if tick >> SLOT_BITS == self.current >> SLOT_BITS {
            let slot = (tick & SLOT_MASK) as usize;
            if self.active == Some(slot) {
                // The active slot is kept sorted descending by key so pops
                // stay O(1); splice new arrivals into position.
                let v = &mut self.l0[slot];
                let pos = v.partition_point(|(k, _)| *k > key);
                v.insert(pos, (key, value));
            } else {
                self.l0[slot].push((key, value));
            }
            self.l0_occ[slot >> 6] |= 1 << (slot & 63);
        } else if tick >> (2 * SLOT_BITS) == self.current >> (2 * SLOT_BITS) {
            let slot = ((tick >> SLOT_BITS) & SLOT_MASK) as usize;
            self.push_l1(slot, key, value);
        } else {
            self.overflow.push(Reverse(OverflowEntry { key, value }));
        }
    }

    /// Files an entry under a level-1 slot, seeding a cold slot with a
    /// warmed buffer from the spare pool.
    #[inline]
    fn push_l1(&mut self, slot: usize, key: EventKey, value: T) {
        let v = &mut self.l1[slot];
        if v.capacity() == 0 {
            if let Some(spare) = self.spare.pop() {
                *v = spare;
            }
        }
        v.push((key, value));
        self.l1_occ[slot >> 6] |= 1 << (slot & 63);
    }

    /// Positions the wheel at the earliest pending slot (cascading coarser
    /// levels as block boundaries are crossed) and sorts it for popping.
    /// Returns the level-0 slot index, or `None` if the wheel is empty.
    fn activate(&mut self) -> Option<usize> {
        if self.len == 0 {
            self.active = None;
            return None;
        }
        loop {
            let from = (self.current & SLOT_MASK) as usize;
            if let Some(slot) = first_set(&self.l0_occ, from) {
                self.current = (self.current & !SLOT_MASK) | slot as u64;
                if self.active != Some(slot) {
                    self.l0[slot].sort_unstable_by_key(|(key, _)| Reverse(*key));
                    self.active = Some(slot);
                }
                return Some(slot);
            }
            self.active = None;
            // Level 0 exhausted: cascade the next pending level-1 slot.
            // Level-1 slots at or behind the current block are empty by
            // construction (their ticks would have filed under level 0).
            let l1_from = ((self.current >> SLOT_BITS) & SLOT_MASK) as usize + 1;
            if let Some(slot) = first_set(&self.l1_occ, l1_from) {
                self.current = (self.current & !(SLOT_MASK << SLOT_BITS | SLOT_MASK))
                    | ((slot as u64) << SLOT_BITS);
                self.l1_occ[slot >> 6] &= !(1 << (slot & 63));
                let mut entries = std::mem::take(&mut self.l1[slot]);
                for (key, value) in entries.drain(..) {
                    let tick = self.tick_of(key.time);
                    let l0_slot = (tick & SLOT_MASK) as usize;
                    self.l0[l0_slot].push((key, value));
                    self.l0_occ[l0_slot >> 6] |= 1 << (l0_slot & 63);
                }
                // This slot will not be touched again for a full level-1
                // revolution; pool its warmed buffer for whichever cold slot
                // is filled next.
                if self.spare.len() < SPARE_POOL {
                    self.spare.push(entries);
                }
                continue;
            }
            // Both wheel levels exhausted: jump to the overflow heap's
            // earliest 65536-block and refill the wheels from it. Everything
            // left in overflow is later than anything cascaded here.
            let earliest = self
                .overflow
                .peek()
                .expect("len > 0 with empty wheels implies overflow entries");
            let block = (earliest.0.key.time.as_nanos() >> self.shift) >> (2 * SLOT_BITS);
            self.current = block << (2 * SLOT_BITS);
            while let Some(Reverse(head)) = self.overflow.peek() {
                if (head.key.time.as_nanos() >> self.shift) >> (2 * SLOT_BITS) != block {
                    break;
                }
                let Reverse(OverflowEntry { key, value }) =
                    self.overflow.pop().expect("peeked entry exists");
                let tick = self.tick_of(key.time);
                if tick >> SLOT_BITS == self.current >> SLOT_BITS {
                    let slot = (tick & SLOT_MASK) as usize;
                    self.l0[slot].push((key, value));
                    self.l0_occ[slot >> 6] |= 1 << (slot & 63);
                } else {
                    let slot = ((tick >> SLOT_BITS) & SLOT_MASK) as usize;
                    self.push_l1(slot, key, value);
                }
            }
        }
    }

    #[inline]
    fn pop_from_active(&mut self, slot: usize) -> (EventKey, T) {
        let (key, value) = self.l0[slot].pop().expect("active slot is non-empty");
        if self.l0[slot].is_empty() {
            self.l0_occ[slot >> 6] &= !(1 << (slot & 63));
            self.active = None;
        }
        self.len -= 1;
        (key, value)
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.pop_with_key().map(|(k, v)| (k.time, v))
    }

    /// Removes and returns the earliest event together with its key.
    pub fn pop_with_key(&mut self) -> Option<(EventKey, T)> {
        let slot = self.activate()?;
        Some(self.pop_from_active(slot))
    }

    /// Removes and returns the earliest event only if its deadline is at or
    /// before `now`.
    #[inline]
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, T)> {
        let slot = self.activate()?;
        let (key, _) = self.l0[slot].last().expect("active slot is non-empty");
        if key.time <= now {
            let (key, value) = self.pop_from_active(slot);
            Some((key.time, value))
        } else {
            None
        }
    }

    /// Returns every pending entry in pop order — earliest deadline first,
    /// FIFO among equal deadlines — without disturbing the wheel.
    ///
    /// This is the snapshot path: re-pushing the returned `(time, value)`
    /// pairs in order into a fresh wheel reproduces the exact pop sequence
    /// (fresh sequence numbers are assigned in push order, so relative
    /// FIFO order among equal deadlines is preserved).
    pub fn entries_in_order(&self) -> Vec<(SimTime, &T)> {
        let mut entries: Vec<(EventKey, &T)> = Vec::with_capacity(self.len);
        for slot in self.l0.iter().chain(self.l1.iter()) {
            entries.extend(slot.iter().map(|(k, v)| (*k, v)));
        }
        entries.extend(self.overflow.iter().map(|Reverse(e)| (e.key, &e.value)));
        entries.sort_unstable_by_key(|(k, _)| *k);
        entries.into_iter().map(|(k, v)| (k.time, v)).collect()
    }

    /// Returns the deadline of the earliest event without removing it.
    ///
    /// Non-mutating, so it scans rather than cascades: cost is the size of
    /// the earliest pending slot (typically a handful of entries).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let from = (self.current & SLOT_MASK) as usize;
        if let Some(slot) = first_set(&self.l0_occ, from) {
            if self.active == Some(slot) {
                return self.l0[slot].last().map(|(k, _)| k.time);
            }
            return self.l0[slot].iter().map(|(k, _)| k.time).min();
        }
        let l1_from = ((self.current >> SLOT_BITS) & SLOT_MASK) as usize + 1;
        if let Some(slot) = first_set(&self.l1_occ, l1_from) {
            return self.l1[slot].iter().map(|(k, _)| k.time).min();
        }
        self.overflow.peek().map(|Reverse(e)| e.key.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventHeap;

    #[test]
    fn pops_in_time_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_millis(30), 3);
        w.push(SimTime::from_millis(10), 1);
        w.push(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut w = TimerWheel::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            w.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| w.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_due_respects_now() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_millis(10), "a");
        w.push(SimTime::from_millis(20), "b");
        assert_eq!(w.pop_due(SimTime::from_millis(5)), None);
        assert_eq!(w.pop_due(SimTime::from_millis(10)).unwrap().1, "a");
        assert_eq!(w.pop_due(SimTime::from_millis(15)), None);
        assert_eq!(w.pop_due(SimTime::from_millis(25)).unwrap().1, "b");
        assert!(w.is_empty());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_secs(1), ());
        assert_eq!(w.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(w.len(), 1);
        // Also after activation (sorted slot path).
        let _ = w.pop_due(SimTime::ZERO);
        assert_eq!(w.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn far_future_deadlines_cross_the_overflow_level() {
        let mut w = TimerWheel::new();
        // Beyond the level-1 horizon (~8.6 s at the default quantum).
        w.push(SimTime::from_secs(3600), "hour");
        w.push(SimTime::from_secs(60), "minute");
        w.push(SimTime::from_micros(50), "now");
        assert_eq!(w.peek_time(), Some(SimTime::from_micros(50)));
        assert_eq!(w.pop().unwrap().1, "now");
        assert_eq!(w.pop().unwrap().1, "minute");
        assert_eq!(w.peek_time(), Some(SimTime::from_secs(3600)));
        assert_eq!(w.pop().unwrap().1, "hour");
        assert!(w.pop().is_none());
    }

    #[test]
    fn past_deadline_pushed_after_advance_pops_first() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_secs(10), "far");
        // Advance the wheel position to the far slot without popping it.
        assert_eq!(w.pop_due(SimTime::from_secs(1)), None);
        // A deadline behind the wheel position still pops first, like a heap.
        w.push(SimTime::from_millis(1), "late arrival");
        assert_eq!(w.pop().unwrap().1, "late arrival");
        assert_eq!(w.pop().unwrap().1, "far");
    }

    #[test]
    fn entries_in_order_match_pop_order() {
        let mut w = TimerWheel::new();
        w.push(SimTime::from_secs(3600), 0); // overflow
        w.push(SimTime::from_micros(5), 1);
        w.push(SimTime::from_micros(5), 2); // FIFO tie with 1
        w.push(SimTime::from_millis(40), 3); // level 1
        w.push(SimTime::from_micros(1), 4);
        let snapshot: Vec<(SimTime, i32)> = w
            .entries_in_order()
            .into_iter()
            .map(|(t, &v)| (t, v))
            .collect();
        // Re-pushing the snapshot into a fresh wheel reproduces pop order.
        let mut restored = TimerWheel::new();
        for &(t, v) in &snapshot {
            restored.push(t, v);
        }
        let mut original: Vec<(SimTime, i32)> = Vec::new();
        while let Some(e) = w.pop() {
            original.push(e);
        }
        let mut replayed: Vec<(SimTime, i32)> = Vec::new();
        while let Some(e) = restored.pop() {
            replayed.push(e);
        }
        assert_eq!(original, replayed);
        assert_eq!(snapshot, original);
    }

    #[test]
    fn clear_empties() {
        let mut w = TimerWheel::new();
        w.push(SimTime::ZERO, 1);
        w.push(SimTime::from_secs(100), 2);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.pop(), None);
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn keys_are_unique_and_monotone() {
        let mut w = TimerWheel::new();
        let k1 = w.push(SimTime::ZERO, ());
        let k2 = w.push(SimTime::ZERO, ());
        assert!(k2.seq > k1.seq);
    }

    #[test]
    fn custom_quantum_rounds_to_power_of_two() {
        let w: TimerWheel<()> = TimerWheel::with_quantum(SimDuration::from_micros(100));
        // Largest power of two at or below 100 µs = 2^16 ns.
        assert_eq!(w.quantum(), SimDuration::from_nanos(1 << 16));
        let tiny: TimerWheel<()> = TimerWheel::with_quantum(SimDuration::from_nanos(1));
        assert_eq!(tiny.quantum(), SimDuration::from_nanos(1 << 10));
    }

    /// Exhaustive small-scale sanity: every permutation of slot placement
    /// (level 0, level 1, overflow, past) pops in global key order.
    #[test]
    fn mixed_levels_pop_globally_sorted() {
        let times: Vec<u64> = vec![
            0, 1, 130,    // same level-0 slot as 1 (131 µs quantum)
            200,    // next level-0 slot
            40_000, // level 1 (past the 33.5 ms level-0 horizon)
            41_000, 9_000_000, // overflow (past the 8.6 s level-1 horizon)
            10_000_000,
        ];
        let mut w = TimerWheel::new();
        let mut h = EventHeap::new();
        for (i, &t) in times.iter().enumerate() {
            w.push(SimTime::from_micros(t), i);
            h.push(SimTime::from_micros(t), i);
        }
        loop {
            let a = w.pop_with_key();
            let b = h.pop_with_key();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Deadline domains chosen so workloads exercise every placement:
        /// sub-quantum collisions, level-0 spans, level-1 cascades, and
        /// far-future overflow entries beyond the ~8.6 s level-1 horizon.
        fn deadline_micros() -> impl Strategy<Value = u64> {
            prop_oneof![
                4 => 0u64..300,                       // within one or two slots
                4 => 0u64..50_000,                    // across level 0
                2 => 0u64..5_000_000,                 // across level 1
                1 => 8_000_000u64..60_000_000,        // crosses into overflow
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// A full drain pops the byte-identical `(time, seq)` sequence
            /// the heap produces.
            #[test]
            fn full_drain_matches_event_heap(
                times in prop::collection::vec(deadline_micros(), 1..400),
            ) {
                let mut w = TimerWheel::new();
                let mut h = EventHeap::new();
                for (i, &t) in times.iter().enumerate() {
                    let kw = w.push(SimTime::from_micros(t), i);
                    let kh = h.push(SimTime::from_micros(t), i);
                    prop_assert_eq!(kw, kh, "push keys diverge");
                }
                loop {
                    let a = w.pop_with_key();
                    let b = h.pop_with_key();
                    prop_assert_eq!(&a, &b, "pop sequences diverge");
                    if a.is_none() {
                        break;
                    }
                }
            }

            /// Interleaved pushes and `pop_due` at a monotonically advancing
            /// `now` stay in lockstep with the heap — the exact access
            /// pattern of the core scheduler's tick loop.
            #[test]
            fn interleaved_pop_due_matches_event_heap(
                batches in prop::collection::vec(
                    (prop::collection::vec(deadline_micros(), 0..10), 0u64..100_000),
                    1..60,
                ),
            ) {
                let mut w = TimerWheel::new();
                let mut h = EventHeap::new();
                let mut seq = 0usize;
                let mut now = SimTime::ZERO;
                for (times, advance) in &batches {
                    for &t in times {
                        w.push(SimTime::from_micros(t), seq);
                        h.push(SimTime::from_micros(t), seq);
                        seq += 1;
                    }
                    now = now.max(SimTime::from_micros(*advance));
                    loop {
                        let a = w.pop_due(now);
                        let b = h.pop_due(now);
                        prop_assert_eq!(&a, &b, "pop_due diverges at now={}", now);
                        if a.is_none() {
                            break;
                        }
                    }
                    prop_assert_eq!(w.peek_time(), h.peek_time(), "peek diverges");
                    prop_assert_eq!(w.len(), h.len());
                }
                while let Some(a) = w.pop_with_key() {
                    prop_assert_eq!(Some(a), h.pop_with_key());
                }
                prop_assert!(h.is_empty());
            }

            /// Pushing deadlines behind the wheel position (after pops have
            /// advanced it) keeps heap-identical order — the clamp path.
            #[test]
            fn past_pushes_after_pops_match_event_heap(
                first in prop::collection::vec(deadline_micros(), 1..50),
                second in prop::collection::vec(0u64..100, 1..50),
            ) {
                let mut w = TimerWheel::new();
                let mut h = EventHeap::new();
                let mut seq = 0usize;
                for &t in &first {
                    w.push(SimTime::from_micros(t), seq);
                    h.push(SimTime::from_micros(t), seq);
                    seq += 1;
                }
                // Drain half, advancing the wheel position.
                for _ in 0..first.len() / 2 {
                    prop_assert_eq!(w.pop_with_key(), h.pop_with_key());
                }
                // Near-zero deadlines now sit behind the wheel position.
                for &t in &second {
                    w.push(SimTime::from_micros(t), seq);
                    h.push(SimTime::from_micros(t), seq);
                    seq += 1;
                }
                loop {
                    let a = w.pop_with_key();
                    let b = h.pop_with_key();
                    prop_assert_eq!(&a, &b);
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
