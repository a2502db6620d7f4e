//! A hierarchical timing wheel for the per-packet scheduler path.
//!
//! [`TimerWheel`] is the emulator's one event queue. Where a binary heap
//! pays `O(log n)` per push/pop, the wheel buckets deadlines into fixed-width
//! slots, so near-term deadlines cost `O(1)` to insert and `O(1)` amortised
//! to pop — independent of how many pipes are pending.
//!
//! # Structure
//!
//! Two wheel levels plus an overflow heap:
//!
//! * **Level 0** — 4096 slots of `2^13` ns ≈ 8.192 µs each. Horizon ≈ 33.5
//!   ms: queueing and transmission deadlines land here. The width is sized
//!   to the event density, not to a hardware tick: a slot is sorted once
//!   when it becomes the next to pop, and at this width it holds a handful
//!   of entries even on an 8-hop forwarding chain.
//! * **Level 1** — 256 slots of one level-0 revolution each, horizon ≈ 8.6
//!   s: long propagation delays and retransmission timers land here and
//!   cascade into level 0 as the wheel turns.
//! * **Overflow** — a comparison-based min-heap for deadlines beyond the
//!   level-1 horizon (idle application timers, far-future wakeups). These are
//!   rare by construction, so the `O(log n)` cost is off the per-packet path.
//!
//! Every entry filed in a slot of either level lives in one arena: a slot
//! is the head of a list of arena indices, a cascade relinks nodes instead
//! of copying them, and freed nodes go on a free list. The slot being popped
//! is drained once into a sorted run, which arrivals for that slot join by
//! sorted insertion. The arena grows to the peak number of pending entries
//! and the run to the peak slot size, whichever slots a workload touches, so
//! a steady state stops allocating without any cadence aligned to the slots.
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

use crate::time::SimTime;

/// Ordering key of a queued event: deadline first, then insertion sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// The virtual time at which the event fires.
    pub time: SimTime,
    /// Monotonic insertion sequence number, used to break ties
    /// deterministically (FIFO among equal deadlines).
    pub seq: u64,
}

/// log2 of the level-0 slot width in nanoseconds: 8.192 µs.
const SHIFT: u32 = 13;
/// Level-0 slots (`2^L0_BITS`); a level-0 revolution is ≈ 33.5 ms.
const L0_BITS: u32 = 12;
const L0_SLOTS: usize = 1 << L0_BITS;
const L0_MASK: u64 = (L0_SLOTS as u64) - 1;
/// Level-1 slots (`2^L1_BITS`), one level-0 revolution each: ≈ 8.6 s.
const L1_BITS: u32 = 8;
const L1_SLOTS: usize = 1 << L1_BITS;
const L1_MASK: u64 = (L1_SLOTS as u64) - 1;
/// The end of a slot's list, and of the free list.
const NIL: u32 = u32::MAX;

/// The slot a deadline files under, clamped so that past deadlines land in
/// the earliest still-reachable slot (they pop immediately, exactly like a
/// heap push of a past time).
#[inline]
fn tick_of(time: SimTime, current: u64) -> u64 {
    (time.as_nanos() >> SHIFT).max(current)
}

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
fn first_set<const WORDS: usize>(occ: &[u64; WORDS], from: usize) -> Option<usize> {
    let mut word = from >> 6;
    if word >= WORDS {
        return None;
    }
    let mut bits = occ[word] & (!0u64 << (from & 63));
    loop {
        if bits != 0 {
            return Some((word << 6) + bits.trailing_zeros() as usize);
        }
        word += 1;
        if word >= WORDS {
            return None;
        }
        bits = occ[word];
    }
}

/// A pending entry filed in a wheel slot; `next` links the slot's list (or,
/// once freed, the free list, with `value` taken).
#[derive(Debug, Clone)]
struct Node<T> {
    key: EventKey,
    value: Option<T>,
    next: u32,
}

/// The nodes of every slot list of both levels, and the list of free ones.
#[derive(Debug, Clone)]
struct Arena<T> {
    nodes: Vec<Node<T>>,
    free: u32,
}

impl<T> Arena<T> {
    /// Files `(key, value)` at the front of the list headed by `head`.
    #[inline]
    fn link(&mut self, head: &mut u32, key: EventKey, value: T) {
        let node = Node {
            key,
            value: Some(value),
            next: *head,
        };
        *head = if self.free == NIL {
            let index = self.nodes.len();
            assert!(index < NIL as usize, "fewer than 2^32 - 1 pending entries");
            self.nodes.push(node);
            index as u32
        } else {
            let index = self.free;
            let slot = &mut self.nodes[index as usize];
            self.free = slot.next;
            *slot = node;
            index
        };
    }

    /// The earliest deadline on the list headed by `head`. [`NIL`] lies
    /// past the arena's end (`link` keeps it so), so `get` ends the walk.
    fn min_time(&self, head: u32) -> Option<SimTime> {
        let first = self.nodes.get(head as usize);
        let list = std::iter::successors(first, |node| self.nodes.get(node.next as usize));
        list.map(|node| node.key.time).min()
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
    /// The wheel's position: the level-0 slot index (deadline `>> SHIFT`) of
    /// the earliest slot that may still hold entries. Only ever advances.
    current: u64,
    /// Level 0: the list head of each slot of `current`'s revolution.
    l0: Box<[u32; L0_SLOTS]>,
    /// Level 1: the list head of each revolution of `current`'s 8.6 s block.
    l1: Box<[u32; L1_SLOTS]>,
    l0_occ: [u64; L0_SLOTS / 64],
    l1_occ: [u64; L1_SLOTS / 64],
    arena: Arena<T>,
    /// The entries of the active level-0 slot, sorted descending by key so
    /// `Vec::pop` yields the minimum.
    run: Vec<(EventKey, T)>,
    /// The level-0 slot whose entries are in `run`, if any. Its list is
    /// empty and its occupancy bit stays set while `run` is non-empty.
    active: Option<usize>,
    /// Deadlines beyond the level-1 horizon, ordered by full key.
    overflow: BinaryHeap<Reverse<OverflowEntry<T>>>,
    len: usize,
    next_seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            current: 0,
            l0: Box::new([NIL; L0_SLOTS]),
            l1: Box::new([NIL; L1_SLOTS]),
            l0_occ: [0; L0_SLOTS / 64],
            l1_occ: [0; L1_SLOTS / 64],
            arena: Arena {
                nodes: Vec::new(),
                free: NIL,
            },
            run: Vec::new(),
            active: None,
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
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
        self.l0.fill(NIL);
        self.l1.fill(NIL);
        self.l0_occ = [0; L0_SLOTS / 64];
        self.l1_occ = [0; L1_SLOTS / 64];
        self.arena.nodes.clear();
        self.arena.free = NIL;
        self.run.clear();
        self.active = None;
        self.overflow.clear();
        self.current = 0;
        self.len = 0;
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
        let tick = tick_of(key.time, self.current);
        if tick >> L0_BITS == self.current >> L0_BITS {
            let slot = (tick & L0_MASK) as usize;
            if self.active == Some(slot) {
                let pos = self.run.partition_point(|(k, _)| *k > key);
                self.run.insert(pos, (key, value));
            } else {
                self.arena.link(&mut self.l0[slot], key, value);
                self.l0_occ[slot >> 6] |= 1 << (slot & 63);
            }
        } else if tick >> (L0_BITS + L1_BITS) == self.current >> (L0_BITS + L1_BITS) {
            let slot = ((tick >> L0_BITS) & L1_MASK) as usize;
            self.arena.link(&mut self.l1[slot], key, value);
            self.l1_occ[slot >> 6] |= 1 << (slot & 63);
        } else {
            self.overflow.push(Reverse(OverflowEntry { key, value }));
        }
    }

    /// Positions the wheel at the earliest pending slot (cascading coarser
    /// levels as block boundaries are crossed) and drains it into the sorted
    /// run. Returns the level-0 slot index, or `None` if the wheel is empty.
    fn activate(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(slot) = first_set(&self.l0_occ, (self.current & L0_MASK) as usize) {
                self.current = (self.current & !L0_MASK) | slot as u64;
                if self.active != Some(slot) {
                    self.drain_into_run(slot);
                    self.active = Some(slot);
                }
                return Some(slot);
            }
            // Level 0 exhausted: cascade the next pending level-1 slot.
            // Level-1 slots at or behind the current revolution are empty by
            // construction (their deadlines would have filed under level 0).
            let l1_from = ((self.current >> L0_BITS) & L1_MASK) as usize + 1;
            if let Some(slot) = first_set(&self.l1_occ, l1_from) {
                self.current =
                    (self.current & !(L1_MASK << L0_BITS | L0_MASK)) | ((slot as u64) << L0_BITS);
                self.l1_occ[slot >> 6] &= !(1 << (slot & 63));
                let mut index = std::mem::replace(&mut self.l1[slot], NIL);
                while index != NIL {
                    let node = &mut self.arena.nodes[index as usize];
                    let l0_slot = (tick_of(node.key.time, self.current) & L0_MASK) as usize;
                    let next = std::mem::replace(&mut node.next, self.l0[l0_slot]);
                    self.l0[l0_slot] = index;
                    self.l0_occ[l0_slot >> 6] |= 1 << (l0_slot & 63);
                    index = next;
                }
                continue;
            }
            // Both wheel levels exhausted: jump to the overflow heap's
            // earliest 8.6 s block and refill the wheels from it. Everything
            // left in overflow is later than anything cascaded here.
            let earliest = self
                .overflow
                .peek()
                .expect("len > 0 with empty wheels implies overflow entries");
            let block = (earliest.0.key.time.as_nanos() >> SHIFT) >> (L0_BITS + L1_BITS);
            self.current = block << (L0_BITS + L1_BITS);
            while let Some(Reverse(head)) = self.overflow.peek() {
                if (head.key.time.as_nanos() >> SHIFT) >> (L0_BITS + L1_BITS) != block {
                    break;
                }
                let Reverse(OverflowEntry { key, value }) =
                    self.overflow.pop().expect("peeked entry exists");
                self.insert(key, value);
            }
        }
    }

    /// Moves level-0 `slot`'s entries into the (empty) run, sorted for
    /// popping, and frees their nodes.
    fn drain_into_run(&mut self, slot: usize) {
        let mut index = std::mem::replace(&mut self.l0[slot], NIL);
        while index != NIL {
            let node = &mut self.arena.nodes[index as usize];
            let value = node.value.take().expect("a listed node holds its value");
            self.run.push((node.key, value));
            let next = std::mem::replace(&mut node.next, self.arena.free);
            self.arena.free = index;
            index = next;
        }
        self.run.sort_unstable_by_key(|(key, _)| Reverse(*key));
    }

    #[inline]
    fn pop_from_active(&mut self, slot: usize) -> (EventKey, T) {
        let entry = self.run.pop().expect("the active slot is non-empty");
        if self.run.is_empty() {
            self.l0_occ[slot >> 6] &= !(1 << (slot & 63));
            self.active = None;
        }
        self.len -= 1;
        entry
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
        let (key, _) = self.run.last().expect("the active slot is non-empty");
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
    /// FIFO order among equal deadlines is preserved). One allocation: the
    /// entries are sorted in a `Vec` the iterator owns.
    pub fn entries_in_order(&self) -> impl ExactSizeIterator<Item = (SimTime, &T)> {
        let mut entries: Vec<(EventKey, &T)> = Vec::with_capacity(self.len);
        let listed = self.arena.nodes.iter();
        entries.extend(listed.filter_map(|n| n.value.as_ref().map(|v| (n.key, v))));
        entries.extend(self.run.iter().map(|(k, v)| (*k, v)));
        entries.extend(self.overflow.iter().map(|Reverse(e)| (e.key, &e.value)));
        entries.sort_unstable_by_key(|(k, _)| *k);
        entries.into_iter().map(|(k, v)| (k.time, v))
    }

    /// Returns the deadline of the earliest event without removing it.
    ///
    /// Non-mutating, so it scans rather than cascades: cost is the size of
    /// the earliest pending slot (typically a handful of entries).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(slot) = first_set(&self.l0_occ, (self.current & L0_MASK) as usize) {
            if self.active == Some(slot) {
                return self.run.last().map(|(k, _)| k.time);
            }
            return self.arena.min_time(self.l0[slot]);
        }
        let l1_from = ((self.current >> L0_BITS) & L1_MASK) as usize + 1;
        if let Some(slot) = first_set(&self.l1_occ, l1_from) {
            return self.arena.min_time(self.l1[slot]);
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
        // Beyond the ~8.6 s level-1 horizon.
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
        let snapshot: Vec<(SimTime, i32)> = w.entries_in_order().map(|(t, &v)| (t, v)).collect();
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

    /// Pops both queues to exhaustion, asserting equal `(key, value)` pairs.
    fn drain_alike<T: PartialEq + std::fmt::Debug>(w: &mut TimerWheel<T>, h: &mut EventHeap<T>) {
        loop {
            let a = w.pop_with_key();
            let b = h.pop_with_key();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Exhaustive small-scale sanity: every permutation of slot placement
    /// (level 0, level 1, overflow, past) pops in global key order.
    #[test]
    fn mixed_levels_pop_globally_sorted() {
        let times: Vec<u64> = vec![
            0, 1, // one level-0 slot (8.192 µs wide)
            130, 200,    // two later level-0 slots
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
        drain_alike(&mut w, &mut h);
    }

    #[test]
    fn arrivals_for_the_active_slot_are_inserted_in_order() {
        // The slot holding 100 µs becomes the active one: its entries are in
        // the sorted run, and nothing is due yet.
        let base = 100_000;
        let mut w = TimerWheel::new();
        let mut h = EventHeap::new();
        for (i, off) in [4_000, 1_000].into_iter().enumerate() {
            w.push(SimTime::from_nanos(base + off), i);
            h.push(SimTime::from_nanos(base + off), i);
        }
        assert_eq!(w.pop_due(SimTime::ZERO), None);
        let slot = w.active.expect("the earliest slot is active");
        // Out-of-order arrivals into that slot, ties with entries already in
        // the run among them, and one behind the wheel position.
        for (i, off) in [3_000, 1_000, 4_000, 0, 2_500, 1_000]
            .into_iter()
            .enumerate()
        {
            w.push(SimTime::from_nanos(base + off), 2 + i);
            h.push(SimTime::from_nanos(base + off), 2 + i);
        }
        w.push(SimTime::from_nanos(10), 8);
        h.push(SimTime::from_nanos(10), 8);
        assert_eq!(w.active, Some(slot));
        assert_eq!(w.run.len(), 9, "every arrival joined the run");
        assert!(w.run.windows(2).all(|p| p[0].0 > p[1].0), "descending");
        drain_alike(&mut w, &mut h);
    }

    #[test]
    fn a_cleared_wheel_restarts_its_arena() {
        let mut w = TimerWheel::new();
        for i in 0..64u64 {
            // Level 0, level 1 and overflow.
            w.push(SimTime::from_micros(i * 700_000 % 20_000_000), i);
        }
        for _ in 0..10 {
            w.pop();
        }
        assert!(w.arena.free != NIL, "popped nodes went on the free list");
        let last = w.push(SimTime::ZERO, 0);
        w.clear();
        assert!(w.arena.nodes.is_empty());
        assert_eq!(w.arena.free, NIL, "the free list resets with the arena");
        assert!(w.active.is_none() && w.run.is_empty());
        assert_eq!(w.peek_time(), None);

        // Reused, the wheel numbers its nodes from zero again, keeps counting
        // keys, and pops like a fresh heap.
        let mut h = EventHeap::new();
        for i in 0..32u64 {
            let t = SimTime::from_micros(i * 3_000 % 50_000);
            assert!(w.push(t, i).seq > last.seq);
            h.push(t, i);
        }
        assert_eq!(w.arena.nodes.len(), 32);
        let ours: Vec<_> = std::iter::from_fn(|| w.pop()).collect();
        let theirs: Vec<_> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn a_cloned_wheel_pops_what_the_original_pops() {
        let mut w = TimerWheel::new();
        for i in 0..200u64 {
            w.push(SimTime::from_micros(i * 79_193 % 12_000_000), i);
        }
        // Mid-run: an active slot, a free list, entries on every level.
        for _ in 0..50 {
            w.pop();
        }
        let _ = w.pop_due(SimTime::ZERO);
        let mut twin = w.clone();
        for i in 0..20u64 {
            let t = SimTime::from_micros(i * 1_000);
            assert_eq!(w.push(t, 1_000 + i), twin.push(t, 1_000 + i));
        }
        let ours: Vec<_> = std::iter::from_fn(|| w.pop_with_key()).collect();
        let theirs: Vec<_> = std::iter::from_fn(|| twin.pop_with_key()).collect();
        assert_eq!(ours.len(), 170);
        assert_eq!(ours, theirs);
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

        /// Nanosecond deadlines at the wheel's edges: inside one 8.192 µs
        /// slot (ties and sub-slot order), and around the 33.5 ms level-0
        /// and 8.6 s level-1 block boundaries (the first three of each).
        fn deadline_nanos() -> impl Strategy<Value = u64> {
            let edge = |bits: u32| {
                (1u64..4, 0u64..40_000).prop_map(move |(k, d)| (k << bits) + d - 20_000)
            };
            prop_oneof![
                2 => 0u64..1 << 13,
                2 => (5u64 << 13)..(6 << 13),
                3 => edge(13 + 12),
                3 => edge(13 + 12 + 8),
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

            /// Nanosecond deadlines inside one slot and across the block
            /// boundaries, pushed in batches between `pop_due` calls whose
            /// `now` walks over those boundaries too: heap-identical pops,
            /// peeks and lengths throughout.
            #[test]
            fn slot_and_block_edges_match_event_heap(
                batches in prop::collection::vec(
                    (prop::collection::vec(deadline_nanos(), 0..12), deadline_nanos()),
                    1..40,
                ),
            ) {
                let mut w = TimerWheel::new();
                let mut h = EventHeap::new();
                let mut now = SimTime::ZERO;
                for (i, (times, advance)) in batches.iter().enumerate() {
                    for (j, &t) in times.iter().enumerate() {
                        let kw = w.push(SimTime::from_nanos(t), (i, j));
                        let kh = h.push(SimTime::from_nanos(t), (i, j));
                        prop_assert_eq!(kw, kh);
                    }
                    now = now.max(SimTime::from_nanos(*advance));
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
        }
    }
}
