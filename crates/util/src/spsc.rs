//! Bounded single-producer/single-consumer rings.
//!
//! [`channel`] builds the lock-free queue the parallel emulation backend
//! carries coordinator requests and worker replies through (tunnelled
//! descriptors cross between cores through mailboxes instead): one thread
//! pushes, one thread pops, and the hot path is two atomic loads and one
//! atomic store per operation — no locks, no allocation, no sharing of
//! cache lines between the two sides.
//!
//! The design is the classic Lamport ring with cached indices:
//!
//! * a fixed power-of-two slot array, written through [`UnsafeCell`];
//! * `head` (next slot to pop) owned by the consumer, `tail` (next slot to
//!   push) owned by the producer, each on its own cache line;
//! * each side keeps a *cached* copy of the other side's index and re-reads
//!   the shared atomic only when the cache says the ring looks full (or
//!   empty), so an uncontended transfer touches the peer's line rarely.
//!
//! Capacity is fixed at construction: [`Producer::try_push`] reports a full
//! ring by handing the value back instead of blocking, which lets callers
//! choose their own overflow policy (the emulator's senders retry, watching
//! for a dead peer).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Pads a value out to its own cache line so the producer and consumer
/// indices never false-share.
#[repr(align(64))]
struct CachePadded<T>(T);

struct Shared<T> {
    /// Slot storage; a slot is initialised exactly when it lies in
    /// `[head, tail)` modulo the capacity.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `capacity - 1`; the capacity is always a power of two.
    mask: usize,
    /// Next slot the consumer will pop. Monotonically increasing; slot
    /// index is `head & mask`.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will push.
    tail: CachePadded<AtomicUsize>,
}

// The ring hands `T` values across threads, so it is `Send`/`Sync` exactly
// when `T: Send`. Only one thread ever holds the `Producer` and one the
// `Consumer`, which is what makes the unsynchronised slot accesses sound.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Shared<T> {
    fn capacity(&self) -> usize {
        self.mask + 1
    }
}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both endpoints are gone (Arc refcount reached zero), so the
        // indices are quiescent; drop whatever is still queued.
        let head = self.head.0.load(Ordering::Relaxed);
        let tail = self.tail.0.load(Ordering::Relaxed);
        for i in head..tail {
            let slot = self.buf[i & self.mask].get();
            unsafe { (*slot).assume_init_drop() };
        }
    }
}

/// The push side of a bounded SPSC ring. `!Clone`: exactly one producer.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Producer-owned copy of `tail` (no atomic read needed to push).
    tail: usize,
    /// Last observed `head`; refreshed only when the ring looks full.
    head_cache: usize,
}

/// The pop side of a bounded SPSC ring. `!Clone`: exactly one consumer.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Consumer-owned copy of `head`.
    head: usize,
    /// Last observed `tail`; refreshed only when the ring looks empty.
    tail_cache: usize,
}

/// Creates a bounded SPSC ring holding at least `capacity` elements
/// (rounded up to a power of two, minimum 2).
pub fn channel<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect();
    let shared = Arc::new(Shared {
        buf,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: shared.clone(),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Slots the ring can hold.
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Appends `value`, or returns it when the ring is full.
    #[inline]
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let cap = self.shared.capacity();
        if self.tail - self.head_cache == cap {
            // Looks full through the cache; re-read the real head.
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            if self.tail - self.head_cache == cap {
                return Err(value);
            }
        }
        let slot = self.shared.buf[self.tail & self.shared.mask].get();
        // Sound: the slot is outside `[head, tail)`, so the consumer never
        // touches it, and this thread is the only producer.
        unsafe { (*slot).write(value) };
        self.tail += 1;
        // Release: the slot write must be visible before the new tail.
        self.shared.tail.0.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Returns `true` if a push would currently fail.
    pub fn is_full(&mut self) -> bool {
        let cap = self.shared.capacity();
        if self.tail - self.head_cache == cap {
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
        }
        self.tail - self.head_cache == cap
    }
}

impl<T> Consumer<T> {
    /// Slots the ring can hold.
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Removes and returns the oldest element, or `None` when empty.
    #[inline]
    pub fn try_pop(&mut self) -> Option<T> {
        if self.head == self.tail_cache {
            // Looks empty through the cache; re-read the real tail.
            // Acquire pairs with the producer's release store so the slot
            // contents are visible.
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let slot = self.shared.buf[self.head & self.shared.mask].get();
        let value = unsafe { (*slot).assume_init_read() };
        self.head += 1;
        // Release: the slot read must complete before the slot is handed
        // back to the producer.
        self.shared.head.0.store(self.head, Ordering::Release);
        Some(value)
    }

    /// Returns `true` if a pop would currently fail.
    pub fn is_empty(&mut self) -> bool {
        if self.head == self.tail_cache {
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
        }
        self.head == self.tail_cache
    }
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Producer")
            .field("capacity", &self.shared.capacity())
            .finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Consumer")
            .field("capacity", &self.shared.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let (mut tx, mut rx) = channel::<u32>(8);
        for i in 0..8 {
            tx.try_push(i).unwrap();
        }
        assert!(tx.try_push(99).is_err(), "ring of 8 holds exactly 8");
        for i in 0..8 {
            assert_eq!(rx.try_pop(), Some(i));
        }
        assert_eq!(rx.try_pop(), None);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        let (tx, _rx) = channel::<u8>(5);
        assert_eq!(tx.capacity(), 8);
        let (tx, _rx) = channel::<u8>(0);
        assert_eq!(tx.capacity(), 2);
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut tx, mut rx) = channel::<usize>(4);
        // Drive the indices far past the capacity so slots are reused many
        // times.
        for round in 0..1000 {
            for i in 0..3 {
                tx.try_push(round * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(rx.try_pop(), Some(round * 3 + i));
            }
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn full_then_drain_then_reuse() {
        let (mut tx, mut rx) = channel::<String>(2);
        tx.try_push("a".to_string()).unwrap();
        tx.try_push("b".to_string()).unwrap();
        assert!(tx.is_full());
        assert_eq!(rx.try_pop().as_deref(), Some("a"));
        assert!(!tx.is_full());
        tx.try_push("c".to_string()).unwrap();
        assert_eq!(rx.try_pop().as_deref(), Some("b"));
        assert_eq!(rx.try_pop().as_deref(), Some("c"));
        assert!(rx.is_empty());
    }

    #[test]
    fn queued_values_are_dropped_with_the_ring() {
        let marker = Arc::new(());
        let (mut tx, rx) = channel::<Arc<()>>(8);
        for _ in 0..5 {
            tx.try_push(marker.clone()).unwrap();
        }
        assert_eq!(Arc::strong_count(&marker), 6);
        drop(tx);
        drop(rx);
        assert_eq!(Arc::strong_count(&marker), 1, "ring drop frees its slots");
    }

    #[test]
    fn cross_thread_transfer_is_lossless_and_ordered() {
        const N: u64 = 200_000;
        let (mut tx, mut rx) = channel::<u64>(64);
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < N {
                match tx.try_push(next) {
                    Ok(()) => next += 1,
                    Err(_) => std::thread::yield_now(),
                }
            }
        });
        let mut expected = 0u64;
        let mut sum = 0u64;
        while expected < N {
            match rx.try_pop() {
                Some(v) => {
                    assert_eq!(v, expected, "values arrive in push order");
                    sum = sum.wrapping_add(v);
                    expected += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(sum, N * (N - 1) / 2);
        assert_eq!(rx.try_pop(), None);
    }
}
