//! Epoch synchronisation for the parallel emulation backend.
//!
//! The parallel backend's core threads meet once per epoch at a
//! [`SpinBarrier`], after posting their tunnelled descriptors to per-pair
//! mailboxes and before draining the ones addressed to them (see
//! `mn-emucore`): a sense-reversing barrier, one generation per epoch,
//! whose waiters give up once a shared abort flag is raised (a peer died
//! and will never arrive).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Busy spins a barrier waiter makes before it yields the CPU instead, so a
/// single-CPU or oversubscribed host still makes progress.
const SPINS_BEFORE_YIELD: u32 = 16;

/// A sense-reversing spin barrier for a fixed party count.
///
/// Unlike [`std::sync::Barrier`] this never takes a lock, and a waiter can
/// be released without its peers by an abort flag; on oversubscribed hosts
/// the wait degrades to `yield_now` rather than a blocking park.
#[derive(Debug)]
pub struct SpinBarrier {
    parties: usize,
    /// Arrivals in the current generation.
    arrived: AtomicUsize,
    /// Generation counter; bumping it releases the waiters.
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// Creates a barrier for `parties` threads.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks (spinning, then yielding) until all parties have arrived, and
    /// returns `true`; or returns `false` once `abort` is raised first. An
    /// aborted barrier is spent: its arrival count no longer matches.
    pub fn wait(&self, abort: &AtomicBool) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arrival: reset the count and open the next generation.
            self.arrived.store(0, Ordering::Release);
            self.generation.store(generation + 1, Ordering::Release);
            return true;
        }
        let mut spins = 0;
        while self.generation.load(Ordering::Acquire) == generation {
            if abort.load(Ordering::Acquire) {
                return false;
            }
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_party_barrier_never_blocks() {
        let b = SpinBarrier::new(1);
        let abort = AtomicBool::new(true);
        for _ in 0..10 {
            assert!(b.wait(&abort), "a lone party completes, abort or not");
        }
    }

    #[test]
    fn barrier_releases_all_parties_each_generation() {
        const PARTIES: usize = 4;
        const GENERATIONS: usize = 25;
        let barrier = Arc::new(SpinBarrier::new(PARTIES));
        let counter = Arc::new(AtomicUsize::new(0));
        let abort = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..PARTIES)
            .map(|_| {
                let (barrier, counter, abort) = (barrier.clone(), counter.clone(), abort.clone());
                std::thread::spawn(move || {
                    for g in 0..GENERATIONS {
                        counter.fetch_add(1, Ordering::SeqCst);
                        assert!(barrier.wait(&abort));
                        // Everyone has incremented for this generation, and
                        // nobody more than once for the next.
                        let seen = counter.load(Ordering::SeqCst);
                        assert!((g + 1) * PARTIES <= seen && seen <= (g + 2) * PARTIES);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), PARTIES * GENERATIONS);
    }

    #[test]
    fn a_party_whose_peer_never_arrives_returns_false_on_abort() {
        let barrier = Arc::new(SpinBarrier::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (barrier, abort) = (barrier.clone(), abort.clone());
            std::thread::spawn(move || barrier.wait(&abort))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!waiter.is_finished(), "the lone party is held");
        abort.store(true, Ordering::Release);
        assert!(!waiter.join().unwrap(), "abort releases it unfinished");
    }
}
