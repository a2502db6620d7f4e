//! Order statistics, the benchmark's own input RNG and the host probe run
//! between reps.

use std::hint::black_box;
use std::time::Instant;

/// First quartile, median and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so the
/// spreads printed here are the ones an outside checker will recompute.
/// One sample stands for all three.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n == 1 {
        return (x[0], x[0], x[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The smallest sample.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The largest sample.
pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The highest percentile that still has at least ten samples beyond it, and
/// the sample at it: p90 of 100 samples, p99 of 1 000. `None` when there are
/// not even eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let at = n - 11;
    Some((100.0 * (at + 1) as f64 / n as f64, x[at]))
}

/// SplitMix64: the benchmark's own generator, so that workload inputs depend
/// on `--seed` alone and on nothing inside the system under test.
#[derive(Debug, Clone)]
pub struct InputRng(u64);

impl InputRng {
    pub fn new(seed: u64, stream: u64) -> Self {
        InputRng(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03),
        )
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (the modulo bias is below 2⁻⁴⁰ at these bounds).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The time [`HostProbe::run`] is taken to need: every timing is reported as
/// if the host's fastest probe of the run had taken exactly this long. It
/// only fixes the unit — comparisons are between runs on one host — and is
/// about what the probe takes on the host the first baseline came from.
pub const PROBE_REFERENCE_S: f64 = 0.012;

/// A pointer chase through 4 MiB: a probe of how fast the host's memory
/// system answers *right now*. In a shared sandbox that is what moves timings
/// — the same binary runs tens of per cent slower, for seconds or for
/// minutes, while a neighbour thrashes the shared cache, and a pure ALU loop
/// beside it does not move at all. The probe runs between reps. Its fastest
/// pass of a run says how good the host got during that run, which is also
/// when the run's best rep happened; the run's timings are scaled by it.
pub struct HostProbe {
    chase: Vec<u32>,
}

impl HostProbe {
    const SLOTS: usize = 1 << 20;
    const STEPS: usize = 1 << 19;

    pub fn new() -> Self {
        // Sattolo's shuffle: one cycle through every slot, so the chase never
        // settles into a short, cache-resident loop.
        let mut chase: Vec<u32> = (0..Self::SLOTS as u32).collect();
        let mut rng = InputRng::new(0xCA11_B8A7, 0);
        for i in (1..chase.len()).rev() {
            let j = rng.below(i as u64) as usize;
            chase.swap(i, j);
        }
        HostProbe { chase }
    }

    /// Seconds one chase took: the faster of two passes, because the first
    /// also pays for whatever ran before it evicting the array.
    pub fn run(&self) -> f64 {
        self.pass().min(self.pass())
    }

    fn pass(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0usize;
        for _ in 0..Self::STEPS {
            at = self.chase[at] as usize;
        }
        black_box(at);
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((100.0 / 11.0, 1.0)));
        assert_eq!(tail(&eleven[..10]), None);
    }

    #[test]
    fn input_rng_repeats_for_a_seed_and_differs_across_seeds_and_streams() {
        let draw = |seed, stream| {
            let mut r = InputRng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut r = InputRng::new(9, 9);
        assert!((0..1000).all(|_| r.below(17) < 17));
    }

    #[test]
    fn the_probe_chase_is_one_cycle() {
        let c = HostProbe::new();
        let mut at = 0usize;
        let mut steps = 0usize;
        loop {
            at = c.chase[at] as usize;
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, HostProbe::SLOTS);
    }
}
