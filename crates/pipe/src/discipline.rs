//! Queueing disciplines for the pipe bandwidth queue.
//!
//! Pipes are FIFO drop-tail by default, exactly as in the paper. A RED
//! (random early detection) discipline is available as the paper's optional
//! per-pipe policy: it probabilistically drops arrivals as the average queue
//! length moves between a minimum and maximum threshold, which desynchronises
//! TCP flows sharing the pipe.

use serde::{Deserialize, Serialize};

use mn_util::{ByteReader, ByteWriter, Codec, CodecError};

mn_util::codec_record! {
    /// Parameters of the RED (random early detection) policy.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct RedParams {
        /// Average queue length (packets) below which no packet is dropped.
        pub min_threshold: f64,
        /// Average queue length (packets) at and above which every packet is
        /// dropped.
        pub max_threshold: f64,
        /// Drop probability when the average queue reaches `max_threshold`.
        pub max_drop_probability: f64,
        /// Exponential weight for the average queue estimate (0 < w ≤ 1).
        pub weight: f64,
    }
}

impl Default for RedParams {
    fn default() -> Self {
        // Classic "gentle" defaults scaled for the 50-slot dummynet queue.
        RedParams {
            min_threshold: 5.0,
            max_threshold: 15.0,
            max_drop_probability: 0.1,
            weight: 0.002,
        }
    }
}

impl RedParams {
    /// Drop probability for the given average queue length.
    pub fn drop_probability(&self, avg_queue: f64) -> f64 {
        if avg_queue < self.min_threshold {
            0.0
        } else if avg_queue >= self.max_threshold {
            1.0
        } else {
            let frac = (avg_queue - self.min_threshold) / (self.max_threshold - self.min_threshold);
            (frac * self.max_drop_probability).clamp(0.0, 1.0)
        }
    }
}

/// The discipline applied to a pipe's bandwidth queue.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// FIFO with tail drop on overflow (the ModelNet default).
    #[default]
    DropTail,
    /// Random early detection.
    Red(RedParams),
}

/// A tag byte (0 drop-tail, 1 RED), then RED's parameters.
impl Codec for QueueDiscipline {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut ByteWriter) {
        match self {
            QueueDiscipline::DropTail => w.put_u8(0),
            QueueDiscipline::Red(params) => (1u8, *params).put(w),
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(QueueDiscipline::DropTail),
            1 => Ok(QueueDiscipline::Red(RedParams::get(r)?)),
            _ => Err(CodecError::Invalid("unknown queue discipline tag")),
        }
    }
}

mn_util::codec_record! {
    /// Tracks the RED average-queue estimate for one pipe.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct RedState {
        avg_queue: f64,
    }
}

impl RedState {
    /// Updates the average with the instantaneous queue length observed at an
    /// arrival and returns the new average.
    pub fn observe(&mut self, params: &RedParams, instantaneous: usize) -> f64 {
        self.avg_queue =
            (1.0 - params.weight) * self.avg_queue + params.weight * instantaneous as f64;
        self.avg_queue
    }

    /// The current average estimate.
    pub fn average(&self) -> f64 {
        self.avg_queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_discipline_is_droptail() {
        assert_eq!(QueueDiscipline::default(), QueueDiscipline::DropTail);
    }

    #[test]
    fn red_probability_is_zero_below_min() {
        let p = RedParams::default();
        assert_eq!(p.drop_probability(0.0), 0.0);
        assert_eq!(p.drop_probability(4.9), 0.0);
    }

    #[test]
    fn red_probability_is_one_at_max() {
        let p = RedParams::default();
        assert_eq!(p.drop_probability(15.0), 1.0);
        assert_eq!(p.drop_probability(100.0), 1.0);
    }

    #[test]
    fn red_probability_interpolates_linearly() {
        let p = RedParams::default();
        let mid = p.drop_probability(10.0);
        assert!((mid - 0.05).abs() < 1e-12);
        assert!(p.drop_probability(7.0) < p.drop_probability(12.0));
    }

    #[test]
    fn red_state_converges_toward_observed_queue() {
        let params = RedParams {
            weight: 0.5,
            ..RedParams::default()
        };
        let mut state = RedState::default();
        for _ in 0..32 {
            state.observe(&params, 10);
        }
        assert!((state.average() - 10.0).abs() < 0.01);
    }

    #[test]
    fn red_state_smooths_transients() {
        let params = RedParams::default(); // small weight
        let mut state = RedState::default();
        state.observe(&params, 50);
        assert!(
            state.average() < 1.0,
            "one burst should barely move the average"
        );
    }
}
