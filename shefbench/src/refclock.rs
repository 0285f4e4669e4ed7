//! The reference clock: host times in the units of a fixed reference
//! host.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! 2× and more between runs a few minutes apart, for the same build.
//! Raw host time then measures the neighbours, not the program. So the
//! benchmark pairs every timed interval with a sample of a fixed
//! reference workload of about the same length, run right next to it,
//! and divides the interval by how much slower than nominal the
//! reference ran. A change to the program moves its op time but not the
//! reference; a slower host moves both.
//!
//! The reference workload lives in this file and must never change:
//! byte-wise S-box substitution (like the software AES in `shef-crypto`),
//! a rotate-xor-multiply chain and a streaming pass over 256 KiB, so it
//! uses the same core resources as the ops do.

use std::time::Instant;

/// Words in the reference buffer (256 KiB).
const BUF_WORDS: usize = 32 * 1024;
/// Words one unit of reference work covers (4 KiB).
const UNIT_WORDS: usize = 512;
/// Nanoseconds one unit takes on the reference host: a quiet 2-vCPU
/// Intel Xeon (Sapphire Rapids, KVM) at 2.1 GHz nominal.
pub const NOMINAL_NS_PER_UNIT: f64 = 1250.0;
/// Neighbours on each side a slowdown is smoothed over (see [`smooth`]).
pub const WINDOW: usize = 8;

/// The reference workload, sized so one sample lasts about as long as
/// the interval it is paired with. It runs on the calling thread only:
/// on `sdp_getput`, whose pool runs two threads, a two-thread reference
/// tracked in-guest CPU contention worse than a one-thread one.
pub struct RefClock {
    buf: Vec<u64>,
    sbox: [u8; 256],
    state: u64,
    pos: usize,
    units: usize,
}

impl RefClock {
    /// A clock whose samples take about `target_ms` on the host as it
    /// runs now.
    pub fn sized_for(target_ms: f64) -> Self {
        let mut sbox = [0u8; 256];
        for (i, b) in sbox.iter_mut().enumerate() {
            *b = i as u8;
        }
        // Fisher-Yates with a fixed LCG: the same permutation everywhere.
        let mut lcg = 0x853c_49e6_748f_ea9b_u64;
        for i in (1..256).rev() {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            sbox.swap(i, (lcg >> 33) as usize % (i + 1));
        }
        let mut clock = RefClock {
            buf: (0..BUF_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            sbox,
            state: 1,
            pos: 0,
            units: 0,
        };
        // Warm the buffer and table, then size from a short timed run.
        clock.work(BUF_WORDS / UNIT_WORDS);
        let t = Instant::now();
        clock.work(256);
        let ns_per_unit = t.elapsed().as_nanos() as f64 / 256.0;
        clock.units = ((target_ms * 1e6 / ns_per_unit).round() as usize).max(64);
        clock
    }

    /// Runs one sample and returns the host's slowdown: the sample's
    /// time over its time on the reference host.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        self.work(self.units);
        t.elapsed().as_nanos() as f64 / (self.units as f64 * NOMINAL_NS_PER_UNIT)
    }

    fn work(&mut self, units: usize) {
        for _ in 0..units {
            let words = &mut self.buf[self.pos..self.pos + UNIT_WORDS];
            for w in words {
                let x = u64::from_le_bytes(w.to_le_bytes().map(|b| self.sbox[b as usize]));
                self.state = (self.state.rotate_left(13) ^ x).wrapping_mul(0x2545_f491_4f6c_dd1d);
                *w = x ^ self.state;
            }
            self.pos = (self.pos + UNIT_WORDS) % BUF_WORDS;
        }
        std::hint::black_box(self.state);
    }
}

/// Each slowdown replaced by the median of itself and up to [`WINDOW`]
/// neighbours on each side, so one disturbed reference sample does not
/// rescale its interval alone, while drift over seconds still does.
pub fn smooth(slowdowns: &[f64]) -> Vec<f64> {
    (0..slowdowns.len())
        .map(|i| {
            let lo = i.saturating_sub(WINDOW);
            let hi = (i + WINDOW + 1).min(slowdowns.len());
            crate::stats::median(&slowdowns[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoothing_ignores_one_outlier_and_follows_a_step() {
        let mut f = vec![1.0; 40];
        f[5] = 9.0;
        for x in &mut f[20..] {
            *x = 2.0;
        }
        let s = smooth(&f);
        assert_eq!(s[5], 1.0);
        assert_eq!(s[10], 1.0);
        assert_eq!(s[30], 2.0);
        assert_eq!(s.len(), f.len());
    }

    #[test]
    fn samples_are_sized_and_positive() {
        let mut c = RefClock::sized_for(2.0);
        assert!(c.units >= 64);
        let f = c.sample();
        assert!(f.is_finite() && f > 0.0);
    }
}
