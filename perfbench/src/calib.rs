//! Host-speed calibration for the timed metrics.
//!
//! On a shared 2-vCPU host the CPU speed switches between regimes up to
//! 1.7x apart, each lasting from one second to tens of seconds, so a run's
//! raw times mostly say how long it spent in the slow regime: the median
//! kv_functional throughput of 10-second runs spread 23-38 % between runs
//! that way. A fixed, cache-resident integer loop run every
//! [`INTERVAL_S`] alongside the work slows down with the host and not with
//! the program, so each piece of work is timed and then rescaled to the
//! host speed at which the loop takes [`REFERENCE_S`]. The same medians
//! spread 5-6 % after rescaling.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The loop's time that normalised figures are scaled to; the loop takes
/// about this long on an uncontended 2.1 GHz Xeon vCPU.
pub const REFERENCE_S: f64 = 100e-6;
/// Minimum spacing of loop samples.
const INTERVAL_S: f64 = 0.01;
/// Samples within this distance of a piece of work price its speed.
const WINDOW_S: f64 = 0.05;
const LOOP_ITERATIONS: u64 = 40_000;

/// Seconds of one piece of work, and when it started and ended on a
/// [`Calibration`]'s clock.
pub type Piece = (f64, f64, f64);

/// The loop's samples over a run.
pub struct Calibration {
    origin: Instant,
    table: Vec<u64>,
    state: u64,
    /// `(seconds since origin, loop seconds)`, in time order.
    samples: Vec<(f64, f64)>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut cal = Self {
            origin: Instant::now(),
            table: vec![0; 2048],
            state: 0x9e37_79b9_7f4a_7c15,
            samples: Vec::with_capacity(1 << 16),
        };
        cal.sample();
        cal
    }

    /// Seconds since the calibration started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn sample(&mut self) {
        let start = self.now();
        let t = Instant::now();
        let mut x = self.state;
        let mask = self.table.len() - 1;
        for i in 0..LOOP_ITERATIONS {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            let slot = &mut self.table[z as usize & mask];
            *slot = slot.wrapping_add(z ^ i);
        }
        self.state = black_box(x);
        black_box(&self.table);
        let secs = t.elapsed().as_secs_f64();
        self.samples.push((start + secs / 2.0, secs));
    }

    /// Samples the loop if the last sample is older than [`INTERVAL_S`].
    /// Call it between pieces of work, never inside one.
    pub fn tick(&mut self) {
        let last = self.samples.last().map_or(f64::MIN, |s| s.0);
        if self.now() - last >= INTERVAL_S {
            self.sample();
        }
    }

    /// Samples the loop `n` times back to back, whatever the spacing.
    /// Call it between pieces of work too long for [`Self::tick`] to
    /// sample during them.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// Scales seconds of work done between `from` and `to` (from
    /// [`Self::now`]) to the reference host speed: `secs × REFERENCE_S /
    /// loop time`, the loop time being the median of the samples within
    /// [`WINDOW_S`] of the interval, or of the nearest sample.
    pub fn normalise(&self, secs: f64, from: f64, to: f64) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < from - WINDOW_S);
        let hi = self.samples.partition_point(|s| s.0 <= to + WINDOW_S);
        let near: Vec<f64> = if lo < hi {
            self.samples[lo..hi].iter().map(|s| s.1).collect()
        } else {
            let i = lo.min(self.samples.len() - 1);
            let j = i.saturating_sub(1);
            let pick = if (self.samples[j].0 - from).abs() < (self.samples[i].0 - to).abs() {
                j
            } else {
                i
            };
            vec![self.samples[pick].1]
        };
        secs * REFERENCE_S / median(&near)
    }

    /// Runs `f` as one piece of work, then samples the loop; returns
    /// `f`'s result and its seconds at the reference host speed.
    pub fn piece<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let from = self.now();
        let out = f();
        let to = self.now();
        self.tick();
        (out, self.normalise(to - from, from, to))
    }

    /// Median loop time over the run, in µs (printed for reference).
    pub fn median_us(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>()) * 1e6
    }
}
