//! Host-speed calibration: every time the benchmark reports is
//! reference-speed time.
//!
//! On a shared machine the same fixed-input check can run up to 60 %
//! slower for seconds to minutes and then speed up again, as neighbours
//! contend for caches and memory bandwidth. A pure arithmetic loop hardly
//! sees this; an allocation- and pointer-heavy one does, much as the
//! engines' `BTreeMap`- and `Vec`-heavy code does. [`HostSpeed`] times such
//! a fixed kernel next to the work and scales each wall time by
//! `NOMINAL_KERNEL_MS / kernel time`: for a paper check or a set-up repeat,
//! the mean of the kernel runs just before and just after it
//! ([`HostSpeed::factor`]); for sub-millisecond `gen_race` draws and
//! `serve_corpus` requests, the latest run, re-timed every
//! [`CALIBRATE_EVERY`] ([`HostSpeed::factor_within`]). The result reads as
//! the time on a host where the kernel takes [`NOMINAL_KERNEL_MS`]. The
//! kernel is this crate's own code, so a change to the engines cannot move
//! it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the reference host (a 2-core VM), in ms. Only a
/// scale: it makes reference-speed figures read close to wall-clock ones.
pub const NOMINAL_KERNEL_MS: f64 = 0.75;

/// How often [`HostSpeed::factor_within`] callers re-time the kernel.
pub const CALIBRATE_EVERY: Duration = Duration::from_millis(50);

/// Keys the kernel inserts.
const KERNEL_KEYS: u64 = 3_000;

/// The calibration kernel: inserts pseudo-random keys with small boxed
/// values into a `BTreeMap`, then folds the values.
fn kernel() -> u64 {
    let mut map = BTreeMap::new();
    let mut x = 1u64;
    for i in 0..KERNEL_KEYS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 40, vec![i; 3]);
    }
    map.values().map(|v| v[0]).sum()
}

/// One timed kernel run, in ms.
fn kernel_ms() -> f64 {
    let started = Instant::now();
    black_box(kernel());
    started.elapsed().as_secs_f64() * 1000.0
}

/// Times the kernel between samples and turns wall times into
/// reference-speed times.
#[derive(Debug)]
pub struct HostSpeed {
    /// The latest kernel time, in ms: the "before" of the next sample.
    last_ms: f64,
    /// When the latest kernel run ended.
    last_at: Instant,
    /// Every scale factor handed out.
    factors: Vec<f64>,
}

impl HostSpeed {
    /// Starts calibrating: the first kernel run is the "before" of the
    /// first sample.
    pub fn new() -> HostSpeed {
        black_box(kernel()); // warm the allocator
        HostSpeed {
            last_ms: kernel_ms(),
            last_at: Instant::now(),
            factors: Vec::new(),
        }
    }

    /// The scale factor for the sample that just ended:
    /// `NOMINAL_KERNEL_MS` over the mean of the kernel runs before and
    /// after it. Call once per sample, straight after it.
    pub fn factor(&mut self) -> f64 {
        let now = kernel_ms();
        let factor = NOMINAL_KERNEL_MS / ((self.last_ms + now) / 2.0);
        self.last_ms = now;
        self.last_at = Instant::now();
        self.factors.push(factor);
        factor
    }

    /// The scale factor for a sample about to start, from the latest
    /// kernel run alone; the kernel is timed again first when that run is
    /// older than `max_age`. For samples too short and too many to bracket
    /// each with kernel runs.
    pub fn factor_within(&mut self, max_age: Duration) -> f64 {
        if self.last_at.elapsed() > max_age {
            self.last_ms = kernel_ms();
            self.last_at = Instant::now();
        }
        let factor = NOMINAL_KERNEL_MS / self.last_ms;
        self.factors.push(factor);
        factor
    }

    /// The median factor handed out so far (1 when none was).
    pub fn median_factor(&self) -> f64 {
        crate::stats::median(&self.factors).unwrap_or(1.0)
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_are_positive_and_recorded() {
        let mut speed = HostSpeed::new();
        let factors: Vec<f64> = (0..5).map(|_| speed.factor()).collect();
        assert!(factors.iter().all(|f| f.is_finite() && *f > 0.0));
        assert!(speed.median_factor() > 0.0);
        assert_eq!(speed.factors.len(), 5);
    }

    #[test]
    fn factor_within_reuses_a_fresh_kernel_run() {
        let mut speed = HostSpeed::new();
        let first = speed.factor_within(Duration::from_secs(3600));
        let second = speed.factor_within(Duration::from_secs(3600));
        assert_eq!(first, second, "no new kernel run inside max_age");
        assert!(first.is_finite() && first > 0.0);
    }

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
