//! The layered benchmark of the unrealizability engines.
//!
//! One process runs one workload (see `README.md` for why each exists):
//!
//! * [`paper`] — `paper_quick` and `paper_search`, the paper's Table 1–2
//!   checks run serially through `nay::check_unrealizable` and
//!   `NopeSolver::check`;
//! * [`serve`] — an in-process daemon on loopback TCP replaying seeded
//!   corpus draws from two closed-loop clients.
//!
//! These are the [`WORKLOADS`] of `BENCHMARK.json`. One more workload is a
//! diagnostic outside it ([`DIAGNOSTICS`]):
//!
//! * [`gen_race`] — seeded `gen` draws raced by `portfolio::Portfolio`
//!   under a per-solve deadline, in a watched worker process. About 1 % of
//!   its draws are runaways (engines that ignore the cancellation), which
//!   it counts as failed; a benchmark workload must have none.
//!
//! A run with tracing off reports the end-to-end metrics of [`E2E`]. A
//! separate traced run times every call into each layer *from this
//! crate's code* — no span is added inside the engines — and reports the
//! per-layer metrics of [`PER_LAYER`] (plus [`GEN_RACE_LAYERS`] on
//! `gen_race`).

// Unsafe code is denied everywhere except the one `getrusage` call.
#![deny(unsafe_code)]

pub mod gen_race;
pub mod host_speed;
pub mod paper;
pub mod serve;
pub mod stats;

use host_speed::HostSpeed;
use std::collections::BTreeMap;
use std::time::Instant;

/// The end-to-end metrics every untraced run prints, with their units.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("decided_share", "share"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.total_ms", "ms"),
    ("sygus.rewrite_ms", "ms"),
    ("nay.lia.analyze_ms", "ms"),
    ("nay.clia.solve_bool_ms", "ms"),
    ("nay.clia.bool_iterations", "count"),
    ("nay.clia.solve_int_ms", "ms"),
    ("nay.clia.outer_iterations", "count"),
    ("nay.clia.cap_exits", "count"),
    ("gfa.newton_iterations", "count"),
    ("semilinear.start_size", "count"),
    ("semilinear.concretize_ms", "ms"),
    ("logic.final_check_ms", "ms"),
    ("logic.unknowns", "count"),
    ("chc.horn_check_ms", "ms"),
    ("nope.check_ms", "ms"),
    ("nope.abstract_iterations", "count"),
    ("nay.check_self_ms", "ms"),
    ("analyze.presolve_ms", "ms"),
    ("analyze.presolve_settled_share", "share"),
    ("portfolio.nay_ms", "ms"),
    ("portfolio.nope_ms", "ms"),
    ("portfolio.queue_ms", "ms"),
    ("portfolio.loser_cancel_ms", "ms"),
    ("portfolio.loser_share", "share"),
    ("portfolio.nay_wins", "count"),
    ("portfolio.nope_wins", "count"),
    ("sygus.parse_ms", "ms"),
    ("sygus.fingerprint_ms", "ms"),
    ("server.hit_share", "share"),
    ("server.misses", "count"),
    ("server.evictions", "count"),
    ("server.shed", "count"),
    ("runner.queue_wait_ms", "ms"),
];

/// The per-layer metrics only the `gen_race` diagnostic exercises; its
/// traced run prints them after [`PER_LAYER`].
pub const GEN_RACE_LAYERS: &[(&str, &str)] = &[
    ("gen.instance_ms", "ms"),
    ("gen.oracle_ms", "ms"),
    ("portfolio.deadline_overrun_ms", "ms"),
    ("portfolio.runaways", "count"),
];

/// The benchmark's workloads (those of `BENCHMARK.json`), in the order
/// `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["paper_quick", "paper_search", "serve_corpus"];

/// Workloads that run like the others but are not part of the benchmark:
/// operations fail on them (see [`gen_race`]). `--workload all` runs them
/// after [`WORKLOADS`].
pub const DIAGNOSTICS: &[&str] = &["gen_race"];

/// The metrics a run of `workload` prints: [`E2E`] untraced, [`PER_LAYER`]
/// traced, followed by [`GEN_RACE_LAYERS`] on `gen_race`.
pub fn catalogue(workload: &str, trace: bool) -> Vec<(&'static str, &'static str)> {
    let mut metrics = if trace { PER_LAYER } else { E2E }.to_vec();
    if trace && workload == "gen_race" {
        metrics.extend_from_slice(GEN_RACE_LAYERS);
    }
    metrics
}

/// A run repeats its set-up at the start at least this many times, and
/// until the repeats add up to [`SETUP_MIN_SECONDS`]; `setup_s` is the
/// median.
pub const SETUP_REPEATS: usize = 25;

/// The least total time of a run's set-up repeats. A sub-millisecond
/// set-up (the daemon's) swings by 10x from one repeat to the next, so its
/// median needs hundreds of them.
pub const SETUP_MIN_SECONDS: f64 = 0.25;

/// What one run is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

/// The result of one run: correctness, counts and named metrics.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every output passed its reference check.
    pub correct: bool,
    /// Operations attempted (checks, draws or requests).
    pub attempted: u64,
    /// Operations that crashed, overran deadline + grace, answered with an
    /// error, or contradicted the reference.
    pub failed: u64,
    /// Metric values by name; units come from [`catalogue`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines (failures, runaway log, tail percentile),
    /// printed to standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed reference check: the run is incorrect and the
    /// detail is kept for the report.
    pub fn fail(&mut self, detail: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {detail}"));
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics being every entry
    /// of `catalogue` (see [`catalogue`]).
    pub fn to_json_line(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (non-finite values print 0).
fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Per-layer accumulator: milliseconds and counts by metric name.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Runs `f`, adding its wall time in milliseconds to `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_secs_f64() * 1000.0);
        out
    }

    /// Adds `amount` to `name`.
    pub fn add(&mut self, name: &'static str, amount: f64) {
        *self.values.entry(name).or_insert(0.0) += amount;
    }

    /// The accumulated value of `name` (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Adds every value of `other`, scaled by `factor`.
    pub fn merge_scaled(&mut self, other: &Layers, factor: f64) {
        for (name, value) in &other.values {
            self.add(name, value * factor);
        }
    }

    /// Multiplies every time (every name ending in `_ms`) by `factor`;
    /// counts are left alone.
    pub fn scale_times(&mut self, factor: f64) {
        for (name, value) in &mut self.values {
            if name.ends_with("_ms") {
                *value *= factor;
            }
        }
    }

    /// The accumulated values.
    pub fn values(&self) -> &BTreeMap<&'static str, f64> {
        &self.values
    }
}

/// The times of the calls of `setup` ([`SETUP_REPEATS`] or more, see
/// [`SETUP_MIN_SECONDS`]), each at reference speed (scaled by a `speed`
/// factor taken straight after it), in seconds, and the last call's result.
pub fn timed_setup<T>(speed: &mut HostSpeed, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    let mut total_s = 0.0;
    while samples.len() < SETUP_REPEATS || total_s < SETUP_MIN_SECONDS {
        // The previous set-up (a worker process, a daemon) goes first, so
        // it does not compete with this one.
        drop(last.take());
        let started = Instant::now();
        let value = setup();
        let seconds = started.elapsed().as_secs_f64();
        total_s += seconds;
        samples.push(seconds * speed.factor());
        last = Some(value);
    }
    (samples, last.expect("SETUP_REPEATS > 0"))
}

/// Fills the latency metrics from raw per-operation samples (ms) and notes
/// which percentile the tail is and over how many samples.
pub fn latency_metrics(out: &mut Outcome, samples_ms: &[f64]) {
    let sorted = stats::sorted(samples_ms);
    if let Some(p50) = stats::quantile(&sorted, 0.5) {
        out.metrics.insert("latency_p50_ms", p50);
    }
    if let Some(tail) = stats::tail(&sorted) {
        out.metrics.insert("latency_tail_ms", tail.value);
        out.notes.push(format!(
            "latency_tail_ms is p{} over {} samples ({} beyond)",
            tail.percentile, tail.samples, tail.beyond
        ));
    }
}

/// This process's peak resident set in MiB.
pub fn peak_rss_mb() -> f64 {
    peak_rss_kib() as f64 / 1024.0
}

/// This process's peak resident set in KiB, from `getrusage(RUSAGE_SELF)`
/// (0 if the call fails). Children are not counted; `gen_race` collects
/// its workers' peaks from their result lines.
pub fn peak_rss_kib() -> i64 {
    rss::max_rss_kib()
}

mod rss {
    //! `getrusage(2)` through a minimal foreign declaration (the standard
    //! library does not expose it, and the build has no `libc` crate).
    #![allow(unsafe_code)]

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    const RUSAGE_SELF: i32 = 0;

    /// This process's peak resident set size in KiB (0 if the call fails).
    pub fn max_rss_kib() -> i64 {
        let mut usage = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `usage` is a live, writable, correctly sized and aligned
        // `struct rusage`, and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        if rc == 0 {
            usage.maxrss
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runner::Json;

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this crate prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("`{key}` is a list"))
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |catalogue: &[(&str, &str)]| -> Vec<(String, String)> {
            catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), own(E2E));
        assert_eq!(list("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_every_metric_of_its_mode() {
        let mut out = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        out.metrics.insert("wall_s", 1.25);
        let line =
            Json::parse(&out.to_json_line(&catalogue("serve_corpus", false))).expect("valid JSON");
        let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), E2E.len());
        let wall = line.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        let traced =
            Json::parse(&out.to_json_line(&catalogue("serve_corpus", true))).expect("valid JSON");
        let metrics = traced.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let diagnostic =
            Json::parse(&out.to_json_line(&catalogue("gen_race", true))).expect("valid JSON");
        let metrics = diagnostic.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len() + GEN_RACE_LAYERS.len());
        assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(3));
    }
}
