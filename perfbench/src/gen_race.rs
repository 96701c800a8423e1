//! The `gen_race` diagnostic: seeded draws over all eight `gen` families,
//! each raced by `portfolio::Portfolio` (presolve on) under a fixed
//! per-solve deadline, from one driver thread (two engine threads).
//!
//! It runs like a workload but is not one of the benchmark's: about 1 % of
//! its draws are runaways, a defect of the engines (they do not poll the
//! cancel token on every path), and a benchmark workload must have no
//! failing operation. Their number changes from run to run.
//!
//! The races run in a *worker process* watched by this one. A race that
//! has not returned [`GRACE`] after its [`DEADLINE`] is a runaway: the
//! watchdog logs it (family and draw index), counts it as failed, kills the
//! worker — a leaked engine thread would otherwise keep a core busy for
//! the rest of the run — and starts a fresh worker at the next draw. No
//! draw is skipped, filtered or re-seeded.
//!
//! Worker protocol (standard output, one line each): `ready` after set-up,
//! `start\t<i>` once draw `i` is generated and about to be raced, then
//! `done\t<i>` followed by tab-separated `key=value` fields.

use crate::host_speed::{HostSpeed, CALIBRATE_EVERY};
use crate::{catalogue, latency_metrics, peak_rss_kib, timed_setup, Layers, Outcome, RunConfig};
use analyze::Presolver;
use gen::{check_instance, Claim, EngineClaim, GenConfig};
use portfolio::{Cancel, Portfolio, RaceReport, SolveVerdict};
use runner::{DeadlineTimer, JobStatus};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The per-solve deadline: the race's cancel token trips at this point.
pub const DEADLINE: Duration = Duration::from_millis(100);
/// How long past the deadline the watchdog waits before calling a solve a
/// runaway.
pub const GRACE: Duration = Duration::from_millis(100);
/// How long a fresh worker may take to report `ready`.
const SPAWN_BUDGET: Duration = Duration::from_secs(30);
/// Draws per "pass" for `wall_s`.
pub const PASS_DRAWS: f64 = 100.0;

/// A running worker process and the thread forwarding its output lines.
struct Worker {
    child: Child,
    /// Held open for the worker's life: the worker exits when it closes,
    /// so it cannot outlive this process even if this one is killed.
    _lifeline: ChildStdin,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Worker {
    /// Starts a worker at draw `from` and waits for its `ready` line.
    fn spawn(config: &RunConfig, from: u64) -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["worker", "--seed", &config.seed.to_string()])
            .args(["--from", &from.to_string()])
            .args(["--trace", if config.trace { "1" } else { "0" }])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the worker: {e}"))?;
        let lifeline = child.stdin.take().expect("stdin is piped");
        let stdout: ChildStdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let worker = Worker {
            child,
            _lifeline: lifeline,
            lines,
            reader: Some(reader),
        };
        match worker.lines.recv_timeout(SPAWN_BUDGET) {
            Ok(line) if line == "ready" => Ok(worker),
            other => Err(format!("worker did not get ready: {other:?}")),
        }
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// What the watchdog saw for one draw.
enum Draw {
    /// The worker answered: its `key=value` fields.
    Done(BTreeMap<String, String>),
    /// No answer by deadline + grace.
    Runaway,
    /// The worker exited mid-draw.
    Died,
}

/// Waits for draw `i` to start and finish on `worker`.
fn watch(worker: &Worker, i: u64) -> Draw {
    match worker.lines.recv_timeout(SPAWN_BUDGET) {
        Ok(line) if line == format!("start\t{i}") => {}
        _ => return Draw::Died,
    }
    let started = Instant::now();
    loop {
        let left = (DEADLINE + GRACE).saturating_sub(started.elapsed());
        match worker.lines.recv_timeout(left) {
            Ok(line) => {
                let mut parts = line.split('\t');
                if parts.next() != Some("done") || parts.next() != Some(&i.to_string()) {
                    continue;
                }
                let fields = parts
                    .filter_map(|kv| kv.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                return Draw::Done(fields);
            }
            Err(RecvTimeoutError::Timeout) => return Draw::Runaway,
            Err(RecvTimeoutError::Disconnected) => return Draw::Died,
        }
    }
}

/// Runs the workload (the watching side).
pub fn run(config: &RunConfig) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let gen_config = GenConfig::new(config.seed);
    let mut speed = HostSpeed::new();
    // Every worker start, until it is ready, at reference speed: the
    // repeats here and each restart after a failed draw. Starting a process
    // is mostly the kernel's work and swings with the moment; the restarts
    // spread the samples over the run.
    let (mut setup_samples, worker) = timed_setup(&mut speed, || Worker::spawn(config, 0));
    let mut worker = match worker {
        Ok(w) => w,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };

    // Reference-speed solve times (presolve + race) of the draws answered
    // within the deadline; the others show in `decided_share` and
    // `ok_share`.
    let mut latencies_ms = Vec::new();
    let mut raw_latencies_ms = Vec::new();
    let mut decided = 0u64;
    let mut settled = 0u64;
    let mut sums: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    let mut overrun_max_ms = 0f64;
    let mut runaways = 0u64;
    // Each worker's peak resident set; a worker is replaced after every
    // runaway, so a run has dozens.
    let mut worker_peaks_kib = vec![0f64];
    // Per-draw wall time (generation, solve, oracle, worker I/O) of the
    // draws that did not fail, raw and at reference speed. A failed draw —
    // runaway, dead worker, crash or oracle violation — and the restart
    // after it count in `failed` only; a slow draw that still answered
    // counts here at its full time.
    let (mut kept, mut kept_raw_s, mut kept_s) = (0u64, 0f64, 0f64);
    let started = Instant::now();
    let mut i = 0u64;
    while started.elapsed().as_secs_f64() < config.seconds {
        let draw_started = Instant::now();
        out.attempted += 1;
        let failed_before = out.failed;
        let family = gen_config.family_at(i).name();
        let mut scale = 1.0;
        let draw = watch(&worker, i);
        let restart = !matches!(draw, Draw::Done(_));
        match draw {
            Draw::Done(fields) => {
                let num = |k: &str| fields.get(k).and_then(|v| v.parse::<f64>().ok());
                let solve_ms = num("solve_ms").unwrap_or(0.0);
                let deadline_ms = DEADLINE.as_secs_f64() * 1000.0;
                let in_time = solve_ms <= deadline_ms;
                overrun_max_ms = overrun_max_ms.max(solve_ms - deadline_ms);
                if in_time && num("definitive") == Some(1.0) {
                    decided += 1;
                }
                if num("settled") == Some(1.0) {
                    settled += 1;
                }
                let peak = worker_peaks_kib.last_mut().expect("one entry per worker");
                *peak = peak.max(num("rss_kib").unwrap_or(0.0));
                scale = num("scale").unwrap_or(1.0);
                if in_time {
                    latencies_ms.push(solve_ms * scale);
                    raw_latencies_ms.push(solve_ms);
                }
                let detail = fields.get("detail").map_or("", String::as_str);
                if num("crashed") == Some(1.0) {
                    out.failed += 1;
                    out.notes
                        .push(format!("gen_race draw {i} ({family}): an engine crashed"));
                } else if !detail.is_empty() {
                    out.failed += 1;
                    out.fail(format!("gen_race draw {i} ({family}): {detail}"));
                }
                for (k, v) in &fields {
                    if let Ok(v) = v.parse::<f64>() {
                        let entry = sums.entry(k.clone()).or_insert((0.0, 0));
                        entry.0 += v;
                        entry.1 += 1;
                    }
                }
            }
            Draw::Runaway => {
                runaways += 1;
                out.notes.push(format!(
                    "RUNAWAY gen_race family={family} draw={i} \
                     (gen --seed {} instance gen_{family}_{i:05}): no answer {} ms after \
                     the {} ms deadline; worker killed",
                    config.seed,
                    GRACE.as_millis(),
                    DEADLINE.as_millis()
                ));
            }
            Draw::Died => {
                out.notes
                    .push(format!("gen_race draw {i} ({family}): worker died"));
            }
        }
        i += 1;
        if restart {
            // The draw failed; a fresh worker continues after it.
            out.failed += 1;
            drop(worker);
            worker_peaks_kib.push(0.0);
            let spawn_started = Instant::now();
            worker = match Worker::spawn(config, i) {
                Ok(w) => w,
                Err(e) => {
                    out.fail(e);
                    return out;
                }
            };
            let spawn_s = spawn_started.elapsed().as_secs_f64();
            setup_samples.push(spawn_s * speed.factor_within(Duration::ZERO));
        }
        if out.failed == failed_before {
            let wall_s = draw_started.elapsed().as_secs_f64();
            kept += 1;
            kept_raw_s += wall_s;
            kept_s += wall_s * scale;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    drop(worker);
    let setup_s = crate::stats::median(&setup_samples).unwrap_or(0.0);
    out.metrics.insert("setup_s", setup_s);

    let attempted = out.attempted as f64;
    let throughput = if kept_s > 0.0 {
        kept as f64 / kept_s
    } else {
        0.0
    };
    let raw_sorted = crate::stats::sorted(&raw_latencies_ms);
    let raw_at = |q| crate::stats::quantile(&raw_sorted, q).unwrap_or(0.0);
    out.notes.push(format!(
        "{} draws in {elapsed:.2} s, {runaways} runaway(s), {} failed; wall-clock: \
         {:.2}/s over all draws, {:.2}/s without the failed ones, p50 {:.4} ms, p95 {:.4} ms",
        out.attempted,
        out.failed,
        attempted / elapsed,
        kept as f64 / kept_raw_s,
        raw_at(0.5),
        raw_at(0.95),
    ));
    if config.trace {
        let mean = |k: &str| sums.get(k).map_or(0.0, |(s, n)| s / *n as f64);
        let total = |k: &str| sums.get(k).map_or(0.0, |(s, _)| *s);
        for (name, _) in catalogue("gen_race", true) {
            let value = match name {
                "analyze.presolve_settled_share" => settled as f64 / attempted,
                "portfolio.runaways" => runaways as f64,
                "portfolio.deadline_overrun_ms" => overrun_max_ms.max(0.0),
                "portfolio.nay_wins" | "portfolio.nope_wins" => total(name),
                "portfolio.loser_share" => {
                    let engines = total("engine_ms");
                    if engines > 0.0 {
                        total("loser_ms") / engines
                    } else {
                        0.0
                    }
                }
                "trace.total_ms" => crate::stats::median(&latencies_ms).unwrap_or(0.0),
                _ => mean(name),
            };
            out.metrics.insert(name, value);
        }
    } else {
        out.metrics.insert("wall_s", PASS_DRAWS / throughput);
        out.metrics.insert("throughput_per_s", throughput);
        latency_metrics(&mut out, &latencies_ms);
        out.metrics
            .insert("decided_share", decided as f64 / attempted);
        out.metrics
            .insert("ok_share", 1.0 - out.failed as f64 / attempted);
        // The typical worker's peak, not the largest of dozens, which
        // would swing with how many runaways a run has.
        let worker_kib = crate::stats::median(&worker_peaks_kib).unwrap_or(0.0);
        let rss_kib = worker_kib.max(peak_rss_kib() as f64);
        out.metrics.insert("peak_rss_mb", rss_kib / 1024.0);
    }
    out
}

/// The oracle's view of an engine verdict.
fn claim_of(verdict: SolveVerdict) -> Claim {
    match verdict {
        SolveVerdict::Unrealizable => Claim::Unrealizable,
        SolveVerdict::Realizable => Claim::Realizable,
        SolveVerdict::Unknown | SolveVerdict::Cancelled => Claim::Unknown,
    }
}

/// How a worker settled one draw.
enum Solved {
    /// Through `Portfolio::race_with_cancel` (which may itself have been
    /// settled by its presolve stage).
    Raced(RaceReport),
    /// By the traced run's own presolve replay.
    Presolved(analyze::PresolveOutcome),
}

/// The worker side: races draws `from..` forever, one `start`/`done` line
/// pair per draw, until the watcher kills it.
pub fn worker(seed: u64, from: u64, trace: bool) {
    // The watcher never writes to our stdin; end-of-file means it is gone.
    std::thread::spawn(|| {
        let _ = std::io::stdin().read(&mut [0u8; 1]);
        std::process::exit(0);
    });
    let gen_config = GenConfig::new(seed);
    let portfolio = Portfolio::new();
    let engines_only = Portfolio::new().with_presolve(false);
    let presolver = Presolver::new();
    let timer = DeadlineTimer::new();
    let stdout = std::io::stdout();
    let say = |line: String| {
        let mut lock = stdout.lock();
        let _ = writeln!(lock, "{line}");
        let _ = lock.flush();
    };
    say("ready".into());
    // After `ready`: the kernel is the benchmark's, not the worker's set-up.
    let mut speed = HostSpeed::new();
    for i in from.. {
        // Outside the draw's timed and watched span.
        let scale = speed.factor_within(CALIBRATE_EVERY);
        let mut layers = Layers::default();
        let instance = layers.time("gen.instance_ms", || gen_config.instance_at(i));
        let cancel = Cancel::new();
        // The watcher's deadline + grace clock starts at this line, so it
        // and the cancel deadline below start together.
        say(format!("start\t{i}"));
        let t0 = Instant::now();
        let guard = timer.register(&cancel, DEADLINE);
        let solved = catch_unwind(AssertUnwindSafe(|| {
            if !trace {
                return Solved::Raced(portfolio.race_with_cancel(&instance.problem, &cancel));
            }
            // The race's presolve stage, replayed outside so it is timed
            // on its own; an unsettled problem then races the engines
            // exactly as `race_with_cancel` would after its presolve.
            let settled = layers.time("analyze.presolve_ms", || {
                let outcome = presolver.presolve(&instance.problem);
                let gated =
                    outcome.is_definitive() && presolver.recheck(&instance.problem, &outcome);
                gated.then_some(outcome)
            });
            match settled {
                Some(outcome) => Solved::Presolved(outcome),
                None => Solved::Raced(engines_only.race_with_cancel(&instance.problem, &cancel)),
            }
        }));
        let solve_ms = t0.elapsed().as_secs_f64() * 1000.0;
        drop(guard);

        let mut fields = vec![format!("solve_ms={solve_ms}"), format!("scale={scale}")];
        let (claims, definitive, settled, crashed) = match &solved {
            Err(_) => (Vec::new(), false, false, true),
            Ok(Solved::Presolved(outcome)) => {
                let verdict = match outcome.verdict {
                    analyze::PresolveVerdict::Realizable => Claim::Realizable,
                    analyze::PresolveVerdict::Unrealizable => Claim::Unrealizable,
                    analyze::PresolveVerdict::Unknown => Claim::Unknown,
                };
                let claim = EngineClaim::new("presolve", verdict, outcome.witness.clone());
                (vec![claim], true, true, false)
            }
            Ok(Solved::Raced(report)) => {
                let crashed = [&report.nay, &report.nope]
                    .iter()
                    .any(|e| e.status == JobStatus::Crashed);
                if trace {
                    race_layers(report, &mut layers);
                }
                let settled = report.winner == Some("presolve");
                (
                    race_claims(report),
                    report.verdict.is_definitive(),
                    settled,
                    crashed,
                )
            }
        };
        let violations = layers.time("gen.oracle_ms", || check_instance(&instance, &claims));
        fields.push(format!("definitive={}", u8::from(definitive)));
        fields.push(format!("settled={}", u8::from(settled)));
        fields.push(format!("crashed={}", u8::from(crashed)));
        fields.push(format!("rss_kib={}", peak_rss_kib()));
        if trace {
            for (name, value) in layers.values() {
                fields.push(format!("{name}={value}"));
            }
        }
        if !violations.is_empty() {
            let detail: Vec<String> = violations.iter().map(|v| v.detail.clone()).collect();
            fields.push(format!(
                "detail={}",
                detail.join("; ").replace(['\t', '\n'], " ")
            ));
        }
        say(format!("done\t{i}\t{}", fields.join("\t")));
    }
}

/// The oracle claims of a race, as `reproduce fuzz --engine race` maps
/// them: each side's verdict when it ran to completion, plus the presolve.
fn race_claims(report: &RaceReport) -> Vec<EngineClaim> {
    let side = |name: &str, e: &portfolio::EngineReport, with_solution: bool| {
        let claim = if e.status == JobStatus::Ok {
            claim_of(e.verdict)
        } else {
            Claim::Unknown
        };
        let witness = (with_solution && e.verdict == SolveVerdict::Realizable)
            .then(|| report.solution.clone())
            .flatten();
        EngineClaim::new(name, claim, witness)
    };
    let mut claims = vec![
        side("race/nay", &report.nay, true),
        side("race/nope", &report.nope, false),
    ];
    if let Some(stage) = &report.presolve {
        let witness = (stage.verdict == SolveVerdict::Realizable)
            .then(|| report.solution.clone())
            .flatten();
        claims.push(EngineClaim::new(
            "race/presolve",
            claim_of(stage.verdict),
            witness,
        ));
    }
    claims
}

/// The per-layer fields of an engine race, from its report.
fn race_layers(report: &RaceReport, layers: &mut Layers) {
    let (nay, nope) = (report.nay.millis, report.nope.millis);
    layers.add("portfolio.nay_ms", nay);
    layers.add("portfolio.nope_ms", nope);
    // Race wall time outside both engine bodies: job spawn, scheduling,
    // warm-pool queueing and join.
    layers.add(
        "portfolio.queue_ms",
        (report.wall_millis - nay.max(nope)).max(0.0),
    );
    if let Some(cancel) = report.loser_cancel_millis {
        layers.add("portfolio.loser_cancel_ms", cancel);
    }
    layers.add("engine_ms", nay + nope);
    match report.winner {
        Some("nay") => {
            layers.add("portfolio.nay_wins", 1.0);
            layers.add("loser_ms", nope);
        }
        Some("nope") => {
            layers.add("portfolio.nope_wins", 1.0);
            layers.add("loser_ms", nay);
        }
        _ => {}
    }
}
