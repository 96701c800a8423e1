//! The paper workloads: Table 1–2 checks run serially on their witness
//! example sets.
//!
//! * `paper_quick` — the quick subset (`bench::select(_, true)` over the
//!   three families) × naySL / nayHorn / nope;
//! * `paper_search` — the `if_search_*` and `plus_search_*` rows × the
//!   three tools, capped at [`IF_SEARCH_MAX`] / [`PLUS_SEARCH_MAX`] so a
//!   pass fits a run.
//!
//! The untraced run calls the engines' public entry points. The traced
//! run calls [`replica_check`], which replays `check_unrealizable`'s
//! pipeline from outside — `to_plus_form` → `lia::analyze` or the
//! SolveMutual loop over `clia::solve_bool` / `clia::solve_int` →
//! `concretize_semilinear` → `logic::Solver::check` — timing each call.
//!
//! Every verdict is checked against two references: the pinned
//! per-(benchmark, tool) table in `pins/paper_verdicts.txt` (a regression
//! pin recorded from the engines, not ground truth), and the soundness
//! implication that naySL is exact on a fixed example set (Thm. 4.5), so a
//! nayHorn or nope `unrealizable` implies naySL `unrealizable`.

use crate::host_speed::HostSpeed;
use crate::{latency_metrics, peak_rss_mb, stats, timed_setup, Layers, Outcome};
use crate::{RunConfig, PER_LAYER};
use benchmarks::Benchmark;
use chc::{HornSolver, HornVerdict};
use logic::{Formula, LinearExpr, Solver, SolverResult, Var};
use nay::check::{check_unrealizable, Verdict};
use nay::clia::{self, CliaAnalysis};
use nay::{lia, Mode};
use nope::NopeSolver;
use semilinear::concretize_semilinear;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use sygus::{ExampleSet, Problem, Sort};

/// Largest `k` of the `if_search_k` rows in `paper_search`.
pub const IF_SEARCH_MAX: usize = 6;
/// Largest `k` of the `plus_search_k` rows in `paper_search`.
pub const PLUS_SEARCH_MAX: usize = 7;

/// The pinned verdict table (regression pin, not ground truth).
const PINS: &str = include_str!("../pins/paper_verdicts.txt");

/// The three tools of the paper's tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tool {
    /// Exact semi-linear GFA (`Mode::default()`).
    NaySl,
    /// Approximate Horn abstraction (`Mode::horn()`).
    NayHorn,
    /// The nope baseline.
    Nope,
}

impl Tool {
    /// All tools, in table-column order.
    pub const ALL: [Tool; 3] = [Tool::NaySl, Tool::NayHorn, Tool::Nope];

    /// Table-column name.
    pub fn name(self) -> &'static str {
        match self {
            Tool::NaySl => "naySL",
            Tool::NayHorn => "nayHorn",
            Tool::Nope => "nope",
        }
    }
}

/// One (benchmark, tool) check.
#[derive(Clone, Debug)]
pub struct Check {
    /// The benchmark.
    pub bench: Benchmark,
    /// The tool.
    pub tool: Tool,
}

/// The benchmarks of a paper workload, or `None` for another name.
pub fn benchmarks_of(workload: &str) -> Option<Vec<Benchmark>> {
    match workload {
        "paper_quick" => Some(
            bench::FAMILIES
                .iter()
                .flat_map(|&family| bench::select(family, true))
                .collect(),
        ),
        "paper_search" => Some(
            benchmarks::all()
                .into_iter()
                .filter(|b| {
                    search_row(&b.name, "if_search_", IF_SEARCH_MAX)
                        || search_row(&b.name, "plus_search_", PLUS_SEARCH_MAX)
                })
                .collect(),
        ),
        _ => None,
    }
}

fn search_row(name: &str, prefix: &str, max: usize) -> bool {
    name.strip_prefix(prefix)
        .and_then(|k| k.parse::<usize>().ok())
        .is_some_and(|k| k <= max)
}

/// Every (benchmark, tool) check of a benchmark list, tools innermost.
pub fn checks_of(benches: Vec<Benchmark>) -> Vec<Check> {
    benches
        .into_iter()
        .flat_map(|bench| {
            Tool::ALL.map(|tool| Check {
                bench: bench.clone(),
                tool,
            })
        })
        .collect()
}

/// The pinned verdict of every (benchmark, tool) pair.
pub fn pins() -> BTreeMap<(String, String), String> {
    PINS.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            Some((
                (parts.next()?.to_string(), parts.next()?.to_string()),
                parts.next()?.to_string(),
            ))
        })
        .collect()
}

/// Runs one check through the engines' public entry points.
pub fn run_check(check: &Check) -> &'static str {
    let (problem, examples) = (&check.bench.problem, &check.bench.witness_examples);
    match check.tool {
        Tool::NaySl => check_unrealizable(problem, examples, &Mode::default())
            .verdict
            .name(),
        Tool::NayHorn => check_unrealizable(problem, examples, &Mode::horn())
            .verdict
            .name(),
        Tool::Nope => NopeSolver::new().check(problem, examples).0.name(),
    }
}

/// Runs one check through the outside replica, adding each layer's time
/// and counts to `layers`; `nay.check_self_ms` gets the check's time not
/// covered by a timed layer call.
pub fn run_check_traced(check: &Check, layers: &mut Layers) -> &'static str {
    let (problem, examples) = (&check.bench.problem, &check.bench.witness_examples);
    let started = Instant::now();
    let mut inner = Layers::default();
    let verdict = match check.tool {
        Tool::NaySl => replica_check(problem, examples, &mut inner).name(),
        Tool::NayHorn => {
            if examples.is_empty() {
                // the same vacuous-spec shortcut as the semi-linear path
                replica_check(problem, examples, &mut inner).name()
            } else {
                let horn = inner.time("chc.horn_check_ms", || {
                    HornSolver::new().check(problem.grammar(), examples, problem.spec())
                });
                match horn {
                    HornVerdict::Unrealizable => Verdict::Unrealizable.name(),
                    HornVerdict::Unknown => Verdict::Unknown.name(),
                }
            }
        }
        Tool::Nope => {
            let (verdict, nope_stats) = inner.time("nope.check_ms", || {
                NopeSolver::new().check(problem, examples)
            });
            inner.add(
                "nope.abstract_iterations",
                nope_stats.abstract_iterations as f64,
            );
            verdict.name()
        }
    };
    let total_ms = started.elapsed().as_secs_f64() * 1000.0;
    let covered: f64 = inner
        .values()
        .iter()
        .filter(|(name, _)| name.ends_with("_ms"))
        .map(|(_, ms)| ms)
        .sum();
    inner.add("nay.check_self_ms", total_ms - covered);
    inner.add("trace.total_ms", total_ms);
    layers.merge_scaled(&inner, 1.0);
    verdict
}

/// `check_unrealizable` in `Mode::default()` (stratified, pruned), replayed
/// from the engines' public building blocks with every layer call timed.
/// Must return the same verdict as `check_unrealizable` on every paper
/// benchmark (see the replica-agreement test).
pub fn replica_check(problem: &Problem, examples: &ExampleSet, layers: &mut Layers) -> Verdict {
    let (stratified, prune) = (true, true);
    if examples.is_empty() {
        let trimmed = problem.grammar().trim();
        return if trimmed.productions_of(trimmed.start()).next().is_some() {
            Verdict::Realizable
        } else {
            Verdict::Unrealizable
        };
    }
    let Ok(rewritten) = layers.time("sygus.rewrite_ms", || {
        sygus::rewrite::to_plus_form(problem.grammar())
    }) else {
        return Verdict::Unknown;
    };
    let outputs: Vec<Var> = (0..examples.len())
        .map(|j| Var::indexed("o", j + 1))
        .collect();
    let spec_formula = problem.spec().conjunction_over(examples, &outputs);

    let gamma = if rewritten.is_lia() {
        let Ok(analysis) = layers.time("nay.lia.analyze_ms", || {
            lia::analyze(&rewritten, examples, stratified, prune)
        }) else {
            return Verdict::Unknown;
        };
        layers.add("gfa.newton_iterations", analysis.newton_iterations as f64);
        layers.add("semilinear.start_size", analysis.start_size as f64);
        let start = analysis.start_value(&rewritten);
        layers.time("semilinear.concretize_ms", || {
            concretize_semilinear(start, &outputs)
        })
    } else {
        let Some(analysis) = solve_mutual(&rewritten, examples, stratified, prune, layers) else {
            return Verdict::Unknown;
        };
        layers.add(
            "semilinear.start_size",
            analysis.start_size(&rewritten) as f64,
        );
        match rewritten.sort_of(rewritten.start()) {
            Some(Sort::Int) => layers.time("semilinear.concretize_ms", || {
                concretize_semilinear(&analysis.int_values[rewritten.start()], &outputs)
            }),
            Some(Sort::Bool) => {
                let bset = &analysis.bool_values[rewritten.start()];
                Formula::or(bset.iter().map(|b| {
                    Formula::and((0..examples.len()).map(|j| {
                        Formula::eq(
                            LinearExpr::var(outputs[j].clone()),
                            LinearExpr::constant(i64::from(b[j])),
                        )
                    }))
                }))
            }
            None => Formula::False,
        }
    };

    let query = Formula::and(vec![gamma, spec_formula]);
    match layers.time("logic.final_check_ms", || Solver::default().check(&query)) {
        SolverResult::Unsat => Verdict::Unrealizable,
        SolverResult::Sat(_) => Verdict::Realizable,
        SolverResult::Unknown => {
            layers.add("logic.unknowns", 1.0);
            Verdict::Unknown
        }
    }
}

/// `clia::analyze` (SolveMutual, §6.4) with each `solve_bool` /
/// `solve_int` call timed. Counts an exit through the safety cap in
/// `nay.clia.cap_exits`.
fn solve_mutual(
    grammar: &sygus::Grammar,
    examples: &ExampleSet,
    stratified: bool,
    prune: bool,
    layers: &mut Layers,
) -> Option<CliaAnalysis> {
    let mut int_values: BTreeMap<_, _> = grammar
        .int_nonterminals()
        .into_iter()
        .map(|nt| (nt, semilinear::SemiLinearSet::zero()))
        .collect();
    let mut prev_bools = None;
    let mut outer_iterations = 0;
    let mut bool_iterations = 0;
    let max_outer = grammar.num_nonterminals() * (1usize << examples.len()) + 2;
    let finish = |layers: &mut Layers, analysis: CliaAnalysis| {
        layers.add(
            "nay.clia.outer_iterations",
            analysis.outer_iterations as f64,
        );
        layers.add("nay.clia.bool_iterations", analysis.bool_iterations as f64);
        Some(analysis)
    };
    loop {
        let (bools, iters) = layers.time("nay.clia.solve_bool_ms", || {
            clia::solve_bool(grammar, examples, &int_values)
        });
        bool_iterations += iters;
        if prev_bools.as_ref() == Some(&bools) {
            let analysis = CliaAnalysis {
                int_values,
                bool_values: bools,
                outer_iterations,
                bool_iterations,
            };
            return finish(layers, analysis);
        }
        int_values = layers
            .time("nay.clia.solve_int_ms", || {
                clia::solve_int(grammar, examples, &bools, stratified, prune)
            })
            .ok()?;
        prev_bools = Some(bools);
        outer_iterations += 1;
        if outer_iterations >= max_outer {
            layers.add("nay.clia.cap_exits", 1.0);
            let analysis = CliaAnalysis {
                int_values,
                bool_values: prev_bools.unwrap_or_default(),
                outer_iterations,
                bool_iterations,
            };
            return finish(layers, analysis);
        }
    }
}

/// A check faster than this is repeated back to back until its runs add up
/// to it; its time is then the median run. A single run of a sub-millisecond
/// check is mostly timer and scheduling noise.
const MIN_SAMPLE_S: f64 = 0.01;
/// Most runs of one check per sample.
const MAX_REPEATS: usize = 25;

/// Runs a check (`run`), repeated as [`MIN_SAMPLE_S`] says, and returns its
/// verdict (the first that differs between repeats, if any does), its
/// median run time in seconds, and how many runs it made.
fn timed_check(
    mut run: impl FnMut() -> &'static str,
) -> (std::thread::Result<&'static str>, f64, usize) {
    let mut times = Vec::new();
    let mut verdict: Option<&'static str> = None;
    while times.is_empty()
        || (times.iter().sum::<f64>() < MIN_SAMPLE_S && times.len() < MAX_REPEATS)
    {
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(&mut run));
        times.push(t0.elapsed().as_secs_f64());
        let last = times[times.len() - 1];
        match (outcome, verdict) {
            (Err(panic), _) => return (Err(panic), last, times.len()),
            (Ok(v), None) => verdict = Some(v),
            (Ok(v), Some(first)) if v != first => return (Ok(v), last, times.len()),
            (Ok(_), Some(_)) => {}
        }
    }
    let median = stats::median(&times).expect("at least one run");
    (Ok(verdict.expect("at least one run")), median, times.len())
}

/// Nominal seconds of one pass on a 2-core machine, which sets how many
/// whole passes a run makes (see [`passes_for`]).
fn nominal_pass_seconds(workload: &str) -> f64 {
    match workload {
        "paper_quick" => 14.0,
        _ => 5.0,
    }
}

/// Whole passes in a run of `seconds`: as many nominal passes as fit, at
/// least one. A fixed count (rather than "until the time is up") gives
/// every run the same samples, so the tail percentile never switches.
fn passes_for(workload: &str, seconds: f64) -> usize {
    ((seconds / nominal_pass_seconds(workload)).floor() as usize).max(1)
}

/// Runs a paper workload: [`passes_for`] whole passes over every check, in
/// table order. The inputs are the paper's fixed suite, so the seed does
/// not change them.
pub fn run(workload: &str, config: &RunConfig) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let mut speed = HostSpeed::new();
    let (setup_samples, (checks, pins)) = timed_setup(&mut speed, || {
        let benches = benchmarks_of(workload).expect("a paper workload");
        (checks_of(benches), pins())
    });
    out.metrics
        .insert("setup_s", stats::median(&setup_samples).unwrap_or(0.0));

    let mut verdicts: Vec<Option<&'static str>> = vec![None; checks.len()];
    let mut latencies_ms = Vec::new();
    // Each check's reference-speed time in each pass, with its layers
    // (traced run only).
    let mut samples: Vec<Vec<(f64, Layers)>> = vec![Vec::new(); checks.len()];
    let mut raw_seconds = 0.0;
    let passes = passes_for(workload, config.seconds);
    let started = Instant::now();
    for _ in 0..passes {
        for (i, check) in checks.iter().enumerate() {
            // The traced run makes the same repeats as the untraced one, so
            // the two compare; its layers are averaged over the repeats.
            let mut runs_layers = Layers::default();
            let (verdict, seconds, runs) = if config.trace {
                timed_check(|| run_check_traced(check, &mut runs_layers))
            } else {
                timed_check(|| run_check(check))
            };
            let scale = speed.factor();
            runs_layers.scale_times(scale);
            let mut layers = Layers::default();
            layers.merge_scaled(&runs_layers, 1.0 / runs as f64);
            raw_seconds += seconds;
            latencies_ms.push(seconds * scale * 1000.0);
            samples[i].push((seconds * scale, layers));
            out.attempted += 1;
            let label = format!("{}/{}", check.bench.name, check.tool.name());
            let Ok(verdict) = verdict else {
                out.failed += 1;
                out.notes.push(format!("{label}: crashed"));
                continue;
            };
            let pinned = pins.get(&(check.bench.name.clone(), check.tool.name().to_string()));
            if pinned.map(String::as_str) != Some(verdict) {
                out.failed += 1;
                out.fail(format!(
                    "{label}: verdict {verdict}, pinned {}",
                    pinned.map_or("<none>", String::as_str)
                ));
            }
            verdicts[i] = Some(verdict);
        }
    }
    check_soundness(&checks, &verdicts, &mut out);

    let passes = passes as f64;
    out.notes.push(format!(
        "{} checks x {passes} pass(es) in {:.2} s; {:.3} s wall-clock solve time a pass, \
         median host-speed factor {:.3}",
        checks.len(),
        started.elapsed().as_secs_f64(),
        raw_seconds / passes,
        speed.median_factor()
    ));
    // A pass made of each check's median pass (nearest rank, by time), so
    // one slow pass of a check moves neither `wall_s` nor the layers.
    let mut wall_s = 0.0;
    let mut layers = Layers::default();
    for mut check_samples in samples {
        check_samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (seconds, check_layers) = &check_samples[check_samples.len().div_ceil(2) - 1];
        wall_s += seconds;
        layers.merge_scaled(check_layers, 1.0);
    }
    if config.trace {
        for (name, _) in PER_LAYER {
            out.metrics.insert(name, layers.get(name));
        }
    } else {
        out.metrics.insert("wall_s", wall_s);
        out.metrics
            .insert("throughput_per_s", checks.len() as f64 / wall_s);
        latency_metrics(&mut out, &latencies_ms);
        let decided = verdicts
            .iter()
            .filter(|v| matches!(v, Some("unrealizable" | "realizable")))
            .count();
        out.metrics
            .insert("decided_share", decided as f64 / checks.len() as f64);
        out.metrics
            .insert("ok_share", 1.0 - out.failed as f64 / out.attempted as f64);
        out.metrics.insert("peak_rss_mb", peak_rss_mb());
    }
    out
}

/// The cross-engine reference: naySL is exact on the example set, so an
/// approximate tool's `unrealizable` must be matched by naySL's.
fn check_soundness(checks: &[Check], verdicts: &[Option<&str>], out: &mut Outcome) {
    let mut naysl: BTreeMap<&str, &str> = BTreeMap::new();
    for (check, verdict) in checks.iter().zip(verdicts) {
        if let (Tool::NaySl, Some(v)) = (check.tool, verdict) {
            naysl.insert(&check.bench.name, v);
        }
    }
    for (check, verdict) in checks.iter().zip(verdicts) {
        if check.tool != Tool::NaySl && *verdict == Some("unrealizable") {
            let exact = naysl.get(check.bench.name.as_str()).copied();
            if exact != Some("unrealizable") {
                out.failed += 1;
                out.fail(format!(
                    "{}: {} proved unrealizable but naySL says {}",
                    check.bench.name,
                    check.tool.name(),
                    exact.unwrap_or("<nothing>")
                ));
            }
        }
    }
}

/// The pin table for every paper workload, from the engines' public entry
/// points (`perfbench pin` prints it).
pub fn pin_table() -> String {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = String::from(
        "# Regression pin, NOT ground truth: the verdict each tool returned on\n\
         # each paper-workload benchmark's witness examples when the pin was\n\
         # recorded. A change here must be explained; regenerate with\n\
         # `perfbench/run.sh pin > perfbench/pins/paper_verdicts.txt`.\n\
         # <benchmark> <tool> <verdict>\n",
    );
    for workload in ["paper_quick", "paper_search"] {
        for check in checks_of(benchmarks_of(workload).expect("a paper workload")) {
            if seen.insert((check.bench.name.clone(), check.tool)) {
                out.push_str(&format!(
                    "{} {} {}\n",
                    check.bench.name,
                    check.tool.name(),
                    run_check(&check)
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced run measures the same program: the replica returns the
    /// verdict of `check_unrealizable` on every benchmark of both paper
    /// workloads.
    #[test]
    fn replica_agrees_with_check_unrealizable() {
        let mut disagreements = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for workload in ["paper_quick", "paper_search"] {
            for bench in benchmarks_of(workload).unwrap() {
                if !seen.insert(bench.name.clone()) {
                    continue;
                }
                let (p, e) = (&bench.problem, &bench.witness_examples);
                let engine = check_unrealizable(p, e, &Mode::default()).verdict;
                let replica = replica_check(p, e, &mut Layers::default());
                if engine != replica {
                    disagreements.push(format!("{}: {engine:?} vs {replica:?}", bench.name));
                }
            }
        }
        assert!(disagreements.is_empty(), "{disagreements:#?}");
    }

    #[test]
    fn every_check_is_pinned() {
        let pins = pins();
        for workload in ["paper_quick", "paper_search"] {
            let checks = checks_of(benchmarks_of(workload).unwrap());
            assert!(!checks.is_empty());
            for c in checks {
                let key = (c.bench.name.clone(), c.tool.name().to_string());
                assert!(pins.contains_key(&key), "{key:?} has no pin");
            }
        }
    }

    #[test]
    fn workload_sizes() {
        assert_eq!(benchmarks_of("paper_quick").unwrap().len(), 109);
        let search = benchmarks_of("paper_search").unwrap();
        assert!(search.iter().all(|b| b.name.contains("_search_")));
        assert!(benchmarks_of("other").is_none());
    }
}
