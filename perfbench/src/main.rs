//! `perfbench` — run one workload and print its result line, or run every
//! workload and then the `gen_race` diagnostic (`--workload all`), each in
//! a fresh process.
//!
//! ```text
//! perfbench --workload <paper_quick|paper_search|serve_corpus|gen_race|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! perfbench pin        # print the paper verdict pin table
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; notes go to standard
//! error. The exit code is 0 only when every output check passed.

use perfbench::{catalogue, gen_race, paper, serve, Outcome, RunConfig, DIAGNOSTICS, WORKLOADS};
use runner::Json;
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: perfbench --workload <paper_quick|paper_search|serve_corpus|gen_race|all> \
                     [--seed N] [--seconds S] [--trace 0|1]\n       perfbench pin";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("pin") => {
            print!("{}", paper::pin_table());
            ExitCode::SUCCESS
        }
        Some("worker") => match parse(&args[1..]) {
            Ok(opts) => {
                gen_race::worker(opts.config.seed, opts.from, opts.config.trace);
                ExitCode::SUCCESS
            }
            Err(e) => usage(&e),
        },
        _ => match parse(&args) {
            Ok(opts) if opts.workload == "all" => run_all(&opts.config),
            Ok(opts) => run_one(&opts.workload, &opts.config),
            Err(e) => usage(&e),
        },
    }
}

fn usage(error: &str) -> ExitCode {
    eprintln!("perfbench: {error}\n{USAGE}");
    ExitCode::from(2)
}

struct Opts {
    workload: String,
    config: RunConfig,
    from: u64,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        config: RunConfig {
            seed: 1,
            seconds: 10.0,
            trace: false,
        },
        from: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.config.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.config.seconds = value.parse().map_err(|_| bad())?,
            "--from" => opts.from = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn run_one(workload: &str, config: &RunConfig) -> ExitCode {
    let outcome: Outcome = match workload {
        "paper_quick" | "paper_search" => paper::run(workload, config),
        "gen_race" => gen_race::run(config),
        "serve_corpus" => serve::run(config),
        other => return usage(&format!("unknown workload `{other}`")),
    };
    for note in &outcome.notes {
        eprintln!("{workload}: {note}");
    }
    println!(
        "{}",
        outcome.to_json_line(&catalogue(workload, config.trace))
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload and then every diagnostic, untraced and traced, each
/// in a fresh process, and prints every metric by name with its unit, plus
/// the tracing overhead.
fn run_all(config: &RunConfig) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage(&format!("current_exe: {e}")),
    };
    let mut all_correct = true;
    for workload in WORKLOADS.iter().chain(DIAGNOSTICS) {
        let mut results = Vec::new();
        for trace in ["0", "1"] {
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &config.seed.to_string()])
                .args(["--seconds", &config.seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output();
            let parsed = output.ok().and_then(|o| {
                let text = String::from_utf8_lossy(&o.stdout).into_owned();
                Json::parse(text.lines().last()?).ok()
            });
            let correct = parsed
                .as_ref()
                .and_then(|j| j.get("correct")?.as_bool())
                .unwrap_or(false);
            all_correct &= correct;
            results.push(parsed);
        }
        println!("== {workload}");
        let value = |result: &Option<Json>, name: &str| {
            result
                .as_ref()?
                .get("metrics")?
                .get(name)?
                .get("value")?
                .as_f64()
        };
        for (trace, metrics) in [
            (0, catalogue(workload, false)),
            (1, catalogue(workload, true)),
        ] {
            let result = &results[trace];
            let counts = result.as_ref().map(|j| {
                let n = |k: &str| j.get(k).and_then(Json::as_u64).unwrap_or(0);
                (
                    j.get("correct").and_then(Json::as_bool).unwrap_or(false),
                    n("attempted"),
                    n("failed"),
                )
            });
            println!(
                "   {} run: correct/attempted/failed = {counts:?}",
                if trace == 0 { "untraced" } else { "traced" }
            );
            for (name, unit) in metrics {
                match value(result, name) {
                    Some(v) if trace == 0 || v != 0.0 => println!("   {name:<34} {v:>14.4} {unit}"),
                    Some(_) => {}
                    None => println!("   {name:<34} {:>14} {unit}", "missing"),
                }
            }
        }
        // Traced total vs the untraced figure it replays.
        let untraced_ms = if workload.starts_with("paper") {
            value(&results[0], "wall_s").map(|s| s * 1000.0)
        } else {
            value(&results[0], "latency_p50_ms")
        };
        if let (Some(traced), Some(untraced)) = (value(&results[1], "trace.total_ms"), untraced_ms)
        {
            println!(
                "   tracing overhead: {:+.4} ms ({:+.2}%) on {}",
                traced - untraced,
                (traced - untraced) / untraced * 100.0,
                if workload.starts_with("paper") {
                    "wall_s"
                } else {
                    "latency_p50_ms"
                }
            );
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an output check failed");
        ExitCode::FAILURE
    }
}
