//! Cancellation-latency tests: a token tripped *mid-run* is observed
//! within one loop iteration by both engines, so the portfolio's loser
//! aborts promptly instead of running to completion.

use logic::{LinearExpr, Var};
use nay::Nay;
use portfolio::{solve_nay, solve_nope, Cancel, NopeEngine, SolveVerdict};
use std::time::{Duration, Instant};
use sygus::{GrammarBuilder, Problem, Sort, Spec, Symbol};

fn var(name: &str) -> LinearExpr {
    LinearExpr::var(Var::new(name))
}

/// `if_search_4` from the LimitedIf family: nay's CEGIS loop runs for
/// minutes on it, while each inner check takes under a second even in a
/// debug build, so a cancel is seen long before the run could end.
fn slow_for_nay() -> Problem {
    benchmarks::limited_if()
        .into_iter()
        .find(|b| b.name == "if_search_4")
        .expect("if_search_4 is a LimitedIf benchmark")
        .problem
}

/// `Start ::= x | 1 | Start + Start` with `f(x) = x + 2`: realizable on
/// every example set, so the nope example-growing loop keeps iterating
/// until its round budget — a controllable long-runner.
fn slow_for_nope() -> Problem {
    let grammar = GrammarBuilder::new("Start")
        .nonterminal("Start", Sort::Int)
        .production("Start", Symbol::Var("x".to_string()), &[])
        .production("Start", Symbol::Num(1), &[])
        .production("Start", Symbol::Plus, &["Start", "Start"])
        .build()
        .unwrap();
    let spec = Spec::output_equals(var("x") + LinearExpr::constant(2), vec!["x".to_string()]);
    Problem::new("xplus2", grammar, spec)
}

/// Trips the token after `delay` on a helper thread.
fn cancel_after(cancel: &Cancel, delay: Duration) -> std::thread::JoinHandle<()> {
    let remote = cancel.clone();
    std::thread::spawn(move || {
        std::thread::sleep(delay);
        remote.cancel();
    })
}

#[test]
fn nay_observes_a_mid_run_cancel() {
    let cancel = Cancel::new();
    let trip = cancel_after(&cancel, Duration::from_millis(2));
    let started = Instant::now();
    let outcome = solve_nay(&slow_for_nay(), &cancel, &Nay::new());
    let elapsed = started.elapsed();
    trip.join().unwrap();
    assert_eq!(outcome.verdict, SolveVerdict::Cancelled);
    // "promptly" means within one loop iteration, not a full run; one inner
    // CEGIS round on this problem is far below this generous ceiling.
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");
}

#[test]
fn nope_observes_a_mid_run_cancel() {
    let cancel = Cancel::new();
    // 10k example-growing rounds would take far longer than the whole test
    // suite; only a prompt cancellation can end this run.
    let engine = NopeEngine::new().with_max_rounds(10_000);
    let trip = cancel_after(&cancel, Duration::from_millis(2));
    let started = Instant::now();
    let outcome = solve_nope(&slow_for_nope(), &cancel, &engine);
    let elapsed = started.elapsed();
    trip.join().unwrap();
    assert_eq!(outcome.verdict, SolveVerdict::Cancelled);
    assert!(elapsed < Duration::from_secs(30), "took {elapsed:?}");
}
