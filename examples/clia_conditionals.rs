//! The CLIA worked example of Section 2: grammars with `IfThenElse`,
//! mutually-recursive Boolean and integer nonterminals, and the
//! SolveBool / SolveMutual / RemIf machinery of §6.
//!
//! The example also illustrates an interesting point uncovered by the exact
//! reproduction: with the two examples `x = 1, x = 2` used in the paper's
//! narrative, grammar G₂ *does* contain a consistent term
//! (`ite(0 < ite(x < 2, 0, 3x), 3x, 4x)`), so the exact procedure correctly
//! reports "realizable" and the CEGIS loop must produce a further example
//! (such as `x = 0`) before unrealizability of the full problem is proved.
//!
//! Run with `cargo run --example clia_conditionals`.

use logic::{LinearExpr, Var};
use nay::check::{check_unrealizable, Verdict};
use nay::clia;
use nay::Mode;
use semilinear::IntVec;
use sygus::{ExampleSet, GrammarBuilder, Problem, Sort, Spec, Symbol};

fn grammar_g2() -> sygus::Grammar {
    GrammarBuilder::new("Start")
        .nonterminal("Start", Sort::Int)
        .nonterminal("BExp", Sort::Bool)
        .nonterminal("Exp2", Sort::Int)
        .nonterminal("Exp3", Sort::Int)
        .nonterminal("X", Sort::Int)
        .nonterminal("N0", Sort::Int)
        .nonterminal("N2", Sort::Int)
        .production("Start", Symbol::IfThenElse, &["BExp", "Exp3", "Start"])
        .chain("Start", "Exp2")
        .chain("Start", "Exp3")
        .production("BExp", Symbol::LessThan, &["X", "N2"])
        .production("BExp", Symbol::LessThan, &["N0", "Start"])
        .production("BExp", Symbol::And, &["BExp", "BExp"])
        .production("Exp2", Symbol::Plus, &["X", "X", "Exp2"])
        .production("Exp2", Symbol::Num(0), &[])
        .production("Exp3", Symbol::Plus, &["X", "X", "X", "Exp3"])
        .production("Exp3", Symbol::Num(0), &[])
        .production("X", Symbol::Var("x".to_string()), &[])
        .production("N0", Symbol::Num(0), &[])
        .production("N2", Symbol::Num(2), &[])
        .build()
        .expect("G2 is well-formed")
}

fn main() {
    let spec = Spec::output_equals(
        LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
        vec!["x".to_string()],
    );
    let problem = Problem::new("section2-clia", grammar_g2(), spec);

    // The exact CLIA analysis on E = ⟨1, 2⟩ (the paper's Eqns. (6)-(11)).
    let examples = ExampleSet::for_single_var("x", [1, 2]);
    let (analysis, exactness) =
        clia::analyze(problem.grammar(), &examples, true, true).expect("CLIA grammar");
    assert_eq!(exactness, clia::Exactness::Exact);
    println!(
        "abstractions on E = ⟨1, 2⟩ (SolveMutual, {} outer iterations):",
        analysis.outer_iterations
    );
    for (nt, value) in &analysis.int_values {
        println!("  n({nt}) = {value}");
    }
    for (nt, value) in &analysis.bool_values {
        println!("  n({nt}) = {value}");
    }
    // Exp2 and Exp3 match §2: multiples of (2,4) and (3,6).
    assert!(
        analysis.int_values[&sygus::NonTerminal::new("Exp2")].contains(&IntVec::from(vec![2, 4]))
    );
    assert!(
        analysis.int_values[&sygus::NonTerminal::new("Exp3")].contains(&IntVec::from(vec![3, 6]))
    );

    let two = check_unrealizable(&problem, &examples, &Mode::default());
    println!("verdict on ⟨1, 2⟩: {:?}", two.verdict);
    assert_eq!(two.verdict, Verdict::Realizable);

    // Adding the example x = 0 (every term of G2 outputs 0 there, but the
    // spec demands 2) makes the problem provably unrealizable.
    let richer = ExampleSet::for_single_var("x", [1, 2, 0]);
    let three = check_unrealizable(&problem, &richer, &Mode::default());
    println!("verdict on ⟨1, 2, 0⟩: {:?}", three.verdict);
    assert_eq!(three.verdict, Verdict::Unrealizable);
    println!("the CLIA problem of §2 is unrealizable ✔");
}
