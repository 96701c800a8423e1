//! Soundness of the one abstract interpreter. `chc`'s Kleene fixpoint backs
//! nayHorn, nope's abstract lane and the presolve's refutation lane, so one
//! property covers all three: whenever [`HornSolver::analyze`] converges,
//! every term a nonterminal derives, evaluated on the examples, lies in that
//! nonterminal's abstraction, component by component (Booleans as 0/1).
//!
//! Terms are seeded random derivations from every `gen` family's grammars
//! and from the paper benchmarks; the analysis runs at chc's default
//! widening delay (nayHorn, nope) and at the presolve's.

use chc::domain::{AbsBool, AbsValue};
use chc::HornSolver;
use gen::{build, Family, GenRng, Scale};
use std::collections::BTreeMap;
use sygus::{Example, ExampleSet, Grammar, NonTerminal, Output, Term};

/// The widening delays the three clients use: chc's default and the
/// presolve's.
const WIDENING_DELAYS: [usize; 2] = [3, 8];
/// Random derivations per nonterminal and example set.
const TERMS_PER_NONTERMINAL: usize = 12;
/// Height bound of a random derivation.
const MAX_HEIGHT: usize = 6;

/// The least derivation height of every productive nonterminal.
fn min_heights(grammar: &Grammar) -> BTreeMap<NonTerminal, usize> {
    let mut heights: BTreeMap<NonTerminal, usize> = BTreeMap::new();
    loop {
        let mut changed = false;
        for p in grammar.productions() {
            let Some(h) = p
                .args
                .iter()
                .map(|a| heights.get(a).copied())
                .try_fold(0, |acc, h| h.map(|h| acc.max(h)))
            else {
                continue;
            };
            if heights.get(&p.lhs).is_none_or(|&old| h + 1 < old) {
                heights.insert(p.lhs.clone(), h + 1);
                changed = true;
            }
        }
        if !changed {
            return heights;
        }
    }
}

/// A random term derived from `nt` of height at most `budget` (which must
/// be at least the nonterminal's least height).
fn derive(
    grammar: &Grammar,
    heights: &BTreeMap<NonTerminal, usize>,
    nt: &NonTerminal,
    budget: usize,
    rng: &mut GenRng,
) -> Term {
    let fits: Vec<_> = grammar
        .productions_of(nt)
        .filter(|p| {
            p.args
                .iter()
                .all(|a| heights.get(a).is_some_and(|&h| h < budget))
        })
        .collect();
    let p = *rng.choose(&fits);
    let children = p
        .args
        .iter()
        .map(|a| derive(grammar, heights, a, budget - 1, rng))
        .collect();
    Term::apply(p.symbol.clone(), children).expect("grammar productions are well-sorted")
}

fn contains(value: &AbsValue, output: &Output) -> bool {
    match value {
        AbsValue::Bottom => false,
        AbsValue::Int(components) => components
            .iter()
            .enumerate()
            .all(|(j, a)| a.contains(output.as_i64(j))),
        AbsValue::Bool(components) => components
            .iter()
            .enumerate()
            .all(|(j, b)| *b == AbsBool::Top || *b == AbsBool::of(output.as_i64(j) == 1)),
    }
}

/// Checks the property on one grammar and example set; returns how many
/// terms were checked (0 when no analysis converged).
fn check(grammar: &Grammar, examples: &ExampleSet, rng: &mut GenRng, label: &str) -> usize {
    let heights = min_heights(grammar);
    let mut checked = 0;
    for delay in WIDENING_DELAYS {
        let fixpoint = HornSolver::new()
            .with_widening_delay(delay)
            .analyze(grammar, examples);
        if !fixpoint.converged {
            continue;
        }
        for (nt, &least) in &heights {
            for _ in 0..TERMS_PER_NONTERMINAL {
                let term = derive(grammar, &heights, nt, least.max(MAX_HEIGHT), rng);
                let output = term.eval_on(examples).expect("examples bind every input");
                let value = &fixpoint.values[nt];
                assert!(
                    contains(value, &output),
                    "{label}: {term} derived from {nt} evaluates to {output:?} on {examples}, \
                     outside its abstraction {value} (widening delay {delay})"
                );
                checked += 1;
            }
        }
    }
    checked
}

#[test]
fn derived_terms_lie_in_their_abstraction_on_generated_grammars() {
    let mut checked = 0;
    for family in Family::ALL {
        for seed in 0..12u64 {
            let mut rng = GenRng::from_seed(seed);
            let built = build(family, &mut rng, &Scale::default());
            let grammar = built.problem.grammar();
            let inputs = grammar.variables();
            let examples = ExampleSet::from_examples((0..1 + seed % 3).map(|_| {
                Example::from_pairs(inputs.iter().map(|x| (x.clone(), rng.range_i64(-20, 20))))
            }));
            let label = format!("{} seed {seed}", family.name());
            checked += check(grammar, &examples, &mut rng, &label);
        }
    }
    assert!(checked > 1000, "only {checked} terms checked");
}

#[test]
fn derived_terms_lie_in_their_abstraction_on_the_paper_benchmarks() {
    let mut rng = GenRng::from_seed(7);
    let mut checked = 0;
    for bench in benchmarks::all() {
        checked += check(
            bench.problem.grammar(),
            &bench.witness_examples,
            &mut rng,
            &bench.name,
        );
    }
    assert!(checked > 1000, "only {checked} terms checked");
}
