//! **nope** — the baseline unrealizability prover the paper compares against
//! (Hu et al., CAV 2019).
//!
//! nope reduces unrealizability of a SyGuS problem over examples to
//! *unreachability* in a non-deterministic recursive program: every
//! nonterminal becomes a procedure, every production a non-deterministic
//! branch, and an assertion at the end of `main` fails exactly when the
//! chosen term satisfies the specification on all examples. The original
//! tool hands this program to SeaHorn; this reproduction searches it with a
//! bounded concrete exploration and proves it safe with the `chc` crate's
//! abstract interpretation over the interval × congruence domain (README's
//! "Solver substitutions" explains both replacements).
//!
//! Compared with the grammar-flow-analysis approach of the `nay` crate, the
//! reduction is indirect: it produces a program whose analysis rediscovers
//! the information that nay's equations express directly, which is the
//! source of the slowdown reported in §8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod program;
pub mod verify;

pub use program::{Procedure, ProgExpr, Program};
pub use verify::{NopeVerdict, ProgramVerifier, SearchOutcome};

use chc::HornSolver;
use runner::Cancel;
use std::time::{Duration, Instant};
use sygus::{ExampleSet, Problem};

/// Statistics of a nope run, mirroring what the benchmark harness reports.
#[derive(Clone, Debug, Default)]
pub struct NopeStats {
    /// Number of procedures in the generated program.
    pub num_procedures: usize,
    /// Number of non-deterministic branches.
    pub num_branches: usize,
    /// Number of call sites (encoding size).
    pub num_call_sites: usize,
    /// Fixed-point iterations performed by `chc`'s abstract interpreter
    /// (0 when the bounded search already decided the verdict).
    pub abstract_iterations: usize,
    /// Peak size of the bounded search's term arena (distinct terms
    /// interned while exploring reachable vectors).
    pub arena_terms: usize,
    /// Wall-clock time of the check.
    pub elapsed: Duration,
}

/// The nope solver: build the program, then verify reachability.
#[derive(Clone, Debug, Default)]
pub struct NopeSolver {
    verifier: ProgramVerifier,
}

impl NopeSolver {
    /// Creates a solver with default verification budgets.
    pub fn new() -> Self {
        NopeSolver::default()
    }

    /// Overrides the program verifier configuration.
    pub fn with_verifier(mut self, verifier: ProgramVerifier) -> Self {
        self.verifier = verifier;
        self
    }

    /// Checks unrealizability of `problem` restricted to `examples`.
    pub fn check(&self, problem: &Problem, examples: &ExampleSet) -> (NopeVerdict, NopeStats) {
        self.check_cancellable(problem, examples, &Cancel::never())
    }

    /// [`NopeSolver::check`] with cooperative cancellation: the token is
    /// threaded into the bounded search and the abstract-interpreter
    /// fixpoint, which poll it once per loop iteration; a trip yields
    /// [`NopeVerdict::Cancelled`].
    pub fn check_cancellable(
        &self,
        problem: &Problem,
        examples: &ExampleSet,
        cancel: &Cancel,
    ) -> (NopeVerdict, NopeStats) {
        let started = Instant::now();
        let program = Program::from_grammar(problem.grammar(), examples);
        let mut stats = NopeStats {
            num_procedures: program.procedures.len(),
            num_branches: program.num_branches(),
            num_call_sites: program.num_call_sites(),
            ..NopeStats::default()
        };
        let verdict = if examples.is_empty() {
            NopeVerdict::Unknown
        } else {
            self.verify(problem, &program, examples, cancel, &mut stats)
        };
        stats.elapsed = started.elapsed();
        (verdict, stats)
    }

    /// The bounded search asks whether the bad location is reachable; if
    /// it finds no good run, `chc`'s abstract interpretation of the
    /// grammar asks whether it is provably unreachable.
    fn verify(
        &self,
        problem: &Problem,
        program: &Program,
        examples: &ExampleSet,
        cancel: &Cancel,
        stats: &mut NopeStats,
    ) -> NopeVerdict {
        let search = self
            .verifier
            .bounded_search(program, examples, problem.spec(), cancel);
        stats.arena_terms = search.arena_terms;
        if let Some((vector, _)) = search.witness {
            return NopeVerdict::RealizableOnExamples(vector);
        }
        if search.cancelled {
            return NopeVerdict::Cancelled;
        }
        let horn = HornSolver::new().with_cancel(cancel);
        let fixpoint = horn.analyze(problem.grammar(), examples);
        stats.abstract_iterations = fixpoint.iterations;
        if horn.refutes(&fixpoint, examples, problem.spec()) {
            NopeVerdict::Unrealizable
        } else if cancel.is_cancelled() {
            NopeVerdict::Cancelled
        } else {
            NopeVerdict::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logic::{LinearExpr, Var};
    use sygus::{GrammarBuilder, Sort, Spec, Symbol};

    #[test]
    fn end_to_end_unrealizability() {
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("S1", Sort::Int)
            .nonterminal("S2", Sort::Int)
            .nonterminal("S3", Sort::Int)
            .production("Start", Symbol::Plus, &["S1", "Start"])
            .production("Start", Symbol::Num(0), &[])
            .production("S1", Symbol::Plus, &["S2", "S3"])
            .production("S2", Symbol::Plus, &["S3", "S3"])
            .production("S3", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap();
        let spec = Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        );
        let problem = Problem::new("g1", grammar, spec);
        let examples = ExampleSet::for_single_var("x", [1]);
        let (verdict, stats) = NopeSolver::new().check(&problem, &examples);
        assert_eq!(verdict, NopeVerdict::Unrealizable);
        assert_eq!(stats.num_procedures, 4);
        assert_eq!(stats.num_branches, 5);
        assert!(stats.num_call_sites > 0);
    }
}
