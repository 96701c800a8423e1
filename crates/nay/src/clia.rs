//! The exact decision procedure for CLIA SyGuS problems with examples (§6).
//!
//! CLIA grammars mix integer and Boolean nonterminals, connected by
//! `LessThan` (integers → Booleans) and `IfThenElse` (Booleans → integers).
//! The procedure [`analyze`] alternates two steps until the Boolean
//! abstractions stop changing (algorithm *SolveMutual*, §6.4):
//!
//! 1. **SolveBool** (§6.3): with the integer abstractions fixed, the Boolean
//!    equations are solved by finite fixed-point iteration over sets of
//!    Boolean vectors. `⟦LessThan⟧♯` (§6.2) is computed once per call: the
//!    masks produced by pairs of concrete members are taken as they are, and
//!    only the remaining masks cost a satisfiability query on the symbolic
//!    concretizations.
//! 2. **SolveInt**: with the Boolean abstractions fixed, the integer
//!    equations — which may contain `IfThenElse` — are rewritten by *RemIf*
//!    (§6.4, Fig. 1) into pure `⊕`/`⊗` equations over variables `X^b`
//!    (one copy of each integer nonterminal per Boolean mask `b`), and solved
//!    exactly with Newton's method. The value of `X` is the value of
//!    `X^{(t,…,t)}`.
//!
//! The combined abstraction is exact (Lemma 6.2), which is what makes the
//! final satisfiability check a decision procedure (Thm. 6.9). The one
//! exception is a `⟦LessThan⟧♯` query the solver cannot decide: its mask is
//! kept, and the analysis reports [`Exactness::OverApproximate`].

use gfa::{EquationSystem, Monomial, SemiLinearSemiring, Semiring};
use logic::{Formula, LinearExpr, Solver, SolverResult, Var};
use semilinear::{concretize_semilinear_prefixed, BoolVec, BoolVecSet, IntVec, SemiLinearSet};
use std::collections::BTreeMap;
use sygus::{ExampleSet, Grammar, NonTerminal, Sort, SygusError, Symbol};

/// The result of the CLIA analysis.
#[derive(Clone, Debug)]
pub struct CliaAnalysis {
    /// Abstraction of every integer nonterminal (exact unless [`analyze`]
    /// reports [`Exactness::OverApproximate`]).
    pub int_values: BTreeMap<NonTerminal, SemiLinearSet>,
    /// Abstraction of every Boolean nonterminal (exact unless [`analyze`]
    /// reports [`Exactness::OverApproximate`]).
    pub bool_values: BTreeMap<NonTerminal, BoolVecSet>,
    /// Number of outer SolveMutual iterations.
    pub outer_iterations: usize,
    /// Number of inner SolveBool fixed-point iterations (total).
    pub bool_iterations: usize,
}

impl CliaAnalysis {
    /// The abstraction of the start symbol, as either a semi-linear set or a
    /// Boolean-vector set depending on its sort.
    pub fn start_size(&self, grammar: &Grammar) -> usize {
        match grammar.sort_of(grammar.start()) {
            Some(Sort::Int) => self
                .int_values
                .get(grammar.start())
                .map(|v| v.size())
                .unwrap_or(0),
            Some(Sort::Bool) => self
                .bool_values
                .get(grammar.start())
                .map(|v| v.len())
                .unwrap_or(0),
            None => 0,
        }
    }
}

/// Whether an abstraction is exact (Lemma 6.2) or a superset of the exact
/// one. It is a superset when the solver could not decide some
/// `⟦LessThan⟧♯` / `⟦Equal⟧♯` query and its mask was kept. An
/// unsatisfiable final query on a superset still proves unrealizability; a
/// satisfiable one proves nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exactness {
    /// Every query was decided.
    Exact,
    /// Some undecided mask was kept.
    OverApproximate,
}

impl Exactness {
    /// `OverApproximate` if either side is.
    fn and(self, other: Exactness) -> Exactness {
        if self == Exactness::Exact {
            other
        } else {
            self
        }
    }
}

/// `⟦LessThan⟧♯(sl₁, sl₂)` (§6.2): the set of Boolean vectors `b` such that
/// some pair of members `v₁ ∈ sl₁, v₂ ∈ sl₂` satisfies `b = v₁ < v₂`
/// component-wise. A mask produced by concrete members (bases and base +
/// one generator) is taken directly; each remaining mask costs one QF-LIA
/// query. A mask whose query the solver cannot decide (budget exceeded, or
/// a value outside `i64`) is kept.
pub fn abstract_less_than(sl1: &SemiLinearSet, sl2: &SemiLinearSet, dim: usize) -> BoolVecSet {
    abstract_comparison(sl1, sl2, dim, Comparison::LessThan, &Solver::default()).0
}

/// `⟦Equal⟧♯(sl₁, sl₂)`: analogous to [`abstract_less_than`] for equality.
pub fn abstract_equal(sl1: &SemiLinearSet, sl2: &SemiLinearSet, dim: usize) -> BoolVecSet {
    abstract_comparison(sl1, sl2, dim, Comparison::Equal, &Solver::default()).0
}

/// The component-wise relation of a `LessThan` / `Equal` production.
#[derive(Clone, Copy, Debug)]
enum Comparison {
    LessThan,
    Equal,
}

impl Comparison {
    fn holds(self, l: i64, r: i64) -> bool {
        match self {
            Comparison::LessThan => l < r,
            Comparison::Equal => l == r,
        }
    }

    /// The atom saying the relation holds (`holds`) or fails on `l`, `r`.
    fn atom(self, l: LinearExpr, r: LinearExpr, holds: bool) -> Formula {
        match (self, holds) {
            (Comparison::LessThan, true) => Formula::lt(l, r),
            (Comparison::LessThan, false) => Formula::ge(l, r),
            (Comparison::Equal, true) => Formula::eq(l, r),
            (Comparison::Equal, false) => Formula::ne(l, r),
        }
    }
}

/// Concrete members of `sl`: every base, and every base plus one of its
/// generators. A sum that overflows `i64` is skipped.
fn sample_members(sl: &SemiLinearSet) -> Vec<Vec<i64>> {
    let mut points = Vec::new();
    for ls in sl.linear_sets() {
        let base = ls.base().as_slice();
        points.push(base.to_vec());
        for g in ls.generators() {
            let sum: Option<Vec<i64>> = base
                .iter()
                .zip(g.as_slice())
                .map(|(b, d)| b.checked_add(*d))
                .collect();
            points.extend(sum);
        }
    }
    points
}

/// `⟦LessThan⟧♯` / `⟦Equal⟧♯` with the given solver. First every pair of
/// sampled members marks the mask it produces (bit `j` for component `j`),
/// stopping once all `2^dim` are seen; then each unseen mask is one query
/// on `γ̂(sl₁) ∧ γ̂(sl₂) ∧ b`.
fn abstract_comparison(
    sl1: &SemiLinearSet,
    sl2: &SemiLinearSet,
    dim: usize,
    cmp: Comparison,
    solver: &Solver,
) -> (BoolVecSet, Exactness) {
    if sl1.is_zero() || sl2.is_zero() {
        return (BoolVecSet::empty(), Exactness::Exact);
    }
    let all = 1usize << dim;
    let mut seen = vec![false; all];
    let mut unseen = all;
    let right = sample_members(sl2);
    'sample: for l in sample_members(sl1) {
        for r in &right {
            let bits: usize = (0..dim)
                .filter(|&j| cmp.holds(l[j], r[j]))
                .map(|j| 1 << j)
                .sum();
            if !seen[bits] {
                seen[bits] = true;
                unseen -= 1;
                if unseen == 0 {
                    break 'sample;
                }
            }
        }
    }

    if unseen == 0 {
        return (BoolVecSet::top(dim), Exactness::Exact);
    }

    let left_vars: Vec<Var> = (0..dim).map(|j| Var::new(format!("cmp_l_{j}"))).collect();
    let right_vars: Vec<Var> = (0..dim).map(|j| Var::new(format!("cmp_r_{j}"))).collect();
    let gamma = Formula::and(vec![
        concretize_semilinear_prefixed(sl1, &left_vars, "cmp_lam_l"),
        concretize_semilinear_prefixed(sl2, &right_vars, "cmp_lam_r"),
    ]);
    let mut exactness = Exactness::Exact;
    let mut out: Vec<BoolVec> = Vec::new();
    for (bits, seen) in seen.into_iter().enumerate() {
        let b = BoolVec::from((0..dim).map(|j| bits >> j & 1 == 1).collect::<Vec<_>>());
        if seen {
            out.push(b);
            continue;
        }
        let mut conjuncts = vec![gamma.clone()];
        for j in 0..dim {
            let l = LinearExpr::var(left_vars[j].clone());
            let r = LinearExpr::var(right_vars[j].clone());
            conjuncts.push(cmp.atom(l, r, b[j]));
        }
        match solver.check(&Formula::and(conjuncts)) {
            SolverResult::Sat(_) => out.push(b),
            SolverResult::Unsat => {}
            SolverResult::Unknown => {
                exactness = Exactness::OverApproximate;
                out.push(b);
            }
        }
    }
    (BoolVecSet::from_vecs(out), exactness)
}

/// Step 1 of SolveMutual: the least fixed point of the Boolean equations with
/// the integer abstractions held fixed (algorithm *SolveBool*, §6.3).
/// Returns the Boolean values and the number of iterations used. A
/// `⟦LessThan⟧♯` query the solver cannot decide keeps its mask, so the
/// values are then a superset of the exact ones; [`analyze`] reports when
/// that happened.
pub fn solve_bool(
    grammar: &Grammar,
    examples: &ExampleSet,
    int_values: &BTreeMap<NonTerminal, SemiLinearSet>,
) -> (BTreeMap<NonTerminal, BoolVecSet>, usize) {
    let (values, iterations, _) = solve_bool_with(grammar, examples, int_values);
    (values, iterations)
}

/// [`solve_bool`], also reporting whether every comparison was decided.
fn solve_bool_with(
    grammar: &Grammar,
    examples: &ExampleSet,
    int_values: &BTreeMap<NonTerminal, SemiLinearSet>,
) -> (BTreeMap<NonTerminal, BoolVecSet>, usize, Exactness) {
    let dim = examples.len();
    let bool_nts = grammar.bool_nonterminals();
    let solver = Solver::default();
    let mut exactness = Exactness::Exact;
    // The comparisons read only the integer abstractions, which stay fixed
    // here: each Boolean nonterminal's comparison masks are computed once.
    let mut comparisons: BTreeMap<NonTerminal, BoolVecSet> = BTreeMap::new();
    for nt in &bool_nts {
        let mut acc = BoolVecSet::empty();
        for p in grammar.productions_of(nt) {
            let cmp = match &p.symbol {
                Symbol::LessThan => Comparison::LessThan,
                Symbol::Equal => Comparison::Equal,
                _ => continue,
            };
            let (masks, e) = abstract_comparison(
                &int_values[&p.args[0]],
                &int_values[&p.args[1]],
                dim,
                cmp,
                &solver,
            );
            acc = acc.union(&masks);
            exactness = exactness.and(e);
        }
        comparisons.insert(nt.clone(), acc);
    }

    let mut values: BTreeMap<NonTerminal, BoolVecSet> = bool_nts
        .iter()
        .map(|nt| (nt.clone(), BoolVecSet::empty()))
        .collect();
    let max_iterations = bool_nts.len() * (1usize << dim) + 2;
    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        let mut changed = false;
        let mut next = values.clone();
        for nt in &bool_nts {
            let mut acc = comparisons[nt].clone();
            for p in grammar.productions_of(nt) {
                let contribution = match &p.symbol {
                    Symbol::LessThan | Symbol::Equal => continue,
                    Symbol::And => values[&p.args[0]].and(&values[&p.args[1]]),
                    Symbol::Or => values[&p.args[0]].or(&values[&p.args[1]]),
                    Symbol::Not => values[&p.args[0]].not(),
                    other => unreachable!("symbol {other} cannot produce a Boolean nonterminal"),
                };
                acc = acc.union(&contribution);
            }
            if acc != values[nt] {
                changed = true;
            }
            next.insert(nt.clone(), acc);
        }
        values = next;
        if !changed {
            break;
        }
    }
    (values, iterations, exactness)
}

/// Step 2 of SolveMutual: solve the integer equations with the Boolean
/// abstractions fixed, eliminating `IfThenElse` via the *RemIf* rewriting.
pub fn solve_int(
    grammar: &Grammar,
    examples: &ExampleSet,
    bool_values: &BTreeMap<NonTerminal, BoolVecSet>,
    stratified: bool,
    prune: bool,
) -> Result<BTreeMap<NonTerminal, SemiLinearSet>, SygusError> {
    let dim = examples.len();
    let int_nts = grammar.int_nonterminals();
    let nt_index: BTreeMap<NonTerminal, usize> = int_nts
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, nt)| (nt, i))
        .collect();
    let semiring = SemiLinearSemiring::new(dim).with_pruning(prune);

    // Masks: with IfThenElse we need one copy of every variable per Boolean
    // vector; without it a single (all-true) mask suffices.
    let masks: Vec<BoolVec> = if grammar.has_ite() {
        BoolVec::all(dim)
    } else {
        vec![BoolVec::trues(dim)]
    };
    let mask_index: BTreeMap<BoolVec, usize> = masks
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, m)| (m, i))
        .collect();
    let var_of = |nt: &NonTerminal, mask: &BoolVec| -> usize {
        nt_index[nt] * masks.len() + mask_index[mask]
    };

    let mut system: EquationSystem<SemiLinearSet> =
        EquationSystem::new(int_nts.len() * masks.len());

    for p in grammar.productions() {
        if grammar.sort_of(&p.lhs) != Some(Sort::Int) {
            continue;
        }
        for mask in &masks {
            let lhs = var_of(&p.lhs, mask);
            let project = |v: IntVec| -> SemiLinearSet {
                SemiLinearSet::singleton(v.project(mask.as_slice()))
            };
            match &p.symbol {
                Symbol::Plus => {
                    system.add_monomial(
                        lhs,
                        Monomial::new(
                            semiring.one(),
                            p.args.iter().map(|a| var_of(a, mask)).collect(),
                        ),
                    );
                }
                Symbol::Num(c) => {
                    system.add_monomial(lhs, Monomial::constant(project(IntVec::splat(*c, dim))));
                }
                Symbol::Var(x) => {
                    system.add_monomial(
                        lhs,
                        Monomial::constant(project(IntVec::from(examples.projection(x)?))),
                    );
                }
                Symbol::NegVar(x) => {
                    system.add_monomial(
                        lhs,
                        Monomial::constant(project(-IntVec::from(examples.projection(x)?))),
                    );
                }
                Symbol::IfThenElse => {
                    let guard = &p.args[0];
                    let (then_nt, else_nt) = (&p.args[1], &p.args[2]);
                    for b in bool_values
                        .get(guard)
                        .map(|s| s.iter().cloned().collect::<Vec<_>>())
                        .unwrap_or_default()
                    {
                        let then_mask = b.and(mask);
                        let else_mask = b.negate().and(mask);
                        system.add_monomial(
                            lhs,
                            Monomial::new(
                                semiring.one(),
                                vec![var_of(then_nt, &then_mask), var_of(else_nt, &else_mask)],
                            ),
                        );
                    }
                }
                Symbol::Minus => {
                    return Err(SygusError::GrammarError(
                        "the grammar contains Minus; apply the h(G) rewriting first".to_string(),
                    ))
                }
                other => {
                    return Err(SygusError::GrammarError(format!(
                        "unexpected symbol {other} in an integer production"
                    )))
                }
            }
        }
    }

    let solution = if stratified {
        gfa::strata::solve_stratified(&semiring, &system)
    } else {
        gfa::newton::solve(&semiring, &system)
    };

    let all_true = BoolVec::trues(dim);
    Ok(int_nts
        .iter()
        .map(|nt| (nt.clone(), solution.values[var_of(nt, &all_true)].clone()))
        .collect())
}

/// The full SolveMutual procedure (§6.4): alternate [`solve_bool`] and
/// [`solve_int`] until the Boolean abstractions reach their (finite) fixed
/// point. Also reports whether every `⟦LessThan⟧♯` / `⟦Equal⟧♯` query was
/// decided, i.e. whether the abstractions are exact.
///
/// # Errors
/// Returns an error for grammars containing `Minus` (rewrite first) or
/// examples not binding a grammar variable.
pub fn analyze(
    grammar: &Grammar,
    examples: &ExampleSet,
    stratified: bool,
    prune: bool,
) -> Result<(CliaAnalysis, Exactness), SygusError> {
    let dim = examples.len();
    let mut int_values: BTreeMap<NonTerminal, SemiLinearSet> = grammar
        .int_nonterminals()
        .into_iter()
        .map(|nt| (nt, SemiLinearSet::zero()))
        .collect();
    let mut prev_bools: Option<BTreeMap<NonTerminal, BoolVecSet>> = None;
    let mut outer_iterations = 0;
    let mut bool_iterations = 0;
    let mut exactness = Exactness::Exact;
    let max_outer = grammar.num_nonterminals() * (1usize << dim) + 2;

    loop {
        let (bools, iters, e) = solve_bool_with(grammar, examples, &int_values);
        bool_iterations += iters;
        exactness = exactness.and(e);
        if prev_bools.as_ref() == Some(&bools) {
            let analysis = CliaAnalysis {
                int_values,
                bool_values: bools,
                outer_iterations,
                bool_iterations,
            };
            return Ok((analysis, exactness));
        }
        int_values = solve_int(grammar, examples, &bools, stratified, prune)?;
        prev_bools = Some(bools);
        outer_iterations += 1;
        if outer_iterations >= max_outer {
            // Termination is guaranteed by Lemma 6.6; this is a safety net.
            let analysis = CliaAnalysis {
                int_values,
                bool_values: prev_bools.unwrap_or_default(),
                outer_iterations,
                bool_iterations,
            };
            return Ok((analysis, exactness));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semilinear::LinearSet;
    use sygus::GrammarBuilder;

    fn v(components: &[i64]) -> IntVec {
        IntVec::from(components.to_vec())
    }

    /// The CLIA grammar G2 of §2 (Eqn. (5)), in production normal form.
    fn g2() -> Grammar {
        GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("BExp", Sort::Bool)
            .nonterminal("Exp2", Sort::Int)
            .nonterminal("Exp3", Sort::Int)
            .nonterminal("X", Sort::Int)
            .nonterminal("N0", Sort::Int)
            .nonterminal("N2", Sort::Int)
            // Start ::= IfThenElse(BExp, Exp3, Start) | Exp2 | Exp3
            .production("Start", Symbol::IfThenElse, &["BExp", "Exp3", "Start"])
            .chain("Start", "Exp2")
            .chain("Start", "Exp3")
            // BExp ::= LessThan(X, N2) | LessThan(N0, Start) | And(BExp, BExp)
            .production("BExp", Symbol::LessThan, &["X", "N2"])
            .production("BExp", Symbol::LessThan, &["N0", "Start"])
            .production("BExp", Symbol::And, &["BExp", "BExp"])
            // Exp2 ::= Plus(X, X, Exp2) | Num(0)
            .production("Exp2", Symbol::Plus, &["X", "X", "Exp2"])
            .production("Exp2", Symbol::Num(0), &[])
            // Exp3 ::= Plus(X, X, X, Exp3) | Num(0)
            .production("Exp3", Symbol::Plus, &["X", "X", "X", "Exp3"])
            .production("Exp3", Symbol::Num(0), &[])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("N0", Symbol::Num(0), &[])
            .production("N2", Symbol::Num(2), &[])
            .build()
            .unwrap()
    }

    #[test]
    fn abstract_less_than_matches_example_6_1() {
        // sl1 = {⟨(1,2),{(3,4)}⟩}, sl2 = {⟨(5,6),{(7,8)}⟩}
        let sl1 = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[1, 2]), vec![v(&[3, 4])])]);
        let sl2 = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[5, 6]), vec![v(&[7, 8])])]);
        let result = abstract_less_than(&sl1, &sl2, 2);
        let expected = BoolVecSet::from_vecs([
            BoolVec::from(vec![true, true]),
            BoolVec::from(vec![true, false]),
            BoolVec::from(vec![false, false]),
        ]);
        assert_eq!(result, expected);
        // equality on overlapping singletons
        let a = SemiLinearSet::singleton(v(&[1, 2]));
        let b = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[1, 0]), vec![v(&[0, 1])])]);
        let eq = abstract_equal(&a, &b, 2);
        assert!(eq.contains(&BoolVec::from(vec![true, true])));
        assert!(eq.contains(&BoolVec::from(vec![true, false])));
        assert!(!eq.contains(&BoolVec::from(vec![false, true])));
        assert!(!eq.contains(&BoolVec::from(vec![false, false])));
    }

    /// The ILP-only `⟦LessThan⟧♯` / `⟦Equal⟧♯` that concrete sampling
    /// replaced: one query per mask, every mask in `BoolVec::all` order.
    /// It kept exactly the `Sat` masks.
    fn reference_comparison(
        sl1: &SemiLinearSet,
        sl2: &SemiLinearSet,
        dim: usize,
        cmp: Comparison,
        solver: &Solver,
    ) -> Vec<(BoolVec, SolverResult)> {
        if sl1.is_zero() || sl2.is_zero() {
            return BoolVec::all(dim)
                .into_iter()
                .map(|b| (b, SolverResult::Unsat))
                .collect();
        }
        let left_vars: Vec<Var> = (0..dim).map(|j| Var::new(format!("cmp_l_{j}"))).collect();
        let right_vars: Vec<Var> = (0..dim).map(|j| Var::new(format!("cmp_r_{j}"))).collect();
        let gamma = Formula::and(vec![
            concretize_semilinear_prefixed(sl1, &left_vars, "cmp_lam_l"),
            concretize_semilinear_prefixed(sl2, &right_vars, "cmp_lam_r"),
        ]);
        let mut out = Vec::new();
        for b in BoolVec::all(dim) {
            let mut conjuncts = vec![gamma.clone()];
            for j in 0..dim {
                let l = LinearExpr::var(left_vars[j].clone());
                let r = LinearExpr::var(right_vars[j].clone());
                conjuncts.push(cmp.atom(l, r, b[j]));
            }
            out.push((b, solver.check(&Formula::and(conjuncts))));
        }
        out
    }

    /// Asserts that both comparisons of `sl1`, `sl2` agree with
    /// [`reference_comparison`] on the same solver: a mask is in the result
    /// iff its reference query is not `Unsat`, and the result is exact when
    /// every reference query was decided. Returns the number of masks the
    /// reference left undecided.
    fn assert_matches_reference(
        sl1: &SemiLinearSet,
        sl2: &SemiLinearSet,
        dim: usize,
        solver: &Solver,
    ) -> usize {
        let mut undecided = 0;
        for cmp in [Comparison::LessThan, Comparison::Equal] {
            let reference = reference_comparison(sl1, sl2, dim, cmp, solver);
            let (got, exactness) = abstract_comparison(sl1, sl2, dim, cmp, solver);
            for (b, result) in &reference {
                assert_eq!(
                    got.contains(b),
                    !result.is_unsat(),
                    "{sl1} {cmp:?} {sl2}: mask {b}, reference {result:?}"
                );
            }
            let unknown = reference
                .iter()
                .filter(|(_, r)| *r == SolverResult::Unknown)
                .count();
            if unknown == 0 {
                assert_eq!(exactness, Exactness::Exact, "{sl1} {cmp:?} {sl2}");
            }
            undecided += unknown;
        }
        undecided
    }

    /// A random semi-linear set of dimension `dim`: zero to three linear
    /// sets, each with zero to two generators whose components may be
    /// negative or zero.
    fn random_semilinear(rng: &mut rand::rngs::StdRng, dim: usize) -> SemiLinearSet {
        use rand::Rng;
        let component = |rng: &mut rand::rngs::StdRng, bound: i64| -> IntVec {
            (0..dim).map(|_| rng.gen_range(-bound..=bound)).collect()
        };
        let parts = rng.gen_range(0..=3usize);
        SemiLinearSet::from_linear_sets((0..parts).map(|_| {
            let base = component(rng, 6);
            let generators = (0..rng.gen_range(0..=2usize))
                .map(|_| component(rng, 3))
                .collect();
            LinearSet::new(base, generators)
        }))
    }

    #[test]
    fn sampled_comparisons_match_the_ilp_reference() {
        use rand::{Rng, SeedableRng};
        // Branch-and-bound can chase an unbounded relaxation through its
        // whole node budget, and each node re-solves a tableau that grows by
        // one bound per level: at 200 nodes a few of these queries take
        // 30-110 s, at the default 4000 far longer. Both sides therefore
        // share a 50-node budget; a mask it leaves undecided must still be
        // in the result.
        let solver = Solver::default().with_node_budget(50);
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        // pairs per dimension 1-3, zero sets, singletons, generators with a
        // negative component, generators with a zero component
        let mut covered = [0usize; 7];
        let (mut masks, mut undecided) = (0, 0);
        for _ in 0..600 {
            let dim = rng.gen_range(1..=3usize);
            let sl1 = random_semilinear(&mut rng, dim);
            let sl2 = random_semilinear(&mut rng, dim);
            covered[dim - 1] += 1;
            for sl in [&sl1, &sl2] {
                covered[3] += usize::from(sl.is_zero());
                for ls in sl.linear_sets() {
                    covered[4] += usize::from(ls.is_singleton());
                    for g in ls.generators() {
                        covered[5] += usize::from(g.iter().any(|c| c < 0));
                        covered[6] += usize::from(g.iter().any(|c| c == 0));
                    }
                }
            }
            masks += 2 << dim;
            undecided += assert_matches_reference(&sl1, &sl2, dim, &solver);
        }
        assert!(covered.iter().all(|&n| n > 50), "coverage {covered:?}");
        assert!(
            undecided * 100 < masks,
            "{undecided} of {masks} masks undecided"
        );
    }

    #[test]
    fn sampling_skips_points_that_overflow() {
        // base + generator overflows i64, so that point is skipped; the
        // comparison must neither panic nor change.
        let near_max = i64::MAX - 1;
        let sl1 = SemiLinearSet::from_linear_sets([LinearSet::new(v(&[near_max]), vec![v(&[5])])]);
        let sl2 = SemiLinearSet::from_linear_sets([
            LinearSet::singleton(v(&[0])),
            LinearSet::new(v(&[7]), vec![v(&[-2])]),
        ]);
        assert_eq!(sample_members(&sl1), vec![vec![near_max]]);
        let solver = Solver::default();
        assert_eq!(assert_matches_reference(&sl1, &sl2, 1, &solver), 0);
        assert_eq!(assert_matches_reference(&sl2, &sl1, 1, &solver), 0);
        // Here some masks' only members lie beyond i64, where the solver
        // abstains: those masks must be kept.
        let sl1 =
            SemiLinearSet::from_linear_sets([LinearSet::new(v(&[near_max, 0]), vec![v(&[5, 1])])]);
        let sl2 = SemiLinearSet::from_linear_sets([
            LinearSet::new(v(&[0, 3]), vec![v(&[1, -1])]),
            LinearSet::singleton(v(&[near_max, 0])),
        ]);
        assert_matches_reference(&sl1, &sl2, 2, &solver);
        assert_matches_reference(&sl2, &sl1, 2, &solver);
    }

    #[test]
    fn an_undecided_query_keeps_its_mask_and_marks_the_result_inexact() {
        // {0, 1} < {5, 6}: members only produce (t). The query for (f) has
        // 4 DNF cubes, over a budget of 1, so the solver cannot decide it.
        let sl1 = SemiLinearSet::from_linear_sets([
            LinearSet::singleton(v(&[0])),
            LinearSet::singleton(v(&[1])),
        ]);
        let sl2 = SemiLinearSet::from_linear_sets([
            LinearSet::singleton(v(&[5])),
            LinearSet::singleton(v(&[6])),
        ]);
        let tight = Solver::default().with_max_cubes(1);
        let (masks, exactness) = abstract_comparison(&sl1, &sl2, 1, Comparison::LessThan, &tight);
        assert_eq!(exactness, Exactness::OverApproximate);
        assert_eq!(masks, BoolVecSet::top(1));
        // with the default budget the same query is decided
        let (masks, exactness) =
            abstract_comparison(&sl1, &sl2, 1, Comparison::LessThan, &Solver::default());
        assert_eq!(exactness, Exactness::Exact);
        assert_eq!(masks, BoolVecSet::singleton(BoolVec::from(vec![true])));
    }

    #[test]
    fn exp2_and_exp3_summaries_match_section_2() {
        // With E = ⟨1, 2⟩: Exp2 = {(0,0) + λ(2,4)}, Exp3 = {(0,0) + λ(3,6)}
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        let analysis = analyze(&g2(), &examples, true, true).unwrap().0;
        let exp2 = &analysis.int_values[&NonTerminal::new("Exp2")];
        assert!(exp2.contains(&v(&[0, 0])));
        assert!(exp2.contains(&v(&[2, 4])));
        assert!(exp2.contains(&v(&[20, 40])));
        assert!(!exp2.contains(&v(&[3, 6])));
        let exp3 = &analysis.int_values[&NonTerminal::new("Exp3")];
        assert!(exp3.contains(&v(&[3, 6])));
        assert!(!exp3.contains(&v(&[2, 4])));
    }

    #[test]
    fn bexp_fixed_point_contains_section_2_vectors() {
        // §2 computes n(BExp) ⊇ {(t,f), (t,t), (f,f)} for E = ⟨1, 2⟩.
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        let analysis = analyze(&g2(), &examples, true, true).unwrap().0;
        let bexp = &analysis.bool_values[&NonTerminal::new("BExp")];
        assert!(bexp.contains(&BoolVec::from(vec![true, false])));
        assert!(bexp.contains(&BoolVec::from(vec![true, true])));
        assert!(bexp.contains(&BoolVec::from(vec![false, false])));
    }

    #[test]
    fn start_abstraction_is_exact_on_witness_terms() {
        // §2 claims no term of G2 is consistent with E = ⟨1, 2⟩, but the
        // grammar does contain one:
        //   ite(0 < ite(x < 2, 0, 3x), 3x, 4x)
        // evaluates to 4 on x = 1 and 6 on x = 2. The exact abstraction must
        // therefore contain (4, 6) — exactness is what we test here — along
        // with other genuine outputs; unrealizability of the full problem is
        // established with a different example (see the check-level tests).
        use sygus::Term;
        let examples = ExampleSet::for_single_var("x", [1, 2]);
        let analysis = analyze(&g2(), &examples, true, true).unwrap().0;
        let start = &analysis.int_values[&NonTerminal::new("Start")];
        assert!(start.contains(&v(&[4, 8])), "2x+2x is derivable: {start}");
        assert!(start.contains(&v(&[3, 6])), "3x is derivable");
        assert!(start.contains(&v(&[0, 0])));

        // build the witness term and confirm both its membership in L(G2)
        // and that its output vector is abstracted
        let three_x = Term::apply(
            Symbol::Plus,
            vec![Term::var("x"), Term::var("x"), Term::var("x"), Term::num(0)],
        )
        .unwrap();
        let four_x = Term::apply(
            Symbol::Plus,
            vec![
                Term::var("x"),
                Term::var("x"),
                Term::apply(
                    Symbol::Plus,
                    vec![Term::var("x"), Term::var("x"), Term::num(0)],
                )
                .unwrap(),
            ],
        )
        .unwrap();
        let inner = Term::ite(
            Term::less_than(Term::var("x"), Term::num(2)),
            Term::num(0),
            three_x.clone(),
        )
        .unwrap();
        let witness = Term::ite(Term::less_than(Term::num(0), inner), three_x, four_x).unwrap();
        assert!(g2().contains_term(&witness), "witness must be in L(G2)");
        let out = witness.eval_on(&examples).unwrap();
        assert_eq!(out.as_int().unwrap(), &[4, 6]);
        assert!(
            start.contains(&v(&[4, 6])),
            "exactness: the witness output must be abstracted; abstraction: {start}"
        );
    }

    #[test]
    fn g2_produces_only_zero_on_input_zero() {
        // On x = 0 every term of G2 evaluates to 0, so the abstraction of
        // Start must be exactly {0}; this is the example that makes the §2
        // CLIA problem provably unrealizable.
        let examples = ExampleSet::for_single_var("x", [0]);
        let analysis = analyze(&g2(), &examples, true, true).unwrap().0;
        let start = &analysis.int_values[&NonTerminal::new("Start")];
        assert!(start.contains(&v(&[0])));
        assert!(!start.contains(&v(&[2])));
        assert!(!start.contains(&v(&[1])));
    }

    #[test]
    fn ite_actually_mixes_branches_across_examples() {
        // Grammar: Start ::= ite(x < 2, Zero, Six) with E = ⟨1, 5⟩.
        // On x=1 the guard is true (output 0), on x=5 false (output 6), so
        // the only derivable vector is (0, 6).
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .nonterminal("Zero", Sort::Int)
            .nonterminal("Six", Sort::Int)
            .nonterminal("X", Sort::Int)
            .nonterminal("Two", Sort::Int)
            .production("Start", Symbol::IfThenElse, &["B", "Zero", "Six"])
            .production("B", Symbol::LessThan, &["X", "Two"])
            .production("Zero", Symbol::Num(0), &[])
            .production("Six", Symbol::Num(6), &[])
            .production("X", Symbol::Var("x".to_string()), &[])
            .production("Two", Symbol::Num(2), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [1, 5]);
        let analysis = analyze(&grammar, &examples, true, true).unwrap().0;
        let start = &analysis.int_values[&NonTerminal::new("Start")];
        assert!(start.contains(&v(&[0, 6])));
        assert!(!start.contains(&v(&[0, 0])));
        assert!(!start.contains(&v(&[6, 6])));
        assert!(!start.contains(&v(&[6, 0])));
    }

    #[test]
    fn lia_only_grammars_work_through_the_clia_path_too() {
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("X", Sort::Int)
            .production("Start", Symbol::Plus, &["X", "Start"])
            .production("Start", Symbol::Num(0), &[])
            .production("X", Symbol::Var("x".to_string()), &[])
            .build()
            .unwrap();
        let examples = ExampleSet::for_single_var("x", [2]);
        let analysis = analyze(&grammar, &examples, true, true).unwrap().0;
        let start = &analysis.int_values[&NonTerminal::new("Start")];
        assert!(start.contains(&v(&[0])));
        assert!(start.contains(&v(&[6])));
        assert!(!start.contains(&v(&[3])));
        assert_eq!(analysis.outer_iterations, 1);
    }
}
