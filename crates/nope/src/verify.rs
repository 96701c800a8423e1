//! Verification of the non-deterministic recursive program: is the "bad"
//! location (a run of the entry procedure whose return value satisfies the
//! specification on every example) reachable?
//!
//! The original nope hands the program to an off-the-shelf software verifier
//! (SeaHorn, itself built on Spacer). In this reproduction the reachable
//! half is a **bounded concrete exploration** of the program's runs on the
//! program IR, which can find a reachable good run and hence prove
//! realizability of `sy_E`. The unreachable half — a sound proof of
//! unrealizability — is the `chc` crate's abstract interpretation, which
//! [`crate::NopeSolver`] runs when the search finds no good run.

use crate::program::{ProgExpr, Program};
use runner::Cancel;
use std::collections::BTreeMap;
use sygus::{ExampleSet, Op, Spec, Term, TermArena, TermId};

/// The verdict of the nope-style reachability analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NopeVerdict {
    /// The bad location is unreachable: `sy_E` (and hence `sy`) is
    /// unrealizable.
    Unrealizable,
    /// A concrete run reaching the bad location was found: `sy_E` is
    /// realizable (the returned vector is the witness output).
    RealizableOnExamples(Vec<i64>),
    /// Neither analysis was conclusive.
    Unknown,
    /// The analysis observed a tripped [`Cancel`] token and stopped early
    /// (portfolio racing: the other engine answered first).
    Cancelled,
}

impl NopeVerdict {
    /// Stable lower-case name used by the benchmark report
    /// (`unrealizable`, `realizable`, `unknown`, `cancelled`).
    pub fn name(&self) -> &'static str {
        match self {
            NopeVerdict::Unrealizable => "unrealizable",
            NopeVerdict::RealizableOnExamples(_) => "realizable",
            NopeVerdict::Unknown => "unknown",
            NopeVerdict::Cancelled => "cancelled",
        }
    }
}

/// Marker for a bounded search that stopped because its [`Cancel`] token
/// tripped (distinct from "no witness found within the depth").
#[derive(Debug)]
struct CancelledSearch;

/// What [`ProgramVerifier::bounded_search`] found.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// A good run: the entry procedure's output vector, which satisfies
    /// the specification on every example, and a term of `L(G)` producing
    /// it.
    pub witness: Option<(Vec<i64>, Term)>,
    /// `true` when the search stopped on a tripped [`Cancel`] token.
    pub cancelled: bool,
    /// Number of witness-log nodes the search recorded while exploring
    /// reachable vectors (its peak size — the log only grows; terms are
    /// hash-consed into a [`TermArena`] only when a witness is demanded).
    pub arena_terms: usize,
}

/// The sentinel "empty list" head of the [`LazyWitness::Plus`] trail.
const NIL: u32 = u32::MAX;

/// An append-only log of witness nodes. Where the search previously
/// hash-consed one term per vector surviving dedup into a [`TermArena`]
/// (a hash probe each, even for searches that end `Unknown` and never
/// look at a witness), it now records a plain `(op, children)` node per
/// surviving vector — a `Vec` push — and only hash-conses the one chain
/// that is actually demanded, via [`WitnessLog::intern_into`], after a
/// good vector is found.
#[derive(Clone, Debug, Default)]
struct WitnessLog {
    /// `(op, child_start, child_end)` — the child range indexes `children`.
    nodes: Vec<(Op, u32, u32)>,
    /// Child pool: log indices of each node's children, in order.
    children: Vec<u32>,
}

impl WitnessLog {
    /// Appends a node and returns its log index. Children always precede
    /// their parent in the log (the search builds bottom-up), which
    /// [`WitnessLog::intern_into`] relies on.
    fn push(&mut self, op: Op, kids: &[u32]) -> u32 {
        let start = self.children.len() as u32;
        self.children.extend_from_slice(kids);
        let end = self.children.len() as u32;
        self.nodes.push((op, start, end));
        (self.nodes.len() - 1) as u32
    }

    /// Number of nodes recorded (the search-breadth statistic reported as
    /// `arena_terms`).
    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Hash-conses the term rooted at `root` into `arena`, visiting only
    /// the nodes the witness actually uses.
    fn intern_into(&self, arena: &mut TermArena, root: u32) -> TermId {
        let mut memo: BTreeMap<u32, TermId> = BTreeMap::new();
        let mut stack: Vec<u32> = vec![root];
        while let Some(&r) = stack.last() {
            if memo.contains_key(&r) {
                stack.pop();
                continue;
            }
            let (op, start, end) = self.nodes[r as usize];
            let kids = &self.children[start as usize..end as usize];
            let mut ready = true;
            for &k in kids {
                if !memo.contains_key(&k) {
                    stack.push(k);
                    ready = false;
                }
            }
            if ready {
                let ids: Vec<TermId> = kids.iter().map(|k| memo[k]).collect();
                let id = arena.intern(op, &ids);
                memo.insert(r, id);
                stack.pop();
            }
        }
        memo[&root]
    }
}

/// A witness the expression evaluator has not logged yet. Candidate
/// vectors are produced far faster than they survive dedup, so the
/// per-combination fast path only records *how* a vector was built (a few
/// words, no allocation); a [`WitnessLog`] node is appended once per
/// vector that actually enters a reachable set.
#[derive(Clone, Copy)]
enum LazyWitness {
    /// Already logged: leaves and procedure-call results.
    Ready(u32),
    /// An n-ary `Plus` whose child list is the trail chain at this head.
    Plus(u32),
    /// A unary node over a logged child.
    Un(Op, u32),
    /// A binary node over logged children.
    Bin(Op, u32, u32),
    /// A ternary node over logged children.
    Tri(Op, u32, u32, u32),
}

/// Resolves a lazy witness to a log index. `trail` is the cons-list pool
/// `Plus` heads index into.
fn log_witness(log: &mut WitnessLog, trail: &[(u32, u32)], witness: LazyWitness) -> u32 {
    match witness {
        LazyWitness::Ready(id) => id,
        LazyWitness::Un(op, a) => log.push(op, &[a]),
        LazyWitness::Bin(op, a, b) => log.push(op, &[a, b]),
        LazyWitness::Tri(op, a, b, c) => log.push(op, &[a, b, c]),
        LazyWitness::Plus(mut head) => {
            let mut children: Vec<u32> = Vec::new();
            while head != NIL {
                let (prev, id) = trail[head as usize];
                children.push(id);
                head = prev;
            }
            children.reverse();
            log.push(Op::Plus, &children)
        }
    }
}

/// Configuration of the bounded program search.
#[derive(Clone, Debug)]
pub struct ProgramVerifier {
    /// Unrolling depth of the bounded concrete exploration.
    pub unroll_depth: usize,
    /// Cap on the number of distinct concrete vectors tracked per procedure.
    pub max_vectors: usize,
}

impl Default for ProgramVerifier {
    fn default() -> Self {
        ProgramVerifier {
            unroll_depth: 8,
            max_vectors: 2000,
        }
    }
}

impl ProgramVerifier {
    /// Creates a verifier with the default budgets.
    pub fn new() -> Self {
        ProgramVerifier::default()
    }

    /// Bounded unrolling of the recursive program: computes, per procedure,
    /// the set of return vectors realizable within the unrolling depth and
    /// checks the assertion against those of the entry procedure. The
    /// token is polled once per unrolling round.
    pub fn bounded_search(
        &self,
        program: &Program,
        examples: &ExampleSet,
        spec: &Spec,
        cancel: &Cancel,
    ) -> SearchOutcome {
        let mut arena = TermArena::new();
        let mut log = WitnessLog::default();
        let found = self.search_rounds(program, examples, spec, cancel, &mut arena, &mut log);
        SearchOutcome {
            cancelled: found.is_err(),
            witness: found.ok().flatten().map(|(vector, r)| {
                let id = log.intern_into(&mut arena, r);
                (vector, arena.extract(id))
            }),
            arena_terms: log.len(),
        }
    }

    /// The rounds of [`ProgramVerifier::bounded_search`];
    /// `Err(CancelledSearch)` reports an observed trip. Every reachable
    /// vector carries the [`WitnessLog`] index of
    /// the first term found producing it — witnesses stay
    /// [`LazyWitness`]es on the per-combination fast path, vectors
    /// surviving dedup append one log node (no hash-consing), and the
    /// arena only sees the single chain a demanded witness needs, so the
    /// vector sets (and with them every verdict) are exactly the
    /// pre-arena ones.
    fn search_rounds(
        &self,
        program: &Program,
        examples: &ExampleSet,
        spec: &Spec,
        cancel: &Cancel,
        arena: &mut TermArena,
        log: &mut WitnessLog,
    ) -> Result<Option<(Vec<i64>, u32)>, CancelledSearch> {
        let n = program.procedures.len();
        let mut reachable: Vec<BTreeMap<Vec<i64>, u32>> = vec![BTreeMap::new(); n];
        let mut trail: Vec<(u32, u32)> = Vec::new();
        for _ in 0..self.unroll_depth {
            if cancel.is_cancelled() {
                return Err(CancelledSearch);
            }
            let mut changed = false;
            for (i, proc_) in program.procedures.iter().enumerate() {
                let mut new_vectors: BTreeMap<Vec<i64>, u32> = BTreeMap::new();
                for branch in &proc_.branches {
                    self.eval_bounded(
                        branch,
                        &reachable,
                        program.dim,
                        arena,
                        log,
                        &mut trail,
                        &mut new_vectors,
                    );
                    if new_vectors.len() > self.max_vectors {
                        break;
                    }
                }
                for (v, w) in new_vectors {
                    if reachable[i].len() >= self.max_vectors {
                        break;
                    }
                    if let std::collections::btree_map::Entry::Vacant(slot) = reachable[i].entry(v)
                    {
                        slot.insert(w);
                        changed = true;
                    }
                }
            }
            // check the assertion on the entry procedure's vectors
            for (v, w) in &reachable[program.entry] {
                let good = examples
                    .iter()
                    .enumerate()
                    .all(|(j, e)| spec.holds(e, v[j]));
                if good {
                    return Ok(Some((v.clone(), *w)));
                }
            }
            if !changed {
                break;
            }
        }
        Ok(None)
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_bounded(
        &self,
        expr: &ProgExpr,
        reachable: &[BTreeMap<Vec<i64>, u32>],
        dim: usize,
        arena: &mut TermArena,
        log: &mut WitnessLog,
        trail: &mut Vec<(u32, u32)>,
        out: &mut BTreeMap<Vec<i64>, u32>,
    ) {
        trail.clear();
        let entries = self.eval_expr(expr, reachable, dim, arena, log, trail);
        for (v, w) in entries {
            if out.len() >= self.max_vectors {
                return;
            }
            if let std::collections::btree_map::Entry::Vacant(slot) = out.entry(v) {
                slot.insert(log_witness(log, trail, w));
            }
        }
    }

    /// Resolves every entry's witness to a log index (used where lazy
    /// witnesses become children of another node).
    fn forced(
        log: &mut WitnessLog,
        trail: &[(u32, u32)],
        entries: Vec<(Vec<i64>, LazyWitness)>,
    ) -> Vec<(Vec<i64>, u32)> {
        entries
            .into_iter()
            .map(|(v, w)| (v, log_witness(log, trail, w)))
            .collect()
    }

    /// Evaluates one branch expression to the vectors it can produce, each
    /// paired with a lazy witness. The enumeration (and capping) order is
    /// exactly the pre-arena one.
    #[allow(clippy::too_many_arguments)]
    fn eval_expr(
        &self,
        expr: &ProgExpr,
        reachable: &[BTreeMap<Vec<i64>, u32>],
        dim: usize,
        arena: &mut TermArena,
        log: &mut WitnessLog,
        trail: &mut Vec<(u32, u32)>,
    ) -> Vec<(Vec<i64>, LazyWitness)> {
        type Valued = Vec<(Vec<i64>, LazyWitness)>;
        let cap = self.max_vectors;
        let combine2 = |a: Vec<(Vec<i64>, u32)>,
                        b: Vec<(Vec<i64>, u32)>,
                        f: &dyn Fn(i64, i64) -> i64,
                        op: Op| {
            let mut out: Valued = Vec::new();
            'outer: for (xv, xw) in &a {
                for (yv, yw) in &b {
                    let vector = (0..dim).map(|j| f(xv[j], yv[j])).collect();
                    out.push((vector, LazyWitness::Bin(op, *xw, *yw)));
                    if out.len() >= cap {
                        break 'outer;
                    }
                }
            }
            out
        };
        // Evaluates a child expression with every witness forced (children
        // of compound nodes must be log indices; in the programs
        // `from_grammar` builds, children are `Call`/`Const` and forcing
        // is a no-op).
        macro_rules! child {
            ($e:expr) => {{
                let entries = self.eval_expr($e, reachable, dim, arena, log, trail);
                Self::forced(log, trail, entries)
            }};
        }
        match expr {
            ProgExpr::Const(v, symbol) => {
                let op = arena.op_from_symbol(symbol);
                vec![(v.clone(), LazyWitness::Ready(log.push(op, &[])))]
            }
            ProgExpr::Call(p) => reachable[*p]
                .iter()
                .map(|(v, w)| (v.clone(), LazyWitness::Ready(*w)))
                .collect(),
            ProgExpr::Add(xs) => {
                // n-ary: witnesses accumulate as cons-list heads into the
                // trail (one O(1) push per combination), and the one Plus
                // node with the production's arity is only built for
                // vectors that survive dedup.
                let mut acc: Vec<(Vec<i64>, u32)> = vec![(vec![0i64; dim], NIL)];
                for x in xs {
                    let vals = child!(x);
                    let mut next = Vec::new();
                    'outer: for (av, ahead) in &acc {
                        for (bv, bw) in &vals {
                            trail.push((*ahead, *bw));
                            let head = (trail.len() - 1) as u32;
                            next.push((
                                (0..dim).map(|j| av[j] + bv[j]).collect::<Vec<i64>>(),
                                head,
                            ));
                            if next.len() >= cap {
                                break 'outer;
                            }
                        }
                    }
                    acc = next;
                    if acc.is_empty() {
                        return Vec::new();
                    }
                }
                acc.into_iter()
                    .map(|(v, head)| (v, LazyWitness::Plus(head)))
                    .collect()
            }
            ProgExpr::Sub(a, b) => combine2(child!(a), child!(b), &|x, y| x - y, Op::Minus),
            ProgExpr::Less(a, b) => {
                combine2(child!(a), child!(b), &|x, y| i64::from(x < y), Op::LessThan)
            }
            ProgExpr::Equal(a, b) => {
                combine2(child!(a), child!(b), &|x, y| i64::from(x == y), Op::Equal)
            }
            ProgExpr::And(a, b) => combine2(child!(a), child!(b), &|x, y| x & y, Op::And),
            ProgExpr::Or(a, b) => combine2(child!(a), child!(b), &|x, y| x | y, Op::Or),
            ProgExpr::Not(a) => child!(a)
                .into_iter()
                .map(|(v, w)| {
                    (
                        v.into_iter().map(|x| 1 - x).collect(),
                        LazyWitness::Un(Op::Not, w),
                    )
                })
                .collect(),
            ProgExpr::Ite(c, t, e) => {
                let guards = child!(c);
                let thens = child!(t);
                let elses = child!(e);
                let mut out: Valued = Vec::new();
                'outer: for (gv, gw) in &guards {
                    for (tv, tw) in &thens {
                        for (ev, ew) in &elses {
                            let vector = (0..dim)
                                .map(|j| if gv[j] == 1 { tv[j] } else { ev[j] })
                                .collect();
                            out.push((vector, LazyWitness::Tri(Op::IfThenElse, *gw, *tw, *ew)));
                            if out.len() >= cap {
                                break 'outer;
                            }
                        }
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use crate::NopeSolver;
    use logic::{LinearExpr, Var};
    use sygus::{Grammar, GrammarBuilder, Problem, Sort, Symbol};

    fn g1() -> Grammar {
        GrammarBuilder::new("Start")
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
            .unwrap()
    }

    fn spec_2x_plus_2() -> Spec {
        Spec::output_equals(
            LinearExpr::var(Var::new("x")).scale(2) + LinearExpr::constant(2),
            vec!["x".to_string()],
        )
    }

    #[test]
    fn unreachability_proves_unrealizability() {
        let examples = ExampleSet::for_single_var("x", [1]);
        let program = Program::from_grammar(&g1(), &examples);
        let search = ProgramVerifier::new().bounded_search(
            &program,
            &examples,
            &spec_2x_plus_2(),
            &Cancel::never(),
        );
        assert!(search.witness.is_none() && !search.cancelled);
        let problem = Problem::new("g1", g1(), spec_2x_plus_2());
        let (verdict, stats) = NopeSolver::new().check(&problem, &examples);
        assert_eq!(verdict, NopeVerdict::Unrealizable);
        assert!(stats.abstract_iterations > 0);
    }

    #[test]
    fn bounded_search_finds_good_runs() {
        // With x = 2 the output 6 is producible (3·2), so the bad location is
        // reachable and the verifier reports the witness.
        let examples = ExampleSet::for_single_var("x", [2]);
        let problem = Problem::new("g1", g1(), spec_2x_plus_2());
        match NopeSolver::new().check(&problem, &examples) {
            (NopeVerdict::RealizableOnExamples(witness), stats) => {
                assert_eq!(witness, vec![6]);
                assert_eq!(stats.abstract_iterations, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bounded_search_reconstructs_a_derivable_witness_term() {
        // The lazy witnesses threaded through the exploration must denote a
        // real grammar term whose outputs are the good vector.
        let grammar = g1();
        let examples = ExampleSet::for_single_var("x", [2]);
        let program = Program::from_grammar(&grammar, &examples);
        let search = ProgramVerifier::new().bounded_search(
            &program,
            &examples,
            &spec_2x_plus_2(),
            &Cancel::never(),
        );
        assert!(search.arena_terms > 0);
        let (vector, term) = search.witness.expect("x = 2 has the good run 3·2 = 6");
        assert_eq!(vector, vec![6]);
        assert!(
            grammar.contains_term(&term),
            "witness {term} must be in L(G)"
        );
        let out = term.eval_on(&examples).unwrap();
        assert_eq!(out, sygus::Output::Int(vector));
    }

    #[test]
    fn ite_and_boolean_witnesses_are_derivable() {
        // A CLIA grammar exercising Ite/Less lazy witnesses end to end.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("B", Sort::Bool)
            .production("Start", Symbol::Var("x".to_string()), &[])
            .production("Start", Symbol::Num(7), &[])
            .production("Start", Symbol::IfThenElse, &["B", "Start", "Start"])
            .production("B", Symbol::LessThan, &["Start", "Start"])
            .build()
            .unwrap();
        let spec = Spec::output_equals(LinearExpr::constant(7), vec!["x".to_string()]);
        let examples = ExampleSet::for_single_var("x", [3]);
        let program = Program::from_grammar(&grammar, &examples);
        let (vector, term) = ProgramVerifier::new()
            .bounded_search(&program, &examples, &spec, &Cancel::never())
            .witness
            .expect("the constant 7 is derivable");
        assert_eq!(vector, vec![7]);
        assert!(grammar.contains_term(&term), "witness {term} not in L(G)");
        assert_eq!(term.eval_on(&examples).unwrap(), sygus::Output::Int(vector));
    }

    #[test]
    fn coarse_abstraction_yields_unknown() {
        // Gconst with spec f(x) > x on x = 1: realizable... the bounded search
        // will find 2 > 1 quickly, so this is actually Realizable; to force
        // Unknown we use a spec that is unrealizable but not refutable by the
        // interval/congruence domain: f(x) = 7 over sums of 1 and 2 with at
        // least... sums of {1,2} eventually hit 7, so pick f(x) = 0 instead:
        // all sums are ≥ 1, interval refutes it — still Unrealizable. A truly
        // Unknown case needs values that the domain cannot separate, e.g.
        // f(x) = x over a grammar producing 1 and 3 only (x = 2):
        // join(1, 3) = [1,3] with modulus 2 … 2 is even, 1 and 3 are odd, so
        // the congruence does refute it. Use modulus-breaking constants 1, 2
        // and target 3 ∉ {1,2} but 3 ∈ [1,2]∪… join(1,2) = [1,2] top modulus;
        // target 3 is outside the interval → still refuted. Final choice:
        // constants 1 and 4, target 3: join = [1,4], gcd(3) → 1 mod 3;
        // 3 ≢ 1 (mod 3) → refuted again. The point stands that the domain is
        // strong on constant sets, so instead take a recursive grammar whose
        // language is {1, 4, 7, …} ∪ {2}: join breaks both components.
        let grammar = GrammarBuilder::new("Start")
            .nonterminal("Start", Sort::Int)
            .nonterminal("Three", Sort::Int)
            .production("Start", Symbol::Num(1), &[])
            .production("Start", Symbol::Num(2), &[])
            .production("Start", Symbol::Plus, &["Start", "Three"])
            .production("Three", Symbol::Num(3), &[])
            .build()
            .unwrap();
        // language: 1, 2, 4, 5, 7, 8, … (all n with n mod 3 ∈ {1, 2});
        // target 6 is unreachable but interval [1,∞) + congruence top cannot
        // prove it, and the bounded search cannot reach it either → Unknown.
        let spec = Spec::output_equals(LinearExpr::constant(6), vec!["x".to_string()]);
        let examples = ExampleSet::for_single_var("x", [0]);
        let problem = Problem::new("ones-and-twos", grammar, spec);
        let (verdict, _) = NopeSolver::new().check(&problem, &examples);
        assert_eq!(verdict, NopeVerdict::Unknown);
    }
}
