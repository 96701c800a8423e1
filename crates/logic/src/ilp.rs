//! Integer feasibility of conjunctions of linear constraints.
//!
//! This module implements the per-cube decision step of the
//! [`Solver`](crate::Solver): given a conjunction of integer linear
//! constraints, decide whether an integer solution exists and produce one if
//! so. The algorithm is
//!
//! 1. normalisation (strict inequalities tightened, GCD tests),
//! 2. exact elimination of equalities with a unit-coefficient variable,
//! 3. branch-and-bound over the exact rational simplex relaxation.
//!
//! The branch-and-bound search is budgeted; exceeding the budget yields
//! [`IlpResult::Unknown`], which callers treat conservatively. So does a
//! step whose `i64` arithmetic would overflow: the solver abstains rather
//! than wrap.

use crate::rational::Rational;
use crate::simplex::{LpRel, Simplex};

/// A single linear constraint `Σ coeffs[i]·xᵢ REL rhs` over variable indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// Coefficients, one per variable (index-based).
    pub coeffs: Vec<i64>,
    /// Relation (only `Le`, `Ge`, `Eq` — strict forms are normalised away).
    pub rel: LpRel,
    /// Right-hand side constant.
    pub rhs: i64,
}

impl Constraint {
    /// Creates a constraint; `coeffs` is indexed by variable number.
    pub fn new(coeffs: Vec<i64>, rel: LpRel, rhs: i64) -> Self {
        Constraint { coeffs, rel, rhs }
    }

    fn is_trivial(&self) -> Option<bool> {
        if self.coeffs.iter().all(|&c| c == 0) {
            Some(match self.rel {
                LpRel::Le => 0 <= self.rhs,
                LpRel::Ge => 0 >= self.rhs,
                LpRel::Eq => self.rhs == 0,
            })
        } else {
            None
        }
    }

    fn eval(&self, point: &[i64]) -> bool {
        let lhs: i128 = self
            .coeffs
            .iter()
            .zip(point)
            .map(|(&c, &v)| i128::from(c) * i128::from(v))
            .sum();
        let rhs = i128::from(self.rhs);
        match self.rel {
            LpRel::Le => lhs <= rhs,
            LpRel::Ge => lhs >= rhs,
            LpRel::Eq => lhs == rhs,
        }
    }
}

/// Result of an integer feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IlpResult {
    /// A satisfying integer point (indexed like the problem's variables).
    Sat(Vec<i64>),
    /// No integer point satisfies the constraints.
    Unsat,
    /// The search budget was exhausted, or a step would overflow `i64`,
    /// before a decision was reached.
    Unknown,
}

/// An integer feasibility problem: find `x ∈ ℤⁿ` satisfying every constraint.
///
/// # Example
/// ```
/// use logic::{Constraint, IlpProblem, IlpResult, LpRel};
/// // 2x = 1 has no integer solution.
/// let mut p = IlpProblem::new(1);
/// p.add(Constraint::new(vec![2], LpRel::Eq, 1));
/// assert_eq!(p.solve(), IlpResult::Unsat);
/// ```
#[derive(Clone, Debug, Default)]
pub struct IlpProblem {
    num_vars: usize,
    constraints: Vec<Constraint>,
    node_budget: usize,
}

/// A recorded substitution `x_var := Σ coeffs[i]·xᵢ + constant` used to
/// reconstruct eliminated variables.
#[derive(Clone, Debug)]
struct Substitution {
    var: usize,
    coeffs: Vec<i64>,
    constant: i64,
}

/// A step of the decision procedure would overflow `i64`.
struct Overflow;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `a · b`, or [`Overflow`].
fn mul(a: i64, b: i64) -> Result<i64, Overflow> {
    a.checked_mul(b).ok_or(Overflow)
}

/// `a + b`, or [`Overflow`].
fn add(a: i64, b: i64) -> Result<i64, Overflow> {
    a.checked_add(b).ok_or(Overflow)
}

/// `-a`, or [`Overflow`].
fn neg(a: i64) -> Result<i64, Overflow> {
    a.checked_neg().ok_or(Overflow)
}

impl IlpProblem {
    /// Creates an empty problem over `num_vars` integer variables.
    pub fn new(num_vars: usize) -> Self {
        IlpProblem {
            num_vars,
            constraints: Vec::new(),
            node_budget: 4000,
        }
    }

    /// Overrides the branch-and-bound node budget (default 4000).
    pub fn with_node_budget(mut self, budget: usize) -> Self {
        self.node_budget = budget;
        self
    }

    /// Adds a constraint.
    ///
    /// # Panics
    /// Panics if the coefficient vector length differs from the number of
    /// variables.
    pub fn add(&mut self, c: Constraint) {
        assert_eq!(c.coeffs.len(), self.num_vars, "constraint arity mismatch");
        self.constraints.push(c);
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Decides integer feasibility.
    pub fn solve(&self) -> IlpResult {
        self.try_solve().unwrap_or(IlpResult::Unknown)
    }

    fn try_solve(&self) -> Result<IlpResult, Overflow> {
        // Work on a normalised copy: only Le and Eq constraints.
        let mut cons: Vec<Constraint> = Vec::with_capacity(self.constraints.len());
        for c in &self.constraints {
            match c.rel {
                LpRel::Le | LpRel::Eq => cons.push(c.clone()),
                LpRel::Ge => cons.push(Constraint::new(
                    c.coeffs.iter().map(|&x| neg(x)).collect::<Result<_, _>>()?,
                    LpRel::Le,
                    neg(c.rhs)?,
                )),
            }
        }

        let mut substitutions: Vec<Substitution> = Vec::new();
        let mut point = match self.preprocess(&mut cons, &mut substitutions)? {
            Some(false) => return Ok(IlpResult::Unsat),
            // all constraints trivially satisfied — any point works
            Some(true) => vec![0i64; self.num_vars],
            None => match self.branch_and_bound(&cons) {
                IlpResult::Sat(point) => point,
                other => return Ok(other),
            },
        };
        Self::apply_substitutions(&mut point, &substitutions)?;
        debug_assert!(
            self.constraints.iter().all(|c| c.eval(&point)),
            "internal error: reconstructed point violates constraints"
        );
        Ok(IlpResult::Sat(point))
    }

    /// Simplifies constraints in place. Returns `Some(false)` when a
    /// contradiction is detected, `Some(true)` when all constraints have been
    /// discharged, and `None` otherwise.
    fn preprocess(
        &self,
        cons: &mut Vec<Constraint>,
        substitutions: &mut Vec<Substitution>,
    ) -> Result<Option<bool>, Overflow> {
        loop {
            // constant folding and GCD normalisation
            let mut i = 0;
            while i < cons.len() {
                if let Some(ok) = cons[i].is_trivial() {
                    if ok {
                        cons.swap_remove(i);
                        continue;
                    } else {
                        return Ok(Some(false));
                    }
                }
                let g = cons[i]
                    .coeffs
                    .iter()
                    .fold(0, |g, c| gcd(g, c.unsigned_abs()));
                let g = i64::try_from(g).map_err(|_| Overflow)?;
                if g > 1 {
                    match cons[i].rel {
                        LpRel::Eq => {
                            if cons[i].rhs % g != 0 {
                                return Ok(Some(false));
                            }
                            for c in cons[i].coeffs.iter_mut() {
                                *c /= g;
                            }
                            cons[i].rhs /= g;
                        }
                        LpRel::Le => {
                            for c in cons[i].coeffs.iter_mut() {
                                *c /= g;
                            }
                            cons[i].rhs = cons[i].rhs.div_euclid(g);
                        }
                        LpRel::Ge => unreachable!("normalised away"),
                    }
                }
                i += 1;
            }

            // eliminate one equality with a unit coefficient, if any
            let target = cons
                .iter()
                .position(|c| c.rel == LpRel::Eq && c.coeffs.iter().any(|&a| a == 1 || a == -1));
            let Some(idx) = target else {
                return Ok(if cons.is_empty() { Some(true) } else { None });
            };
            let eq = cons.swap_remove(idx);
            let var = eq
                .coeffs
                .iter()
                .position(|&a| a == 1 || a == -1)
                .expect("unit coefficient present");
            let sign = eq.coeffs[var];
            // sign*x_var + rest = rhs  →  x_var = sign*(rhs - rest)
            let mut sub_coeffs = vec![0i64; self.num_vars];
            for (j, &a) in eq.coeffs.iter().enumerate() {
                if j != var {
                    sub_coeffs[j] = mul(-sign, a)?;
                }
            }
            let sub_const = mul(sign, eq.rhs)?;
            // substitute into every remaining constraint
            for c in cons.iter_mut() {
                let factor = c.coeffs[var];
                if factor == 0 {
                    continue;
                }
                c.coeffs[var] = 0;
                for (cj, &sj) in c.coeffs.iter_mut().zip(&sub_coeffs) {
                    *cj = add(*cj, mul(factor, sj)?)?;
                }
                c.rhs = add(c.rhs, neg(mul(factor, sub_const)?)?)?;
            }
            substitutions.push(Substitution {
                var,
                coeffs: sub_coeffs,
                constant: sub_const,
            });
        }
    }

    fn apply_substitutions(
        point: &mut [i64],
        substitutions: &[Substitution],
    ) -> Result<(), Overflow> {
        for sub in substitutions.iter().rev() {
            let mut v = sub.constant;
            for (j, &c) in sub.coeffs.iter().enumerate() {
                v = add(v, mul(c, point[j])?)?;
            }
            point[sub.var] = v;
        }
        Ok(())
    }

    fn branch_and_bound(&self, cons: &[Constraint]) -> IlpResult {
        // Stack of extra bound constraints (var, is_upper, bound).
        #[derive(Clone)]
        struct Node {
            extra: Vec<(usize, bool, i64)>,
        }
        let mut stack = vec![Node { extra: Vec::new() }];
        let mut nodes_used = 0usize;
        let mut hit_budget = false;

        while let Some(node) = stack.pop() {
            nodes_used += 1;
            if nodes_used > self.node_budget {
                hit_budget = true;
                break;
            }
            let mut lp = Simplex::new(self.num_vars);
            for c in cons {
                let coeffs: Vec<Rational> =
                    c.coeffs.iter().map(|&x| Rational::from_int(x)).collect();
                lp.add_constraint(coeffs, c.rel, Rational::from_int(c.rhs));
            }
            for &(var, is_upper, bound) in &node.extra {
                let mut coeffs = vec![Rational::ZERO; self.num_vars];
                coeffs[var] = Rational::ONE;
                let rel = if is_upper { LpRel::Le } else { LpRel::Ge };
                lp.add_constraint(coeffs, rel, Rational::from_int(bound));
            }
            let Some(point) = lp.feasible_point() else {
                continue;
            };
            // find a fractional coordinate; a vertex or bound outside i64
            // makes the search abstain
            match point.iter().position(|v| !v.is_integer()) {
                None => {
                    let Ok(int_point) = point.iter().map(|v| i64::try_from(v.numer())).collect()
                    else {
                        return IlpResult::Unknown;
                    };
                    // The LP vertex satisfies all constraints by construction.
                    return IlpResult::Sat(int_point);
                }
                Some(var) => {
                    let v = point[var];
                    let (Ok(floor), Ok(ceil)) = (i64::try_from(v.floor()), i64::try_from(v.ceil()))
                    else {
                        return IlpResult::Unknown;
                    };
                    let mut low = node.clone();
                    low.extra.push((var, true, floor));
                    let mut high = node;
                    high.extra.push((var, false, ceil));
                    stack.push(low);
                    stack.push(high);
                }
            }
        }
        if hit_budget {
            IlpResult::Unknown
        } else {
            IlpResult::Unsat
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(coeffs: Vec<i64>, rhs: i64) -> Constraint {
        Constraint::new(coeffs, LpRel::Le, rhs)
    }
    fn ge(coeffs: Vec<i64>, rhs: i64) -> Constraint {
        Constraint::new(coeffs, LpRel::Ge, rhs)
    }
    fn eq(coeffs: Vec<i64>, rhs: i64) -> Constraint {
        Constraint::new(coeffs, LpRel::Eq, rhs)
    }

    #[test]
    fn simple_sat() {
        // x >= 3 ∧ x <= 5
        let mut p = IlpProblem::new(1);
        p.add(ge(vec![1], 3));
        p.add(le(vec![1], 5));
        match p.solve() {
            IlpResult::Sat(point) => assert!((3..=5).contains(&point[0])),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn simple_unsat() {
        let mut p = IlpProblem::new(1);
        p.add(ge(vec![1], 3));
        p.add(le(vec![1], 2));
        assert_eq!(p.solve(), IlpResult::Unsat);
    }

    #[test]
    fn parity_unsat_via_gcd() {
        // 2x = 1
        let mut p = IlpProblem::new(1);
        p.add(eq(vec![2], 1));
        assert_eq!(p.solve(), IlpResult::Unsat);
    }

    #[test]
    fn lattice_gap_requires_integrality() {
        // 2 ≤ 3x ≤ 2 has a rational solution (2/3) but no integer one.
        let mut p = IlpProblem::new(1);
        p.add(ge(vec![3], 2));
        p.add(le(vec![3], 2));
        assert_eq!(p.solve(), IlpResult::Unsat);
    }

    #[test]
    fn equality_elimination_reconstructs_model() {
        // o = 3λ ∧ λ ≥ 0 ∧ o = 6  →  λ = 2, o = 6
        // vars: 0 = o, 1 = λ
        let mut p = IlpProblem::new(2);
        p.add(eq(vec![1, -3], 0));
        p.add(ge(vec![0, 1], 0));
        p.add(eq(vec![1, 0], 6));
        match p.solve() {
            IlpResult::Sat(point) => {
                assert_eq!(point[0], 6);
                assert_eq!(point[1], 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_running_example_is_unsat() {
        // o = 3λ ∧ λ ≥ 0 ∧ o = 4 (Eqn. (4) of the paper, with i₁ = 1)
        let mut p = IlpProblem::new(2);
        p.add(eq(vec![1, -3], 0));
        p.add(ge(vec![0, 1], 0));
        p.add(eq(vec![1, 0], 4));
        assert_eq!(p.solve(), IlpResult::Unsat);
    }

    #[test]
    fn multi_var_system() {
        // x + y = 10, x - y >= 4, y >= 1  → e.g. x=7,y=3 ... any valid point
        let mut p = IlpProblem::new(2);
        p.add(eq(vec![1, 1], 10));
        p.add(ge(vec![1, -1], 4));
        p.add(ge(vec![0, 1], 1));
        match p.solve() {
            IlpResult::Sat(pt) => {
                assert_eq!(pt[0] + pt[1], 10);
                assert!(pt[0] - pt[1] >= 4);
                assert!(pt[1] >= 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_problem_is_sat() {
        let p = IlpProblem::new(3);
        match p.solve() {
            IlpResult::Sat(point) => assert_eq!(point.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trivially_false_constraint() {
        let mut p = IlpProblem::new(1);
        p.add(le(vec![0], -1)); // 0 <= -1
        assert_eq!(p.solve(), IlpResult::Unsat);
    }

    #[test]
    fn unbounded_feasible() {
        // x ≥ 100 with no upper bound
        let mut p = IlpProblem::new(1);
        p.add(ge(vec![1], 100));
        match p.solve() {
            IlpResult::Sat(point) => assert!(point[0] >= 100),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn brute_force_agreement_on_small_boxes() {
        // Compare against brute force on a handful of deterministic systems.
        let systems: Vec<Vec<Constraint>> = vec![
            vec![
                ge(vec![1, 0], -3),
                le(vec![1, 0], 3),
                ge(vec![0, 1], -3),
                le(vec![0, 1], 3),
                eq(vec![2, 3], 1),
            ],
            vec![
                ge(vec![1, 0], -3),
                le(vec![1, 0], 3),
                ge(vec![0, 1], -3),
                le(vec![0, 1], 3),
                eq(vec![2, 4], 7),
            ],
            vec![
                ge(vec![1, 0], 0),
                le(vec![1, 0], 4),
                ge(vec![0, 1], 0),
                le(vec![0, 1], 4),
                le(vec![1, 1], 2),
                ge(vec![1, 1], 2),
            ],
            vec![
                ge(vec![1, 0], -2),
                le(vec![1, 0], 2),
                ge(vec![0, 1], -2),
                le(vec![0, 1], 2),
                ge(vec![3, -2], 5),
            ],
        ];
        for cons in systems {
            let mut p = IlpProblem::new(2);
            for c in &cons {
                p.add(c.clone());
            }
            let brute = (-5..=5).any(|x| (-5..=5).any(|y| cons.iter().all(|c| c.eval(&[x, y]))));
            match p.solve() {
                IlpResult::Sat(pt) => {
                    assert!(
                        cons.iter().all(|c| c.eval(&pt)),
                        "returned point must satisfy system"
                    );
                    assert!(
                        brute,
                        "solver found a point but brute force (within box) disagrees: {cons:?}"
                    );
                }
                IlpResult::Unsat => assert!(
                    !brute,
                    "solver said unsat but brute force found a point: {cons:?}"
                ),
                IlpResult::Unknown => panic!("budget should not be hit on tiny systems"),
            }
        }
    }

    #[test]
    fn a_model_outside_i64_is_unknown_not_wrapped() {
        // x = i64::MAX ∧ y - x = 1 forces y = 2^63, which i64 cannot hold.
        let mut p = IlpProblem::new(2);
        p.add(eq(vec![1, 0], i64::MAX));
        p.add(eq(vec![-1, 1], 1));
        assert_eq!(p.solve(), IlpResult::Unknown);
        // the same shape one step lower is an ordinary model
        let mut p = IlpProblem::new(2);
        p.add(eq(vec![1, 0], i64::MAX - 1));
        p.add(eq(vec![-1, 1], 1));
        assert_eq!(p.solve(), IlpResult::Sat(vec![i64::MAX - 1, i64::MAX]));
    }

    #[test]
    fn floor_division_of_a_bound_near_i64_min() {
        // 2x ≤ i64::MIN + 1  ⟺  x ≤ ⌊(i64::MIN + 1) / 2⌋ = i64::MIN / 2
        let mut p = IlpProblem::new(1);
        p.add(le(vec![2], i64::MIN + 1));
        p.add(ge(vec![1], i64::MIN / 2));
        assert_eq!(p.solve(), IlpResult::Sat(vec![i64::MIN / 2]));
    }
}
