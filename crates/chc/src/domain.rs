//! The abstract domain of the approximate Horn solver: per-example products
//! of intervals and congruences for integer nonterminals, three-valued
//! Booleans for Boolean nonterminals.
//!
//! Arithmetic is exact or gives up precision, never wraps: a bound whose
//! computation overflows `i64` becomes unbounded, and a congruence whose
//! remainder or modulus does not fit becomes ⊤.

use logic::{Formula, LinearExpr, Var};
use std::fmt;

/// An integer interval with optional (±∞) bounds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    /// Lower bound (`None` = −∞).
    pub lo: Option<i64>,
    /// Upper bound (`None` = +∞).
    pub hi: Option<i64>,
}

impl Interval {
    /// The full interval `(−∞, +∞)`.
    pub fn top() -> Self {
        Interval { lo: None, hi: None }
    }

    /// The singleton interval `[c, c]`.
    pub fn constant(c: i64) -> Self {
        Interval {
            lo: Some(c),
            hi: Some(c),
        }
    }

    /// `true` if the interval contains `v`.
    pub fn contains(&self, v: i64) -> bool {
        self.lo.is_none_or(|lo| lo <= v) && self.hi.is_none_or(|hi| v <= hi)
    }

    /// Interval addition; a bound that overflows becomes unbounded.
    pub fn add(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.zip(other.lo).and_then(|(a, b)| a.checked_add(b)),
            hi: self.hi.zip(other.hi).and_then(|(a, b)| a.checked_add(b)),
        }
    }

    /// Interval negation; `−i64::MIN` does not fit, so that bound becomes
    /// unbounded.
    pub fn neg(&self) -> Interval {
        Interval {
            lo: self.hi.and_then(i64::checked_neg),
            hi: self.lo.and_then(i64::checked_neg),
        }
    }

    /// Join (convex hull).
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Standard interval widening: bounds that grew are pushed to ±∞.
    pub fn widen(&self, newer: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, newer.lo) {
                (Some(a), Some(b)) if b < a => None,
                (Some(a), Some(_)) => Some(a),
                _ => None,
            },
            hi: match (self.hi, newer.hi) {
                (Some(a), Some(b)) if b > a => None,
                (Some(a), Some(_)) => Some(a),
                _ => None,
            },
        }
    }
}

/// A congruence class `r (mod m)`.
///
/// `modulus == 0` encodes the exact constant `rem`; `modulus == 1` is top.
/// The operations keep `modulus ≤ i64::MAX`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Congruence {
    /// The modulus `m ≥ 0`.
    pub modulus: u64,
    /// The remainder, normalised to `0 ≤ rem < m` when `m > 0`.
    pub rem: i64,
}

fn gcd(a: u128, b: u128) -> u128 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Congruence {
    /// The top element (`0 mod 1`): no congruence information.
    pub fn top() -> Self {
        Congruence { modulus: 1, rem: 0 }
    }

    /// The exact constant `c`.
    pub fn constant(c: i64) -> Self {
        Congruence { modulus: 0, rem: c }
    }

    /// `rem (mod modulus)` computed in `i128`, normalised; ⊤ when the
    /// modulus, or an exact constant, does not fit `i64`.
    fn exact(modulus: u128, rem: i128) -> Self {
        if modulus == 0 {
            i64::try_from(rem).map_or_else(|_| Congruence::top(), Congruence::constant)
        } else if modulus > i64::MAX as u128 {
            Congruence::top()
        } else {
            Congruence {
                modulus: modulus as u64,
                rem: rem.rem_euclid(modulus as i128) as i64,
            }
        }
    }

    /// `true` if `v` is a member of the congruence class.
    pub fn contains(&self, v: i64) -> bool {
        if self.modulus == 0 {
            v == self.rem
        } else {
            (i128::from(v) - i128::from(self.rem)).rem_euclid(i128::from(self.modulus)) == 0
        }
    }

    /// `true` if no integer lies in both classes: `r₁ − r₂` is not a
    /// multiple of `gcd(m₁, m₂)`.
    pub fn is_disjoint(&self, other: &Congruence) -> bool {
        let g = gcd(u128::from(self.modulus), u128::from(other.modulus));
        let diff = i128::from(self.rem) - i128::from(other.rem);
        if g == 0 {
            diff != 0
        } else {
            diff.rem_euclid(g as i128) != 0
        }
    }

    /// Abstract addition.
    pub fn add(&self, other: &Congruence) -> Congruence {
        Congruence::exact(
            gcd(u128::from(self.modulus), u128::from(other.modulus)),
            i128::from(self.rem) + i128::from(other.rem),
        )
    }

    /// Abstract negation.
    pub fn neg(&self) -> Congruence {
        Congruence::exact(u128::from(self.modulus), -i128::from(self.rem))
    }

    /// Join: the least congruence containing both classes.
    pub fn join(&self, other: &Congruence) -> Congruence {
        let diff = (i128::from(self.rem) - i128::from(other.rem)).unsigned_abs();
        Congruence::exact(
            gcd(
                gcd(u128::from(self.modulus), u128::from(other.modulus)),
                diff,
            ),
            i128::from(self.rem),
        )
    }
}

/// The abstract value of one output component: interval × congruence.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbsInt {
    /// Range information.
    pub interval: Interval,
    /// Divisibility information.
    pub congruence: Congruence,
}

impl AbsInt {
    /// Top (no information).
    pub fn top() -> Self {
        AbsInt {
            interval: Interval::top(),
            congruence: Congruence::top(),
        }
    }

    /// The exact constant `c`.
    pub fn constant(c: i64) -> Self {
        AbsInt {
            interval: Interval::constant(c),
            congruence: Congruence::constant(c),
        }
    }

    /// Membership test.
    pub fn contains(&self, v: i64) -> bool {
        self.interval.contains(v) && self.congruence.contains(v)
    }

    /// The single member, when either component pins one down.
    pub fn as_constant(&self) -> Option<i64> {
        match (self.interval.lo, self.interval.hi) {
            (Some(lo), Some(hi)) if lo == hi => Some(lo),
            _ if self.congruence.modulus == 0 => Some(self.congruence.rem),
            _ => None,
        }
    }

    /// Abstract addition.
    pub fn add(&self, other: &AbsInt) -> AbsInt {
        AbsInt {
            interval: self.interval.add(&other.interval),
            congruence: self.congruence.add(&other.congruence),
        }
    }

    /// Abstract negation.
    pub fn neg(&self) -> AbsInt {
        AbsInt {
            interval: self.interval.neg(),
            congruence: self.congruence.neg(),
        }
    }

    /// Join.
    pub fn join(&self, other: &AbsInt) -> AbsInt {
        AbsInt {
            interval: self.interval.join(&other.interval),
            congruence: self.congruence.join(&other.congruence),
        }
    }

    /// Widening (intervals widen; congruences have finite chains and join).
    pub fn widen(&self, newer: &AbsInt) -> AbsInt {
        AbsInt {
            interval: self.interval.widen(&newer.interval),
            congruence: self.congruence.join(&newer.congruence),
        }
    }

    /// Symbolic concretization: constraints satisfied by every member, over
    /// the output variable `out` (auxiliary congruence multiplier variables
    /// are named from `aux_name`).
    pub fn to_formula(&self, out: &Var, aux_name: &str) -> Formula {
        let mut conjuncts = Vec::new();
        let o = LinearExpr::var(out.clone());
        if let Some(lo) = self.interval.lo {
            conjuncts.push(Formula::ge(o.clone(), LinearExpr::constant(lo)));
        }
        if let Some(hi) = self.interval.hi {
            conjuncts.push(Formula::le(o.clone(), LinearExpr::constant(hi)));
        }
        if self.congruence.modulus == 0 {
            conjuncts.push(Formula::eq(o, LinearExpr::constant(self.congruence.rem)));
        } else if self.congruence.modulus > 1 {
            // o = rem + m·k for some integer k
            let k = Var::new(aux_name);
            let rhs = LinearExpr::var(k).scale(self.congruence.modulus as i64)
                + LinearExpr::constant(self.congruence.rem);
            conjuncts.push(Formula::eq(o, rhs));
        }
        Formula::and(conjuncts)
    }
}

/// A three-valued abstract Boolean.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbsBool {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// Unknown (may be either).
    Top,
}

impl AbsBool {
    /// Abstraction of a concrete Boolean.
    pub fn of(b: bool) -> Self {
        if b {
            AbsBool::True
        } else {
            AbsBool::False
        }
    }

    /// Join.
    pub fn join(&self, other: &AbsBool) -> AbsBool {
        if self == other {
            *self
        } else {
            AbsBool::Top
        }
    }

    /// Three-valued negation.
    pub fn not(&self) -> AbsBool {
        match self {
            AbsBool::True => AbsBool::False,
            AbsBool::False => AbsBool::True,
            AbsBool::Top => AbsBool::Top,
        }
    }

    /// Three-valued conjunction.
    pub fn and(&self, other: &AbsBool) -> AbsBool {
        match (self, other) {
            (AbsBool::False, _) | (_, AbsBool::False) => AbsBool::False,
            (AbsBool::True, AbsBool::True) => AbsBool::True,
            _ => AbsBool::Top,
        }
    }

    /// Three-valued disjunction.
    pub fn or(&self, other: &AbsBool) -> AbsBool {
        match (self, other) {
            (AbsBool::True, _) | (_, AbsBool::True) => AbsBool::True,
            (AbsBool::False, AbsBool::False) => AbsBool::False,
            _ => AbsBool::Top,
        }
    }

    /// Abstract comparison of two [`AbsInt`]s.
    pub fn less_than(a: &AbsInt, b: &AbsInt) -> AbsBool {
        match (a.interval.hi, b.interval.lo) {
            (Some(ah), Some(bl)) if ah < bl => return AbsBool::True,
            _ => {}
        }
        match (a.interval.lo, b.interval.hi) {
            (Some(al), Some(bh)) if al >= bh => return AbsBool::False,
            _ => {}
        }
        AbsBool::Top
    }

    /// Abstract equality of two [`AbsInt`]s: definitely true for one
    /// shared constant, definitely false when the intervals or the
    /// congruences are disjoint.
    pub fn equal(a: &AbsInt, b: &AbsInt) -> AbsBool {
        match (a.as_constant(), b.as_constant()) {
            (Some(x), Some(y)) if x == y => AbsBool::True,
            _ if AbsBool::less_than(a, b) == AbsBool::True
                || AbsBool::less_than(b, a) == AbsBool::True
                || a.congruence.is_disjoint(&b.congruence) =>
            {
                AbsBool::False
            }
            _ => AbsBool::Top,
        }
    }
}

/// The abstract value of a nonterminal: one component per input example,
/// or `Bottom` for a nonterminal that derives no terms yet.
#[derive(Clone, PartialEq, Debug)]
pub enum AbsValue {
    /// No derivable term (the least element).
    Bottom,
    /// An integer-sorted abstraction, one [`AbsInt`] per example.
    Int(Vec<AbsInt>),
    /// A Boolean-sorted abstraction, one [`AbsBool`] per example.
    Bool(Vec<AbsBool>),
}

impl AbsValue {
    /// Join of two abstract values.
    ///
    /// # Panics
    /// Panics when joining an integer value with a Boolean value.
    pub fn join(&self, other: &AbsValue) -> AbsValue {
        match (self, other) {
            (AbsValue::Bottom, v) | (v, AbsValue::Bottom) => v.clone(),
            (AbsValue::Int(a), AbsValue::Int(b)) => {
                AbsValue::Int(a.iter().zip(b).map(|(x, y)| x.join(y)).collect())
            }
            (AbsValue::Bool(a), AbsValue::Bool(b)) => {
                AbsValue::Bool(a.iter().zip(b).map(|(x, y)| x.join(y)).collect())
            }
            _ => panic!("cannot join values of different sorts"),
        }
    }

    /// Widening of two abstract values (old, new).
    pub fn widen(&self, newer: &AbsValue) -> AbsValue {
        match (self, newer) {
            (AbsValue::Bottom, v) | (v, AbsValue::Bottom) => v.clone(),
            (AbsValue::Int(a), AbsValue::Int(b)) => {
                AbsValue::Int(a.iter().zip(b).map(|(x, y)| x.widen(y)).collect())
            }
            (AbsValue::Bool(a), AbsValue::Bool(b)) => {
                AbsValue::Bool(a.iter().zip(b).map(|(x, y)| x.join(y)).collect())
            }
            _ => panic!("cannot widen values of different sorts"),
        }
    }

    /// `true` if this is the bottom element.
    pub fn is_bottom(&self) -> bool {
        matches!(self, AbsValue::Bottom)
    }
}

impl fmt::Display for AbsInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = self.as_constant() {
            return write!(f, "{c}");
        }
        match self.interval.lo {
            Some(lo) => write!(f, "[{lo}, ")?,
            None => write!(f, "(-∞, ")?,
        }
        match self.interval.hi {
            Some(hi) => write!(f, "{hi}]")?,
            None => write!(f, "+∞)")?,
        }
        match self.congruence.modulus {
            0 | 1 => Ok(()),
            m => write!(f, " ≡ {} mod {m}", self.congruence.rem),
        }
    }
}

impl fmt::Display for AbsValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let components: Vec<String> = match self {
            AbsValue::Bottom => return write!(f, "⊥"),
            AbsValue::Int(v) => v.iter().map(AbsInt::to_string).collect(),
            AbsValue::Bool(v) => v
                .iter()
                .map(|b| match b {
                    AbsBool::True => "true".to_string(),
                    AbsBool::False => "false".to_string(),
                    AbsBool::Top => "{true, false}".to_string(),
                })
                .collect(),
        };
        match components.as_slice() {
            [one] => write!(f, "{one}"),
            many => write!(f, "({})", many.join(", ")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_operations() {
        let a = Interval::constant(3);
        let b = Interval {
            lo: Some(0),
            hi: None,
        };
        assert!(a.add(&a).contains(6));
        assert_eq!(a.neg(), Interval::constant(-3));
        let j = a.join(&Interval::constant(10));
        assert!(j.contains(3) && j.contains(10) && j.contains(7));
        assert!(!j.contains(11));
        assert!(b.contains(1_000_000));
        assert!(!b.contains(-1));
    }

    #[test]
    fn interval_widening_goes_to_infinity() {
        let old = Interval {
            lo: Some(0),
            hi: Some(3),
        };
        let new = Interval {
            lo: Some(0),
            hi: Some(6),
        };
        let w = old.widen(&new);
        assert_eq!(w.lo, Some(0));
        assert_eq!(w.hi, None);
    }

    #[test]
    fn congruence_operations() {
        let three = Congruence::constant(3);
        let six = Congruence::constant(6);
        // join of the constants 3 and 6 is 0 (mod 3)
        let j = three.join(&six);
        assert_eq!(j.modulus, 3);
        assert!(j.contains(0) && j.contains(9));
        assert!(!j.contains(4));
        // adding two multiples-of-3 stays a multiple of 3
        let sum = j.add(&j);
        assert_eq!(sum.modulus, 3);
        assert!(sum.contains(6));
        assert!(!sum.contains(7));
        assert!(Congruence::top().contains(-17));
    }

    #[test]
    fn absint_tracks_both_components() {
        // {0, 3, 6, …}: interval [0, ∞) and ≡ 0 (mod 3)
        let zero = AbsInt::constant(0);
        let three = AbsInt::constant(3);
        let mut acc = zero;
        for _ in 0..3 {
            acc = acc.join(&acc.add(&three));
        }
        let widened = zero.widen(&acc);
        assert!(widened.contains(0));
        assert!(widened.contains(300));
        assert!(!widened.contains(4), "4 is not ≡ 0 mod 3");
        assert!(!widened.contains(-3), "interval keeps the lower bound 0");
    }

    #[test]
    fn absint_formula_round_trip() {
        use logic::{Model, Solver};
        let a = AbsInt {
            interval: Interval {
                lo: Some(0),
                hi: None,
            },
            congruence: Congruence { modulus: 3, rem: 0 },
        };
        let out = Var::new("o");
        let f = a.to_formula(&out, "k");
        // 6 is a member, 4 is not, -3 is not
        let solver = Solver::default();
        let check = |v: i64| {
            let pinned = Formula::and(vec![
                f.clone(),
                Formula::eq(LinearExpr::var(out.clone()), LinearExpr::constant(v)),
            ]);
            solver.check(&pinned).is_sat()
        };
        assert!(check(6));
        assert!(!check(4));
        assert!(!check(-3));
        // direct model evaluation also works for members
        let mut m = Model::new();
        m.set(out.clone(), 6);
        m.set(Var::new("k"), 2);
        assert!(f.eval(&m));
    }

    #[test]
    fn absbool_lattice() {
        assert_eq!(AbsBool::True.join(&AbsBool::True), AbsBool::True);
        assert_eq!(AbsBool::True.join(&AbsBool::False), AbsBool::Top);
        assert_eq!(AbsBool::Top.not(), AbsBool::Top);
        assert_eq!(AbsBool::True.and(&AbsBool::Top), AbsBool::Top);
        assert_eq!(AbsBool::False.and(&AbsBool::Top), AbsBool::False);
        assert_eq!(AbsBool::True.or(&AbsBool::Top), AbsBool::True);
    }

    #[test]
    fn abstract_less_than() {
        let small = AbsInt {
            interval: Interval {
                lo: Some(0),
                hi: Some(1),
            },
            congruence: Congruence::top(),
        };
        let big = AbsInt {
            interval: Interval {
                lo: Some(5),
                hi: Some(9),
            },
            congruence: Congruence::top(),
        };
        assert_eq!(AbsBool::less_than(&small, &big), AbsBool::True);
        assert_eq!(AbsBool::less_than(&big, &small), AbsBool::False);
        assert_eq!(AbsBool::less_than(&small, &small), AbsBool::Top);
    }

    #[test]
    fn value_join_and_bottom() {
        let a = AbsValue::Int(vec![AbsInt::constant(1)]);
        let b = AbsValue::Int(vec![AbsInt::constant(5)]);
        let j = a.join(&b);
        match &j {
            AbsValue::Int(v) => {
                assert!(v[0].contains(1) && v[0].contains(5));
                assert!(!v[0].contains(2), "congruence 1 mod 4 excludes 2");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(AbsValue::Bottom.join(&a), a);
        assert!(AbsValue::Bottom.is_bottom());
    }

    #[test]
    fn interval_bounds_that_overflow_become_unbounded() {
        let max = Interval::constant(i64::MAX);
        assert_eq!(max.add(&Interval::constant(1)), Interval::top());
        assert_eq!(
            max.add(&Interval::constant(-1)),
            Interval::constant(i64::MAX - 1)
        );
        let min = Interval::constant(i64::MIN);
        assert_eq!(min.add(&Interval::constant(-1)), Interval::top());
        // −i64::MIN does not fit: the lower bound of the negation is lost
        let neg = Interval {
            lo: Some(i64::MIN),
            hi: Some(0),
        }
        .neg();
        assert_eq!((neg.lo, neg.hi), (Some(0), None));
        assert!(neg.contains(i64::MAX));
        assert_eq!(
            Interval::constant(i64::MAX).neg(),
            Interval::constant(-i64::MAX)
        );
    }

    #[test]
    fn congruences_that_overflow_become_top() {
        let max = Congruence::constant(i64::MAX);
        assert_eq!(max.add(&max), Congruence::top());
        assert_eq!(Congruence::constant(i64::MIN).neg(), Congruence::top());
        assert_eq!(
            Congruence::constant(i64::MIN).add(&Congruence::constant(-1)),
            Congruence::top()
        );
        // the join's modulus |MAX − MIN| = 2^64 − 1 exceeds i64::MAX
        let wide = max.join(&Congruence::constant(i64::MIN));
        assert_eq!(wide, Congruence::top());
        // exact arithmetic still works right up to the edge
        let edge = Congruence::constant(i64::MAX - 1).add(&Congruence::constant(1));
        assert_eq!(edge, Congruence::constant(i64::MAX));
        let even = Congruence::constant(i64::MIN).join(&Congruence::constant(0));
        assert_eq!(even, Congruence::top(), "modulus 2^63 does not fit");
        // i64::MAX ≡ 1 (mod 3): the sum is computed without wrapping
        let step = Congruence { modulus: 3, rem: 2 }.add(&max);
        assert_eq!(step, Congruence { modulus: 3, rem: 0 });
        assert!(Congruence { modulus: 3, rem: 0 }.contains(i64::MIN + 2));
        assert!(!Congruence { modulus: 3, rem: 0 }.contains(i64::MIN));
    }

    #[test]
    fn equality_uses_both_components() {
        let even = AbsInt {
            interval: Interval::top(),
            congruence: Congruence { modulus: 2, rem: 0 },
        };
        let odd = AbsInt {
            interval: Interval::top(),
            congruence: Congruence { modulus: 2, rem: 1 },
        };
        assert_eq!(AbsBool::equal(&even, &odd), AbsBool::False);
        assert_eq!(AbsBool::equal(&even, &even), AbsBool::Top);
        let three_mod_six = AbsInt {
            interval: Interval::top(),
            congruence: Congruence { modulus: 6, rem: 3 },
        };
        assert_eq!(
            AbsBool::equal(&three_mod_six, &AbsInt::constant(9)),
            AbsBool::Top
        );
        assert_eq!(
            AbsBool::equal(&three_mod_six, &AbsInt::constant(4)),
            AbsBool::False
        );
        assert_eq!(
            AbsBool::equal(&AbsInt::constant(4), &AbsInt::constant(4)),
            AbsBool::True
        );
        assert_eq!(
            AbsBool::equal(&AbsInt::constant(4), &AbsInt::constant(5)),
            AbsBool::False
        );
    }
}
