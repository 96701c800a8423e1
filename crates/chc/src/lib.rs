//! Constrained Horn clauses (CHCs) and an approximate Horn solver.
//!
//! §4.3 of the paper observes that the GFA equations of a SyGuS-with-examples
//! problem can be encoded as constrained Horn clauses (one predicate per
//! nonterminal, Example 4.7) and handed to an off-the-shelf Horn solver such
//! as Spacer; this is the `nayHorn` mode of the tool. This crate provides:
//!
//! * [`encode`] — the CHC encoding itself (printable in an SMT-LIB-like
//!   syntax),
//! * [`domain`] — a numeric abstract domain (intervals × congruences per
//!   example, three-valued Booleans for Boolean nonterminals),
//! * [`HornSolver`] — a sound, incomplete solver that discharges the Horn
//!   query by abstract interpretation with widening over that domain. It is
//!   the workspace's one abstract interpreter: nayHorn's back end, nope's
//!   proof lane and the presolve's refutation lane.
//!
//! The abstract-interpretation solver replaces Z3/Spacer (unavailable in this
//! reproduction); like Spacer it either *proves* the query unsatisfiable —
//! establishing unrealizability — or gives up with `Unknown`. README's
//! "Solver substitutions" section gives the rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod encode;
mod solver;

pub use encode::{HornClause, HornSystem, PredicateApp};
pub use solver::{Fixpoint, HornSolver, HornVerdict};
