//! The CARDIRECT query language.
//!
//! Section 4 of the paper defines queries
//! `q = {(x1, …, xn) | φ(x1, …, xn)}` where `φ` is a conjunction of
//!
//! * cardinal direction constraints `x_i R x_j` with `R ∈ 2^{D*}`
//!   (possibly disjunctive, written `x {N, W} y`),
//! * thematic restrictions `f(x_i) = c` (e.g. `color(x) = blue`), and
//! * direct region references `x_i = a`.
//!
//! The paper's running example — "find all regions of the Athenean
//! Alliance which are surrounded by a region in the Spartan Alliance" —
//! reads, verbatim in this syntax:
//!
//! ```text
//! { (a, b) | color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b }
//! ```
//!
//! [`parse_query`] builds the AST; [`evaluate`] runs it over a
//! [`crate::Configuration`] by backtracking join with unary pre-filtering;
//! [`evaluate_indexed`] additionally prunes direction candidates by
//! testing each region's bounding box against the hull of the relation's
//! tiles (the classic GIS filter step, over a flat column of MBBs).

mod ast;
mod eval;
mod parser;
mod token;

pub use ast::{Condition, Query};
pub use eval::{
    evaluate, evaluate_indexed, evaluate_indexed_with_stats, evaluate_with_stats, Binding,
    ConjunctStats, EvalError, EvalStats, RegionIndex,
};
pub use parser::{parse_query, QueryParseError};
pub use token::{tokenize, tokenize_spanned, LexError, Token};
