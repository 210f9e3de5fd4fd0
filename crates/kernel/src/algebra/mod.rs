//! Columnar bulk algebra.
//!
//! Every operator consumes whole columns (or candidate lists) and fully
//! materializes its result — MonetDB's operator-at-a-time execution model.
//! The DataCell rewriter relies on two properties of this algebra:
//!
//! 1. every operator boundary is a materialized intermediate, so a plan can
//!    be "frozen" after any operator and "resumed" later by re-reading the
//!    intermediate (paper §3, *Exploit Column-store Intermediates*);
//! 2. `concat` composes partial results of replicated plan fragments, and a
//!    small set of *compensating actions* (re-aggregation, re-grouping)
//!    restores full-query semantics after a merge (paper §3, Fig. 3).

mod aggregate;
mod concat;
mod fetch;
mod group;
mod join;
mod map;
mod select;
mod sort;

pub use aggregate::{avg, count, max, min, sum, AggKind};
pub use aggregate::{count_grouped, max_grouped, min_grouped, sum_grouped};
pub use concat::{concat, concat_columns};
pub use fetch::{fetch, fetch_oids};
pub use group::{group, group_derive, Groups};
pub use join::{hashjoin, JoinIndex};
pub(crate) use join::{hashjoin_with, join_build_probe};
pub use map::{div_values, map_arith, map_arith_scalar, ArithOp};
pub use select::{select, select_range, select_slice, CmpOp, Predicate};
pub use sort::{apply_perm, distinct, row_cmp, sort, sort_perm, topn};
