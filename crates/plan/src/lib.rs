//! # datacell-plan
//!
//! Query plans for DataCell, in two layers mirroring MonetDB's stack:
//!
//! * [`LogicalPlan`] — the relational tree the SQL front-end produces
//!   (scans over streams/tables, filters, joins, grouping, aggregation,
//!   projection, ordering);
//! * [`MalPlan`] — a flat, MAL-like physical program of columnar kernel
//!   calls with **explicit intermediates**: every instruction materializes
//!   its result into a named variable. The DataCell rewriter (in
//!   `datacell-core`) operates on this representation, because explicit
//!   intermediates are what make it possible to "freeze" a plan at any
//!   operator boundary and resume it with new data (paper §3).
//!
//! [`compile`](mod@compile) lowers logical plans to MAL programs; [`exec`] interprets a
//! MAL program against one set of stream windows + the catalog — this is
//! both the one-time-query path and the DataCellR re-evaluation baseline.

pub mod compile;
pub mod error;
pub mod exec;
pub mod logical;
pub mod mal;
pub mod optimize;
pub mod result;
pub mod verify;
pub mod window;

pub use compile::compile;
pub use error::PlanError;
pub use exec::{execute, ExecCtx};
pub use logical::{AggExpr, ColumnRef, LogicalPlan};
pub use mal::{Instr, MalOp, MalPlan, MalValue, VarId};
pub use optimize::optimize;
pub use result::ResultSet;
pub use verify::{
    checked_pass, verify_all, NoSchema, Rule, SchemaOverlay, SchemaSource, VerifyError,
};
pub use window::WindowSpec;

/// Result alias for plan operations.
pub type Result<T> = std::result::Result<T, PlanError>;
