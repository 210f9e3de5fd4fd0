//! # datacell-kernel
//!
//! A miniature column-store execution kernel modelled after MonetDB, the
//! substrate on which the DataCell stream engine (EDBT 2013) is built.
//!
//! The kernel provides:
//!
//! * [`Column`] — monomorphic typed vectors, the unit of storage;
//! * [`Bat`] — *Binary Association Tables*: a virtual head of densely
//!   ascending object identifiers ([`Oid`]) paired with a tail column;
//! * bulk, operator-at-a-time columnar algebra in [`algebra`] — every
//!   operator consumes whole columns and **fully materializes** its result.
//!   This materialization property is exactly what DataCell exploits to
//!   freeze/resume query plans at arbitrary points (paper §3, *Exploit
//!   Column-store Intermediates*);
//! * a [`catalog::Catalog`] of persistent tables so that continuous queries
//!   can join streams against stored relations (paper Fig. 1: a single
//!   factory interacts with both baskets and tables);
//! * a partitioned parallel runtime in [`par`] — radix-partitioned hash
//!   join, chunk-parallel select, morsel-parallel fetch, and merged
//!   grouped-aggregate partials — so a single heavy operator can
//!   use several cores ([`ParConfig`] / `DATACELL_PARTITIONS`). When the
//!   caller vouches that its input is placement-aligned
//!   ([`ParConfig::with_aligned_input`]), the aggregate and join kernels
//!   elide their internal re-scatter.
//!
//! Design notes:
//!
//! * Selections produce *candidate lists* (BATs with an `Oid` tail), which
//!   other operators accept for late tuple reconstruction, mirroring
//!   MonetDB's two-phase select/fetch execution.
//! * There is no NULL support: streams in the paper's evaluation are
//!   NULL-free, and omitting NULLs keeps the bulk loops branch-free.
//! * Grouping and join keys must be hashable (`Int`, `Str`, `Bool`, `Oid`);
//!   `Float` keys are rejected with [`KernelError::TypeMismatch`].

pub mod algebra;
pub mod bat;
pub mod catalog;
pub mod column;
pub mod error;
pub mod hash;
pub mod par;
pub mod value;

pub use bat::Bat;
pub use catalog::{Catalog, Table};
pub use column::{Column, ColumnSlice};
pub use error::KernelError;
pub use hash::Placement;
pub use par::{ParConfig, PlacementMode};
pub use value::{DataType, Value};

/// Object identifier: the position of a tuple in its (possibly unbounded)
/// stream or table, counted from the first tuple ever inserted.
pub type Oid = u64;

/// Result alias used throughout the kernel.
pub type Result<T> = std::result::Result<T, KernelError>;
