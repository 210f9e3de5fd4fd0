//! # DataCell
//!
//! A full reproduction of **"Enhanced Stream Processing in a DBMS Kernel"**
//! (E. Liarou, S. Idreos, S. Manegold, M. Kersten — EDBT 2013): a stream
//! engine built *on top of* a column-store DBMS kernel, where incremental
//! sliding-window processing is obtained by **query plan rewriting** rather
//! than specialized stream operators.
//!
//! This facade crate re-exports the full stack:
//!
//! * [`kernel`] — the MonetDB-like column-store substrate (BATs + bulk
//!   columnar algebra);
//! * [`basket`] — stream ingress: baskets and receptors;
//! * [`plan`] — logical plans, MAL-like physical plans, one-shot execution;
//! * [`core`] — the paper's contribution: the incremental plan rewriter,
//!   factories, the Petri-net scheduler and the `DataCell` engine itself;
//! * [`sql`] — a SQL subset front-end with continuous-query window clauses;
//! * [`net`] — the network edge: a std-only nonblocking TCP server
//!   multiplexing many ingest connections onto the stream baskets,
//!   fanning query results out to subscribers, and serving `/metrics`;
//! * [`sysx`] — a simulated specialized tuple-at-a-time stream engine, the
//!   paper's commercial "SystemX" baseline;
//! * [`telemetry`] — runtime observability: counters, gauges, latency
//!   histograms and a Prometheus-text exposition surface (see
//!   `Engine::telemetry_snapshot`).
//!
//! ## Quick start
//!
//! ```
//! use datacell::prelude::*;
//!
//! // An engine with one input stream carrying two int attributes.
//! let mut engine = Engine::new();
//! engine.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
//!
//! // Continuous query: per sliding window of 4 tuples, step 2:
//! //   SELECT sum(x2) FROM s WHERE x1 > 10
//! let q = engine
//!     .register_sql("SELECT sum(x2) FROM s WHERE x1 > 10 WINDOW SIZE 4 SLIDE 2")
//!     .unwrap();
//!
//! // Feed tuples; the scheduler fires factories as windows fill.
//! engine.append("s", &[
//!     Column::Int(vec![5, 20, 30, 7, 40, 8]),
//!     Column::Int(vec![1, 2, 3, 4, 5, 6]),
//! ]).unwrap();
//! engine.run_until_idle().unwrap();
//!
//! // Two complete windows -> two results.
//! let out = engine.drain_results(q).unwrap();
//! assert_eq!(out.len(), 2);
//! ```

pub use datacell_basket as basket;
pub use datacell_core as core;
pub use datacell_kernel as kernel;
pub use datacell_net as net;
pub use datacell_plan as plan;
pub use datacell_sql as sql;
pub use datacell_telemetry as telemetry;
pub use sysx;

/// Most commonly used items across the stack.
pub mod prelude {
    pub use datacell_basket::{BasicWindow, Basket, ShardedBasket};
    pub use datacell_core::{DataCellError, Engine, ExecMode, QueryId, WindowSpec};
    pub use datacell_kernel::{Bat, Column, DataType, Value};
    pub use datacell_plan::LogicalPlan;
}
