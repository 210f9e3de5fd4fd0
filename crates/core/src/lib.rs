//! # datacell-core
//!
//! The DataCell engine — the primary contribution of *"Enhanced Stream
//! Processing in a DBMS Kernel"* (EDBT 2013): incremental sliding-window
//! processing obtained by **query plan rewriting** on top of an unmodified
//! column-store kernel.
//!
//! Components (paper section in parentheses):
//!
//! * [`rewrite`](mod@rewrite) — the incremental plan rewriter (§3): splits the window
//!   into basic windows, replicates plan fragments, inserts `concat` +
//!   compensating actions, classifies join flows into the n×n matrix of
//!   Fig. 3e (evaluated per expiry slot);
//! * [`merge`] — [`merge::merge_frontier`], the one `concat` +
//!   compensation step, called at the window, landmark and chunk level,
//!   and [`merge::fold_part`], the same rule folding join cells into the
//!   slot that expires them;
//! * [`factory`] — continuous query plans as resumable state machines
//!   (§2): [`factory::incremental::IncrementalFactory`] (Algorithm 2) and
//!   [`factory::reeval::ReevalFactory`] (Algorithm 1, the DataCellR
//!   baseline);
//! * [`adaptive`] — the self-adapting m-chunk controller (§3, Fig. 8);
//! * [`scheduler`] — the Petri-net scheduler (§2): one drain loop whose
//!   executor is the calling thread (one worker) or a worker pool firing
//!   independent transitions concurrently;
//! * [`engine`] — the facade tying baskets, catalog, factories, scheduler
//!   and result delivery together (Fig. 1);
//! * [`config`] — [`EngineConfig`], the one reader of the engine's
//!   `DATACELL_*` environment variables.

pub mod adaptive;
pub mod config;
pub mod engine;
pub mod error;
pub mod factory;
pub mod merge;
pub mod metrics;
pub mod rewrite;
pub mod scheduler;

pub use adaptive::AdaptiveChunker;
pub use config::{parse_count, EngineConfig};
pub use engine::{Engine, ExecMode, QueryId, RegisterOptions};
pub use error::DataCellError;
pub use factory::incremental::IncrementalFactory;
pub use factory::reeval::ReevalFactory;
pub use factory::{Factory, FireOutcome, StreamInput};
pub use metrics::{summarize, MetricsSummary, SlideMetrics};
pub use rewrite::{
    rewrite, verify_incremental, Cluster, IncrementalPlan, MergeUnit, Stage, VarKind,
};
pub use scheduler::{Emission, FactoryId, Scheduler, WorkerStats};

// Re-export the window spec and result type from the plan layer so users
// (and custom-factory authors) have one import.
pub use datacell_plan::{ResultSet, WindowSpec};
