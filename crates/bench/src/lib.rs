//! # datacell-bench
//!
//! Workload generators and per-figure harnesses reproducing the paper's
//! evaluation (§4). Binaries `fig4` … `fig10` each regenerate one figure's
//! series. `scale` runs the declared scaling sweeps (`scale [sweep …]`):
//! the partitioned kernel operators over fan-out and placement, the
//! sliding join strip, the CSV parser, the
//! parallel Petri-net scheduler over worker counts, and the sequential
//! kernel operators with their P = 1 vs P = 2 crossover — every point a
//! wirebench-style `name value unit` line. `lint` and `metrics_dump` are
//! CI gates.
//!
//! Absolute numbers differ from the paper (different hardware, different
//! substrate); the targets are the *shapes*: who wins, by what factor, and
//! where the crossovers fall. `EXPERIMENTS.md` records both.

pub mod args;
pub mod runner;
pub mod table;
pub mod workload;

pub use args::Args;
pub use runner::{
    run_q1, run_q2, run_q3_landmark, run_sysx_q2, Mode, Q1Config, Q2Config, Q3Config, RunOutcome,
};
pub use table::{fmt_duration, print_table};
pub use workload::{
    csv_for_stream, gen_join_stream, gen_q1_stream, lcg_int_bat, lcg_str_bat, selectivity_threshold,
};
