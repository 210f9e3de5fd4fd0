//! Query runners: set up an engine, feed a workload, collect per-slide
//! metrics — the shared machinery behind every figure harness.

use crate::workload::{gen_join_stream, gen_q1_stream, selectivity_threshold};
use datacell_core::{
    AdaptiveChunker, Engine, ExecMode, QueryId, RegisterOptions, ResultSet, SlideMetrics,
};
use datacell_kernel::DataType;
use std::time::{Duration, Instant};
use sysx::{QuerySpec, SysxEngine};

/// Execution strategy under measurement.
#[derive(Debug, Clone)]
pub enum Mode {
    /// Incremental DataCell.
    DataCell,
    /// Re-evaluation baseline.
    DataCellR,
    /// Incremental with a fixed chunk count `m`.
    Chunked(usize),
    /// Incremental with the self-adapting chunker (max m, probe window).
    Adaptive {
        /// Ceiling for the probed `m`.
        max_m: usize,
        /// Slides per probe phase.
        probe_every: usize,
    },
}

impl Mode {
    fn options(&self) -> RegisterOptions {
        match self {
            Mode::DataCell => RegisterOptions { mode: ExecMode::Incremental, chunker: None },
            Mode::DataCellR => RegisterOptions { mode: ExecMode::Reevaluation, chunker: None },
            Mode::Chunked(m) => RegisterOptions {
                mode: ExecMode::Incremental,
                chunker: Some(AdaptiveChunker::fixed(*m)),
            },
            Mode::Adaptive { max_m, probe_every } => RegisterOptions {
                mode: ExecMode::Incremental,
                chunker: Some(AdaptiveChunker::new(*max_m, *probe_every)),
            },
        }
    }

    /// Display label matching the paper's naming.
    pub fn label(&self) -> String {
        match self {
            Mode::DataCell => "DataCell".into(),
            Mode::DataCellR => "DataCellR".into(),
            Mode::Chunked(m) => format!("DataCell(m={m})"),
            Mode::Adaptive { .. } => "DataCell(adaptive)".into(),
        }
    }
}

/// Everything a harness needs from one run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-produced-window metrics.
    pub per_window: Vec<SlideMetrics>,
    /// End-to-end wall time (feeding + scheduling + processing).
    pub wall: Duration,
    /// Total result rows across all windows.
    pub rows: usize,
    /// Per-produced-window results (empty for the SystemX simulator).
    pub results: Vec<ResultSet>,
}

impl RunOutcome {
    /// Mean per-window response time.
    pub fn mean_response(&self) -> Duration {
        if self.per_window.is_empty() {
            return Duration::ZERO;
        }
        self.per_window.iter().map(|m| m.total).sum::<Duration>() / self.per_window.len() as u32
    }

    /// Total time spent in the original plan operators.
    pub fn main_plan_total(&self) -> Duration {
        self.per_window.iter().map(|m| m.main_plan).sum()
    }

    /// Total time spent in merge machinery.
    pub fn merge_total(&self) -> Duration {
        self.per_window.iter().map(|m| m.merge).sum()
    }

    /// Whether both runs produced the same windows, each with the same rows
    /// in any order.
    pub fn agrees_with(&self, other: &RunOutcome) -> bool {
        self.results.len() == other.results.len()
            && self
                .results
                .iter()
                .zip(&other.results)
                .all(|(a, b)| a.sorted_rows() == b.sorted_rows())
    }
}

/// Q1 configuration (single-stream select + group-by + sum).
#[derive(Debug, Clone)]
pub struct Q1Config {
    /// Window size in tuples (`|W|`).
    pub window: usize,
    /// Step in tuples (`|w|`).
    pub step: usize,
    /// Selection selectivity in `[0,1]`.
    pub selectivity: f64,
    /// Number of produced windows to measure.
    pub windows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Q1Config {
    /// Total tuples the run consumes: the initial window plus one step per
    /// additional produced window — `|W| + (windows-1)·|w|`.
    pub fn total_tuples(&self) -> usize {
        self.window + self.windows.saturating_sub(1) * self.step
    }
}

/// Q2 configuration (two-stream join + max + avg).
#[derive(Debug, Clone)]
pub struct Q2Config {
    /// Window size per stream.
    pub window: usize,
    /// Step per stream.
    pub step: usize,
    /// Join key domain (join selectivity = 1/key_domain).
    pub key_domain: i64,
    /// Number of produced windows.
    pub windows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Q2Config {
    /// Tuples consumed per stream: `|W| + (windows-1)·|w|`.
    pub fn total_tuples(&self) -> usize {
        self.window + self.windows.saturating_sub(1) * self.step
    }
}

/// Q3 configuration (landmark max + sum).
#[derive(Debug, Clone)]
pub struct Q3Config {
    /// Landmark step (result cadence).
    pub step: usize,
    /// Selection selectivity.
    pub selectivity: f64,
    /// Number of produced results.
    pub windows: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Drain the query: every window's result and the slide record that came
/// with it.
fn drain(engine: &mut Engine, q: QueryId, wall: Duration) -> RunOutcome {
    let drained = engine.drain_with_metrics(q).expect("query exists");
    let (results, per_window): (Vec<ResultSet>, Vec<SlideMetrics>) = drained.into_iter().unzip();
    let rows = per_window.iter().map(|m| m.rows).sum();
    RunOutcome { per_window, wall, rows, results }
}

/// Run Q1 — `SELECT x1, sum(x2) FROM s WHERE x1 > v GROUP BY x1` — in the
/// given mode; feed in step-sized batches like a receptor would.
pub fn run_q1(mode: &Mode, cfg: &Q1Config) -> RunOutcome {
    let mut engine = Engine::new();
    engine.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    let thr = selectivity_threshold(cfg.selectivity);
    let sql = format!(
        "SELECT x1, sum(x2) FROM s WHERE x1 > {thr} GROUP BY x1 WINDOW SIZE {} SLIDE {}",
        cfg.window, cfg.step
    );
    let q = engine.register_sql_with(&sql, mode.options()).unwrap();
    let data = gen_q1_stream(cfg.total_tuples(), cfg.seed);

    let t0 = Instant::now();
    feed_in_batches(&mut engine, "s", &data, cfg.step);
    let wall = t0.elapsed();
    drain(&mut engine, q, wall)
}

/// Run Q2 — `SELECT max(s1.v), avg(s2.v) FROM s1, s2 WHERE s1.k = s2.k`.
pub fn run_q2(mode: &Mode, cfg: &Q2Config) -> RunOutcome {
    let mut engine = Engine::new();
    engine.create_stream("s1", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    engine.create_stream("s2", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    let sql = format!(
        "SELECT max(s1.v), avg(s2.v) FROM s1, s2 WHERE s1.k = s2.k WINDOW SIZE {} SLIDE {}",
        cfg.window, cfg.step
    );
    let q = engine.register_sql_with(&sql, mode.options()).unwrap();
    let d1 = gen_join_stream(cfg.total_tuples(), cfg.key_domain, cfg.seed);
    let d2 = gen_join_stream(cfg.total_tuples(), cfg.key_domain, cfg.seed.wrapping_add(1));

    let t0 = Instant::now();
    feed_two_in_batches(&mut engine, ("s1", &d1), ("s2", &d2), cfg.step);
    let wall = t0.elapsed();
    drain(&mut engine, q, wall)
}

/// Run Q3 — `SELECT max(x1), sum(x2) FROM s WHERE x1 > v` over a landmark
/// window.
pub fn run_q3_landmark(mode: &Mode, cfg: &Q3Config) -> RunOutcome {
    let mut engine = Engine::new();
    engine.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    let thr = selectivity_threshold(cfg.selectivity);
    let sql = format!(
        "SELECT max(x1), sum(x2) FROM s WHERE x1 > {thr} WINDOW LANDMARK SLIDE {}",
        cfg.step
    );
    let q = engine.register_sql_with(&sql, mode.options()).unwrap();
    let data = gen_q1_stream(cfg.step * cfg.windows, cfg.seed);

    let t0 = Instant::now();
    feed_in_batches(&mut engine, "s", &data, cfg.step);
    let wall = t0.elapsed();
    drain(&mut engine, q, wall)
}

/// Run Q2 on the SystemX simulator (tuple-at-a-time): returns the wall
/// time for consuming the same workload and the produced window count.
pub fn run_sysx_q2(cfg: &Q2Config) -> RunOutcome {
    let d1 = gen_join_stream(cfg.total_tuples(), cfg.key_domain, cfg.seed);
    let d2 = gen_join_stream(cfg.total_tuples(), cfg.key_domain, cfg.seed.wrapping_add(1));
    let (k1, v1) = (d1[0].as_int().unwrap(), d1[1].as_int().unwrap());
    let (k2, v2) = (d2[0].as_int().unwrap(), d2[1].as_int().unwrap());

    let mut e = SysxEngine::new(QuerySpec::JoinMaxAvg, cfg.window, cfg.step);
    let t0 = Instant::now();
    for i in 0..cfg.total_tuples() {
        e.push_left(k1[i], v1[i]);
        e.push_right(k2[i], v2[i]);
    }
    let wall = t0.elapsed();
    let produced = e.emitted();
    RunOutcome {
        per_window: vec![SlideMetrics::default(); produced],
        wall,
        rows: e.drain_results().len(),
        results: Vec::new(),
    }
}

/// Feed a single stream in step-sized batches, scheduling after each batch
/// (the steady arrival pattern of the paper's experiments).
pub fn feed_in_batches(
    engine: &mut Engine,
    stream: &str,
    data: &[datacell_kernel::Column],
    batch: usize,
) {
    let n = data[0].len();
    let mut off = 0;
    while off < n {
        let len = batch.min(n - off);
        let chunk: Vec<datacell_kernel::Column> =
            data.iter().map(|c| c.slice_owned(off, len)).collect();
        engine.append(stream, &chunk).unwrap();
        engine.run_until_idle().unwrap();
        off += len;
    }
}

/// Feed two streams in lock-step batches.
pub fn feed_two_in_batches(
    engine: &mut Engine,
    (s1, d1): (&str, &[datacell_kernel::Column]),
    (s2, d2): (&str, &[datacell_kernel::Column]),
    batch: usize,
) {
    let n = d1[0].len().min(d2[0].len());
    let mut off = 0;
    while off < n {
        let len = batch.min(n - off);
        let c1: Vec<datacell_kernel::Column> = d1.iter().map(|c| c.slice_owned(off, len)).collect();
        let c2: Vec<datacell_kernel::Column> = d2.iter().map(|c| c.slice_owned(off, len)).collect();
        engine.append(s1, &c1).unwrap();
        engine.append(s2, &c2).unwrap();
        engine.run_until_idle().unwrap();
        off += len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_q1() -> Q1Config {
        Q1Config { window: 512, step: 64, selectivity: 0.2, windows: 6, seed: 11 }
    }

    #[test]
    fn q1_incremental_and_reeval_produce_same_row_counts() {
        let a = run_q1(&Mode::DataCell, &small_q1());
        let b = run_q1(&Mode::DataCellR, &small_q1());
        assert_eq!(a.per_window.len(), 6);
        assert_eq!(b.per_window.len(), 6);
        assert_eq!(a.rows, b.rows);
        assert!(a.rows > 0);
        assert!(a.agrees_with(&b));
    }

    #[test]
    fn q2_runs_and_emits() {
        let cfg = Q2Config { window: 256, step: 64, key_domain: 64, windows: 4, seed: 3 };
        let a = run_q2(&Mode::DataCell, &cfg);
        let b = run_q2(&Mode::DataCellR, &cfg);
        assert_eq!(a.per_window.len(), 4);
        assert_eq!(b.per_window.len(), 4);
        assert_eq!(a.results.len(), 4);
        assert!(a.agrees_with(&b));
    }

    #[test]
    fn q3_landmark_runs() {
        let cfg = Q3Config { step: 100, selectivity: 0.2, windows: 5, seed: 9 };
        let a = run_q3_landmark(&Mode::DataCell, &cfg);
        assert_eq!(a.per_window.len(), 5);
        let b = run_q3_landmark(&Mode::DataCellR, &cfg);
        assert_eq!(b.per_window.len(), 5);
    }

    #[test]
    fn sysx_q2_produces_same_window_count() {
        let cfg = Q2Config { window: 256, step: 64, key_domain: 64, windows: 4, seed: 3 };
        let s = run_sysx_q2(&cfg);
        assert_eq!(s.per_window.len(), 4);
    }

    #[test]
    fn chunked_mode_runs() {
        let cfg = Q1Config { window: 256, step: 64, selectivity: 0.2, windows: 4, seed: 5 };
        let a = run_q1(&Mode::Chunked(4), &cfg);
        assert_eq!(a.per_window.len(), 4);
        let b = run_q1(&Mode::Adaptive { max_m: 8, probe_every: 2 }, &cfg);
        assert_eq!(b.per_window.len(), 4);
    }

    #[test]
    fn outcome_accessors() {
        let cfg = small_q1();
        let a = run_q1(&Mode::DataCell, &cfg);
        assert!(a.mean_response() > Duration::ZERO);
        let _ = a.main_plan_total();
        let _ = a.merge_total();
        assert_eq!(Mode::DataCellR.label(), "DataCellR");
        assert_eq!(Mode::Chunked(8).label(), "DataCell(m=8)");
    }
}
