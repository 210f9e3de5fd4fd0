//! The `GroupAgg` node, end to end: byte-identical results against the
//! reference chain of sequential kernel calls (`algebra::group` +
//! `*_grouped`) at every partition fan-out, a golden aggregation pin
//! through the parallel-scheduler + partitioned-kernel path (4 workers
//! × 4 partitions), proof via the kernel stats counters that
//! SQL aggregation actually reaches `kernel::par`'s parallel
//! grouped-aggregate path at partitions > 1, and the optimizer's
//! same-column filter-conjunction merge at the SQL level.

use datacell::core::EngineConfig;
use datacell::kernel::algebra::{self, AggKind, ArithOp};
use datacell::kernel::par;
use datacell::plan::exec::{execute, WindowCtx};
use datacell::plan::mal::{MalBuilder, MalOp, MalPlan};
use datacell::plan::{optimize, ResultSet};
use datacell::prelude::*;

const NAMES: [&str; 5] = ["k", "sum", "n", "min", "avg"];

/// `SELECT k, sum(v), count(*), min(v), avg(v) GROUP BY k` as one
/// `GroupAgg` node.
fn group_agg_plan() -> MalPlan {
    let mut b = MalBuilder::new();
    let k = b.emit(MalOp::BindStream { stream: "s".into(), attr: "k".into() });
    let v = b.emit(MalOp::BindStream { stream: "s".into(), attr: "v".into() });
    let (gk, ads) = b.emit_group_agg(
        k,
        vec![
            (AggKind::Sum, Some(v)),
            (AggKind::Count, None),
            (AggKind::Min, Some(v)),
            (AggKind::Avg, Some(v)),
        ],
    );
    b.finish(NAMES.map(String::from).to_vec(), std::iter::once(gk).chain(ads).collect())
}

/// The reference implementation of [`group_agg_plan`]: the sequential
/// kernels called one after the other, avg as sum / count.
fn kernel_chain(w: &BasicWindow) -> ResultSet {
    let (kb, vb) = (w.bat_by_name("k").unwrap(), w.bat_by_name("v").unwrap());
    let g = algebra::group(&kb).unwrap();
    let sums = algebra::sum_grouped(&vb, &g).unwrap();
    let counts = algebra::count_grouped(&g);
    let avgs = algebra::map_arith(
        &Bat::transient(sums.clone()),
        &Bat::transient(counts.clone()),
        ArithOp::Div,
    )
    .unwrap()
    .tail;
    let mins = algebra::min_grouped(&vb, &g).unwrap();
    let cols = vec![g.keys(&kb).unwrap(), sums, counts, mins, avgs];
    ResultSet::new(NAMES.map(String::from).to_vec(), cols).unwrap()
}

fn int_window(ks: Vec<i64>, vs: Vec<i64>) -> BasicWindow {
    let n = ks.len();
    BasicWindow::new(
        0,
        vec![Column::Int(ks), Column::Int(vs)],
        vec![0; n],
        vec!["k".into(), "v".into()],
    )
}

#[test]
fn group_agg_matches_kernel_chain_byte_identically_at_every_p() {
    let plan = group_agg_plan();
    let ks: Vec<i64> = (0..97).map(|i| (i * 7) % 5).collect();
    let vs: Vec<i64> = (0..97).map(|i| i * 3 + 1).collect();
    let w = int_window(ks, vs);
    let reference = kernel_chain(&w);
    for p in [1usize, 2, 8] {
        let ctx = WindowCtx::new().with_stream("s", &w).with_partitions(p);
        let got = execute(&plan, &ctx).unwrap();
        assert_eq!(got.rows(), reference.rows(), "plan vs kernel chain diverged at P={p}");
    }
}

#[test]
fn group_agg_matches_kernel_chain_on_string_keys_and_empty_input() {
    let plan = group_agg_plan();

    // String keys.
    let ks: Vec<String> = (0..60).map(|i| format!("g{}", i % 7)).collect();
    let vs: Vec<i64> = (0..60).collect();
    let w = BasicWindow::new(
        0,
        vec![Column::Str(ks), Column::Int(vs)],
        vec![0; 60],
        vec!["k".into(), "v".into()],
    );
    let reference = kernel_chain(&w);
    for p in [1usize, 2, 8] {
        let ctx = WindowCtx::new().with_stream("s", &w).with_partitions(p);
        assert_eq!(execute(&plan, &ctx).unwrap().rows(), reference.rows(), "P={p}");
    }

    // Empty input: zero groups, zero rows, at every fan-out.
    let w = int_window(vec![], vec![]);
    for p in [1usize, 2, 8] {
        let ctx = WindowCtx::new().with_stream("s", &w).with_partitions(p);
        assert!(execute(&plan, &ctx).unwrap().is_empty(), "P={p}");
    }
}

/// Golden pin: a SQL aggregation query through the parallel stack —
/// parallel scheduler (4 workers), partitioned kernel (4) — must produce
/// exactly the rows the fully sequential engine produces, in the same
/// (first-occurrence) order.
#[test]
fn golden_fused_aggregation_through_sharded_parallel_path() {
    let run = |workers: usize, partitions: usize| {
        let config = EngineConfig { workers, partitions, ..EngineConfig::from_env() };
        let mut e = Engine::with_config(config);
        e.create_stream("s", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
        let q = e
            .register_sql(
                "SELECT k, sum(v), count(v), avg(v) FROM s GROUP BY k WINDOW SIZE 6 SLIDE 3",
            )
            .unwrap();
        e.append(
            "s",
            &[
                Column::Int(vec![1, 2, 1, 2, 3, 1, 3, 2, 1]),
                Column::Int(vec![10, 20, 30, 40, 50, 60, 70, 80, 90]),
            ],
        )
        .unwrap();
        e.run_until_idle().unwrap();
        let out = e.drain_results(q).unwrap();
        out.iter().map(datacell::plan::ResultSet::rows).collect::<Vec<_>>()
    };

    let golden = vec![
        // Window 1 (tuples 1..6): keys in first-occurrence order 1, 2, 3.
        vec![
            vec![Value::Int(1), Value::Int(100), Value::Int(3), Value::Float(100.0 / 3.0)],
            vec![Value::Int(2), Value::Int(60), Value::Int(2), Value::Float(30.0)],
            vec![Value::Int(3), Value::Int(50), Value::Int(1), Value::Float(50.0)],
        ],
        // Window 2 (tuples 4..9): merged first-occurrence order 2, 3, 1.
        vec![
            vec![Value::Int(2), Value::Int(120), Value::Int(2), Value::Float(60.0)],
            vec![Value::Int(3), Value::Int(120), Value::Int(2), Value::Float(60.0)],
            vec![Value::Int(1), Value::Int(150), Value::Int(2), Value::Float(75.0)],
        ],
    ];
    let sequential = run(1, 1);
    assert_eq!(sequential, golden, "sequential run drifted from the golden pin");
    let parallel = run(4, 4);
    assert_eq!(parallel, golden, "parallel run drifted from the golden pin");
}

/// Acceptance proof: with partitions > 1, a SQL-level aggregation query
/// demonstrably executes through `kernel::par`'s *parallel* grouped
/// aggregation (not just the P=1 dispatch) — observed via the kernel
/// stats counters. Basic windows must hold at least `partitions` rows or
/// the kernel falls back to the sequential single-partial path.
#[test]
fn sql_aggregation_reaches_parallel_grouped_agg_kernel() {
    let mut e =
        Engine::with_config(EngineConfig { workers: 1, partitions: 4, ..EngineConfig::from_env() });
    e.create_stream("s", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    let q = e
        .register_sql("SELECT k, sum(v), avg(v) FROM s GROUP BY k WINDOW SIZE 512 SLIDE 256")
        .unwrap();
    let ks: Vec<i64> = (0..512).map(|i| i % 16).collect();
    let vs: Vec<i64> = (0..512).collect();

    let before = par::stats::snapshot();
    e.append("s", &[Column::Int(ks), Column::Int(vs)]).unwrap();
    e.run_until_idle().unwrap();
    let out = e.drain_results(q).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].len(), 16);

    let delta = par::stats::snapshot().delta(&before);
    assert!(
        delta.grouped_agg_calls > 0,
        "aggregation query never reached the fused grouped-agg kernel"
    );
    assert!(
        delta.grouped_agg_par_calls > 0,
        "partitions=4 aggregation never fanned out over parallel morsels"
    );
}

#[test]
fn where_conjunction_on_same_column_merges_to_one_filter() {
    // The optimizer satellite: adjacent WHERE filters on the same column
    // collapse into one conjunction (here a Range the bulk loops
    // specialize on), and the query still returns the right rows.
    let q = datacell::sql::parse(
        "SELECT k, sum(v) FROM s WHERE v > 10 AND v < 50 GROUP BY k WINDOW SIZE 6 SLIDE 6",
    )
    .unwrap();
    let optimized = optimize(q.plan);
    let filters = optimized.explain().lines().filter(|l| l.contains("filter")).count();
    assert_eq!(filters, 1, "same-column filters did not merge:\n{}", optimized.explain());

    let mut e = Engine::new();
    e.create_stream("s", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    let q = e
        .register_sql(
            "SELECT k, sum(v) FROM s WHERE v > 10 AND v < 50 GROUP BY k WINDOW SIZE 6 SLIDE 6",
        )
        .unwrap();
    e.append("s", &[Column::Int(vec![1, 1, 2, 2, 1, 2]), Column::Int(vec![5, 20, 30, 50, 40, 10])])
        .unwrap();
    e.run_until_idle().unwrap();
    let out = e.drain_results(q).unwrap();
    // Kept: (1,20), (2,30), (1,40) — 5, 50 and 10 fail the conjunction.
    assert_eq!(out.len(), 1);
    assert_eq!(
        out[0].sorted_rows(),
        vec![vec![Value::Int(1), Value::Int(60)], vec![Value::Int(2), Value::Int(30)]]
    );
}
