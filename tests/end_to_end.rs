//! End-to-end integration: SQL text → parser → optimizer → compiler →
//! incremental rewriter → factories → scheduler → results.

use datacell::core::{ExecMode, RegisterOptions};
use datacell::prelude::*;

fn engine_q1() -> Engine {
    let mut e = Engine::new();
    e.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    e
}

#[test]
fn paper_q1_shape() {
    // (Q1) SELECT x1, sum(x2) FROM stream WHERE x1 > v1 GROUP BY x1
    let mut e = engine_q1();
    let q = e
        .register_sql("SELECT x1, sum(x2) FROM s WHERE x1 > 2 GROUP BY x1 WINDOW SIZE 8 SLIDE 2")
        .unwrap();
    let x1: Vec<i64> = (0..24).map(|i| i % 6).collect();
    let x2: Vec<i64> = (0..24).map(|i| i * 10).collect();
    e.append("s", &[Column::Int(x1.clone()), Column::Int(x2.clone())]).unwrap();
    e.run_until_idle().unwrap();
    let out = e.drain_results(q).unwrap();
    assert_eq!(out.len(), 9); // (24 - 8)/2 + 1

    // Independently recompute window 3 (tuples 6..14).
    let mut expect: std::collections::BTreeMap<i64, i64> = Default::default();
    for i in 6..14 {
        if x1[i] > 2 {
            *expect.entry(x1[i]).or_insert(0) += x2[i];
        }
    }
    let got: std::collections::BTreeMap<i64, i64> = out[3]
        .rows()
        .iter()
        .map(|r| match (&r[0], &r[1]) {
            (Value::Int(k), Value::Int(v)) => (*k, *v),
            other => panic!("unexpected row {other:?}"),
        })
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn paper_q2_shape() {
    // (Q2) SELECT max(s1.x1), avg(s2.x1) FROM stream1 s1, stream2 s2
    //      WHERE s1.x2 = s2.x2
    let mut e = Engine::new();
    e.create_stream("stream1", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    e.create_stream("stream2", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    let q = e
        .register_sql(
            "SELECT max(s1.x1), avg(s2.x1) FROM stream1 s1, stream2 s2 \
             WHERE s1.x2 = s2.x2 WINDOW SIZE 6 SLIDE 3",
        )
        .unwrap();
    let n = 18usize;
    let a_x1: Vec<i64> = (0..n as i64).map(|i| 100 + i).collect();
    let a_x2: Vec<i64> = (0..n as i64).map(|i| i % 4).collect();
    let b_x1: Vec<i64> = (0..n as i64).map(|i| 7 * i).collect();
    let b_x2: Vec<i64> = (0..n as i64).map(|i| (i + 1) % 4).collect();
    e.append("stream1", &[Column::Int(a_x1.clone()), Column::Int(a_x2.clone())]).unwrap();
    e.append("stream2", &[Column::Int(b_x1.clone()), Column::Int(b_x2.clone())]).unwrap();
    e.run_until_idle().unwrap();
    let out = e.drain_results(q).unwrap();
    assert_eq!(out.len(), 5);

    // Recompute window 2 (tuples 6..12 on both streams) naively.
    let (lo, hi) = (6usize, 12usize);
    let mut maxv: Option<i64> = None;
    let (mut sum, mut cnt) = (0i64, 0i64);
    for i in lo..hi {
        for j in lo..hi {
            if a_x2[i] == b_x2[j] {
                maxv = Some(maxv.map_or(a_x1[i], |m| m.max(a_x1[i])));
                sum += b_x1[j];
                cnt += 1;
            }
        }
    }
    let row = &out[2].rows()[0];
    assert_eq!(row[0], Value::Int(maxv.unwrap()));
    assert_eq!(row[1], Value::Float(sum as f64 / cnt as f64));
}

#[test]
fn paper_q3_landmark_shape() {
    // (Q3) select max(x1), sum(x2) from stream where x1 > v1 — landmark.
    let mut e = engine_q1();
    let q = e
        .register_sql("SELECT max(x1), sum(x2) FROM s WHERE x1 > 0 WINDOW LANDMARK SLIDE 3")
        .unwrap();
    e.append(
        "s",
        &[
            Column::Int(vec![5, -1, 3, 8, 2, -4, 1, 9, 4]),
            Column::Int(vec![1, 2, 3, 4, 5, 6, 7, 8, 9]),
        ],
    )
    .unwrap();
    e.run_until_idle().unwrap();
    let out = e.drain_results(q).unwrap();
    assert_eq!(out.len(), 3);
    // Landmark results are cumulative.
    assert_eq!(out[0].rows(), vec![vec![Value::Int(5), Value::Int(4)]]);
    assert_eq!(out[1].rows(), vec![vec![Value::Int(8), Value::Int(13)]]);
    assert_eq!(out[2].rows(), vec![vec![Value::Int(9), Value::Int(37)]]);
}

#[test]
fn csv_receptor_to_engine_pipeline() {
    use datacell::basket::CsvReceptor;
    let mut e = engine_q1();
    let q = e.register_sql("SELECT sum(x2) FROM s WHERE x1 > 10 WINDOW SIZE 4 SLIDE 4").unwrap();
    let mut rx = CsvReceptor::new(&[DataType::Int, DataType::Int]);
    rx.parse("20,1\n5,2\n30,3\nbroken,row\n40,4\n").unwrap();
    assert_eq!(rx.rows_skipped(), 1);
    let basket = e.basket("s").unwrap();
    rx.flush_into(&basket, 0).unwrap();
    e.run_until_idle().unwrap();
    let out = e.drain_results(q).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rows(), vec![vec![Value::Int(8)]]); // 1 + 3 + 4
}

#[test]
fn tumbling_window_is_slide_equals_size() {
    let mut e = engine_q1();
    let q = e.register_sql("SELECT count(x1) FROM s WINDOW SIZE 3 SLIDE 3").unwrap();
    e.append("s", &[Column::Int(vec![1; 9]), Column::Int(vec![0; 9])]).unwrap();
    e.run_until_idle().unwrap();
    let out = e.drain_results(q).unwrap();
    assert_eq!(out.len(), 3);
    for w in out {
        assert_eq!(w.rows(), vec![vec![Value::Int(3)]]);
    }
}

#[test]
fn distinct_and_orderby_queries() {
    let mut e = engine_q1();
    let qd = e.register_sql("SELECT DISTINCT x1 FROM s WINDOW SIZE 4 SLIDE 2").unwrap();
    let qo =
        e.register_sql("SELECT x1 FROM s ORDER BY x1 DESC LIMIT 2 WINDOW SIZE 4 SLIDE 2").unwrap();
    e.append("s", &[Column::Int(vec![3, 1, 3, 2, 9, 9]), Column::Int(vec![0; 6])]).unwrap();
    e.run_until_idle().unwrap();
    let dout = e.drain_results(qd).unwrap();
    assert_eq!(
        dout[0].sorted_rows(),
        vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]
    );
    let oout = e.drain_results(qo).unwrap();
    assert_eq!(oout[0].rows(), vec![vec![Value::Int(3)], vec![Value::Int(3)]]);
    assert_eq!(oout[1].rows(), vec![vec![Value::Int(9)], vec![Value::Int(9)]]);
}

#[test]
fn incremental_rejects_fall_back_to_reeval() {
    // Three-stream query: the incremental rewriter rejects it, but
    // re-evaluation mode runs it.
    let mut e = Engine::new();
    for s in ["a", "b", "c"] {
        e.create_stream(s, &[("k", DataType::Int)]).unwrap();
    }
    let sql_err =
        e.register_sql("SELECT count(a.k) FROM a, b WHERE a.k = b.k WINDOW SIZE 2 SLIDE 1");
    assert!(sql_err.is_ok(), "two streams are fine incrementally");
    // The SQL layer caps at two sources, so build a three-stream plan via
    // the API to exercise the rewriter's rejection path.
    use datacell::kernel::algebra::AggKind;
    use datacell::plan::{ColumnRef, LogicalPlan};
    let plan = LogicalPlan::stream("a")
        .join(LogicalPlan::stream("b"), ColumnRef::new("a", "k"), ColumnRef::new("b", "k"))
        .join(LogicalPlan::stream("c"), ColumnRef::new("a", "k"), ColumnRef::new("c", "k"))
        .aggregate(
            None,
            vec![datacell::plan::AggExpr::new(AggKind::Count, ColumnRef::new("a", "k"), "n")],
        );
    let win = WindowSpec::CountSliding { size: 2, step: 1 };
    let inc = e.register_cq(plan.clone(), win, Default::default());
    assert!(inc.is_err(), "incremental mode must reject a second stream join");
    let reeval =
        e.register_cq(plan, win, RegisterOptions { mode: ExecMode::Reevaluation, chunker: None });
    assert!(reeval.is_ok(), "re-evaluation handles any compilable plan");
}

#[test]
fn explain_shows_fig3_structure() {
    use datacell::core::rewrite;
    use datacell::plan::compile;
    let q = datacell::sql::parse(
        "SELECT x1, max(x2) FROM s WHERE x1 < 10 GROUP BY x1 WINDOW SIZE 100 SLIDE 10",
    )
    .unwrap();
    let mal = compile(&q.plan).unwrap();
    let inc = rewrite(&mal).unwrap();
    let text = inc.explain();
    // Per-bw segment (replicated ops) and a group cluster, as in Fig 3d.
    assert!(text.contains("per-bw[0]"));
    assert!(text.contains("clusters: 1"));
}
