//! The paper's Fig. 3 — the five canonical plan transformations — each
//! executed end to end in both modes with identical results:
//!
//! (a) simple concatenation       — `select a from stream where a < v1`
//! (b) concat + compensation      — `select sum(a) ...`
//! (c) expanding replication      — `select avg(a) ...`
//! (d) synchronous replication    — `select a1, max(a2) ... group by a1`
//! (e) multi-stream join matrix   — `select max(a1) from sA, sB where ...`

use datacell::core::{ExecMode, RegisterOptions};
use datacell::prelude::*;

fn both_modes(
    streams: &[(&str, Vec<Column>)],
    schema: &[(&str, DataType)],
    sql: &str,
) -> (Vec<datacell::plan::ResultSet>, Vec<datacell::plan::ResultSet>) {
    let mut e = Engine::new();
    for (name, _) in streams {
        e.create_stream(name, schema).unwrap();
    }
    let qi = e.register_sql(sql).unwrap();
    let qr = e
        .register_sql_with(sql, RegisterOptions { mode: ExecMode::Reevaluation, chunker: None })
        .unwrap();
    for (name, cols) in streams {
        e.append(name, cols).unwrap();
    }
    e.run_until_idle().unwrap();
    (e.drain_results(qi).unwrap(), e.drain_results(qr).unwrap())
}

fn assert_same(a: &[datacell::plan::ResultSet], b: &[datacell::plan::ResultSet]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.sorted_rows(), y.sorted_rows());
    }
}

fn data(n: usize, seed: i64) -> Vec<Column> {
    let a1: Vec<i64> = (0..n as i64).map(|i| (i * 7 + seed) % 20).collect();
    let a2: Vec<i64> = (0..n as i64).map(|i| (i * 13 + seed) % 100).collect();
    vec![Column::Int(a1), Column::Int(a2)]
}

const SCHEMA: &[(&str, DataType)] = &[("a1", DataType::Int), ("a2", DataType::Int)];

#[test]
fn fig3a_selection() {
    let (i, r) = both_modes(
        &[("stream", data(60, 1))],
        SCHEMA,
        "SELECT a1 FROM stream WHERE a1 < 10 WINDOW SIZE 12 SLIDE 4",
    );
    assert_same(&i, &r);
    assert_eq!(i.len(), 13);
    assert!(i.iter().any(|w| !w.is_empty()));
}

#[test]
fn fig3b_sum_with_selection() {
    let (i, r) = both_modes(
        &[("stream", data(60, 2))],
        SCHEMA,
        "SELECT sum(a1) FROM stream WHERE a1 < 10 WINDOW SIZE 12 SLIDE 4",
    );
    assert_same(&i, &r);
}

#[test]
fn fig3c_avg_with_selection() {
    let (i, r) = both_modes(
        &[("stream", data(60, 3))],
        SCHEMA,
        "SELECT avg(a1) FROM stream WHERE a1 < 10 WINDOW SIZE 12 SLIDE 4",
    );
    assert_same(&i, &r);
}

#[test]
fn fig3d_grouped_max() {
    let (i, r) = both_modes(
        &[("stream", data(60, 4))],
        SCHEMA,
        "SELECT a1, max(a2) FROM stream WHERE a1 < 10 GROUP BY a1 WINDOW SIZE 12 SLIDE 4",
    );
    assert_same(&i, &r);
}

#[test]
fn fig3e_join_with_selections_on_both_streams() {
    let (i, r) = both_modes(
        &[("sA", data(48, 5)), ("sB", data(48, 6))],
        SCHEMA,
        "SELECT max(sA.a1) FROM sA, sB \
         WHERE sA.a1 < 15 AND sB.a1 < 12 AND sA.a1 = sB.a1 \
         WINDOW SIZE 12 SLIDE 4",
    );
    assert_same(&i, &r);
    assert!(i.iter().any(|w| !w.is_empty()));
}

#[test]
fn fig3_explains_match_expected_structure() {
    use datacell::core::rewrite::{rewrite, Stage, VarKind};
    use datacell::kernel::algebra::AggKind;
    use datacell::plan::compile;

    // (a): everything replicates; frontier is row-faithful.
    let q = datacell::sql::parse("SELECT a1 FROM s WHERE a1 < 10 WINDOW SIZE 4 SLIDE 2").unwrap();
    let inc = rewrite(&compile(&q.plan).unwrap()).unwrap();
    assert!(inc.merge_instrs.is_empty());
    assert!(inc.frontier.iter().all(|&v| inc.kinds[v] == VarKind::Rows));

    // (b): a partial sum crosses the frontier.
    let q =
        datacell::sql::parse("SELECT sum(a1) FROM s WHERE a1 < 10 WINDOW SIZE 4 SLIDE 2").unwrap();
    let inc = rewrite(&compile(&q.plan).unwrap()).unwrap();
    assert!(inc.frontier.iter().any(|&v| inc.kinds[v] == VarKind::PartialScalar(AggKind::Sum)));

    // (c): avg expanded to sum + count flows + a merge-stage division.
    let q =
        datacell::sql::parse("SELECT avg(a1) FROM s WHERE a1 < 10 WINDOW SIZE 4 SLIDE 2").unwrap();
    let inc = rewrite(&compile(&q.plan).unwrap()).unwrap();
    let kinds: Vec<VarKind> = inc.frontier.iter().map(|&v| inc.kinds[v]).collect();
    assert!(kinds.contains(&VarKind::PartialScalar(AggKind::Sum)));
    assert!(kinds.contains(&VarKind::PartialScalar(AggKind::Count)));
    assert_eq!(inc.merge_instrs.len(), 1);

    // (d): one group cluster.
    let q = datacell::sql::parse(
        "SELECT a1, max(a2) FROM s WHERE a1 < 10 GROUP BY a1 WINDOW SIZE 4 SLIDE 2",
    )
    .unwrap();
    let inc = rewrite(&compile(&q.plan).unwrap()).unwrap();
    assert_eq!(inc.clusters.len(), 1);

    // (e): the join is a matrix between streams 0 and 1. Registration
    // optimizes first, which pushes each selection below the join (the
    // figure's shape); a selection left above the join reads a stream's
    // column off the per-slot path, which the rewriter refuses.
    let q = datacell::sql::parse(
        "SELECT max(sA.a1) FROM sA, sB WHERE sA.a1 < 15 AND sB.a1 < 12 AND sA.a1 = sB.a1 \
         WINDOW SIZE 4 SLIDE 2",
    )
    .unwrap();
    let unpushed = rewrite(&compile(&q.plan).unwrap());
    assert!(matches!(unpushed, Err(datacell::core::DataCellError::Unsupported(_))));
    let inc = rewrite(&compile(&datacell::plan::optimize(q.plan)).unwrap()).unwrap();
    assert_eq!(inc.matrix_pair, Some((0, 1)));
    assert!(inc
        .matrix_instrs
        .iter()
        .any(|&i| matches!(inc.mal.instrs[i].op, datacell::plan::MalOp::Join { .. })));
    // Join-input intermediates are kept per basic window ("we cannot
    // discard the selection results once the join has consumed them").
    assert!(!inc.ring_only.is_empty());
    assert!(inc.ring_only.iter().all(|&v| matches!(inc.stages[v], Stage::PerBw(_))));
}
