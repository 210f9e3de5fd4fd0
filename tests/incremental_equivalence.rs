//! THE paper invariant, property-tested: for every query shape and every
//! stream, the incremental plan produces exactly the same window results
//! as full re-evaluation ("the resulting partial results are then merged to
//! yield the complete window result", §3).
//!
//! Randomized over: data, window geometry, selectivity, group domains,
//! join-key domains, and the chunk count m.

use datacell::core::{AdaptiveChunker, ExecMode, RegisterOptions};
use datacell::prelude::*;
use proptest::prelude::*;

/// Run one SQL query in both modes over the same appended data and assert
/// window-by-window equality (rows compared order-insensitively).
fn assert_equivalent(
    schema: &[(&str, DataType)],
    streams: &[(&str, Vec<Column>)],
    sql: &str,
    chunker: Option<AdaptiveChunker>,
) {
    let mut e = Engine::new();
    for (name, _) in streams {
        e.create_stream(name, schema).unwrap();
    }
    let qi =
        e.register_sql_with(sql, RegisterOptions { mode: ExecMode::Incremental, chunker }).unwrap();
    let qr = e
        .register_sql_with(sql, RegisterOptions { mode: ExecMode::Reevaluation, chunker: None })
        .unwrap();
    for (name, cols) in streams {
        e.append(name, cols).unwrap();
    }
    e.run_until_idle().unwrap();
    let ri = e.drain_results(qi).unwrap();
    let rr = e.drain_results(qr).unwrap();
    assert_eq!(ri.len(), rr.len(), "window counts differ for {sql}");
    for (k, (a, b)) in ri.iter().zip(&rr).enumerate() {
        assert_eq!(a.sorted_rows(), b.sorted_rows(), "window {k} differs for {sql}");
    }
}

fn int_cols(xs: Vec<i64>, ys: Vec<i64>) -> Vec<Column> {
    vec![Column::Int(xs), Column::Int(ys)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn select_sum_equivalent(
        data in prop::collection::vec((0i64..50, -100i64..100), 20..200),
        step in 1usize..8,
        n in 2usize..6,
        threshold in 0i64..50,
    ) {
        let size = step * n;
        let xs: Vec<i64> = data.iter().map(|d| d.0).collect();
        let ys: Vec<i64> = data.iter().map(|d| d.1).collect();
        let sql = format!(
            "SELECT sum(x2) FROM s WHERE x1 > {threshold} WINDOW SIZE {size} SLIDE {step}"
        );
        assert_equivalent(
            &[("x1", DataType::Int), ("x2", DataType::Int)],
            &[("s", int_cols(xs, ys))],
            &sql,
            None,
        );
    }

    #[test]
    fn grouped_agg_equivalent(
        data in prop::collection::vec((0i64..8, -50i64..50), 20..150),
        step in 1usize..6,
        n in 2usize..5,
        agg in prop::sample::select(vec!["sum", "min", "max", "count", "avg"]),
    ) {
        let size = step * n;
        let xs: Vec<i64> = data.iter().map(|d| d.0).collect();
        let ys: Vec<i64> = data.iter().map(|d| d.1).collect();
        let sql = format!(
            "SELECT x1, {agg}(x2) FROM s GROUP BY x1 WINDOW SIZE {size} SLIDE {step}"
        );
        assert_equivalent(
            &[("x1", DataType::Int), ("x2", DataType::Int)],
            &[("s", int_cols(xs, ys))],
            &sql,
            None,
        );
    }

    #[test]
    fn scalar_aggs_equivalent(
        data in prop::collection::vec((0i64..30, -50i64..50), 16..120),
        step in 1usize..5,
        n in 2usize..5,
    ) {
        let size = step * n;
        let xs: Vec<i64> = data.iter().map(|d| d.0).collect();
        let ys: Vec<i64> = data.iter().map(|d| d.1).collect();
        let sql = format!(
            "SELECT min(x1), max(x1), count(x1), avg(x2) FROM s WHERE x1 > 5 \
             WINDOW SIZE {size} SLIDE {step}"
        );
        assert_equivalent(
            &[("x1", DataType::Int), ("x2", DataType::Int)],
            &[("s", int_cols(xs, ys))],
            &sql,
            None,
        );
    }

    #[test]
    fn join_equivalent(
        left in prop::collection::vec((0i64..6, 0i64..100), 12..60),
        right in prop::collection::vec((0i64..6, 0i64..100), 12..60),
        step in 1usize..4,
        n in 2usize..9,
        // Scalar partials per slot; joined rows; a selection under the
        // join (basic windows of varying size, empty ones included, whose
        // keys are transient BATs); selections under both sides (Fig. 3e:
        // each side's values fetched through a chain of pair fetches); a
        // count; a group-by over the joined rows, keyed by either side.
        query in prop::sample::select(vec![
            "SELECT max(a.v), sum(b.v) FROM a, b WHERE a.k = b.k",
            "SELECT a.v, b.v FROM a, b WHERE a.k = b.k",
            "SELECT max(a.v), sum(b.v) FROM a, b WHERE a.k = b.k AND a.v > 50",
            "SELECT max(a.v), min(b.v) FROM a, b WHERE a.k = b.k AND a.v > 30 AND b.v < 70",
            "SELECT count(a.k) FROM a, b WHERE a.k = b.k",
            "SELECT a.k, count(b.v) FROM a, b WHERE a.k = b.k GROUP BY a.k",
            "SELECT b.k, sum(a.v), max(b.v) FROM a, b WHERE a.k = b.k GROUP BY b.k",
        ]),
    ) {
        let size = step * n;
        let cap = left.len().min(right.len());
        let lk: Vec<i64> = left[..cap].iter().map(|d| d.0).collect();
        let lv: Vec<i64> = left[..cap].iter().map(|d| d.1).collect();
        let rk: Vec<i64> = right[..cap].iter().map(|d| d.0).collect();
        let rv: Vec<i64> = right[..cap].iter().map(|d| d.1).collect();
        let sql = format!("{query} WINDOW SIZE {size} SLIDE {step}");
        assert_equivalent(
            &[("k", DataType::Int), ("v", DataType::Int)],
            &[("a", int_cols(lk, lv)), ("b", int_cols(rk, rv))],
            &sql,
            None,
        );
    }

    #[test]
    fn landmark_equivalent(
        data in prop::collection::vec((0i64..40, -50i64..50), 10..100),
        step in 1usize..7,
    ) {
        let xs: Vec<i64> = data.iter().map(|d| d.0).collect();
        let ys: Vec<i64> = data.iter().map(|d| d.1).collect();
        let sql = format!(
            "SELECT max(x1), sum(x2), count(x1) FROM s WHERE x1 > 10 \
             WINDOW LANDMARK SLIDE {step}"
        );
        assert_equivalent(
            &[("x1", DataType::Int), ("x2", DataType::Int)],
            &[("s", int_cols(xs, ys))],
            &sql,
            None,
        );
    }

    #[test]
    fn chunked_equivalent(
        data in prop::collection::vec((0i64..20, -50i64..50), 30..150),
        m in prop::sample::select(vec![2usize, 3, 4, 8]),
        // step 2 and 4 put m above the step (m is capped at one chunk per
        // tuple); 3 into 4 or 8 leaves a remainder for the last chunk.
        step in prop::sample::select(vec![2usize, 4, 8]),
    ) {
        let size = 2 * step;
        let xs: Vec<i64> = data.iter().map(|d| d.0).collect();
        let ys: Vec<i64> = data.iter().map(|d| d.1).collect();
        let sql = format!(
            "SELECT x1, sum(x2) FROM s WHERE x1 > 3 GROUP BY x1 \
             WINDOW SIZE {size} SLIDE {step}"
        );
        assert_equivalent(
            &[("x1", DataType::Int), ("x2", DataType::Int)],
            &[("s", int_cols(xs, ys))],
            &sql,
            Some(AdaptiveChunker::fixed(m)),
        );
    }

    #[test]
    fn distinct_equivalent(
        data in prop::collection::vec(0i64..10, 16..100),
        step in 1usize..5,
        n in 2usize..5,
    ) {
        let size = step * n;
        let ys = vec![0i64; data.len()];
        let sql = format!("SELECT DISTINCT x1 FROM s WINDOW SIZE {size} SLIDE {step}");
        assert_equivalent(
            &[("x1", DataType::Int), ("x2", DataType::Int)],
            &[("s", int_cols(data, ys))],
            &sql,
            None,
        );
    }

    #[test]
    fn orderby_limit_equivalent(
        data in prop::collection::vec(-100i64..100, 16..100),
        step in 1usize..5,
        n in 2usize..5,
        limit in 1usize..10,
    ) {
        let size = step * n;
        let ys = vec![0i64; data.len()];
        let sql = format!(
            "SELECT x1 FROM s ORDER BY x1 LIMIT {limit} WINDOW SIZE {size} SLIDE {step}"
        );
        assert_equivalent(
            &[("x1", DataType::Int), ("x2", DataType::Int)],
            &[("s", int_cols(data, ys))],
            &sql,
            None,
        );
    }
}

#[test]
fn adaptive_chunker_equivalence_on_fixed_workload() {
    // The adaptive controller changes m mid-run; results must not change.
    let xs: Vec<i64> = (0..400).map(|i| (i * 17) % 23).collect();
    let ys: Vec<i64> = (0..400).map(|i| (i * 7) % 101 - 50).collect();
    assert_equivalent(
        &[("x1", DataType::Int), ("x2", DataType::Int)],
        &[("s", int_cols(xs, ys))],
        "SELECT x1, sum(x2) FROM s WHERE x1 > 4 GROUP BY x1 WINDOW SIZE 40 SLIDE 20",
        Some(AdaptiveChunker::new(16, 2)),
    );
}
