//! Golden result sets for the window shapes the ROADMAP flags as barely
//! exercised: time-based sliding (`WINDOW RANGE … SLIDE …`) and landmark
//! (`WINDOW LANDMARK SLIDE …`) queries. Each test feeds a fixed trace and
//! pins the *exact* per-window rows, so any drift in window-boundary
//! arithmetic, empty-window handling or landmark accumulation fails loudly.

use datacell::core::RegisterOptions;
use datacell::prelude::*;

fn engine() -> Engine {
    let mut e = Engine::new();
    e.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    e
}

fn rows(out: &[datacell::plan::ResultSet]) -> Vec<Vec<Vec<Value>>> {
    out.iter().map(datacell::plan::ResultSet::rows).collect()
}

/// The fixed arrival trace shared by the time-sliding goldens:
/// (ts, x1, x2) — deliberately irregular, with a silent stretch.
const TRACE: &[(u64, i64, i64)] =
    &[(0, 1, 10), (5, 2, 20), (12, 3, 30), (19, 4, 40), (25, 5, 50), (34, 6, 60)];

fn feed_trace(e: &mut Engine) {
    for &(ts, x1, x2) in TRACE {
        e.append_at("s", &[Column::Int(vec![x1]), Column::Int(vec![x2])], ts).unwrap();
    }
}

#[test]
fn golden_time_sliding_range_query() {
    // WINDOW RANGE 20 MS SLIDE 10 MS over the trace, clock driven to 60:
    //   [ 0,20): ts {0,5,12,19}  -> count 4, sum 100
    //   [10,30): ts {12,19,25}   -> count 3, sum 120
    //   [20,40): ts {25,34}      -> count 2, sum 110
    //   [30,50): ts {34}         -> count 1, sum  60
    //   [40,60): silent stretch  -> *empty result set* (the paper's
    //            "empty basic windows are recognized and simply
    //            skipped": the window closes but carries no rows)
    let mut e = engine();
    let q =
        e.register_sql("SELECT count(x1), sum(x2) FROM s WINDOW RANGE 20 MS SLIDE 10 MS").unwrap();
    feed_trace(&mut e);
    e.advance_clock(60);
    e.run_until_idle().unwrap();
    let out = e.drain_results(q).unwrap();
    let got = rows(&out);
    insta_eq(
        &got,
        &[
            vec![vec![Value::Int(4), Value::Int(100)]],
            vec![vec![Value::Int(3), Value::Int(120)]],
            vec![vec![Value::Int(2), Value::Int(110)]],
            vec![vec![Value::Int(1), Value::Int(60)]],
            vec![],
        ],
    );
}

#[test]
fn golden_time_sliding_incremental_and_reeval_agree() {
    // The same RANGE query through both execution strategies must pin to
    // the same golden rows — the paper's core equivalence, on the
    // time-based path.
    let mut e = engine();
    let qi =
        e.register_sql("SELECT count(x1), sum(x2) FROM s WINDOW RANGE 20 MS SLIDE 10 MS").unwrap();
    let qr = e
        .register_sql_with(
            "SELECT count(x1), sum(x2) FROM s WINDOW RANGE 20 MS SLIDE 10 MS",
            RegisterOptions { mode: ExecMode::Reevaluation, chunker: None },
        )
        .unwrap();
    feed_trace(&mut e);
    e.advance_clock(60);
    e.run_until_idle().unwrap();
    let gi = rows(&e.drain_results(qi).unwrap());
    let gr = rows(&e.drain_results(qr).unwrap());
    assert_eq!(gi, gr, "incremental and re-evaluation diverged on RANGE windows");
    assert_eq!(gi.len(), 5);
}

#[test]
fn golden_time_sliding_windows_emit_only_when_clock_passes() {
    // Clock gating: windows are emitted exactly when the clock crosses
    // their end — not earlier (data alone is not enough), not doubled on
    // a later drain.
    let mut e = engine();
    let q = e.register_sql("SELECT count(x1) FROM s WINDOW RANGE 20 MS SLIDE 10 MS").unwrap();
    feed_trace(&mut e); // clock now 34 (last stamp)
    e.run_until_idle().unwrap();
    let first = rows(&e.drain_results(q).unwrap());
    // Clock 34: windows ending at 20 and 30 are closed; 40 is not.
    insta_eq(&first, &[vec![vec![Value::Int(4)]], vec![vec![Value::Int(3)]]]);
    e.advance_clock(40);
    e.run_until_idle().unwrap();
    insta_eq(&rows(&e.drain_results(q).unwrap()), &[vec![vec![Value::Int(2)]]]);
    // No clock movement -> no new windows, no re-emission.
    e.run_until_idle().unwrap();
    assert!(e.drain_results(q).unwrap().is_empty());
}

#[test]
fn golden_count_landmark_query() {
    // WINDOW LANDMARK SLIDE 3 (count cadence): results are cumulative
    // from the landmark, emitted every 3 tuples.
    //   after 3: x1 {1,2,3}           -> max 3, sum 10+20+30       = 60
    //   after 6: + {4,5,6}            -> max 6, sum + 40+50+60     = 210
    //   after 9: + {7,8,9}            -> max 9, sum + 70+80+90     = 450
    let mut e = engine();
    let q = e.register_sql("SELECT max(x1), sum(x2) FROM s WINDOW LANDMARK SLIDE 3").unwrap();
    for i in 0..9i64 {
        e.append("s", &[Column::Int(vec![i + 1]), Column::Int(vec![(i + 1) * 10])]).unwrap();
    }
    e.run_until_idle().unwrap();
    let got = rows(&e.drain_results(q).unwrap());
    insta_eq(
        &got,
        &[
            vec![vec![Value::Int(3), Value::Int(60)]],
            vec![vec![Value::Int(6), Value::Int(210)]],
            vec![vec![Value::Int(9), Value::Int(450)]],
        ],
    );
}

#[test]
fn golden_time_landmark_query() {
    // WINDOW LANDMARK SLIDE 10 MS: cumulative from stream start, one
    // result per 10 ms tick of the clock.
    //   tick 10: ts {2,8}       -> count 2, sum  30
    //   tick 20: + ts {15}      -> count 3, sum  60
    //   tick 30: + ts {25}      -> count 4, sum 100
    let mut e = engine();
    let q = e.register_sql("SELECT count(x1), sum(x2) FROM s WINDOW LANDMARK SLIDE 10 MS").unwrap();
    for &(ts, x2) in &[(2u64, 10i64), (8, 20), (15, 30), (25, 40)] {
        e.append_at("s", &[Column::Int(vec![1]), Column::Int(vec![x2])], ts).unwrap();
    }
    e.advance_clock(30);
    e.run_until_idle().unwrap();
    let got = rows(&e.drain_results(q).unwrap());
    insta_eq(
        &got,
        &[
            vec![vec![Value::Int(2), Value::Int(30)]],
            vec![vec![Value::Int(3), Value::Int(60)]],
            vec![vec![Value::Int(4), Value::Int(100)]],
        ],
    );
}

#[test]
fn golden_time_sliding_join_with_a_one_sided_empty_basic_window() {
    // WINDOW RANGE 20 MS SLIDE 10 MS over two streams; `b` is silent in
    // [10,20) while `a` is not, so one side of the join slides an empty
    // basic window through its ring (and its join index) on its own.
    //   basic windows   a (k,v)            b (k,v)
    //   [ 0,10)         (1,10) (2,20)      (1,100) (2,200)
    //   [10,20)         (1,30)             -
    //   [20,30)         (2,40)             (1,300)
    //   [30,40)         (1,50)             (2,400)
    //   [ 0,20): a.k=b.k pairs 10-100, 20-200, 30-100 -> count 3, sum 400
    //   [10,30): 30-300                               -> count 1, sum 300
    //   [20,40): 40-400, 50-300                       -> count 2, sum 700
    let sql = "SELECT count(a.v), sum(b.v) FROM a, b WHERE a.k = b.k \
               WINDOW RANGE 20 MS SLIDE 10 MS";
    let mut e = Engine::new();
    for s in ["a", "b"] {
        e.create_stream(s, &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    }
    let qi = e.register_sql(sql).unwrap();
    let qr = e
        .register_sql_with(sql, RegisterOptions { mode: ExecMode::Reevaluation, chunker: None })
        .unwrap();
    let a: &[(u64, i64, i64)] = &[(2, 1, 10), (5, 2, 20), (13, 1, 30), (27, 2, 40), (33, 1, 50)];
    let b: &[(u64, i64, i64)] = &[(3, 1, 100), (8, 2, 200), (24, 1, 300), (36, 2, 400)];
    for (stream, trace) in [("a", a), ("b", b)] {
        for &(ts, k, v) in trace {
            e.append_at(stream, &[Column::Int(vec![k]), Column::Int(vec![v])], ts).unwrap();
        }
    }
    e.advance_clock(40);
    e.run_until_idle().unwrap();
    let got = rows(&e.drain_results(qi).unwrap());
    insta_eq(
        &got,
        &[
            vec![vec![Value::Int(3), Value::Int(400)]],
            vec![vec![Value::Int(1), Value::Int(300)]],
            vec![vec![Value::Int(2), Value::Int(700)]],
        ],
    );
    assert_eq!(got, rows(&e.drain_results(qr).unwrap()), "re-evaluation disagrees");
}

/// Pinned-comparison helper with a readable diff on mismatch.
#[track_caller]
fn insta_eq(got: &[Vec<Vec<Value>>], want: &[Vec<Vec<Value>>]) {
    assert_eq!(got, want, "\ngolden mismatch\n  got:  {got:?}\n  want: {want:?}\n");
}
