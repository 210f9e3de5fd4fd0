//! Engine telemetry integration: quiesced-snapshot stability, counter
//! monotonicity across drains, per-query series lifecycle, and the
//! Prometheus-text exposition roundtrip.
//!
//! Stability and monotonicity assertions deliberately look only at the
//! *engine-local* families (query and scheduler series): the
//! process-global registry is shared with every other test running in
//! this binary, so its kernel counters may move between two snapshots
//! through no fault of the engine under test.

use datacell::core::EngineConfig;
use datacell::prelude::*;
use datacell::telemetry::{parse_text, render_text, Snapshot};

/// Name prefixes of families assembled from engine-owned handles (as
/// opposed to the process-global registry).
const LOCAL_PREFIXES: &[&str] = &["datacell_query_", "datacell_scheduler_"];

fn local_only(mut snap: Snapshot) -> Snapshot {
    snap.families.retain(|f| LOCAL_PREFIXES.iter().any(|p| f.name.starts_with(p)));
    snap
}

/// An engine with both parallelism axes at 4 and one standing grouped
/// aggregation.
fn engine_4x4() -> (Engine, QueryId) {
    let mut e =
        Engine::with_config(EngineConfig { workers: 4, partitions: 4, ..EngineConfig::from_env() });
    e.create_stream("s", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    let q = e.register_sql("SELECT k, sum(v) FROM s GROUP BY k WINDOW SIZE 64 SLIDE 32").unwrap();
    (e, q)
}

fn feed(e: &mut Engine, rows: usize) {
    let ks: Vec<i64> = (0..rows as i64).map(|i| i % 8).collect();
    let vs: Vec<i64> = (0..rows as i64).collect();
    e.append("s", &[Column::Int(ks), Column::Int(vs)]).unwrap();
    e.run_until_idle().unwrap();
}

#[test]
fn quiesced_snapshot_is_stable() {
    let (mut e, _q) = engine_4x4();
    feed(&mut e, 256);
    // No appends, no drains between the two reads: every engine-local
    // series — including worker busy/idle time, which is only recorded
    // when a wait actually yields a job — must render identically.
    let a = render_text(&local_only(e.telemetry_snapshot()));
    let b = render_text(&local_only(e.telemetry_snapshot()));
    assert_eq!(a, b, "two snapshots of a quiesced engine diverged");
}

#[test]
fn counters_are_monotone_across_drains() {
    let (mut e, _q) = engine_4x4();
    feed(&mut e, 256);
    let p1 = parse_text(&render_text(&local_only(e.telemetry_snapshot()))).unwrap();
    feed(&mut e, 256);
    let p2 = parse_text(&render_text(&local_only(e.telemetry_snapshot()))).unwrap();
    for name in [
        "datacell_query_slides_total",
        "datacell_query_rows_total",
        "datacell_query_total_seconds_total",
        "datacell_query_main_plan_seconds_total",
        "datacell_query_merge_seconds_total",
        "datacell_scheduler_worker_fires_total",
    ] {
        assert!(p2.total(name) >= p1.total(name), "{name} went backwards");
    }
    // The second feed produced more slides, and both ends are quiesced.
    assert!(p2.total("datacell_query_slides_total") > p1.total("datacell_query_slides_total"));
    assert_eq!(p1.total("datacell_scheduler_queue_depth"), 0.0);
    assert_eq!(p2.total("datacell_scheduler_queue_depth"), 0.0);
}

#[test]
fn per_query_series_follow_registration() {
    // Sequential path (1 worker): the fold-in point is shared with the
    // pooled path, so the series must fill here too.
    let mut e = Engine::new();
    e.create_stream("s", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    let q = e.register_sql("SELECT sum(v) FROM s WHERE k > 0 WINDOW SIZE 8 SLIDE 4").unwrap();
    feed(&mut e, 32);
    let lbl = [("query", "q0")];
    let p = parse_text(&render_text(&e.telemetry_snapshot())).unwrap();
    let slides = p.get("datacell_query_slides_total", &lbl).unwrap();
    assert!(slides > 0.0, "sequential engine recorded no slides");
    assert!(p.get("datacell_query_rows_total", &lbl).unwrap() > 0.0);
    // Dropping the query drops its series from subsequent snapshots.
    e.deregister(q).unwrap();
    let p = parse_text(&render_text(&e.telemetry_snapshot())).unwrap();
    assert_eq!(p.get("datacell_query_slides_total", &lbl), None);
}

#[test]
fn exposition_roundtrips_and_documents_every_family() {
    let (mut e, q) = engine_4x4();
    feed(&mut e, 512);
    let snap = e.telemetry_snapshot();
    let text = render_text(&snap);
    let parsed = parse_text(&text).expect("engine exposition must parse");
    assert!(
        parsed.families_without_help().is_empty(),
        "families missing help text: {:?}",
        parsed.families_without_help()
    );
    // The slides counter agrees with the number of results drained.
    let drained = e.drain_results(q).unwrap().len() as f64;
    let slides_parsed = parsed.get("datacell_query_slides_total", &[("query", "q0")]).unwrap();
    assert_eq!(slides_parsed, drained);
    // The two-axis workload left its marks in every subsystem.
    assert!(parsed.total("datacell_scheduler_worker_fires_total") > 0.0);
    assert!(parsed.total("datacell_kernel_grouped_agg_par_calls_total") > 0.0);
}
