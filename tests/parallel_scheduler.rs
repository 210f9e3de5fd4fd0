//! The parallel Petri-net scheduler, end to end: worker-pool drains must
//! be invisible in per-query results, safe for factories sharing a basket
//! at different speeds, and selectable via `EngineConfig` and
//! `DATACELL_WORKERS`.
//!
//! These tests run under the CI worker matrix (`DATACELL_WORKERS=1,2,4`),
//! so `Engine::new()` paths exercise whichever pool size the environment
//! selects, while the determinism checks pin their own counts explicitly.

use datacell::basket::ReceptorHandle;
use datacell::core::{parse_count, EngineConfig};
use datacell::prelude::*;

/// Eight independent standing queries over eight streams: per-query
/// results must be identical for every worker count, and the one-worker
/// run *is* the sequential scheduler (same code path), so this pins the
/// parallel drain to sequential semantics.
#[test]
fn multi_query_results_identical_across_worker_counts() {
    let run = |workers: usize| -> Vec<Vec<Vec<Vec<Value>>>> {
        let mut engine = Engine::with_config(EngineConfig { workers, ..EngineConfig::from_env() });
        let mut queries = Vec::new();
        for i in 0..8 {
            let s = format!("s{i}");
            engine.create_stream(&s, &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
            let q = engine
                .register_sql(&format!(
                    "SELECT x1, sum(x2) FROM {s} WHERE x1 > 1 GROUP BY x1 \
                     WINDOW SIZE 32 SLIDE 8"
                ))
                .unwrap();
            queries.push((s, q));
        }
        for round in 0..10 {
            for (i, (s, _)) in queries.iter().enumerate() {
                let base = (round * 8 + i) as i64;
                let xs: Vec<i64> = (0..16).map(|j| (base + j) % 5).collect();
                let ys: Vec<i64> = (0..16).map(|j| base * 100 + j).collect();
                engine.append(s, &[Column::Int(xs), Column::Int(ys)]).unwrap();
            }
            engine.run_until_idle().unwrap();
        }
        queries
            .into_iter()
            .map(|(_, q)| {
                engine
                    .drain_results(q)
                    .unwrap()
                    .iter()
                    .map(datacell::plan::ResultSet::rows)
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let sequential = run(1);
    assert!(sequential.iter().all(|per_q| !per_q.is_empty()));
    for workers in [2, 4, 8] {
        assert_eq!(run(workers), sequential, "workers={workers} diverged");
    }
}

/// The satellite guarantee: two factories draining one shared basket at
/// very different speeds, fired from worker threads while a receptor
/// thread keeps appending, must never observe `RangeUnavailable` for
/// unconsumed oids — expiry is bounded by the slowest cursor.
#[test]
fn shared_basket_two_speeds_concurrent_consumers_never_lose_tuples() {
    const BATCHES: u64 = 60;
    const PER_BATCH: usize = 8; // 480 tuples total

    let mut engine = Engine::with_config(EngineConfig { workers: 4, ..EngineConfig::from_env() });
    engine.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    // Fast reader: window 4 -> fires 120 times; slow reader: window 96.
    let fast =
        engine.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 4 SLIDE 4").unwrap();
    let slow =
        engine.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 96 SLIDE 96").unwrap();

    let basket = engine.basket("s").unwrap();
    let mut left = BATCHES;
    let handle = ReceptorHandle::spawn(basket, 4, move || {
        if left == 0 {
            return None;
        }
        left -= 1;
        Some((
            BATCHES - left,
            vec![Column::Int(vec![1; PER_BATCH]), Column::Int(vec![2; PER_BATCH])],
        ))
    });

    let (mut fast_out, mut slow_out) = (Vec::new(), Vec::new());
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        // A RangeUnavailable on an unconsumed oid would surface here.
        engine.run_until_idle().unwrap();
        fast_out.extend(engine.drain_results(fast).unwrap());
        slow_out.extend(engine.drain_results(slow).unwrap());
        if fast_out.len() >= 120 && slow_out.len() >= 5 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stalled: fast={} slow={} windows after 60s",
            fast_out.len(),
            slow_out.len()
        );
        std::thread::yield_now();
    }
    assert_eq!(handle.join().unwrap(), 480);
    engine.run_until_idle().unwrap();
    fast_out.extend(engine.drain_results(fast).unwrap());
    slow_out.extend(engine.drain_results(slow).unwrap());

    assert_eq!(fast_out.len(), 120);
    for w in &fast_out {
        assert_eq!(w.rows(), vec![vec![Value::Int(8)]]); // 4 tuples × 2
    }
    assert_eq!(slow_out.len(), 5);
    for w in &slow_out {
        assert_eq!(w.rows(), vec![vec![Value::Int(192)]]); // 96 tuples × 2
    }
    // 480 divides evenly into 96-windows: both readers consumed it all,
    // so GC emptied the basket.
    assert_eq!(engine.basket_len("s").unwrap(), 0);
}

/// Deregistering the slow consumer mid-flight releases its expiry bound
/// without disturbing the surviving parallel consumers.
#[test]
fn deregister_under_parallel_drain_releases_gc_bound() {
    let mut engine = Engine::with_config(EngineConfig { workers: 4, ..EngineConfig::from_env() });
    engine.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    let fast =
        engine.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 2 SLIDE 2").unwrap();
    let slow = engine
        .register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 500 SLIDE 500")
        .unwrap();
    engine.append("s", &[Column::Int(vec![1; 20]), Column::Int(vec![1; 20])]).unwrap();
    engine.run_until_idle().unwrap();
    // Slow query holds every tuple resident.
    assert_eq!(engine.basket_len("s").unwrap(), 20);
    engine.deregister(slow).unwrap();
    engine.append("s", &[Column::Int(vec![1; 2]), Column::Int(vec![1; 2])]).unwrap();
    engine.run_until_idle().unwrap();
    // Only the fast query bounds expiry now; it has consumed everything.
    assert_eq!(engine.basket_len("s").unwrap(), 0);
    assert_eq!(engine.drain_results(fast).unwrap().len(), 11);
}

/// Time-based windows fire identically under the worker pool: the clock
/// is snapshotted per drain, so parallel firing cannot tear a window
/// boundary.
#[test]
fn time_windows_under_worker_pool() {
    let run = |workers: usize| {
        let mut engine = Engine::with_config(EngineConfig { workers, ..EngineConfig::from_env() });
        engine.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
        let q =
            engine.register_sql("SELECT count(x1) FROM s WINDOW RANGE 20 MS SLIDE 10 MS").unwrap();
        for t in 0..10u64 {
            engine
                .append_at("s", &[Column::Int(vec![t as i64; 3]), Column::Int(vec![1; 3])], t * 7)
                .unwrap();
            engine.run_until_idle().unwrap();
        }
        engine.advance_clock(100);
        engine.run_until_idle().unwrap();
        engine
            .drain_results(q)
            .unwrap()
            .iter()
            .map(datacell::plan::ResultSet::rows)
            .collect::<Vec<_>>()
    };
    let sequential = run(1);
    assert!(!sequential.is_empty());
    assert_eq!(run(4), sequential);
}

/// `DATACELL_WORKERS` parsing: the env override accepts positive counts
/// and falls back to sequential for anything else.
#[test]
fn workers_env_override_parsing() {
    assert_eq!(parse_count(None), None);
    assert_eq!(parse_count(Some("4")), Some(4));
    assert_eq!(parse_count(Some(" 2\n")), Some(2));
    assert_eq!(parse_count(Some("0")), None);
    assert_eq!(parse_count(Some("-3")), None);
    assert_eq!(parse_count(Some("many")), None);
    // Engine::new respects whatever the harness environment selects.
    assert_eq!(Engine::new().workers(), EngineConfig::from_env().workers);
    // An explicit config beats the environment.
    let config = EngineConfig { workers: 3, ..EngineConfig::from_env() };
    assert_eq!(Engine::with_config(config).workers(), 3);
}
