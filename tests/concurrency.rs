//! Concurrency: threaded receptors feeding baskets while the engine
//! schedules factories — the multi-process shape of the paper's Fig. 1
//! (receptor processes + kernel) on threads.
//!
//! This file runs under the CI worker matrix (`DATACELL_WORKERS=1,2,4`):
//! `Engine::new()` picks the worker count up from the environment, so the
//! same assertions exercise the sequential scheduler and the worker pool.

use datacell::basket::ReceptorHandle;
use datacell::core::EngineConfig;
use datacell::prelude::*;

#[test]
fn threaded_receptor_feeds_running_engine() {
    let mut engine = Engine::new();
    engine.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    let q =
        engine.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 40 SLIDE 20").unwrap();

    // Source thread produces 50 batches of 20 tuples.
    let basket = engine.basket("s").unwrap();
    let mut left = 50u64;
    let handle = ReceptorHandle::spawn(basket, 8, move || {
        if left == 0 {
            return None;
        }
        left -= 1;
        Some((50 - left, vec![Column::Int(vec![1; 20]), Column::Int(vec![2; 20])]))
    });

    // Scheduler loop runs concurrently with ingestion.
    let mut results = Vec::new();
    loop {
        engine.run_until_idle().unwrap();
        results.extend(engine.drain_results(q).unwrap());
        if results.len() >= 49 {
            break;
        }
        std::thread::yield_now();
    }
    let delivered = handle.join().unwrap();
    engine.run_until_idle().unwrap();
    results.extend(engine.drain_results(q).unwrap());

    assert_eq!(delivered, 1000);
    // 1000 tuples, window 40 sliding by 20 -> 49 windows.
    assert_eq!(results.len(), 49);
    for w in &results {
        assert_eq!(w.rows(), vec![vec![Value::Int(80)]]); // 40 × 2
    }
}

#[test]
fn two_threaded_receptors_feed_a_join() {
    let mut engine = Engine::new();
    engine.create_stream("a", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    engine.create_stream("b", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    let q = engine
        .register_sql("SELECT count(a.v) FROM a, b WHERE a.k = b.k WINDOW SIZE 16 SLIDE 8")
        .unwrap();

    let spawn_feeder = |basket, seed: i64| {
        let mut left = 20i64;
        ReceptorHandle::spawn(basket, 4, move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            let ks: Vec<i64> = (0..8).map(|j| (seed + left + j) % 4).collect();
            let vs: Vec<i64> = (0..8).collect();
            Some(((20 - left) as u64, vec![Column::Int(ks), Column::Int(vs)]))
        })
    };
    let h1 = spawn_feeder(engine.basket("a").unwrap(), 0);
    let h2 = spawn_feeder(engine.basket("b").unwrap(), 1);

    let mut produced = 0;
    loop {
        engine.run_until_idle().unwrap();
        produced += engine.drain_results(q).unwrap().len();
        if produced >= 18 {
            break;
        }
        std::thread::yield_now();
    }
    assert_eq!(h1.join().unwrap(), 160);
    assert_eq!(h2.join().unwrap(), 160);
    engine.run_until_idle().unwrap();
    produced += engine.drain_results(q).unwrap().len();
    // 160 tuples per stream, |W|=16, |w|=8 -> 19 windows.
    assert_eq!(produced, 19);
}

#[test]
fn receptor_fleet_feeds_worker_pool() {
    // Fig. 1 at full fan-out: four receptor threads feed four streams
    // while the worker pool fires four independent standing queries.
    let mut engine = Engine::with_config(EngineConfig { workers: 4, ..EngineConfig::from_env() });
    let mut queries = Vec::new();
    for i in 0..4 {
        let s = format!("s{i}");
        engine.create_stream(&s, &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
        let q = engine
            .register_sql(&format!("SELECT sum(x2) FROM {s} WHERE x1 > 0 WINDOW SIZE 20 SLIDE 10"))
            .unwrap();
        queries.push(q);
    }
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let basket = engine.basket(&format!("s{i}")).unwrap();
            let mut left = 30u64;
            ReceptorHandle::spawn(basket, 4, move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                Some((30 - left, vec![Column::Int(vec![1; 10]), Column::Int(vec![3; 10])]))
            })
        })
        .collect();

    // 300 tuples per stream, |W|=20, |w|=10 -> 29 windows per query.
    let mut per_query = vec![Vec::new(); 4];
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        engine.run_until_idle().unwrap();
        for (q, out) in queries.iter().zip(&mut per_query) {
            out.extend(engine.drain_results(*q).unwrap());
        }
        if per_query.iter().all(|o| o.len() >= 29) {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stalled: {:?} windows after 60s",
            per_query.iter().map(Vec::len).collect::<Vec<_>>()
        );
        std::thread::yield_now();
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), 300);
    }
    engine.run_until_idle().unwrap();
    for (q, out) in queries.iter().zip(&mut per_query) {
        out.extend(engine.drain_results(*q).unwrap());
    }
    for out in &per_query {
        assert_eq!(out.len(), 29);
        for w in out {
            assert_eq!(w.rows(), vec![vec![Value::Int(60)]]); // 20 × 3
        }
    }
}
