//! Sharded basket ingestion under real concurrency: many appender threads
//! pushing into one `ShardedBasket` while the engine schedules, seals and
//! garbage-collects. The invariants on trial:
//!
//! * no tuple is lost or duplicated, regardless of thread interleaving;
//! * oids stay dense and monotone (the global allocator contract);
//! * factory results are identical to the single-shard (nothing staged) run
//!   wherever determinism allows, and aggregate-equal where it does not;
//! * `min_consumed`-bounded expiry never reclaims an undrained shard.
//!
//! This file runs under the CI `config` matrix (shards 1 and 4, the
//! latter also crossed with workers=4 × partitions=4): `Engine::new()`
//! picks all three knobs up from the environment, so the same assertions cover
//! one shard and the staged, sealed path.

use datacell::core::EngineConfig;
use datacell::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

const APPENDERS: usize = 16;
const BATCHES_PER_APPENDER: usize = 50;
const ROWS_PER_BATCH: usize = 4;

fn ingest_basket(shards: usize) -> ShardedBasket {
    ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]), shards)
}

/// Value encoding: appender id × 1M + sequence, so losses, duplicates and
/// cross-thread mixups all show up in the multiset.
fn expected_values() -> Vec<i64> {
    let mut v: Vec<i64> = (0..APPENDERS as i64)
        .flat_map(|t| {
            (0..(BATCHES_PER_APPENDER * ROWS_PER_BATCH) as i64).map(move |i| t * 1_000_000 + i)
        })
        .collect();
    v.sort_unstable();
    v
}

/// Writer thread `i`'s loop: append every `(stamp, batch)` that `source`
/// yields at shard `i % shards` until it returns `None`, and return the
/// tuples delivered.
fn write_all(
    basket: &ShardedBasket,
    i: usize,
    mut source: impl FnMut() -> Option<(u64, Vec<Column>)>,
) -> usize {
    let shard = i % basket.shards();
    let mut delivered = 0;
    while let Some((ts, batch)) = source() {
        basket.append_shard(shard, &batch, ts).unwrap();
        delivered += batch[0].len();
    }
    delivered
}

/// Run 16 appender threads against a basket and return the sealed values.
fn stress(shards: usize) -> (u64, u64, Vec<i64>, Vec<u64>) {
    let sb = ingest_basket(shards);
    let barrier = Barrier::new(APPENDERS);
    std::thread::scope(|s| {
        for tid in 0..APPENDERS {
            let (sb, barrier) = (&sb, &barrier);
            s.spawn(move || {
                barrier.wait();
                for b in 0..BATCHES_PER_APPENDER {
                    let base = (tid * 1_000_000 + b * ROWS_PER_BATCH) as i64;
                    let vals: Vec<i64> = (0..ROWS_PER_BATCH as i64).map(|r| base + r).collect();
                    // One shared stamp: across racing appenders there is
                    // no meaningful per-thread arrival order, and one
                    // shard (straight into the basket) rejects
                    // regressions rather than clamping them.
                    sb.append_shard(tid % shards, &[Column::Int(vals)], 0).unwrap();
                }
            });
        }
    });
    sb.seal();
    let (base, end) = (sb.base_oid(), sb.end_oid());
    let (vals, ts) = sb.with(|b| {
        let w = b.snapshot();
        (w.col(0).unwrap().as_int().unwrap().to_vec(), w.timestamps().to_vec())
    });
    (base, end, vals, ts)
}

#[test]
fn sixteen_appenders_lose_and_duplicate_nothing() {
    for shards in [1, 2, 4, 8] {
        let (base, end, vals, ts) = stress(shards);
        let total = (APPENDERS * BATCHES_PER_APPENDER * ROWS_PER_BATCH) as u64;
        // Dense, monotone oids: exactly [0, total) resident.
        assert_eq!(base, 0, "shards={shards}");
        assert_eq!(end, total, "shards={shards}");
        assert_eq!(vals.len() as u64, total, "shards={shards}");
        // Timestamps are non-decreasing in oid order (allocator clamp).
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "shards={shards}: ts regressed");
        // The multiset of values is exactly what the appenders sent.
        let mut sorted = vals;
        sorted.sort_unstable();
        assert_eq!(sorted, expected_values(), "shards={shards}");
    }
}

#[test]
fn per_appender_batch_order_is_preserved() {
    // Oid order must respect each appender's own append order even when
    // appenders interleave arbitrarily — allocation order is the stream
    // order, and one appender's allocations are sequential.
    let (_, _, vals, _) = stress(4);
    let mut last_seen = [-1i64; APPENDERS];
    for v in vals {
        let tid = (v / 1_000_000) as usize;
        let seq = v % 1_000_000;
        assert!(
            seq > last_seen[tid],
            "appender {tid}: value {seq} after {} in oid order",
            last_seen[tid]
        );
        last_seen[tid] = seq;
    }
}

#[test]
fn factory_results_identical_to_single_shard_run() {
    // Deterministic feeding from the test's own thread: the sharded engine must
    // produce byte-identical window results to the 1-shard engine, for
    // both execution modes, across drains and GC cycles.
    let run = |shards: usize| {
        let mut e =
            Engine::with_config(EngineConfig { basket_shards: shards, ..EngineConfig::from_env() });
        e.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
        let qi = e
            .register_sql(
                "SELECT x1, sum(x2) FROM s WHERE x1 > 1 GROUP BY x1 WINDOW SIZE 8 SLIDE 4",
            )
            .unwrap();
        let qr = e
            .register_sql_with(
                "SELECT count(x1) FROM s WINDOW SIZE 6 SLIDE 3",
                datacell::core::RegisterOptions { mode: ExecMode::Reevaluation, chunker: None },
            )
            .unwrap();
        let mut out = Vec::new();
        for round in 0..6u64 {
            let xs: Vec<i64> = (0..10).map(|i| (i + round as i64) % 5).collect();
            let ys: Vec<i64> = (0..10).map(|i| i * (round as i64 + 1)).collect();
            e.append_at("s", &[Column::Int(xs), Column::Int(ys)], round).unwrap();
            e.run_until_idle().unwrap();
            for q in [qi, qr] {
                out.push(
                    e.drain_results(q)
                        .unwrap()
                        .iter()
                        .map(datacell::plan::ResultSet::rows)
                        .collect::<Vec<_>>(),
                );
            }
        }
        out
    };
    let single = run(1);
    assert!(single.iter().any(|r| !r.is_empty()));
    for shards in [2, 4] {
        assert_eq!(run(shards), single, "shards={shards} diverged from single-shard results");
    }
}

#[test]
fn concurrent_receptor_fleet_aggregates_match_single_shard() {
    // 16 writer threads feeding one stream concurrently: per-window
    // rows depend on the nondeterministic interleave, but tumbling
    // windows partition the stream, so window count, per-window
    // cardinality and the grand total are interleave-invariant — and
    // must match the single-shard run.
    let run = |shards: usize| {
        let mut e =
            Engine::with_config(EngineConfig { basket_shards: shards, ..EngineConfig::from_env() });
        e.create_stream("s", &[("x", DataType::Int)]).unwrap();
        let q = e.register_sql("SELECT sum(x) FROM s WINDOW SIZE 40 SLIDE 40").unwrap();
        let basket = e.basket("s").unwrap();
        let mut results = Vec::new();
        let delivered: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..APPENDERS)
                .map(|tid| {
                    let basket = &basket;
                    let mut left = 25i64;
                    s.spawn(move || {
                        write_all(basket, tid, move || {
                            if left == 0 {
                                return None;
                            }
                            left -= 1;
                            Some((0, vec![Column::Int(vec![tid as i64 + 1; 8])]))
                        })
                    })
                })
                .collect();
            // 16 threads × 25 batches × 8 rows = 3200 tuples = 80 windows.
            while results.len() < 80 {
                e.run_until_idle().unwrap();
                results.extend(e.drain_results(q).unwrap());
                std::thread::yield_now();
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        e.run_until_idle().unwrap();
        results.extend(e.drain_results(q).unwrap());
        assert_eq!(delivered, 3200);
        assert_eq!(results.len(), 80, "shards={shards}");
        let total: i64 = results.iter().map(|r| r.rows()[0][0].as_i64().unwrap()).sum();
        total
    };
    let expected: i64 = (1..=APPENDERS as i64).map(|v| v * 200).sum();
    assert_eq!(run(1), expected);
    assert_eq!(run(4), expected);
}

#[test]
fn gc_never_reclaims_an_undrained_shard() {
    // A slow factory (window 100) keeps `min_consumed` low while staged
    // segments pile up unsealed; GC runs on every drain. Nothing staged
    // may ever be lost — the final window must see every tuple.
    let mut e = Engine::with_config(EngineConfig { basket_shards: 4, ..EngineConfig::from_env() });
    e.create_stream("s", &[("x", DataType::Int)]).unwrap();
    let slow = e.register_sql("SELECT sum(x) FROM s WINDOW SIZE 100 SLIDE 100").unwrap();
    let fast = e.register_sql("SELECT count(x) FROM s WINDOW SIZE 5 SLIDE 5").unwrap();
    let b = e.basket("s").unwrap();
    for i in 0..20i64 {
        // Two staged appends per round; drains seal + GC in between.
        b.append_shard((i % 4) as usize, &[Column::Int(vec![i * 5 + 1, i * 5 + 2])], 0).unwrap();
        b.append_shard(
            ((i + 1) % 4) as usize,
            &[Column::Int(vec![i * 5 + 3, i * 5 + 4, i * 5 + 5])],
            0,
        )
        .unwrap();
        e.run_until_idle().unwrap();
        // The sealed-but-unconsumed suffix survives: the fast query has
        // consumed everything sealed, the slow one bounds expiry.
        let sealed = b.end_oid() - b.base_oid();
        assert!(sealed <= 100, "GC must keep at most one slow window resident");
    }
    // 20 rounds × 5 tuples = 100: exactly one slow window, sum = 1..=100.
    e.run_until_idle().unwrap();
    let out = e.drain_results(slow).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rows(), vec![vec![Value::Int((1..=100i64).sum())]]);
    assert_eq!(e.drain_results(fast).unwrap().len(), 20);
}

#[test]
fn basket_level_expiry_cannot_touch_staged_segments() {
    // Direct basket-level version of the GC invariant: staged segments
    // sit at or past the sealed frontier, and expiry is capped at that
    // frontier, so even `expire_upto(u64::MAX)` cannot reach them.
    let sb = ingest_basket(4);
    sb.append_shard(0, &[Column::Int(vec![1, 2])], 0).unwrap();
    sb.seal();
    sb.append_shard(1, &[Column::Int(vec![3, 4])], 1).unwrap();
    sb.append_shard(2, &[Column::Int(vec![5])], 2).unwrap();
    sb.with(|b| b.expire_upto(u64::MAX));
    assert_eq!(sb.len(), 0);
    assert_eq!(sb.staged_len(), 3);
    assert_eq!(sb.seal(), 5);
    let vals = sb.with(|b| b.snapshot().col(0).unwrap().as_int().unwrap().to_vec());
    assert_eq!(vals, vec![3, 4, 5]);
    assert_eq!(sb.base_oid(), 2); // expired prefix stays expired
}

#[test]
fn receptor_fleet_with_gc_loop_under_live_engine() {
    // End-to-end churn: 16 writer threads feed while a separate thread
    // keeps the engine draining (seal + fire + GC in a loop). Every window
    // of the standing query must come out exactly once.
    let engine = Mutex::new({
        let mut e =
            Engine::with_config(EngineConfig { basket_shards: 4, ..EngineConfig::from_env() });
        e.create_stream("s", &[("x", DataType::Int)]).unwrap();
        e
    });
    let q = engine
        .lock()
        .unwrap()
        .register_sql("SELECT count(x) FROM s WINDOW SIZE 64 SLIDE 64")
        .unwrap();
    let basket = engine.lock().unwrap().basket("s").unwrap();
    let stop = AtomicBool::new(false);
    let (delivered, results) = std::thread::scope(|s| {
        let driver = s.spawn(|| {
            let mut results = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let mut e = engine.lock().unwrap();
                e.run_until_idle().unwrap();
                results.extend(e.drain_results(q).unwrap());
                drop(e);
                std::thread::yield_now();
            }
            let mut e = engine.lock().unwrap();
            e.run_until_idle().unwrap();
            results.extend(e.drain_results(q).unwrap());
            results
        });
        let handles: Vec<_> = (0..APPENDERS)
            .map(|tid| {
                let basket = &basket;
                let mut left = 16i64;
                s.spawn(move || {
                    write_all(basket, tid, move || {
                        if left == 0 {
                            return None;
                        }
                        left -= 1;
                        Some((0, vec![Column::Int(vec![7; 4])]))
                    })
                })
            })
            .collect();
        let delivered: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        stop.store(true, Ordering::Release);
        (delivered, driver.join().unwrap())
    });
    assert_eq!(delivered, APPENDERS * 16 * 4);
    // 1024 tuples / 64 per tumbling window = 16 windows, each count 64.
    assert_eq!(results.len(), 16);
    for r in &results {
        assert_eq!(r.rows(), vec![vec![Value::Int(64)]]);
    }
}

#[test]
fn a_panic_inside_with_leaves_the_stream_usable() {
    // The poison policy: a reader that panics under the merged-view lock
    // costs that reader only. Afterwards appends, seals and reads see
    // every oid and value, with one shard and with staging.
    for shards in [1, 4] {
        let sb = ingest_basket(shards);
        assert_eq!(sb.append(&[Column::Int(vec![1, 2])], 0).unwrap(), 0);
        let caught = catch_unwind(AssertUnwindSafe(|| sb.with(|_| panic!("reader bug"))));
        assert!(caught.is_err(), "shards={shards}");
        assert_eq!(sb.append(&[Column::Int(vec![3])], 1).unwrap(), 2, "shards={shards}");
        assert_eq!(sb.append_shard(1, &[Column::Int(vec![4, 5])], 2).unwrap(), 3);
        assert_eq!(sb.seal(), 5, "shards={shards}");
        let vals = sb.with(|b| b.snapshot().col(0).unwrap().as_int().unwrap().to_vec());
        assert_eq!(vals, vec![1, 2, 3, 4, 5], "shards={shards}");
        assert_eq!((sb.base_oid(), sb.end_oid(), sb.staged_len()), (0, 5, 0));
    }
}
