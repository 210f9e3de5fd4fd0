//! Basket ingestion under real concurrency: many appender threads pushing
//! into one `ShardedBasket` (one basket behind one lock) while the engine
//! schedules and garbage-collects. The invariants on trial:
//!
//! * no tuple is lost or duplicated, regardless of thread interleaving;
//! * oids stay dense and monotone, and each appender's batches keep its
//!   own order;
//! * window results are interleave-invariant wherever the query makes
//!   them so;
//! * `min_consumed`-bounded expiry never reclaims an unread oid.
//!
//! This file runs under the CI `config` matrix: `EngineConfig::from_env()`
//! picks the worker and partition counts up from the environment, so the
//! same assertions cover the sequential and the parallel engine.

use datacell::core::EngineConfig;
use datacell::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

const APPENDERS: usize = 16;
const BATCHES_PER_APPENDER: usize = 50;
const ROWS_PER_BATCH: usize = 4;

fn ingest_basket() -> ShardedBasket {
    ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]))
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

/// A writer thread's loop: append every `(stamp, batch)` that `source`
/// yields until it returns `None`, and return the tuples delivered.
fn write_all(
    basket: &ShardedBasket,
    mut source: impl FnMut() -> Option<(u64, Vec<Column>)>,
) -> usize {
    let mut delivered = 0;
    while let Some((ts, batch)) = source() {
        basket.append(&batch, ts).unwrap();
        delivered += batch[0].len();
    }
    delivered
}

/// Run 16 appender threads against a basket and return its oid range,
/// values and stamps.
fn stress() -> (u64, u64, Vec<i64>, Vec<u64>) {
    let sb = ingest_basket();
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
                    // no meaningful per-thread arrival order, and the
                    // basket rejects regressions rather than clamping them.
                    sb.append(&[Column::Int(vals)], 0).unwrap();
                }
            });
        }
    });
    let (base, end) = (sb.base_oid(), sb.end_oid());
    let (vals, ts) = sb.with(|b| {
        let w = b.snapshot();
        (w.col(0).unwrap().as_int().unwrap().to_vec(), w.timestamps().to_vec())
    });
    (base, end, vals, ts)
}

#[test]
fn sixteen_appenders_lose_and_duplicate_nothing() {
    let (base, end, vals, ts) = stress();
    let total = (APPENDERS * BATCHES_PER_APPENDER * ROWS_PER_BATCH) as u64;
    // Dense, monotone oids: exactly [0, total) resident.
    assert_eq!((base, end, vals.len() as u64), (0, total, total));
    // Timestamps are non-decreasing in oid order.
    assert!(ts.windows(2).all(|w| w[0] <= w[1]), "ts regressed");
    // The multiset of values is exactly what the appenders sent.
    let mut sorted = vals;
    sorted.sort_unstable();
    assert_eq!(sorted, expected_values());
}

#[test]
fn writer_fleets_land_dense_oids_and_the_exact_checksum() {
    // 1, 4 and 16 writer threads, each appending the same 64-row batch
    // many times: every fleet lands dense oids from 0 and exactly the
    // sum of what it sent.
    const BATCHES: usize = 50;
    const ROWS: i64 = 64;
    for writers in [1i64, 4, 16] {
        let sb = ingest_basket();
        let value = |tid: i64, r: i64| 1_000 * tid + r;
        std::thread::scope(|s| {
            for tid in 0..writers {
                let sb = &sb;
                s.spawn(move || {
                    let batch = [Column::Int((0..ROWS).map(|r| value(tid, r)).collect())];
                    for _ in 0..BATCHES {
                        sb.append(&batch, 0).unwrap();
                    }
                });
            }
        });
        let total = writers as u64 * BATCHES as u64 * ROWS as u64;
        assert_eq!((sb.base_oid(), sb.end_oid(), sb.len() as u64), (0, total, total));
        let sum: i64 = sb.with(|b| b.snapshot().col(0).unwrap().as_int().unwrap().iter().sum());
        let expect: i64 =
            (0..writers).flat_map(|t| (0..ROWS).map(move |r| value(t, r))).sum::<i64>()
                * BATCHES as i64;
        assert_eq!(sum, expect, "writers={writers}: checksum mismatch");
    }
}

#[test]
fn per_appender_batch_order_is_preserved() {
    // Oid order must respect each appender's own append order even when
    // appenders interleave arbitrarily — allocation order is the stream
    // order, and one appender's allocations are sequential.
    let (_, _, vals, _) = stress();
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
fn concurrent_receptor_fleet_aggregates_match_single_shard() {
    // 16 writers' batches feeding one stream: per-window rows depend on
    // the nondeterministic interleave, but tumbling windows partition the
    // stream, so window count, per-window cardinality and the grand total
    // are interleave-invariant — and must match one writer appending the
    // same batches in order into the stream's one basket.
    let run = |threads: usize| {
        let mut e = Engine::with_config(EngineConfig::from_env());
        e.create_stream("s", &[("x", DataType::Int)]).unwrap();
        let q = e.register_sql("SELECT sum(x) FROM s WINDOW SIZE 40 SLIDE 40").unwrap();
        let basket = e.basket("s").unwrap();
        let mut results = Vec::new();
        let delivered: usize = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let basket = &basket;
                    // Thread t writes appender ids t, t + threads, ...
                    let mut batches = (0..APPENDERS)
                        .filter(move |tid| tid % threads == t)
                        .flat_map(|tid| std::iter::repeat_n(tid, 25));
                    s.spawn(move || {
                        write_all(basket, move || {
                            let tid = batches.next()?;
                            Some((0, vec![Column::Int(vec![tid as i64 + 1; 8])]))
                        })
                    })
                })
                .collect();
            // 16 appenders × 25 batches × 8 rows = 3200 tuples = 80 windows.
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
        assert_eq!(results.len(), 80, "threads={threads}");
        assert!(results.iter().all(|r| r.rows().len() == 1), "threads={threads}");
        let total: i64 = results.iter().map(|r| r.rows()[0][0].as_i64().unwrap()).sum();
        total
    };
    let expected: i64 = (1..=APPENDERS as i64).map(|v| v * 200).sum();
    assert_eq!(run(1), expected);
    assert_eq!(run(APPENDERS), expected);
}

#[test]
fn gc_never_reclaims_an_undrained_shard() {
    // A slow factory (window 100) keeps `min_consumed` low while appends
    // through a receptor's handle pile up; GC runs on every drain. No
    // unread tuple may ever be lost — the final window must see them all.
    let mut e = Engine::with_config(EngineConfig::from_env());
    e.create_stream("s", &[("x", DataType::Int)]).unwrap();
    let slow = e.register_sql("SELECT sum(x) FROM s WINDOW SIZE 100 SLIDE 100").unwrap();
    let fast = e.register_sql("SELECT count(x) FROM s WINDOW SIZE 5 SLIDE 5").unwrap();
    let b = e.basket("s").unwrap();
    for i in 0..20i64 {
        // Two receptor appends per round; drains fire + GC in between.
        b.append(&[Column::Int(vec![i * 5 + 1, i * 5 + 2])], 0).unwrap();
        b.append(&[Column::Int(vec![i * 5 + 3, i * 5 + 4, i * 5 + 5])], 0).unwrap();
        e.run_until_idle().unwrap();
        // The unconsumed suffix survives: the fast query has consumed
        // everything, the slow one bounds expiry.
        let resident = b.end_oid() - b.base_oid();
        assert!(resident <= 100, "GC must keep at most one slow window resident");
    }
    // 20 rounds × 5 tuples = 100: exactly one slow window, sum = 1..=100.
    e.run_until_idle().unwrap();
    let out = e.drain_results(slow).unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].rows(), vec![vec![Value::Int((1..=100i64).sum())]]);
    assert_eq!(e.drain_results(fast).unwrap().len(), 20);
}

#[test]
fn receptor_fleet_with_gc_loop_under_live_engine() {
    // End-to-end churn: 16 writer threads feed while a separate thread
    // keeps the engine draining (fire + GC in a loop). Every window
    // of the standing query must come out exactly once.
    let engine = Mutex::new({
        let mut e = Engine::with_config(EngineConfig::from_env());
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
            .map(|_| {
                let basket = &basket;
                let mut left = 16i64;
                s.spawn(move || {
                    write_all(basket, move || {
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
    // The poison policy: a reader that panics under the basket's lock
    // costs that reader only. Afterwards appends and reads see every oid
    // and value.
    let sb = ingest_basket();
    assert_eq!(sb.append(&[Column::Int(vec![1, 2])], 0).unwrap(), 0);
    let caught = catch_unwind(AssertUnwindSafe(|| sb.with(|_| panic!("reader bug"))));
    assert!(caught.is_err());
    assert_eq!(sb.append(&[Column::Int(vec![3])], 1).unwrap(), 2);
    assert_eq!(sb.append(&[Column::Int(vec![4, 5])], 2).unwrap(), 3);
    let vals = sb.with(|b| b.snapshot().col(0).unwrap().as_int().unwrap().to_vec());
    assert_eq!(vals, vec![1, 2, 3, 4, 5]);
    assert_eq!((sb.base_oid(), sb.end_oid()), (0, 5));
}
