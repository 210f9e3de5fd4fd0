//! Concurrency: writer threads feeding baskets while the engine
//! schedules factories — the multi-process shape of the paper's Fig. 1
//! (receptor processes + kernel) on scoped threads — and the
//! `ShardedBasket` handle itself under concurrent writers, readers and
//! expiry.
//!
//! This file runs under the CI worker matrix (`DATACELL_WORKERS=1,2,4`):
//! `Engine::new()` picks the worker count up from the environment, so the
//! same assertions exercise the sequential scheduler and the worker pool.

use datacell::core::EngineConfig;
use datacell::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

fn one_int_column() -> ShardedBasket {
    ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]))
}

#[test]
fn writer_thread_feeds_running_engine() {
    let mut engine = Engine::new();
    engine.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    let q =
        engine.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 40 SLIDE 20").unwrap();

    let basket = engine.basket("s").unwrap();
    let mut results = Vec::new();
    // Writer thread produces 50 batches of 20 tuples.
    let mut left = 50u64;
    let delivered = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            write_all(&basket, move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                Some((50 - left, vec![Column::Int(vec![1; 20]), Column::Int(vec![2; 20])]))
            })
        });

        // Scheduler loop runs concurrently with ingestion.
        loop {
            engine.run_until_idle().unwrap();
            results.extend(engine.drain_results(q).unwrap());
            if results.len() >= 49 {
                break;
            }
            std::thread::yield_now();
        }
        writer.join().unwrap()
    });
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
fn two_writer_threads_feed_a_join() {
    let mut engine = Engine::new();
    engine.create_stream("a", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    engine.create_stream("b", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    let q = engine
        .register_sql("SELECT count(a.v) FROM a, b WHERE a.k = b.k WINDOW SIZE 16 SLIDE 8")
        .unwrap();

    let (a, b) = (engine.basket("a").unwrap(), engine.basket("b").unwrap());
    let feed = |basket: &ShardedBasket, seed: i64| {
        let mut left = 20i64;
        write_all(basket, move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            let ks: Vec<i64> = (0..8).map(|j| (seed + left + j) % 4).collect();
            let vs: Vec<i64> = (0..8).collect();
            Some(((20 - left) as u64, vec![Column::Int(ks), Column::Int(vs)]))
        })
    };

    let mut produced = 0;
    std::thread::scope(|s| {
        let h1 = s.spawn(|| feed(&a, 0));
        let h2 = s.spawn(|| feed(&b, 1));
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
    });
    engine.run_until_idle().unwrap();
    produced += engine.drain_results(q).unwrap().len();
    // 160 tuples per stream, |W|=16, |w|=8 -> 19 windows.
    assert_eq!(produced, 19);
}

#[test]
fn receptor_fleet_feeds_worker_pool() {
    // Fig. 1 at full fan-out: four writer threads feed four streams
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
    let baskets: Vec<ShardedBasket> =
        (0..4).map(|i| engine.basket(&format!("s{i}")).unwrap()).collect();

    // 300 tuples per stream, |W|=20, |w|=10 -> 29 windows per query.
    let mut per_query = vec![Vec::new(); 4];
    std::thread::scope(|s| {
        let handles: Vec<_> = baskets
            .iter()
            .map(|basket| {
                let mut left = 30u64;
                s.spawn(move || {
                    write_all(basket, move || {
                        if left == 0 {
                            return None;
                        }
                        left -= 1;
                        Some((30 - left, vec![Column::Int(vec![1; 10]), Column::Int(vec![3; 10])]))
                    })
                })
            })
            .collect();

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
    });
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

#[test]
fn concurrent_reader_sees_monotonic_growth() {
    let basket = one_int_column();
    let mut left = 200;
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            write_all(&basket, move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                Some((200 - left, vec![Column::Int(vec![1])]))
            })
        });
        // Reader: sizes must never decrease while feeding.
        let mut last = 0;
        loop {
            let n = basket.len();
            assert!(n >= last);
            last = n;
            if n == 200 {
                break;
            }
            std::thread::yield_now();
        }
        assert_eq!(writer.join().unwrap(), 200);
    });
}

#[test]
fn concurrent_consumers_at_different_speeds_never_lose_unconsumed_oids() {
    // Two consumer threads drain one shared basket at different
    // speeds while a writer feeds it and a GC thread repeatedly
    // expires up to the *minimum* consumed position — the engine's
    // expiry rule. No consumer may ever observe RangeUnavailable for
    // an oid it has not consumed.
    const TOTAL: u64 = 600;
    let basket = one_int_column();
    let cursors = [AtomicU64::new(0), AtomicU64::new(0)];
    let done = AtomicBool::new(false);

    let mut left = TOTAL;
    std::thread::scope(|s| {
        let feeder = s.spawn(|| {
            write_all(&basket, move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                Some((TOTAL - left, vec![Column::Int(vec![(TOTAL - left) as i64])]))
            })
        });

        let basket = &basket;
        let consumers: Vec<_> = [1usize, 7]
            .into_iter()
            .zip(&cursors)
            .map(|(step, cursor)| {
                s.spawn(move || {
                    let mut sum = 0i64;
                    loop {
                        let from = cursor.load(Ordering::Acquire);
                        if from >= TOTAL {
                            return sum;
                        }
                        let take = step.min((TOTAL - from) as usize);
                        let got = basket.with(|b| {
                            if b.available_from(from) < take {
                                return None;
                            }
                            Some(b.read_range(from, take).expect(
                                "unconsumed oids must stay resident for the slowest reader",
                            ))
                        });
                        match got {
                            Some(w) => {
                                sum += w.col(0).unwrap().as_int().unwrap().iter().sum::<i64>();
                                cursor.store(from + take as u64, Ordering::Release);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                })
            })
            .collect();

        // GC thread: expire everything below the slowest cursor, as the
        // engine does between scheduler drains.
        let gc = s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                let min = cursors.iter().map(|c| c.load(Ordering::Acquire)).min().unwrap();
                basket.with(|b| b.expire_upto(min));
                std::thread::yield_now();
            }
        });

        assert_eq!(feeder.join().unwrap() as u64, TOTAL);
        let expected: i64 = (1..=TOTAL as i64).sum();
        for c in consumers {
            assert_eq!(c.join().unwrap(), expected);
        }
        done.store(true, Ordering::Release);
        gc.join().unwrap();
    });
    // Both consumers finished: everything is expirable.
    basket.with(|b| b.expire_upto(TOTAL));
    assert!(basket.is_empty());
    assert_eq!(basket.end_oid(), TOTAL);
    assert_eq!(basket.base_oid(), TOTAL);
}

#[test]
fn receptor_fleet_on_sharded_basket_delivers_all() {
    // 8 writer threads feed one basket while a "scheduler" thread polls
    // its end oid concurrently — the engine's wake-up pattern. Nothing
    // may be lost or doubled, and the end never moves backwards.
    let sb = one_int_column();
    let done = AtomicBool::new(false);
    let delivered: usize = std::thread::scope(|s| {
        s.spawn(|| {
            let mut last = 0;
            while !done.load(Ordering::Acquire) {
                let end = sb.end_oid();
                assert!(end >= last, "end oid regressed: {end} < {last}");
                last = end;
                std::thread::yield_now();
            }
        });
        let sb = &sb;
        let writers: Vec<_> = (0..8)
            .map(|tid| {
                let mut left = 40i64;
                s.spawn(move || {
                    write_all(sb, move || {
                        if left == 0 {
                            return None;
                        }
                        left -= 1;
                        let v = tid as i64 * 100 + left;
                        Some((0, vec![Column::Int(vec![v, v])]))
                    })
                })
            })
            .collect();
        let delivered = writers.into_iter().map(|w| w.join().unwrap()).sum();
        done.store(true, Ordering::Release);
        delivered
    });
    assert_eq!(delivered, 8 * 40 * 2);
    assert_eq!((sb.base_oid(), sb.end_oid(), sb.len()), (0, 640, 640));
    let mut vals = sb.with(|b| b.snapshot().col(0).unwrap().as_int().unwrap().to_vec());
    vals.sort_unstable();
    let mut expect: Vec<i64> =
        (0..8).flat_map(|t| (0..40).flat_map(move |i| [t * 100 + i, t * 100 + i])).collect();
    expect.sort_unstable();
    assert_eq!(vals, expect);
}
