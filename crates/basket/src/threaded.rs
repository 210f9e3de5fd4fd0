//! Threaded receptors: "a set of separate processes per stream ... to
//! listen for new data" (paper §2).
//!
//! A [`ReceptorHandle`] runs a batch source on its own thread and pumps
//! into a basket — the engine thread keeps scheduling factories
//! concurrently. Batches are forwarded through a bounded crossbeam
//! channel so a slow consumer back-pressures the source instead of
//! ballooning memory.
//!
//! Each handle writes through a [`ShardedBasket`] and is pinned to one
//! staging shard at spawn (round-robin) or places every row by key hash:
//! many receptor handles append concurrently without contending on the
//! basket's mutex. With a single shard there is nothing to pin to and
//! every batch goes straight into the merged view.

use crate::basket::Timestamp;
use crate::sharded::ShardedBasket;
use crate::Result;
use crossbeam::channel::{bounded, Receiver, Sender};
use datacell_kernel::{Column, Oid};
use std::thread::JoinHandle;

/// A batch travelling from a source thread to the basket pump.
type TimedBatch = (Timestamp, Vec<Column>);

/// Handle to a receptor thread feeding one basket.
pub struct ReceptorHandle {
    join: Option<JoinHandle<Result<usize>>>,
    /// Dropped to signal shutdown if the source is still running.
    shutdown: Option<Sender<()>>,
}

impl ReceptorHandle {
    /// Spawn a receptor thread running `source`. The closure is called
    /// repeatedly and returns `None` when the stream ends; each `Some`
    /// batch is appended to the basket with its timestamp. The handle is
    /// pinned to one staging shard (round-robin) for its lifetime.
    ///
    /// `queue` bounds the number of in-flight batches (back-pressure).
    pub fn spawn(
        basket: ShardedBasket,
        queue: usize,
        source: impl FnMut() -> Option<TimedBatch> + Send + 'static,
    ) -> ReceptorHandle {
        let shard = basket.assign_shard();
        ReceptorHandle::spawn_on_shard(basket, shard, queue, source)
    }

    /// [`ReceptorHandle::spawn`] with key-hash placement: each batch is
    /// split by the canonical `Placement` map over column `key_col`, so
    /// every row stages at the shard its key owns (see
    /// [`ShardedBasket::append_keyed`]) and sealed segments feed
    /// key-partitioned kernel operators without re-partitioning. Streams
    /// without a grouping key should keep [`ReceptorHandle::spawn`]'s
    /// round-robin pinning.
    pub fn spawn_keyed(
        basket: ShardedBasket,
        key_col: usize,
        queue: usize,
        source: impl FnMut() -> Option<TimedBatch> + Send + 'static,
    ) -> ReceptorHandle {
        spawn_pump(queue, source, move |batch, ts| basket.append_keyed(key_col, batch, ts))
    }

    /// [`ReceptorHandle::spawn`] with an explicit staging shard — key- or
    /// placement-aware receptors pick their own shard (the index is taken
    /// modulo the basket's live shard count).
    pub fn spawn_on_shard(
        basket: ShardedBasket,
        shard: usize,
        queue: usize,
        source: impl FnMut() -> Option<TimedBatch> + Send + 'static,
    ) -> ReceptorHandle {
        spawn_pump(queue, source, move |batch, ts| basket.append_shard(shard, batch, ts))
    }

    /// Wait for the source to finish naturally and all batches to land in
    /// the basket. Returns the number of tuples delivered, or the first
    /// error the basket answered a batch with (later batches were still
    /// offered, so one rejected batch costs only its own rows). A panic
    /// on the pump thread resumes here. (To stop an unbounded source
    /// early, drop the handle instead.)
    pub fn join(mut self) -> Result<usize> {
        let handle = self.join.take().expect("join called once");
        let delivered = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        drop(self.shutdown.take());
        delivered
    }
}

/// A source thread producing until exhausted or shut down, and a pump
/// thread draining the channel into the basket through `append`.
fn spawn_pump(
    queue: usize,
    mut source: impl FnMut() -> Option<TimedBatch> + Send + 'static,
    append: impl Fn(&[Column], Timestamp) -> Result<Oid> + Send + 'static,
) -> ReceptorHandle {
    let (tx, rx): (Sender<TimedBatch>, Receiver<TimedBatch>) = bounded(queue.max(1));
    let (stop_tx, stop_rx) = bounded::<()>(0);

    std::thread::spawn(move || {
        while let Some(batch) = source() {
            crossbeam::channel::select! {
                send(tx, batch) -> res => {
                    if res.is_err() {
                        break; // pump gone
                    }
                }
                recv(stop_rx) -> _ => break,
            }
        }
    });

    let join = std::thread::spawn(move || {
        let mut delivered = 0usize;
        let mut first_err = None;
        while let Ok((ts, batch)) = rx.recv() {
            match append(&batch, ts) {
                Ok(_) => delivered += batch.first().map_or(0, Column::len),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(delivered), Err)
    });

    ReceptorHandle { join: Some(join), shutdown: Some(stop_tx) }
}

impl Drop for ReceptorHandle {
    fn drop(&mut self) {
        drop(self.shutdown.take());
        if let Some(h) = self.join.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basket::{Basket, BasketError};
    use datacell_kernel::DataType;

    fn shared() -> ShardedBasket {
        ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]), 1)
    }

    #[test]
    fn join_reports_the_first_rejected_batch() {
        // A wrong-arity batch between two good ones, at both ends of the
        // shard axis: the good rows land, `join` is the error.
        for shards in [1, 4] {
            let basket = ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]), shards);
            let mut feed = vec![
                vec![Column::Int(vec![1, 2])],
                vec![Column::Int(vec![3]), Column::Int(vec![4])],
                vec![Column::Float(vec![0.5])],
                vec![Column::Int(vec![5])],
            ]
            .into_iter();
            let handle =
                ReceptorHandle::spawn(basket.clone(), 2, move || feed.next().map(|b| (0, b)));
            let err = handle.join().unwrap_err();
            assert!(
                matches!(&err, BasketError::Malformed(m) if m.contains("arity")),
                "first error wins: {err}"
            );
            assert_eq!(basket.seal(), 3);
        }
    }

    #[test]
    fn threaded_receptor_delivers_all_batches() {
        let basket = shared();
        let mut left = 10;
        let mut ts = 0;
        let handle = ReceptorHandle::spawn(basket.clone(), 4, move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            ts += 1;
            Some((ts, vec![Column::Int(vec![left as i64, left as i64 + 1])]))
        });
        let delivered = handle.join().unwrap();
        assert_eq!(delivered, 20);
        assert_eq!(basket.len(), 20);
    }

    #[test]
    fn concurrent_reader_sees_monotonic_growth() {
        let basket = shared();
        let mut left = 200;
        let handle = ReceptorHandle::spawn(basket.clone(), 2, move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            Some((200 - left, vec![Column::Int(vec![1])]))
        });
        // Reader thread: sizes must never decrease while feeding.
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
        assert_eq!(handle.join().unwrap(), 200);
    }

    #[test]
    fn concurrent_consumers_at_different_speeds_never_lose_unconsumed_oids() {
        // Two consumer threads drain one shared basket at different
        // speeds while a receptor feeds it and a GC thread repeatedly
        // expires up to the *minimum* consumed position — the engine's
        // expiry rule. No consumer may ever observe RangeUnavailable for
        // an oid it has not consumed.
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;

        const TOTAL: u64 = 600;
        let basket = shared();
        let cursors = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
        let done = Arc::new(AtomicBool::new(false));

        let mut left = TOTAL;
        let feeder = ReceptorHandle::spawn(basket.clone(), 4, move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            Some((TOTAL - left, vec![Column::Int(vec![(TOTAL - left) as i64])]))
        });

        let consumers: Vec<_> = [1usize, 7]
            .into_iter()
            .zip(&cursors)
            .map(|(step, cursor)| {
                let basket = basket.clone();
                let cursor = Arc::clone(cursor);
                std::thread::spawn(move || {
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
        let gc = {
            let basket = basket.clone();
            let cursors = [Arc::clone(&cursors[0]), Arc::clone(&cursors[1])];
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let min = cursors.iter().map(|c| c.load(Ordering::Acquire)).min().unwrap();
                    basket.with(|b| b.expire_upto(min));
                    std::thread::yield_now();
                }
            })
        };

        assert_eq!(feeder.join().unwrap() as u64, TOTAL);
        let expected: i64 = (1..=TOTAL as i64).sum();
        for c in consumers {
            assert_eq!(c.join().unwrap(), expected);
        }
        done.store(true, Ordering::Release);
        gc.join().unwrap();
        // Both consumers finished: everything is expirable.
        basket.with(|b| b.expire_upto(TOTAL));
        assert!(basket.is_empty());
        assert_eq!(basket.end_oid(), TOTAL);
        assert_eq!(basket.base_oid(), TOTAL);
    }

    #[test]
    fn receptor_fleet_on_sharded_basket_delivers_all() {
        // 8 receptor handles (round-robin over 4 shards) feed one
        // sharded basket while a "scheduler" thread seals concurrently —
        // the engine's wake-up pattern. Nothing may be lost or doubled.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let sb = ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]), 4);
        let done = Arc::new(AtomicBool::new(false));
        let sealer = {
            let sb = sb.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    sb.seal();
                    std::thread::yield_now();
                }
            })
        };
        let handles: Vec<_> = (0..8)
            .map(|tid| {
                let mut left = 40i64;
                ReceptorHandle::spawn(sb.clone(), 4, move || {
                    if left == 0 {
                        return None;
                    }
                    left -= 1;
                    Some((0, vec![Column::Int(vec![tid * 100 + left, tid * 100 + left])]))
                })
            })
            .collect();
        let delivered: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        done.store(true, Ordering::Release);
        sealer.join().unwrap();
        assert_eq!(delivered, 8 * 40 * 2);
        assert_eq!(sb.seal(), 640);
        assert_eq!(sb.len(), 640);
        let mut vals = sb.with(|b| b.snapshot().col(0).unwrap().as_int().unwrap().to_vec());
        vals.sort_unstable();
        let mut expect: Vec<i64> =
            (0..8).flat_map(|t| (0..40).flat_map(move |i| [t * 100 + i, t * 100 + i])).collect();
        expect.sort_unstable();
        assert_eq!(vals, expect);
    }

    #[test]
    fn keyed_receptor_delivers_batches_in_placement_order() {
        use datacell_kernel::Placement;

        let sb = ShardedBasket::new(Basket::new("s", &[("k", DataType::Int)]), 4);
        let batches: Vec<Vec<i64>> =
            (0..6).map(|b| (0..16).map(|i| (b * 16 + i) % 7).collect()).collect();
        let mut feed = batches.clone().into_iter();
        let handle = ReceptorHandle::spawn_keyed(sb.clone(), 0, 2, move || {
            feed.next().map(|vals| (0, vec![Column::Int(vals)]))
        });
        assert_eq!(handle.join().unwrap(), 6 * 16);
        assert_eq!(sb.seal(), 96);
        // One receptor delivers batches in order; within each batch the
        // sealed row order is the canonical placement scatter (each row
        // staged at its key's home shard, shards drained in oid order).
        let expect: Vec<i64> = batches
            .iter()
            .flat_map(|vals| {
                let parts = Placement::new(4).scatter(&Column::Int(vals.clone()).as_slice());
                parts
                    .into_iter()
                    .flat_map(|pos| pos.into_iter().map(|p| vals[p as usize]))
                    .collect::<Vec<_>>()
            })
            .collect();
        let vals = sb.with(|b| b.snapshot().col(0).unwrap().as_int().unwrap().to_vec());
        assert_eq!(vals, expect);
    }

    #[test]
    fn keyed_receptor_fleet_loses_nothing() {
        let sb = ShardedBasket::new(Basket::new("s", &[("k", DataType::Int)]), 4);
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let mut left = 30i64;
                ReceptorHandle::spawn_keyed(sb.clone(), 0, 4, move || {
                    if left == 0 {
                        return None;
                    }
                    left -= 1;
                    Some((0, vec![Column::Int(vec![left % 5, tid * 100 + left])]))
                })
            })
            .collect();
        let delivered: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(delivered, 4 * 30 * 2);
        assert_eq!(sb.seal(), 240);
        let mut vals = sb.with(|b| b.snapshot().col(0).unwrap().as_int().unwrap().to_vec());
        vals.sort_unstable();
        let mut expect: Vec<i64> =
            (0..4i64).flat_map(|t| (0..30).flat_map(move |i| [i % 5, t * 100 + i])).collect();
        expect.sort_unstable();
        assert_eq!(vals, expect);
    }

    #[test]
    fn dropping_handle_stops_source() {
        let basket = shared();
        // Infinite source; dropping the handle must terminate it.
        let handle =
            ReceptorHandle::spawn(basket.clone(), 1, move || Some((0, vec![Column::Int(vec![7])])));
        // Let it make some progress, then drop.
        while basket.len() < 3 {
            std::thread::yield_now();
        }
        drop(handle);
        let frozen = basket.len();
        std::thread::sleep(std::time::Duration::from_millis(20));
        // A few in-flight batches may still land, then growth stops.
        let later = basket.len();
        assert!(later <= frozen + 2, "source kept producing after drop");
    }
}
