//! The shared stream handle: one basket behind the paper's
//! `lock()`/`unlock()` bracket, with a sharded ingest edge in front of it.
//!
//! The paper runs "a set of separate processes per stream" as receptors
//! (§2). With one mutex around the basket every append holds it for the
//! whole column copy, which makes the *ingest* edge the serial stage once
//! factory firing and kernel operators run in parallel. [`ShardedBasket`]
//! splits that hand-off point:
//!
//! * **The merged view** — the one [`Basket`] factories and GC read
//!   under [`ShardedBasket::with`] (Algorithms 1–2's bracket).
//! * **N independently-locked shards** stage incoming batches. A writer
//!   appends to its own shard ([`ShardedBasket::append_shard`], the shard
//!   chosen by the writer, e.g. thread `i` at `i % shards`, or by key
//!   hash), so concurrent appenders only contend on the tiny oid/clock
//!   allocator, never on each other's column copies.
//! * A **global allocator** (one short critical section) hands each batch
//!   a contiguous oid range and a monotone arrival stamp, so oids stay
//!   **dense and monotone** across shards and timestamps never regress in
//!   oid order — exactly the invariants the basket/window machinery
//!   relies on.
//! * A **seal** path ([`ShardedBasket::seal`]) merges staged segments
//!   into the merged view in oid order, stopping at the first gap (an oid
//!   range allocated to an appender that has not staged its batch yet).
//!   Large runs stitch their segments into sub-batches on scoped worker
//!   threads (the workers own the segments — no locks), leaving only the
//!   short dense-oid splice serial.
//! * A **keyed append** path ([`ShardedBasket::append_keyed`]) splits a
//!   batch by the canonical [`Placement`] key-hash so every row stages at
//!   the shard its key owns — the same map `kernel::par` uses for radix
//!   partitions and aligned aggregation morsels, so keyed ingest lands
//!   pre-partitioned for the operators downstream.
//!
//! **One shard stages nothing.** With a single shard there is no second
//! appender whose column copy a staging area would keep out of the way,
//! so every append writes straight into the merged view and the basket's
//! own oid and stamp rules apply: byte-identical to a bare [`Basket`]
//! behind a mutex. That is one branch, in the one private append function
//! all three public appends share; sealing finds nothing staged.
//!
//! ## Lock order
//!
//! Allocator → one shard; the merged-view mutex is only ever taken with
//! no shard or allocator lock held (the seal drops the shard lock before
//! each merge append, so receptors pinned to a shard never wait behind
//! the merge's column copy). The shard array itself is fixed at
//! [`ShardedBasket::new`] and takes no lock. Every path acquires locks in
//! this order, shards one at a time, so the sharded paths cannot deadlock
//! against each other, against readers of the merged view, or against the
//! engine's GC (which takes the merged-view mutex only).
//!
//! Every lock is a `std::sync::Mutex`, and a poisoned one is recovered
//! with [`PoisonError::into_inner`] at each acquisition, never unwrapped.
//! That is the workspace's one poison policy (the scheduler's work queue
//! and the telemetry registry follow it too), and it is sound here:
//! the only caller code that runs under a basket lock is a
//! [`ShardedBasket::with`] closure, whose panic the scheduler already
//! turns into a typed error; the basket's own critical sections are
//! integer updates and map inserts/removes, which a panic cannot leave
//! half-written. So a panicking reader costs that reader, not the stream.
//!
//! ## What stays out of bounds
//!
//! At `shards > 1` every write must go through the `append*` methods.
//! Appending inside [`ShardedBasket::with`] would assign oids the
//! allocator has already promised to a staged segment and corrupt the
//! stream; the bracket is for *reading* and expiry (factories, GC).

use crate::basket::{validate_batch, Basket, BasketError, Timestamp};
use datacell_kernel::par::stats;
use datacell_kernel::{Column, DataType, Oid, Placement};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Anything a receptor can deliver batches into. Receptor front-ends
/// (`CsvReceptor::flush_into`, `GeneratorReceptor::pump`) are generic
/// over this, so a bench can time parsing against a sink that discards.
pub trait Ingest {
    /// Append a batch of aligned columns stamped `now`; returns the oid
    /// of the first appended tuple.
    fn ingest(&self, batch: &[Column], now: Timestamp) -> crate::Result<Oid>;
}

impl Ingest for ShardedBasket {
    fn ingest(&self, batch: &[Column], now: Timestamp) -> crate::Result<Oid> {
        self.append(batch, now)
    }
}

/// One staged batch: a contiguous oid range waiting to be sealed into the
/// merged view. The start oid is the key in its shard's map.
struct Segment {
    cols: Vec<Column>,
    rows: usize,
    ts: Timestamp,
}

/// An independently-locked staging area. Segments are keyed by start oid
/// because two appenders mapped to the same shard may stage out of
/// allocation order.
#[derive(Default)]
struct Shard {
    segs: BTreeMap<Oid, Segment>,
    /// Cumulative rows ever staged here (monotone; bumped under the shard
    /// lock). Telemetry reads it to compute the shard-imbalance ratio.
    total_rows: u64,
}

/// The global oid/clock allocator: one short critical section per append
/// (a few integer ops), vs. the whole column copy the merged-view mutex
/// would serialize on.
struct Alloc {
    /// Next unallocated oid. Invariant at `shards > 1`: `next >=
    /// merged.end_oid()`, and every oid in `[merged.end_oid(), next)` is
    /// staged in exactly one segment or owned by an appender between
    /// allocation and staging.
    next: Oid,
    /// Timestamp high-water mark across all allocations; stamps are
    /// clamped up to it so the merged view sees non-decreasing
    /// timestamps in oid order.
    last_ts: Timestamp,
}

/// Where an append lands once there is more than one shard.
enum Route {
    /// Round-robin shard, stamp checked against the high-water mark,
    /// sealed before returning — the engine's single-writer path.
    Ordered,
    /// This shard (modulo the shard count), stamp clamped.
    Shard(usize),
    /// Every row at the shard its key-hash owns (the key column's
    /// index), stamp clamped.
    Keyed(usize),
}

struct State {
    name: String,
    schema: Vec<(String, DataType)>,
    /// The sealed, oid-ordered view.
    merged: Mutex<Basket>,
    /// The staging shards, fixed at [`ShardedBasket::new`].
    shards: Box<[Mutex<Shard>]>,
    alloc: Mutex<Alloc>,
    /// Round-robin shard cursor of [`ShardedBasket::append`].
    next_writer: AtomicUsize,
}

/// A basket behind a mutex plus its staging shards — the shared handle
/// receptors and factories use concurrently. Cloning shares the
/// basket, the shards and the allocator.
#[derive(Clone)]
pub struct ShardedBasket {
    state: Arc<State>,
}

impl fmt::Debug for ShardedBasket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedBasket")
            .field("name", &self.state.name)
            .field("shards", &self.shards())
            .field("staged", &self.staged_len())
            .field("sealed", &(self.base_oid()..self.end_oid()))
            .finish()
    }
}

impl ShardedBasket {
    /// Share a basket behind `shards` staging shards (clamped to ≥ 1),
    /// fixed for the handle's lifetime. The allocator starts at the
    /// basket's current end.
    pub fn new(basket: Basket, shards: usize) -> ShardedBasket {
        ShardedBasket {
            state: Arc::new(State {
                name: basket.name().to_owned(),
                schema: basket.schema().to_vec(),
                shards: (0..shards.max(1)).map(|_| Mutex::new(Shard::default())).collect(),
                alloc: Mutex::new(Alloc {
                    next: basket.end_oid(),
                    last_ts: basket.ts_high_water().unwrap_or(0),
                }),
                merged: Mutex::new(basket),
                next_writer: AtomicUsize::new(0),
            }),
        }
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.state.name
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.state.shards.len()
    }

    /// Run `f` with the merged view locked — the paper's lock/unlock
    /// bracket (reads, expiry). At `shards > 1` the view is **read-only
    /// by contract**: appending through it bypasses the oid allocator.
    pub fn with<R>(&self, f: impl FnOnce(&mut Basket) -> R) -> R {
        let mut guard = self.state.merged.lock().unwrap_or_else(PoisonError::into_inner);
        f(&mut guard)
    }

    /// Resident tuple count of the merged (sealed) view.
    pub fn len(&self) -> usize {
        self.with(|b| b.len())
    }

    /// True when the merged view is empty (staged tuples don't count).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First resident oid of the merged view (the expiry front).
    pub fn base_oid(&self) -> Oid {
        self.with(|b| b.base_oid())
    }

    /// One past the newest *sealed* oid. Monotonically non-decreasing, so
    /// schedulers poll it as a cheap growth signal: a reader that saw
    /// `end_oid() == e` is guaranteed every oid below `e` is either
    /// readable or already consumed past. Staged segments live at or
    /// past this frontier, which is why expiry (always `< end_oid`) can
    /// never reclaim an undrained shard.
    pub fn end_oid(&self) -> Oid {
        self.with(|b| b.end_oid())
    }

    /// Tuples staged in shards but not yet sealed into the merged view.
    pub fn staged_len(&self) -> usize {
        let staged = |s: &Mutex<Shard>| {
            let g = s.lock().unwrap_or_else(PoisonError::into_inner);
            g.segs.values().map(|seg| seg.rows).sum::<usize>()
        };
        self.state.shards.iter().map(staged).sum()
    }

    /// Point-in-time staging telemetry, one entry per shard in shard
    /// order: current staged depth plus the cumulative staged-row
    /// counter. `Engine::telemetry_snapshot` turns these into per-shard
    /// gauges and the shard-imbalance ratio.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.state
            .shards
            .iter()
            .map(|s| {
                let g = s.lock().unwrap_or_else(PoisonError::into_inner);
                ShardStats {
                    staged_rows: g.segs.values().map(|seg| seg.rows).sum(),
                    staged_segments: g.segs.len(),
                    total_rows: g.total_rows,
                }
            })
            .collect()
    }

    /// Ordered append — the engine's single-writer path. Rejects a stamp
    /// below the stream's high-water mark, and seals before returning so
    /// synchronous callers observe their own writes.
    pub fn append(&self, batch: &[Column], now: Timestamp) -> crate::Result<Oid> {
        self.append_routed(Route::Ordered, batch, now)
    }

    /// Concurrent append to one shard — the receptor path. At `shards >
    /// 1` the stamp is clamped up to the allocator's high-water mark
    /// instead of erroring: with many receptors there is no global
    /// arrival order to violate, so the allocation order *defines* the
    /// stream order. Staged data becomes readable at the next
    /// [`ShardedBasket::seal`] (the scheduler seals on every scan).
    pub fn append_shard(
        &self,
        shard: usize,
        batch: &[Column],
        now: Timestamp,
    ) -> crate::Result<Oid> {
        self.append_routed(Route::Shard(shard), batch, now)
    }

    /// Key-hash placement append — the aligned-dataflow receptor path.
    /// The batch is split by the canonical [`Placement`] map over the
    /// shard count (column `key_col` carries the keys): every row
    /// stages at the shard its key-hash owns, so sealed per-shard
    /// segments feed key-partitioned kernel operators without
    /// re-partitioning. One allocator critical section covers the whole
    /// batch (one contiguous oid range, one clamped stamp); within the
    /// batch, rows land in shard order — stable within a shard — so the
    /// merged view's row order is the documented placement scatter of the
    /// input (with one shard: the input order).
    pub fn append_keyed(
        &self,
        key_col: usize,
        batch: &[Column],
        now: Timestamp,
    ) -> crate::Result<Oid> {
        self.append_routed(Route::Keyed(key_col), batch, now)
    }

    /// The one append body. Everything that can fail runs *before* the
    /// allocator hands out oids: a rejected batch must not leave a
    /// permanent gap in the oid sequence (the seal frontier would never
    /// pass it).
    fn append_routed(&self, route: Route, batch: &[Column], now: Timestamp) -> crate::Result<Oid> {
        // Checked at every shard count, so a bad key column fails alike
        // with one shard and with many.
        if let Route::Keyed(key_col) = route {
            if key_col >= batch.len() {
                return Err(BasketError::Malformed(format!(
                    "{}: key column {} out of range for {} columns",
                    self.state.name,
                    key_col,
                    batch.len()
                )));
            }
        }
        let shards = &self.state.shards;
        if shards.len() == 1 {
            // Nothing to stay out of the way of: write the merged view
            // directly; the basket's own end oid and stamp check are the
            // allocator.
            return self.with(|b| b.append(batch, now));
        }
        let n = validate_batch(&self.state.name, &self.state.schema, batch)?;
        if n == 0 {
            // Mirror `Basket::append`: an empty batch is a no-op that
            // reports the current end of the stream (allocator frontier
            // here — staged tuples included), with no timestamp check.
            return Ok(self.state.alloc.lock().unwrap_or_else(PoisonError::into_inner).next);
        }
        // (shard, columns) pieces in oid order.
        let pieces: Vec<(usize, Vec<Column>)> = match route {
            Route::Ordered => {
                let shard = self.state.next_writer.fetch_add(1, Ordering::Relaxed);
                vec![(shard % shards.len(), batch.to_vec())]
            }
            Route::Shard(shard) => vec![(shard % shards.len(), batch.to_vec())],
            Route::Keyed(key_col) => {
                let parts = Placement::new(shards.len()).scatter(&batch[key_col].as_slice());
                let piece = |pos: &Vec<u32>| batch.iter().map(|c| c.gather(pos)).collect();
                parts
                    .iter()
                    .enumerate()
                    .filter(|(_, pos)| !pos.is_empty())
                    .map(|(shard, pos)| (shard, piece(pos)))
                    .collect()
            }
        };
        let ordered = matches!(route, Route::Ordered);
        let (start, ts) = {
            let mut alloc = self.state.alloc.lock().unwrap_or_else(PoisonError::into_inner);
            if ordered && now < alloc.last_ts {
                return Err(BasketError::Malformed(format!(
                    "{}: timestamps must be non-decreasing ({} < {})",
                    self.state.name, now, alloc.last_ts
                )));
            }
            let ts = now.max(alloc.last_ts);
            let start = alloc.next;
            alloc.next += n as u64;
            alloc.last_ts = ts;
            (start, ts)
        };
        let mut at = start;
        for (shard, cols) in pieces {
            let rows = cols[0].len();
            {
                let mut g = shards[shard].lock().unwrap_or_else(PoisonError::into_inner);
                g.total_rows += rows as u64;
                g.segs.insert(at, Segment { cols, rows, ts });
            }
            at += rows as u64;
        }
        if ordered {
            self.seal();
        }
        Ok(start)
    }

    /// Merge every staged segment that extends the contiguous oid prefix
    /// into the merged view, in oid order. Stops at the first gap — an
    /// oid range some appender has allocated but not yet staged — and
    /// returns the new sealed end.
    pub fn seal(&self) -> Oid {
        // Phase 1 — collect the contiguous run of staged segments from
        // the frontier. Each segment is taken under its shard lock, but
        // only for a BTreeMap remove: a receptor pinned to a shard never
        // waits behind a column copy. Safe under concurrent sealers
        // because allocation starts are unique and only the holder of
        // the segment keyed exactly at the current frontier can advance
        // the frontier — a sealer that loses the `remove` race simply
        // sees no progress. The guard must not ride along in a
        // `while let` scrutinee — there it would live for the whole body.
        let mut frontier = self.end_oid();
        let mut run: Vec<Segment> = Vec::new();
        loop {
            let mut progressed = false;
            for shard in &self.state.shards {
                loop {
                    let seg = {
                        let mut g = shard.lock().unwrap_or_else(PoisonError::into_inner);
                        g.segs.remove(&frontier)
                    };
                    let Some(seg) = seg else { break };
                    frontier += seg.rows as u64;
                    run.push(seg);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        if run.is_empty() {
            return frontier;
        }
        // Timed from here: the merge is the cost, and a seal that finds
        // nothing staged (every seal at one shard) pays for no clock.
        let start = datacell_telemetry::timer();
        let total: usize = run.iter().map(|s| s.rows).sum();
        let workers = self.shards().min(run.len());
        if workers < 2 || total < PAR_SEAL_MIN_ROWS {
            // Short run: serial per-segment appends (the historic path —
            // fan-out would cost more than the copies it spreads).
            stats::record_seal(false);
            for seg in run {
                // Cannot fail: arity/alignment/types were validated at
                // staging and the allocator stamps monotonically.
                self.with(|b| b.append_with_ts(&seg.cols, |_| seg.ts))
                    .expect("staged segments are pre-validated and stamped in oid order");
            }
            seal_metrics().serial.record_since(start);
            return frontier;
        }
        // Phase 2 — stitch contiguous segment ranges (balanced by rows)
        // into owned sub-batches on scoped worker threads. The workers
        // own their segments outright: no locks, no shared state.
        let target = total.div_ceil(workers);
        let mut ranges: Vec<Vec<Segment>> = Vec::with_capacity(workers);
        let mut cur: Vec<Segment> = Vec::new();
        let mut cur_rows = 0usize;
        for seg in run {
            cur_rows += seg.rows;
            cur.push(seg);
            if cur_rows >= target {
                ranges.push(std::mem::take(&mut cur));
                cur_rows = 0;
            }
        }
        if !cur.is_empty() {
            ranges.push(cur);
        }
        let stitched: Vec<(Vec<Column>, Vec<Timestamp>)> = std::thread::scope(|s| {
            let handles: Vec<_> =
                ranges.into_iter().map(|range| s.spawn(move || stitch_segments(range))).collect();
            handles.into_iter().map(|h| h.join().expect("seal stitcher panicked")).collect()
        });
        stats::record_seal(true);
        // Phase 3 — the short serial tail: splice each stitched sub-batch
        // into the merged view in oid order, moving the payloads.
        for (cols, ts) in stitched {
            self.with(|b| b.append_stitched(cols, ts))
                .expect("staged segments are pre-validated and stamped in oid order");
        }
        seal_metrics().parallel.record_since(start);
        frontier
    }
}

/// Seals shorter than this stay serial: below a few thousand rows the
/// scoped-thread fan-out costs more than the column copies it spreads.
const PAR_SEAL_MIN_ROWS: usize = 4096;

/// Staging telemetry for one shard (see [`ShardedBasket::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Rows currently staged (allocated but not yet sealed).
    pub staged_rows: usize,
    /// Segments currently staged.
    pub staged_segments: usize,
    /// Cumulative rows ever staged in this shard (monotone).
    pub total_rows: u64,
}

/// Seal-duration histograms, registered process-wide with the kernel's
/// counters: seals are a process-scoped signal like `par::stats`, and the
/// basket crate sits below `core`, so the global registry is the one
/// shared surface.
struct SealMetrics {
    serial: datacell_telemetry::Histogram,
    parallel: datacell_telemetry::Histogram,
}

fn seal_metrics() -> &'static SealMetrics {
    static METRICS: std::sync::OnceLock<SealMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let r = datacell_telemetry::global();
        let help =
            "Wall time of one non-empty basket seal (staged segments merged into the ordered view).";
        SealMetrics {
            serial: r.histogram_with("datacell_basket_seal_seconds", help, &[("path", "serial")]),
            parallel: r.histogram_with(
                "datacell_basket_seal_seconds",
                help,
                &[("path", "parallel")],
            ),
        }
    })
}

/// Merge a contiguous range of staged segments into one owned sub-batch
/// (columns spliced with [`Column::append_owned`], per-row timestamps
/// expanded from the per-segment stamps). Runs on a seal worker thread;
/// the segments are owned, so the stitch touches no locks.
fn stitch_segments(range: Vec<Segment>) -> (Vec<Column>, Vec<Timestamp>) {
    let rows: usize = range.iter().map(|s| s.rows).sum();
    let mut it = range.into_iter();
    let first = it.next().expect("stitch ranges are non-empty");
    let mut ts = Vec::with_capacity(rows);
    ts.resize(first.rows, first.ts);
    let mut cols = first.cols;
    for seg in it {
        for (dst, mut src) in cols.iter_mut().zip(seg.cols) {
            dst.append_owned(&mut src).expect("staged segments share one schema");
        }
        ts.resize(ts.len() + seg.rows, seg.ts);
    }
    (cols, ts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basket() -> Basket {
        Basket::new("s", &[("x", DataType::Int)])
    }

    fn ints(vals: &[i64]) -> Vec<Column> {
        vec![Column::Int(vals.to_vec())]
    }

    fn basket_ints(b: &Basket) -> (Oid, Vec<i64>, Vec<Timestamp>) {
        let w = b.snapshot();
        (w.base_oid(), w.col(0).unwrap().as_int().unwrap().to_vec(), w.timestamps().to_vec())
    }

    fn snapshot_ints(sb: &ShardedBasket) -> (Oid, Vec<i64>, Vec<Timestamp>) {
        sb.with(|b| basket_ints(b))
    }

    #[test]
    fn one_shard_is_byte_identical_to_a_plain_basket() {
        // The same append sequence — including an error case — through a
        // bare Basket and a 1-shard ShardedBasket.
        let mut plain = basket();
        let sharded = ShardedBasket::new(basket(), 1);
        let script: &[(&[i64], Timestamp)] = &[(&[1, 2], 5), (&[3], 5), (&[], 0), (&[4, 5, 6], 9)];
        for (vals, ts) in script {
            let a = plain.append(&ints(vals), *ts);
            let b = sharded.append(&ints(vals), *ts);
            assert_eq!(a, b);
        }
        // A stamp regression errors identically (the basket's own check).
        assert_eq!(plain.append(&ints(&[7]), 3), sharded.append(&ints(&[7]), 3));
        assert!(sharded.append(&ints(&[7]), 3).is_err());
        assert_eq!(basket_ints(&plain), snapshot_ints(&sharded));
        assert_eq!(sharded.seal(), plain.end_oid());
        assert_eq!(sharded.staged_len(), 0);
    }

    #[test]
    fn sharded_appends_assign_dense_monotone_oids() {
        let sb = ShardedBasket::new(basket(), 4);
        assert_eq!(sb.shards(), 4);
        assert_eq!(sb.append_shard(0, &ints(&[1, 2]), 10).unwrap(), 0);
        assert_eq!(sb.append_shard(3, &ints(&[3]), 11).unwrap(), 2);
        assert_eq!(sb.append_shard(1, &ints(&[4, 5]), 12).unwrap(), 3);
        // Nothing sealed yet: the merged view is empty, staging holds 5.
        assert_eq!(sb.len(), 0);
        assert_eq!(sb.staged_len(), 5);
        assert_eq!(sb.seal(), 5);
        assert_eq!(sb.staged_len(), 0);
        let (base, vals, ts) = snapshot_ints(&sb);
        assert_eq!(base, 0);
        assert_eq!(vals, vec![1, 2, 3, 4, 5]);
        assert_eq!(ts, vec![10, 10, 11, 12, 12]);
    }

    #[test]
    fn ordered_append_seals_immediately_and_checks_regression() {
        let sb = ShardedBasket::new(basket(), 4);
        sb.append(&ints(&[1]), 10).unwrap();
        assert_eq!(sb.len(), 1); // visible without an explicit seal
        let err = sb.append(&ints(&[2]), 9).unwrap_err();
        assert!(matches!(err, BasketError::Malformed(_)));
        sb.append(&ints(&[2]), 10).unwrap(); // equal stamp ok
        assert_eq!(sb.len(), 2);
    }

    #[test]
    fn concurrent_path_clamps_stamps_monotone() {
        let sb = ShardedBasket::new(basket(), 2);
        sb.append_shard(0, &ints(&[1]), 20).unwrap();
        // A receptor racing behind: stamp 5 is clamped up to 20.
        sb.append_shard(1, &ints(&[2]), 5).unwrap();
        sb.seal();
        let (_, vals, ts) = snapshot_ints(&sb);
        assert_eq!(vals, vec![1, 2]);
        assert_eq!(ts, vec![20, 20]);
    }

    #[test]
    fn validation_happens_before_allocation() {
        let sb = ShardedBasket::new(basket(), 2);
        // Wrong arity, misaligned columns, wrong type: all rejected with
        // no oid consumed, so the stream stays dense.
        assert!(sb.append_shard(0, &[], 0).is_err());
        assert!(sb.append_shard(0, &[Column::Int(vec![1]), Column::Int(vec![2])], 0).is_err());
        assert!(sb.append_shard(0, &[Column::Float(vec![0.5])], 0).is_err());
        assert_eq!(sb.append_shard(0, &ints(&[1]), 0).unwrap(), 0);
        sb.seal();
        assert_eq!(sb.end_oid(), 1);
    }

    #[test]
    fn empty_batch_is_noop_reporting_frontier() {
        let sb = ShardedBasket::new(basket(), 2);
        sb.append_shard(0, &ints(&[1, 2]), 7).unwrap();
        // Stale timestamp on an empty batch is fine, like Basket::append.
        assert_eq!(sb.append_shard(1, &ints(&[]), 0).unwrap(), 2);
        assert_eq!(sb.staged_len(), 2);
    }

    #[test]
    fn seal_stops_at_gap_and_resumes() {
        let sb = ShardedBasket::new(basket(), 4);
        sb.append_shard(0, &ints(&[1]), 0).unwrap(); // oid 0
                                                     // Simulate an in-flight appender: allocate oid 1 by staging to a
                                                     // shard, then remove it temporarily to create a gap.
        sb.append_shard(1, &ints(&[2]), 0).unwrap(); // oid 1
        let stolen = sb.state.shards[1].lock().unwrap().segs.remove(&1).unwrap();
        sb.append_shard(2, &ints(&[3]), 0).unwrap(); // oid 2
        assert_eq!(sb.seal(), 1); // oid 0 sealed; 2 stranded behind the gap
        assert_eq!(sb.len(), 1);
        assert_eq!(sb.staged_len(), 1);
        // The in-flight appender lands; the next seal drains everything.
        sb.state.shards[1].lock().unwrap().segs.insert(1, stolen);
        assert_eq!(sb.seal(), 3);
        let (_, vals, _) = snapshot_ints(&sb);
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn expiry_of_merged_view_never_touches_staged() {
        let sb = ShardedBasket::new(basket(), 2);
        sb.append_shard(0, &ints(&[1, 2]), 0).unwrap();
        sb.seal();
        sb.append_shard(1, &ints(&[3, 4]), 1).unwrap(); // staged, unsealed
                                                        // GC as aggressive as it can be: expire the whole sealed view.
        sb.with(|b| b.expire_upto(b.end_oid()));
        assert_eq!(sb.len(), 0);
        assert_eq!(sb.staged_len(), 2);
        // Undrained tuples survive and seal on top of the expired prefix.
        assert_eq!(sb.seal(), 4);
        let (base, vals, _) = snapshot_ints(&sb);
        assert_eq!(base, 2);
        assert_eq!(vals, vec![3, 4]);
    }

    #[test]
    fn clones_share_allocator_and_staging() {
        let a = ShardedBasket::new(basket(), 2);
        let b = a.clone();
        a.append_shard(0, &ints(&[1]), 0).unwrap();
        b.append_shard(1, &ints(&[2]), 0).unwrap();
        assert_eq!(b.staged_len(), 2);
        b.seal();
        assert_eq!(a.len(), 2);
        assert_eq!(a.end_oid(), 2);
    }

    #[test]
    fn a_basket_with_history_keeps_its_oids_and_stamps_when_shared() {
        let mut b = basket();
        b.append(&ints(&[1]), 7).unwrap();
        for shards in [1, 3] {
            let sb = ShardedBasket::new(b.clone(), shards);
            assert!(sb.append(&ints(&[2]), 6).is_err(), "high-water mark carried over");
            assert_eq!(sb.ingest(&ints(&[2]), 7).unwrap(), 1);
            assert_eq!(snapshot_ints(&sb), (0, vec![1, 2], vec![7, 7]));
        }
    }

    #[test]
    fn append_keyed_routes_rows_to_hash_owned_shards() {
        let sb = ShardedBasket::new(basket(), 4);
        let keys: Vec<i64> = (0..32).map(|i| i % 7).collect();
        sb.append_keyed(0, &ints(&keys), 5).unwrap();
        // Staged rows sit exactly where the canonical placement puts them.
        let scatter =
            |vals: &[i64]| Placement::new(4).scatter(&Column::Int(vals.to_vec()).as_slice());
        for (shard, pos) in sb.state.shards.iter().zip(&scatter(&keys)) {
            let staged: usize = shard.lock().unwrap().segs.values().map(|s| s.rows).sum();
            assert_eq!(staged, pos.len());
        }
        assert_eq!(sb.seal(), 32);
        // The merged view is the documented stable scatter order.
        let placed = |vals: &[i64]| -> Vec<i64> {
            scatter(vals).iter().flat_map(|pos| pos.iter().map(|&p| vals[p as usize])).collect()
        };
        let (_, vals, ts) = snapshot_ints(&sb);
        assert_eq!(vals, placed(&keys));
        assert!(ts.iter().all(|&t| t == 5), "one stamp for the whole batch");
        // Six more batches from one writer land in append order, each in
        // its own placement scatter order.
        let batches: Vec<Vec<i64>> =
            (0..6).map(|b| (0..16).map(|i| (b * 16 + i) % 7).collect()).collect();
        for batch in &batches {
            sb.append_keyed(0, &ints(batch), 6).unwrap();
        }
        assert_eq!(sb.seal(), 32 + 6 * 16);
        let expect: Vec<i64> =
            std::iter::once(&keys).chain(&batches).flat_map(|b| placed(b)).collect();
        assert_eq!(snapshot_ints(&sb).1, expect);
    }

    #[test]
    fn poisoned_locks_are_recovered_at_every_site() {
        // Poison every mutex the handle owns: the merged view through a
        // panicking `with` closure, the allocator and each shard directly.
        // Every public path must still see the right oids and values.
        for shards in [1, 4] {
            let sb = ShardedBasket::new(basket(), shards);
            sb.append(&ints(&[1]), 0).unwrap();
            let poison = |m: &dyn Fn()| {
                let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(m));
                assert!(caught.is_err());
            };
            poison(&|| sb.with(|_| panic!("reader bug")));
            poison(&|| {
                let _g = sb.state.alloc.lock();
                panic!("allocator poisoned");
            });
            for shard in &sb.state.shards {
                poison(&|| {
                    let _g = shard.lock();
                    panic!("shard poisoned");
                });
            }
            assert!(sb.state.merged.is_poisoned() && sb.state.alloc.is_poisoned());
            assert_eq!(sb.append(&ints(&[2]), 1).unwrap(), 1, "shards={shards}");
            assert_eq!(sb.append_shard(1, &ints(&[3, 4]), 2).unwrap(), 2, "shards={shards}");
            assert_eq!(sb.append_keyed(0, &ints(&[5]), 3).unwrap(), 4, "shards={shards}");
            assert_eq!(sb.append(&ints(&[]), 3).unwrap(), 5, "shards={shards}");
            assert_eq!(sb.staged_len(), if shards == 1 { 0 } else { 3 }, "shards={shards}");
            assert_eq!(sb.shard_stats().len(), shards);
            assert_eq!(sb.seal(), 5, "shards={shards}");
            assert_eq!(snapshot_ints(&sb), (0, vec![1, 2, 3, 4, 5], vec![0, 1, 2, 2, 3]));
        }
    }

    #[test]
    fn append_keyed_same_key_always_lands_on_one_shard() {
        let sb = ShardedBasket::new(basket(), 4);
        for round in 0..3 {
            sb.append_keyed(0, &ints(&[42, 42, 42]), round).unwrap();
        }
        let shards = &sb.state.shards;
        let occupied: Vec<usize> = (0..4)
            .filter(|&i| shards[i].lock().unwrap().segs.values().map(|s| s.rows).sum::<usize>() > 0)
            .collect();
        assert_eq!(occupied.len(), 1, "all occurrences of one key share a shard");
        assert_eq!(occupied[0], Placement::new(4).of_key(42i64));
    }

    #[test]
    fn append_keyed_one_shard_is_byte_identical_to_a_plain_basket() {
        let mut plain = basket();
        let sb = ShardedBasket::new(basket(), 1);
        for (vals, ts) in [(&[3i64, 1, 3][..], 2u64), (&[7], 2)] {
            assert_eq!(plain.append(&ints(vals), ts), sb.append_keyed(0, &ints(vals), ts));
        }
        assert_eq!(basket_ints(&plain), snapshot_ints(&sb));
    }

    #[test]
    fn append_keyed_rejects_a_bad_key_column_at_every_shard_count() {
        // Regression: one shard wrote the batch straight into the merged
        // view before the key column was looked at, so key column 7 of a
        // two-column batch was accepted there and rejected at 4 shards.
        let two = [Column::Int(vec![1, 2]), Column::Int(vec![3, 4])];
        for shards in [1, 4] {
            let schema = [("k", DataType::Int), ("v", DataType::Int)];
            let sb = ShardedBasket::new(Basket::new("s", &schema), shards);
            let err = sb.append_keyed(7, &two, 0).unwrap_err();
            assert!(matches!(err, BasketError::Malformed(_)), "shards={shards}: {err:?}");
            assert_eq!((sb.seal(), sb.staged_len()), (0, 0), "shards={shards}: nothing landed");
            assert_eq!(sb.append_keyed(1, &two, 0).unwrap(), 0, "shards={shards}");
            assert_eq!(sb.seal(), 2, "shards={shards}");
        }
    }

    #[test]
    fn append_keyed_validates_and_reports_frontier_on_empty() {
        let sb = ShardedBasket::new(basket(), 2);
        assert!(sb.append_keyed(0, &[Column::Float(vec![0.5])], 0).is_err());
        assert!(sb.append_keyed(9, &ints(&[1]), 0).is_err(), "key column out of range");
        sb.append_keyed(0, &ints(&[1, 2]), 0).unwrap();
        assert_eq!(sb.append_keyed(0, &ints(&[]), 0).unwrap(), 2);
        assert_eq!(sb.staged_len(), 2);
    }

    #[test]
    fn seal_fans_out_past_the_threshold_and_stays_serial_below() {
        // One test so the counter observations can't interleave: this is
        // the only place in the process that seals ≥ PAR_SEAL_MIN_ROWS,
        // so the par-seal counter moves exactly when this test seals big.
        let small = ShardedBasket::new(basket(), 4);
        small.append_shard(0, &ints(&[1, 2]), 0).unwrap();
        small.append_shard(1, &ints(&[3]), 1).unwrap();
        let p0 = stats::seal_par_calls();
        assert_eq!(small.seal(), 3);
        assert_eq!(stats::seal_par_calls(), p0, "short runs must not fan out");

        let sb = ShardedBasket::new(basket(), 4);
        // Stage 40 segments of 256 rows (10240 total, past the parallel
        // threshold) in allocation order across shards.
        let mut expect = Vec::new();
        for seg in 0..40i64 {
            let vals: Vec<i64> = (0..256).map(|i| seg * 1000 + i).collect();
            sb.append_shard((seg % 4) as usize, &ints(&vals), seg as u64).unwrap();
            expect.extend(vals);
        }
        let (s0, p1) = (stats::seal_calls(), stats::seal_par_calls());
        assert_eq!(sb.seal(), 40 * 256);
        assert!(stats::seal_calls() > s0);
        assert!(stats::seal_par_calls() > p1, "large seal must fan out");
        let (_, vals, ts) = snapshot_ints(&sb);
        assert_eq!(vals, expect);
        // Per-segment stamps survive the stitch, monotone in oid order.
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ts[0], 0);
        assert_eq!(*ts.last().unwrap(), 39);
    }

    #[test]
    fn sixteen_threads_append_without_loss() {
        // Smoke-level concurrency here; the full battery lives in
        // tests/sharded_ingest.rs.
        let sb = ShardedBasket::new(basket(), 4);
        std::thread::scope(|s| {
            for tid in 0..16 {
                let sb = &sb;
                s.spawn(move || {
                    for i in 0..25 {
                        sb.append_shard(tid as usize % 4, &ints(&[tid * 1000 + i]), 0).unwrap();
                    }
                });
            }
        });
        assert_eq!(sb.seal(), 400);
        assert_eq!(sb.len(), 400);
        let (base, mut vals, _) = snapshot_ints(&sb);
        assert_eq!(base, 0);
        vals.sort_unstable();
        let mut expect: Vec<i64> =
            (0..16).flat_map(|t| (0..25).map(move |i| t * 1000 + i)).collect();
        expect.sort_unstable();
        assert_eq!(vals, expect);
    }
}
