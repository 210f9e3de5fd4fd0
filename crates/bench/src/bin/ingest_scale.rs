//! `ingest_scale` — append throughput vs. basket shard count × receptor
//! thread count × placement mode.
//!
//! For each (shards, receptors) point the harness hammers one
//! `ShardedBasket` with `receptors` appender threads, then seals and
//! verifies the stream: dense oids, exact tuple count, exact value
//! checksum — the same invariants `tests/sharded_ingest.rs` asserts.
//! `shards = 1` stages nothing — every append takes the merged view's
//! one mutex — so it *is* the contention baseline the sharded path is
//! measured against. The sweep repeats per placement mode: `roundrobin` pins each
//! receptor to its round-robin shard (`append_shard`), `aligned` routes
//! every batch through `append_keyed`, scattering rows to shards by the
//! canonical key-hash (`kernel::hash::Placement`) — the same map the
//! kernel uses to carve aligned aggregation morsels downstream.
//!
//! Reported per point: wall time of the append phase, appends/s and
//! Mtuples/s (append phase only — the contention under test), the
//! trailing seal's cost and whether it fanned out per shard (the
//! `par::stats` seal counters), and speedup vs. 1 shard at the same
//! receptor count.
//!
//! Like `scheduler_scale`/`join_scale`, thread-level speedup tracks
//! *physical cores*: on a single-core container the interesting numbers
//! are the overhead bounds (allocator + staging vs. one mutex); on
//! multi-core hardware appends/s at 4+ receptors should improve
//! monotonically from 1 → 4 shards.
//!
//! A second, single-threaded leg — `wire-bytes` — prices the layer in
//! front of the append: ns/row of `CsvReceptor::parse_bytes` over a
//! pre-rendered CSV ring per schema (`int,float` / `int,int` /
//! `str,int`), flushed every 256 rows the way the network edge does,
//! asserting zero rejects and an exact row count.
//!
//! Flags: `--scale f` resizes the per-receptor batch count, `--shards n`
//! measures one shard count instead of the default sweep, `--placement m`
//! pins one placement mode instead of sweeping both, `--windows n`
//! overrides batches/receptor, `--seed n` the value seed.

use datacell_basket::{Basket, CsvReceptor, Ingest, ShardedBasket, Timestamp};
use datacell_bench::{print_table, Args};
use datacell_kernel::par::stats;
use datacell_kernel::{Column, DataType, Oid, PlacementMode};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const RECEPTOR_COUNTS: [usize; 3] = [1, 4, 16];
const ROWS_PER_BATCH: usize = 64;

struct Point {
    append_wall: Duration,
    seal_wall: Duration,
    seal_parallel: bool,
    appends_per_s: f64,
    tuples_per_s: f64,
}

fn mode_name(mode: PlacementMode) -> &'static str {
    match mode {
        PlacementMode::RoundRobin => "roundrobin",
        PlacementMode::Aligned => "aligned",
    }
}

/// One measured point: `receptors` threads × `batches` appends each.
fn run_point(
    shards: usize,
    receptors: usize,
    batches: usize,
    mode: PlacementMode,
    seed: u64,
) -> Point {
    let sb = ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]), shards);
    let barrier = Arc::new(Barrier::new(receptors));
    // Each appender clocks its own span; the phase wall is the envelope
    // max(end) − min(start). Timing on the main thread would miss work
    // done before it gets scheduled again (single-core containers run
    // entire appender threads inside that gap).
    let threads: Vec<_> = (0..receptors)
        .map(|tid| {
            let sb = sb.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let shard = sb.assign_shard();
                let vals: Vec<i64> =
                    (0..ROWS_PER_BATCH as i64).map(|r| seed as i64 + tid as i64 + r).collect();
                let batch = [Column::Int(vals)];
                barrier.wait();
                let start = Instant::now();
                match mode {
                    PlacementMode::RoundRobin => {
                        for _ in 0..batches {
                            sb.append_shard(shard, &batch, 0).unwrap();
                        }
                    }
                    PlacementMode::Aligned => {
                        // Key-hash routing on the single Int column: the
                        // same rows land on the same shards the kernel's
                        // aligned morsels will own.
                        for _ in 0..batches {
                            sb.append_keyed(0, &batch, 0).unwrap();
                        }
                    }
                }
                (start, Instant::now())
            })
        })
        .collect();
    let spans: Vec<(Instant, Instant)> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let first = spans.iter().map(|(s, _)| *s).min().unwrap();
    let last = spans.iter().map(|(_, e)| *e).max().unwrap();
    let append_wall = last - first;
    let stats0 = stats::snapshot();
    let t1 = Instant::now();
    let end = sb.seal();
    let seal_wall = t1.elapsed();
    let seal_parallel = stats::snapshot().delta(&stats0).seal_par_calls > 0;

    // Verify: no tuple lost or duplicated, oids dense from 0, and the
    // exact per-point value checksum — placement reorders rows within a
    // batch, never loses or rewrites them.
    let total = (receptors * batches * ROWS_PER_BATCH) as u64;
    assert_eq!(end, total, "sealed end != appended total");
    assert_eq!(sb.len() as u64, total);
    assert_eq!(sb.base_oid(), 0);
    let sum: i64 = sb.with(|b| b.snapshot().col(0).unwrap().as_int().unwrap().iter().sum());
    let expect: i64 = (0..receptors as i64)
        .map(|t| {
            (0..ROWS_PER_BATCH as i64).map(|r| seed as i64 + t + r).sum::<i64>() * batches as i64
        })
        .sum();
    assert_eq!(sum, expect, "value checksum mismatch");

    let secs = append_wall.as_secs_f64().max(f64::EPSILON);
    Point {
        append_wall,
        seal_wall,
        seal_parallel,
        appends_per_s: (receptors * batches) as f64 / secs,
        tuples_per_s: total as f64 / secs,
    }
}

/// An ingest edge that drops the batch: the `wire-bytes` leg measures
/// the parser and its in-place batch reuse, not the basket.
struct Discard;

impl Ingest for Discard {
    fn ingest(&self, batch: &[Column], _now: Timestamp) -> datacell_basket::Result<Oid> {
        black_box(batch);
        Ok(0)
    }
}

const WIRE_RING_ROWS: usize = 4096;
const WIRE_FLUSH_ROWS: usize = 256;

/// The `wire-bytes` leg: one table row per schema.
fn wire_bytes(passes: usize, seed: u64) {
    let schemas: [(&str, [DataType; 2]); 3] = [
        ("int,float", [DataType::Int, DataType::Float]),
        ("int,int", [DataType::Int, DataType::Int]),
        ("str,int", [DataType::Str, DataType::Int]),
    ];
    let mut rows = Vec::new();
    for (name, schema) in schemas {
        let mut ring = String::new();
        for i in 0..WIRE_RING_ROWS as u64 {
            let x = (seed.wrapping_add(i)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            for (j, t) in schema.iter().enumerate() {
                if j > 0 {
                    ring.push(',');
                }
                match t {
                    DataType::Float => write!(ring, "{:.3}", x as f64 / 1000.0),
                    DataType::Str => write!(ring, "k{}", x % 4096),
                    _ => write!(ring, "{}", x + j as u64),
                }
                .expect("write to String");
            }
            ring.push('\n');
        }
        let ring = ring.as_bytes();
        let mut receptor = CsvReceptor::new(&schema);
        let mut parsed = 0;
        let start = Instant::now();
        for _ in 0..passes {
            let mut at = 0;
            while at < ring.len() {
                let (out, used) = receptor
                    .parse_bytes(black_box(&ring[at..]), WIRE_FLUSH_ROWS)
                    .expect("skip policy");
                assert_eq!(out.rejected, 0, "{name}: generated rows must all parse");
                parsed += out.rows;
                at += used;
                receptor.flush_into(&Discard, 0).expect("discard");
            }
        }
        let wall = start.elapsed();
        assert_eq!(parsed, passes * WIRE_RING_ROWS, "{name}: row count");
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", ring.len() as f64 / WIRE_RING_ROWS as f64),
            format!("{wall:?}"),
            format!("{:.1}", wall.as_nanos() as f64 / parsed as f64),
            format!("{:.2}", parsed as f64 / wall.as_secs_f64().max(f64::EPSILON) / 1.0e6),
        ]);
    }
    println!(
        "wire-bytes: CsvReceptor::parse_bytes over a {WIRE_RING_ROWS}-row ring × {passes} passes, \
         flushed every {WIRE_FLUSH_ROWS} rows"
    );
    print_table(&["schema", "bytes/row", "wall", "ns/row", "Mrows/s"], &rows);
    println!();
}

fn main() {
    let args = Args::parse();
    wire_bytes(args.windows.unwrap_or_else(|| args.sized(500, 10)).max(1), args.seed);
    let batches = args.windows.unwrap_or_else(|| args.sized(2_000, 50)).max(1);
    let shard_list: Vec<usize> = match args.shards {
        Some(s) if s > 1 => vec![1, s],
        Some(_) => vec![1],
        None => SHARD_COUNTS.to_vec(),
    };
    let modes: Vec<PlacementMode> = match args.placement {
        Some(m) => vec![m],
        None => vec![PlacementMode::RoundRobin, PlacementMode::Aligned],
    };
    println!(
        "ingest_scale: {batches} batches/receptor × {ROWS_PER_BATCH} rows, \
         shards {shard_list:?} × receptors {RECEPTOR_COUNTS:?} × modes {:?}\n",
        modes.iter().map(|&m| mode_name(m)).collect::<Vec<_>>()
    );
    for &mode in &modes {
        for &receptors in &RECEPTOR_COUNTS {
            let mut rows = Vec::new();
            let mut baseline: Option<f64> = None;
            for &shards in &shard_list {
                // Warm-up pass (first-touch allocation, thread spawn paths).
                run_point(shards, receptors, (batches / 10).max(1), mode, args.seed);
                let p = run_point(shards, receptors, batches, mode, args.seed);
                let speedup = match baseline {
                    Some(base) => p.appends_per_s / base,
                    None => 1.0,
                };
                if baseline.is_none() {
                    baseline = Some(p.appends_per_s);
                }
                rows.push(vec![
                    shards.to_string(),
                    format!("{:?}", p.append_wall),
                    format!("{:.0}", p.appends_per_s),
                    format!("{:.2}", p.tuples_per_s / 1.0e6),
                    format!("{:?}", p.seal_wall),
                    if p.seal_parallel { "parallel" } else { "serial" }.to_string(),
                    format!("{speedup:.2}x"),
                ]);
            }
            println!("mode = {}, receptors = {receptors}", mode_name(mode));
            print_table(
                &[
                    "shards",
                    "append wall",
                    "appends/s",
                    "Mtuples/s",
                    "seal",
                    "seal path",
                    "speedup",
                ],
                &rows,
            );
            println!();
        }
    }
    println!(
        "shape check: with 4+ receptor threads, appends/s should improve \
         monotonically from 1 to 4 shards on multi-core hardware;\non a \
         single-core container the 1-shard path has no second core to \
         lose to, so the table bounds the sharding overhead instead.\n\
         shards=1 appends straight into the merged view under its one \
         mutex; every point verifies dense oids and an exact checksum.\n\
         aligned mode routes rows by key-hash (append_keyed) — same \
         totals, placement-scatter order; seals past {} staged rows \
         stitch shards on parallel threads.",
        4096
    );
}
