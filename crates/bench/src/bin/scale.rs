//! `scale` — the scaling sweeps, one declared list of them.
//!
//! ```text
//! scale [sweep …] [--scale f] [--windows n] [--seed n]
//! ```
//!
//! Naming no sweep runs all of them. `--scale` resizes every input,
//! `--windows` overrides each sweep's count of timed calls (slides for
//! `join-strip`, ring passes for `wire-bytes`, windows per query for
//! `scheduler`), `--seed` the data.
//!
//! Every case runs through one harness ([`Harness::case`]): per point one
//! untimed call — the warm-up, whose output must equal the case's first
//! point — then the timed calls. Each point prints as wirebench's
//! `name value unit` line, `scale.<sweep>.<case>.<point>.<metric>`; notes
//! and shape checks print as `#` lines. The sweeps:
//!
//! * `join` — `par::hashjoin` over P ∈ {1, 2, 4, 8} on 100k × 100k int and
//!   string keys. `P = 1` is one partition through `algebra::hashjoin`'s
//!   core, the sequential baseline; every P yields the same pair set.
//! * `join-strip` — the incremental factory's sliding join: a window of n
//!   basic windows (512 rows each) slides by one, and the strip (expire,
//!   push, probe the new left and right keys against the other stream's
//!   `JoinIndex`) is timed next to the same new row and column joined cell
//!   by cell, for n ∈ {4, 16, 64, 256}. Both must emit the same pairs. The
//!   strip probes 2 × 512 rows whatever n is, so its time follows the
//!   pairs it emits: they grow with n under 4096 keys (`k4096`) and do not
//!   under one key per window row (`kwindow`).
//! * `agg` — the fused `par::grouped_agg_multi` (sum + count + avg) over
//!   P × placement, on 100 heavy and n/10 light groups. Aggregates are
//!   byte-identical across P and both placements; an aligned case takes
//!   the concat merge only (re-group delta 0).
//! * `sort` — `par::sort_perm` (one run on the calling thread at every P)
//!   then `par::fetch` (the `ORDER BY` chain) over P on dense, skewed and
//!   presorted keys, identical at every P;
//!   then the aligned-input mark (`mark1`) against none (`mark0`) on
//!   placement-ordered input per P × placement: the mark never changes
//!   results, elides a scatter under aligned placement and never under
//!   round-robin.
//! * `wire-bytes` — ns/row of `CsvReceptor::parse_bytes` over a 4096-row
//!   ring per schema, flushed every 256 rows as the network edge does,
//!   with zero rejects and an exact row count. `padded` is the `int,float`
//!   ring with spaces and `\r\n` (the `str::parse` fallback) and must land
//!   the same columns.
//! * `scheduler` — one `run_until_idle` drain of 8 independent fig7-shape
//!   queries over 1–8 workers: CPU-bound, and with a 200 µs blocking hop
//!   per fire, which overlaps even on one core. Per-query results are
//!   identical at every worker count.
//! * `kernel` — the sequential `algebra` operators (select, fetch, concat
//!   of 512 parts, distinct, sort, group + sum) at 10k / 100k / 1M rows,
//!   and the P = 1 vs P = 2 crossover of `par::{select, fetch, sort_perm,
//!   grouped_agg_multi, hashjoin}` at 1k / 8k / 64k / 512k rows
//!   (`sort_perm` sorts on the caller's thread at every P, so its P = 2
//!   point prices the dispatch only).
//!
//! Speedup tracks *physical cores*: on a one- or two-core host the
//! interesting numbers are the partition, merge and spawn overheads.

use datacell_basket::{Basket, CsvReceptor, Ingest, ShardedBasket, Timestamp};
use datacell_bench::{gen_q1_stream, lcg_int_bat, lcg_str_bat, selectivity_threshold, Args};
use datacell_core::{
    DataCellError, Engine, EngineConfig, Factory, FireOutcome, ResultSet, SlideMetrics, StreamInput,
};
use datacell_kernel::algebra::{self, AggKind, JoinIndex, Predicate};
use datacell_kernel::par::{self, stats, AggSpec, ParConfig};
use datacell_kernel::{Bat, Column, DataType, Oid, Placement, PlacementMode, Value};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

/// A declared sweep: its name and its body, which runs its cases through
/// the harness.
type Sweep = (&'static str, fn(&mut Harness, &Args));

/// Every sweep, in the order a bare `scale` runs them.
const SWEEPS: [Sweep; 7] = [
    ("join", join),
    ("join-strip", join_strip),
    ("agg", agg),
    ("sort", sort),
    ("wire-bytes", wire_bytes),
    ("scheduler", scheduler),
    ("kernel", kernel),
];

const USAGE: &str = "usage: scale [sweep ...] [--scale f] [--windows n] [--seed n]";

/// The partition (and worker) counts a sweep runs over.
const FANOUTS: [usize; 4] = [1, 2, 4, 8];

const MODES: [(PlacementMode, &str); 2] =
    [(PlacementMode::RoundRobin, "roundrobin"), (PlacementMode::Aligned, "aligned")];

/// One sweep's output and timing budget.
struct Harness<'w> {
    sweep: &'static str,
    /// Timed calls per point.
    iters: usize,
    out: &'w mut dyn Write,
}

impl Harness<'_> {
    /// Print one `scale.<sweep>.<case>.<point>.<metric> value unit` line.
    fn emit(&mut self, case: &str, point: &str, metric: &str, value: f64, unit: &str) {
        let name = format!("scale.{}.{case}.{point}.{metric}", self.sweep);
        writeln!(self.out, "{name:<52} {value:>16.3} {unit}").expect("write sweep output");
    }

    /// Print `text` as `#` lines.
    fn note(&mut self, text: &str) {
        for line in text.lines() {
            writeln!(self.out, "# {line}").expect("write sweep output");
        }
    }

    /// Record one point of a case that took `secs`: `out` must equal the
    /// case's first point, kept in `first`. Prints µs, ns per input row
    /// (when `rows` > 0) and, past the first point, the speedup over it.
    fn point<T: PartialEq>(
        &mut self,
        first: &mut Option<(T, f64)>,
        (case, point): (&str, &str),
        rows: usize,
        out: T,
        secs: f64,
    ) {
        self.emit(case, point, "us", secs * 1e6, "us");
        if rows > 0 {
            self.emit(case, point, "ns_row", secs * 1e9 / rows as f64, "ns/row");
        }
        match first {
            None => *first = Some((out, secs)),
            Some((base, base_secs)) => {
                let sweep = self.sweep;
                assert!(*base == out, "scale.{sweep}.{case}.{point} differs from the first point");
                self.emit(case, point, "speedup", *base_secs / secs.max(f64::EPSILON), "x");
            }
        }
    }

    /// Run `case` over `points`, labelled `{tag}{point}`: per point one
    /// untimed `run` — the warm-up, whose output `canon` maps to what must
    /// equal the first point's — then `self.iters` timed calls. Returns the
    /// first point's canonical output.
    fn case<R, T: PartialEq>(
        &mut self,
        case: &str,
        (tag, points): (&str, &[usize]),
        rows: usize,
        mut run: impl FnMut(usize) -> R,
        canon: impl Fn(R) -> T,
    ) -> T {
        let mut first = None;
        for &p in points {
            let out = canon(run(p));
            let start = Instant::now();
            for _ in 0..self.iters {
                black_box(run(p));
            }
            let secs = start.elapsed().as_secs_f64() / self.iters as f64;
            self.point(&mut first, (case, &format!("{tag}{p}")), rows, out, secs);
        }
        first.expect("a case has at least one point").0
    }
}

/// `--windows` or the sweep's default, at least 1.
fn iters(args: &Args, default: usize) -> usize {
    args.windows.unwrap_or(default).max(1)
}

/// Sorted pair set of one join result (the canonical order at P > 1
/// interleaves partitions).
fn pair_set((lo, ro): (Bat, Bat)) -> Vec<(Oid, Oid)> {
    let (lo, ro) = (lo.tail.as_oid().expect("oid pairs"), ro.tail.as_oid().expect("oid pairs"));
    let mut pairs: Vec<(Oid, Oid)> = lo.iter().copied().zip(ro.iter().copied()).collect();
    pairs.sort_unstable();
    pairs
}

fn join(h: &mut Harness, args: &Args) {
    let n = args.sized(100_000, 1_000);
    let domain = (n as i64 / 10).max(10);
    h.iters = iters(args, 10);
    let ints = (lcg_int_bat(n, domain, args.seed), lcg_int_bat(n, domain, args.seed + 1));
    let strs = (lcg_str_bat(n, domain, args.seed), lcg_str_bat(n, domain, args.seed + 1));
    for (case, (l, r)) in [("int", &ints), ("str", &strs)] {
        let run = |p| par::hashjoin(l, r, &ParConfig::new(p)).unwrap();
        let pairs = h.case(case, ("p", &FANOUTS), 2 * n, run, pair_set);
        h.note(&format!("{case}: |L| = |R| = {n}, {} pairs, the same set at every P", pairs.len()));
    }
}

/// One pair of cell `cell` of a slide — the new row's cells by right slot,
/// then the new column's by left slot — as an order-free fingerprint term:
/// a slide's terms summed compare its pairs cell by cell, whatever order
/// each way emits them in.
fn pair_print(cell: usize, left: u64, right: u64) -> u64 {
    let x = (cell as u64) << 42 ^ left << 21 ^ right;
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29)
}

/// Median ns/slide of the join strip and of the same cells joined one by
/// one, and the median pairs per slide, over `slides` slides of a window
/// of `n` basic windows. Basic window `t` of a stream is `bats[t]`, so the
/// window after slide `t` is `bats[t + 1..=t + n]`. The two ways run as
/// separate passes: run alternately, each evicts the other's tables. Both
/// must emit the same pairs in every cell of every slide.
fn strip_point(n: usize, step: usize, keys: i64, slides: usize, seed: u64) -> [f64; 3] {
    let stream = |salt: u64| -> Vec<Bat> {
        (0..n + slides).map(|t| lcg_int_bat(step, keys, seed + 2 * t as u64 + salt)).collect()
    };
    let (lefts, rights) = (stream(0), stream(1));
    fn refs(bats: &[Bat]) -> Vec<&Bat> {
        bats.iter().collect()
    }

    let mut indexes = [&lefts, &rights].map(|bats| {
        let mut index = JoinIndex::with_capacity(n * step);
        bats[..n].iter().for_each(|bat| index.push(bat).unwrap());
        index
    });
    let (mut strip_ns, mut cells_ns, mut prints) = (Vec::new(), Vec::new(), Vec::new());
    for t in 0..slides {
        let (new_left, new_right) = (&lefts[t + n], &rights[t + n]);
        let start = Instant::now();
        let [left, right] = &mut indexes;
        left.expire();
        right.expire();
        right.push(new_right).unwrap();
        let row = right.probe(&refs(&rights[t + 1..=t + n]), new_left).unwrap();
        let col = left.probe(&refs(&lefts[t + 1..t + n]), new_right).unwrap();
        left.push(new_left).unwrap();
        strip_ns.push(start.elapsed().as_nanos() as f64);
        let mut print = 0u64;
        let mut add = |cell: usize, left: &[u32], right: &[u32]| {
            for (&l, &r) in left.iter().zip(right) {
                print = print.wrapping_add(pair_print(cell, l.into(), r.into()));
            }
        };
        // A row hit is (right position, left position), a column hit
        // (left position, right position).
        for r in 0..row.runs() {
            let (right, left) = row.run(r);
            add(r, left, right);
        }
        for r in 0..col.runs() {
            let (left, right) = col.run(r);
            add(n + r, left, right);
        }
        prints.push((print, row.len() + col.len()));
    }
    for (t, &(strip_print, strip_pairs)) in prints.iter().enumerate() {
        let (new_left, new_right) = (&lefts[t + n], &rights[t + n]);
        let start = Instant::now();
        let row = rights[t + 1..=t + n].iter().map(|r| algebra::hashjoin(new_left, r).unwrap());
        let col = lefts[t + 1..t + n].iter().map(|l| algebra::hashjoin(l, new_right).unwrap());
        let cells: Vec<(Bat, Bat)> = row.chain(col).collect();
        cells_ns.push(start.elapsed().as_nanos() as f64);
        // The transient inputs make every oid a position.
        let oids = |b: &Bat| b.tail.as_oid().unwrap().to_vec();
        let (mut print, mut pairs) = (0u64, 0);
        for (cell, (lo, ro)) in cells.iter().enumerate() {
            pairs += lo.len();
            for (l, r) in oids(lo).into_iter().zip(oids(ro)) {
                print = print.wrapping_add(pair_print(cell, l, r));
            }
        }
        assert_eq!(
            (print, pairs),
            (strip_print, strip_pairs),
            "strip and cells disagree at n = {n}"
        );
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let pairs = prints.into_iter().map(|(_, p)| p as f64).collect();
    [median(strip_ns), median(cells_ns), median(pairs)]
}

fn join_strip(h: &mut Harness, args: &Args) {
    const STEP: usize = 512;
    let slides = iters(args, 200);
    h.note(&format!("step {STEP} rows, median of {slides} slides per point"));
    // Wirebench's key domain, where a longer window holds more duplicates
    // of every key; then one key per window row.
    for case in ["k4096", "kwindow"] {
        for n in [4, 16, 64, 256] {
            let keys = if case == "k4096" { 4096 } else { (n * STEP) as i64 };
            let [strip, cells, pairs] = strip_point(n, STEP, keys, slides, args.seed);
            let point = &format!("n{n}");
            h.emit(case, point, "strip_ns", strip, "ns/slide");
            h.emit(case, point, "cells_ns", cells, "ns/slide");
            h.emit(case, point, "pairs", pairs, "pairs/slide");
        }
    }
    h.note(&format!(
        "shape: the strip probes 2 x {STEP} rows whatever n is (nearly flat under kwindow);\n\
         the cells probe (2n - 1) x {STEP} rows (linear in n under both)"
    ));
}

fn agg(h: &mut Harness, args: &Args) {
    let n = args.sized(1_000_000, 10_000);
    h.iters = iters(args, 10);
    let light = (n as i64 / 10).max(100);
    let inputs = [
        ("heavy", lcg_int_bat(n, 100, args.seed), lcg_int_bat(n, 1_000_000, args.seed + 1)),
        ("light", lcg_int_bat(n, light, args.seed + 2), lcg_int_bat(n, 1_000_000, args.seed + 3)),
    ];
    for (groups, keys, vals) in &inputs {
        let specs: [AggSpec; 3] =
            [(AggKind::Sum, Some(vals)), (AggKind::Count, None), (AggKind::Avg, Some(vals))];
        let mut per_mode = Vec::new();
        for (mode, mode_name) in MODES {
            let case = &format!("{groups}_{mode_name}");
            let stats0 = stats::snapshot();
            let cfg = |p| ParConfig::new(p).with_placement(mode);
            let run = |p| par::grouped_agg_multi(keys, &specs, &cfg(p)).unwrap();
            let result = h.case(case, ("p", &FANOUTS), n, run, |r| r);
            let delta = stats::snapshot().delta(&stats0);
            let (concat, regroup) = (delta.merge_concat_fast_path, delta.merge_regroup_fallback);
            h.note(&format!(
                "{case}: {} groups, identical at every P; merges: concat +{concat}, re-group +{regroup}",
                result.0.len()
            ));
            if mode == PlacementMode::Aligned {
                // Aligned partials own disjoint keys: the merge never re-groups.
                assert!(concat > 0, "{case} never took the concat fast path");
                assert_eq!(regroup, 0, "{case} fell back to merge-by-regroup");
            }
            per_mode.push(result);
        }
        assert!(per_mode[0] == per_mode[1], "{groups}: placement modes diverged");
    }
    h.note("shape: aligned placement trades a hash scatter before the morsels for a concat merge");
}

/// Re-order rows into canonical placement order for `p` partitions, so the
/// input genuinely satisfies the aligned-input mark.
fn align_rows(keys: &Bat, vals: &Bat, p: usize) -> (Bat, Bat) {
    let order: Vec<u32> =
        Placement::new(p).scatter(&keys.tail.as_slice()).into_iter().flatten().collect();
    (Bat::transient(keys.tail.gather(&order)), Bat::transient(vals.tail.gather(&order)))
}

fn sort(h: &mut Harness, args: &Args) {
    let n = args.sized(1_000_000, 10_000);
    h.iters = iters(args, 5);
    let payload = lcg_int_bat(n, 1_000_000, args.seed + 7);
    let dense = lcg_int_bat(n, n as i64, args.seed);
    let skewed = lcg_int_bat(n, 100, args.seed + 1);
    let presorted = algebra::sort(&dense).unwrap();
    for (name, keys) in [("dense", &dense), ("skewed", &skewed), ("presorted", &presorted)] {
        let run = |p| par::sort_perm(keys, false, &ParConfig::new(p)).unwrap();
        let perm = h.case(&format!("{name}_sort"), ("p", &FANOUTS), n, run, |perm| perm);
        let cands =
            Bat::transient(Column::Oid(perm.iter().map(|&i| keys.hseq + Oid::from(i)).collect()));
        let run = |p| par::fetch(&cands, &payload, &ParConfig::new(p)).unwrap();
        h.case(&format!("{name}_fetch"), ("p", &FANOUTS), n, run, |fetched| fetched);
    }

    let (keys, vals) =
        (lcg_int_bat(n, 1_000, args.seed + 2), lcg_int_bat(n, 1_000_000, args.seed + 3));
    for (mode, mode_name) in MODES {
        let stats0 = stats::snapshot();
        for p in FANOUTS {
            let (keys, vals) = align_rows(&keys, &vals, p);
            let specs: [AggSpec; 3] =
                [(AggKind::Sum, Some(&vals)), (AggKind::Count, None), (AggKind::Avg, Some(&vals))];
            let cfg = ParConfig::new(p).with_placement(mode);
            let run = |mark| {
                par::grouped_agg_multi(&keys, &specs, &cfg.with_aligned_input(mark == 1)).unwrap()
            };
            h.case(&format!("elide_{mode_name}_p{p}"), ("mark", &[0, 1]), n, run, |r| r);
        }
        let elided = stats::snapshot().delta(&stats0).scatter_elided;
        h.note(&format!(
            "elide_{mode_name}: scatters elided +{elided}, results unchanged by the mark"
        ));
        match mode {
            PlacementMode::Aligned => assert!(elided > 0, "the aligned-input mark never elided"),
            PlacementMode::RoundRobin => assert_eq!(elided, 0, "round-robin honoured the mark"),
        }
    }
    h.note("shape: the sort is one run on the calling thread at every P; P=1 fetch is one morsel");
}

/// An ingest edge that drops the batch: `wire-bytes` measures the parser
/// and its in-place batch reuse, not the basket.
struct Discard;

impl Ingest for Discard {
    fn ingest(&self, batch: &[Column], _now: Timestamp) -> datacell_basket::Result<Oid> {
        black_box(batch);
        Ok(0)
    }
}

const WIRE_RING_ROWS: usize = 4096;
const WIRE_FLUSH_ROWS: usize = 256;
const INT_FLOAT: [DataType; 2] = [DataType::Int, DataType::Float];

/// A `wire-bytes` ring: `WIRE_RING_ROWS` rows over `schema`, one `\n` line
/// each; `padded` puts a space on each side of every field and ends lines
/// with `\r\n`, which sends every field to the parser's fallback.
fn wire_ring(schema: &[DataType], padded: bool, seed: u64) -> Vec<u8> {
    let pad = if padded { " " } else { "" };
    let mut ring = String::new();
    for i in 0..WIRE_RING_ROWS as u64 {
        let x = (seed.wrapping_add(i)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        for (j, t) in schema.iter().enumerate() {
            ring.push_str(if j > 0 { "," } else { "" });
            ring.push_str(pad);
            match t {
                DataType::Float => write!(ring, "{:.3}", x as f64 / 1000.0),
                DataType::Str => write!(ring, "k{}", x % 4096),
                _ => write!(ring, "{}", x + j as u64),
            }
            .expect("write to String");
            ring.push_str(pad);
        }
        ring.push_str(if padded { "\r\n" } else { "\n" });
    }
    ring.into_bytes()
}

/// The columns `ring` lands in a basket, parsed in one untimed call.
fn landed(schema: &[DataType], ring: &[u8]) -> Vec<Column> {
    let named: Vec<(&str, DataType)> = ["a", "b"].into_iter().zip(schema.iter().copied()).collect();
    let basket = ShardedBasket::new(Basket::new("ring", &named));
    let mut receptor = CsvReceptor::new(schema);
    receptor.parse_bytes(ring, usize::MAX).expect("skip policy");
    receptor.flush_into(&basket, 0).expect("flush");
    basket.with(|b| (0..schema.len()).map(|i| b.snapshot().col(i).unwrap().clone()).collect())
}

fn wire_bytes(h: &mut Harness, args: &Args) {
    let passes = args.windows.unwrap_or_else(|| args.sized(500, 10)).max(1);
    // The padded ring respells the `int,float` rows: the fallback must
    // land exactly what the typed walk does.
    assert_eq!(
        landed(&INT_FLOAT, &wire_ring(&INT_FLOAT, false, args.seed)),
        landed(&INT_FLOAT, &wire_ring(&INT_FLOAT, true, args.seed)),
        "the padded ring landed other columns than the int,float ring"
    );
    h.note(&format!(
        "{WIRE_RING_ROWS}-row ring x {passes} passes, flushed every {WIRE_FLUSH_ROWS} rows"
    ));
    let rings: [(&str, [DataType; 2], bool); 4] = [
        ("int_float", INT_FLOAT, false),
        ("int_int", [DataType::Int, DataType::Int], false),
        ("str_int", [DataType::Str, DataType::Int], false),
        ("padded", INT_FLOAT, true),
    ];
    for (name, schema, padded) in rings {
        let ring = &wire_ring(&schema, padded, args.seed);
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
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(parsed, passes * WIRE_RING_ROWS, "{name}: row count");
        h.emit("parse", name, "ns_row", secs * 1e9 / parsed as f64, "ns/row");
        h.emit("parse", name, "bytes_row", ring.len() as f64 / WIRE_RING_ROWS as f64, "bytes/row");
    }
}

/// Independent standing queries in the `scheduler` sweep.
const QUERIES: usize = 8;
/// The blocking hop each fire of the `scheduler` sweep's second case pays.
const FIRE_COST: Duration = Duration::from_micros(200);

/// A Q1-shaped factory with a blocking cost per fire: consumes one step,
/// sleeps `cost` (the receptor/emitter hop the paper's separate processes
/// pay), then emits `sum(x2) where x1 > threshold` over the step.
struct ThrottledSum {
    input: StreamInput,
    step: usize,
    threshold: i64,
    cost: Duration,
}

impl Factory for ThrottledSum {
    fn label(&self) -> &str {
        &self.input.name
    }

    fn ready(&self, _clock: Timestamp) -> bool {
        self.input.available() >= self.step
    }

    fn fire(&mut self, _clock: Timestamp) -> Result<FireOutcome, DataCellError> {
        let w = self.input.take(self.step)?;
        std::thread::sleep(self.cost);
        let (xs, ys) = (w.col(0).unwrap().as_int().unwrap(), w.col(1).unwrap().as_int().unwrap());
        let sum: i64 =
            xs.iter().zip(ys).filter(|(x, _)| **x > self.threshold).map(|(_, y)| *y).sum();
        let result = ResultSet::new(vec!["sum".into()], vec![Column::Int(vec![sum])])
            .map_err(|e| DataCellError::Unsupported(format!("result shape: {e}")))?;
        Ok(FireOutcome::Produced {
            result,
            metrics: SlideMetrics { rows: 1, ..SlideMetrics::default() },
        })
    }

    fn consumed_upto(&self, stream: &str) -> Option<Oid> {
        (stream == self.input.name).then_some(self.input.consumed)
    }

    fn input_streams(&self) -> Vec<String> {
        vec![self.input.name.clone()]
    }
}

/// Every row one drain produced, per query and window.
type Results = Vec<Vec<Vec<Vec<Value>>>>;

/// `QUERIES` standing queries of window `window` and slide `step` on
/// `workers` scheduler threads (the fig7 incremental plan, or
/// [`ThrottledSum`] when `cost` is non-zero): pre-fill every stream with
/// `windows` windows, then time one `run_until_idle` drain. Returns the
/// drain's seconds, the windows emitted and every produced row.
fn drain(
    workers: usize,
    (window, step, cost): (usize, usize, Duration),
    windows: usize,
    seed: u64,
) -> (f64, usize, Results) {
    let mut engine = Engine::with_config(EngineConfig { workers, ..EngineConfig::from_env() });
    let threshold = selectivity_threshold(0.2);
    let mut queries = Vec::with_capacity(QUERIES);
    for i in 0..QUERIES {
        let stream = format!("s{i}");
        engine.create_stream(&stream, &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
        let q = if cost.is_zero() {
            let sql = format!(
                "SELECT x1, sum(x2) FROM {stream} WHERE x1 > {threshold} GROUP BY x1 \
                 WINDOW SIZE {window} SLIDE {step}"
            );
            engine.register_sql(&sql).unwrap()
        } else {
            let input = StreamInput::new(stream.clone(), engine.basket(&stream).unwrap());
            engine
                .register_factory(Box::new(ThrottledSum { input, step, threshold, cost }))
                .unwrap()
        };
        queries.push((stream, q));
    }
    // Pre-fill every backlog so the drain sees every transition enabled.
    for (i, (stream, _)) in queries.iter().enumerate() {
        let total = window + (windows - 1) * step;
        engine.append(stream, &gen_q1_stream(total, seed.wrapping_add(i as u64))).unwrap();
    }
    let start = Instant::now();
    engine.run_until_idle().unwrap();
    let secs = start.elapsed().as_secs_f64();
    let results: Results = queries
        .iter()
        .map(|(_, q)| engine.drain_results(*q).unwrap().iter().map(ResultSet::rows).collect())
        .collect();
    (secs, results.iter().map(Vec::len).sum(), results)
}

fn scheduler(h: &mut Harness, args: &Args) {
    let windows = iters(args, 24);
    let (window, step) = (args.sized(8_192, 1_024), args.sized(1_024, 128));
    // CPU-bound: the fig7 plan fanned out over queries. Blocking: tumbling
    // windows, one fire per step, each paying the hop.
    for (case, shape) in
        [("cpu", (window, window / 8, Duration::ZERO)), ("blocking", (step, step, FIRE_COST))]
    {
        let mut first = None;
        for workers in FANOUTS {
            let (secs, emissions, results) = drain(workers, shape, windows, args.seed);
            let point = &format!("w{workers}");
            h.point(&mut first, (case, point), 0, results, secs);
            h.emit(case, point, "emissions_s", emissions as f64 / secs, "emissions/s");
        }
    }
    h.note(&format!(
        "{QUERIES} queries, {windows} windows each; results identical at every worker count"
    ));
    h.note("shape: blocking speedup tracks the worker count; cpu speedup tracks physical cores");
}

fn kernel(h: &mut Harness, args: &Args) {
    let size = |base: usize| args.sized(base, base / 64);
    // About 2^23 rows per point, so small inputs repeat enough to time.
    let budget = |n: usize| iters(args, (1 << 23) / n);
    let seed = args.seed;
    let pred = Predicate::gt(79);
    for n in [10_000, 100_000, 1_000_000].map(size) {
        h.iters = budget(n);
        let (b, vals) = (lcg_int_bat(n, 100, seed), lcg_int_bat(n, 1_000, seed + 1));
        let cands = algebra::select(&b, &pred).unwrap();
        let wide = lcg_int_bat(n, 1_000, seed + 2);
        let parts: Vec<Bat> =
            (0..512).map(|i| lcg_int_bat((n / 512).max(1), 100, seed + i)).collect();
        let parts: Vec<&Bat> = parts.iter().collect();
        let point = ("n", &[n][..]);
        h.case("select", point, n, |_| algebra::select(&b, &pred).unwrap(), drop);
        h.case("fetch", point, n, |_| algebra::fetch(&cands, &b).unwrap(), drop);
        h.case("concat512", point, n, |_| algebra::concat(&parts).unwrap(), drop);
        h.case("distinct", point, n, |_| algebra::distinct(&wide).unwrap(), drop);
        h.case("sort", point, n, |_| algebra::sort(&wide).unwrap(), drop);
        let group_sum = |_| algebra::sum_grouped(&vals, &algebra::group(&b).unwrap()).unwrap();
        h.case("group_sum", point, n, group_sum, drop);
    }
    // The P = 1 vs P = 2 crossover: one morsel on the caller's thread
    // against two scoped threads per call.
    for n in [1 << 10, 1 << 13, 1 << 16, 1 << 19].map(size) {
        h.iters = budget(n);
        let (keys, vals) = (lcg_int_bat(n, 100, seed), lcg_int_bat(n, 1_000, seed + 1));
        let (l, r) = (lcg_int_bat(n, n as i64, seed + 2), lcg_int_bat(n, n as i64, seed + 3));
        let cands = algebra::select(&keys, &pred).unwrap();
        let specs: [AggSpec; 2] = [(AggKind::Sum, Some(&vals)), (AggKind::Count, None)];
        let cfg = ParConfig::new;
        let p = ("p", &[1, 2][..]);
        h.case(
            &format!("select_n{n}"),
            p,
            n,
            |p| par::select(&keys, &pred, &cfg(p)).unwrap(),
            |b| b,
        );
        h.case(
            &format!("fetch_n{n}"),
            p,
            n,
            |p| par::fetch(&cands, &vals, &cfg(p)).unwrap(),
            |b| b,
        );
        let sort_perm = |p| par::sort_perm(&keys, false, &cfg(p)).unwrap();
        h.case(&format!("sort_perm_n{n}"), p, n, sort_perm, |perm| perm);
        let grouped = |p| par::grouped_agg_multi(&keys, &specs, &cfg(p)).unwrap();
        h.case(&format!("grouped_agg_n{n}"), p, n, grouped, |r| r);
        h.case(
            &format!("hashjoin_n{n}"),
            p,
            2 * n,
            |p| par::hashjoin(&l, &r, &cfg(p)).unwrap(),
            pair_set,
        );
    }
    h.note("shape: P = 2 wins once a morsel's work outweighs a thread spawn and join");
}

/// Split `argv` into the named sweeps (every sweep when none is named) and
/// the harness flags. An unknown sweep is an error.
fn parse(argv: Vec<String>) -> Result<(Vec<Sweep>, Args), String> {
    let (mut names, mut flags) = (Vec::new(), Vec::new());
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            names.push(arg);
            continue;
        }
        let takes_value = matches!(arg.as_str(), "--scale" | "--windows" | "--seed");
        flags.push(arg);
        if takes_value {
            flags.extend(it.next());
        }
    }
    let args = Args::parse_from(flags.into_iter());
    if args.paper {
        return Err("--paper is a fig* flag; use --scale".into());
    }
    if names.is_empty() {
        return Ok((SWEEPS.to_vec(), args));
    }
    let find = |name: &String| {
        SWEEPS.iter().find(|(s, _)| s == name).copied().ok_or(format!("unknown sweep {name}"))
    };
    Ok((names.iter().map(find).collect::<Result<_, _>>()?, args))
}

/// Run one sweep, writing its lines to `out`.
fn run((sweep, body): Sweep, args: &Args, out: &mut dyn Write) {
    body(&mut Harness { sweep, iters: 1, out }, args);
}

fn main() {
    let (sweeps, args) = parse(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        let names: Vec<&str> = SWEEPS.iter().map(|(name, _)| *name).collect();
        eprintln!("error: {e}\n{USAGE}\nsweeps: {}", names.join(" "));
        std::process::exit(2)
    });
    let mut stdout = std::io::stdout().lock();
    // Speedups depend on the cores the run had.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    writeln!(stdout, "# available parallelism: {cores}").expect("write sweep output");
    for sweep in sweeps {
        run(sweep, &args, &mut stdout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(std::string::ToString::to_string).collect()
    }

    /// Every sweep at its floor size with one window, so each identity
    /// assertion runs. One test, not one per sweep: the kernel counters
    /// the `agg` and `sort` sweeps assert on are process-wide.
    #[test]
    fn every_sweep_runs_and_prints_name_value_unit_lines() {
        let (sweeps, args) = parse(argv(&["--scale", "0", "--windows", "1"])).unwrap();
        for sweep in sweeps {
            let mut out = Vec::new();
            run(sweep, &args, &mut out);
            let text = String::from_utf8(out).unwrap();
            let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
            assert!(!lines.is_empty(), "{} printed no metric", sweep.0);
            for line in lines {
                let fields: Vec<&str> = line.split_whitespace().collect();
                let [name, value, _unit] = fields[..] else {
                    panic!("not `name value unit`: {line:?}")
                };
                assert!(name.starts_with(&format!("scale.{}.", sweep.0)), "{line:?}");
                assert_eq!(
                    name.split('.').count(),
                    5,
                    "not scale.<sweep>.<case>.<point>.<metric>: {line:?}"
                );
                assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{line:?}");
            }
        }
    }

    #[test]
    fn sweep_names_are_unique_and_unknown_names_are_usage_errors() {
        let names: std::collections::HashSet<&str> = SWEEPS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), SWEEPS.len());
        assert!(parse(argv(&["agg", "nope"])).is_err());
        assert!(parse(argv(&["--paper"])).is_err());
        let (sweeps, args) = parse(argv(&["kernel", "--windows", "3", "join"])).unwrap();
        assert_eq!(sweeps.iter().map(|(n, _)| *n).collect::<Vec<_>>(), ["kernel", "join"]);
        assert_eq!(args.windows, Some(3));
        assert_eq!(parse(vec![]).unwrap().0.len(), SWEEPS.len());
    }
}
