//! The per-layer half of the traced run: the server loop's public calls,
//! replayed in-process with one span per call per batch, and per-call
//! probes of the `kernel::par` entry points.
//!
//! The replay pushes the same ring bytes through the same functions in
//! the order `net::server`'s loop calls them — `CsvReceptor::parse` →
//! `flush_into` (`ShardedBasket` append) → `seal` → `Engine::run_until_idle`
//! → `Engine::drain_results` — one slide per batch, so each
//! `run_until_idle` span is exactly one fire. What the wire run spends
//! beyond the sum of these spans is the `net` residual: socket reads, line
//! splitting, fan-out, rendering, socket writes and idle sleeps.

use crate::reference::{build_engine, render, Reference};
use crate::stats;
use crate::trace::{SpanId, Tracer, NO_PARENT};
use crate::workloads::{Ring, Workload};
use datacell_basket::{CsvReceptor, ShardedBasket};
use datacell_core::{Engine, QueryId, ResultSet};
use datacell_kernel::algebra::{AggKind, Predicate};
use datacell_kernel::par::{self, stats::StatsSnapshot, ParConfig};
use datacell_kernel::{Bat, Column};
use datacell_net::NetConfig;
use datacell_telemetry::{SampleValue, Snapshot};
use std::hint::black_box;
use std::time::Instant;

/// The spans that make up the accounted share of the wire's wall time.
pub const LAYER_SPANS: [&str; 5] =
    ["basket.parse", "basket.append", "basket.seal", "core.run_until_idle", "core.drain"];

/// Counters of one replay. Row counts are per stream.
pub struct ReplayLog {
    pub rows: u64,
    pub slides: u64,
    pub seal_calls: u64,
    pub rejected_rows: u64,
    pub resident_rows_max: usize,
    /// Deltas of the engine's `datacell_query_*` families.
    pub query_slides: f64,
    pub slide_total_s: f64,
    pub main_plan_s: f64,
    pub merge_s: f64,
    /// Delta of `kernel::par::stats`.
    pub kernel: StatsSnapshot,
}

/// Sum of a counter family's samples in a snapshot.
pub fn family_total(snap: &Snapshot, name: &str) -> f64 {
    snap.family(name).map_or(0.0, |f| {
        f.samples
            .iter()
            .map(|s| match s.value {
                SampleValue::Value(v) => v,
                SampleValue::Histogram(_) => 0.0,
            })
            .sum()
    })
}

/// The in-process stand-in for the server loop.
struct Replayer<'a> {
    w: &'a Workload,
    rings: &'a [Ring],
    engine: Engine,
    query: QueryId,
    /// Per stream: its ingest edge and the connection's receptor.
    edges: Vec<(ShardedBasket, CsvReceptor)>,
    flush_rows: usize,
    rejected_rows: u64,
    resident_rows_max: usize,
}

impl Replayer<'_> {
    /// Rows resident in the input baskets, before and after each fire:
    /// the slide just appended plus whatever the factory still retains.
    fn sample_resident(&mut self) {
        let resident: usize =
            self.w.streams.iter().map(|s| self.engine.basket_len(s.name).expect("stream")).sum();
        self.resident_rows_max = self.resident_rows_max.max(resident);
    }

    /// Push slide number `slide` of the ring through one server-loop
    /// iteration, one span per public call, and return its windows.
    fn step(&mut self, slide: u64, tracer: &mut Tracer, root: SpanId) -> Vec<ResultSet> {
        let w = self.w;
        let from = (slide as usize * w.slide) % w.ring_rows();
        let batch = tracer.open("replay.batch", root, slide);
        for (ring, (basket, receptor)) in self.rings.iter().zip(&mut self.edges) {
            // The server flushes a connection's pending rows every
            // `batch_rows` lines and at the end of the tick.
            let mut at = from;
            while at < from + w.slide {
                let to = (at + self.flush_rows).min(from + w.slide);
                let csv = std::str::from_utf8(ring.csv_rows(at, to)).expect("ring is ASCII");
                self.rejected_rows += tracer.span("basket.parse", batch, slide, || {
                    csv.lines()
                        .map(|l| receptor.parse(l).expect("skip policy never errs").rejected)
                        .sum::<usize>()
                }) as u64;
                let clock = self.engine.clock();
                tracer
                    .span("basket.append", batch, slide, || receptor.flush_into(basket, clock))
                    .expect("append");
                at = to;
            }
            tracer.span("basket.seal", batch, slide, || basket.seal());
        }
        self.engine.advance_clock(self.engine.clock() + 1);
        self.sample_resident();
        tracer
            .span("core.run_until_idle", batch, slide, || self.engine.run_until_idle())
            .expect("scheduler");
        self.sample_resident();
        let results =
            tracer.span("core.drain", batch, slide, || self.engine.drain_results(self.query));
        tracer.close(batch);
        results.expect("drain")
    }
}

/// Replay `slides` slides of the ring, verifying every window against the
/// reference. A fixed amount of work, so the layer seconds of two commits
/// compare directly. Panics on a mismatch: the in-process path and the
/// reference are the same engine fed the same rows.
pub fn replay(
    w: &Workload,
    rings: &[Ring],
    reference: &Reference,
    slides: u64,
    tracer: &mut Tracer,
    root: SpanId,
) -> ReplayLog {
    let (engine, query, _) = build_engine(w);
    let edges = w
        .streams
        .iter()
        .map(|s| {
            let types: Vec<_> = s.cols.iter().map(|&(_, t)| t).collect();
            (engine.basket(s.name).expect("stream basket"), CsvReceptor::new(&types))
        })
        .collect();
    let mut r = Replayer {
        w,
        rings,
        engine,
        query,
        edges,
        flush_rows: NetConfig::default().batch_rows,
        rejected_rows: 0,
        resident_rows_max: 0,
    };
    let mut windows = 0u64;
    let mut text = String::new();
    let mut verify = |results: Vec<ResultSet>| {
        for rs in &results {
            text.clear();
            render(rs, &mut text);
            let slot = (windows % reference.period() as u64) as usize;
            let begin = if slot == 0 { 0 } else { reference.win_end[slot - 1] };
            assert!(
                text.as_bytes() == &reference.bytes[begin..reference.win_end[slot]],
                "replay window {windows} differs from the reference"
            );
            windows += 1;
        }
    };

    // Fill the first window untraced: the wire's measured phases start
    // from a full window too.
    let warm_slides = (w.window / w.slide) as u64;
    let mut scratch = Tracer::new(Instant::now());
    for slide in 0..warm_slides {
        verify(r.step(slide, &mut scratch, NO_PARENT));
    }
    (r.rejected_rows, r.resident_rows_max) = (0, 0);
    let snap0 = r.engine.telemetry_snapshot();
    let kernel0 = par::stats::snapshot();
    for slide in warm_slides..warm_slides + slides {
        verify(r.step(slide, tracer, root));
    }
    let snap1 = r.engine.telemetry_snapshot();
    let delta = |name: &str| family_total(&snap1, name) - family_total(&snap0, name);
    ReplayLog {
        rows: slides * w.slide as u64,
        slides,
        seal_calls: slides * w.streams.len() as u64,
        rejected_rows: r.rejected_rows,
        resident_rows_max: r.resident_rows_max,
        query_slides: delta("datacell_query_slides_total"),
        slide_total_s: delta("datacell_query_total_seconds_total"),
        main_plan_s: delta("datacell_query_main_plan_seconds_total"),
        merge_s: delta("datacell_query_merge_seconds_total"),
        kernel: par::stats::snapshot().delta(&kernel0),
    }
}

/// Median per-call time in microseconds of `f` over `calls` calls.
fn probe(calls: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy telemetry registration
    let mut us: Vec<f64> = (0..calls)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::sort(&mut us);
    stats::percentile(&us, 0.5)
}

/// Median per-call time of each `kernel::par` entry point at `P = 1` and
/// `P = 2` on one window's worth of this workload's own rows. `P2 − P1` is
/// what a `thread::scope` spawn per operator per slide costs at this size.
/// Returns `(metric name, microseconds)` pairs and records one span per
/// probe.
pub fn kernel_probes(
    w: &Workload,
    rings: &[Ring],
    tracer: &mut Tracer,
    root: SpanId,
) -> Vec<(String, f64)> {
    const CALLS: usize = 31;
    let cols = rings[0].columns_at(0, w.window);
    let keys = Bat::new(0, cols[0].clone());
    let vals = Bat::new(0, cols[1].clone());
    // The join's build side: the other stream's keys where there is one,
    // else the key domain itself (a dimension lookup, one match per row),
    // so the output stays one window's worth whatever the cardinality.
    let other = match rings.get(1) {
        Some(r) => Bat::new(0, r.columns_at(0, w.window)[0].clone()),
        None => Bat::new(0, Column::Int((0..w.streams[0].key_domain).collect())),
    };
    let pred = Predicate::gt(w.streams[0].key_domain / 4);
    let cands = par::select(&keys, &pred, &ParConfig::sequential()).expect("select");
    let mut out = Vec::new();
    for p in [1usize, 2] {
        let cfg = ParConfig::new(p);
        let mut run = |span: &'static str, f: &mut dyn FnMut()| {
            let us = tracer.span(span, root, p as u64, || probe(CALLS, &mut *f));
            out.push((format!("{span}_p{p}_us"), us));
        };
        run("kernel.select", &mut || {
            black_box(par::select(black_box(&keys), &pred, &cfg).expect("select"));
        });
        run("kernel.group_agg", &mut || {
            black_box(
                par::grouped_agg(black_box(&keys), Some(&vals), AggKind::Sum, &cfg)
                    .expect("group_agg"),
            );
        });
        run("kernel.hashjoin", &mut || {
            black_box(par::hashjoin(black_box(&keys), &other, &cfg).expect("hashjoin"));
        });
        run("kernel.sort", &mut || {
            black_box(par::sort(black_box(&vals), false, &cfg).expect("sort"));
        });
        run("kernel.fetch", &mut || {
            black_box(par::fetch(black_box(&cands), &vals, &cfg).expect("fetch"));
        });
    }
    out
}
