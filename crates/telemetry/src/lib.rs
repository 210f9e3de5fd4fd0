//! Engine-wide telemetry: lock-free metric primitives, a named registry,
//! and a Prometheus text exposition surface.
//!
//! This crate sits *below* `datacell-kernel` in the dependency order and is
//! deliberately std-only, so every layer of the engine — kernel operators,
//! receptors, schedulers, the engine facade — can record into the same
//! registry without dependency cycles.
//!
//! The pieces:
//!
//! - [`Counter`] / [`Gauge`] — clonable handles over a single atomic;
//!   recording is one relaxed RMW, safe inside `thread::scope` fan-outs and
//!   the lock-free `kernel::par` morsel loops.
//! - [`Histogram`] — fixed-bucket log₂-scale latency histogram (powers of
//!   two in nanoseconds) with exact atomic `sum`/`count` and
//!   [`Histogram::quantile`] extraction for p50/p95/p99 reporting.
//! - [`Registry`] — associates handles with a metric name, help text and
//!   constant labels, and renders them into a [`Snapshot`]. The process-wide
//!   [`global()`] registry holds signals that are inherently process-scoped
//!   (the kernel's morsel counters, the receptors' reject counts);
//!   engine-local series (per-query latency, scheduler utilization) are
//!   built into families by `Engine::telemetry_snapshot` so that two engines
//!   in one process never collide on a `query="q0"` label.
//! - [`render_text`] / [`parse_text`] — Prometheus text-format exposition
//!   and a strict validating parser (used by the lint harness and the
//!   `metrics_dump` bin's self-check).
//!
//! # Kill switch
//!
//! `DATACELL_TELEMETRY=0` (or `off`/`false`) disables *timed*
//! instrumentation: [`timer()`] returns `None` and the paired
//! [`Histogram::record_since`] becomes a no-op, so the `Instant` clock reads
//! vanish from the hot paths. Monotone counters stay on unconditionally —
//! they are single relaxed adds, and both the test suite and the scale
//! harnesses assert on their deltas. The flag is read once per process.

mod text;

pub use text::{parse_text, render_text, Parsed, ParsedFamily, ParsedSample};

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Kill switch.
// ---------------------------------------------------------------------------

/// Decode a raw `DATACELL_TELEMETRY` value: `0`, `off` and `false`
/// (case-insensitive) disable timed instrumentation, anything else — and an
/// unset variable — leaves it on.
#[must_use]
pub fn parse_enabled(raw: Option<&str>) -> bool {
    match raw {
        Some(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v == "0" || v == "off" || v == "false")
        }
        None => true,
    }
}

/// Whether timed instrumentation is on (`DATACELL_TELEMETRY`, cached at
/// first use). Counters and gauges are unaffected by this switch.
#[must_use]
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| parse_enabled(std::env::var("DATACELL_TELEMETRY").ok().as_deref()))
}

/// Start a latency measurement: `Some(Instant::now())` when telemetry is
/// enabled, `None` under the kill switch (no clock read at all). Pair with
/// [`Histogram::record_since`].
#[must_use]
pub fn timer() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Counter / gauge.
// ---------------------------------------------------------------------------

/// A monotone counter: a clonable handle over one `AtomicU64`. All clones
/// observe the same value; recording is a single relaxed `fetch_add`.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Add the nanoseconds elapsed since a [`timer()`] start; no-op under
    /// the kill switch (`start == None`). For counters accumulating busy
    /// or idle time.
    pub fn add_nanos_since(&self, start: Option<Instant>) {
        if let Some(t) = start {
            self.add(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
}

/// A gauge: a clonable handle over one `AtomicI64`; may go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is currently lower (atomic max) —
    /// high-water marks such as peak open connections. Racing raisers
    /// converge on the true maximum without a read-modify-write loop.
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

/// Number of histogram buckets, including the final `+Inf` bucket.
pub const HISTOGRAM_BUCKETS: usize = 30;

/// log₂ of the first bucket's upper bound in nanoseconds: bucket `i` (for
/// `i < HISTOGRAM_BUCKETS - 1`) covers durations `≤ 2^(10 + i)` ns, i.e.
/// ~1 µs up to ~275 s, with the last bucket catching everything above.
const BASE_SHIFT: u32 = 10;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket log-scale latency histogram. Bucket boundaries are powers
/// of two in nanoseconds (see [`HISTOGRAM_BUCKETS`] / [`bucket_upper_ns`]);
/// `sum` and `count` are exact. Clonable handle semantics match [`Counter`]:
/// all clones record into the same cells, so concurrent recording from many
/// threads sums exactly.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }
}

/// Upper bound of bucket `i` in nanoseconds; `None` for the final `+Inf`
/// bucket.
#[must_use]
pub fn bucket_upper_ns(i: usize) -> Option<u64> {
    (i + 1 < HISTOGRAM_BUCKETS).then(|| 1u64 << (BASE_SHIFT + i as u32))
}

/// The bucket a duration of `ns` nanoseconds falls into: the smallest `i`
/// with `ns <= 2^(BASE_SHIFT + i)`, clamped to the `+Inf` bucket.
fn bucket_index(ns: u64) -> usize {
    let bits = 64 - ns.saturating_sub(1).leading_zeros();
    (bits.saturating_sub(BASE_SHIFT) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.0.buckets[bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.0.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record the time elapsed since a [`timer()`] start; no-op under the
    /// kill switch (`start == None`).
    pub fn record_since(&self, start: Option<Instant>) {
        if let Some(t) = start {
            self.record(t.elapsed());
        }
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all recorded durations.
    #[must_use]
    pub fn sum(&self) -> Duration {
        Duration::from_nanos(self.0.sum_ns.load(Ordering::Relaxed))
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket the
    /// target rank falls into — a conservative (rounded-up) estimate, exact
    /// to within one power of two. [`Duration::ZERO`] on an empty histogram.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of all cells, for exposition. `count` is the
    /// cumulative bucket total just read, not the `count` cell: the cells
    /// are separate atomics, so against a concurrent [`Histogram::record`]
    /// the cell can disagree with the buckets, and a `+Inf` bucket that
    /// differs from `_count` is an invalid exposition.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS);
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            let le = bucket_upper_ns(i).map_or(f64::INFINITY, |ns| ns as f64 / 1.0e9);
            buckets.push((le, cum));
        }
        HistogramSnapshot {
            buckets,
            sum: self.0.sum_ns.load(Ordering::Relaxed) as f64 / 1.0e9,
            count: cum,
        }
    }
}

/// A point-in-time view of a [`Histogram`]: cumulative bucket counts keyed
/// by upper bound in *seconds* (Prometheus `le` convention, last is
/// `+Inf`), plus the exact sum (seconds) and count.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// `(le_seconds, cumulative_count)` per bucket, ascending; the final
    /// entry's bound is `f64::INFINITY`.
    pub buckets: Vec<(f64, u64)>,
    /// Sum of all observations in seconds.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// See [`Histogram::quantile`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut last_finite = 0.0f64;
        for &(le, cum) in &self.buckets {
            if le.is_finite() {
                last_finite = le;
            }
            if cum >= target {
                let bound = if le.is_finite() { le } else { last_finite };
                return Duration::from_secs_f64(bound);
            }
        }
        Duration::from_secs_f64(last_finite)
    }
}

// ---------------------------------------------------------------------------
// Snapshot model.
// ---------------------------------------------------------------------------

/// What kind of metric a [`Family`] holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter (`*_total` by convention).
    Counter,
    /// Free-moving gauge.
    Gauge,
    /// Latency histogram (`*_seconds` by convention).
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample's value within a family.
#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    /// A plain counter/gauge value.
    Value(f64),
    /// A full histogram (buckets + sum + count).
    Histogram(HistogramSnapshot),
}

/// One labeled sample within a [`Family`].
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Label pairs, in emission order.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

/// All samples sharing one metric name, help text and kind.
#[derive(Clone, Debug, PartialEq)]
pub struct Family {
    /// Metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// Help text for the `# HELP` line. The lint harness flags empty help.
    pub help: String,
    /// Metric kind for the `# TYPE` line.
    pub kind: MetricKind,
    /// Samples, one per distinct label set.
    pub samples: Vec<Sample>,
}

impl Family {
    /// An empty family.
    #[must_use]
    pub fn new(name: &str, help: &str, kind: MetricKind) -> Family {
        Family { name: name.to_owned(), help: help.to_owned(), kind, samples: Vec::new() }
    }

    /// Append a plain-valued sample.
    pub fn push_value(&mut self, labels: &[(&str, &str)], value: f64) {
        self.samples.push(Sample { labels: own_labels(labels), value: SampleValue::Value(value) });
    }

    /// Append a histogram sample.
    pub fn push_histogram(&mut self, labels: &[(&str, &str)], h: HistogramSnapshot) {
        self.samples.push(Sample { labels: own_labels(labels), value: SampleValue::Histogram(h) });
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels.iter().map(|&(k, v)| (k.to_owned(), v.to_owned())).collect()
}

/// A point-in-time view of a set of metric families, ready for
/// [`render_text`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Families, sorted by name.
    pub families: Vec<Family>,
}

impl Snapshot {
    /// Fold another snapshot in: same-name families are merged
    /// (concatenating samples), the result re-sorted by name.
    pub fn merge(&mut self, other: Snapshot) {
        for fam in other.families {
            if let Some(mine) = self.families.iter_mut().find(|f| f.name == fam.name) {
                mine.samples.extend(fam.samples);
            } else {
                self.families.push(fam);
            }
        }
        self.sort();
    }

    /// Append one family and re-sort.
    pub fn push(&mut self, family: Family) {
        self.families.push(family);
        self.sort();
    }

    /// Look a family up by name.
    #[must_use]
    pub fn family(&self, name: &str) -> Option<&Family> {
        self.families.iter().find(|f| f.name == name)
    }

    fn sort(&mut self) {
        self.families.sort_by(|a, b| a.name.cmp(&b.name));
    }
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    metric: Metric,
}

/// A named collection of metric handles. Registration is idempotent on
/// `(name, labels)`: re-registering returns the existing handle, so
/// `OnceLock`-style lazy registration and plain repeated calls both work.
///
/// The registry's internal lock is held only during registration and
/// snapshotting — never on the record path, which is pure atomics on the
/// returned handles.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// An empty registry (the engine-local counterpart to [`global()`]).
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Register (or look up) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Register (or look up) a counter with constant labels.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let mut entries = lock(&self.entries);
        if let Some(e) = find(&entries, name, labels) {
            if let Metric::Counter(c) = &e.metric {
                return c.clone();
            }
        }
        let c = Counter::new();
        entries.push(entry(name, help, labels, Metric::Counter(c.clone())));
        c
    }

    /// Register (or look up) an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Register (or look up) a gauge with constant labels.
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut entries = lock(&self.entries);
        if let Some(e) = find(&entries, name, labels) {
            if let Metric::Gauge(g) = &e.metric {
                return g.clone();
            }
        }
        let g = Gauge::new();
        entries.push(entry(name, help, labels, Metric::Gauge(g.clone())));
        g
    }

    /// Register (or look up) an unlabeled histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.histogram_with(name, help, &[])
    }

    /// Register (or look up) a histogram with constant labels.
    pub fn histogram_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut entries = lock(&self.entries);
        if let Some(e) = find(&entries, name, labels) {
            if let Metric::Histogram(h) = &e.metric {
                return h.clone();
            }
        }
        let h = Histogram::new();
        entries.push(entry(name, help, labels, Metric::Histogram(h.clone())));
        h
    }

    /// Snapshot every registered metric into families (sorted by name;
    /// samples in registration order).
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let entries = lock(&self.entries);
        let mut snap = Snapshot::default();
        for e in entries.iter() {
            let kind = match e.metric {
                Metric::Counter(_) => MetricKind::Counter,
                Metric::Gauge(_) => MetricKind::Gauge,
                Metric::Histogram(_) => MetricKind::Histogram,
            };
            let fam = match snap.families.iter_mut().find(|f| f.name == e.name) {
                Some(f) => f,
                None => {
                    snap.families.push(Family::new(&e.name, &e.help, kind));
                    snap.families.last_mut().expect("just pushed")
                }
            };
            let labels: Vec<(&str, &str)> =
                e.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            match &e.metric {
                Metric::Counter(c) => fam.push_value(&labels, c.get() as f64),
                Metric::Gauge(g) => fam.push_value(&labels, g.get() as f64),
                Metric::Histogram(h) => fam.push_histogram(&labels, h.snapshot()),
            }
        }
        snap.sort();
        snap
    }
}

fn lock(m: &Mutex<Vec<Entry>>) -> std::sync::MutexGuard<'_, Vec<Entry>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn find<'a>(entries: &'a [Entry], name: &str, labels: &[(&str, &str)]) -> Option<&'a Entry> {
    entries.iter().find(|e| {
        e.name == name
            && e.labels.len() == labels.len()
            && e.labels.iter().zip(labels).all(|((k, v), (lk, lv))| k == lk && v == lv)
    })
}

fn entry(name: &str, help: &str, labels: &[(&str, &str)], metric: Metric) -> Entry {
    Entry { name: name.to_owned(), help: help.to_owned(), labels: own_labels(labels), metric }
}

/// The process-wide registry: home of signals that are inherently
/// process-scoped, like the `kernel::par` morsel counters and the
/// receptors' reject counts. Engine-scoped series (per-query, per-worker)
/// are assembled by `Engine::telemetry_snapshot` instead, so label values
/// like `query="q0"` never collide across engines in one process.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_set_max_is_a_high_water_mark() {
        let g = Gauge::new();
        g.set_max(5);
        g.set_max(3); // lower: no effect
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn parse_enabled_cases() {
        assert!(parse_enabled(None));
        assert!(parse_enabled(Some("1")));
        assert!(parse_enabled(Some("on")));
        assert!(!parse_enabled(Some("0")));
        assert!(!parse_enabled(Some("off")));
        assert!(!parse_enabled(Some("FALSE")));
        assert!(!parse_enabled(Some(" 0 ")));
    }

    #[test]
    fn counter_and_gauge_handles_share_state() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        let g2 = g.clone();
        g.add(10);
        g2.dec();
        assert_eq!(g.get(), 9);
        g.set(-3);
        assert_eq!(g2.get(), -3);
    }

    #[test]
    fn bucket_boundaries_are_inclusive_powers_of_two() {
        // Bucket 0 covers (0, 1024ns]; 1024 + 1 spills into bucket 1.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(1024), 0);
        assert_eq!(bucket_index(1025), 1);
        assert_eq!(bucket_index(2048), 1);
        assert_eq!(bucket_index(2049), 2);
        // Everything past the last finite bound lands in +Inf.
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_ns(0), Some(1024));
        assert_eq!(bucket_upper_ns(HISTOGRAM_BUCKETS - 2), Some(1u64 << 38));
        assert_eq!(bucket_upper_ns(HISTOGRAM_BUCKETS - 1), None);
    }

    #[test]
    fn quantiles_at_a_known_distribution() {
        let h = Histogram::new();
        // 90 fast observations at ~1µs, 10 slow at ~1ms.
        for _ in 0..90 {
            h.record(Duration::from_nanos(1000));
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(1000));
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), Duration::from_nanos(90 * 1000 + 10 * 1_000_000));
        // p50 and p90 sit in the first bucket (≤1024ns); p95/p99 in the
        // bucket holding 1ms (2^20ns = 1048576ns).
        assert_eq!(h.quantile(0.5), Duration::from_nanos(1024));
        assert_eq!(h.quantile(0.90), Duration::from_nanos(1024));
        assert_eq!(h.quantile(0.95), Duration::from_nanos(1 << 20));
        assert_eq!(h.quantile(0.99), Duration::from_nanos(1 << 20));
        assert_eq!(h.quantile(1.0), Duration::from_nanos(1 << 20));
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn concurrent_recording_from_eight_threads_sums_exactly() {
        let h = Histogram::new();
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(Duration::from_nanos(100 + i % 7));
                    }
                });
            }
        });
        assert_eq!(h.count(), 8 * PER_THREAD);
        let expect_ns: u64 = 8 * (0..PER_THREAD).map(|i| 100 + i % 7).sum::<u64>();
        assert_eq!(h.sum(), Duration::from_nanos(expect_ns));
        let snap = h.snapshot();
        assert_eq!(snap.buckets.last().map(|&(_, c)| c), Some(8 * PER_THREAD));
    }

    #[test]
    fn snapshot_racing_a_recorder_keeps_inf_bucket_equal_to_count() {
        // The strict exposition parser rejects `+Inf bucket != _count`;
        // a scrape must never render that, however it interleaves with
        // `record`'s three separate cell updates.
        let h = Histogram::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        let torn = std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                while !stop.load(Ordering::Relaxed) {
                    h.record(Duration::from_nanos(100));
                }
            });
            start.wait();
            // On a busy two-core host the recorder may not be scheduled
            // before 20 000 snapshots are over; race it, not an idle cell.
            while h.count() == 0 {
                std::thread::yield_now();
            }
            let torn = (0..20_000)
                .map(|_| h.snapshot())
                .filter(|snap| snap.buckets.last().map(|&(_, c)| c) != Some(snap.count))
                .count();
            stop.store(true, Ordering::Relaxed); // before any assert: the recorder must end
            torn
        });
        assert_eq!(torn, 0, "snapshots whose +Inf bucket differs from count");
        assert!(h.count() > 0);
    }

    #[test]
    fn registry_is_idempotent_per_name_and_labels() {
        let r = Registry::new();
        let a = r.counter("hits_total", "Hits.");
        let b = r.counter("hits_total", "Hits.");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let s1 = r.histogram_with("lat_seconds", "Latency.", &[("path", "seq")]);
        let s2 = r.histogram_with("lat_seconds", "Latency.", &[("path", "par")]);
        s1.record(Duration::from_micros(5));
        assert_eq!(s1.count(), 1);
        assert_eq!(s2.count(), 0);

        let snap = r.snapshot();
        assert_eq!(snap.families.len(), 2);
        let lat = snap.family("lat_seconds").expect("family present");
        assert_eq!(lat.kind, MetricKind::Histogram);
        assert_eq!(lat.samples.len(), 2);
        let hits = snap.family("hits_total").expect("family present");
        assert_eq!(hits.samples.len(), 1);
        assert_eq!(hits.samples[0].value, SampleValue::Value(2.0));
    }

    #[test]
    fn snapshot_merge_concatenates_same_name_families() {
        let r = Registry::new();
        r.counter("a_total", "A.");
        let mut snap = r.snapshot();
        let mut extra = Family::new("a_total", "A.", MetricKind::Counter);
        extra.push_value(&[("side", "engine")], 7.0);
        let mut other = Snapshot::default();
        other.push(extra);
        other.push(Family::new("b_total", "B.", MetricKind::Counter));
        snap.merge(other);
        assert_eq!(snap.families.len(), 2);
        assert_eq!(snap.family("a_total").map(|f| f.samples.len()), Some(2));
    }
}
