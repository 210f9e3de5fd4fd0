//! `kernel::par` — partitioned parallel kernel operators.
//!
//! The DataCell architecture pushes stream processing into the column
//! store, so per-window cost is dominated by kernel operators; the
//! parallel Petri-net scheduler (PR 2) only fires *independent* factories
//! concurrently, leaving a single heavy standing query on one core. This
//! module restores intra-operator parallelism with the classic
//! morsel/partition recipe:
//!
//! * inputs are carved into disjoint pieces — hash **partitions** for the
//!   radix join ([`hashjoin`]), contiguous balanced **morsels** for
//!   [`select`], [`fetch`] and [`grouped_agg`]; [`sort`]/[`sort_perm`]
//!   sort one run on the caller's thread at every `P`, because a serial
//!   k-way merge of parallel runs cost more than it saved;
//! * one private runner executes a closure per piece: a single piece runs
//!   inline on the caller's thread, several run on scoped worker threads
//!   (one per piece; no pool, no unsafe, no external deps — partition
//!   count should track physical cores). The per-piece closure is the
//!   sequential [`crate::algebra`] loop, so each operator has one body;
//! * partial results are merged with the same machinery incremental plans
//!   already rely on: concatenation in piece order, plus the compensating
//!   re-group for grouped aggregates (paper §3, Fig. 3d).
//!
//! **Determinism contract:** every operator here produces a canonical,
//! input-determined output. `P = 1` (and any input shorter than `P`) *is
//! one morsel on the caller's thread*: the same body runs the sequential
//! `algebra` loop over the whole input, with no spawn, no scatter and no
//! merge copy, so results are byte-identical to `algebra::*` (mirroring
//! the scheduler's "1 worker ≡ sequential" rule); `P > 1` orders join
//! pairs by (partition, probe position) — the same pair *set* as the
//! sequential join in a documented canonical order — while `select`,
//! `fetch`, `sort`/`sort_perm` and
//! `grouped_agg` outputs are byte-identical to sequential at every `P`
//! (morsels are ascending, the sort is the sequential one, and
//! re-grouping preserves first-occurrence key order), with one carve-out:
//! under round-robin placement, float `sum` partials reassociate
//! non-associative additions, so they are deterministic per `P` but not
//! `P`-invariant (see [`mod@aggregate`]'s module docs). Under
//! [`PlacementMode::Aligned`] morsels are carved by the canonical
//! [`crate::hash::Placement`] key-hash instead: partials own disjoint
//! keys, the merge is pure concatenation, and even float sums are
//! byte-identical to sequential at every `P`. When the caller
//! additionally vouches that its batch is already scatter-ordered by
//! that key-hash ([`ParConfig::with_aligned_input`]), the aligned
//! aggregate and join elide per-row scatter materialization in favor of
//! run-compressed partition copies — `stats` counts these as
//! `scatter_elided`.

mod aggregate;
mod fetch;
mod join;
mod select;
mod sort;

pub use aggregate::{
    grouped_agg, grouped_agg_multi, grouped_agg_partials, merge_partials, regroup_partials,
    AggSpec, GroupAggPartial,
};
pub use fetch::fetch;
pub use join::hashjoin;
pub use select::select;
pub use sort::{reverse_bat, sort, sort_perm};

/// Carve `[0, len)` into `p` contiguous `(offset, size)` morsels, balanced
/// so the first `len % p` carry one extra row: boundaries depend only on
/// `(len, p)`. `p ≤ 1` and inputs shorter than `p` are one morsel (fan-out
/// below one row per thread is pure overhead).
fn carve(len: usize, p: usize) -> impl ExactSizeIterator<Item = (usize, usize)> {
    let p = if len < p { 1 } else { p.max(1) };
    let (base, extra) = (len / p, len % p);
    (0..p).map(move |i| (i * base + i.min(extra), base + usize::from(i < extra)))
}

/// The morsel runner: apply `body` to every piece and return the results
/// in piece order, or the first error in that order. One piece runs
/// inline on the caller's thread; several run on one scoped thread each
/// and are joined before returning.
fn run<I: Send, T: Send>(
    pieces: impl ExactSizeIterator<Item = I>,
    body: impl Fn(I) -> crate::Result<T> + Sync,
) -> crate::Result<Vec<T>> {
    if pieces.len() <= 1 {
        return pieces.map(body).collect();
    }
    let body = &body;
    std::thread::scope(|s| {
        let handles: Vec<_> = pieces.map(|piece| s.spawn(move || body(piece))).collect();
        handles.into_iter().map(|h| h.join().expect("morsel panicked")).collect()
    })
}

/// Concatenate per-piece outputs in piece order; a single piece's output
/// is returned as is, not copied.
fn concat<T>(mut partials: Vec<Vec<T>>) -> Vec<T> {
    if partials.len() == 1 {
        return partials.pop().expect("one partial");
    }
    let mut out = Vec::with_capacity(partials.iter().map(Vec::len).sum());
    for partial in partials {
        out.extend(partial);
    }
    out
}

/// Lightweight observability for the parallel kernel entry points:
/// process-wide monotone counters plus call-granularity latency
/// histograms, all registered (with help text) in the
/// [`datacell_telemetry::global`] registry so they surface in
/// `Engine::telemetry_snapshot` and the Prometheus text exposition.
///
/// The counter accessors are thin shims over the registry handles — cheap
/// enough to bump on every call, precise enough for tests and bench
/// harnesses to prove a query actually reached the partitioned code paths.
/// Counters only ever increase; compare [`snapshot`] deltas rather than
/// absolute values — other threads may be aggregating concurrently.
pub mod stats {
    use datacell_telemetry::{global, Counter, Histogram};
    use std::sync::OnceLock;
    use std::time::Instant;

    struct Metrics {
        grouped_agg_calls: Counter,
        grouped_agg_par_calls: Counter,
        merge_concat: Counter,
        merge_regroup: Counter,
        fetch_calls: Counter,
        fetch_par_calls: Counter,
        sort_calls: Counter,
        scatter_elided: Counter,
        join_calls: Counter,
        join_probe_rows: Counter,
        join_pairs: Counter,
        join_seconds: Histogram,
        agg_seconds_seq: Histogram,
        agg_seconds_par: Histogram,
        fetch_seconds_seq: Histogram,
        fetch_seconds_par: Histogram,
        sort_seconds: Histogram,
    }

    fn metrics() -> &'static Metrics {
        static METRICS: OnceLock<Metrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = global();
            Metrics {
                grouped_agg_calls: r.counter(
                    "datacell_kernel_grouped_agg_calls_total",
                    "Grouped-aggregate kernel calls (any partition count).",
                ),
                grouped_agg_par_calls: r.counter(
                    "datacell_kernel_grouped_agg_par_calls_total",
                    "Grouped-aggregate kernel calls that fanned morsels out over P > 1 threads.",
                ),
                merge_concat: r.counter(
                    "datacell_kernel_merge_concat_total",
                    "Partial-merges that took the placement-aligned concat fast path.",
                ),
                merge_regroup: r.counter(
                    "datacell_kernel_merge_regroup_total",
                    "Partial-merges that fell back to concat + re-group + compensation.",
                ),
                fetch_calls: r.counter(
                    "datacell_kernel_fetch_calls_total",
                    "Fetch (tuple-reconstruction) kernel calls (any partition count).",
                ),
                fetch_par_calls: r.counter(
                    "datacell_kernel_fetch_par_calls_total",
                    "Fetch kernel calls that fanned morsels out over P > 1 threads.",
                ),
                sort_calls: r
                    .counter("datacell_kernel_sort_calls_total", "Sort/sort-perm kernel calls."),
                scatter_elided: r.counter(
                    "datacell_kernel_scatter_elided_total",
                    "Aligned-input kernel calls that skipped per-row scatter in favor of \
                     run-compressed partition copies.",
                ),
                join_calls: r.counter(
                    "datacell_kernel_join_calls_total",
                    "Hash-join kernel calls: one-shot joins and join-index strip probes.",
                ),
                join_probe_rows: r.counter(
                    "datacell_kernel_join_probe_rows_total",
                    "Rows that probed a join hash table.",
                ),
                join_pairs: r.counter(
                    "datacell_kernel_join_pairs_total",
                    "Matching pairs emitted by hash joins.",
                ),
                join_seconds: r.histogram(
                    "datacell_kernel_join_seconds",
                    "Wall time of one hash-join kernel call (build, probe and partition \
                     fan-out of a one-shot join; one strip probe of a join index).",
                ),
                agg_seconds_seq: r.histogram_with(
                    "datacell_kernel_grouped_agg_seconds",
                    "Wall time of one grouped-aggregate kernel call, morsel fan-out included.",
                    &[("path", "seq")],
                ),
                agg_seconds_par: r.histogram_with(
                    "datacell_kernel_grouped_agg_seconds",
                    "Wall time of one grouped-aggregate kernel call, morsel fan-out included.",
                    &[("path", "par")],
                ),
                fetch_seconds_seq: r.histogram_with(
                    "datacell_kernel_fetch_seconds",
                    "Wall time of one fetch kernel call, morsel fan-out included.",
                    &[("path", "seq")],
                ),
                fetch_seconds_par: r.histogram_with(
                    "datacell_kernel_fetch_seconds",
                    "Wall time of one fetch kernel call, morsel fan-out included.",
                    &[("path", "par")],
                ),
                sort_seconds: r.histogram(
                    "datacell_kernel_sort_seconds",
                    "Wall time of computing one sort permutation (sort or sort-perm call).",
                ),
            }
        })
    }

    /// Record one grouped-aggregate kernel call; `parallel` marks calls
    /// that actually fanned morsels out over `P > 1` scoped threads
    /// (rather than dispatching to the sequential single-partial path).
    pub(crate) fn record_grouped_agg(parallel: bool) {
        let m = metrics();
        m.grouped_agg_calls.inc();
        if parallel {
            m.grouped_agg_par_calls.inc();
        }
    }

    /// Record the wall time of one grouped-aggregate kernel call into the
    /// per-path morsel-timing histogram. `start` comes from
    /// [`datacell_telemetry::timer`]; under the `DATACELL_TELEMETRY=0`
    /// kill switch it is `None` and this is a no-op.
    pub(crate) fn record_grouped_agg_time(parallel: bool, start: Option<Instant>) {
        let m = metrics();
        if parallel {
            m.agg_seconds_par.record_since(start);
        } else {
            m.agg_seconds_seq.record_since(start);
        }
    }

    /// Record one partial-merge; `concat` marks merges whose inputs were
    /// placement-aligned (disjoint key sets per partial), so the merge
    /// was a pure concatenation with no re-group or compensation pass.
    pub(crate) fn record_merge(concat: bool) {
        let m = metrics();
        if concat {
            m.merge_concat.inc();
        } else {
            m.merge_regroup.inc();
        }
    }

    /// Record one fetch kernel call; `parallel` marks calls that fanned
    /// candidate-list morsels out over `P > 1` scoped threads.
    pub(crate) fn record_fetch(parallel: bool) {
        let m = metrics();
        m.fetch_calls.inc();
        if parallel {
            m.fetch_par_calls.inc();
        }
    }

    /// Record the wall time of one fetch kernel call into the per-path
    /// histogram (see [`record_grouped_agg_time`] for the `start` contract).
    pub(crate) fn record_fetch_time(parallel: bool, start: Option<Instant>) {
        let m = metrics();
        if parallel {
            m.fetch_seconds_par.record_since(start);
        } else {
            m.fetch_seconds_seq.record_since(start);
        }
    }

    /// Record one sort/sort-perm kernel call.
    pub(crate) fn record_sort() {
        metrics().sort_calls.inc();
    }

    /// Record the wall time of one sort/sort-perm kernel call (see
    /// [`record_grouped_agg_time`] for the `start` contract).
    pub(crate) fn record_sort_time(start: Option<Instant>) {
        metrics().sort_seconds.record_since(start);
    }

    /// Record one aligned-input kernel call that skipped its per-row
    /// scatter phase in favor of run-compressed partition copies.
    pub(crate) fn record_scatter_elided() {
        metrics().scatter_elided.inc();
    }

    /// Record one hash-join kernel call — a one-shot `par::hashjoin` or one
    /// strip probe of a `JoinIndex` — with the rows that probed, the pairs
    /// that came out and its wall time (see [`record_grouped_agg_time`]
    /// for the `start` contract).
    pub(crate) fn record_join(probe_rows: usize, pairs: usize, start: Option<Instant>) {
        let m = metrics();
        m.join_calls.inc();
        m.join_probe_rows.add(probe_rows as u64);
        m.join_pairs.add(pairs as u64);
        m.join_seconds.record_since(start);
    }

    /// Total grouped-aggregate kernel calls (any `P`).
    pub fn grouped_agg_calls() -> u64 {
        metrics().grouped_agg_calls.get()
    }

    /// Grouped-aggregate kernel calls that fanned out over `P > 1`
    /// morsel threads.
    pub fn grouped_agg_par_calls() -> u64 {
        metrics().grouped_agg_par_calls.get()
    }

    /// Partial-merges that took the aligned concat fast path.
    pub fn merge_concat_fast_path() -> u64 {
        metrics().merge_concat.get()
    }

    /// Partial-merges that fell back to the concat + re-group +
    /// compensation path.
    pub fn merge_regroup_fallback() -> u64 {
        metrics().merge_regroup.get()
    }

    /// Total fetch kernel calls (any `P`).
    pub fn fetch_calls() -> u64 {
        metrics().fetch_calls.get()
    }

    /// Fetch kernel calls that fanned out over `P > 1` morsel threads.
    pub fn fetch_par_calls() -> u64 {
        metrics().fetch_par_calls.get()
    }

    /// Total sort/sort-perm kernel calls.
    pub fn sort_calls() -> u64 {
        metrics().sort_calls.get()
    }

    /// Aligned-input kernel calls that elided their scatter phase.
    pub fn scatter_elided() -> u64 {
        metrics().scatter_elided.get()
    }

    /// All eleven kernel counters read at one instant. The idiom for proving
    /// a code path was reached is `let before = stats::snapshot(); ...;
    /// let d = stats::snapshot().delta(&before);` followed by asserts on
    /// the fields of `d` — replacing hand-rolled read-before/read-after
    /// pairs per counter.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct StatsSnapshot {
        /// Total grouped-aggregate kernel calls.
        pub grouped_agg_calls: u64,
        /// Grouped-aggregate calls that fanned out over `P > 1` threads.
        pub grouped_agg_par_calls: u64,
        /// Partial-merges on the aligned concat fast path.
        pub merge_concat_fast_path: u64,
        /// Partial-merges on the re-group fallback path.
        pub merge_regroup_fallback: u64,
        /// Total fetch kernel calls.
        pub fetch_calls: u64,
        /// Fetch calls that fanned out over `P > 1` threads.
        pub fetch_par_calls: u64,
        /// Total sort/sort-perm kernel calls.
        pub sort_calls: u64,
        /// Aligned-input calls that elided their scatter phase.
        pub scatter_elided: u64,
        /// Hash-join kernel calls (one-shot joins and strip probes).
        pub join_calls: u64,
        /// Rows that probed a join hash table.
        pub join_probe_rows: u64,
        /// Matching pairs emitted by hash joins.
        pub join_pairs: u64,
    }

    impl StatsSnapshot {
        /// Field-wise `self - earlier` (saturating): the counter movement
        /// between two snapshots.
        #[must_use]
        pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
            StatsSnapshot {
                grouped_agg_calls: self.grouped_agg_calls.saturating_sub(earlier.grouped_agg_calls),
                grouped_agg_par_calls: self
                    .grouped_agg_par_calls
                    .saturating_sub(earlier.grouped_agg_par_calls),
                merge_concat_fast_path: self
                    .merge_concat_fast_path
                    .saturating_sub(earlier.merge_concat_fast_path),
                merge_regroup_fallback: self
                    .merge_regroup_fallback
                    .saturating_sub(earlier.merge_regroup_fallback),
                fetch_calls: self.fetch_calls.saturating_sub(earlier.fetch_calls),
                fetch_par_calls: self.fetch_par_calls.saturating_sub(earlier.fetch_par_calls),
                sort_calls: self.sort_calls.saturating_sub(earlier.sort_calls),
                scatter_elided: self.scatter_elided.saturating_sub(earlier.scatter_elided),
                join_calls: self.join_calls.saturating_sub(earlier.join_calls),
                join_probe_rows: self.join_probe_rows.saturating_sub(earlier.join_probe_rows),
                join_pairs: self.join_pairs.saturating_sub(earlier.join_pairs),
            }
        }
    }

    /// Read all counters at one instant.
    #[must_use]
    pub fn snapshot() -> StatsSnapshot {
        let m = metrics();
        StatsSnapshot {
            grouped_agg_calls: m.grouped_agg_calls.get(),
            grouped_agg_par_calls: m.grouped_agg_par_calls.get(),
            merge_concat_fast_path: m.merge_concat.get(),
            merge_regroup_fallback: m.merge_regroup.get(),
            fetch_calls: m.fetch_calls.get(),
            fetch_par_calls: m.fetch_par_calls.get(),
            sort_calls: m.sort_calls.get(),
            scatter_elided: m.scatter_elided.get(),
            join_calls: m.join_calls.get(),
            join_probe_rows: m.join_probe_rows.get(),
            join_pairs: m.join_pairs.get(),
        }
    }
}

/// Configuration of the partitioned parallel runtime.
///
/// `partitions` is the fan-out `P`: how many disjoint pieces an operator
/// splits its input into, and (for `P > 1`) how many scoped worker threads
/// process them. `P = 1` is one morsel on the caller's thread. Plumbed
/// end to end: `EngineConfig::partitions` (`DATACELL_PARTITIONS`) is
/// handed to every factory the engine builds, whose execution contexts
/// pass it to `plan::exec`, which calls these entry points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    partitions: usize,
    placement: PlacementMode,
    aligned_input: bool,
}

/// How grouped-aggregation morsels are carved from the input.
///
/// `RoundRobin` is the historic contiguous-chunk split: morsel `i` is
/// rows `[i·⌈n/P⌉, (i+1)·⌈n/P⌉)`, so partials share keys and the merge
/// re-groups. `Aligned` scatters rows by the canonical
/// [`crate::hash::Placement`] key-hash instead: each partial owns a
/// disjoint key set and the merge is a pure concatenation — and because
/// every per-key fold still happens in input order inside one partition,
/// even float sums are byte-identical to the sequential result at every
/// `P` (the round-robin float-sum carve-out does not apply).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementMode {
    /// Contiguous round-robin morsels; merge re-groups (historic path).
    #[default]
    RoundRobin,
    /// Key-hash-aligned morsels; merge is concatenation.
    Aligned,
}

impl ParConfig {
    /// A config with `partitions` fan-out (clamped to at least 1) and
    /// round-robin placement.
    pub fn new(partitions: usize) -> ParConfig {
        ParConfig {
            partitions: partitions.max(1),
            placement: PlacementMode::RoundRobin,
            aligned_input: false,
        }
    }

    /// The same config with `placement` selected.
    pub fn with_placement(self, placement: PlacementMode) -> ParConfig {
        ParConfig { placement, ..self }
    }

    /// The same config with the aligned-input mark set: the caller vouches
    /// that this batch is already scatter-ordered by the canonical
    /// [`crate::hash::Placement`] (the engine never sets it; the `scale`
    /// sweeps and the kernel's own tests do). The mark is a *hint*, never trusted for correctness: elision
    /// paths still hash every key and only skip materializing per-row
    /// position lists (run-compressed copies replace per-element gathers),
    /// so a mismarked input degrades to per-row runs, not wrong answers.
    pub fn with_aligned_input(self, aligned_input: bool) -> ParConfig {
        ParConfig { aligned_input, ..self }
    }

    /// The sequential configuration (`P = 1`).
    pub fn sequential() -> ParConfig {
        ParConfig::new(1)
    }

    /// The partition fan-out `P` (≥ 1).
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// The morsel placement mode.
    pub fn placement(&self) -> PlacementMode {
        self.placement
    }

    /// True when operators should split work (`P > 1`).
    pub fn is_parallel(&self) -> bool {
        self.partitions > 1
    }

    /// True when parallel operators should carve key-hash-aligned morsels.
    pub fn is_aligned(&self) -> bool {
        self.placement == PlacementMode::Aligned
    }

    /// True when the caller marked this batch as already scatter-ordered
    /// (see [`ParConfig::with_aligned_input`]).
    pub fn aligned_input(&self) -> bool {
        self.aligned_input
    }

    /// True when aligned operators may take their scatter-elision fast
    /// path: placement is [`PlacementMode::Aligned`] *and* the caller
    /// vouched for its input's scatter order.
    pub fn input_is_aligned(&self) -> bool {
        self.aligned_input && self.placement == PlacementMode::Aligned
    }
}

impl Default for ParConfig {
    fn default() -> ParConfig {
        ParConfig::sequential()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_and_reports() {
        assert_eq!(ParConfig::new(0).partitions(), 1);
        assert!(!ParConfig::new(0).is_parallel());
        assert_eq!(ParConfig::default(), ParConfig::sequential());
        assert!(ParConfig::new(4).is_parallel());
        assert_eq!(ParConfig::new(4).partitions(), 4);
    }

    #[test]
    fn carve_is_balanced_contiguous_and_one_piece_below_p() {
        assert_eq!(carve(10, 3).collect::<Vec<_>>(), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(carve(8, 4).collect::<Vec<_>>(), vec![(0, 2), (2, 2), (4, 2), (6, 2)]);
        for (len, p) in [(10, 1), (10, 0), (3, 4), (0, 4), (0, 1)] {
            assert_eq!(carve(len, p).collect::<Vec<_>>(), vec![(0, len)], "len={len} p={p}");
        }
    }

    #[test]
    fn one_piece_runs_on_the_calling_thread_and_several_do_not() {
        let me = std::thread::current().id();
        let ids = run(carve(10, 1), |_| Ok(std::thread::current().id())).unwrap();
        assert_eq!(ids, vec![me]);
        let ids = run(carve(10, 3), |(off, _)| Ok((off, std::thread::current().id()))).unwrap();
        assert_eq!(ids.iter().map(|&(off, _)| off).collect::<Vec<_>>(), vec![0, 4, 7]);
        assert!(ids.iter().all(|&(_, id)| id != me), "pieces in order, each on a worker");
        assert!(run(std::iter::empty::<usize>(), Ok).unwrap().is_empty());
    }

    #[test]
    fn the_first_error_in_piece_order_wins() {
        let unsupported = |off: usize| crate::KernelError::Unsupported(format!("piece {off}"));
        let out =
            run(carve(9, 3), |(off, _)| if off == 0 { Ok(off) } else { Err(unsupported(off)) });
        assert_eq!(out, Err(unsupported(3)));
    }

    #[test]
    fn placement_defaults_to_round_robin_and_is_selectable() {
        assert_eq!(ParConfig::new(4).placement(), PlacementMode::RoundRobin);
        assert!(!ParConfig::new(4).is_aligned());
        let aligned = ParConfig::new(4).with_placement(PlacementMode::Aligned);
        assert!(aligned.is_aligned());
        assert_eq!(aligned.partitions(), 4);
    }

    #[test]
    fn aligned_input_mark_requires_aligned_placement() {
        let marked = ParConfig::new(4).with_aligned_input(true);
        assert!(marked.aligned_input());
        assert!(!marked.input_is_aligned(), "round-robin placement never elides");
        assert!(marked.with_placement(PlacementMode::Aligned).input_is_aligned());
        let unmarked = ParConfig::new(4).with_placement(PlacementMode::Aligned);
        assert!(!unmarked.input_is_aligned(), "alignment alone is not a vouched input");
        // The mark survives a placement change but not a from-scratch rebuild.
        assert!(!ParConfig::new(4).input_is_aligned());
    }
}
