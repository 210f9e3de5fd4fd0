//! The DataCell engine facade.
//!
//! Ties the whole architecture of Fig. 1 together: streams enter baskets
//! via [`Engine::append`] (or receptors feeding the shared baskets
//! directly), continuous queries register as factories with the Petri-net
//! scheduler, the scheduler fires them as windows fill, and window results
//! accumulate per query until drained — the output basket `datacell-net`
//! emits to subscribers from.

use crate::adaptive::AdaptiveChunker;
use crate::config::EngineConfig;
use crate::error::DataCellError;
use crate::factory::incremental::IncrementalFactory;
use crate::factory::reeval::ReevalFactory;
use crate::factory::{Factory, StreamInput};
use crate::metrics::SlideMetrics;
use crate::rewrite::{rewrite, IncrementalPlan};
use crate::scheduler::Scheduler;
use datacell_basket::{Basket, ShardedBasket, Timestamp};
use datacell_kernel::{Catalog, Column, DataType, ParConfig, PlacementMode, Table};
use datacell_plan::{
    compile, optimize, verify_all, LogicalPlan, MalOp, MalPlan, PlanError, ResultSet,
    SchemaOverlay, WindowSpec,
};
use datacell_telemetry::{Counter, Family, Histogram, MetricKind, Snapshot};
use std::collections::HashMap;
use std::time::Duration;

/// Identifier of a registered continuous query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(pub usize);

/// Which execution strategy a continuous query uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Incremental plan rewriting (DataCell proper).
    Incremental,
    /// Full re-evaluation per slide (the DataCellR baseline).
    Reevaluation,
}

/// Options for query registration.
#[derive(Debug, Clone)]
pub struct RegisterOptions {
    /// Execution strategy.
    pub mode: ExecMode,
    /// Enable the m-chunk optimization with this controller
    /// (incremental single-stream count-sliding queries only).
    pub chunker: Option<AdaptiveChunker>,
}

impl Default for RegisterOptions {
    fn default() -> Self {
        RegisterOptions { mode: ExecMode::Incremental, chunker: None }
    }
}

/// Per-query telemetry series, folded from each slide's [`SlideMetrics`]
/// at the engine's emission-collection point ([`Engine::run_until_idle`]).
/// Engine-owned (not globally registered), so `query` labels never
/// collide across engines in one process; lives exactly as long as the
/// query's registration.
struct QuerySeries {
    /// The factory label (`q0`, `q1`, …) — the `query` label value.
    label: String,
    slides: Counter,
    rows: Counter,
    /// Nanosecond totals of the paper's Fig. 7 cost decomposition.
    total_ns: Counter,
    main_plan_ns: Counter,
    merge_ns: Counter,
    /// Distribution of per-slide total latency.
    latency: Histogram,
}

impl QuerySeries {
    fn new(label: String) -> QuerySeries {
        QuerySeries {
            label,
            slides: Counter::new(),
            rows: Counter::new(),
            total_ns: Counter::new(),
            main_plan_ns: Counter::new(),
            merge_ns: Counter::new(),
            latency: Histogram::new(),
        }
    }

    /// Fold one slide in. The timings come from the factory's own
    /// (always-on) [`SlideMetrics`] clock, so per-query series stay
    /// populated even under the `DATACELL_TELEMETRY` kill switch.
    fn observe(&self, m: &SlideMetrics) {
        self.slides.inc();
        self.rows.add(m.rows as u64);
        self.total_ns.add(duration_ns(m.total));
        self.main_plan_ns.add(duration_ns(m.main_plan));
        self.merge_ns.add(duration_ns(m.merge));
        self.latency.record(m.total);
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

const NS_PER_SEC: f64 = 1e9;

/// The engine: baskets + catalog + scheduler + per-query outputs.
pub struct Engine {
    baskets: HashMap<String, ShardedBasket>,
    catalog: Catalog,
    scheduler: Scheduler,
    /// Undrained window results per query, each paired with the slide
    /// record it arrived with. Nothing per-slide outlives the drain.
    outputs: HashMap<usize, Vec<(ResultSet, SlideMetrics)>>,
    /// Telemetry series per registered query, keyed like `outputs`.
    series: HashMap<usize, QuerySeries>,
    clock: Timestamp,
    /// The `kernel::par` configuration every SQL-registered factory
    /// executes under: the intra-operator partition fan-out plus the
    /// placement mode resolved from it. Orthogonal to the scheduler's
    /// worker count: workers parallelize *across* factories, partitions
    /// parallelize *inside* one factory's kernel operators.
    par: ParConfig,
    /// Staging shards per basket — the third parallelism axis: workers
    /// scale across factories, partitions inside operators, shards across
    /// *receptors* appending to one stream. 1 stages nothing.
    basket_shards: usize,
    /// Run the typed static analyzer (`plan::verify`) over every compiled
    /// plan at registration, with the real stream/table schemas. Defaults
    /// to on under `debug_assertions` or `DATACELL_VERIFY=1`.
    verify: bool,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// A fresh engine configured from the environment
    /// ([`EngineConfig::from_env`]): one worker, one partition and one
    /// basket shard unless a `DATACELL_*` variable says otherwise.
    pub fn new() -> Engine {
        Engine::with_config(EngineConfig::from_env())
    }

    /// A fresh engine with exactly this configuration (counts clamped to
    /// at least 1); the environment is not consulted. The configuration
    /// is fixed for the engine's lifetime.
    ///
    /// The morsel placement mode is resolved here, once: `Aligned` iff
    /// `basket_shards == partitions` — the one configuration where
    /// staging shards and kernel morsels can share the canonical key-hash
    /// map, making grouped-aggregation partial merges pure concatenation
    /// — and `RoundRobin` otherwise. Both modes are byte-identical to the
    /// sequential result.
    pub fn with_config(config: EngineConfig) -> Engine {
        let (partitions, basket_shards) = (config.partitions.max(1), config.basket_shards.max(1));
        let placement = if basket_shards == partitions {
            PlacementMode::Aligned
        } else {
            PlacementMode::RoundRobin
        };
        Engine {
            baskets: HashMap::new(),
            catalog: Catalog::default(),
            scheduler: Scheduler::new(config.workers),
            outputs: HashMap::new(),
            series: HashMap::new(),
            clock: 0,
            par: ParConfig::new(partitions).with_placement(placement),
            basket_shards,
            verify: config.verify,
        }
    }

    /// Is registration-time plan verification enabled?
    pub fn verify(&self) -> bool {
        self.verify
    }

    /// Scheduler worker threads: one fires factories on the thread that
    /// calls [`Engine::run_until_idle`]; more fire independent factories
    /// concurrently on a pool.
    pub fn workers(&self) -> usize {
        self.scheduler.workers()
    }

    /// The kernel partition fan-out: `kernel::par` splits heavy operators
    /// of every SQL-registered query across this many scoped threads per
    /// call. Join *pair order* at partitions > 1 follows `kernel::par`'s
    /// canonical (partition, probe) order rather than the sequential
    /// probe order; aggregate and select results are byte-identical.
    pub fn partitions(&self) -> usize {
        self.par.partitions()
    }

    /// Staging shards per basket: how many receptors can append to one
    /// stream without contending on its mutex.
    pub fn basket_shards(&self) -> usize {
        self.basket_shards
    }

    /// The morsel placement mode resolved at construction (see
    /// [`Engine::with_config`]).
    pub fn placement(&self) -> PlacementMode {
        self.par.placement()
    }

    // -- streams and tables ------------------------------------------------

    /// Register an input stream with its schema.
    pub fn create_stream(
        &mut self,
        name: &str,
        schema: &[(&str, DataType)],
    ) -> Result<(), DataCellError> {
        if self.baskets.contains_key(name) {
            return Err(DataCellError::AlreadyExists(name.to_owned()));
        }
        self.baskets.insert(
            name.to_owned(),
            ShardedBasket::new(Basket::new(name, schema), self.basket_shards),
        );
        Ok(())
    }

    /// Register a persistent table.
    pub fn create_table(&mut self, table: Table) -> Result<(), DataCellError> {
        self.catalog.create_table(table)?;
        Ok(())
    }

    /// The persistent catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (loading data into tables).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The shared handle of a stream (receptors feed through this). At
    /// `basket_shards > 1` appends stage into per-receptor shards and the
    /// scheduler seals them into the ordered view on every drain; at 1
    /// shard appends write that view directly. [`ShardedBasket::with`]
    /// locks the view for reading — never append inside it when
    /// shards > 1.
    pub fn basket(&self, stream: &str) -> Result<ShardedBasket, DataCellError> {
        self.baskets
            .get(stream)
            .cloned()
            .ok_or_else(|| DataCellError::UnknownStream(stream.to_owned()))
    }

    /// Append a batch of columns to a stream, stamped with the current
    /// engine clock.
    ///
    /// **Clock rule** (shared with [`Engine::append_at`]): every append
    /// stamps its tuples with one arrival timestamp and then advances the
    /// engine clock to that stamp if — and only if — the stamp is ahead;
    /// the clock never moves backwards. Here the stamp *is* the current
    /// clock, so this is `append_at(stream, batch, self.clock())`.
    pub fn append(&mut self, stream: &str, batch: &[Column]) -> Result<(), DataCellError> {
        self.append_at(stream, batch, self.clock)
    }

    /// Append with an explicit arrival timestamp.
    ///
    /// **Clock rule** (shared with [`Engine::append`]): the batch is
    /// stamped `at`, and the engine clock advances to `at` when `at` is
    /// ahead of it; a stamp at or behind the clock leaves the clock
    /// untouched (it never regresses). Note the *basket* separately
    /// requires non-decreasing stamps per stream, so back-dated appends
    /// only succeed on streams whose newest tuple is older than `at`.
    pub fn append_at(
        &mut self,
        stream: &str,
        batch: &[Column],
        at: Timestamp,
    ) -> Result<(), DataCellError> {
        let b = self.basket(stream)?;
        b.append(batch, at)?;
        if at > self.clock {
            self.clock = at;
        }
        Ok(())
    }

    /// The engine clock (logical milliseconds).
    pub fn clock(&self) -> Timestamp {
        self.clock
    }

    /// Advance the engine clock (drives time-based windows).
    pub fn advance_clock(&mut self, to: Timestamp) {
        if to > self.clock {
            self.clock = to;
        }
    }

    // -- query registration --------------------------------------------------

    /// Register a continuous query from SQL text (window clause required).
    pub fn register_sql(&mut self, sql: &str) -> Result<QueryId, DataCellError> {
        self.register_sql_with(sql, RegisterOptions::default())
    }

    /// Register a continuous query from SQL with explicit options.
    pub fn register_sql_with(
        &mut self,
        sql: &str,
        opts: RegisterOptions,
    ) -> Result<QueryId, DataCellError> {
        let q = datacell_sql::parse(sql)?;
        let window = q.window.ok_or_else(|| {
            DataCellError::Unsupported(
                "continuous queries need a WINDOW clause (e.g. WINDOW SIZE 100 SLIDE 10)".into(),
            )
        })?;
        self.register_cq(q.plan, window, opts)
    }

    /// Register a continuous query from a logical plan.
    pub fn register_cq(
        &mut self,
        plan: LogicalPlan,
        window: WindowSpec,
        opts: RegisterOptions,
    ) -> Result<QueryId, DataCellError> {
        // The SQL front-end is schema-unaware: FROM sources arrive as
        // stream scans. Rewrite scans of catalog tables into table scans.
        let plan = self.resolve_sources(plan);
        let plan = optimize(plan);
        let mal = compile(&plan)?;
        // The registration-time verification pass: unlike the schema-less
        // checks inside compile/rewrite, this one sees the real stream and
        // table schemas, so column-type mismatches surface here — before
        // the query is wired into the scheduler.
        if self.verify {
            self.verify_plan(&mal)?;
        }
        // Validate stream references and build inputs in plan order.
        let mut inputs = Vec::new();
        for s in &mal.streams {
            let basket = self
                .baskets
                .get(s)
                .cloned()
                .ok_or_else(|| DataCellError::UnknownStream(s.clone()))?;
            inputs.push(StreamInput::new(s.clone(), basket));
        }
        if inputs.is_empty() {
            return Err(DataCellError::Unsupported(
                "continuous queries must read at least one stream".into(),
            ));
        }
        let tables = self.table_snapshot(&mal)?;
        // Labelled by the id registration is about to hand out: ids are
        // never reused, so no two live queries share a label.
        let label = format!("q{}", self.scheduler.next_id());
        let factory: Box<dyn Factory> = match opts.mode {
            ExecMode::Incremental => {
                let inc: IncrementalPlan = rewrite(&mal)?;
                Box::new(IncrementalFactory::new(
                    label,
                    inc,
                    window,
                    inputs,
                    tables,
                    opts.chunker,
                    self.par,
                )?)
            }
            ExecMode::Reevaluation => {
                Box::new(ReevalFactory::new(label, mal, window, inputs, tables, self.par)?)
            }
        };
        self.register_factory(factory)
    }

    /// Register a hand-built [`Factory`] — custom operators beyond what
    /// the SQL front-end can express (bench harnesses, user-defined
    /// transitions). Every input stream it names must be registered; the
    /// factory joins the Petri net like any SQL-derived query and its
    /// results are drained through [`Engine::drain_results`].
    pub fn register_factory(&mut self, f: Box<dyn Factory>) -> Result<QueryId, DataCellError> {
        for s in f.input_streams() {
            if !self.baskets.contains_key(&s) {
                return Err(DataCellError::UnknownStream(s));
            }
        }
        let label = f.label().to_owned();
        let baskets = &self.baskets;
        let id = self.scheduler.register(f, |s| baskets.get(s).cloned());
        self.outputs.insert(id, Vec::new());
        self.series.insert(id, QuerySeries::new(label));
        Ok(QueryId(id))
    }

    /// Rewrite `ScanStream` nodes naming catalog tables into `ScanTable`
    /// nodes. Registered streams shadow tables of the same name.
    fn resolve_sources(&self, plan: LogicalPlan) -> LogicalPlan {
        match plan {
            LogicalPlan::ScanStream { stream }
                if !self.baskets.contains_key(&stream) && self.catalog.table(&stream).is_ok() =>
            {
                LogicalPlan::ScanTable { table: stream }
            }
            LogicalPlan::Filter { input, column, pred } => {
                LogicalPlan::Filter { input: Box::new(self.resolve_sources(*input)), column, pred }
            }
            LogicalPlan::Join { left, right, left_on, right_on } => LogicalPlan::Join {
                left: Box::new(self.resolve_sources(*left)),
                right: Box::new(self.resolve_sources(*right)),
                left_on,
                right_on,
            },
            LogicalPlan::Aggregate { input, group_by, aggs } => LogicalPlan::Aggregate {
                input: Box::new(self.resolve_sources(*input)),
                group_by,
                aggs,
            },
            LogicalPlan::Project { input, columns } => {
                LogicalPlan::Project { input: Box::new(self.resolve_sources(*input)), columns }
            }
            LogicalPlan::Distinct { input } => {
                LogicalPlan::Distinct { input: Box::new(self.resolve_sources(*input)) }
            }
            LogicalPlan::OrderBy { input, column, desc } => {
                LogicalPlan::OrderBy { input: Box::new(self.resolve_sources(*input)), column, desc }
            }
            LogicalPlan::Limit { input, n } => {
                LogicalPlan::Limit { input: Box::new(self.resolve_sources(*input)), n }
            }
            leaf => leaf,
        }
    }

    /// Run the typed static analyzer over a compiled plan, seeding type
    /// inference with the schemas of every stream the plan binds plus the
    /// persistent catalog.
    fn verify_plan(&self, mal: &MalPlan) -> Result<(), DataCellError> {
        let mut schema = SchemaOverlay::new(&self.catalog);
        for s in &mal.streams {
            if let Some(b) = self.baskets.get(s) {
                schema = schema.with_stream(s.clone(), b.with(|bk| bk.schema().to_vec()));
            }
        }
        match verify_all(mal, &schema).into_iter().next() {
            None => Ok(()),
            Some(e) => Err(DataCellError::Plan(PlanError::Verify(Box::new(e)))),
        }
    }

    /// Snapshot the persistent tables a plan binds (table contents are
    /// frozen at registration; re-register after bulk reloads).
    fn table_snapshot(&self, mal: &MalPlan) -> Result<HashMap<String, Table>, DataCellError> {
        let mut tables = HashMap::new();
        for ins in &mal.instrs {
            if let MalOp::BindTable { table, .. } = &ins.op {
                if !tables.contains_key(table) {
                    tables.insert(table.clone(), self.catalog.table(table)?.clone());
                }
            }
        }
        Ok(tables)
    }

    /// Drop a continuous query.
    pub fn deregister(&mut self, q: QueryId) -> Result<(), DataCellError> {
        self.scheduler.deregister(q.0)?;
        self.outputs.remove(&q.0);
        self.series.remove(&q.0);
        Ok(())
    }

    // -- execution ---------------------------------------------------------

    /// Run the scheduler until no factory is enabled; results accumulate
    /// per query. Expired basket prefixes are garbage collected after the
    /// drain, when every factory's consumption cursor is settled.
    ///
    /// With one worker (the default) factories fire on the calling
    /// thread; with more ([`EngineConfig::workers`] / `DATACELL_WORKERS`)
    /// independent factories fire concurrently on the scheduler's worker
    /// pool. Per-query result order is identical either way; cross-query
    /// interleaving is unspecified at every worker count (and invisible
    /// through [`Engine::drain_results`]). A factory that errors or
    /// panics aborts the drain with a typed error; the windows completed
    /// before the abort are kept, and the other queries keep firing on
    /// the next call.
    pub fn run_until_idle(&mut self) -> Result<(), DataCellError> {
        let (emissions, outcome) = self.scheduler.run_until_idle(self.clock);
        for e in emissions {
            if let Some(s) = self.series.get(&e.factory) {
                s.observe(&e.metrics);
            }
            self.outputs.entry(e.factory).or_default().push((e.result, e.metrics));
        }
        self.gc();
        outcome
    }

    /// Expire basket prefixes every factory has consumed.
    fn gc(&mut self) {
        for (name, basket) in &self.baskets {
            if let Some(upto) = self.scheduler.min_consumed(name) {
                basket.with(|b| b.expire_upto(upto));
            }
        }
    }

    /// All registered queries with their labels (`q0`, `q1`, …), sorted by
    /// label. The network edge resolves `SUBSCRIBE <label>` through this.
    pub fn queries(&self) -> Vec<(QueryId, String)> {
        let mut qs: Vec<(QueryId, String)> =
            self.series.iter().map(|(&id, s)| (QueryId(id), s.label.clone())).collect();
        qs.sort_by(|a, b| a.1.cmp(&b.1));
        qs
    }

    /// Take all window results produced by a query since the last drain.
    pub fn drain_results(&mut self, q: QueryId) -> Result<Vec<ResultSet>, DataCellError> {
        Ok(self.drain_with_metrics(q)?.into_iter().map(|(result, _)| result).collect())
    }

    /// [`Engine::drain_results`] with each window result paired with the
    /// [`SlideMetrics`] of the slide that produced it (the paper's Fig. 7
    /// main-plan/merge split, per window). The engine keeps no per-slide
    /// record past this call; the running totals stay in
    /// [`Engine::telemetry_snapshot`].
    pub fn drain_with_metrics(
        &mut self,
        q: QueryId,
    ) -> Result<Vec<(ResultSet, SlideMetrics)>, DataCellError> {
        self.outputs.get_mut(&q.0).map(std::mem::take).ok_or(DataCellError::UnknownQuery(q.0))
    }

    /// Resident tuple count of a stream's basket (tests/monitoring).
    pub fn basket_len(&self, stream: &str) -> Result<usize, DataCellError> {
        Ok(self.basket(stream)?.len())
    }

    // -- telemetry ---------------------------------------------------------

    /// One coherent snapshot of every telemetry signal: the process-wide
    /// registry (kernel aggregation and basket-seal internals) merged
    /// with this engine's own series — per-query slide latency and the
    /// paper's Fig. 7 main-plan/merge cost split, scheduler worker-pool
    /// utilization, and per-shard basket depth. Render it with
    /// [`datacell_telemetry::render_text`].
    ///
    /// Engine-local families are assembled from engine-owned handles
    /// (never registered globally), so `query` labels cannot collide
    /// across engines in one process. Between two quiesced drains with
    /// no appends, consecutive snapshots of the engine-local families
    /// are identical.
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let mut snap = datacell_telemetry::global().snapshot();
        self.query_families(&mut snap);
        self.scheduler_families(&mut snap);
        self.basket_families(&mut snap);
        snap
    }

    /// Per-query series: one sample per registered query, labelled
    /// `query="<label>"`, in label order.
    fn query_families(&self, snap: &mut Snapshot) {
        let mut series: Vec<&QuerySeries> = self.series.values().collect();
        series.sort_by(|a, b| a.label.cmp(&b.label));
        let mut slides = Family::new(
            "datacell_query_slides_total",
            "Window slides produced by a continuous query.",
            MetricKind::Counter,
        );
        let mut rows = Family::new(
            "datacell_query_rows_total",
            "Result rows emitted by a continuous query.",
            MetricKind::Counter,
        );
        let mut total = Family::new(
            "datacell_query_total_seconds_total",
            "Total slide execution time of a continuous query.",
            MetricKind::Counter,
        );
        let mut main_plan = Family::new(
            "datacell_query_main_plan_seconds_total",
            "Time in the original plan's operators (Fig. 7 main-plan component).",
            MetricKind::Counter,
        );
        let mut merge = Family::new(
            "datacell_query_merge_seconds_total",
            "Time in incremental merge machinery (Fig. 7 merge component).",
            MetricKind::Counter,
        );
        let mut latency = Family::new(
            "datacell_query_slide_seconds",
            "Per-slide total latency distribution of a continuous query.",
            MetricKind::Histogram,
        );
        for s in series {
            let lbl = [("query", s.label.as_str())];
            slides.push_value(&lbl, s.slides.get() as f64);
            rows.push_value(&lbl, s.rows.get() as f64);
            total.push_value(&lbl, s.total_ns.get() as f64 / NS_PER_SEC);
            main_plan.push_value(&lbl, s.main_plan_ns.get() as f64 / NS_PER_SEC);
            merge.push_value(&lbl, s.merge_ns.get() as f64 / NS_PER_SEC);
            latency.push_histogram(&lbl, s.latency.snapshot());
        }
        // A family declared with zero samples (no queries registered) is
        // noise the strict parser rightly rejects — drop it instead.
        for fam in [slides, rows, total, main_plan, merge, latency] {
            if !fam.samples.is_empty() {
                snap.push(fam);
            }
        }
    }

    /// Scheduler worker-pool series: queue depth, wake-to-fire latency
    /// and per-worker utilization (the latter only while a pool is live —
    /// with one worker the calling thread fires and there is none).
    fn scheduler_families(&self, snap: &mut Snapshot) {
        let mut depth = Family::new(
            "datacell_scheduler_queue_depth",
            "Factories dispatched to the worker pool and not yet picked up; 0 when quiesced.",
            MetricKind::Gauge,
        );
        depth.push_value(&[], self.scheduler.queue_depth() as f64);
        snap.push(depth);
        let mut wake = Family::new(
            "datacell_scheduler_wake_to_fire_seconds",
            "Time a dispatched factory waited in the work queue before a worker fired it.",
            MetricKind::Histogram,
        );
        wake.push_histogram(&[], self.scheduler.wake_to_fire());
        snap.push(wake);
        let stats = self.scheduler.worker_stats();
        if stats.is_empty() {
            return;
        }
        let mut fires = Family::new(
            "datacell_scheduler_worker_fires_total",
            "Factory fire calls executed, per pool worker.",
            MetricKind::Counter,
        );
        let mut busy = Family::new(
            "datacell_scheduler_worker_busy_seconds_total",
            "Time spent firing factories, per pool worker.",
            MetricKind::Counter,
        );
        let mut idle = Family::new(
            "datacell_scheduler_worker_idle_seconds_total",
            "Time spent waiting between jobs, per pool worker (recorded when the wait ends).",
            MetricKind::Counter,
        );
        for (i, w) in stats.iter().enumerate() {
            let worker = i.to_string();
            let lbl = [("worker", worker.as_str())];
            fires.push_value(&lbl, w.fires() as f64);
            busy.push_value(&lbl, w.busy_ns() as f64 / NS_PER_SEC);
            idle.push_value(&lbl, w.idle_ns() as f64 / NS_PER_SEC);
        }
        for fam in [fires, busy, idle] {
            snap.push(fam);
        }
    }

    /// Basket ingest-edge series: per-shard staged depth, cumulative rows
    /// and a per-stream shard-imbalance ratio (max over mean of
    /// cumulative rows; 1.0 is perfectly balanced, 0 when nothing has
    /// been staged yet).
    fn basket_families(&self, snap: &mut Snapshot) {
        let mut names: Vec<&String> = self.baskets.keys().collect();
        names.sort();
        let mut staged_rows = Family::new(
            "datacell_basket_staged_rows",
            "Rows currently staged (appended, not yet sealed) per basket shard.",
            MetricKind::Gauge,
        );
        let mut staged_segs = Family::new(
            "datacell_basket_staged_segments",
            "Staged append segments awaiting seal, per basket shard.",
            MetricKind::Gauge,
        );
        let mut shard_rows = Family::new(
            "datacell_basket_shard_rows_total",
            "Rows ever staged into a basket shard.",
            MetricKind::Counter,
        );
        let mut imbalance = Family::new(
            "datacell_basket_shard_imbalance_ratio",
            "Max-over-mean of cumulative rows across a basket's shards; 1.0 is balanced.",
            MetricKind::Gauge,
        );
        for name in names {
            let stats = self.baskets[name].shard_stats();
            let sum: u64 = stats.iter().map(|s| s.total_rows).sum();
            let max = stats.iter().map(|s| s.total_rows).max().unwrap_or(0);
            let ratio = if sum == 0 { 0.0 } else { max as f64 * stats.len() as f64 / sum as f64 };
            imbalance.push_value(&[("stream", name)], ratio);
            for (i, s) in stats.iter().enumerate() {
                let shard = i.to_string();
                let lbl = [("stream", name.as_str()), ("shard", shard.as_str())];
                staged_rows.push_value(&lbl, s.staged_rows as f64);
                staged_segs.push_value(&lbl, s.staged_segments as f64);
                shard_rows.push_value(&lbl, s.total_rows as f64);
            }
        }
        for fam in [staged_rows, staged_segs, shard_rows, imbalance] {
            if !fam.samples.is_empty() {
                snap.push(fam);
            }
        }
    }

    /// EXPLAIN: show all three plan levels for a continuous query — the
    /// optimized logical plan, the normal MAL program the one-shot executor
    /// would run (DataCellR), and the incremental classification the
    /// rewriter produces (DataCell). Does not register anything.
    pub fn explain_sql(&self, sql: &str) -> Result<String, DataCellError> {
        let q = datacell_sql::parse(sql)?;
        let plan = optimize(self.resolve_sources(q.plan));
        let mal = compile(&plan)?;
        let mut out = String::new();
        out.push_str("== logical plan ==\n");
        out.push_str(&plan.explain());
        out.push_str("\n== normal (re-evaluation) MAL plan ==\n");
        out.push_str(&mal.explain());
        out.push_str("\n== incremental plan ==\n");
        match rewrite(&mal) {
            Ok(inc) => out.push_str(&inc.explain()),
            Err(e) => out.push_str(&format!("(not incrementally executable: {e})\n")),
        }
        if let Some(w) = q.window {
            out.push_str(&format!("\nwindow: {w:?}\n"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_kernel::Value;

    fn engine_with_stream() -> Engine {
        stream_engine(EngineConfig::from_env())
    }

    /// An engine built with `config`, with stream `s(x1, x2)` registered.
    fn stream_engine(config: EngineConfig) -> Engine {
        let mut e = Engine::with_config(config);
        e.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
        e
    }

    #[test]
    fn end_to_end_sql_incremental() {
        let mut e = engine_with_stream();
        let q =
            e.register_sql("SELECT sum(x2) FROM s WHERE x1 > 10 WINDOW SIZE 4 SLIDE 2").unwrap();
        e.append(
            "s",
            &[Column::Int(vec![5, 20, 30, 7, 40, 8]), Column::Int(vec![1, 2, 3, 4, 5, 6])],
        )
        .unwrap();
        e.run_until_idle().unwrap();
        let out = e.drain_results(q).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].rows(), vec![vec![Value::Int(5)]]);
        assert_eq!(out[1].rows(), vec![vec![Value::Int(8)]]);
        // Drained: second drain is empty.
        assert!(e.drain_results(q).unwrap().is_empty());
    }

    #[test]
    fn drain_with_metrics_pairs_each_window_with_its_slide_record() {
        let mut e = engine_with_stream();
        let q =
            e.register_sql("SELECT sum(x2) FROM s WHERE x1 > 10 WINDOW SIZE 4 SLIDE 2").unwrap();
        e.append(
            "s",
            &[Column::Int(vec![5, 20, 30, 7, 40, 8]), Column::Int(vec![1, 2, 3, 4, 5, 6])],
        )
        .unwrap();
        e.run_until_idle().unwrap();
        let out = e.drain_with_metrics(q).unwrap();
        assert_eq!(out.len(), 2);
        for (i, (result, m)) in out.iter().enumerate() {
            assert_eq!(m.window_index, i);
            assert_eq!(m.rows, result.len());
            assert_eq!(m.total, m.main_plan + m.merge);
        }
        // Nothing per-slide outlives the drain.
        assert!(e.drain_with_metrics(q).unwrap().is_empty());
        assert!(e.drain_with_metrics(QueryId(99)).is_err());
    }

    #[test]
    fn incremental_and_reeval_agree() {
        let mut e = engine_with_stream();
        let qi = e
            .register_sql(
                "SELECT x1, sum(x2) FROM s WHERE x1 > 2 GROUP BY x1 WINDOW SIZE 6 SLIDE 2",
            )
            .unwrap();
        let qr = e
            .register_sql_with(
                "SELECT x1, sum(x2) FROM s WHERE x1 > 2 GROUP BY x1 WINDOW SIZE 6 SLIDE 2",
                RegisterOptions { mode: ExecMode::Reevaluation, chunker: None },
            )
            .unwrap();
        let xs: Vec<i64> = (0..20).map(|i| i % 5).collect();
        let ys: Vec<i64> = (0..20).collect();
        e.append("s", &[Column::Int(xs), Column::Int(ys)]).unwrap();
        e.run_until_idle().unwrap();
        let ri = e.drain_results(qi).unwrap();
        let rr = e.drain_results(qr).unwrap();
        assert_eq!(ri.len(), rr.len());
        assert!(!ri.is_empty());
        for (a, b) in ri.iter().zip(&rr) {
            assert_eq!(a.sorted_rows(), b.sorted_rows());
        }
    }

    #[test]
    fn multiple_queries_share_basket_gc_respects_slowest() {
        let mut e = engine_with_stream();
        let _q1 =
            e.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 2 SLIDE 2").unwrap();
        let _q2 =
            e.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 8 SLIDE 4").unwrap();
        e.append("s", &[Column::Int(vec![1; 6]), Column::Int(vec![1; 6])]).unwrap();
        e.run_until_idle().unwrap();
        // q1 consumed 6 (3 windows of 2); q2 consumed 4 (one step of 4,
        // waiting for more). GC must keep the 2 tuples q2 hasn't seen.
        assert_eq!(e.basket_len("s").unwrap(), 2);
    }

    #[test]
    fn deregistered_query_frees_gc() {
        let mut e = engine_with_stream();
        let q1 =
            e.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 100 SLIDE 100").unwrap();
        e.append("s", &[Column::Int(vec![1; 5]), Column::Int(vec![1; 5])]).unwrap();
        e.run_until_idle().unwrap();
        assert_eq!(e.basket_len("s").unwrap(), 5); // q1 waits for 100
        e.deregister(q1).unwrap();
        e.run_until_idle().unwrap();
        // No factory reads s anymore; GC has no bound -> basket retained.
        // (Streams without readers keep data until a reader registers.)
        assert_eq!(e.basket_len("s").unwrap(), 5);
        assert!(e.drain_results(q1).is_err());
    }

    #[test]
    fn queries_lists_labels_in_order() {
        let mut e = engine_with_stream();
        let q0 = e.register_sql("SELECT sum(x2) FROM s WINDOW SIZE 2 SLIDE 2").unwrap();
        let q1 = e.register_sql("SELECT count(x1) FROM s WINDOW SIZE 4 SLIDE 4").unwrap();
        let qs = e.queries();
        assert_eq!(qs, vec![(q0, "q0".to_owned()), (q1, "q1".to_owned())]);
    }

    #[test]
    fn labels_stay_distinct_across_a_deregister() {
        // Regression: labels were numbered by the count of live queries,
        // so deregistering q0 made the next registration a second "q1".
        let mut e = engine_with_stream();
        let q0 = e.register_sql("SELECT sum(x2) FROM s WINDOW SIZE 2 SLIDE 2").unwrap();
        let q1 = e.register_sql("SELECT count(x1) FROM s WINDOW SIZE 2 SLIDE 2").unwrap();
        e.deregister(q0).unwrap();
        let q2 = e.register_sql("SELECT max(x2) FROM s WINDOW SIZE 2 SLIDE 2").unwrap();
        assert_eq!(e.queries(), vec![(q1, "q1".to_owned()), (q2, "q2".to_owned())]);
        e.append("s", &[Column::Int(vec![1, 2]), Column::Int(vec![5, 7])]).unwrap();
        e.run_until_idle().unwrap();
        // One series per live query in the exposition, no label set twice.
        let text = datacell_telemetry::render_text(&e.telemetry_snapshot());
        let parsed = datacell_telemetry::parse_text(&text).expect("valid exposition");
        let labels: Vec<&str> = parsed
            .samples
            .iter()
            .filter(|s| s.name == "datacell_query_slides_total")
            .map(|s| s.labels[0].1.as_str())
            .collect();
        assert_eq!(labels, vec!["q1", "q2"]);
    }

    #[test]
    fn clock_rule_is_uniform_across_append_variants() {
        // Regression: `append` and `append_at` follow one rule — stamp,
        // then advance the clock to the stamp iff it is ahead.
        let mut e = Engine::new();
        e.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
        e.create_stream("t", &[("y", DataType::Int)]).unwrap();
        let one = [Column::Int(vec![1]), Column::Int(vec![1])];
        assert_eq!(e.clock(), 0);
        e.append("s", &one).unwrap(); // stamp 0 == clock: no movement
        assert_eq!(e.clock(), 0);
        e.append_at("s", &one, 50).unwrap(); // stamp ahead: clock follows
        assert_eq!(e.clock(), 50);
        e.append("s", &one).unwrap(); // stamps the advanced clock (50)
        assert_eq!(e.clock(), 50);
        assert_eq!(e.basket("s").unwrap().with(|b| b.latest_ts()), Some(50));
        // Back-dated stamp on another stream: accepted, clock untouched.
        e.append_at("t", &[Column::Int(vec![2])], 10).unwrap();
        assert_eq!(e.clock(), 50);
        assert_eq!(e.basket("t").unwrap().with(|b| b.latest_ts()), Some(10));
        // Equal stamp: also no movement.
        e.append_at("s", &one, 50).unwrap();
        assert_eq!(e.clock(), 50);
    }

    #[test]
    fn worker_count_api_and_parallel_results_match_sequential() {
        let run = |workers: usize| {
            let mut e = stream_engine(EngineConfig { workers, ..EngineConfig::from_env() });
            assert_eq!(e.workers(), workers.max(1));
            let qs: Vec<QueryId> = (1..=4)
                .map(|k| {
                    e.register_sql(&format!(
                        "SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE {} SLIDE {}",
                        4 * k,
                        2 * k
                    ))
                    .unwrap()
                })
                .collect();
            e.append("s", &[Column::Int(vec![1; 64]), Column::Int(vec![1; 64])]).unwrap();
            e.run_until_idle().unwrap();
            qs.into_iter()
                .map(|q| {
                    e.drain_results(q)
                        .unwrap()
                        .iter()
                        .map(datacell_plan::ResultSet::rows)
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let seq = run(1);
        for workers in [2, 4] {
            assert_eq!(run(workers), seq, "workers={workers} diverged from sequential");
        }
    }

    #[test]
    fn partitioned_queries_match_sequential_results() {
        // The same query set at partitions ∈ {1, 4}, both execution modes,
        // including a two-stream join: window results must agree with the
        // sequential kernel (rows sorted — join pair order is canonical
        // but differs from sequential probe order at partitions > 1).
        let run = |partitions: usize| {
            let mut e = stream_engine(EngineConfig { partitions, ..EngineConfig::from_env() });
            assert_eq!(e.partitions(), partitions.max(1));
            e.create_stream("t", &[("k", DataType::Int)]).unwrap();
            let q1 = e
                .register_sql(
                    "SELECT x1, sum(x2) FROM s WHERE x1 > 2 GROUP BY x1 WINDOW SIZE 16 SLIDE 8",
                )
                .unwrap();
            let q2 = e
                .register_sql_with(
                    "SELECT count(s.x1) FROM s, t WHERE s.x1 = t.k WINDOW SIZE 16 SLIDE 8",
                    RegisterOptions { mode: ExecMode::Reevaluation, chunker: None },
                )
                .unwrap();
            let xs: Vec<i64> = (0..64).map(|i| i % 7).collect();
            let ys: Vec<i64> = (0..64).collect();
            e.append("s", &[Column::Int(xs), Column::Int(ys)]).unwrap();
            e.append("t", &[Column::Int((0..64).map(|i| i % 5).collect())]).unwrap();
            e.run_until_idle().unwrap();
            [q1, q2].map(|q| {
                e.drain_results(q)
                    .unwrap()
                    .iter()
                    .map(datacell_plan::ResultSet::sorted_rows)
                    .collect::<Vec<_>>()
            })
        };
        let seq = run(1);
        assert!(!seq[0].is_empty() && !seq[1].is_empty());
        assert_eq!(run(4), seq, "partitions=4 diverged from sequential");
    }

    #[test]
    fn basket_shards_api_and_sharded_results_match_single_shard() {
        // The same workload at shards ∈ {1, 4}: single-threaded feeding
        // is deterministic, so window results must be byte-identical.
        let run = |shards: usize| {
            let mut e =
                stream_engine(EngineConfig { basket_shards: shards, ..EngineConfig::from_env() });
            assert_eq!(e.basket_shards(), shards.max(1));
            assert_eq!(e.basket("s").unwrap().shards(), shards.max(1));
            let q =
                e.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 4 SLIDE 2").unwrap();
            for i in 0..4 {
                e.append_at(
                    "s",
                    &[Column::Int(vec![1, 2, 3]), Column::Int(vec![i, i + 1, i + 2])],
                    i as u64,
                )
                .unwrap();
            }
            e.run_until_idle().unwrap();
            e.drain_results(q)
                .unwrap()
                .iter()
                .map(datacell_plan::ResultSet::rows)
                .collect::<Vec<_>>()
        };
        let seq = run(1);
        assert!(!seq.is_empty());
        assert_eq!(run(4), seq, "shards=4 diverged from one shard");
    }

    #[test]
    fn placement_auto_resolves_from_configured_counts() {
        // Explicit configs, so no DATACELL_* variable of the harness
        // environment moves either count.
        let placement = |partitions: usize, basket_shards: usize| {
            let config = EngineConfig { partitions, basket_shards, ..EngineConfig::default() };
            let e = Engine::with_config(config);
            (e.partitions(), e.basket_shards(), e.placement())
        };
        // shards == partitions -> aligned (inert at 1 partition: one
        // morsel regardless); otherwise round-robin.
        assert_eq!(placement(1, 1), (1, 1, PlacementMode::Aligned));
        assert_eq!(placement(4, 1), (4, 1, PlacementMode::RoundRobin));
        assert_eq!(placement(1, 4), (1, 4, PlacementMode::RoundRobin));
        assert_eq!(placement(4, 4), (4, 4, PlacementMode::Aligned));
        // Zero counts clamp to 1 before the comparison.
        assert_eq!(placement(0, 0), (1, 1, PlacementMode::Aligned));
        assert_eq!(placement(0, 1), (1, 1, PlacementMode::Aligned));
        assert_eq!(placement(4, 0), (4, 1, PlacementMode::RoundRobin));
        let clamped = Engine::with_config(EngineConfig { workers: 0, ..EngineConfig::default() });
        assert_eq!(clamped.workers(), 1);
    }

    #[test]
    fn aligned_placement_reaches_factories_and_matches_roundrobin() {
        use datacell_kernel::par::stats;
        let sql = "SELECT x1, sum(x2) FROM s GROUP BY x1 WINDOW SIZE 16 SLIDE 16";
        let mut per_mode = Vec::new();
        // 1 shard x 4 partitions resolves to round-robin, 4 x 4 to aligned.
        for (basket_shards, mode) in [(1, PlacementMode::RoundRobin), (4, PlacementMode::Aligned)] {
            let config = EngineConfig { partitions: 4, basket_shards, ..EngineConfig::from_env() };
            let mut e = stream_engine(config);
            assert_eq!(e.placement(), mode);
            let q = e.register_sql(sql).unwrap();
            let xs: Vec<i64> = (0..32).map(|i| i % 7).collect();
            let ys: Vec<i64> = (0..32).collect();
            let concat_before = stats::merge_concat_fast_path();
            e.append("s", &[Column::Int(xs), Column::Int(ys)]).unwrap();
            e.run_until_idle().unwrap();
            if mode == PlacementMode::Aligned {
                // The concat fast path firing proves the mode reached the
                // factory's kernel execution, not just the engine field.
                assert!(
                    stats::merge_concat_fast_path() > concat_before,
                    "aligned engine must take the merge-free concat path"
                );
            }
            per_mode.push(e.drain_results(q).unwrap());
        }
        let (rr, al) = (&per_mode[0], &per_mode[1]);
        assert_eq!(rr.len(), al.len());
        assert!(!rr.is_empty());
        for (a, b) in rr.iter().zip(al) {
            assert_eq!(a.rows(), b.rows(), "placement modes diverged");
        }
    }

    #[test]
    fn sharded_receptor_appends_visible_after_drain() {
        // Staged (unsealed) receptor appends must be published by the
        // engine's drain — including the GC path never touching them.
        let mut e = stream_engine(EngineConfig { basket_shards: 4, ..EngineConfig::from_env() });
        let q = e.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 2 SLIDE 2").unwrap();
        let b = e.basket("s").unwrap();
        b.append_shard(0, &[Column::Int(vec![1]), Column::Int(vec![10])], 0).unwrap();
        b.append_shard(2, &[Column::Int(vec![1]), Column::Int(vec![20])], 0).unwrap();
        assert_eq!(e.basket_len("s").unwrap(), 0); // staged, not sealed
        e.run_until_idle().unwrap();
        let out = e.drain_results(q).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rows(), vec![vec![Value::Int(30)]]);
        // Fully consumed -> GC expired the sealed prefix, staging empty.
        assert_eq!(e.basket_len("s").unwrap(), 0);
        assert_eq!(b.staged_len(), 0);
    }

    #[test]
    fn register_factory_validates_streams() {
        use crate::factory::FireOutcome;

        struct CountFactory {
            input: StreamInput,
        }
        impl crate::factory::Factory for CountFactory {
            fn label(&self) -> &str {
                "count"
            }
            fn ready(&self, _clock: Timestamp) -> bool {
                self.input.available() >= 2
            }
            fn fire(&mut self, _clock: Timestamp) -> Result<FireOutcome, DataCellError> {
                let w = self.input.take(2)?;
                let result =
                    ResultSet::new(vec!["n".into()], vec![Column::Int(vec![w.len() as i64])])
                        .unwrap();
                Ok(FireOutcome::Produced { result, metrics: SlideMetrics::default() })
            }
            fn consumed_upto(&self, stream: &str) -> Option<datacell_kernel::Oid> {
                (stream == self.input.name).then_some(self.input.consumed)
            }
            fn input_streams(&self) -> Vec<String> {
                vec![self.input.name.clone()]
            }
        }

        let mut e = engine_with_stream();
        let basket = e.basket("s").unwrap();
        let q = e
            .register_factory(Box::new(CountFactory { input: StreamInput::new("s", basket) }))
            .unwrap();
        e.append("s", &[Column::Int(vec![1; 5]), Column::Int(vec![1; 5])]).unwrap();
        e.run_until_idle().unwrap();
        assert_eq!(e.drain_results(q).unwrap().len(), 2);
        // GC honours the custom factory's cursor (consumed 4 of 5).
        assert_eq!(e.basket_len("s").unwrap(), 1);

        struct GhostFactory;
        impl crate::factory::Factory for GhostFactory {
            fn label(&self) -> &str {
                "ghost"
            }
            fn ready(&self, _clock: Timestamp) -> bool {
                false
            }
            fn fire(&mut self, _clock: Timestamp) -> Result<FireOutcome, DataCellError> {
                Ok(FireOutcome::NotReady)
            }
            fn consumed_upto(&self, _stream: &str) -> Option<datacell_kernel::Oid> {
                None
            }
            fn input_streams(&self) -> Vec<String> {
                vec!["ghost".into()]
            }
        }
        assert!(matches!(
            e.register_factory(Box::new(GhostFactory)),
            Err(DataCellError::UnknownStream(_))
        ));
    }

    #[test]
    fn unknown_stream_rejected() {
        let mut e = Engine::new();
        let err = e.register_sql("SELECT sum(x) FROM ghost WINDOW SIZE 2 SLIDE 1");
        assert!(matches!(err, Err(DataCellError::UnknownStream(_))));
    }

    #[test]
    fn missing_window_clause_rejected() {
        let mut e = engine_with_stream();
        let err = e.register_sql("SELECT sum(x2) FROM s");
        assert!(matches!(err, Err(DataCellError::Unsupported(_))));
    }

    #[test]
    fn duplicate_stream_rejected() {
        let mut e = engine_with_stream();
        assert!(matches!(
            e.create_stream("s", &[("x", DataType::Int)]),
            Err(DataCellError::AlreadyExists(_))
        ));
    }

    #[test]
    fn stream_table_join_query() {
        let mut e = engine_with_stream();
        let mut dim = Table::new("dim", &[("k", DataType::Int), ("w", DataType::Int)]);
        dim.append(&[Column::Int(vec![1, 2]), Column::Int(vec![100, 200])]).unwrap();
        e.create_table(dim).unwrap();
        let q = e
            .register_sql("SELECT sum(dim.w) FROM s, dim WHERE s.x1 = dim.k WINDOW SIZE 2 SLIDE 2")
            .unwrap();
        e.append("s", &[Column::Int(vec![1, 3, 2, 2]), Column::Int(vec![0; 4])]).unwrap();
        e.run_until_idle().unwrap();
        let out = e.drain_results(q).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].rows(), vec![vec![Value::Int(100)]]); // k=1 matched
        assert_eq!(out[1].rows(), vec![vec![Value::Int(400)]]); // k=2 twice
    }

    #[test]
    fn time_based_query_driven_by_clock() {
        let mut e = engine_with_stream();
        let q = e.register_sql("SELECT count(x1) FROM s WINDOW RANGE 20 MS SLIDE 10 MS").unwrap();
        e.append_at("s", &[Column::Int(vec![1, 2]), Column::Int(vec![0, 0])], 5).unwrap();
        e.append_at("s", &[Column::Int(vec![3]), Column::Int(vec![0])], 15).unwrap();
        e.run_until_idle().unwrap();
        assert!(e.drain_results(q).unwrap().is_empty()); // clock at 15 < 20
        e.advance_clock(20);
        e.run_until_idle().unwrap();
        let out = e.drain_results(q).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rows(), vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn registration_verifies_against_real_schemas() {
        use datacell_plan::Rule;
        let engine = |verify: bool| {
            let mut e = Engine::with_config(EngineConfig { verify, ..EngineConfig::from_env() });
            e.create_stream("logs", &[("level", DataType::Str), ("ms", DataType::Int)]).unwrap();
            e
        };
        let mut e = engine(true);
        assert!(e.verify());

        // sum over a string column: rejected at registration with a typed
        // diagnostic naming the op and rule.
        let err = e
            .register_sql("SELECT sum(level) FROM logs WINDOW SIZE 2 SLIDE 2")
            .expect_err("sum over a str column must not register");
        let DataCellError::Plan(datacell_plan::PlanError::Verify(v)) = err else {
            panic!("expected a verify diagnostic, got: {err}");
        };
        assert_eq!(v.rule, Rule::TypeMismatch);
        assert!(v.instr.is_some());
        assert!(v.to_string().contains("sum over a str column"), "{v}");

        // An int predicate against the string column: also rejected.
        let err = e
            .register_sql("SELECT count(ms) FROM logs WHERE level > 3 WINDOW SIZE 2 SLIDE 2")
            .expect_err("int predicate over a str column must not register");
        assert!(matches!(err, DataCellError::Plan(datacell_plan::PlanError::Verify(_))), "{err}");

        // The same queries on an engine built with verification off
        // register fine (and the well-typed variant registers either way).
        let mut off = engine(false);
        assert!(!off.verify());
        off.register_sql("SELECT sum(level) FROM logs WINDOW SIZE 2 SLIDE 2").unwrap();
        e.register_sql("SELECT sum(ms) FROM logs WHERE level = 'err' WINDOW SIZE 2 SLIDE 2")
            .unwrap();
    }

    #[test]
    fn explain_sql_shows_all_levels() {
        let e = engine_with_stream();
        let text = e
            .explain_sql(
                "SELECT x1, sum(x2) FROM s WHERE x1 > 10 GROUP BY x1 WINDOW SIZE 100 SLIDE 10",
            )
            .unwrap();
        assert!(text.contains("== logical plan =="));
        assert!(text.contains("basket.bind(s, x1)"));
        assert!(text.contains("== incremental plan =="));
        assert!(text.contains("per-bw[0]"));
        assert!(text.contains("CountSliding"));
        // Unregisterable-but-parsable queries still explain the failure.
        let mut e2 = Engine::new();
        for s in ["a", "b"] {
            e2.create_stream(s, &[("k", DataType::Int)]).unwrap();
        }
        let t2 = e2
            .explain_sql("SELECT count(a.k) FROM a, b WHERE a.k = b.k WINDOW SIZE 4 SLIDE 2")
            .unwrap();
        assert!(t2.contains("per-cell"));
    }

    #[test]
    fn chunked_registration_via_options() {
        let mut e = engine_with_stream();
        let q = e
            .register_sql_with(
                "SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 8 SLIDE 4",
                RegisterOptions {
                    mode: ExecMode::Incremental,
                    chunker: Some(AdaptiveChunker::fixed(2)),
                },
            )
            .unwrap();
        e.append("s", &[Column::Int(vec![1; 16]), Column::Int(vec![2; 16])]).unwrap();
        e.run_until_idle().unwrap();
        let out = e.drain_results(q).unwrap();
        assert_eq!(out.len(), 3); // windows ending at 8, 12, 16
        assert_eq!(out[0].rows(), vec![vec![Value::Int(16)]]);
    }
}
