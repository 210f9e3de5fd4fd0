//! The incremental factory — the DataCell runtime of Algorithm 2.
//!
//! The factory executes an [`IncrementalPlan`] against arriving data:
//!
//! * each `fire` ingests one basic window (or chunk) per input stream and
//!   runs the **per-basic-window segment** of the plan over just that data;
//! * the resulting intermediates are cached in **rings** (one slot per
//!   active basic window); two-stream joins keep an n×n **matrix** of
//!   per-pair intermediates and compute only the new row/column per slide
//!   (Fig. 3e);
//! * once the window is complete, the **merge segment** runs: frontier
//!   rings are merged (`concat` + compensating actions) and the remaining
//!   merge-stage instructions produce the window result;
//! * the **transition** (Algorithm 2 lines 20–21) is the ring rotation:
//!   expired slots pop off the front, new slots push onto the back;
//! * with chunking enabled, the newest basic window is itself processed
//!   incrementally in `m` chunks whose partials fold into one ring slot —
//!   the optimization of §3 (*Optimized Incremental Plans*) driven by the
//!   [`AdaptiveChunker`].

use super::{Factory, FireOutcome, SnapshotCtx, StreamInput};
use crate::adaptive::AdaptiveChunker;
use crate::error::DataCellError;
use crate::merge::{merge_cluster, merge_var};
use crate::metrics::SlideMetrics;
use crate::rewrite::{IncrementalPlan, Stage};
use datacell_basket::{BasicWindow, Timestamp};
use datacell_kernel::{Oid, ParConfig, Table};
use datacell_plan::exec::{eval_op, ExecCtx};
use datacell_plan::{MalValue, PlanError, ResultSet, VarId, WindowSpec};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Context exposing exactly one stream's basic window (per-bw evaluation).
struct OneStreamCtx<'a> {
    name: &'a str,
    window: &'a BasicWindow,
    par: ParConfig,
}

impl<'a> ExecCtx for OneStreamCtx<'a> {
    fn stream_window(&self, stream: &str) -> Option<&BasicWindow> {
        (stream == self.name).then_some(self.window)
    }

    fn table(&self, _name: &str) -> Option<&Table> {
        None
    }

    fn par_config(&self) -> ParConfig {
        self.par
    }
}

/// Context with no streams (merge/matrix instructions never bind streams).
struct NoStreamCtx {
    par: ParConfig,
}

impl ExecCtx for NoStreamCtx {
    fn stream_window(&self, _stream: &str) -> Option<&BasicWindow> {
        None
    }

    fn table(&self, _name: &str) -> Option<&Table> {
        None
    }

    fn par_config(&self) -> ParConfig {
        self.par
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
    /// Per-bw intermediate rings: `rings[var][slot]`, oldest slot first.
    rings: HashMap<VarId, VecDeque<MalValue>>,
    /// Matrix intermediates: `matrix[var][row][col]` (row = left bw slot).
    matrix: HashMap<VarId, VecDeque<VecDeque<MalValue>>>,
    /// Landmark cumulative frontier values (replaces rings).
    cum: HashMap<VarId, MalValue>,
    /// Ring variables (cached per slot), precomputed.
    ring_vars: Vec<VarId>,
    /// Matrix ring variables.
    matrix_vars: Vec<VarId>,
    /// Variables that belong to a group cluster (merged via merge_cluster).
    cluster_members: Vec<VarId>,
    /// Sliding windows: number of basic windows per window.
    n: Option<usize>,
    advances: usize,
    emitted: usize,
    /// Chunking state (single-stream count-sliding only).
    chunker: Option<AdaptiveChunker>,
    chunk_rings: HashMap<VarId, Vec<MalValue>>,
    chunks_done: usize,
    /// Chunk-size for the current basic window (frozen while mid-window).
    current_m: usize,
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
    /// m-chunk optimization (single-stream count-sliding windows only).
    pub fn new(
        label: impl Into<String>,
        plan: IncrementalPlan,
        window: WindowSpec,
        inputs: Vec<StreamInput>,
        tables: HashMap<String, Table>,
        chunker: Option<AdaptiveChunker>,
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

        // Evaluate the static segment once.
        let mut statics: Vec<Option<MalValue>> = vec![None; plan.mal.nvars];
        let mut ctx = SnapshotCtx::new();
        for t in tables.into_values() {
            ctx.set_table(t);
        }
        for &i in &plan.static_instrs {
            let ins = &plan.mal.instrs[i];
            let args: Vec<&MalValue> = ins
                .op
                .args()
                .iter()
                .map(|&a| {
                    statics[a]
                        .as_ref()
                        .ok_or_else(|| PlanError::Internal(format!("static X_{a} unset")))
                })
                .collect::<Result<_, _>>()
                .map_err(DataCellError::Plan)?;
            let outs = eval_op(&ins.op, &args, &ctx)?;
            for (d, v) in ins.dests.iter().zip(outs) {
                statics[*d] = Some(v);
            }
        }

        let ring_vars = plan.ring_vars();
        let matrix_vars = plan.matrix_ring_vars();
        let cluster_members: Vec<VarId> = plan
            .clusters
            .iter()
            .flat_map(|c| std::iter::once(c.keys_var).chain(c.agg_vars.iter().map(|(v, _)| *v)))
            .collect();
        let n = window.basic_windows();
        let aligned_clusters = plan.clusters.iter().any(|c| c.placement_aligned);
        Ok(IncrementalFactory {
            label: label.into(),
            plan,
            window,
            inputs,
            statics,
            rings: ring_vars.iter().map(|&v| (v, VecDeque::new())).collect(),
            matrix: matrix_vars.iter().map(|&v| (v, VecDeque::new())).collect(),
            cum: HashMap::new(),
            ring_vars,
            matrix_vars,
            cluster_members,
            n,
            advances: 0,
            emitted: 0,
            current_m: chunker.as_ref().map_or(1, super::super::adaptive::AdaptiveChunker::m),
            chunker,
            chunk_rings: HashMap::new(),
            chunks_done: 0,
            preface_time: Duration::ZERO,
            par: ParConfig::sequential(),
            aligned_clusters,
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

    fn step_count(&self) -> Option<usize> {
        match self.window {
            WindowSpec::CountSliding { step, .. } => Some(step),
            WindowSpec::CountLandmark { step } => Some(step),
            _ => None,
        }
    }

    fn step_ms(&self) -> Option<u64> {
        match self.window {
            WindowSpec::TimeSliding { step_ms, .. } => Some(step_ms),
            WindowSpec::TimeLandmark { step_ms } => Some(step_ms),
            _ => None,
        }
    }

    /// Tuples needed for the next fire (step, or one chunk of it).
    fn needed(&self) -> Option<usize> {
        let step = self.step_count()?;
        Some(if self.current_m > 1 {
            chunk_size(step, self.current_m, self.chunks_done)
        } else {
            step
        })
    }

    // -- evaluation helpers ------------------------------------------------

    /// Run the per-bw segment of stream `k` over one basic window; returns
    /// the ring-var values produced.
    fn eval_perbw(
        &self,
        k: usize,
        w: &BasicWindow,
    ) -> Result<HashMap<VarId, MalValue>, DataCellError> {
        let plan = &self.plan;
        // The aligned-input vouch is applied per call, never stored in
        // `self.par`, so a `set_par_config` cannot lose it.
        let par = self.par.with_aligned_input(self.aligned_clusters);
        let ctx = OneStreamCtx { name: &plan.mal.streams[k], window: w, par };
        let mut env: Vec<Option<MalValue>> = vec![None; plan.mal.nvars];
        for &i in &plan.perbw_instrs[k] {
            let ins = &plan.mal.instrs[i];
            let arg_ids = ins.op.args();
            let args: Vec<&MalValue> = arg_ids
                .iter()
                .map(|&a| {
                    env[a]
                        .as_ref()
                        .or(self.statics[a].as_ref())
                        .ok_or_else(|| PlanError::Internal(format!("per-bw X_{a} unset")))
                })
                .collect::<Result<_, _>>()
                .map_err(DataCellError::Plan)?;
            let outs = eval_op(&ins.op, &args, &ctx)?;
            for (d, v) in ins.dests.iter().zip(outs) {
                env[*d] = Some(v);
            }
        }
        let mut out = HashMap::new();
        for &v in &self.ring_vars {
            if matches!(plan.stages[v], Stage::PerBw(kk) if kk == k) {
                let val = env[v]
                    .take()
                    .ok_or_else(|| PlanError::Internal(format!("ring X_{v} not produced")))
                    .map_err(DataCellError::Plan)?;
                out.insert(v, val);
            }
        }
        Ok(out)
    }

    /// Evaluate the matrix segment for cell (row `i`, col `j`); pushes the
    /// produced matrix ring values into `out`.
    fn eval_cell(&self, i: usize, j: usize) -> Result<HashMap<VarId, MalValue>, DataCellError> {
        let plan = &self.plan;
        let (ls, rs) = plan.matrix_pair.expect("matrix segment implies a pair");
        let mut env: Vec<Option<MalValue>> = vec![None; plan.mal.nvars];
        for &idx in &plan.matrix_instrs {
            let ins = &plan.mal.instrs[idx];
            let arg_ids = ins.op.args();
            let args: Vec<&MalValue> = arg_ids
                .iter()
                .map(|&a| -> Result<&MalValue, PlanError> {
                    if let Some(v) = env[a].as_ref() {
                        return Ok(v);
                    }
                    if let Some(v) = self.statics[a].as_ref() {
                        return Ok(v);
                    }
                    match plan.stages[a] {
                        Stage::PerBw(k) if k == ls => {
                            self.rings.get(&a).and_then(|r| r.get(i)).ok_or_else(|| {
                                PlanError::Internal(format!("ring X_{a}[{i}] missing"))
                            })
                        }
                        Stage::PerBw(k) if k == rs => {
                            self.rings.get(&a).and_then(|r| r.get(j)).ok_or_else(|| {
                                PlanError::Internal(format!("ring X_{a}[{j}] missing"))
                            })
                        }
                        _ => Err(PlanError::Internal(format!("cell arg X_{a} unresolvable"))),
                    }
                })
                .collect::<Result<_, _>>()
                .map_err(DataCellError::Plan)?;
            let outs = eval_op(&ins.op, &args, &NoStreamCtx { par: self.par })?;
            for (d, v) in ins.dests.iter().zip(outs) {
                env[*d] = Some(v);
            }
        }
        let mut out = HashMap::new();
        for &v in &self.matrix_vars {
            let val = env[v]
                .take()
                .ok_or_else(|| PlanError::Internal(format!("matrix X_{v} not produced")))
                .map_err(DataCellError::Plan)?;
            out.insert(v, val);
        }
        Ok(out)
    }

    /// Merge the frontier and run the merge segment; assemble the result.
    fn eval_merge(&mut self) -> Result<ResultSet, DataCellError> {
        let plan = &self.plan;
        let mut env: Vec<Option<MalValue>> = self.statics.clone();

        // Merged frontier values.
        if self.window.is_landmark() {
            for (&v, val) in &self.cum {
                env[v] = Some(val.clone());
            }
        } else {
            // Non-cluster frontier vars.
            for &v in &plan.frontier {
                if self.cluster_members.contains(&v) {
                    continue;
                }
                let parts = self.collect_parts(v)?;
                env[v] = Some(merge_var(plan.kinds[v], &parts)?);
            }
            // Clusters.
            for c in &plan.clusters {
                let keys_parts = self.collect_parts(c.keys_var)?;
                let agg_parts: Vec<(datacell_kernel::algebra::AggKind, Vec<MalValue>)> = c
                    .agg_vars
                    .iter()
                    .map(|&(v, kind)| Ok::<_, DataCellError>((kind, self.collect_parts(v)?)))
                    .collect::<Result<_, _>>()?;
                let (keys, aggs) = merge_cluster(&keys_parts, &agg_parts)?;
                env[c.keys_var] = Some(keys);
                for ((v, _), merged) in c.agg_vars.iter().zip(aggs) {
                    env[*v] = Some(merged);
                }
            }
        }

        // Merge-stage instructions.
        for &i in &plan.merge_instrs {
            let ins = &plan.mal.instrs[i];
            let arg_ids = ins.op.args();
            let args: Vec<&MalValue> = arg_ids
                .iter()
                .map(|&a| {
                    env[a].as_ref().ok_or_else(|| PlanError::Internal(format!("merge X_{a} unset")))
                })
                .collect::<Result<_, _>>()
                .map_err(DataCellError::Plan)?;
            let outs = eval_op(&ins.op, &args, &NoStreamCtx { par: self.par })?;
            for (d, v) in ins.dests.iter().zip(outs) {
                env[*d] = Some(v);
            }
        }

        let mut vals = Vec::with_capacity(plan.mal.result_vars.len());
        for &v in &plan.mal.result_vars {
            vals.push(
                env[v]
                    .take()
                    .ok_or_else(|| PlanError::Internal(format!("result X_{v} unset")))
                    .map_err(DataCellError::Plan)?,
            );
        }
        Ok(ResultSet::from_mal(plan.mal.result_names.clone(), vals)?)
    }

    /// All cached parts of a frontier variable (ring slots or matrix cells).
    fn collect_parts(&self, v: VarId) -> Result<Vec<MalValue>, DataCellError> {
        match self.plan.stages[v] {
            Stage::PerBw(_) => {
                Ok(self.rings.get(&v).map(|r| r.iter().cloned().collect()).unwrap_or_default())
            }
            Stage::Matrix => Ok(self
                .matrix
                .get(&v)
                .map(|m| m.iter().flat_map(|row| row.iter().cloned()).collect())
                .unwrap_or_default()),
            s => Err(DataCellError::Unsupported(format!("frontier X_{v} has stage {s:?}"))),
        }
    }

    /// Pop the oldest basic window (transition, Algorithm 2 line 20–21).
    fn expire_oldest(&mut self) {
        for ring in self.rings.values_mut() {
            ring.pop_front();
        }
        for m in self.matrix.values_mut() {
            m.pop_front(); // oldest left row
            for row in m.iter_mut() {
                row.pop_front(); // oldest right column
            }
        }
    }

    /// Push per-bw values into rings and compute new matrix cells.
    fn push_new_slots(
        &mut self,
        per_stream: Vec<HashMap<VarId, MalValue>>,
    ) -> Result<(), DataCellError> {
        for vals in per_stream {
            for (v, val) in vals {
                self.rings.get_mut(&v).expect("ring exists").push_back(val);
            }
        }
        if let Some((ls, rs)) = self.plan.matrix_pair {
            // Ring lengths after pushing: rows = left slots, cols = right.
            let rows = self.ring_len_for_stream(ls);
            let cols = self.ring_len_for_stream(rs);
            // Append an (empty) new row and extend all rows to `cols`.
            let mut new_cells: Vec<(usize, usize)> = Vec::new();
            for j in 0..cols {
                new_cells.push((rows - 1, j)); // new left row × all right
            }
            for i in 0..rows.saturating_sub(1) {
                new_cells.push((i, cols - 1)); // old left rows × new right col
            }
            for &(i, j) in &new_cells {
                let cell = self.eval_cell(i, j)?;
                for (v, val) in cell {
                    let m = self.matrix.get_mut(&v).expect("matrix ring exists");
                    while m.len() <= i {
                        m.push_back(VecDeque::new());
                    }
                    let row = &mut m[i];
                    debug_assert_eq!(row.len(), j, "cells fill left-to-right");
                    row.push_back(val);
                }
            }
        }
        Ok(())
    }

    fn ring_len_for_stream(&self, k: usize) -> usize {
        self.ring_vars
            .iter()
            .find(|&&v| matches!(self.plan.stages[v], Stage::PerBw(kk) if kk == k))
            .and_then(|v| self.rings.get(v))
            .map_or(self.advances + 1, std::collections::VecDeque::len)
    }

    /// Landmark fold: merge the new partials into the cumulative values.
    fn fold_landmark(
        &mut self,
        per_stream: Vec<HashMap<VarId, MalValue>>,
    ) -> Result<(), DataCellError> {
        let mut new_vals: HashMap<VarId, MalValue> = HashMap::new();
        for vals in per_stream {
            new_vals.extend(vals);
        }
        // Non-cluster frontier vars fold pairwise.
        let frontier = self.plan.frontier.clone();
        for &v in &frontier {
            if self.cluster_members.contains(&v) {
                continue;
            }
            let newv = new_vals
                .remove(&v)
                .ok_or_else(|| PlanError::Internal(format!("landmark X_{v} not produced")))
                .map_err(DataCellError::Plan)?;
            let folded = match self.cum.remove(&v) {
                None => newv,
                Some(cum) => merge_var(self.plan.kinds[v], &[cum, newv])?,
            };
            self.cum.insert(v, folded);
        }
        // Clusters fold as a unit.
        let clusters = self.plan.clusters.clone();
        for c in &clusters {
            let new_keys = new_vals
                .remove(&c.keys_var)
                .ok_or_else(|| PlanError::Internal("landmark cluster keys missing".into()))
                .map_err(DataCellError::Plan)?;
            let mut keys_parts = Vec::new();
            if let Some(cum) = self.cum.remove(&c.keys_var) {
                keys_parts.push(cum);
            }
            keys_parts.push(new_keys);
            let agg_parts: Vec<(datacell_kernel::algebra::AggKind, Vec<MalValue>)> = c
                .agg_vars
                .iter()
                .map(|&(v, kind)| {
                    let newa = new_vals
                        .remove(&v)
                        .ok_or_else(|| PlanError::Internal("landmark cluster agg missing".into()))
                        .map_err(DataCellError::Plan)?;
                    let mut parts = Vec::new();
                    if let Some(cum) = self.cum.remove(&v) {
                        parts.push(cum);
                    }
                    parts.push(newa);
                    Ok::<_, DataCellError>((kind, parts))
                })
                .collect::<Result<_, _>>()?;
            let (keys, aggs) = merge_cluster(&keys_parts, &agg_parts)?;
            self.cum.insert(c.keys_var, keys);
            for ((v, _), merged) in c.agg_vars.iter().zip(aggs) {
                self.cum.insert(*v, merged);
            }
        }
        Ok(())
    }

    /// Fold the accumulated chunk partials into one basic window's worth of
    /// ring values (the m-chunk merge).
    fn fold_chunks(&mut self) -> Result<Vec<HashMap<VarId, MalValue>>, DataCellError> {
        let chunk_rings = std::mem::take(&mut self.chunk_rings);
        let mut out: HashMap<VarId, MalValue> = HashMap::new();
        // Clusters fold via re-group.
        for c in &self.plan.clusters {
            if !self.ring_vars.contains(&c.keys_var) {
                continue;
            }
            let keys_parts = chunk_rings
                .get(&c.keys_var)
                .cloned()
                .ok_or_else(|| PlanError::Internal("chunk cluster keys missing".into()))
                .map_err(DataCellError::Plan)?;
            let agg_parts: Vec<(datacell_kernel::algebra::AggKind, Vec<MalValue>)> = c
                .agg_vars
                .iter()
                .map(|&(v, kind)| {
                    let parts = chunk_rings
                        .get(&v)
                        .cloned()
                        .ok_or_else(|| PlanError::Internal("chunk cluster agg missing".into()))
                        .map_err(DataCellError::Plan)?;
                    Ok::<_, DataCellError>((kind, parts))
                })
                .collect::<Result<_, _>>()?;
            let (keys, aggs) = merge_cluster(&keys_parts, &agg_parts)?;
            out.insert(c.keys_var, keys);
            for ((v, _), merged) in c.agg_vars.iter().zip(aggs) {
                out.insert(*v, merged);
            }
        }
        // Everything else folds by kind.
        for (&v, parts) in &chunk_rings {
            if out.contains_key(&v) {
                continue;
            }
            out.insert(v, merge_var(self.plan.kinds[v], parts)?);
        }
        self.chunks_done = 0;
        Ok(vec![out])
    }

    /// One count-based fire: ingest, evaluate, slide, merge.
    fn fire_count(&mut self) -> Result<FireOutcome, DataCellError> {
        let needed = self.needed().expect("count window");
        let t0 = Instant::now();
        // Ingest + per-bw (or per-chunk) evaluation.
        let mut per_stream = Vec::with_capacity(self.inputs.len());
        for k in 0..self.inputs.len() {
            let w = self.inputs[k].take(needed)?;
            per_stream.push(self.eval_perbw(k, &w)?);
        }

        // Chunked path: accumulate until the basic window completes.
        if self.current_m > 1 {
            let vals = per_stream.pop().expect("single stream with chunking");
            for (v, val) in vals {
                self.chunk_rings.entry(v).or_default().push(val);
            }
            self.chunks_done += 1;
            if self.chunks_done < self.current_m {
                if self.emitted == 0 {
                    self.preface_time += t0.elapsed();
                }
                return Ok(FireOutcome::Progressed);
            }
            let fold_start = Instant::now();
            per_stream = self.fold_chunks()?;
            // fold counts as merge work below via merge timer adjustment
            let _ = fold_start;
        }

        // Landmark: fold into cumulatives and emit every step.
        if self.window.is_landmark() {
            let main_plan = t0.elapsed();
            let t1 = Instant::now();
            self.fold_landmark(per_stream)?;
            let result = self.eval_merge()?;
            let merge = t1.elapsed();
            self.advances += 1;
            return Ok(self.produce(result, main_plan, merge));
        }

        // Sliding: transition, push, maybe merge.
        let n = self.n.expect("sliding window");
        if self.advances >= n {
            self.expire_oldest();
        }
        self.push_new_slots(per_stream)?;
        self.advances += 1;
        let main_plan = t0.elapsed();
        if self.advances < n {
            self.preface_time += main_plan;
            return Ok(FireOutcome::Progressed);
        }
        let t1 = Instant::now();
        let result = self.eval_merge()?;
        let merge = t1.elapsed();
        Ok(self.produce(result, main_plan, merge))
    }

    /// One time-based fire: the basic window is an arrival-time slice
    /// (possibly empty — "Empty basic windows are recognized and simply
    /// skipped" in the sense that they flow through as empty BATs).
    fn fire_time(&mut self, clock: Timestamp) -> Result<FireOutcome, DataCellError> {
        let step_ms = self.step_ms().expect("time window");
        let deadline = (self.advances as u64 + 1) * step_ms;
        if clock < deadline {
            return Ok(FireOutcome::NotReady);
        }
        let t0 = Instant::now();
        let mut per_stream = Vec::with_capacity(self.inputs.len());
        for k in 0..self.inputs.len() {
            let w = self.inputs[k].take_until_ts(deadline)?;
            per_stream.push(self.eval_perbw(k, &w)?);
        }

        if self.window.is_landmark() {
            let main_plan = t0.elapsed();
            let t1 = Instant::now();
            self.fold_landmark(per_stream)?;
            let result = self.eval_merge()?;
            let merge = t1.elapsed();
            self.advances += 1;
            return Ok(self.produce(result, main_plan, merge));
        }

        let n = self.n.expect("sliding window");
        if self.advances >= n {
            self.expire_oldest();
        }
        self.push_new_slots(per_stream)?;
        self.advances += 1;
        let main_plan = t0.elapsed();
        if self.advances < n {
            self.preface_time += main_plan;
            return Ok(FireOutcome::Progressed);
        }
        let t1 = Instant::now();
        let result = self.eval_merge()?;
        let merge = t1.elapsed();
        Ok(self.produce(result, main_plan, merge))
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
            let next_m = chunker.observe(metrics.total);
            let WindowSpec::CountSliding { step, .. } = self.window else {
                unreachable!("chunking validated at construction")
            };
            self.current_m = next_m.min(step).max(1);
        }
        FireOutcome::Produced { result, metrics }
    }
}

/// Size of chunk `idx` out of `m` chunks over `step` tuples: all chunks are
/// `step / m` except the last, which absorbs the remainder.
fn chunk_size(step: usize, m: usize, idx: usize) -> usize {
    let base = step / m;
    if idx + 1 == m {
        step - base * (m - 1)
    } else {
        base.max(1)
    }
}

impl Factory for IncrementalFactory {
    fn label(&self) -> &str {
        &self.label
    }

    fn ready(&self, clock: Timestamp) -> bool {
        match self.needed() {
            Some(needed) => self.inputs.iter().all(|i| i.available() >= needed),
            None => {
                let step_ms = self.step_ms().expect("time window");
                clock >= (self.advances as u64 + 1) * step_ms
            }
        }
    }

    fn fire(&mut self, clock: Timestamp) -> Result<FireOutcome, DataCellError> {
        if !self.ready(clock) {
            return Ok(FireOutcome::NotReady);
        }
        if self.needed().is_some() {
            self.fire_count()
        } else {
            self.fire_time(clock)
        }
    }

    fn consumed_upto(&self, stream: &str) -> Option<Oid> {
        self.inputs.iter().find(|i| i.name == stream).map(|i| i.consumed)
    }

    fn input_streams(&self) -> Vec<String> {
        self.inputs.iter().map(|i| i.name.clone()).collect()
    }

    fn set_par_config(&mut self, par: ParConfig) {
        self.par = par;
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
        IncrementalFactory::new("q", inc, window, inputs, HashMap::new(), chunker).unwrap()
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
