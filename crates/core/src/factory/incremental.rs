//! The incremental factory — the DataCell runtime of Algorithm 2.
//!
//! The runtime is three ideas, and the factory holds exactly one of each:
//!
//! * **One segment walker.** Every piece of an [`IncrementalPlan`] — the
//!   static segment at registration, the per-basic-window segment, the
//!   per-slot segment of a two-stream join (Fig. 3e) and the merge segment
//!   — runs through [`exec::run_segment`]. What differs is only which
//!   instructions it walks and where it borrows the variables they do not
//!   define: statics, the new ring slot, or the merged frontier. Cached
//!   values are lent by reference, never copied into the walk.
//! * **One frontier merge.** Partials meet at three levels — ring slots
//!   into the window, `[cumulative, new]` into a landmark window, chunk
//!   partials into one basic window (the m-chunk optimization of §3,
//!   driven by the [`AdaptiveChunker`]) — and all three are
//!   [`merge_frontier`] over a different list of parts.
//! * **One slide step.** [`Factory::fire`] takes one basic window (or one
//!   chunk of it) per stream, by count or by deadline — the only place the
//!   window flavours differ — runs the per-bw segment, and then does the
//!   **transition** of Algorithm 2 lines 20–21: the oldest ring slot pops
//!   off the front, the new one pushes onto the back (folding in the join
//!   cells the slide adds), and once the window is complete the frontier
//!   is merged and the merge segment produces the result. A landmark
//!   window is the same step without expiry: its ring collapses to the
//!   merged cumulative after every slide.
//!
//! **A join keeps n ring slots, not an n × n matrix.** Cell `(i, j)` of
//! Fig. 3e — basic window `i` of the left stream joined with basic window
//! `j` of the right — enters when its newer slot arrives and leaves when
//! its older slot `min(i, j)` expires (the bilinear rule of DBSP). So a
//! slide that pushes slot `t` adds, for every live slot `e`, the cells
//! `(t, e)` and `(e, t)`, and they expire with slot `e`: they are folded
//! ([`fold_part`]) into ring slot `e` of every join frontier variable as
//! soon as they are made, and the window merge reads `n` parts.
//!
//! **The new cells are one strip, probed once.** The join that enters the
//! matrix ([`IncrementalPlan::is_entry_join`]) is not walked per cell. Each
//! joined stream has a [`JoinIndex`] over the join keys of its whole
//! window, one run per ring slot, pushed and expired with the rings. On a
//! slide the new left keys probe the right stream's index — every cell of
//! the new row at once — and the new right keys probe the left stream's
//! index as it stood before this slide — the rest of the new column:
//! `2 × step` probe rows instead of `(2n − 1) × step`. The index hands back
//! matching positions grouped by run, that is by expiry slot. Per slot,
//! the strip gathers the join's outputs and every *pair fetch*
//! ([`IncrementalPlan::pair_sides`]) straight from those positions, each
//! row read from the basic window its cell names; what is left of the
//! matrix segment then runs once per slot over the gathered columns.
//!
//! Part order is fixed: rings oldest → newest; within a join slot, its
//! cells in the order they were made, the row cell before the column cell.
//! `SlideMetrics::main_plan` covers ingest, per-bw/per-slot evaluation,
//! the chunk fold and the transition; `merge` covers the frontier merge
//! and the merge segment.

use super::{Factory, FireOutcome, SegmentCtx, Step, StreamInput};
use crate::adaptive::AdaptiveChunker;
use crate::error::DataCellError;
use crate::merge::{fold_part, merge_frontier};
use crate::metrics::SlideMetrics;
use crate::rewrite::{IncrementalPlan, Stage};
use datacell_basket::{BasicWindow, Timestamp};
use datacell_kernel::algebra::{self, JoinIndex, RunHits};
use datacell_kernel::{Bat, Column, Oid, ParConfig, Table};
use datacell_plan::exec::{self, ExecCtx};
use datacell_plan::{MalOp, MalValue, ResultSet, VarId, WindowSpec};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// The values one segment run caches: ring variable → value.
type Slot = Vec<(VarId, MalValue)>;

/// Most rows a join index is sized for at registration (24 MB of index).
const PRESIZED_ROWS: usize = 1 << 20;

/// A pair fetch: `dest := fetch(cands, values)`, `values` a per-bw
/// variable of joined side `side`.
struct PairFetch {
    dest: VarId,
    cands: VarId,
    values: VarId,
    side: usize,
}

/// The entry join of a two-stream join and the sliding state that answers
/// it, with its pair fetches, per strip. Side 0 is the left stream, 1 the
/// right.
struct Strip {
    /// The join's inputs: per side, the ring variable holding its keys.
    keys: [VarId; 2],
    /// The join's outputs: per side, the candidates the pair fetches
    /// start from.
    pairs: [VarId; 2],
    /// Every pair fetch, in program order (a chain's first link before
    /// the next).
    fetches: Vec<PairFetch>,
    /// One index per side over its ring of keys, one run per slot.
    /// Between slides the two hold as many runs as the rings hold slots.
    index: [JoinIndex; 2],
}

impl Strip {
    /// Index the new basic window of both streams and join it against the
    /// window: the new row (new left keys against every right slot) and
    /// the rest of the new column (new right keys against every older
    /// left slot), each grouped by the other side's slot. `rings` already
    /// hold the new slots.
    fn slide(&mut self, rings: &[VecDeque<MalValue>]) -> Result<[RunHits; 2], DataCellError> {
        let slots = |v: VarId| {
            rings[v].iter().map(|val| val.as_bat("join keys")).collect::<Result<Vec<&Bat>, _>>()
        };
        let (left, right) = (slots(self.keys[0])?, slots(self.keys[1])?);
        let (new_left, older_left) = left.split_last().expect("the rings hold the new slot");
        let new_right = right[left.len() - 1];
        let [left_index, right_index] = &mut self.index;
        right_index.push(new_right)?;
        let row = right_index.probe(&right, new_left)?;
        let col = left_index.probe(older_left, new_right)?;
        left_index.push(new_left)?;
        Ok([row, col])
    }

    /// The env of slot `e`'s segment run: the join's outputs and every
    /// pair fetch over the cells that expire with slot `e`, the row cell
    /// `(t, e)` then the column cell `(e, t)` (none when `e == t`), each
    /// row read from the basic window its cell names.
    fn gather(
        &self,
        rings: &[VecDeque<MalValue>],
        [row, col]: &[RunHits; 2],
        e: usize,
        nvars: usize,
    ) -> Result<Vec<Option<MalValue>>, DataCellError> {
        let t = row.runs() - 1;
        let (row_right, row_left) = row.run(e);
        let (col_left, col_right) = if e < t { col.run(e) } else { (&[][..], &[][..]) };
        // Per side, its `(slot, positions)` in the row cell and in the
        // column cell.
        let cells = [[(t, row_left), (e, col_left)], [(e, row_right), (t, col_right)]];
        let split = row_left.len();
        let bat = |v: VarId, slot: usize| rings[v][slot].as_bat("pair fetch");
        let mut env: Vec<Option<MalValue>> = vec![None; nvars];
        for (side, parts) in cells.iter().enumerate() {
            let mut oids: Vec<Oid> = Vec::with_capacity(split + parts[1].1.len());
            for &(slot, positions) in parts {
                let keys = bat(self.keys[side], slot)?;
                oids.extend(positions.iter().map(|&p| keys.oid_at(p as usize)));
            }
            env[self.pairs[side]] = Some(MalValue::Bat(Bat::transient(Column::Oid(oids))));
        }
        for f in &self.fetches {
            let cands = env[f.cands].as_ref().expect("gathered in program order");
            let (row_cands, col_cands) = cands.as_bat("pair fetch")?.tail.as_oid()?.split_at(split);
            let [(row_slot, _), (col_slot, _)] = cells[f.side];
            let mut gathered = algebra::fetch_oids(row_cands, bat(f.values, row_slot)?)?;
            if !col_cands.is_empty() {
                let mut rest = algebra::fetch_oids(col_cands, bat(f.values, col_slot)?)?;
                gathered.append_owned(&mut rest)?;
            }
            env[f.dest] = Some(MalValue::Bat(Bat::transient(gathered)));
        }
        Ok(env)
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
    /// Cached intermediates: `rings[var][slot]`, oldest slot first (empty
    /// for variables that are not cached). A per-bw variable holds its
    /// basic window's value; a join frontier variable holds the cells that
    /// expire with the slot, folded into one part. A landmark window keeps
    /// one slot per frontier variable: the cumulative.
    rings: Vec<VecDeque<MalValue>>,
    /// Ring variables (cached per slot) by producing stream.
    ring_vars: Vec<Vec<VarId>>,
    /// Join frontier variables, one ring slot per basic window.
    matrix_vars: Vec<VarId>,
    /// The join's entry and pair fetches, evaluated per strip.
    strip: Option<Strip>,
    /// The matrix instructions evaluated per slot: all but the strip's.
    slot_instrs: Vec<usize>,
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
        // A count-based window retains at most its own size per stream, so
        // its indexes are sized once, here; a time-based or very large one
        // grows them as rows arrive.
        let window_rows = window
            .basic_windows()
            .zip(window.step_count())
            .map_or(0, |(n, step)| n * step)
            .min(PRESIZED_ROWS);
        // `rewrite` admits a matrix only behind exactly one entry join.
        let sides = plan.pair_sides();
        let strip = plan.matrix_instrs.iter().find(|&&i| plan.is_entry_join(i)).map(|&join| {
            let ins = &plan.mal.instrs[join];
            let args = ins.op.args();
            let fetches = plan.matrix_instrs.iter().filter_map(|&i| {
                let ins = &plan.mal.instrs[i];
                let MalOp::Fetch { cands, values } = ins.op else { return None };
                let side = sides[ins.dests[0]]?;
                Some(PairFetch { dest: ins.dests[0], cands, values, side })
            });
            Strip {
                keys: [args[0], args[1]],
                pairs: [ins.dests[0], ins.dests[1]],
                fetches: fetches.collect(),
                index: [(); 2].map(|_| JoinIndex::with_capacity(window_rows)),
            }
        });
        Ok(IncrementalFactory {
            label: label.into(),
            window,
            inputs,
            statics,
            rings: vec![VecDeque::new(); nvars],
            ring_vars,
            matrix_vars: plan.matrix_ring_vars(),
            strip,
            slot_instrs: plan.slot_instrs(),
            advances: 0,
            emitted: 0,
            chunker,
            chunk_parts: vec![Vec::new(); nvars],
            chunks_done: 0,
            preface_time: Duration::ZERO,
            par,
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

    /// Run `instrs` over `env`, borrowing the statics they do not define,
    /// and take the values of `outs`.
    fn eval_segment(
        &self,
        instrs: &[usize],
        mut env: Vec<Option<MalValue>>,
        outs: &[VarId],
        ctx: &dyn ExecCtx,
    ) -> Result<Slot, DataCellError> {
        let statics = |v: VarId| self.statics[v].as_ref();
        exec::run_segment(&self.plan.mal, instrs.iter().copied(), &mut env, statics, ctx)?;
        take_slot(&mut env, outs)
    }

    /// Run the per-bw segment of stream `k` over one basic window; returns
    /// the ring-var values produced.
    fn eval_perbw(&self, k: usize, w: &BasicWindow) -> Result<Slot, DataCellError> {
        let ctx =
            SegmentCtx { windows: &[(&self.plan.mal.streams[k], w)], tables: None, par: self.par };
        let env = vec![None; self.plan.mal.nvars];
        self.eval_segment(&self.plan.perbw_instrs[k], env, &self.ring_vars[k], &ctx)
    }

    /// Run the per-slot segment over `env`, the strip's gather for one
    /// slot, and take the join frontier values it makes. The segment reads
    /// no per-bw variable (`rewrite` guarantees it): only the gathered
    /// columns and statics.
    fn eval_slot(&self, env: Vec<Option<MalValue>>) -> Result<Slot, DataCellError> {
        let ctx = SegmentCtx { windows: &[], tables: None, par: self.par };
        self.eval_segment(&self.slot_instrs, env, &self.matrix_vars, &ctx)
    }

    /// Merge the frontier over the rings, run the merge segment over the
    /// merged values and assemble the window result.
    fn merge_window(&mut self) -> Result<ResultSet, DataCellError> {
        let plan = &self.plan;
        // Held back on purpose: the window's parts are copied out of the
        // rings before they are merged, although `merge_frontier` only
        // borrows them. Lending them in place is 1.3–1.6× on wirebench's
        // `small_slide_groupby`, which pushes that workload over a cliff
        // in the harness: its `ReaderLog::arrivals` is
        // `Vec::with_capacity(1 << 20)` and reallocates once the 12 s of
        // saturating phases in a 24 s run pass ≈4.7 M rows/s ((2^20 −
        // 168 750 paced windows) × 64 rows / 12 s ≈ 4.69 M), stepping
        // `peak_rss_mb` past its 0.2 bound. It lands with the harness fix,
        // as a claimed gain (ROADMAP, Next directions 1).
        let mut held: Vec<Vec<MalValue>> = vec![Vec::new(); plan.mal.nvars];
        for &v in &plan.frontier {
            held[v] = self.rings[v].iter().cloned().collect();
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

    /// Pop the oldest basic window: every ring's oldest slot, the join
    /// cells that expire with it included.
    fn expire_oldest(&mut self) {
        for ring in &mut self.rings {
            ring.pop_front();
        }
        if let Some(strip) = &mut self.strip {
            strip.index.iter_mut().for_each(JoinIndex::expire);
        }
    }

    /// Push the new basic window's values onto the rings and fold the join
    /// cells it adds into the slots that expire them.
    fn push_new_slots(&mut self, new: Slot) -> Result<(), DataCellError> {
        for (v, val) in new {
            self.rings[v].push_back(val);
        }
        let Some(strip) = &mut self.strip else { return Ok(()) };
        let hits = strip.slide(&self.rings)?;
        let strip = self.strip.as_ref().expect("sliding above");
        let t = hits[0].runs() - 1;
        for e in 0..=t {
            // A slot no new cell matched folds in nothing: every merge
            // rule keeps a part as it is under an empty one.
            if e < t && hits[0].run(e).0.is_empty() && hits[1].run(e).0.is_empty() {
                continue;
            }
            let cells =
                self.eval_slot(strip.gather(&self.rings, &hits, e, self.plan.mal.nvars)?)?;
            if e == t {
                for (v, val) in cells {
                    self.rings[v].push_back(val);
                }
                continue;
            }
            // Lend slot `e` of every join frontier variable to the fold.
            let mut held: Vec<Option<MalValue>> = vec![None; self.plan.mal.nvars];
            let mut new: Vec<Option<MalValue>> = vec![None; self.plan.mal.nvars];
            for (v, val) in cells {
                held[v] = Some(std::mem::replace(&mut self.rings[v][e], MalValue::Absent));
                new[v] = Some(val);
            }
            fold_part(&self.plan, &mut held, new)?;
            for &v in &self.matrix_vars {
                self.rings[v][e] = held[v].take().expect("folded in place");
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
        ShardedBasket::new(Basket::new("s", &[("x1", DataType::Int), ("x2", DataType::Int)]))
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
            ShardedBasket::new(Basket::new("a", &[("k", DataType::Int), ("v", DataType::Int)]));
        let bb =
            ShardedBasket::new(Basket::new("b", &[("k", DataType::Int), ("v", DataType::Int)]));
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
    fn join_state_is_n_ring_slots_per_frontier_variable() {
        // Per slide, the new cells fold into the slots that expire them:
        // after every window each join frontier variable holds exactly one
        // part per basic window, never a part per cell.
        let step = 3;
        for n in [4usize, 32] {
            let plan = LogicalPlan::stream("a")
                .join(LogicalPlan::stream("b"), col("a", "k"), col("b", "k"))
                .aggregate(
                    Some(col("a", "k")),
                    vec![
                        AggExpr::new(AggKind::Max, col("a", "v"), "mx"),
                        AggExpr::new(AggKind::Avg, col("b", "v"), "av"),
                    ],
                );
            let inc = rewrite(&compile(&plan).unwrap()).unwrap();
            let schema = [("k", DataType::Int), ("v", DataType::Int)];
            let (ba, bb) = (Basket::new("a", &schema), Basket::new("b", &schema));
            let (ba, bb) = (ShardedBasket::new(ba), ShardedBasket::new(bb));
            let rows = (n + 5) * step;
            let keys: Vec<i64> = (0..rows as i64).map(|i| i % 5).collect();
            let vals: Vec<i64> = (0..rows as i64).collect();
            for b in [&ba, &bb] {
                b.append(&[Column::Int(keys.clone()), Column::Int(vals.clone())], 0).unwrap();
            }
            let inputs = vec![StreamInput::new("a", ba), StreamInput::new("b", bb)];
            let window = WindowSpec::CountSliding { size: n * step, step };
            let par = ParConfig::sequential();
            let mut f =
                IncrementalFactory::new("q", inc, window, inputs, HashMap::new(), None, par)
                    .unwrap();
            assert_eq!(f.matrix_vars.len(), 4, "keys, max, and avg's sum and count");
            let mut produced = 0;
            while let FireOutcome::Produced { .. } | FireOutcome::Progressed = f.fire(0).unwrap() {
                if f.advances < n {
                    continue;
                }
                produced += 1;
                for &v in f.matrix_vars.iter().chain(f.ring_vars.iter().flatten()) {
                    assert_eq!(f.rings[v].len(), n, "n = {n}: X_{v} after window {produced}");
                }
            }
            assert_eq!(produced, 6);
        }
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
        let ba = ShardedBasket::new(Basket::new("a", &[("k", DataType::Int)]));
        let bb = ShardedBasket::new(Basket::new("b", &[("k", DataType::Int)]));
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
