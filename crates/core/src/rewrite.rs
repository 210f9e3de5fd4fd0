//! The DataCell incremental plan rewriter.
//!
//! This module implements the paper's §3: take the *normal* MAL plan the
//! SQL compiler/optimizer produced and classify it into the segments of an
//! incremental plan (Fig. 2/3):
//!
//! 1. **Split** the input stream into `n = |W|/|w|` basic windows — done at
//!    runtime by the factory; the rewriter decides *what runs where*.
//! 2. **Replicate** as much of the plan as possible so it runs independently
//!    per basic window ("the goal is to split the plan as deep as
//!    possible"). Replicable instructions are classified `PerBw`.
//! 3. **Merge** partial results with `concat` plus a per-operator
//!    *compensating action* (re-aggregation, re-grouping, re-sorting,
//!    summing partial counts). Instructions that must see merged data are
//!    classified `Merge`; the boundary variables between the two worlds are
//!    the *frontier*, whose per-basic-window values the runtime caches in
//!    rings and merges per slide.
//! 4. **Transition** — shifting the cached intermediates as the window
//!    slides — is pure runtime bookkeeping on the rings (see
//!    `factory::incremental`).
//!
//! Multi-stream joins get the n×n replication of Fig. 3(e): the join (and
//! everything downstream of it that is still replicable) is classified
//! `Matrix` and yields one value per pair of basic windows. The join that
//! enters the matrix ([`IncrementalPlan::is_entry_join`]) is evaluated per
//! strip — the new row and column at once; what follows it runs per cell.
//!
//! `avg` is *expanded* (Fig. 3c) by a MAL→MAL pre-pass into `sum`+`count`
//! flows merged by a division.

use crate::error::DataCellError;
use datacell_kernel::algebra::{AggKind, ArithOp};
use datacell_plan::{Instr, MalOp, MalPlan, VarId};

/// Which part of the incremental plan computes a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Computed once at registration (persistent table binds and anything
    /// derived only from them).
    Static,
    /// Computed once per basic window of stream `k` (index into
    /// [`MalPlan::streams`]).
    PerBw(usize),
    /// Computed once per *pair* of basic windows (two-stream join flows).
    Matrix,
    /// Computed once per slide, over merged frontier values.
    Merge,
}

/// What a variable's value *is*, semantically — this decides the merge rule
/// applied when the variable crosses the per-basic-window → merge frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// Row-faithful data: concatenating per-basic-window values yields
    /// exactly the whole-window value ("simple concatenation" category:
    /// select, fetch, map results).
    Rows,
    /// A partial scalar aggregate; merged by the compensating aggregate
    /// (paper: "applying the very operation ... also on the concatenated
    /// result", count compensated by sum).
    PartialScalar(AggKind),
    /// Per-group partial aggregate column, member of its `GroupAgg`
    /// node's cluster (merged by re-grouping).
    GroupedPartial(AggKind),
    /// Per-basic-window distinct group keys (merged by re-grouping).
    GroupKeysPartial,
    /// Per-basic-window distinct rows; merged by `distinct(concat(...))`.
    DistinctRows,
    /// Per-basic-window sorted rows; merged by `sort(concat(...))`.
    SortedRows {
        /// Sort direction.
        desc: bool,
    },
    /// Computed in the merge stage or statically; no merge rule needed.
    Plain,
}

impl VarKind {
    /// Member of a `GroupAgg` node's [`Cluster`]: merged with its siblings
    /// by re-grouping, never on its own.
    pub fn is_cluster_member(self) -> bool {
        matches!(self, VarKind::GroupedPartial(_) | VarKind::GroupKeysPartial)
    }
}

/// One group-by cluster — the destinations of a `GroupAgg` node whose
/// partials cross the merge frontier. Merged as a unit (Fig. 3d):
/// concat the per-part distinct keys, re-group, compensate each
/// aggregate member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// The fused node's keys destination (per-bw distinct keys).
    pub keys_var: VarId,
    /// Aggregate member variables and their kinds.
    pub agg_vars: Vec<(VarId, AggKind)>,
}

/// One unit of the merge frontier: the variables merged together, and by
/// which rule. [`IncrementalPlan::merge_units`] is the table that both
/// [`crate::merge::merge_frontier`] dispatches on and
/// [`IncrementalPlan::explain`] prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeUnit<'p> {
    /// A variable merged on its own, by its kind.
    Var(VarId, VarKind),
    /// A group-by cluster, re-grouped as a unit.
    Cluster(&'p Cluster),
}

impl std::fmt::Display for MergeUnit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeUnit::Var(v, kind) => {
                write!(f, "X_{v}: ")?;
                match kind {
                    VarKind::Rows => f.write_str("concat"),
                    VarKind::PartialScalar(k) => {
                        write!(
                            f,
                            "{} of partials",
                            k.compensation().map_or("no merge", |c| c.sql())
                        )
                    }
                    VarKind::DistinctRows => f.write_str("distinct(concat)"),
                    VarKind::SortedRows { desc: false } => f.write_str("sort(concat)"),
                    VarKind::SortedRows { desc: true } => f.write_str("sort desc(concat)"),
                    _ => f.write_str("no merge rule"),
                }
            }
            MergeUnit::Cluster(c) => {
                write!(f, "X_{}", c.keys_var)?;
                for (v, _) in &c.agg_vars {
                    write!(f, ",X_{v}")?;
                }
                f.write_str(": regroup [keys")?;
                for (_, k) in &c.agg_vars {
                    write!(f, ", {}", k.sql())?;
                }
                f.write_str("]")
            }
        }
    }
}

/// The rewritten plan: the original program plus the classification that
/// tells the incremental runtime what to run per basic window, per pair,
/// and per slide.
#[derive(Debug, Clone)]
pub struct IncrementalPlan {
    /// The (avg-expanded) MAL program.
    pub mal: MalPlan,
    /// Stage per variable.
    pub stages: Vec<Stage>,
    /// Kind per variable.
    pub kinds: Vec<VarKind>,
    /// Instructions evaluated once at registration.
    pub static_instrs: Vec<usize>,
    /// Instructions evaluated per new basic window, grouped by stream index.
    pub perbw_instrs: Vec<Vec<usize>>,
    /// Instructions evaluated per new (left, right) basic-window pair.
    pub matrix_instrs: Vec<usize>,
    /// Instructions evaluated per slide over merged data.
    pub merge_instrs: Vec<usize>,
    /// Frontier variables: flow variables whose per-bw (or per-cell) values
    /// are cached and merged.
    pub frontier: Vec<VarId>,
    /// Per-bw variables that matrix cells read (join inputs); cached in
    /// rings even if not themselves merged.
    pub ring_only: Vec<VarId>,
    /// Group-by clusters.
    pub clusters: Vec<Cluster>,
    /// Stream indices joined by the (single) matrix join, if any.
    pub matrix_pair: Option<(usize, usize)>,
}

impl IncrementalPlan {
    /// All per-bw variables the runtime must cache per basic window.
    pub fn ring_vars(&self) -> Vec<VarId> {
        let mut out: Vec<VarId> = self
            .frontier
            .iter()
            .copied()
            .filter(|&v| matches!(self.stages[v], Stage::PerBw(_)))
            .collect();
        for &v in &self.ring_only {
            push_unique(&mut out, v);
        }
        out
    }

    /// Frontier variables living in the join matrix.
    pub fn matrix_ring_vars(&self) -> Vec<VarId> {
        self.frontier.iter().copied().filter(|&v| self.stages[v] == Stage::Matrix).collect()
    }

    /// Is instruction `i` an *entry join* — the matrix join whose two
    /// inputs are still per-basic-window values, the left stream's and the
    /// right stream's? The runtime evaluates it once per slide for the
    /// whole new row and column of the matrix (a strip) through a join
    /// index per stream, not once per cell; every other matrix instruction
    /// runs per cell.
    pub fn is_entry_join(&self, i: usize) -> bool {
        let ins = &self.mal.instrs[i];
        matches!(ins.op, MalOp::Join { .. })
            && self.stages[ins.dests[0]] == Stage::Matrix
            && ins.op.args().iter().all(|&a| matches!(self.stages[a], Stage::PerBw(_)))
    }

    /// The frontier as merge units: every variable that merges on its own
    /// (frontier order), then every cluster.
    pub fn merge_units(&self) -> impl Iterator<Item = MergeUnit<'_>> {
        let alone = self
            .frontier
            .iter()
            .map(|&v| (v, self.kinds[v]))
            .filter(|(_, kind)| !kind.is_cluster_member())
            .map(|(v, kind)| MergeUnit::Var(v, kind));
        alone.chain(self.clusters.iter().map(MergeUnit::Cluster))
    }

    /// Render the incremental plan: the MAL program annotated with stages —
    /// the textual analogue of the paper's Fig. 3 right-hand sides — then
    /// one line per merge unit with its merge rule.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str("incremental plan (stage | instruction):\n");
        for (i, ins) in self.mal.instrs.iter().enumerate() {
            let tag = match self.stages[ins.dests[0]] {
                Stage::Static => "static ".to_owned(),
                Stage::PerBw(k) => format!("per-bw[{k}]"),
                Stage::Matrix if self.is_entry_join(i) => "per-strip".to_owned(),
                Stage::Matrix => "per-cell".to_owned(),
                Stage::Merge => "merge  ".to_owned(),
            };
            let dests: Vec<String> = ins.dests.iter().map(|d| format!("X_{d}")).collect();
            out.push_str(&format!("{tag} | {} := {}\n", dests.join(", "), ins.op.name()));
        }
        out.push_str(&format!(
            "frontier: {:?}\nclusters: {}\n",
            self.frontier,
            self.clusters.len()
        ));
        for unit in self.merge_units() {
            out.push_str(&format!("merge {unit}\n"));
        }
        out
    }
}

fn push_unique(vars: &mut Vec<VarId>, v: VarId) {
    if !vars.contains(&v) {
        vars.push(v);
    }
}

/// Expand `avg` into `sum` + `count` + divide (the paper's *expanding
/// replication*, Fig. 3c) as a MAL→MAL rewrite, keeping all other
/// instructions and variable ids intact.
pub fn expand_avg(plan: &MalPlan) -> MalPlan {
    let mut nvars = plan.nvars;
    let mut instrs = Vec::with_capacity(plan.instrs.len());
    for ins in &plan.instrs {
        match &ins.op {
            MalOp::ScalarAgg { kind: AggKind::Avg, vals } => {
                let s = nvars;
                let c = nvars + 1;
                nvars += 2;
                instrs.push(Instr {
                    dests: vec![s],
                    op: MalOp::ScalarAgg { kind: AggKind::Sum, vals: *vals },
                });
                instrs.push(Instr {
                    dests: vec![c],
                    op: MalOp::ScalarAgg { kind: AggKind::Count, vals: *vals },
                });
                instrs.push(Instr {
                    dests: ins.dests.clone(),
                    op: MalOp::DivScalar { num: s, den: c },
                });
            }
            MalOp::GroupAgg { keys, aggs } if aggs.iter().any(|(k, _)| *k == AggKind::Avg) => {
                // Expand each avg slot of the node into a sum slot
                // + a count slot (fresh destinations) and divide them
                // into the original avg destination right after the node.
                let mut new_aggs = Vec::with_capacity(aggs.len() + 1);
                let mut new_dests = vec![ins.dests[0]];
                let mut divs = Vec::new();
                for ((kind, vals), &dest) in aggs.iter().zip(&ins.dests[1..]) {
                    match kind {
                        AggKind::Avg => {
                            let s = nvars;
                            let c = nvars + 1;
                            nvars += 2;
                            new_aggs.push((AggKind::Sum, *vals));
                            new_aggs.push((AggKind::Count, None));
                            new_dests.push(s);
                            new_dests.push(c);
                            divs.push((s, c, dest));
                        }
                        k => {
                            new_aggs.push((*k, *vals));
                            new_dests.push(dest);
                        }
                    }
                }
                instrs.push(Instr {
                    dests: new_dests,
                    op: MalOp::GroupAgg { keys: *keys, aggs: new_aggs },
                });
                for (s, c, d) in divs {
                    instrs.push(Instr {
                        dests: vec![d],
                        op: MalOp::MapArith { left: s, right: c, op: ArithOp::Div },
                    });
                }
            }
            _ => instrs.push(ins.clone()),
        }
    }
    MalPlan {
        instrs,
        result_names: plan.result_names.clone(),
        result_vars: plan.result_vars.clone(),
        nvars,
        streams: plan.streams.clone(),
    }
}

/// Classify a normal plan into an incremental plan.
///
/// Errors with [`DataCellError::Unsupported`] for shapes outside the
/// incremental rewriter's reach (more than one stream-stream join, ops that
/// mix two streams without a join, landmark joins are rejected later by the
/// factory). Callers can fall back to re-evaluation mode for those.
pub fn rewrite(plan: &MalPlan) -> Result<IncrementalPlan, DataCellError> {
    // Expand avg so every aggregate has a compensating action. The pass
    // runs under the differential verifier (`checked_pass`): a
    // structurally broken plan is rejected at the pass boundary that
    // produced it, with the pass name in the diagnostic.
    let mal =
        datacell_plan::checked_pass("expand_avg", plan, expand_avg).map_err(DataCellError::Plan)?;
    mal.validate().map_err(DataCellError::Plan)?;
    let n_streams = mal.streams.len();
    let mut stages: Vec<Stage> = vec![Stage::Static; mal.nvars];
    let mut kinds: Vec<VarKind> = vec![VarKind::Plain; mal.nvars];
    let mut matrix_pair: Option<(usize, usize)> = None;

    // -- stage/kind classification, one instruction at a time (the
    //    paper's "greedy manner ... consumes one operator of the target
    //    plan at a time").
    for ins in &mal.instrs {
        let (stage, kind) = classify(&ins.op, &stages, &kinds, &mal, &mut matrix_pair)?;
        match (&ins.op, stage) {
            // A replicated group-agg writes mixed kinds: distinct keys
            // first, then one grouped partial per aggregate.
            (MalOp::GroupAgg { aggs, .. }, Stage::PerBw(_) | Stage::Matrix) => {
                stages[ins.dests[0]] = stage;
                kinds[ins.dests[0]] = VarKind::GroupKeysPartial;
                for ((k, _), &d) in aggs.iter().zip(&ins.dests[1..]) {
                    stages[d] = stage;
                    kinds[d] = VarKind::GroupedPartial(*k);
                }
            }
            _ => {
                for &d in &ins.dests {
                    stages[d] = stage;
                    kinds[d] = kind;
                }
            }
        }
    }

    // -- segment assignment per instruction.
    let mut static_instrs = Vec::new();
    let mut perbw_instrs: Vec<Vec<usize>> = vec![Vec::new(); n_streams];
    let mut matrix_instrs = Vec::new();
    let mut merge_instrs = Vec::new();
    for (i, ins) in mal.instrs.iter().enumerate() {
        match stages[ins.dests[0]] {
            Stage::Static => static_instrs.push(i),
            Stage::PerBw(k) => perbw_instrs[k].push(i),
            Stage::Matrix => matrix_instrs.push(i),
            Stage::Merge => merge_instrs.push(i),
        }
    }

    // -- frontier: flow vars read by merge instrs, plus flow result vars.
    let mut frontier: Vec<VarId> = Vec::new();
    let merge_args = merge_instrs.iter().flat_map(|&i| mal.instrs[i].op.args());
    for v in merge_args.chain(mal.result_vars.iter().copied()) {
        if matches!(stages[v], Stage::PerBw(_) | Stage::Matrix) {
            push_unique(&mut frontier, v);
        }
    }

    // -- ring-only vars: per-bw vars read by matrix instructions.
    let mut ring_only = Vec::new();
    for &i in &matrix_instrs {
        for a in mal.instrs[i].op.args() {
            if matches!(stages[a], Stage::PerBw(_)) {
                push_unique(&mut ring_only, a);
            }
        }
    }

    // -- group clusters: every per-bw/matrix GroupAgg node whose members
    //    touch the frontier. A frontier member pulls the whole cluster
    //    into the frontier (keys are needed to re-group partials), so a
    //    grouped partial never crosses the frontier outside a cluster.
    let mut clusters = Vec::new();
    for ins in &mal.instrs {
        let MalOp::GroupAgg { aggs, .. } = &ins.op else { continue };
        let keys_var = ins.dests[0];
        if !matches!(stages[keys_var], Stage::PerBw(_) | Stage::Matrix) {
            continue;
        }
        let agg_vars: Vec<(VarId, AggKind)> =
            ins.dests[1..].iter().zip(aggs).map(|(&d, &(k, _))| (d, k)).collect();
        let any_frontier =
            frontier.contains(&keys_var) || agg_vars.iter().any(|(v, _)| frontier.contains(v));
        if !any_frontier {
            continue;
        }
        // All members must be cached to allow re-grouping.
        for v in std::iter::once(keys_var).chain(agg_vars.iter().map(|(v, _)| *v)) {
            push_unique(&mut frontier, v);
        }
        clusters.push(Cluster { keys_var, agg_vars });
    }

    let inc = IncrementalPlan {
        mal,
        stages,
        kinds,
        static_instrs,
        perbw_instrs,
        matrix_instrs,
        merge_instrs,
        frontier,
        ring_only,
        clusters,
        matrix_pair,
    };
    // Close the loop: under the verifier, the classification itself is a
    // pass whose output must satisfy the ring-variable discipline.
    if datacell_plan::verify::enabled() {
        verify_incremental(&inc)?;
    }
    Ok(inc)
}

/// Verify the ring-variable discipline and segment/stage consistency of an
/// incremental plan — the `core`-side layer of the static analyzer (the
/// `plan`-side layer is [`datacell_plan::verify_all`]).
///
/// Checks: stage/kind tables cover every variable; the four instruction
/// segments partition the program and agree with the per-variable stages;
/// every frontier variable is a flow variable with a mergeable kind;
/// `ring_vars`/`matrix_ring_vars` are consistent with the stages; matrix
/// instructions exist only alongside a joined stream pair; every cluster
/// member is a frontier variable whose kind matches its slot; and,
/// conversely, every grouped-partial frontier variable belongs to exactly
/// one cluster.
pub fn verify_incremental(inc: &IncrementalPlan) -> Result<(), DataCellError> {
    use datacell_plan::verify::{Rule, VerifyError};
    let fail =
        |e: VerifyError| Err(DataCellError::Plan(datacell_plan::PlanError::Verify(Box::new(e))));
    let ring_err = |msg: String, var: Option<VarId>| {
        let mut e = VerifyError::plan_level(Rule::RingDiscipline, msg);
        if let Some(v) = var {
            e = e.with_var(v);
        }
        fail(e)
    };

    let nvars = inc.mal.nvars;
    if inc.stages.len() != nvars || inc.kinds.len() != nvars {
        return ring_err(
            format!(
                "stage/kind tables cover {}/{} variables of {nvars}",
                inc.stages.len(),
                inc.kinds.len()
            ),
            None,
        );
    }

    // Segments partition the instruction list and agree with the stages.
    let mut seen = vec![0usize; inc.mal.instrs.len()];
    let segments: Vec<(&str, &[usize])> = {
        let mut s: Vec<(&str, &[usize])> = vec![
            ("static", &inc.static_instrs),
            ("matrix", &inc.matrix_instrs),
            ("merge", &inc.merge_instrs),
        ];
        for per in &inc.perbw_instrs {
            s.push(("per-bw", per));
        }
        s
    };
    for (seg_name, idxs) in segments {
        for &i in idxs {
            if i >= inc.mal.instrs.len() {
                return ring_err(
                    format!("{seg_name} segment references instr {i} out of range"),
                    None,
                );
            }
            seen[i] += 1;
            let stage = inc.stages[inc.mal.instrs[i].dests[0]];
            let matches_seg = match stage {
                Stage::Static => seg_name == "static",
                Stage::PerBw(_) => seg_name == "per-bw",
                Stage::Matrix => seg_name == "matrix",
                Stage::Merge => seg_name == "merge",
            };
            if !matches_seg {
                return ring_err(
                    format!("instr {i} sits in the {seg_name} segment but its stage is {stage:?}"),
                    Some(inc.mal.instrs[i].dests[0]),
                );
            }
        }
    }
    if let Some(i) = seen.iter().position(|&c| c != 1) {
        return ring_err(
            format!("instr {i} appears {} times across segments (want exactly 1)", seen[i]),
            None,
        );
    }

    // Frontier vars are flow variables with a merge rule.
    for &v in &inc.frontier {
        if !matches!(inc.stages[v], Stage::PerBw(_) | Stage::Matrix) {
            return ring_err(
                format!("frontier variable has non-flow stage {:?}", inc.stages[v]),
                Some(v),
            );
        }
        if inc.kinds[v] == VarKind::Plain {
            return ring_err("frontier variable has no merge rule".into(), Some(v));
        }
        // A grouped partial can only be re-grouped next to its keys.
        if inc.kinds[v].is_cluster_member() {
            let member = |c: &&Cluster| c.keys_var == v || c.agg_vars.iter().any(|&(a, _)| a == v);
            let owners = inc.clusters.iter().filter(member).count();
            if owners != 1 {
                return ring_err(
                    format!("grouped partial belongs to {owners} clusters (want exactly 1)"),
                    Some(v),
                );
            }
        }
    }

    // Ring-var views derive from frontier/ring_only and the stage table.
    for v in inc.ring_vars() {
        if !matches!(inc.stages[v], Stage::PerBw(_)) {
            return ring_err(
                format!("ring variable has stage {:?}, want per-bw", inc.stages[v]),
                Some(v),
            );
        }
    }
    for v in inc.matrix_ring_vars() {
        if inc.stages[v] != Stage::Matrix {
            return ring_err(
                format!("matrix ring variable has stage {:?}, want matrix", inc.stages[v]),
                Some(v),
            );
        }
    }
    if !inc.matrix_instrs.is_empty() && inc.matrix_pair.is_none() {
        return ring_err("matrix instructions without a joined stream pair".into(), None);
    }

    // Cluster members live on the frontier with the kinds their slots
    // require (keys partial + grouped partials) — the re-grouping merge
    // rule reads all of them.
    for c in &inc.clusters {
        if !inc.frontier.contains(&c.keys_var) {
            return ring_err(
                "cluster keys variable is not cached on the frontier".into(),
                Some(c.keys_var),
            );
        }
        if inc.kinds[c.keys_var] != VarKind::GroupKeysPartial {
            return ring_err(
                format!(
                    "cluster keys variable has kind {:?}, want group-keys partial",
                    inc.kinds[c.keys_var]
                ),
                Some(c.keys_var),
            );
        }
        for &(v, k) in &c.agg_vars {
            if !inc.frontier.contains(&v) {
                return ring_err(
                    "cluster aggregate member is not cached on the frontier".into(),
                    Some(v),
                );
            }
            if inc.kinds[v] != VarKind::GroupedPartial(k) {
                return ring_err(
                    format!(
                        "cluster member has kind {:?}, want grouped partial {k:?}",
                        inc.kinds[v]
                    ),
                    Some(v),
                );
            }
        }
    }
    Ok(())
}

/// Classify one operator given the stages/kinds of its arguments.
fn classify(
    op: &MalOp,
    stages: &[Stage],
    kinds: &[VarKind],
    mal: &MalPlan,
    matrix_pair: &mut Option<(usize, usize)>,
) -> Result<(Stage, VarKind), DataCellError> {
    // Stream binds start flows.
    if let MalOp::BindStream { stream, .. } = op {
        let k = mal
            .streams
            .iter()
            .position(|s| s == stream)
            .expect("bound stream is registered in plan.streams");
        return Ok((Stage::PerBw(k), VarKind::Rows));
    }
    if matches!(op, MalOp::BindTable { .. }) {
        return Ok((Stage::Static, VarKind::Plain));
    }

    let args = op.args();
    let arg_stages: Vec<Stage> = args.iter().map(|&a| stages[a]).collect();
    let any_partial = args.iter().any(|&a| {
        matches!(
            kinds[a],
            VarKind::PartialScalar(_)
                | VarKind::GroupedPartial(_)
                | VarKind::GroupKeysPartial
                | VarKind::DistinctRows
                | VarKind::SortedRows { .. }
        ) && matches!(stages[a], Stage::PerBw(_) | Stage::Matrix)
    });

    // The unique flow stage among the args (or Merge/Static).
    let flow = combined_flow(op, &arg_stages, matrix_pair)?;

    // Ops that never replicate: run at merge over merged inputs.
    let never_replicates =
        matches!(op, MalOp::SortPerm { .. } | MalOp::Slice { .. } | MalOp::DivScalar { .. });

    // An op consuming partial values cannot be replicated — partials must
    // be merged first (replicating would aggregate aggregates).
    if never_replicates || any_partial {
        if matches!(flow, Stage::PerBw(_) | Stage::Matrix | Stage::Merge) {
            return Ok((Stage::Merge, VarKind::Plain));
        }
        return Ok((Stage::Static, VarKind::Plain));
    }

    match flow {
        Stage::Static => Ok((Stage::Static, VarKind::Plain)),
        Stage::Merge => Ok((Stage::Merge, VarKind::Plain)),
        stage @ (Stage::PerBw(_) | Stage::Matrix) => {
            let kind = match op {
                MalOp::Select { .. }
                | MalOp::Fetch { .. }
                | MalOp::MapArith { .. }
                | MalOp::MapScalar { .. }
                | MalOp::Concat { .. }
                | MalOp::Join { .. } => VarKind::Rows,
                MalOp::ScalarAgg { kind, .. } => VarKind::PartialScalar(*kind),
                // Placeholder for the keys dest; the rewrite loop assigns
                // the node's per-destination kinds itself.
                MalOp::GroupAgg { .. } => VarKind::GroupKeysPartial,
                MalOp::Distinct { .. } => VarKind::DistinctRows,
                MalOp::Sort { desc, .. } => VarKind::SortedRows { desc: *desc },
                MalOp::BindStream { .. } | MalOp::BindTable { .. } => unreachable!("handled above"),
                MalOp::SortPerm { .. } | MalOp::Slice { .. } | MalOp::DivScalar { .. } => {
                    unreachable!("never_replicates handled above")
                }
            };
            Ok((stage, kind))
        }
    }
}

/// Combine argument stages into the op's flow stage. Handles the join
/// boundary (two different streams → Matrix) and rejects unsupported
/// mixtures.
fn combined_flow(
    op: &MalOp,
    arg_stages: &[Stage],
    matrix_pair: &mut Option<(usize, usize)>,
) -> Result<Stage, DataCellError> {
    let mut flow = Stage::Static;
    for (idx, s) in arg_stages.iter().enumerate() {
        match (flow, *s) {
            (f, Stage::Static) => flow = f,
            (Stage::Static, s) => flow = s,
            (Stage::Merge, _) | (_, Stage::Merge) => flow = Stage::Merge,
            (Stage::PerBw(a), Stage::PerBw(b)) if a == b => flow = Stage::PerBw(a),
            (Stage::PerBw(a), Stage::PerBw(b)) => {
                if matches!(op, MalOp::Join { .. }) && idx == 1 {
                    match matrix_pair {
                        None => {
                            *matrix_pair = Some((a, b));
                            flow = Stage::Matrix;
                        }
                        Some(pair) if *pair == (a, b) => flow = Stage::Matrix,
                        Some(_) => {
                            return Err(DataCellError::Unsupported(
                                "more than one stream-stream join; incremental mode \
                                 supports a single join pair (use re-evaluation)"
                                    .into(),
                            ))
                        }
                    }
                } else {
                    return Err(DataCellError::Unsupported(format!(
                        "{} combines two streams without a join",
                        op.name()
                    )));
                }
            }
            (Stage::Matrix, Stage::PerBw(k)) | (Stage::PerBw(k), Stage::Matrix) => {
                // Reading a per-bw var inside a matrix cell is fine if the
                // stream is one of the joined pair.
                match matrix_pair {
                    Some((a, b)) if k == *a || k == *b => flow = Stage::Matrix,
                    _ => {
                        return Err(DataCellError::Unsupported(
                            "matrix flow mixed with an unjoined stream".into(),
                        ))
                    }
                }
            }
            (Stage::Matrix, Stage::Matrix) => flow = Stage::Matrix,
        }
    }
    Ok(flow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_kernel::algebra::Predicate;
    use datacell_plan::AggExpr;
    use datacell_plan::{compile, ColumnRef, LogicalPlan};

    fn col(s: &str, a: &str) -> ColumnRef {
        ColumnRef::new(s, a)
    }

    /// Fig 3a: select a from stream where a < v1
    fn fig3a() -> MalPlan {
        let p = LogicalPlan::stream("s")
            .filter(col("s", "a"), Predicate::lt(10))
            .project(vec![(col("s", "a"), "a".into())]);
        compile(&p).unwrap()
    }

    /// Fig 3b: select sum(a) from stream where a < v1
    fn fig3b() -> MalPlan {
        let p = LogicalPlan::stream("s")
            .filter(col("s", "a"), Predicate::lt(10))
            .aggregate(None, vec![AggExpr::new(AggKind::Sum, col("s", "a"), "sum_a")]);
        compile(&p).unwrap()
    }

    /// Fig 3c: select avg(a) from stream where a < v1
    fn fig3c() -> MalPlan {
        let p = LogicalPlan::stream("s")
            .filter(col("s", "a"), Predicate::lt(10))
            .aggregate(None, vec![AggExpr::new(AggKind::Avg, col("s", "a"), "avg_a")]);
        compile(&p).unwrap()
    }

    /// Fig 3d: select a1, max(a2) from stream where a1 < v1 group by a1
    fn fig3d() -> MalPlan {
        let p = LogicalPlan::stream("s").filter(col("s", "a1"), Predicate::lt(10)).aggregate(
            Some(col("s", "a1")),
            vec![AggExpr::new(AggKind::Max, col("s", "a2"), "max_a2")],
        );
        compile(&p).unwrap()
    }

    /// Fig 3e: select max(a1) from sA, sB where a1<v1 and b1<v2 and a1=b1
    fn fig3e() -> MalPlan {
        let p = LogicalPlan::stream("sA")
            .filter(col("sA", "a1"), Predicate::lt(10))
            .join(
                LogicalPlan::stream("sB").filter(col("sB", "b1"), Predicate::lt(20)),
                col("sA", "a1"),
                col("sB", "b1"),
            )
            .aggregate(None, vec![AggExpr::new(AggKind::Max, col("sA", "a1"), "max_a1")]);
        compile(&p).unwrap()
    }

    #[test]
    fn fig3a_fully_replicates() {
        let inc = rewrite(&fig3a()).unwrap();
        // Everything is per-bw; the only merge work is frontier concat.
        assert!(inc.merge_instrs.is_empty());
        assert_eq!(inc.perbw_instrs[0].len(), inc.mal.instrs.len());
        // Result var is the frontier, kind Rows -> simple concatenation.
        assert_eq!(inc.frontier.len(), 1);
        assert_eq!(inc.kinds[inc.frontier[0]], VarKind::Rows);
        assert!(inc.matrix_pair.is_none());
    }

    #[test]
    fn fig3b_sum_is_partial_scalar() {
        let inc = rewrite(&fig3b()).unwrap();
        assert_eq!(inc.frontier.len(), 1);
        assert_eq!(inc.kinds[inc.frontier[0]], VarKind::PartialScalar(AggKind::Sum));
        assert!(inc.merge_instrs.is_empty()); // compensation is the merge rule itself
    }

    #[test]
    fn fig3c_avg_expands_to_two_flows_plus_div() {
        let inc = rewrite(&fig3c()).unwrap();
        // Two frontier vars: partial sum + partial count.
        let kinds: Vec<VarKind> = inc.frontier.iter().map(|&v| inc.kinds[v]).collect();
        assert!(kinds.contains(&VarKind::PartialScalar(AggKind::Sum)));
        assert!(kinds.contains(&VarKind::PartialScalar(AggKind::Count)));
        // The division runs at merge.
        assert_eq!(inc.merge_instrs.len(), 1);
        assert!(matches!(inc.mal.instrs[inc.merge_instrs[0]].op, MalOp::DivScalar { .. }));
    }

    #[test]
    fn fig3d_builds_group_cluster() {
        let inc = rewrite(&fig3d()).unwrap();
        assert_eq!(inc.clusters.len(), 1);
        let c = &inc.clusters[0];
        assert_eq!(c.agg_vars.len(), 1);
        assert_eq!(c.agg_vars[0].1, AggKind::Max);
        // Keys and aggs are both cached.
        assert!(inc.frontier.contains(&c.keys_var));
        assert!(inc.frontier.contains(&c.agg_vars[0].0));
    }

    #[test]
    fn cluster_is_the_fused_node_dest_list() {
        // The rewriter consumes the GroupAgg node directly: the
        // cluster's keys/agg vars are exactly the node's destinations,
        // with per-destination kinds (keys partial + grouped partials).
        let inc = rewrite(&fig3d()).unwrap();
        let ga = inc
            .mal
            .instrs
            .iter()
            .find(|i| matches!(i.op, MalOp::GroupAgg { .. }))
            .expect("compiler emits the fused node");
        let c = &inc.clusters[0];
        assert_eq!(c.keys_var, ga.dests[0]);
        assert_eq!(c.agg_vars[0].0, ga.dests[1]);
        assert_eq!(inc.kinds[ga.dests[0]], VarKind::GroupKeysPartial);
        assert_eq!(inc.kinds[ga.dests[1]], VarKind::GroupedPartial(AggKind::Max));
        assert!(matches!(inc.stages[ga.dests[0]], Stage::PerBw(0)));
    }

    #[test]
    fn fig3e_join_becomes_matrix() {
        let inc = rewrite(&fig3e()).unwrap();
        assert_eq!(inc.matrix_pair, Some((0, 1)));
        assert!(!inc.matrix_instrs.is_empty());
        // The max over the join is a per-cell partial scalar.
        let max_var =
            inc.frontier.iter().find(|&&v| inc.kinds[v] == VarKind::PartialScalar(AggKind::Max));
        assert!(max_var.is_some());
        assert_eq!(inc.stages[*max_var.unwrap()], Stage::Matrix);
        // Join inputs (select/fetch results per stream) are ring-cached.
        assert!(!inc.ring_only.is_empty());
        for &v in &inc.ring_only {
            assert!(matches!(inc.stages[v], Stage::PerBw(_)));
        }
        // The join itself enters the matrix per strip; what follows it in
        // the matrix segment runs per cell. Same line shape for both.
        let entry: Vec<usize> =
            inc.matrix_instrs.iter().copied().filter(|&i| inc.is_entry_join(i)).collect();
        assert_eq!(entry.len(), 1);
        let dests = &inc.mal.instrs[entry[0]].dests;
        let line = format!("per-strip | X_{}, X_{} := algebra.join\n", dests[0], dests[1]);
        let text = inc.explain();
        assert!(text.contains(&line), "{text}");
        assert_eq!(text.matches("per-cell | X_").count(), inc.matrix_instrs.len() - 1);
    }

    #[test]
    fn avg_expansion_rewrites_scalar_and_grouped() {
        let mal = fig3c();
        let has_avg =
            mal.instrs.iter().any(|i| matches!(i.op, MalOp::ScalarAgg { kind: AggKind::Avg, .. }));
        assert!(has_avg);
        let expanded = expand_avg(&mal);
        expanded.validate().unwrap();
        assert!(!expanded
            .instrs
            .iter()
            .any(|i| matches!(i.op, MalOp::ScalarAgg { kind: AggKind::Avg, .. })));
        assert!(expanded.instrs.iter().any(|i| matches!(i.op, MalOp::DivScalar { .. })));
    }

    #[test]
    fn grouped_avg_expansion() {
        let p = LogicalPlan::stream("s")
            .aggregate(Some(col("s", "k")), vec![AggExpr::new(AggKind::Avg, col("s", "v"), "a")]);
        let mal = compile(&p).unwrap();
        let inc = rewrite(&mal).unwrap();
        // Cluster contains sum and count partials; div is at merge.
        let c = &inc.clusters[0];
        let kinds: Vec<AggKind> = c.agg_vars.iter().map(|(_, k)| *k).collect();
        assert!(kinds.contains(&AggKind::Sum));
        assert!(kinds.contains(&AggKind::Count));
        assert_eq!(inc.merge_instrs.len(), 1);
        assert!(matches!(inc.mal.instrs[inc.merge_instrs[0]].op, MalOp::MapArith { .. }));
    }

    #[test]
    fn distinct_and_sort_get_compensation_kinds() {
        let p = LogicalPlan::stream("s").project(vec![(col("s", "a"), "a".into())]).distinct();
        let inc = rewrite(&compile(&p).unwrap()).unwrap();
        assert_eq!(inc.kinds[inc.frontier[0]], VarKind::DistinctRows);
    }

    #[test]
    fn orderby_limit_run_at_merge() {
        let p = LogicalPlan::stream("s")
            .project(vec![(col("s", "a"), "a".into())])
            .order_by(col("s", "a"), false)
            .limit(3);
        let inc = rewrite(&compile(&p).unwrap()).unwrap();
        // SortPerm, Fetch-through-perm and Slice all happen at merge.
        assert!(inc.merge_instrs.len() >= 3);
        // The projected rows are the frontier.
        assert!(inc.frontier.iter().any(|&v| inc.kinds[v] == VarKind::Rows));
    }

    #[test]
    fn stream_table_join_stays_per_bw() {
        let p = LogicalPlan::stream("s")
            .join(LogicalPlan::table("dim"), col("s", "k"), col("dim", "k"))
            .aggregate(None, vec![AggExpr::new(AggKind::Count, col("dim", "k"), "n")]);
        let inc = rewrite(&compile(&p).unwrap()).unwrap();
        assert!(inc.matrix_pair.is_none());
        assert!(inc.matrix_instrs.is_empty());
        assert!(!inc.static_instrs.is_empty()); // the table bind

        // Join replicated per basic window.
        let join_idx =
            inc.mal.instrs.iter().position(|i| matches!(i.op, MalOp::Join { .. })).unwrap();
        assert!(inc.perbw_instrs[0].contains(&join_idx));
        assert!(!inc.is_entry_join(join_idx));
    }

    #[test]
    fn verify_incremental_accepts_rewriter_output() {
        for plan in [fig3a(), fig3b(), fig3c(), fig3d(), fig3e()] {
            let inc = rewrite(&plan).unwrap();
            verify_incremental(&inc).unwrap();
        }
    }

    #[test]
    fn verify_incremental_catches_tampered_ring_discipline() {
        use datacell_plan::{PlanError, Rule};
        let assert_ring_err = |res: Result<(), DataCellError>| {
            let err = res.expect_err("tampered plan must be rejected");
            let DataCellError::Plan(PlanError::Verify(v)) = err else {
                panic!("expected a verify diagnostic, got {err}");
            };
            assert_eq!(v.rule, Rule::RingDiscipline);
        };

        // A frontier variable reclassified as merge-stage.
        let mut inc = rewrite(&fig3b()).unwrap();
        let f = inc.frontier[0];
        inc.stages[f] = Stage::Merge;
        assert_ring_err(verify_incremental(&inc));

        // A frontier variable stripped of its merge rule.
        let mut inc = rewrite(&fig3b()).unwrap();
        let f = inc.frontier[0];
        inc.kinds[f] = VarKind::Plain;
        assert_ring_err(verify_incremental(&inc));

        // A cluster member dropped from the frontier cache.
        let mut inc = rewrite(&fig3d()).unwrap();
        let keys = inc.clusters[0].keys_var;
        inc.frontier.retain(|&v| v != keys);
        assert_ring_err(verify_incremental(&inc));

        // A grouped partial left on the frontier without its cluster.
        let mut inc = rewrite(&fig3d()).unwrap();
        inc.clusters.clear();
        assert_ring_err(verify_incremental(&inc));

        // An instruction moved into the wrong segment.
        let mut inc = rewrite(&fig3c()).unwrap();
        let i = inc.merge_instrs.pop().unwrap();
        inc.static_instrs.push(i);
        assert_ring_err(verify_incremental(&inc));

        // Matrix instructions without a joined pair.
        let mut inc = rewrite(&fig3e()).unwrap();
        inc.matrix_pair = None;
        assert_ring_err(verify_incremental(&inc));
    }

    #[test]
    fn explain_mentions_stages() {
        let inc = rewrite(&fig3b()).unwrap();
        let e = inc.explain();
        assert!(e.contains("per-bw[0]"));
        assert!(e.contains("frontier"));
    }

    #[test]
    fn explain_prints_one_merge_rule_per_frontier_unit() {
        let rules = |mal: &MalPlan| -> Vec<String> {
            let inc = rewrite(mal).unwrap();
            let e = inc.explain();
            let lines: Vec<String> =
                e.lines().filter_map(|l| l.strip_prefix("merge X_")).map(str::to_owned).collect();
            assert_eq!(lines.len(), inc.merge_units().count());
            lines.iter().map(|l| l.split_once(": ").unwrap().1.to_owned()).collect()
        };
        assert_eq!(rules(&fig3a()), ["concat"]);
        assert_eq!(rules(&fig3b()), ["sum of partials"]);
        // avg = sum / count; partial counts are compensated by a sum.
        assert_eq!(rules(&fig3c()), ["sum of partials", "sum of partials"]);
        assert_eq!(rules(&fig3d()), ["regroup [keys, max]"]);
        let distinct =
            LogicalPlan::stream("s").project(vec![(col("s", "a"), "a".into())]).distinct();
        assert_eq!(rules(&compile(&distinct).unwrap()), ["distinct(concat)"]);
        // The cluster line names every member it re-groups.
        let inc = rewrite(&fig3d()).unwrap();
        let c = &inc.clusters[0];
        let line = format!("merge X_{},X_{}: regroup [keys, max]", c.keys_var, c.agg_vars[0].0);
        assert!(inc.explain().contains(&line), "{}", inc.explain());
    }
}
