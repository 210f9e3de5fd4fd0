//! The MAL interpreter: one instruction walker for every plan segment.
//!
//! [`run_segment`] is the only place a MAL instruction is evaluated:
//! resolve the arguments, call the operator, write the destinations. It
//! walks any list of instruction indices over an `env` and asks a
//! caller-supplied resolver for the variables the segment does not define
//! itself; [`take_vars`] moves a segment's outputs back out of the `env`.
//!
//! [`execute`] is the walker over the whole program with nothing outside
//! it — exactly how DataCellR (the re-evaluation baseline) evaluates a
//! continuous query: "every time a window is complete ... we compute the
//! result over all tuples in the window" (paper §3). The incremental
//! runtime in `datacell-core` calls the same walker once per segment of
//! the rewritten plan: the static segment at registration, the per-bw
//! segment over one *basic window*, the per-cell segment with ring slots
//! `i`/`j` resolved by reference (and the cell's join pairs already in its
//! `env`: the join that enters the matrix is answered per strip, not
//! walked here), and the merge segment over the merged frontier.

use crate::mal::{MalOp, MalPlan, MalValue, VarId};
use crate::result::ResultSet;
use crate::PlanError;
use datacell_basket::BasicWindow;
use datacell_kernel::algebra::{self, AggKind};
use datacell_kernel::par::{self, ParConfig};
#[cfg(test)]
use datacell_kernel::Value;
use datacell_kernel::{Bat, Catalog, Column, Table};
use std::collections::HashMap;

/// Execution context: where `basket.bind` and `sql.bind` find their data.
pub trait ExecCtx {
    /// The window content of a stream (whole window for one-shot execution,
    /// a basic window in incremental mode).
    fn stream_window(&self, stream: &str) -> Option<&BasicWindow>;
    /// A persistent table.
    fn table(&self, name: &str) -> Option<&Table>;
    /// Intra-operator parallelism: join/select/fetch/sort and fused
    /// grouped-aggregation nodes switch to the `kernel::par` entry points
    /// when this reports partitions > 1; the config also carries the
    /// placement mode and the aligned-input mark the scatter-elision fast
    /// paths key off. Sequential by default.
    fn par_config(&self) -> ParConfig {
        ParConfig::sequential()
    }
}

/// A simple context over borrowed windows and an optional catalog.
#[derive(Default)]
pub struct WindowCtx<'a> {
    windows: HashMap<String, &'a BasicWindow>,
    catalog: Option<&'a Catalog>,
    par: ParConfig,
}

impl<'a> WindowCtx<'a> {
    /// Empty context.
    pub fn new() -> WindowCtx<'a> {
        WindowCtx::default()
    }

    /// Bind a stream name to a window.
    pub fn with_stream(mut self, name: impl Into<String>, w: &'a BasicWindow) -> WindowCtx<'a> {
        self.windows.insert(name.into(), w);
        self
    }

    /// Attach a catalog.
    pub fn with_catalog(mut self, cat: &'a Catalog) -> WindowCtx<'a> {
        self.catalog = Some(cat);
        self
    }

    /// Enable intra-operator parallelism with this partition fan-out.
    pub fn with_partitions(mut self, partitions: usize) -> WindowCtx<'a> {
        self.par = ParConfig::new(partitions);
        self
    }

    /// Use a full parallel-runtime config (partitions, placement mode,
    /// aligned-input mark) instead of the bare fan-out.
    pub fn with_par_config(mut self, par: ParConfig) -> WindowCtx<'a> {
        self.par = par;
        self
    }
}

impl<'a> ExecCtx for WindowCtx<'a> {
    fn stream_window(&self, stream: &str) -> Option<&BasicWindow> {
        self.windows.get(stream).copied()
    }

    fn table(&self, name: &str) -> Option<&Table> {
        self.catalog.and_then(|c| c.table(name).ok())
    }

    fn par_config(&self) -> ParConfig {
        self.par
    }
}

/// Evaluate one MAL operator given its argument values (in [`MalOp::args`]
/// order). Returns one value per destination.
fn eval_op(op: &MalOp, args: &[&MalValue], ctx: &dyn ExecCtx) -> crate::Result<Vec<MalValue>> {
    let out = match op {
        MalOp::BindStream { stream, attr } => {
            let w = ctx
                .stream_window(stream)
                .ok_or_else(|| PlanError::UnknownSource(stream.clone()))?;
            vec![MalValue::Bat(w.bat_by_name(attr)?)]
        }
        MalOp::BindTable { table, attr } => {
            let t = ctx.table(table).ok_or_else(|| PlanError::UnknownSource(table.clone()))?;
            vec![MalValue::Bat(t.bat(attr)?)]
        }
        MalOp::Select { pred, .. } => {
            let b = args[0].as_bat("select input")?;
            vec![MalValue::Bat(par::select(b, pred, &ctx.par_config())?)]
        }
        MalOp::Fetch { .. } => {
            let cands = args[0].as_bat("fetch cands")?;
            let values = args[1].as_bat("fetch values")?;
            vec![MalValue::Bat(par::fetch(cands, values, &ctx.par_config())?)]
        }
        MalOp::Join { .. } => {
            let l = args[0].as_bat("join left")?;
            let r = args[1].as_bat("join right")?;
            let (lo, ro) = par::hashjoin(l, r, &ctx.par_config())?;
            vec![MalValue::Bat(lo), MalValue::Bat(ro)]
        }
        MalOp::GroupAgg { aggs, .. } => {
            // args order: [keys, then one entry per Some(vals) in agg order]
            let keys = args[0].as_bat("group agg keys")?;
            let mut rest = args[1..].iter();
            let mut val_bats: Vec<Option<&Bat>> = Vec::with_capacity(aggs.len());
            for (_, vals) in aggs {
                val_bats.push(match vals {
                    Some(_) => {
                        Some(rest.next().expect("args match specs").as_bat("group agg vals")?)
                    }
                    None => None,
                });
            }
            let specs: Vec<par::AggSpec> =
                aggs.iter().zip(&val_bats).map(|(&(kind, _), &v)| (kind, v)).collect();
            let (out_keys, cols) = par::grouped_agg_multi(keys, &specs, &ctx.par_config())?;
            let mut out = Vec::with_capacity(1 + cols.len());
            out.push(MalValue::Bat(Bat::transient(out_keys)));
            out.extend(cols.into_iter().map(|c| MalValue::Bat(Bat::transient(c))));
            out
        }
        MalOp::ScalarAgg { kind, .. } => {
            let b = args[0].as_bat("scalar agg")?;
            vec![scalar_agg(*kind, b)?]
        }
        MalOp::Concat { parts } => {
            if parts.is_empty() {
                return Err(PlanError::Internal("concat of zero parts".into()));
            }
            let bats: Vec<&Bat> =
                args.iter().map(|v| v.as_bat("concat part")).collect::<crate::Result<_>>()?;
            vec![MalValue::Bat(algebra::concat(&bats)?)]
        }
        MalOp::MapArith { op, .. } => {
            let l = args[0].as_bat("map left")?;
            let r = args[1].as_bat("map right")?;
            vec![MalValue::Bat(algebra::map_arith(l, r, *op)?)]
        }
        MalOp::MapScalar { op, value, .. } => {
            let b = args[0].as_bat("map input")?;
            vec![MalValue::Bat(algebra::map_arith_scalar(b, *op, value)?)]
        }
        MalOp::DivScalar { .. } => {
            let num = args[0].as_scalar("div num")?;
            let den = args[1].as_scalar("div den")?;
            match (num, den) {
                (Some(n), Some(d)) => match algebra::div_values(n, d)? {
                    Some(v) => vec![MalValue::Scalar(v)],
                    None => vec![MalValue::Absent],
                },
                _ => vec![MalValue::Absent],
            }
        }
        MalOp::Sort { desc, .. } => {
            let b = args[0].as_bat("sort")?;
            vec![MalValue::Bat(par::sort(b, *desc, &ctx.par_config())?)]
        }
        MalOp::SortPerm { desc, .. } => {
            let b = args[0].as_bat("sortperm")?;
            let perm = par::sort_perm(b, *desc, &ctx.par_config())?;
            // Emit head oids (not positions) so a later Fetch against the
            // same input resolves regardless of the input's hseq.
            let col = Column::Oid(perm.into_iter().map(|p| b.hseq + p as u64).collect());
            vec![MalValue::Bat(Bat::transient(col))]
        }
        MalOp::Distinct { .. } => {
            let b = args[0].as_bat("distinct")?;
            vec![MalValue::Bat(algebra::distinct(b)?)]
        }
        MalOp::Slice { n, .. } => {
            let b = args[0].as_bat("slice")?;
            let take = (*n).min(b.len());
            vec![MalValue::Bat(Bat::transient(b.tail.slice_owned(0, take)))]
        }
    };
    Ok(out)
}

/// Scalar aggregation with SQL empty-set semantics: `count` of nothing is
/// 0; `sum`/`min`/`max`/`avg` of nothing are absent.
pub fn scalar_agg(kind: AggKind, b: &Bat) -> crate::Result<MalValue> {
    Ok(match kind {
        AggKind::Count => MalValue::Scalar(algebra::count(b)),
        AggKind::Sum => {
            if b.is_empty() {
                MalValue::Absent
            } else {
                MalValue::Scalar(algebra::sum(b)?)
            }
        }
        AggKind::Min => algebra::min(b)?.map_or(MalValue::Absent, MalValue::Scalar),
        AggKind::Max => algebra::max(b)?.map_or(MalValue::Absent, MalValue::Scalar),
        AggKind::Avg => algebra::avg(b)?.map_or(MalValue::Absent, MalValue::Scalar),
    })
}

/// Walk the instructions `instrs` (indices into `plan.instrs`, in program
/// order) over `env`. Each argument is read from `env`, or — for a variable
/// the segment does not define — borrowed from `outer`; the destinations
/// are written back into `env`. Nothing `outer` lends is copied.
pub fn run_segment<'a>(
    plan: &MalPlan,
    instrs: impl IntoIterator<Item = usize>,
    env: &mut [Option<MalValue>],
    outer: impl Fn(VarId) -> Option<&'a MalValue>,
    ctx: &dyn ExecCtx,
) -> crate::Result<()> {
    for i in instrs {
        let ins = &plan.instrs[i];
        let args: Vec<&MalValue> = ins
            .op
            .args()
            .into_iter()
            .map(|a| {
                env[a]
                    .as_ref()
                    .or_else(|| outer(a))
                    .ok_or_else(|| PlanError::Internal(format!("X_{a} read before write")))
            })
            .collect::<crate::Result<_>>()?;
        let outs = eval_op(&ins.op, &args, ctx)?;
        debug_assert_eq!(outs.len(), ins.dests.len());
        for (&d, v) in ins.dests.iter().zip(outs) {
            env[d] = Some(v);
        }
    }
    Ok(())
}

/// Move the values of `vars` out of `env`, in `vars` order. A variable the
/// segment did not define is cloned from `outer` (a result column that is
/// itself a static, say).
pub fn take_vars<'a>(
    env: &mut [Option<MalValue>],
    vars: &[VarId],
    outer: impl Fn(VarId) -> Option<&'a MalValue>,
) -> crate::Result<Vec<MalValue>> {
    vars.iter()
        .map(|&v| {
            env[v]
                .take()
                .or_else(|| outer(v).cloned())
                .ok_or_else(|| PlanError::Internal(format!("X_{v} never written")))
        })
        .collect()
}

/// Execute a whole MAL program against a context.
pub fn execute(plan: &MalPlan, ctx: &dyn ExecCtx) -> crate::Result<ResultSet> {
    // Last line of defense: under `debug_assertions` or `DATACELL_VERIFY`,
    // refuse to interpret a plan the static analyzer rejects — a verifier
    // diagnostic with an op index beats an executor panic mid-program.
    if crate::verify::enabled() {
        crate::verify::verify(plan)?;
    }
    let mut env: Vec<Option<MalValue>> = vec![None; plan.nvars];
    run_segment(plan, 0..plan.instrs.len(), &mut env, |_| None, ctx)?;
    let vals = take_vars(&mut env, &plan.result_vars, |_| None)?;
    ResultSet::from_mal(plan.result_names.clone(), vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mal::MalBuilder;
    use datacell_kernel::algebra::Predicate;
    use datacell_kernel::DataType;

    fn window(xs: Vec<i64>, ys: Vec<i64>) -> BasicWindow {
        let n = xs.len();
        BasicWindow::new(
            0,
            vec![Column::Int(xs), Column::Int(ys)],
            vec![0; n],
            vec!["x1".into(), "x2".into()],
        )
    }

    #[test]
    fn execute_select_sum() {
        // SELECT sum(x2) FROM s WHERE x1 > 10
        let mut b = MalBuilder::new();
        let x1 = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x1".into() });
        let x2 = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x2".into() });
        let c = b.emit(MalOp::Select { input: x1, pred: Predicate::gt(10) });
        let v = b.emit(MalOp::Fetch { cands: c, values: x2 });
        let s = b.emit(MalOp::ScalarAgg { kind: AggKind::Sum, vals: v });
        let plan = b.finish(vec!["sum_x2".into()], vec![s]);
        plan.validate().unwrap();

        let w = window(vec![5, 20, 30, 7], vec![1, 2, 3, 4]);
        let ctx = WindowCtx::new().with_stream("s", &w);
        let rs = execute(&plan, &ctx).unwrap();
        assert_eq!(rs.rows(), vec![vec![Value::Int(5)]]);
    }

    #[test]
    fn execute_grouped_aggregate() {
        // SELECT x1, sum(x2) FROM s GROUP BY x1
        let mut b = MalBuilder::new();
        let x1 = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x1".into() });
        let x2 = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x2".into() });
        let (k, aggs) = b.emit_group_agg(x1, vec![(AggKind::Sum, Some(x2))]);
        let plan = b.finish(vec!["x1".into(), "sum_x2".into()], vec![k, aggs[0]]);

        let w = window(vec![1, 2, 1], vec![10, 20, 30]);
        let ctx = WindowCtx::new().with_stream("s", &w);
        let rs = execute(&plan, &ctx).unwrap();
        assert_eq!(
            rs.sorted_rows(),
            vec![vec![Value::Int(1), Value::Int(40)], vec![Value::Int(2), Value::Int(20)]]
        );
    }

    #[test]
    fn execute_join() {
        let mut b = MalBuilder::new();
        let a = b.emit(MalOp::BindStream { stream: "s1".into(), attr: "x1".into() });
        let c = b.emit(MalOp::BindStream { stream: "s2".into(), attr: "x1".into() });
        let (jl, _jr) = b.emit_join(a, c);
        let v = b.emit(MalOp::Fetch { cands: jl, values: a });
        let m = b.emit(MalOp::ScalarAgg { kind: AggKind::Max, vals: v });
        let plan = b.finish(vec!["max".into()], vec![m]);

        let w1 =
            BasicWindow::new(0, vec![Column::Int(vec![1, 2, 3])], vec![0; 3], vec!["x1".into()]);
        let w2 =
            BasicWindow::new(0, vec![Column::Int(vec![2, 3, 4])], vec![0; 3], vec!["x1".into()]);
        let ctx = WindowCtx::new().with_stream("s1", &w1).with_stream("s2", &w2);
        let rs = execute(&plan, &ctx).unwrap();
        assert_eq!(rs.rows(), vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn scalar_agg_empty_semantics() {
        let empty = Bat::empty(DataType::Int);
        assert_eq!(scalar_agg(AggKind::Count, &empty).unwrap(), MalValue::Scalar(Value::Int(0)));
        assert_eq!(scalar_agg(AggKind::Sum, &empty).unwrap(), MalValue::Absent);
        assert_eq!(scalar_agg(AggKind::Min, &empty).unwrap(), MalValue::Absent);
        assert_eq!(scalar_agg(AggKind::Avg, &empty).unwrap(), MalValue::Absent);
    }

    #[test]
    fn avg_scalar_and_grouped() {
        let mut b = MalBuilder::new();
        let x = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x1".into() });
        let a = b.emit(MalOp::ScalarAgg { kind: AggKind::Avg, vals: x });
        let plan = b.finish(vec!["a".into()], vec![a]);
        let w =
            BasicWindow::new(0, vec![Column::Int(vec![1, 2, 3])], vec![0; 3], vec!["x1".into()]);
        let ctx = WindowCtx::new().with_stream("s", &w);
        assert_eq!(execute(&plan, &ctx).unwrap().rows(), vec![vec![Value::Float(2.0)]]);

        let mut b = MalBuilder::new();
        let x1 = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x1".into() });
        let (_, aggs) = b.emit_group_agg(x1, vec![(AggKind::Avg, Some(x1))]);
        let plan = b.finish(vec!["a".into()], vec![aggs[0]]);
        let rs = execute(&plan, &ctx).unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn missing_stream_is_unknown_source() {
        let mut b = MalBuilder::new();
        let x = b.emit(MalOp::BindStream { stream: "ghost".into(), attr: "x".into() });
        let plan = b.finish(vec!["x".into()], vec![x]);
        let ctx = WindowCtx::new();
        assert!(matches!(execute(&plan, &ctx), Err(PlanError::UnknownSource(_))));
    }

    #[test]
    fn bind_table_from_catalog() {
        let mut cat = Catalog::new();
        let mut t = Table::new("dim", &[("k", DataType::Int)]);
        t.append(&[Column::Int(vec![7, 8])]).unwrap();
        cat.create_table(t).unwrap();

        let mut b = MalBuilder::new();
        let k = b.emit(MalOp::BindTable { table: "dim".into(), attr: "k".into() });
        let s = b.emit(MalOp::ScalarAgg { kind: AggKind::Sum, vals: k });
        let plan = b.finish(vec!["s".into()], vec![s]);
        let ctx = WindowCtx::new().with_catalog(&cat);
        assert_eq!(execute(&plan, &ctx).unwrap().rows(), vec![vec![Value::Int(15)]]);
    }

    #[test]
    fn sort_and_slice_ops() {
        let mut b = MalBuilder::new();
        let x = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x1".into() });
        let srt = b.emit(MalOp::Sort { input: x, desc: true });
        let top = b.emit(MalOp::Slice { input: srt, n: 2 });
        let plan = b.finish(vec!["x".into()], vec![top]);
        let w =
            BasicWindow::new(0, vec![Column::Int(vec![5, 9, 1])], vec![0; 3], vec!["x1".into()]);
        let ctx = WindowCtx::new().with_stream("s", &w);
        let rs = execute(&plan, &ctx).unwrap();
        assert_eq!(rs.rows(), vec![vec![Value::Int(9)], vec![Value::Int(5)]]);
    }

    #[test]
    fn sortperm_applies_via_fetch() {
        let mut b = MalBuilder::new();
        let x = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x1".into() });
        let y = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x2".into() });
        let p = b.emit(MalOp::SortPerm { input: x, desc: false });
        let ys = b.emit(MalOp::Fetch { cands: p, values: y });
        let plan = b.finish(vec!["y".into()], vec![ys]);
        let w = window(vec![3, 1, 2], vec![30, 10, 20]);
        let ctx = WindowCtx::new().with_stream("s", &w);
        let rs = execute(&plan, &ctx).unwrap();
        assert_eq!(
            rs.rows(),
            vec![vec![Value::Int(10)], vec![Value::Int(20)], vec![Value::Int(30)]]
        );
    }

    #[test]
    fn partitioned_ctx_agrees_with_sequential() {
        // SELECT sum(x2) FROM s WHERE x1 > 10 — select byte-identical, and
        // the aggregate over the (order-insensitive) join/select output
        // must match the sequential run exactly.
        let mut b = MalBuilder::new();
        let x1 = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x1".into() });
        let x2 = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x2".into() });
        let c = b.emit(MalOp::Select { input: x1, pred: Predicate::gt(10) });
        let v = b.emit(MalOp::Fetch { cands: c, values: x2 });
        let s = b.emit(MalOp::ScalarAgg { kind: AggKind::Sum, vals: v });
        let plan = b.finish(vec!["sum_x2".into()], vec![s]);

        let xs: Vec<i64> = (0..64).map(|i| i % 21).collect();
        let ys: Vec<i64> = (0..64).collect();
        let w = window(xs, ys);
        let seq = execute(&plan, &WindowCtx::new().with_stream("s", &w)).unwrap();
        for p in [1, 4] {
            let ctx = WindowCtx::new().with_stream("s", &w).with_partitions(p);
            assert_eq!(execute(&plan, &ctx).unwrap().rows(), seq.rows(), "partitions={p}");
        }

        // Two-stream join: pair sets agree (scalar agg makes it exact).
        let mut b = MalBuilder::new();
        let a = b.emit(MalOp::BindStream { stream: "s1".into(), attr: "x1".into() });
        let c = b.emit(MalOp::BindStream { stream: "s2".into(), attr: "x1".into() });
        let (jl, _jr) = b.emit_join(a, c);
        let v = b.emit(MalOp::Fetch { cands: jl, values: a });
        let n = b.emit(MalOp::ScalarAgg { kind: AggKind::Count, vals: v });
        let m = b.emit(MalOp::ScalarAgg { kind: AggKind::Max, vals: v });
        let plan = b.finish(vec!["n".into(), "max".into()], vec![n, m]);
        let w1 = window((0..40).map(|i| i % 9).collect(), vec![0; 40]);
        let w2 = window((0..32).map(|i| i % 6).collect(), vec![0; 32]);
        let seq = execute(&plan, &WindowCtx::new().with_stream("s1", &w1).with_stream("s2", &w2))
            .unwrap();
        let ctx = WindowCtx::new().with_stream("s1", &w1).with_stream("s2", &w2).with_partitions(4);
        assert_eq!(execute(&plan, &ctx).unwrap().rows(), seq.rows());
    }

    #[test]
    fn sort_ops_partitioned_agree_with_sequential() {
        // ORDER BY x1 DESC projecting x2 through SortPerm -> Fetch, plus a
        // direct Sort of x1 — all byte-identical across partition counts.
        let mut b = MalBuilder::new();
        let x = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x1".into() });
        let y = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x2".into() });
        let p = b.emit(MalOp::SortPerm { input: x, desc: true });
        let ys = b.emit(MalOp::Fetch { cands: p, values: y });
        let srt = b.emit(MalOp::Sort { input: x, desc: true });
        let plan = b.finish(vec!["y".into(), "x".into()], vec![ys, srt]);
        let w = window((0..40).map(|i| (i * 7) % 11).collect(), (0..40).collect());
        let seq = execute(&plan, &WindowCtx::new().with_stream("s", &w)).unwrap();
        for parts in [2, 4, 8] {
            let ctx = WindowCtx::new().with_stream("s", &w).with_partitions(parts);
            assert_eq!(execute(&plan, &ctx).unwrap().rows(), seq.rows(), "partitions={parts}");
        }
    }

    #[test]
    fn div_scalar_absent_propagation() {
        let mut b = MalBuilder::new();
        let x = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x1".into() });
        let sum = b.emit(MalOp::ScalarAgg { kind: AggKind::Sum, vals: x });
        let cnt = b.emit(MalOp::ScalarAgg { kind: AggKind::Count, vals: x });
        let d = b.emit(MalOp::DivScalar { num: sum, den: cnt });
        let plan = b.finish(vec!["avg".into()], vec![d]);
        let w = BasicWindow::new(0, vec![Column::empty(DataType::Int)], vec![], vec!["x1".into()]);
        let ctx = WindowCtx::new().with_stream("s", &w);
        // Empty window: sum is absent -> avg row dropped.
        assert!(execute(&plan, &ctx).unwrap().is_empty());
    }
}
