//! MAL-like physical plans.
//!
//! MonetDB compiles SQL into MAL: a flat program of columnar kernel calls
//! where **every instruction materializes its result into a variable**. The
//! DataCell rewriter needs exactly this representation — the explicit
//! intermediates are the "breakpoints in multiple parts of a query plan"
//! (paper §3) where execution can be frozen, partial results cached, and
//! processing resumed when the window slides.
//!
//! A [`MalPlan`] is a straight-line SSA-ish program: each [`Instr`] writes
//! one or more fresh [`VarId`]s and reads earlier ones. The final
//! result-set columns are designated by `result_vars`.

use datacell_kernel::algebra::{AggKind, ArithOp, Predicate};
use datacell_kernel::{Bat, Value};
use std::fmt;

/// Index of a MAL variable.
pub type VarId = usize;

/// A runtime value bound to a MAL variable.
#[derive(Debug, Clone, PartialEq)]
pub enum MalValue {
    /// A columnar intermediate.
    Bat(Bat),
    /// A scalar (aggregate result).
    Scalar(Value),
    /// An absent scalar: aggregate over an empty window (`min`/`max`/`avg`
    /// of nothing). Plans propagate absence; a fully absent scalar result
    /// row is simply not emitted.
    Absent,
}

impl MalValue {
    /// Borrow as BAT or fail with a message naming `what`.
    pub fn as_bat(&self, what: &str) -> crate::Result<&Bat> {
        match self {
            MalValue::Bat(b) => Ok(b),
            other => {
                Err(crate::PlanError::Internal(format!("{what}: expected BAT, got {other:?}")))
            }
        }
    }

    /// Borrow as scalar (or `None` when absent) or fail.
    pub fn as_scalar(&self, what: &str) -> crate::Result<Option<&Value>> {
        match self {
            MalValue::Scalar(v) => Ok(Some(v)),
            MalValue::Absent => Ok(None),
            other => {
                Err(crate::PlanError::Internal(format!("{what}: expected scalar, got {other:?}")))
            }
        }
    }
}

/// A MAL operator. Variables referenced are listed by [`MalOp::args`].
#[derive(Debug, Clone, PartialEq)]
pub enum MalOp {
    /// `basket.bind(stream, attr)` — the window content of one stream
    /// attribute (whole window for one-shot execution; one basic window in
    /// incremental mode).
    BindStream {
        /// Stream name.
        stream: String,
        /// Attribute name.
        attr: String,
    },
    /// `sql.bind(table, attr)` — a persistent table column.
    BindTable {
        /// Table name.
        table: String,
        /// Attribute name.
        attr: String,
    },
    /// `algebra.select(input, pred)` → candidate oids.
    Select {
        /// Values searched.
        input: VarId,
        /// Selection predicate.
        pred: Predicate,
    },
    /// `algebra.fetch(cands, values)` — late tuple reconstruction.
    Fetch {
        /// Candidate oids.
        cands: VarId,
        /// Values fetched through the candidates.
        values: VarId,
    },
    /// `algebra.join(left, right)` → two aligned oid BATs (2 dests).
    Join {
        /// Left values.
        left: VarId,
        /// Right values.
        right: VarId,
    },
    /// Group-and-aggregate — the only way to group: one grouping pass
    /// over `keys` feeding every aggregate in `aggs`. Writes
    /// `1 + aggs.len()` destinations — the distinct group keys
    /// (first-occurrence order) followed by one aggregate column per
    /// entry, aligned with the keys. This is the node the incremental
    /// rewriter consumes directly (the Fig. 3d cluster as a single
    /// operator) and the one `plan::exec` fans out through
    /// `kernel::par::grouped_agg_multi` at partitions > 1.
    GroupAgg {
        /// Grouping key column.
        keys: VarId,
        /// Aggregates: function plus value column (`None` for `count`).
        aggs: Vec<(AggKind, Option<VarId>)>,
    },
    /// Scalar aggregate over a whole BAT.
    ScalarAgg {
        /// Aggregate function.
        kind: AggKind,
        /// Aggregated values.
        vals: VarId,
    },
    /// `algebra.concat(parts...)` — the merge operator of incremental plans.
    Concat {
        /// Parts, concatenated in order.
        parts: Vec<VarId>,
    },
    /// Element-wise arithmetic over two aligned BATs.
    MapArith {
        /// Left operand.
        left: VarId,
        /// Right operand.
        right: VarId,
        /// Operator.
        op: ArithOp,
    },
    /// Element-wise arithmetic with a constant.
    MapScalar {
        /// Input BAT.
        input: VarId,
        /// Operator.
        op: ArithOp,
        /// Constant operand (right side).
        value: Value,
    },
    /// Scalar division — the final merge step of an expanded `avg`.
    DivScalar {
        /// Numerator scalar.
        num: VarId,
        /// Denominator scalar.
        den: VarId,
    },
    /// Sorted copy of a BAT.
    Sort {
        /// Input BAT.
        input: VarId,
        /// Descending?
        desc: bool,
    },
    /// The permutation (as positional oids) that sorts `input`.
    SortPerm {
        /// Input BAT.
        input: VarId,
        /// Descending?
        desc: bool,
    },
    /// Distinct values (first-occurrence order).
    Distinct {
        /// Input BAT.
        input: VarId,
    },
    /// First `n` rows of a BAT (LIMIT).
    Slice {
        /// Input BAT.
        input: VarId,
        /// Row budget.
        n: usize,
    },
}

impl MalOp {
    /// The variables this operator reads, in a fixed order (used by both
    /// the executor and the incremental rewriter's dataflow analysis).
    pub fn args(&self) -> Vec<VarId> {
        match self {
            MalOp::BindStream { .. } | MalOp::BindTable { .. } => vec![],
            MalOp::Select { input, .. } => vec![*input],
            MalOp::Fetch { cands, values } => vec![*cands, *values],
            MalOp::Join { left, right } => vec![*left, *right],
            MalOp::GroupAgg { keys, aggs } => {
                let mut out = vec![*keys];
                out.extend(aggs.iter().filter_map(|(_, v)| *v));
                out
            }
            MalOp::ScalarAgg { vals, .. } => vec![*vals],
            MalOp::Concat { parts } => parts.clone(),
            MalOp::MapArith { left, right, .. } => vec![*left, *right],
            MalOp::MapScalar { input, .. } => vec![*input],
            MalOp::DivScalar { num, den } => vec![*num, *den],
            MalOp::Sort { input, .. }
            | MalOp::SortPerm { input, .. }
            | MalOp::Distinct { input }
            | MalOp::Slice { input, .. } => vec![*input],
        }
    }

    /// Number of variables this operator writes.
    pub fn n_dests(&self) -> usize {
        match self {
            MalOp::Join { .. } => 2,
            MalOp::GroupAgg { aggs, .. } => 1 + aggs.len(),
            _ => 1,
        }
    }

    /// Operator name in MAL-ish rendering.
    pub fn name(&self) -> &'static str {
        match self {
            MalOp::BindStream { .. } => "basket.bind",
            MalOp::BindTable { .. } => "sql.bind",
            MalOp::Select { .. } => "algebra.select",
            MalOp::Fetch { .. } => "algebra.fetch",
            MalOp::Join { .. } => "algebra.join",
            MalOp::GroupAgg { .. } => "group.agg",
            MalOp::ScalarAgg { .. } => "aggr.scalar",
            MalOp::Concat { .. } => "algebra.concat",
            MalOp::MapArith { .. } => "batcalc.arith",
            MalOp::MapScalar { .. } => "batcalc.arith_const",
            MalOp::DivScalar { .. } => "calc.div",
            MalOp::Sort { .. } => "algebra.sort",
            MalOp::SortPerm { .. } => "algebra.sortperm",
            MalOp::Distinct { .. } => "algebra.distinct",
            MalOp::Slice { .. } => "algebra.slice",
        }
    }
}

/// One MAL instruction: `dests := op(args)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Instr {
    /// Destination variables (2 for joins, 1 otherwise).
    pub dests: Vec<VarId>,
    /// The operator.
    pub op: MalOp,
}

/// A straight-line MAL program plus its result designation.
#[derive(Debug, Clone, PartialEq)]
pub struct MalPlan {
    /// Instructions in execution order; instruction `i` may only read
    /// variables written by instructions `< i`.
    pub instrs: Vec<Instr>,
    /// Output column names.
    pub result_names: Vec<String>,
    /// Variables holding the output columns/scalars.
    pub result_vars: Vec<VarId>,
    /// Total number of variables.
    pub nvars: usize,
    /// Streams read by the plan (scan order).
    pub streams: Vec<String>,
}

impl MalPlan {
    /// MAL-ish textual rendering, one instruction per line. Each line
    /// leads with the instruction index in the same numbering the
    /// [`crate::verify`] diagnostics use (`instr 2` points at the `[02]`
    /// line), and every destination the op writes is listed, so explain
    /// output and verifier output name the same `X_n` variables.
    ///
    /// ```text
    /// [00] X_0 := basket.bind(s, x1)
    /// [01] X_1 := algebra.select(X_0, > 10)
    /// ...
    /// return sum_x2 := X_5
    /// ```
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (i, ins) in self.instrs.iter().enumerate() {
            let dests: Vec<String> = ins.dests.iter().map(|d| format!("X_{d}")).collect();
            let extra = match &ins.op {
                MalOp::BindStream { stream, attr } => format!("({stream}, {attr})"),
                MalOp::BindTable { table, attr } => format!("({table}, {attr})"),
                MalOp::Select { input, pred } => format!("(X_{input}, {pred:?})"),
                MalOp::GroupAgg { keys, aggs } => {
                    let parts: Vec<String> = aggs
                        .iter()
                        .map(|(kind, vals)| match vals {
                            Some(v) => format!("{}(X_{v})", kind.sql()),
                            None => format!("{}()", kind.sql()),
                        })
                        .collect();
                    format!("[{}](X_{keys})", parts.join(", "))
                }
                MalOp::ScalarAgg { kind, vals } => format!("[{}](X_{vals})", kind.sql()),
                MalOp::MapArith { left, right, op } => {
                    format!("(X_{left} {} X_{right})", op.symbol())
                }
                MalOp::MapScalar { input, op, value } => {
                    format!("(X_{input} {} {value})", op.symbol())
                }
                MalOp::Slice { input, n } => format!("(X_{input}, {n})"),
                op => {
                    let args: Vec<String> = op.args().iter().map(|a| format!("X_{a}")).collect();
                    format!("({})", args.join(", "))
                }
            };
            out.push_str(&format!("[{i:02}] {} := {}{}\n", dests.join(", "), ins.op.name(), extra));
        }
        for (name, var) in self.result_names.iter().zip(&self.result_vars) {
            out.push_str(&format!("return {name} := X_{var}\n"));
        }
        out
    }

    /// Sanity check the SSA-ish invariants: each var written once, reads
    /// only after writes, result vars written. Delegates to the structural
    /// layer of [`crate::verify`] so there is a single implementation of
    /// the rules; use [`crate::verify::verify_all`] for the full typed
    /// analysis and the complete diagnostic list.
    pub fn validate(&self) -> crate::Result<()> {
        match crate::verify::verify_structural(self).into_iter().next() {
            None => Ok(()),
            Some(e) => Err(crate::PlanError::Verify(Box::new(e))),
        }
    }
}

impl fmt::Display for MalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Incremental builder for MAL programs (used by the compiler and tests).
#[derive(Debug, Default)]
pub struct MalBuilder {
    instrs: Vec<Instr>,
    nvars: usize,
    streams: Vec<String>,
}

impl MalBuilder {
    /// Fresh builder.
    pub fn new() -> MalBuilder {
        MalBuilder::default()
    }

    /// Allocate a fresh variable.
    pub fn fresh(&mut self) -> VarId {
        let v = self.nvars;
        self.nvars += 1;
        v
    }

    /// Emit a single-dest instruction, returning its destination.
    pub fn emit(&mut self, op: MalOp) -> VarId {
        if let MalOp::BindStream { stream, .. } = &op {
            if !self.streams.contains(stream) {
                self.streams.push(stream.clone());
            }
        }
        debug_assert_eq!(op.n_dests(), 1);
        let d = self.fresh();
        self.instrs.push(Instr { dests: vec![d], op });
        d
    }

    /// Emit a join (two destinations: left oids, right oids).
    pub fn emit_join(&mut self, left: VarId, right: VarId) -> (VarId, VarId) {
        let dl = self.fresh();
        let dr = self.fresh();
        self.instrs.push(Instr { dests: vec![dl, dr], op: MalOp::Join { left, right } });
        (dl, dr)
    }

    /// Emit a fused group-and-aggregate node; returns the group-keys
    /// destination plus one destination per aggregate, in `aggs` order.
    pub fn emit_group_agg(
        &mut self,
        keys: VarId,
        aggs: Vec<(AggKind, Option<VarId>)>,
    ) -> (VarId, Vec<VarId>) {
        let kd = self.fresh();
        let ads: Vec<VarId> = aggs.iter().map(|_| self.fresh()).collect();
        let mut dests = vec![kd];
        dests.extend(&ads);
        self.instrs.push(Instr { dests, op: MalOp::GroupAgg { keys, aggs } });
        (kd, ads)
    }

    /// Finish the program.
    pub fn finish(self, result_names: Vec<String>, result_vars: Vec<VarId>) -> MalPlan {
        MalPlan {
            instrs: self.instrs,
            result_names,
            result_vars,
            nvars: self.nvars,
            streams: self.streams,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_kernel::Column;

    fn tiny_plan() -> MalPlan {
        let mut b = MalBuilder::new();
        let x = b.emit(MalOp::BindStream { stream: "s".into(), attr: "x".into() });
        let c = b.emit(MalOp::Select { input: x, pred: Predicate::gt(10) });
        let v = b.emit(MalOp::Fetch { cands: c, values: x });
        let s = b.emit(MalOp::ScalarAgg { kind: AggKind::Sum, vals: v });
        b.finish(vec!["sum_x".into()], vec![s])
    }

    #[test]
    fn builder_assigns_sequential_vars() {
        let p = tiny_plan();
        assert_eq!(p.nvars, 4);
        assert_eq!(p.instrs.len(), 4);
        assert_eq!(p.streams, vec!["s".to_owned()]);
        p.validate().unwrap();
    }

    #[test]
    fn join_has_two_dests() {
        let mut b = MalBuilder::new();
        let l = b.emit(MalOp::BindStream { stream: "a".into(), attr: "k".into() });
        let r = b.emit(MalOp::BindStream { stream: "b".into(), attr: "k".into() });
        let (jl, jr) = b.emit_join(l, r);
        let p = b.finish(vec!["l".into(), "r".into()], vec![jl, jr]);
        p.validate().unwrap();
        assert_eq!(p.instrs[2].dests, vec![jl, jr]);
        assert_eq!(p.streams, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn explain_renders_mal_text() {
        let p = tiny_plan();
        let e = p.explain();
        // Instruction lines carry the verifier's op-index numbering.
        assert!(e.contains("[00] X_0 := basket.bind(s, x)"));
        assert!(e.contains("[03] X_3 := aggr.scalar"));
        assert!(e.contains("algebra.select(X_0"));
        assert!(e.contains("aggr.scalar[sum](X_2)"));
        assert!(e.contains("return sum_x := X_3"));
    }

    #[test]
    fn validate_catches_read_before_write() {
        let p = MalPlan {
            instrs: vec![Instr { dests: vec![0], op: MalOp::Distinct { input: 1 } }],
            result_names: vec![],
            result_vars: vec![],
            nvars: 2,
            streams: vec![],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_double_write() {
        let p = MalPlan {
            instrs: vec![
                Instr {
                    dests: vec![0],
                    op: MalOp::BindStream { stream: "s".into(), attr: "x".into() },
                },
                Instr {
                    dests: vec![0],
                    op: MalOp::BindStream { stream: "s".into(), attr: "y".into() },
                },
            ],
            result_names: vec![],
            result_vars: vec![],
            nvars: 1,
            streams: vec![],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_catches_missing_result() {
        let p = MalPlan {
            instrs: vec![],
            result_names: vec!["x".into()],
            result_vars: vec![0],
            nvars: 1,
            streams: vec![],
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn malvalue_accessors() {
        let b = MalValue::Bat(Bat::transient(Column::Int(vec![1])));
        assert!(b.as_bat("t").is_ok());
        assert!(b.as_scalar("t").is_err());
        assert_eq!(MalValue::Absent.as_scalar("t").unwrap(), None);
        let s = MalValue::Scalar(Value::Int(5));
        assert_eq!(s.as_scalar("t").unwrap(), Some(&Value::Int(5)));
    }

    #[test]
    fn op_args_ordering() {
        let op = MalOp::Fetch { cands: 3, values: 7 };
        assert_eq!(op.args(), vec![3, 7]);
        let op = MalOp::GroupAgg { keys: 2, aggs: vec![(AggKind::Count, None)] };
        assert_eq!(op.args(), vec![2]);
        let op = MalOp::Concat { parts: vec![5, 6, 7] };
        assert_eq!(op.args(), vec![5, 6, 7]);
    }

    #[test]
    fn group_agg_writes_keys_plus_one_dest_per_aggregate() {
        let mut b = MalBuilder::new();
        let k = b.emit(MalOp::BindStream { stream: "s".into(), attr: "k".into() });
        let v = b.emit(MalOp::BindStream { stream: "s".into(), attr: "v".into() });
        let (kd, ads) = b.emit_group_agg(
            k,
            vec![(AggKind::Sum, Some(v)), (AggKind::Count, None), (AggKind::Avg, Some(v))],
        );
        assert_eq!(ads.len(), 3);
        let mut results = vec![kd];
        results.extend(&ads);
        let p = b.finish(vec!["k".into(), "s".into(), "n".into(), "a".into()], results);
        p.validate().unwrap();
        let op = &p.instrs[2].op;
        assert_eq!(op.n_dests(), 4);
        // args: keys first, then only the Some value columns in order.
        assert_eq!(op.args(), vec![k, v, v]);
        assert!(p.explain().contains("group.agg[sum(X_1), count(), avg(X_1)](X_0)"));
    }
}
