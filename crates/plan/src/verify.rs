//! Static analysis over MAL plans: the pass-boundary verifier.
//!
//! Every plan transformation in the stack — `compile`, the rewriter's
//! `expand_avg`, the incremental clustering in `datacell-core` — rewrites
//! a [`MalPlan`] under invariants that used to be enforced only by
//! scattered ad-hoc checks and executor panics. This module makes them a
//! single static analyzer that runs at pass boundaries:
//!
//! 1. **Structural (SSA) rules** — every variable is written exactly once,
//!    read only after its write, destination counts match
//!    [`MalOp::n_dests`], and every result variable is written
//!    ([`verify_structural`]).
//! 2. **Operand-kind and arity rules** — `Select` reads a value BAT, not a
//!    candidate list; `Fetch` candidates are oid-kind; `Join` writes two
//!    aligned oid dests; grouped aggregates other than `count` carry a
//!    value column ([`verify_typed`]).
//! 3. **Type/shape inference** — column types are seeded from a
//!    [`SchemaSource`] at `BindStream`/`BindTable` and propagated through
//!    select/fetch/join/group/map ops; mismatches are reported with the
//!    op index and `X_n` names matching [`MalPlan::explain`].
//!
//! [`checked_pass`] is the differential harness: it asserts
//! verifier-cleanliness before *and* after a MAL→MAL pass, on by default
//! under `debug_assertions` and switchable in release builds with
//! `DATACELL_VERIFY=1`.

use crate::mal::{MalOp, MalPlan, VarId};
use crate::PlanError;
use datacell_kernel::algebra::{AggKind, ArithOp, Predicate};
use datacell_kernel::{Catalog, DataType};
use std::fmt;

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// Which verifier rule a diagnostic comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A variable is read before any instruction writes it.
    UseBeforeDef,
    /// A variable is written by more than one instruction.
    DoubleAssign,
    /// An instruction's destination count disagrees with its operator.
    DestArity,
    /// A variable id is out of the plan's `nvars` range.
    VarRange,
    /// A result variable is never written.
    ResultUnwritten,
    /// An operand has the wrong kind (BAT/scalar/candidate list).
    OperandKind,
    /// Inferred column/scalar types disagree.
    TypeMismatch,
    /// Ring-variable discipline of an incremental plan is violated.
    RingDiscipline,
}

impl Rule {
    /// Stable kebab-case label used in rendered diagnostics and tests.
    pub fn label(self) -> &'static str {
        match self {
            Rule::UseBeforeDef => "use-before-def",
            Rule::DoubleAssign => "double-assign",
            Rule::DestArity => "dest-arity",
            Rule::VarRange => "var-range",
            Rule::ResultUnwritten => "result-unwritten",
            Rule::OperandKind => "operand-kind",
            Rule::TypeMismatch => "type-mismatch",
            Rule::RingDiscipline => "ring-discipline",
        }
    }
}

/// One verifier diagnostic with a precise location: the instruction index
/// (matching the `[nn]` prefixes of [`MalPlan::explain`]), the operator
/// name, and the offending variable in `X_n` notation.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    /// Index of the offending instruction, when attributable.
    pub instr: Option<usize>,
    /// Operator name (`MalOp::name`) at that instruction.
    pub op: Option<&'static str>,
    /// The offending variable.
    pub var: Option<VarId>,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable detail.
    pub message: String,
    /// The pass at whose boundary the error was detected (set by
    /// [`checked_pass`]).
    pub pass: Option<String>,
}

impl VerifyError {
    /// A diagnostic anchored to instruction `instr` of `plan`.
    pub fn at(plan: &MalPlan, instr: usize, rule: Rule, message: impl Into<String>) -> VerifyError {
        VerifyError {
            instr: Some(instr),
            op: plan.instrs.get(instr).map(|i| i.op.name()),
            var: None,
            rule,
            message: message.into(),
            pass: None,
        }
    }

    /// A plan-level diagnostic not tied to one instruction.
    pub fn plan_level(rule: Rule, message: impl Into<String>) -> VerifyError {
        VerifyError { instr: None, op: None, var: None, rule, message: message.into(), pass: None }
    }

    /// Attach the offending variable.
    pub fn with_var(mut self, var: VarId) -> VerifyError {
        self.var = Some(var);
        self
    }

    /// Attach the pass name ([`checked_pass`] boundary attribution).
    pub fn in_pass(mut self, pass: &str) -> VerifyError {
        self.pass = Some(pass.to_owned());
        self
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(p) = &self.pass {
            write!(f, "[pass {p}] ")?;
        }
        match (self.instr, self.op) {
            (Some(i), Some(op)) => write!(f, "instr {i} ({op}): ")?,
            (Some(i), None) => write!(f, "instr {i}: ")?,
            _ => write!(f, "plan: ")?,
        }
        write!(f, "{}", self.message)?;
        if let Some(v) = self.var {
            write!(f, " (X_{v})")?;
        }
        write!(f, " [{}]", self.rule.label())
    }
}

impl std::error::Error for VerifyError {}

// ---------------------------------------------------------------------------
// Schema sources
// ---------------------------------------------------------------------------

/// Where `BindStream`/`BindTable` column types come from during type
/// inference. Unknown attributes return `None` and the inferred type stays
/// open (checks involving it are skipped, not failed).
pub trait SchemaSource {
    /// The type of one stream attribute, if known.
    fn stream_attr_type(&self, stream: &str, attr: &str) -> Option<DataType>;
    /// The type of one persistent-table attribute, if known.
    fn table_attr_type(&self, table: &str, attr: &str) -> Option<DataType>;
}

/// A schema source that knows nothing: every bind type stays open.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoSchema;

impl SchemaSource for NoSchema {
    fn stream_attr_type(&self, _stream: &str, _attr: &str) -> Option<DataType> {
        None
    }

    fn table_attr_type(&self, _table: &str, _attr: &str) -> Option<DataType> {
        None
    }
}

/// The kernel catalog resolves table attributes; stream types stay open
/// (pair it with engine-side stream schemas via [`SchemaOverlay`]).
impl SchemaSource for Catalog {
    fn stream_attr_type(&self, _stream: &str, _attr: &str) -> Option<DataType> {
        None
    }

    fn table_attr_type(&self, table: &str, attr: &str) -> Option<DataType> {
        self.table(table).ok().and_then(|t| t.column_type(attr).ok())
    }
}

/// Combine explicit stream schemas with a table-side source (typically the
/// catalog): the full engine view of plan types.
pub struct SchemaOverlay<'a> {
    streams: Vec<(String, Vec<(String, DataType)>)>,
    tables: &'a dyn SchemaSource,
}

impl<'a> SchemaOverlay<'a> {
    /// An overlay over `tables` with no stream schemas yet.
    pub fn new(tables: &'a dyn SchemaSource) -> SchemaOverlay<'a> {
        SchemaOverlay { streams: Vec::new(), tables }
    }

    /// Register one stream schema.
    pub fn with_stream(
        mut self,
        name: impl Into<String>,
        schema: Vec<(String, DataType)>,
    ) -> SchemaOverlay<'a> {
        self.streams.push((name.into(), schema));
        self
    }
}

impl SchemaSource for SchemaOverlay<'_> {
    fn stream_attr_type(&self, stream: &str, attr: &str) -> Option<DataType> {
        self.streams
            .iter()
            .find(|(n, _)| n == stream)
            .and_then(|(_, s)| s.iter().find(|(a, _)| a == attr))
            .map(|&(_, t)| t)
    }

    fn table_attr_type(&self, table: &str, attr: &str) -> Option<DataType> {
        self.tables.table_attr_type(table, attr)
    }
}

// ---------------------------------------------------------------------------
// Shapes
// ---------------------------------------------------------------------------

/// The inferred shape of a MAL variable.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// A columnar BAT. `dt` is the tail type when known; `cands` marks
    /// candidate lists (select/join/sortperm outputs and re-mapped
    /// candidate fetches) as opposed to value BATs.
    Bat { dt: Option<DataType>, cands: bool },
    /// A scalar aggregate result (possibly absent at runtime).
    Scalar { dt: Option<DataType> },
}

impl Shape {
    fn value_bat(dt: Option<DataType>) -> Shape {
        Shape::Bat { dt, cands: false }
    }

    fn cand_list() -> Shape {
        Shape::Bat { dt: Some(DataType::Oid), cands: true }
    }

    fn describe(&self) -> String {
        match self {
            Shape::Bat { dt, cands: true } => format!("candidate list ({})", fmt_dt(*dt)),
            Shape::Bat { dt, cands: false } => format!("value BAT ({})", fmt_dt(*dt)),
            Shape::Scalar { dt } => format!("scalar ({})", fmt_dt(*dt)),
        }
    }
}

fn fmt_dt(dt: Option<DataType>) -> String {
    dt.map_or_else(|| "?".to_owned(), |d| d.to_string())
}

/// The result type of an aggregate over a column of type `input`.
fn agg_result(kind: AggKind, input: Option<DataType>) -> Option<DataType> {
    match kind {
        AggKind::Count => Some(DataType::Int),
        AggKind::Avg => Some(DataType::Float),
        AggKind::Sum | AggKind::Min | AggKind::Max => input,
    }
}

/// `sum`/`avg` add their inputs, so a known non-numeric input type is a
/// type error; `min`/`max`/`count` work on any column.
fn agg_input_ok(kind: AggKind, input: Option<DataType>) -> bool {
    match kind {
        AggKind::Sum | AggKind::Avg => input.is_none_or(numeric),
        AggKind::Count | AggKind::Min | AggKind::Max => true,
    }
}

/// Numeric types the arithmetic kernels accept.
fn numeric(dt: DataType) -> bool {
    matches!(dt, DataType::Int | DataType::Float)
}

/// Can a predicate/join constant of type `b` be compared against a column
/// of type `a`? Equal types always; ints and floats compare across.
fn comparable(a: DataType, b: DataType) -> bool {
    a == b || (numeric(a) && numeric(b))
}

// ---------------------------------------------------------------------------
// Structural verification
// ---------------------------------------------------------------------------

/// Check the SSA-style structural rules only: single assignment,
/// def-before-use, destination arity, variable ranges, result vars
/// written. Returns every violation (empty = clean).
pub fn verify_structural(plan: &MalPlan) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    let mut written = vec![false; plan.nvars];
    for (i, ins) in plan.instrs.iter().enumerate() {
        for a in ins.op.args() {
            if a >= plan.nvars {
                errs.push(
                    VerifyError::at(plan, i, Rule::VarRange, "argument out of variable range")
                        .with_var(a),
                );
            } else if !written[a] {
                errs.push(
                    VerifyError::at(plan, i, Rule::UseBeforeDef, "read before any write")
                        .with_var(a),
                );
            }
        }
        if ins.dests.len() != ins.op.n_dests() {
            errs.push(VerifyError::at(
                plan,
                i,
                Rule::DestArity,
                format!("{} destinations, operator writes {}", ins.dests.len(), ins.op.n_dests()),
            ));
        }
        for &d in &ins.dests {
            if d >= plan.nvars {
                errs.push(
                    VerifyError::at(plan, i, Rule::VarRange, "destination out of variable range")
                        .with_var(d),
                );
            } else if written[d] {
                errs.push(
                    VerifyError::at(plan, i, Rule::DoubleAssign, "written a second time")
                        .with_var(d),
                );
            } else {
                written[d] = true;
            }
        }
    }
    for &v in &plan.result_vars {
        if v >= plan.nvars || !written[v] {
            errs.push(
                VerifyError::plan_level(Rule::ResultUnwritten, "result variable never written")
                    .with_var(v),
            );
        }
    }
    if plan.result_names.len() != plan.result_vars.len() {
        errs.push(VerifyError::plan_level(
            Rule::DestArity,
            format!(
                "{} result names for {} result variables",
                plan.result_names.len(),
                plan.result_vars.len()
            ),
        ));
    }
    errs
}

// ---------------------------------------------------------------------------
// Typed verification (shape + type inference)
// ---------------------------------------------------------------------------

/// Operand-kind and type/shape checks. Assumes the plan is structurally
/// clean (run [`verify_structural`] first; [`verify_all`] does).
pub fn verify_typed(plan: &MalPlan, schema: &dyn SchemaSource) -> Vec<VerifyError> {
    let mut errs = Vec::new();
    let mut shapes: Vec<Option<Shape>> = vec![None; plan.nvars];

    // Borrow an argument's shape; arguments are known-written here.
    let shape_of = |shapes: &[Option<Shape>], v: VarId| -> Shape {
        shapes.get(v).copied().flatten().unwrap_or(Shape::Bat { dt: None, cands: false })
    };
    let want_bat = |errs: &mut Vec<VerifyError>,
                    shapes: &[Option<Shape>],
                    plan: &MalPlan,
                    i: usize,
                    v: VarId,
                    what: &str|
     -> Option<DataType> {
        match shape_of(shapes, v) {
            Shape::Bat { dt, .. } => dt,
            other => {
                errs.push(
                    VerifyError::at(
                        plan,
                        i,
                        Rule::OperandKind,
                        format!("{what} must be a BAT, found {}", other.describe()),
                    )
                    .with_var(v),
                );
                None
            }
        }
    };

    for (i, ins) in plan.instrs.iter().enumerate() {
        let dests: Vec<Shape> = match &ins.op {
            MalOp::BindStream { stream, attr } => {
                vec![Shape::value_bat(schema.stream_attr_type(stream, attr))]
            }
            MalOp::BindTable { table, attr } => {
                vec![Shape::value_bat(schema.table_attr_type(table, attr))]
            }
            MalOp::Select { input, pred } => {
                let dt = match shape_of(&shapes, *input) {
                    Shape::Bat { cands: true, .. } => {
                        errs.push(
                            VerifyError::at(
                                plan,
                                i,
                                Rule::OperandKind,
                                "select input must be a value BAT, found a candidate list",
                            )
                            .with_var(*input),
                        );
                        None
                    }
                    Shape::Bat { dt, cands: false } => dt,
                    other => {
                        errs.push(
                            VerifyError::at(
                                plan,
                                i,
                                Rule::OperandKind,
                                format!("select input must be a BAT, found {}", other.describe()),
                            )
                            .with_var(*input),
                        );
                        None
                    }
                };
                if let (Some(dt), Some(pv)) = (dt, pred_value_type(pred)) {
                    if !comparable(dt, pv) {
                        errs.push(
                            VerifyError::at(
                                plan,
                                i,
                                Rule::TypeMismatch,
                                format!("predicate compares {pv} against a {dt} column"),
                            )
                            .with_var(*input),
                        );
                    }
                }
                vec![Shape::cand_list()]
            }
            MalOp::Fetch { cands, values } => {
                let cshape = shape_of(&shapes, *cands);
                match cshape {
                    Shape::Bat { dt, cands: c } => {
                        // Candidate input must be oid-kind: a select/join/
                        // sortperm output or an unknown-typed BAT.
                        if !c && dt.is_some() && dt != Some(DataType::Oid) {
                            errs.push(
                                VerifyError::at(
                                    plan,
                                    i,
                                    Rule::OperandKind,
                                    format!(
                                        "fetch candidates must be oid-kind, found {}",
                                        cshape.describe()
                                    ),
                                )
                                .with_var(*cands),
                            );
                        }
                    }
                    other => {
                        errs.push(
                            VerifyError::at(
                                plan,
                                i,
                                Rule::OperandKind,
                                format!(
                                    "fetch candidates must be a BAT, found {}",
                                    other.describe()
                                ),
                            )
                            .with_var(*cands),
                        );
                    }
                }
                match shape_of(&shapes, *values) {
                    // Fetching *through* a candidate list re-maps it: the
                    // output inherits the values side's shape entirely.
                    b @ Shape::Bat { .. } => vec![b],
                    other => {
                        errs.push(
                            VerifyError::at(
                                plan,
                                i,
                                Rule::OperandKind,
                                format!("fetch values must be a BAT, found {}", other.describe()),
                            )
                            .with_var(*values),
                        );
                        vec![Shape::Bat { dt: None, cands: false }]
                    }
                }
            }
            MalOp::Join { left, right } => {
                let lt = want_bat(&mut errs, &shapes, plan, i, *left, "join left");
                let rt = want_bat(&mut errs, &shapes, plan, i, *right, "join right");
                if let (Some(a), Some(b)) = (lt, rt) {
                    if !comparable(a, b) {
                        errs.push(
                            VerifyError::at(
                                plan,
                                i,
                                Rule::TypeMismatch,
                                format!("equality join between {a} and {b} columns"),
                            )
                            .with_var(*right),
                        );
                    }
                }
                vec![Shape::cand_list(), Shape::cand_list()]
            }
            MalOp::GroupAgg { keys, aggs } => {
                let kdt = want_bat(&mut errs, &shapes, plan, i, *keys, "group.agg keys");
                let mut out = vec![Shape::value_bat(kdt)];
                for (kind, vals) in aggs {
                    let vdt = match vals {
                        Some(v) => want_bat(&mut errs, &shapes, plan, i, *v, "aggregate values"),
                        None => {
                            if *kind != AggKind::Count {
                                errs.push(VerifyError::at(
                                    plan,
                                    i,
                                    Rule::OperandKind,
                                    format!("fused {} slot requires a value column", kind.sql()),
                                ));
                            }
                            None
                        }
                    };
                    if !agg_input_ok(*kind, vdt) {
                        errs.push(VerifyError::at(
                            plan,
                            i,
                            Rule::TypeMismatch,
                            format!("fused {} over a {} column", kind.sql(), fmt_dt(vdt)),
                        ));
                    }
                    out.push(Shape::value_bat(agg_result(*kind, vdt)));
                }
                out
            }
            MalOp::ScalarAgg { kind, vals } => {
                let dt = want_bat(&mut errs, &shapes, plan, i, *vals, "scalar aggregate input");
                if !agg_input_ok(*kind, dt) {
                    errs.push(
                        VerifyError::at(
                            plan,
                            i,
                            Rule::TypeMismatch,
                            format!("scalar {} over a {} column", kind.sql(), fmt_dt(dt)),
                        )
                        .with_var(*vals),
                    );
                }
                vec![Shape::Scalar { dt: agg_result(*kind, dt) }]
            }
            MalOp::Concat { parts } => {
                if parts.is_empty() {
                    errs.push(VerifyError::at(plan, i, Rule::DestArity, "concat of zero parts"));
                }
                let mut dt: Option<DataType> = None;
                let mut cands = !parts.is_empty();
                for &p in parts {
                    match shape_of(&shapes, p) {
                        Shape::Bat { dt: pdt, cands: pc } => {
                            cands &= pc;
                            match (dt, pdt) {
                                (Some(a), Some(b)) if a != b => {
                                    errs.push(
                                        VerifyError::at(
                                            plan,
                                            i,
                                            Rule::TypeMismatch,
                                            format!("concat mixes {a} and {b} parts"),
                                        )
                                        .with_var(p),
                                    );
                                }
                                (None, Some(b)) => dt = Some(b),
                                _ => {}
                            }
                        }
                        other => {
                            errs.push(
                                VerifyError::at(
                                    plan,
                                    i,
                                    Rule::OperandKind,
                                    format!(
                                        "concat part must be a BAT, found {}",
                                        other.describe()
                                    ),
                                )
                                .with_var(p),
                            );
                        }
                    }
                }
                vec![Shape::Bat { dt, cands }]
            }
            MalOp::MapArith { left, right, op } => {
                let lt = want_bat(&mut errs, &shapes, plan, i, *left, "arith left");
                let rt = want_bat(&mut errs, &shapes, plan, i, *right, "arith right");
                for (v, dt) in [(*left, lt), (*right, rt)] {
                    if let Some(d) = dt {
                        if !numeric(d) {
                            errs.push(
                                VerifyError::at(
                                    plan,
                                    i,
                                    Rule::TypeMismatch,
                                    format!("arithmetic over a {d} column"),
                                )
                                .with_var(v),
                            );
                        }
                    }
                }
                vec![Shape::value_bat(arith_result(*op, lt, rt))]
            }
            MalOp::MapScalar { input, op, value } => {
                let dt = want_bat(&mut errs, &shapes, plan, i, *input, "arith input");
                if let Some(d) = dt {
                    if !numeric(d) {
                        errs.push(
                            VerifyError::at(
                                plan,
                                i,
                                Rule::TypeMismatch,
                                format!("arithmetic over a {d} column"),
                            )
                            .with_var(*input),
                        );
                    }
                }
                let vdt = value.data_type();
                if !numeric(vdt) {
                    errs.push(VerifyError::at(
                        plan,
                        i,
                        Rule::TypeMismatch,
                        format!("arithmetic constant of type {vdt}"),
                    ));
                }
                vec![Shape::value_bat(arith_result(*op, dt, Some(vdt)))]
            }
            MalOp::DivScalar { num, den } => {
                for (v, what) in [(*num, "division numerator"), (*den, "division denominator")] {
                    if !matches!(shape_of(&shapes, v), Shape::Scalar { .. }) {
                        errs.push(
                            VerifyError::at(
                                plan,
                                i,
                                Rule::OperandKind,
                                format!(
                                    "{what} must be a scalar, found {}",
                                    shape_of(&shapes, v).describe()
                                ),
                            )
                            .with_var(v),
                        );
                    }
                }
                vec![Shape::Scalar { dt: Some(DataType::Float) }]
            }
            MalOp::Sort { input, .. } | MalOp::Distinct { input } | MalOp::Slice { input, .. } => {
                match shape_of(&shapes, *input) {
                    b @ Shape::Bat { .. } => vec![b],
                    other => {
                        errs.push(
                            VerifyError::at(
                                plan,
                                i,
                                Rule::OperandKind,
                                format!(
                                    "{} input must be a BAT, found {}",
                                    ins.op.name(),
                                    other.describe()
                                ),
                            )
                            .with_var(*input),
                        );
                        vec![Shape::Bat { dt: None, cands: false }]
                    }
                }
            }
            MalOp::SortPerm { input, .. } => {
                want_bat(&mut errs, &shapes, plan, i, *input, "sortperm input");
                vec![Shape::cand_list()]
            }
        };
        for (&d, s) in ins.dests.iter().zip(dests) {
            if let Some(slot) = shapes.get_mut(d) {
                *slot = Some(s);
            }
        }
    }
    errs
}

/// The value type a predicate compares against, when uniform.
fn pred_value_type(pred: &Predicate) -> Option<DataType> {
    match pred {
        Predicate::Cmp(_, v) => Some(v.data_type()),
        Predicate::Range { lo, hi, .. } => {
            let (a, b) = (lo.data_type(), hi.data_type());
            // Mixed int/float bounds still type-check against numeric
            // columns; report the "wider" side.
            if a == b {
                Some(a)
            } else if numeric(a) && numeric(b) {
                Some(DataType::Float)
            } else {
                Some(a)
            }
        }
        Predicate::And(a, b) => pred_value_type(a).or_else(|| pred_value_type(b)),
        Predicate::True => None,
    }
}

fn arith_result(op: ArithOp, l: Option<DataType>, r: Option<DataType>) -> Option<DataType> {
    if op == ArithOp::Div {
        return Some(DataType::Float);
    }
    match (l, r) {
        (Some(DataType::Int), Some(DataType::Int)) => Some(DataType::Int),
        (Some(a), Some(b)) if numeric(a) && numeric(b) => Some(DataType::Float),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Full verification: structural rules first, then (only when structurally
/// clean, so shape inference can trust the SSA form) operand-kind and type
/// checks. Returns every diagnostic found.
pub fn verify_all(plan: &MalPlan, schema: &dyn SchemaSource) -> Vec<VerifyError> {
    let errs = verify_structural(plan);
    if !errs.is_empty() {
        return errs;
    }
    verify_typed(plan, schema)
}

/// Schema-less verification returning the first diagnostic as a
/// [`PlanError::Verify`]. The standard pass-boundary check.
pub fn verify(plan: &MalPlan) -> crate::Result<()> {
    match verify_all(plan, &NoSchema).into_iter().next() {
        None => Ok(()),
        Some(e) => Err(PlanError::Verify(Box::new(e))),
    }
}

/// Is pass-boundary verification enabled? Always under
/// `debug_assertions`; in release builds when `DATACELL_VERIFY` is set to
/// `1`/`true`/`on`.
pub fn enabled() -> bool {
    cfg!(debug_assertions) || env_enabled()
}

/// The `DATACELL_VERIFY` environment override alone (release-build gate).
pub fn env_enabled() -> bool {
    matches!(
        std::env::var("DATACELL_VERIFY").ok().as_deref().map(str::trim),
        Some("1" | "true" | "on" | "yes")
    )
}

/// Differential pass validation: run a MAL→MAL pass with the verifier
/// asserting cleanliness on both sides of the boundary. When verification
/// is disabled ([`enabled`]), the pass runs unchecked at full speed.
///
/// A dirty *input* means the bug is upstream of `name`; a dirty *output*
/// convicts the pass itself — the returned diagnostic carries the pass
/// name, the op index and the offending variable either way.
pub fn checked_pass<F>(name: &str, plan: &MalPlan, pass: F) -> crate::Result<MalPlan>
where
    F: FnOnce(&MalPlan) -> MalPlan,
{
    if !enabled() {
        return Ok(pass(plan));
    }
    if let Some(e) = verify_all(plan, &NoSchema).into_iter().next() {
        return Err(PlanError::Verify(Box::new(e.in_pass(&format!("{name} (input)")))));
    }
    let out = pass(plan);
    if let Some(e) = verify_all(&out, &NoSchema).into_iter().next() {
        return Err(PlanError::Verify(Box::new(e.in_pass(name))));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mal::{Instr, MalBuilder};

    fn bind(b: &mut MalBuilder, attr: &str) -> VarId {
        b.emit(MalOp::BindStream { stream: "s".into(), attr: attr.into() })
    }

    #[test]
    fn clean_plan_verifies() {
        let mut b = MalBuilder::new();
        let x = bind(&mut b, "x");
        let c = b.emit(MalOp::Select { input: x, pred: Predicate::gt(10) });
        let v = b.emit(MalOp::Fetch { cands: c, values: x });
        let s = b.emit(MalOp::ScalarAgg { kind: AggKind::Sum, vals: v });
        let plan = b.finish(vec!["s".into()], vec![s]);
        assert!(verify_all(&plan, &NoSchema).is_empty());
        verify(&plan).unwrap();
    }

    #[test]
    fn select_over_candidate_list_is_operand_kind_error() {
        let mut b = MalBuilder::new();
        let x = bind(&mut b, "x");
        let c = b.emit(MalOp::Select { input: x, pred: Predicate::gt(10) });
        let c2 = b.emit(MalOp::Select { input: c, pred: Predicate::gt(0) });
        let plan = b.finish(vec!["c".into()], vec![c2]);
        let errs = verify_all(&plan, &NoSchema);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, Rule::OperandKind);
        assert_eq!(errs[0].instr, Some(2));
        assert_eq!(errs[0].var, Some(c));
    }

    #[test]
    fn schema_types_flow_through_select_fetch() {
        let schema =
            SchemaOverlay::new(&NoSchema).with_stream("s", vec![("x".into(), DataType::Str)]);
        let mut b = MalBuilder::new();
        let x = bind(&mut b, "x");
        let c = b.emit(MalOp::Select { input: x, pred: Predicate::gt(10) });
        let v = b.emit(MalOp::Fetch { cands: c, values: x });
        let s = b.emit(MalOp::ScalarAgg { kind: AggKind::Sum, vals: v });
        let plan = b.finish(vec!["s".into()], vec![s]);
        // int predicate against a str column.
        let errs = verify_all(&plan, &schema);
        assert!(
            errs.iter().any(|e| e.rule == Rule::TypeMismatch && e.instr == Some(1)),
            "{errs:?}"
        );
    }

    #[test]
    fn arith_over_strings_flagged() {
        let schema = SchemaOverlay::new(&NoSchema)
            .with_stream("s", vec![("x".into(), DataType::Str), ("y".into(), DataType::Int)]);
        let mut b = MalBuilder::new();
        let x = bind(&mut b, "x");
        let y = bind(&mut b, "y");
        let m = b.emit(MalOp::MapArith { left: x, right: y, op: ArithOp::Add });
        let plan = b.finish(vec!["m".into()], vec![m]);
        let errs = verify_all(&plan, &schema);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, Rule::TypeMismatch);
        assert_eq!(errs[0].var, Some(x));
    }

    #[test]
    fn div_scalar_wants_scalars() {
        let mut b = MalBuilder::new();
        let x = bind(&mut b, "x");
        let d = b.emit(MalOp::DivScalar { num: x, den: x });
        let plan = b.finish(vec!["d".into()], vec![d]);
        let errs = verify_all(&plan, &NoSchema);
        assert_eq!(errs.len(), 2);
        assert!(errs.iter().all(|e| e.rule == Rule::OperandKind));
    }

    #[test]
    fn grouped_min_without_values_rejected() {
        let mut b = MalBuilder::new();
        let k = bind(&mut b, "k");
        let (_, aggs) = b.emit_group_agg(k, vec![(AggKind::Min, None)]);
        let plan = b.finish(vec!["m".into()], vec![aggs[0]]);
        let errs = verify_all(&plan, &NoSchema);
        assert!(errs.iter().any(|e| e.rule == Rule::OperandKind && e.instr == Some(1)));
    }

    #[test]
    fn structural_errors_win_over_type_inference() {
        // Read-before-write: typed checks must not run (shape env would
        // be incoherent), and the structural diagnostic is precise.
        let plan = MalPlan {
            instrs: vec![Instr { dests: vec![0], op: MalOp::Distinct { input: 1 } }],
            result_names: vec![],
            result_vars: vec![],
            nvars: 2,
            streams: vec![],
        };
        let errs = verify_all(&plan, &NoSchema);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].rule, Rule::UseBeforeDef);
        assert_eq!(errs[0].var, Some(1));
        assert_eq!(errs[0].instr, Some(0));
    }

    #[test]
    fn checked_pass_catches_a_corrupting_pass() {
        let mut b = MalBuilder::new();
        let x = bind(&mut b, "x");
        let plan = b.finish(vec!["x".into()], vec![x]);
        // Identity pass: clean.
        assert!(checked_pass("identity", &plan, Clone::clone).is_ok());
        // A "pass" that corrupts the program by dropping the only write.
        let res = checked_pass("drop-writes", &plan, |p| {
            let mut out = p.clone();
            out.instrs.clear();
            out
        });
        match res {
            Err(PlanError::Verify(e)) => {
                assert_eq!(e.rule, Rule::ResultUnwritten);
                assert_eq!(e.pass.as_deref(), Some("drop-writes"));
            }
            other => panic!("expected a verify error, got {other:?}"),
        }
    }

    #[test]
    fn display_carries_location() {
        let mut b = MalBuilder::new();
        let x = bind(&mut b, "x");
        let c = b.emit(MalOp::Select { input: x, pred: Predicate::gt(10) });
        let c2 = b.emit(MalOp::Select { input: c, pred: Predicate::gt(0) });
        let plan = b.finish(vec!["c".into()], vec![c2]);
        let e = verify_all(&plan, &NoSchema).remove(0);
        let text = e.to_string();
        assert!(text.contains("instr 2"), "{text}");
        assert!(text.contains("algebra.select"), "{text}");
        assert!(text.contains("(X_1)"), "{text}");
        assert!(text.contains("[operand-kind]"), "{text}");
    }
}
