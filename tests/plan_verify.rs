//! The verifier as an oracle: hand-built malformed plans must each produce
//! the exact pinned diagnostic (rule, instruction index, variable), the
//! full SQL corpus must verify clean end to end, and property tests check
//! that randomly generated valid plans stay verifier-clean through random
//! optimizer pass pipelines.

use datacell::kernel::algebra::{AggKind, Predicate};
use datacell::kernel::{DataType, Value};
use datacell::plan::mal::{Instr, MalBuilder, MalOp, MalPlan};
use datacell::plan::verify::{
    checked_pass, verify_all, verify_structural, NoSchema, Rule, SchemaOverlay, VerifyError,
};
use datacell::plan::{compile, optimize};
use proptest::prelude::*;

/// Shorthand: (rule, instr, var) of one diagnostic.
fn key(e: &VerifyError) -> (Rule, Option<usize>, Option<usize>) {
    (e.rule, e.instr, e.var)
}

/// A minimal valid plan: bind k, bind v, sum(v), result the sum.
fn bind_sum() -> MalPlan {
    let mut b = MalBuilder::new();
    let _k = b.emit(MalOp::BindStream { stream: "s".into(), attr: "k".into() });
    let v = b.emit(MalOp::BindStream { stream: "s".into(), attr: "v".into() });
    let s = b.emit(MalOp::ScalarAgg { kind: AggKind::Sum, vals: v });
    b.finish(vec!["sum".into()], vec![s])
}

// ---------------------------------------------------------------------------
// Negative plans: each pins one exact diagnostic.
// ---------------------------------------------------------------------------

#[test]
fn use_before_def_is_pinned_to_the_reader() {
    let mut plan = bind_sum();
    // Make the aggregate read a var only written later (swap instrs 1/2).
    plan.instrs.swap(1, 2);
    let errs = verify_structural(&plan);
    assert!(!errs.is_empty());
    assert_eq!(key(&errs[0]), (Rule::UseBeforeDef, Some(1), Some(1)));
    assert_eq!(errs[0].op, Some("aggr.scalar"));
    assert!(errs[0].to_string().contains("use-before-def"), "{}", errs[0]);
}

#[test]
fn double_assign_is_pinned_to_the_second_writer() {
    let mut plan = bind_sum();
    // Instr 2 re-writes var 0, which instr 0 already wrote.
    plan.instrs[2].dests = vec![0];
    plan.result_vars = vec![0];
    let errs = verify_structural(&plan);
    assert_eq!(key(&errs[0]), (Rule::DoubleAssign, Some(2), Some(0)));
}

#[test]
fn join_with_one_dest_is_a_dest_arity_error() {
    let mut plan = bind_sum();
    plan.instrs[2] = Instr { dests: vec![2], op: MalOp::Join { left: 0, right: 1 } };
    let errs = verify_structural(&plan);
    assert_eq!(errs[0].rule, Rule::DestArity);
    assert_eq!(errs[0].instr, Some(2));
    assert_eq!(errs[0].op, Some("algebra.join"));
}

#[test]
fn out_of_range_operand_is_a_var_range_error() {
    let mut plan = bind_sum();
    plan.instrs[2] = Instr { dests: vec![2], op: MalOp::ScalarAgg { kind: AggKind::Sum, vals: 9 } };
    let errs = verify_structural(&plan);
    assert_eq!(key(&errs[0]), (Rule::VarRange, Some(2), Some(9)));
}

#[test]
fn unwritten_result_var_is_reported_at_plan_level() {
    let mut plan = bind_sum();
    plan.nvars += 1;
    plan.result_vars = vec![3];
    let errs = verify_structural(&plan);
    assert_eq!(key(&errs[0]), (Rule::ResultUnwritten, None, Some(3)));
}

#[test]
fn select_over_a_candidate_list_is_an_operand_kind_error() {
    let mut b = MalBuilder::new();
    let k = b.emit(MalOp::BindStream { stream: "s".into(), attr: "k".into() });
    let c = b.emit(MalOp::Select { input: k, pred: Predicate::gt(Value::Int(1)) });
    let c2 = b.emit(MalOp::Select { input: c, pred: Predicate::gt(Value::Int(2)) });
    let plan = b.finish(vec!["c".into()], vec![c2]);
    let errs = verify_all(&plan, &NoSchema);
    assert_eq!(key(&errs[0]), (Rule::OperandKind, Some(2), Some(c)));
    assert_eq!(errs[0].op, Some("algebra.select"));
}

#[test]
fn fetch_through_a_value_bat_is_an_operand_kind_error() {
    let mut b = MalBuilder::new();
    let k = b.emit(MalOp::BindStream { stream: "s".into(), attr: "k".into() });
    let v = b.emit(MalOp::BindStream { stream: "s".into(), attr: "v".into() });
    // `cands` is a known-int value BAT, not an oid candidate list. (With
    // no schema the candidate type stays open and the check is skipped.)
    let f = b.emit(MalOp::Fetch { cands: k, values: v });
    let plan = b.finish(vec!["f".into()], vec![f]);
    assert!(verify_all(&plan, &NoSchema).is_empty());
    let schema =
        SchemaOverlay::new(&NoSchema).with_stream("s", vec![("k".to_owned(), DataType::Int)]);
    let errs = verify_all(&plan, &schema);
    assert_eq!(key(&errs[0]), (Rule::OperandKind, Some(2), Some(k)));
    assert_eq!(errs[0].op, Some("algebra.fetch"));
}

#[test]
fn sum_over_a_string_column_is_a_type_mismatch() {
    let mut b = MalBuilder::new();
    let lvl = b.emit(MalOp::BindStream { stream: "logs".into(), attr: "level".into() });
    let s = b.emit(MalOp::ScalarAgg { kind: AggKind::Sum, vals: lvl });
    let plan = b.finish(vec!["sum".into()], vec![s]);
    let schema = SchemaOverlay::new(&NoSchema)
        .with_stream("logs", vec![("level".to_owned(), DataType::Str)]);
    let errs = verify_all(&plan, &schema);
    assert_eq!(key(&errs[0]), (Rule::TypeMismatch, Some(1), Some(lvl)));
    assert!(errs[0].message.contains("sum over a str column"), "{}", errs[0]);
    // With no schema the input type stays open and the check is skipped.
    assert!(verify_all(&plan, &NoSchema).is_empty());
}

#[test]
fn concat_of_mismatched_column_types_is_a_type_mismatch() {
    let mut b = MalBuilder::new();
    let i = b.emit(MalOp::BindStream { stream: "s".into(), attr: "n".into() });
    let t = b.emit(MalOp::BindStream { stream: "logs".into(), attr: "level".into() });
    let c = b.emit(MalOp::Concat { parts: vec![i, t] });
    let plan = b.finish(vec!["c".into()], vec![c]);
    let schema = SchemaOverlay::new(&NoSchema)
        .with_stream("s", vec![("n".to_owned(), DataType::Int)])
        .with_stream("logs", vec![("level".to_owned(), DataType::Str)]);
    let errs = verify_all(&plan, &schema);
    assert_eq!(errs[0].rule, Rule::TypeMismatch);
    assert_eq!(errs[0].instr, Some(2));
    assert_eq!(errs[0].var, Some(t));
}

#[test]
fn div_scalar_over_bats_is_an_operand_kind_error() {
    let mut b = MalBuilder::new();
    let k = b.emit(MalOp::BindStream { stream: "s".into(), attr: "k".into() });
    let v = b.emit(MalOp::BindStream { stream: "s".into(), attr: "v".into() });
    let d = b.emit(MalOp::DivScalar { num: k, den: v });
    let plan = b.finish(vec!["d".into()], vec![d]);
    let errs = verify_all(&plan, &NoSchema);
    assert_eq!(key(&errs[0]), (Rule::OperandKind, Some(2), Some(k)));
    assert_eq!(errs[0].op, Some("calc.div"));
}

#[test]
fn grouped_sum_without_a_value_column_is_rejected() {
    let mut b = MalBuilder::new();
    let k = b.emit(MalOp::BindStream { stream: "s".into(), attr: "k".into() });
    let (_, aggs) = b.emit_group_agg(k, vec![(AggKind::Sum, None)]);
    let plan = b.finish(vec!["a".into()], vec![aggs[0]]);
    let errs = verify_all(&plan, &NoSchema);
    assert_eq!(errs[0].rule, Rule::OperandKind);
    assert_eq!(errs[0].instr, Some(1));
    assert_eq!(errs[0].op, Some("group.agg"));
}

// ---------------------------------------------------------------------------
// The SQL corpus verifies clean through the whole pipeline.
// ---------------------------------------------------------------------------

#[test]
fn every_corpus_query_verifies_clean() {
    let streams = datacell::sql::corpus_streams();
    for (name, sql) in datacell::sql::corpus() {
        let q = datacell::sql::parse(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mal = compile(&optimize(q.plan)).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut schema = SchemaOverlay::new(&NoSchema);
        for (s, cols) in &streams {
            schema = schema.with_stream(
                (*s).to_owned(),
                cols.iter().map(|&(c, t)| (c.to_owned(), t)).collect(),
            );
        }
        let errs = verify_all(&mal, &schema);
        assert!(errs.is_empty(), "{name}: {:?}\n{}", errs, mal.explain());
        // The rewriter's pass holds verifier-cleanliness on every entry.
        checked_pass("expand_avg", &mal, datacell::core::rewrite::expand_avg)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let inc = datacell::core::rewrite(&mal).unwrap_or_else(|e| panic!("{name}: {e}"));
        datacell::core::verify_incremental(&inc).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

// ---------------------------------------------------------------------------
// Property tests: random valid plans stay clean through random pipelines.
// ---------------------------------------------------------------------------

/// Build a valid plan from random shape parameters, mirroring the shapes
/// the SQL compiler emits: optional filter, then either a group-agg node
/// or scalar aggregates.
fn gen_plan(nattrs: usize, filter: bool, grouped: bool, aggs: &[AggKind], thr: i64) -> MalPlan {
    let mut b = MalBuilder::new();
    let binds: Vec<usize> = (0..nattrs.max(2))
        .map(|i| b.emit(MalOp::BindStream { stream: "s".into(), attr: format!("a{i}") }))
        .collect();
    let (mut k, mut v) = (binds[0], binds[1]);
    if filter {
        let c = b.emit(MalOp::Select { input: binds[0], pred: Predicate::gt(Value::Int(thr)) });
        k = b.emit(MalOp::Fetch { cands: c, values: binds[0] });
        v = b.emit(MalOp::Fetch { cands: c, values: binds[1] });
    }
    let (mut names, mut vars) = (Vec::new(), Vec::new());
    if grouped {
        let specs = aggs.iter().map(|&kind| (kind, (kind != AggKind::Count).then_some(v)));
        let (gk, ads) = b.emit_group_agg(k, specs.collect());
        names.push("k".to_owned());
        vars.push(gk);
        for (i, a) in ads.into_iter().enumerate() {
            names.push(format!("agg{i}"));
            vars.push(a);
        }
    } else {
        for (i, &kind) in aggs.iter().enumerate() {
            let a = b.emit(MalOp::ScalarAgg { kind, vals: v });
            names.push(format!("agg{i}"));
            vars.push(a);
        }
    }
    b.finish(names, vars)
}

const ALL_AGGS: [AggKind; 5] =
    [AggKind::Sum, AggKind::Count, AggKind::Min, AggKind::Max, AggKind::Avg];

proptest! {
    #[test]
    fn random_valid_plans_verify_clean(
        nattrs in 2usize..4,
        filter in any::<bool>(),
        grouped in any::<bool>(),
        aggmask in 1usize..32,
        thr in -100i64..100,
    ) {
        let aggs: Vec<AggKind> = ALL_AGGS
            .iter()
            .enumerate()
            .filter(|&(i, _)| aggmask & (1 << i) != 0)
            .map(|(_, &k)| k)
            .collect();
        let plan = gen_plan(nattrs, filter, grouped, &aggs, thr);
        let errs = verify_all(&plan, &NoSchema);
        prop_assert!(errs.is_empty(), "{errs:?}\n{}", plan.explain());
    }

    #[test]
    fn random_pass_pipelines_preserve_cleanliness(
        filter in any::<bool>(),
        grouped in any::<bool>(),
        aggmask in 1usize..32,
        thr in -100i64..100,
        passes in 0usize..5,
    ) {
        let aggs: Vec<AggKind> = ALL_AGGS
            .iter()
            .enumerate()
            .filter(|&(i, _)| aggmask & (1 << i) != 0)
            .map(|(_, &k)| k)
            .collect();
        let mut plan = gen_plan(2, filter, grouped, &aggs, thr);
        for _ in 0..passes {
            // checked_pass verifies the plan both entering and leaving the
            // pass; any dirtiness makes it return Err.
            plan = checked_pass("expand_avg", &plan, datacell::core::rewrite::expand_avg)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        prop_assert!(verify_all(&plan, &NoSchema).is_empty());
    }
}
