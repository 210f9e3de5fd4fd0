//! Logical plan optimization.
//!
//! DataCell "leverag\[es\] the algebraic query optimization performed by the
//! DBMS's query optimizer" (paper §3): the incremental rewriter runs *after*
//! ordinary relational optimization. This module provides the standard
//! rewrites that matter for the supported plan shapes:
//!
//! * **filter pushdown** through projections and below joins (a filter that
//!   touches only one join side moves onto that side);
//! * **trivial filter elimination** (`Predicate::True`);
//! * **filter ordering**: equality predicates before range predicates on the
//!   same input (cheapest-first heuristic without statistics);
//! * **filter merging**: adjacent filters on the *same* column collapse
//!   into one conjunction ([`Predicate::and`]), so `a > v1 AND a < v2`
//!   becomes a single range select instead of a select + fetch + select
//!   chain — and downstream MAL passes see canonical plan shapes.

use crate::logical::LogicalPlan;
use datacell_kernel::algebra::Predicate;

/// Apply all rewrites until fixpoint (the pass set is terminating: each
/// rewrite strictly reduces a measure — filter depth or plan size).
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    let mut plan = plan;
    loop {
        let (next, changed) = pass(plan);
        plan = next;
        if !changed {
            return plan;
        }
    }
}

fn pass(plan: LogicalPlan) -> (LogicalPlan, bool) {
    match plan {
        // -- trivial filter elimination ---------------------------------
        LogicalPlan::Filter { input, pred: Predicate::True, .. } => {
            let (inner, _) = pass(*input);
            (inner, true)
        }
        // -- pushdown through project -----------------------------------
        LogicalPlan::Filter { input, column, pred } => match *input {
            LogicalPlan::Project { input: pinput, columns } => {
                // The filter references base columns (qualified), which are
                // still available below the projection.
                let pushed = LogicalPlan::Filter { input: pinput, column, pred };
                (LogicalPlan::Project { input: Box::new(pushed), columns }, true)
            }
            LogicalPlan::Join { left, right, left_on, right_on } => {
                let on_left = plan_has_source(&left, &column.source);
                let on_right = plan_has_source(&right, &column.source);
                match (on_left, on_right) {
                    (true, false) => {
                        let new_left = LogicalPlan::Filter { input: left, column, pred };
                        (
                            LogicalPlan::Join {
                                left: Box::new(new_left),
                                right,
                                left_on,
                                right_on,
                            },
                            true,
                        )
                    }
                    (false, true) => {
                        let new_right = LogicalPlan::Filter { input: right, column, pred };
                        (
                            LogicalPlan::Join {
                                left,
                                right: Box::new(new_right),
                                left_on,
                                right_on,
                            },
                            true,
                        )
                    }
                    // Ambiguous or unresolvable: keep above the join.
                    _ => {
                        let (l, cl) = pass(*left);
                        let (r, cr) = pass(*right);
                        (
                            LogicalPlan::Filter {
                                input: Box::new(LogicalPlan::Join {
                                    left: Box::new(l),
                                    right: Box::new(r),
                                    left_on,
                                    right_on,
                                }),
                                column,
                                pred,
                            },
                            cl || cr,
                        )
                    }
                }
            }
            // -- same-column filters merge into one conjunction ----------
            LogicalPlan::Filter { input: inner_input, column: inner_col, pred: inner_pred }
                if inner_col == column =>
            {
                let merged = LogicalPlan::Filter {
                    input: inner_input,
                    column,
                    pred: Predicate::and(inner_pred, pred),
                };
                (merged, true)
            }
            // -- equality-first ordering of adjacent filters -------------
            LogicalPlan::Filter { input: inner_input, column: inner_col, pred: inner_pred } => {
                let outer_is_eq = is_equality(&pred);
                let inner_is_eq = is_equality(&inner_pred);
                if outer_is_eq && !inner_is_eq {
                    // Swap: run the (cheaper, usually more selective)
                    // equality filter first.
                    let swapped = LogicalPlan::Filter {
                        input: Box::new(LogicalPlan::Filter { input: inner_input, column, pred }),
                        column: inner_col,
                        pred: inner_pred,
                    };
                    (swapped, true)
                } else {
                    let (inner, changed) = pass(LogicalPlan::Filter {
                        input: inner_input,
                        column: inner_col,
                        pred: inner_pred,
                    });
                    (LogicalPlan::Filter { input: Box::new(inner), column, pred }, changed)
                }
            }
            other => {
                let (inner, changed) = pass(other);
                (LogicalPlan::Filter { input: Box::new(inner), column, pred }, changed)
            }
        },
        // -- recurse ------------------------------------------------------
        LogicalPlan::Join { left, right, left_on, right_on } => {
            let (l, cl) = pass(*left);
            let (r, cr) = pass(*right);
            (
                LogicalPlan::Join { left: Box::new(l), right: Box::new(r), left_on, right_on },
                cl || cr,
            )
        }
        LogicalPlan::Aggregate { input, group_by, aggs } => {
            let (i, c) = pass(*input);
            (LogicalPlan::Aggregate { input: Box::new(i), group_by, aggs }, c)
        }
        LogicalPlan::Project { input, columns } => {
            let (i, c) = pass(*input);
            (LogicalPlan::Project { input: Box::new(i), columns }, c)
        }
        LogicalPlan::Distinct { input } => {
            let (i, c) = pass(*input);
            (LogicalPlan::Distinct { input: Box::new(i) }, c)
        }
        LogicalPlan::OrderBy { input, column, desc } => {
            let (i, c) = pass(*input);
            (LogicalPlan::OrderBy { input: Box::new(i), column, desc }, c)
        }
        LogicalPlan::Limit { input, n } => {
            let (i, c) = pass(*input);
            (LogicalPlan::Limit { input: Box::new(i), n }, c)
        }
        leaf @ (LogicalPlan::ScanStream { .. } | LogicalPlan::ScanTable { .. }) => (leaf, false),
    }
}

fn is_equality(p: &Predicate) -> bool {
    matches!(p, Predicate::Cmp(datacell_kernel::algebra::CmpOp::Eq, _))
}

fn plan_has_source(plan: &LogicalPlan, source: &str) -> bool {
    match plan {
        LogicalPlan::ScanStream { stream } => stream == source,
        LogicalPlan::ScanTable { table } => table == source,
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Distinct { input }
        | LogicalPlan::OrderBy { input, .. }
        | LogicalPlan::Limit { input, .. } => plan_has_source(input, source),
        LogicalPlan::Join { left, right, .. } => {
            plan_has_source(left, source) || plan_has_source(right, source)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::ColumnRef;

    fn col(s: &str, a: &str) -> ColumnRef {
        ColumnRef::new(s, a)
    }

    #[test]
    fn true_filter_removed() {
        let p = LogicalPlan::stream("s")
            .filter(col("s", "x"), Predicate::True)
            .project(vec![(col("s", "x"), "x".into())]);
        let o = optimize(p);
        assert!(!o.explain().contains("filter"));
    }

    #[test]
    fn filter_pushed_below_join_left() {
        let p = LogicalPlan::stream("a")
            .join(LogicalPlan::stream("b"), col("a", "k"), col("b", "k"))
            .filter(col("a", "x"), Predicate::gt(5));
        let o = optimize(p);
        // After pushdown the filter sits directly above "scan stream a".
        let text = o.explain();
        let filter_line = text.lines().position(|l| l.contains("filter a.x")).unwrap();
        let scan_a_line = text.lines().position(|l| l.contains("scan stream a")).unwrap();
        assert_eq!(scan_a_line, filter_line + 1);
    }

    #[test]
    fn filter_pushed_below_join_right() {
        let p = LogicalPlan::stream("a")
            .join(LogicalPlan::stream("b"), col("a", "k"), col("b", "k"))
            .filter(col("b", "y"), Predicate::lt(3));
        let o = optimize(p);
        let text = o.explain();
        let filter_line = text.lines().position(|l| l.contains("filter b.y")).unwrap();
        let scan_b_line = text.lines().position(|l| l.contains("scan stream b")).unwrap();
        assert_eq!(scan_b_line, filter_line + 1);
    }

    #[test]
    fn filter_pushed_through_project() {
        let p = LogicalPlan::stream("s")
            .project(vec![(col("s", "x"), "x".into())])
            .filter(col("s", "x"), Predicate::gt(1));
        let o = optimize(p);
        let text = o.explain();
        // project ends up on top.
        assert!(text.starts_with("project"));
    }

    #[test]
    fn equality_filter_ordered_first() {
        let p = LogicalPlan::stream("s")
            .filter(col("s", "a"), Predicate::gt(1)) // range (inner, runs first pre-opt)
            .filter(col("s", "b"), Predicate::eq(2)) // equality (outer)
            .project(vec![(col("s", "a"), "a".into())]);
        let o = optimize(p);
        let text = o.explain();
        let eq_line = text.lines().position(|l| l.contains("filter s.b")).unwrap();
        let range_line = text.lines().position(|l| l.contains("filter s.a")).unwrap();
        // Equality is now deeper (closer to the scan) => runs first.
        assert!(eq_line > range_line);
    }

    #[test]
    fn optimize_reaches_fixpoint_on_clean_plan() {
        let p = LogicalPlan::stream("s")
            .filter(col("s", "x"), Predicate::gt(0))
            .project(vec![(col("s", "x"), "x".into())]);
        let o = optimize(p.clone());
        assert_eq!(o, p);
    }

    #[test]
    fn ambiguous_filter_stays_above_join() {
        // Column source matches neither side: filter cannot move.
        let p = LogicalPlan::stream("a")
            .join(LogicalPlan::stream("b"), col("a", "k"), col("b", "k"))
            .filter(col("c", "x"), Predicate::gt(5));
        let o = optimize(p);
        assert!(o.explain().starts_with("filter c.x"));
    }

    #[test]
    fn same_column_filters_merge_into_one_conjunction() {
        // a > 1 AND a < 5 on the same column: one filter, one Range pred.
        let p = LogicalPlan::stream("s")
            .filter(col("s", "a"), Predicate::gt(1))
            .filter(col("s", "a"), Predicate::lt(5))
            .project(vec![(col("s", "a"), "a".into())]);
        let o = optimize(p);
        let filters = o.explain().lines().filter(|l| l.contains("filter")).count();
        assert_eq!(filters, 1);
        let LogicalPlan::Project { input, .. } = &o else { panic!("project on top") };
        let LogicalPlan::Filter { pred, .. } = input.as_ref() else { panic!("merged filter") };
        assert!(matches!(pred, Predicate::Range { .. }), "gt+lt folded to a range: {pred:?}");
    }

    #[test]
    fn same_column_merge_keeps_residual_conjunctions() {
        // Two lower bounds cannot fold to a Range; they still merge into
        // one filter carrying a Predicate::And.
        let p = LogicalPlan::stream("s")
            .filter(col("s", "a"), Predicate::gt(1))
            .filter(col("s", "a"), Predicate::gt(3))
            .project(vec![(col("s", "a"), "a".into())]);
        let o = optimize(p);
        let LogicalPlan::Project { input, .. } = &o else { panic!("project on top") };
        let LogicalPlan::Filter { pred, .. } = input.as_ref() else { panic!("merged filter") };
        assert!(matches!(pred, Predicate::And(..)));
    }

    #[test]
    fn different_column_filters_do_not_merge() {
        let p = LogicalPlan::stream("s")
            .filter(col("s", "a"), Predicate::gt(1))
            .filter(col("s", "b"), Predicate::lt(5))
            .project(vec![(col("s", "a"), "a".into())]);
        let o = optimize(p);
        let filters = o.explain().lines().filter(|l| l.contains("filter")).count();
        assert_eq!(filters, 2);
    }
}
