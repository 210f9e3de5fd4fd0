//! Merging partial results — one merge, three levels.
//!
//! "The simplest case are operators where a simple concatenation of the
//! partial results forms the correct complete result. [...] The next
//! category consists of operations that can be replicated as-is, but
//! require some compensation after the concatenation [...] For instance, a
//! count is to be compensated by a sum of the partial results." (paper §3)
//!
//! [`merge_frontier`] is that rule — `concat` plus one compensating action
//! per frontier unit. The incremental factory calls it at every level at
//! which partials meet, changing nothing but where the parts come from:
//!
//! * ring slots → the window's merged frontier;
//! * `[cumulative, new basic window]` → a landmark window's next cumulative;
//! * chunk partials → one basic window's ring slot (the m-chunk
//!   optimization: "process the latest basic window incrementally just as
//!   we process the whole window incrementally").
//!
//! [`fold_part`] is the same rule over two parts, kept in place: a join's
//! new cells fold into the ring slot that expires them.
//!
//! Every rule is associative over the part list, which is what makes the
//! levels interchangeable: merging `[merge([a, b]), c]` equals merging
//! `[a, b, c]` (property-tested in `tests/kernel_props.rs`).

use crate::error::DataCellError;
use crate::rewrite::{Cluster, IncrementalPlan, MergeUnit, VarKind};
use datacell_kernel::algebra::{self, AggKind};
use datacell_kernel::par::{self, ParConfig};
use datacell_kernel::{Bat, Column, Value};
use datacell_plan::{MalValue, VarId};

/// Merge every unit of `plan`'s frontier from its parts.
///
/// `parts(v)` lends the partial values of frontier variable `v` in part
/// order; the parts of one cluster's members must be aligned (same part
/// `i`, same per-group order). Nothing lent is copied before `concat`.
/// Returns an `env`-shaped vector: slot `v` holds the merged value of
/// every frontier variable `v`, all other slots are `None`. Cluster keys
/// come out in first-occurrence order over the concatenated parts.
pub fn merge_frontier<'a>(
    plan: &IncrementalPlan,
    parts: impl Fn(VarId) -> Vec<&'a MalValue>,
) -> Result<Vec<Option<MalValue>>, DataCellError> {
    let mut out = vec![None; plan.mal.nvars];
    for unit in plan.merge_units() {
        match unit {
            MergeUnit::Var(v, kind) => out[v] = Some(merge_var(kind, &parts(v))?),
            MergeUnit::Cluster(c) => {
                for (v, merged) in merge_cluster(c, &parts)? {
                    out[v] = Some(merged);
                }
            }
        }
    }
    Ok(out)
}

/// Fold the part `new` into the part `held`, for every frontier unit `new`
/// holds (both env-shaped): `held` becomes the merge of `[held, new]`.
/// Row-faithful values (`Rows`, `DistinctRows`, `SortedRows`) grow in
/// place — a held part is then a concatenation of parts, which the window
/// merge compensates as a whole — so nothing held is copied; scalar and
/// grouped partials fold by their merge rule.
pub fn fold_part(
    plan: &IncrementalPlan,
    held: &mut [Option<MalValue>],
    mut new: Vec<Option<MalValue>>,
) -> Result<(), DataCellError> {
    for unit in plan.merge_units() {
        match unit {
            MergeUnit::Var(v, kind) => {
                let (Some(acc), Some(part)) = (held[v].as_mut(), new[v].take()) else { continue };
                match (kind, acc, part) {
                    (
                        VarKind::Rows | VarKind::DistinctRows | VarKind::SortedRows { .. },
                        MalValue::Bat(acc),
                        MalValue::Bat(mut part),
                    ) => acc.tail.append_owned(&mut part.tail)?,
                    (kind, acc, part) => *acc = merge_var(kind, &[&*acc, &part])?,
                }
            }
            MergeUnit::Cluster(c) if new[c.keys_var].is_some() => {
                let parts = |v: VarId| held[v].iter().chain(&new[v]).collect();
                for (v, merged) in merge_cluster(c, &parts)? {
                    held[v] = Some(merged);
                }
            }
            MergeUnit::Cluster(_) => {}
        }
    }
    Ok(())
}

/// Merge the parts of a variable that crosses the frontier on its own.
fn merge_var(kind: VarKind, parts: &[&MalValue]) -> Result<MalValue, DataCellError> {
    Ok(MalValue::Bat(match kind {
        VarKind::PartialScalar(agg) => return merge_scalars(agg, parts),
        VarKind::Rows => concat(parts)?,
        VarKind::DistinctRows => algebra::distinct(&concat(parts)?)?,
        // "Applying the very operation on the concatenated result": the
        // same kernel the replicated `Sort` instruction runs.
        VarKind::SortedRows { desc } => par::sort(&concat(parts)?, desc, &ParConfig::sequential())?,
        VarKind::GroupedPartial(_) | VarKind::GroupKeysPartial | VarKind::Plain => {
            return Err(DataCellError::Unsupported(format!(
                "variable kind {kind:?} cannot cross the merge frontier on its own"
            )))
        }
    }))
}

/// Simple concatenation of row-faithful partial BATs.
fn concat(parts: &[&MalValue]) -> Result<Bat, DataCellError> {
    Ok(Bat::transient(algebra::concat_columns(&columns(parts)?)?))
}

/// The tail columns of BAT parts, borrowed; zero parts are rejected.
fn columns<'a>(parts: &[&'a MalValue]) -> Result<Vec<&'a Column>, DataCellError> {
    if parts.is_empty() {
        return Err(DataCellError::Unsupported("merge of zero parts".into()));
    }
    parts
        .iter()
        .map(|p| p.as_bat("rows merge").map(|b| &b.tail).map_err(DataCellError::Plan))
        .collect()
}

/// Compensate partial scalar aggregates: apply the merge aggregate over
/// the partials (sum of sums, min of mins, sum of counts...). `Absent`
/// partials (aggregates over empty basic windows) are skipped; if all
/// partials are absent the merged value is absent.
fn merge_scalars(kind: AggKind, parts: &[&MalValue]) -> Result<MalValue, DataCellError> {
    let comp = kind.compensation().ok_or_else(|| {
        DataCellError::Unsupported(format!(
            "{} partials have no compensation (expand first)",
            kind.sql()
        ))
    })?;
    let mut acc: Option<Value> = None;
    for p in parts {
        let v = match p {
            MalValue::Scalar(v) => v,
            MalValue::Absent => continue,
            other => {
                return Err(DataCellError::Unsupported(format!(
                    "scalar merge over non-scalar partial {other:?}"
                )))
            }
        };
        acc = Some(match acc {
            None => v.clone(),
            Some(a) => combine(comp, &a, v)?,
        });
    }
    Ok(match acc {
        Some(v) => MalValue::Scalar(v),
        // All partials absent. A count over zero parts is still 0.
        None if kind == AggKind::Count => MalValue::Scalar(Value::Int(0)),
        None => MalValue::Absent,
    })
}

/// Binary combination used by scalar compensation.
fn combine(comp: AggKind, a: &Value, b: &Value) -> Result<Value, DataCellError> {
    Ok(match comp {
        AggKind::Sum => match (a, b) {
            (Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(*y)),
            _ => {
                let (x, y) = both_f64(a, b)?;
                Value::Float(x + y)
            }
        },
        AggKind::Min => {
            if a.total_cmp(b).is_le() {
                a.clone()
            } else {
                b.clone()
            }
        }
        AggKind::Max => {
            if a.total_cmp(b).is_ge() {
                a.clone()
            } else {
                b.clone()
            }
        }
        AggKind::Count | AggKind::Avg => {
            return Err(DataCellError::Unsupported(format!(
                "{} is not a compensation aggregate",
                comp.sql()
            )))
        }
    })
}

fn both_f64(a: &Value, b: &Value) -> Result<(f64, f64), DataCellError> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(DataCellError::Unsupported(format!("non-numeric scalar merge: {a:?}, {b:?}"))),
    }
}

/// Merge a group-by cluster (Fig. 3d): concatenate the per-part distinct
/// keys and per-group partials, re-group the concatenated keys, and apply
/// the grouped compensating aggregate per member — the kernel's
/// [`par::regroup_partials`], the same merge a fanned-out `GroupAgg` runs.
/// Returns every member's merged value, keys first.
fn merge_cluster<'a>(
    c: &Cluster,
    parts: &impl Fn(VarId) -> Vec<&'a MalValue>,
) -> Result<Vec<(VarId, MalValue)>, DataCellError> {
    let key_parts = columns(&parts(c.keys_var))?;
    let slots = c
        .agg_vars
        .iter()
        .map(|&(v, kind)| Ok((kind, columns(&parts(v))?)))
        .collect::<Result<Vec<_>, DataCellError>>()?;
    let (keys, cols) = par::regroup_partials(&key_parts, &slots)?;
    let members = std::iter::once(c.keys_var).chain(c.agg_vars.iter().map(|&(v, _)| v));
    let merged = std::iter::once(keys).chain(cols);
    Ok(members.zip(merged).map(|(v, col)| (v, MalValue::Bat(Bat::transient(col)))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rewrite::Stage;
    use datacell_kernel::Column;
    use datacell_plan::MalPlan;

    fn bat(vals: Vec<i64>) -> MalValue {
        MalValue::Bat(Bat::transient(Column::Int(vals)))
    }

    fn int(v: i64) -> MalValue {
        MalValue::Scalar(Value::Int(v))
    }

    fn col(v: &MalValue) -> &Column {
        &v.as_bat("t").unwrap().tail
    }

    /// A plan that is nothing but a frontier: `X_i` has kind `kinds[i]`.
    fn frontier_plan(kinds: Vec<VarKind>, clusters: Vec<Cluster>) -> IncrementalPlan {
        let nvars = kinds.len();
        IncrementalPlan {
            mal: MalPlan {
                instrs: vec![],
                result_names: vec![],
                result_vars: vec![],
                nvars,
                streams: vec!["s".into()],
            },
            stages: vec![Stage::PerBw(0); nvars],
            kinds,
            static_instrs: vec![],
            perbw_instrs: vec![vec![]],
            matrix_instrs: vec![],
            merge_instrs: vec![],
            frontier: (0..nvars).collect(),
            ring_only: vec![],
            clusters,
            matrix_pair: None,
        }
    }

    /// Merge the parts of one variable of kind `kind`.
    fn merge_one(kind: VarKind, parts: &[MalValue]) -> Result<MalValue, DataCellError> {
        let merged =
            merge_frontier(&frontier_plan(vec![kind], vec![]), |_| parts.iter().collect())?;
        Ok(merged.into_iter().next().flatten().expect("X_0 is on the frontier"))
    }

    /// Merge one cluster: `X_0` holds the keys, `X_{1+j}` the partials of
    /// aggregate `aggs[j]`; `parts[v]` are the parts of `X_v`.
    fn merge_group(
        aggs: &[AggKind],
        parts: &[Vec<MalValue>],
    ) -> Result<Vec<MalValue>, DataCellError> {
        let mut kinds = vec![VarKind::GroupKeysPartial];
        kinds.extend(aggs.iter().map(|&k| VarKind::GroupedPartial(k)));
        let cluster = Cluster {
            keys_var: 0,
            agg_vars: aggs.iter().enumerate().map(|(j, &k)| (1 + j, k)).collect(),
        };
        let merged =
            merge_frontier(&frontier_plan(kinds, vec![cluster]), |v| parts[v].iter().collect())?;
        Ok(merged.into_iter().map(|m| m.expect("every member merged")).collect())
    }

    #[test]
    fn rows_merge_concatenates() {
        let m = merge_one(VarKind::Rows, &[bat(vec![1, 2]), bat(vec![3])]).unwrap();
        assert_eq!(col(&m), &Column::Int(vec![1, 2, 3]));
    }

    #[test]
    fn rows_merge_zero_parts_rejected() {
        assert!(merge_one(VarKind::Rows, &[]).is_err());
    }

    #[test]
    fn scalar_sum_compensation() {
        let m = merge_one(VarKind::PartialScalar(AggKind::Sum), &[int(5), int(7)]).unwrap();
        assert_eq!(m, int(12));
    }

    #[test]
    fn scalar_count_compensated_by_sum() {
        // "a count is to be compensated by a sum of the partial results"
        let m = merge_one(VarKind::PartialScalar(AggKind::Count), &[int(3), int(4)]).unwrap();
        assert_eq!(m, int(7));
    }

    #[test]
    fn scalar_min_max_compensation() {
        let parts = [int(5), int(2)];
        assert_eq!(merge_one(VarKind::PartialScalar(AggKind::Min), &parts).unwrap(), int(2));
        assert_eq!(merge_one(VarKind::PartialScalar(AggKind::Max), &parts).unwrap(), int(5));
    }

    #[test]
    fn scalar_merge_skips_absent_parts() {
        let parts = [MalValue::Absent, int(9), MalValue::Absent];
        assert_eq!(merge_one(VarKind::PartialScalar(AggKind::Sum), &parts).unwrap(), int(9));
    }

    #[test]
    fn scalar_merge_all_absent() {
        let absent = [MalValue::Absent];
        assert_eq!(
            merge_one(VarKind::PartialScalar(AggKind::Sum), &absent).unwrap(),
            MalValue::Absent
        );
        assert_eq!(merge_one(VarKind::PartialScalar(AggKind::Count), &absent).unwrap(), int(0));
    }

    #[test]
    fn avg_partials_rejected() {
        assert!(merge_one(VarKind::PartialScalar(AggKind::Avg), &[int(1)]).is_err());
    }

    #[test]
    fn float_sum_compensation() {
        let parts = [MalValue::Scalar(Value::Float(0.5)), int(2)];
        let m = merge_one(VarKind::PartialScalar(AggKind::Sum), &parts).unwrap();
        assert_eq!(m, MalValue::Scalar(Value::Float(2.5)));
    }

    #[test]
    fn distinct_merge_deduplicates_across_parts() {
        let m = merge_one(VarKind::DistinctRows, &[bat(vec![1, 2]), bat(vec![2, 3])]).unwrap();
        assert_eq!(col(&m), &Column::Int(vec![1, 2, 3]));
    }

    #[test]
    fn sorted_merge_resorts() {
        let parts = [bat(vec![1, 5]), bat(vec![2, 4])];
        let m = merge_one(VarKind::SortedRows { desc: false }, &parts).unwrap();
        assert_eq!(col(&m), &Column::Int(vec![1, 2, 4, 5]));
        let m = merge_one(VarKind::SortedRows { desc: true }, &parts).unwrap();
        assert_eq!(col(&m), &Column::Int(vec![5, 4, 2, 1]));
    }

    #[test]
    fn plain_kind_has_no_merge_rule() {
        assert!(merge_one(VarKind::Plain, &[bat(vec![1])]).is_err());
    }

    #[test]
    fn cluster_merge_regroups() {
        // Part 1: keys [a:1, b:2] sums [10, 20]; part 2: keys [b:2, c:3] sums [5, 7].
        let keys = vec![bat(vec![1, 2]), bat(vec![2, 3])];
        let sums = vec![bat(vec![10, 20]), bat(vec![5, 7])];
        let m = merge_group(&[AggKind::Sum], &[keys, sums]).unwrap();
        assert_eq!(col(&m[0]), &Column::Int(vec![1, 2, 3]));
        assert_eq!(col(&m[1]), &Column::Int(vec![10, 25, 7]));
    }

    #[test]
    fn cluster_merge_counts_compensate_by_sum() {
        let keys = vec![bat(vec![7]), bat(vec![7])];
        let counts = vec![bat(vec![4]), bat(vec![6])];
        let m = merge_group(&[AggKind::Count], &[keys, counts]).unwrap();
        assert_eq!(col(&m[1]), &Column::Int(vec![10]));
    }

    #[test]
    fn cluster_merge_min_max() {
        let keys = vec![bat(vec![1, 2]), bat(vec![1])];
        let mins = vec![bat(vec![5, 9]), bat(vec![3])];
        let maxs = vec![bat(vec![5, 9]), bat(vec![30])];
        let m = merge_group(&[AggKind::Min, AggKind::Max], &[keys, mins, maxs]).unwrap();
        assert_eq!(col(&m[1]), &Column::Int(vec![3, 9]));
        assert_eq!(col(&m[2]), &Column::Int(vec![30, 9]));
    }

    #[test]
    fn cluster_merge_with_empty_parts() {
        let keys = vec![bat(vec![]), bat(vec![1])];
        let sums = vec![bat(vec![]), bat(vec![42])];
        let m = merge_group(&[AggKind::Sum], &[keys, sums]).unwrap();
        assert_eq!(col(&m[0]), &Column::Int(vec![1]));
        assert_eq!(col(&m[1]), &Column::Int(vec![42]));
    }

    #[test]
    fn cluster_misalignment_detected() {
        let keys = vec![bat(vec![1, 2])];
        let sums = vec![bat(vec![10])];
        assert!(merge_group(&[AggKind::Sum], &[keys, sums]).is_err());
    }

    #[test]
    fn fold_part_equals_the_merge_of_both_parts() {
        // X_0 rows, X_1 a partial max, X_2 absent from the new part, X_3..X_4
        // a sum cluster: each unit folds as merging [held, new] would.
        let cluster = Cluster { keys_var: 3, agg_vars: vec![(4, AggKind::Sum)] };
        let kinds = vec![
            VarKind::Rows,
            VarKind::PartialScalar(AggKind::Max),
            VarKind::PartialScalar(AggKind::Sum),
            VarKind::GroupKeysPartial,
            VarKind::GroupedPartial(AggKind::Sum),
        ];
        let plan = frontier_plan(kinds, vec![cluster]);
        let held = [bat(vec![1, 2]), int(5), int(7), bat(vec![7, 8]), bat(vec![1, 2])];
        let new = [
            Some(bat(vec![3])),
            Some(MalValue::Absent),
            None,
            Some(bat(vec![8, 9])),
            Some(bat(vec![10, 20])),
        ];
        let whole =
            merge_frontier(&plan, |v| std::iter::once(&held[v]).chain(&new[v]).collect()).unwrap();
        let mut folded: Vec<Option<MalValue>> = held.iter().cloned().map(Some).collect();
        fold_part(&plan, &mut folded, new.to_vec()).unwrap();
        assert_eq!(folded, whole);
        assert_eq!(col(folded[0].as_ref().unwrap()), &Column::Int(vec![1, 2, 3]));
        assert_eq!(col(folded[4].as_ref().unwrap()), &Column::Int(vec![1, 12, 20]));
    }

    #[test]
    fn fold_part_appends_rows_in_place() {
        // The held part's buffer grows; nothing it holds is copied out.
        let plan = frontier_plan(vec![VarKind::DistinctRows], vec![]);
        let mut first = Column::Int(Vec::with_capacity(64));
        first.append(&Column::Int(vec![4, 5])).unwrap();
        let before = first.as_int().unwrap().as_ptr();
        let mut held = vec![Some(MalValue::Bat(Bat::transient(first)))];
        fold_part(&plan, &mut held, vec![Some(bat(vec![5, 6]))]).unwrap();
        let grown = col(held[0].as_ref().unwrap());
        assert_eq!(grown, &Column::Int(vec![4, 5, 5, 6]));
        assert_eq!(grown.as_int().unwrap().as_ptr(), before);
    }

    #[test]
    fn frontier_merges_every_unit_into_its_own_slot() {
        // One plan, both unit shapes: X_0 rows, X_1..X_2 a sum cluster.
        let cluster = Cluster { keys_var: 1, agg_vars: vec![(2, AggKind::Sum)] };
        let kinds =
            vec![VarKind::Rows, VarKind::GroupKeysPartial, VarKind::GroupedPartial(AggKind::Sum)];
        let parts = [
            vec![bat(vec![1]), bat(vec![2])],
            vec![bat(vec![7]), bat(vec![7, 8])],
            vec![bat(vec![1]), bat(vec![2, 3])],
        ];
        let merged =
            merge_frontier(&frontier_plan(kinds, vec![cluster]), |v| parts[v].iter().collect())
                .unwrap();
        let cols: Vec<&Column> = merged.iter().map(|m| col(m.as_ref().unwrap())).collect();
        assert_eq!(
            cols,
            [&Column::Int(vec![1, 2]), &Column::Int(vec![7, 8]), &Column::Int(vec![3, 3])]
        );
    }
}
