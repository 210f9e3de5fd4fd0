//! Merging partial results — the `concat` + compensation machinery.
//!
//! "The simplest case are operators where a simple concatenation of the
//! partial results forms the correct complete result. [...] The next
//! category consists of operations that can be replicated as-is, but
//! require some compensation after the concatenation [...] For instance, a
//! count is to be compensated by a sum of the partial results." (paper §3)
//!
//! These functions are used at *two* levels, which is exactly the paper's
//! m-chunk optimization: merging per-basic-window partials into the window
//! result, and merging per-chunk partials into a basic-window partial
//! ("process the latest basic window incrementally just as we process the
//! whole window incrementally").

use crate::error::DataCellError;
use crate::rewrite::VarKind;
use datacell_kernel::algebra::{self, AggKind};
use datacell_kernel::{Bat, Value};
use datacell_plan::MalValue;

/// Merge per-part values of a frontier variable according to its kind.
/// Not applicable to cluster members — use [`merge_cluster`] for those.
pub fn merge_var(kind: VarKind, parts: &[MalValue]) -> Result<MalValue, DataCellError> {
    match kind {
        VarKind::Rows => merge_rows(parts),
        VarKind::PartialScalar(agg) => merge_scalars(agg, parts),
        VarKind::DistinctRows => {
            let rows = merge_rows(parts)?;
            let b = rows.as_bat("distinct merge").map_err(DataCellError::Plan)?;
            Ok(MalValue::Bat(algebra::distinct(b)?))
        }
        VarKind::SortedRows { desc } => {
            let rows = merge_rows(parts)?;
            let b = rows.as_bat("sort merge").map_err(DataCellError::Plan)?;
            let sorted = algebra::sort(b)?;
            Ok(MalValue::Bat(if desc { reverse(&sorted) } else { sorted }))
        }
        VarKind::GroupedPartial(_) | VarKind::GroupKeysPartial => Err(DataCellError::Unsupported(
            "cluster members must be merged via merge_cluster".into(),
        )),
        VarKind::Plain => Err(DataCellError::Unsupported(format!(
            "variable kind {kind:?} cannot cross the merge frontier"
        ))),
    }
}

/// Simple concatenation of row-faithful partial BATs.
pub fn merge_rows(parts: &[MalValue]) -> Result<MalValue, DataCellError> {
    let bats: Vec<&Bat> = parts
        .iter()
        .map(|p| p.as_bat("rows merge").map_err(DataCellError::Plan))
        .collect::<Result<_, _>>()?;
    if bats.is_empty() {
        return Err(DataCellError::Unsupported("merge of zero parts".into()));
    }
    Ok(MalValue::Bat(algebra::concat(&bats)?))
}

/// Compensate partial scalar aggregates: apply the merge aggregate over
/// the partials (sum of sums, min of mins, sum of counts...). `Absent`
/// partials (aggregates over empty basic windows) are skipped; if all
/// partials are absent the merged value is absent.
pub fn merge_scalars(kind: AggKind, parts: &[MalValue]) -> Result<MalValue, DataCellError> {
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
/// the grouped compensating aggregate per member.
///
/// `keys_parts[i]` and `agg_parts[j][i]` must be aligned (same part `i`,
/// same per-group order). Returns the merged keys and one merged column per
/// aggregate member, in member order.
pub fn merge_cluster(
    keys_parts: &[MalValue],
    agg_parts: &[(AggKind, Vec<MalValue>)],
) -> Result<(MalValue, Vec<MalValue>), DataCellError> {
    let all_keys = merge_rows(keys_parts)?;
    let keys_bat = all_keys.as_bat("cluster keys").map_err(DataCellError::Plan)?;
    let groups = algebra::group(keys_bat)?;
    let merged_keys = MalValue::Bat(Bat::transient(groups.keys(keys_bat)?));
    let mut merged_aggs = Vec::with_capacity(agg_parts.len());
    for (kind, parts) in agg_parts {
        let comp = kind.compensation().ok_or_else(|| {
            DataCellError::Unsupported(format!(
                "{} grouped partials have no compensation (expand first)",
                kind.sql()
            ))
        })?;
        let all = merge_rows(parts)?;
        let all_bat = all.as_bat("cluster partials").map_err(DataCellError::Plan)?;
        if all_bat.len() != keys_bat.len() {
            return Err(DataCellError::Unsupported(format!(
                "cluster misaligned: {} keys vs {} partials",
                keys_bat.len(),
                all_bat.len()
            )));
        }
        let col = match comp {
            AggKind::Sum => algebra::sum_grouped(all_bat, &groups)?,
            AggKind::Min => algebra::min_grouped(all_bat, &groups)?,
            AggKind::Max => algebra::max_grouped(all_bat, &groups)?,
            AggKind::Count | AggKind::Avg => unreachable!("not a compensation"),
        };
        merged_aggs.push(MalValue::Bat(Bat::transient(col)));
    }
    Ok((merged_keys, merged_aggs))
}

fn reverse(b: &Bat) -> Bat {
    let n = b.len();
    let mut out = datacell_kernel::Column::with_capacity(b.data_type(), n);
    for i in (0..n).rev() {
        out.push(b.value_at(i).expect("in range")).expect("same type");
    }
    Bat::transient(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_kernel::Column;

    fn bat(vals: Vec<i64>) -> MalValue {
        MalValue::Bat(Bat::transient(Column::Int(vals)))
    }

    #[test]
    fn rows_merge_concatenates() {
        let m = merge_var(VarKind::Rows, &[bat(vec![1, 2]), bat(vec![3])]).unwrap();
        assert_eq!(m.as_bat("t").unwrap().tail, Column::Int(vec![1, 2, 3]));
    }

    #[test]
    fn rows_merge_zero_parts_rejected() {
        assert!(merge_rows(&[]).is_err());
    }

    #[test]
    fn scalar_sum_compensation() {
        let m = merge_scalars(
            AggKind::Sum,
            &[MalValue::Scalar(Value::Int(5)), MalValue::Scalar(Value::Int(7))],
        )
        .unwrap();
        assert_eq!(m, MalValue::Scalar(Value::Int(12)));
    }

    #[test]
    fn scalar_count_compensated_by_sum() {
        // "a count is to be compensated by a sum of the partial results"
        let m = merge_scalars(
            AggKind::Count,
            &[MalValue::Scalar(Value::Int(3)), MalValue::Scalar(Value::Int(4))],
        )
        .unwrap();
        assert_eq!(m, MalValue::Scalar(Value::Int(7)));
    }

    #[test]
    fn scalar_min_max_compensation() {
        let parts = [MalValue::Scalar(Value::Int(5)), MalValue::Scalar(Value::Int(2))];
        assert_eq!(merge_scalars(AggKind::Min, &parts).unwrap(), MalValue::Scalar(Value::Int(2)));
        assert_eq!(merge_scalars(AggKind::Max, &parts).unwrap(), MalValue::Scalar(Value::Int(5)));
    }

    #[test]
    fn scalar_merge_skips_absent_parts() {
        let m = merge_scalars(
            AggKind::Sum,
            &[MalValue::Absent, MalValue::Scalar(Value::Int(9)), MalValue::Absent],
        )
        .unwrap();
        assert_eq!(m, MalValue::Scalar(Value::Int(9)));
    }

    #[test]
    fn scalar_merge_all_absent() {
        assert_eq!(merge_scalars(AggKind::Sum, &[MalValue::Absent]).unwrap(), MalValue::Absent);
        assert_eq!(
            merge_scalars(AggKind::Count, &[MalValue::Absent]).unwrap(),
            MalValue::Scalar(Value::Int(0))
        );
    }

    #[test]
    fn avg_partials_rejected() {
        assert!(merge_scalars(AggKind::Avg, &[MalValue::Scalar(Value::Int(1))]).is_err());
    }

    #[test]
    fn float_sum_compensation() {
        let m = merge_scalars(
            AggKind::Sum,
            &[MalValue::Scalar(Value::Float(0.5)), MalValue::Scalar(Value::Int(2))],
        )
        .unwrap();
        assert_eq!(m, MalValue::Scalar(Value::Float(2.5)));
    }

    #[test]
    fn distinct_merge_deduplicates_across_parts() {
        let m = merge_var(VarKind::DistinctRows, &[bat(vec![1, 2]), bat(vec![2, 3])]).unwrap();
        assert_eq!(m.as_bat("t").unwrap().tail, Column::Int(vec![1, 2, 3]));
    }

    #[test]
    fn sorted_merge_resorts() {
        let m = merge_var(VarKind::SortedRows { desc: false }, &[bat(vec![1, 5]), bat(vec![2, 4])])
            .unwrap();
        assert_eq!(m.as_bat("t").unwrap().tail, Column::Int(vec![1, 2, 4, 5]));
        let m = merge_var(VarKind::SortedRows { desc: true }, &[bat(vec![1, 5]), bat(vec![2, 4])])
            .unwrap();
        assert_eq!(m.as_bat("t").unwrap().tail, Column::Int(vec![5, 4, 2, 1]));
    }

    #[test]
    fn cluster_merge_regroups() {
        // Part 1: keys [a:1, b:2] sums [10, 20]; part 2: keys [b:2, c:3] sums [5, 7].
        let keys = [bat(vec![1, 2]), bat(vec![2, 3])];
        let sums = (AggKind::Sum, vec![bat(vec![10, 20]), bat(vec![5, 7])]);
        let (k, aggs) = merge_cluster(&keys, &[sums]).unwrap();
        assert_eq!(k.as_bat("k").unwrap().tail, Column::Int(vec![1, 2, 3]));
        assert_eq!(aggs[0].as_bat("s").unwrap().tail, Column::Int(vec![10, 25, 7]));
    }

    #[test]
    fn cluster_merge_counts_compensate_by_sum() {
        let keys = [bat(vec![7]), bat(vec![7])];
        let counts = (AggKind::Count, vec![bat(vec![4]), bat(vec![6])]);
        let (_, aggs) = merge_cluster(&keys, &[counts]).unwrap();
        assert_eq!(aggs[0].as_bat("c").unwrap().tail, Column::Int(vec![10]));
    }

    #[test]
    fn cluster_merge_min_max() {
        let keys = [bat(vec![1, 2]), bat(vec![1])];
        let mins = (AggKind::Min, vec![bat(vec![5, 9]), bat(vec![3])]);
        let maxs = (AggKind::Max, vec![bat(vec![5, 9]), bat(vec![30])]);
        let (_, aggs) = merge_cluster(&keys, &[mins, maxs]).unwrap();
        assert_eq!(aggs[0].as_bat("mn").unwrap().tail, Column::Int(vec![3, 9]));
        assert_eq!(aggs[1].as_bat("mx").unwrap().tail, Column::Int(vec![30, 9]));
    }

    #[test]
    fn cluster_merge_with_empty_parts() {
        let keys = [bat(vec![]), bat(vec![1])];
        let sums = (AggKind::Sum, vec![bat(vec![]), bat(vec![42])]);
        let (k, aggs) = merge_cluster(&keys, &[sums]).unwrap();
        assert_eq!(k.as_bat("k").unwrap().tail, Column::Int(vec![1]));
        assert_eq!(aggs[0].as_bat("s").unwrap().tail, Column::Int(vec![42]));
    }

    #[test]
    fn cluster_misalignment_detected() {
        let keys = [bat(vec![1, 2])];
        let sums = (AggKind::Sum, vec![bat(vec![10])]);
        assert!(merge_cluster(&keys, &[sums]).is_err());
    }

    #[test]
    fn merge_var_rejects_cluster_kinds() {
        assert!(merge_var(VarKind::GroupedPartial(AggKind::Sum), &[bat(vec![1])]).is_err());
    }
}
