//! Scalar and grouped aggregates.
//!
//! The incremental rewriter distinguishes aggregates by their *merge rule*
//! (paper §3):
//!
//! * `sum`, `min`, `max` — *concatenation plus compensation*: re-apply the
//!   same aggregate over the concatenated partials;
//! * `count` — compensated by a `sum` of the partial counts;
//! * `avg` — *expanding replication*: rewritten into `sum` and `count`
//!   flows, merged by a final division.
//!
//! [`AggKind`] encodes these rules so the rewriter can stay generic.

use super::group::Groups;
use crate::column::Column;
use crate::error::KernelError;
use crate::value::Value;
use crate::{Bat, Result};

/// Aggregate function kinds understood by plans and the rewriter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    /// Sum of values.
    Sum,
    /// Count of tuples.
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Average — not directly executable; the rewriter and the one-shot
    /// planner expand it into `Sum`/`Count` + divide.
    Avg,
}

impl AggKind {
    /// The aggregate to apply over *partial results* when merging
    /// (the paper's compensating action). `Count` partials are merged with
    /// `Sum`; `Avg` has no single compensation (it is expanded instead).
    pub fn compensation(self) -> Option<AggKind> {
        match self {
            AggKind::Sum => Some(AggKind::Sum),
            AggKind::Count => Some(AggKind::Sum),
            AggKind::Min => Some(AggKind::Min),
            AggKind::Max => Some(AggKind::Max),
            AggKind::Avg => None,
        }
    }

    /// SQL name.
    pub fn sql(&self) -> &'static str {
        match self {
            AggKind::Sum => "sum",
            AggKind::Count => "count",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::Avg => "avg",
        }
    }
}

/// Sum of a numeric BAT. Integer sums stay integral and wrap on overflow,
/// in every build profile, like `map_arith` and the merge of partial sums:
/// a standing query must not abort mid-flight. Float sums are floats.
/// Empty input sums to the additive identity of the column type.
pub fn sum(b: &Bat) -> Result<Value> {
    match &b.tail {
        Column::Int(v) => Ok(Value::Int(v.iter().fold(0, |acc, &x| acc.wrapping_add(x)))),
        Column::Float(v) => Ok(Value::Float(v.iter().sum())),
        c => Err(KernelError::TypeMismatch {
            op: "sum",
            expected: crate::DataType::Float,
            found: c.data_type(),
        }),
    }
}

/// Tuple count.
pub fn count(b: &Bat) -> Value {
    Value::Int(b.len() as i64)
}

/// Minimum value, `None` on empty input.
pub fn min(b: &Bat) -> Result<Option<Value>> {
    match &b.tail {
        Column::Int(v) => Ok(v.iter().min().map(|&x| Value::Int(x))),
        Column::Float(v) => Ok(v.iter().copied().reduce(f64::min).map(Value::Float)),
        Column::Str(v) => Ok(v.iter().min().map(|x| Value::Str(x.clone()))),
        c => Err(KernelError::TypeMismatch {
            op: "min",
            expected: crate::DataType::Float,
            found: c.data_type(),
        }),
    }
}

/// Maximum value, `None` on empty input.
pub fn max(b: &Bat) -> Result<Option<Value>> {
    match &b.tail {
        Column::Int(v) => Ok(v.iter().max().map(|&x| Value::Int(x))),
        Column::Float(v) => Ok(v.iter().copied().reduce(f64::max).map(Value::Float)),
        Column::Str(v) => Ok(v.iter().max().map(|x| Value::Str(x.clone()))),
        c => Err(KernelError::TypeMismatch {
            op: "max",
            expected: crate::DataType::Float,
            found: c.data_type(),
        }),
    }
}

/// Average, `None` on empty input. Always a float.
pub fn avg(b: &Bat) -> Result<Option<Value>> {
    if b.is_empty() {
        return Ok(None);
    }
    let s = sum(b)?.as_f64().expect("sum of numeric is numeric");
    Ok(Some(Value::Float(s / b.len() as f64)))
}

/// Per-group sum: `out[g] = Σ vals[i] where groups.ids[i] == g`; integer
/// sums wrap like [`sum`].
pub fn sum_grouped(vals: &Bat, groups: &Groups) -> Result<Column> {
    if vals.len() != groups.ids.len() {
        return Err(KernelError::LengthMismatch {
            op: "sum_grouped",
            left: vals.len(),
            right: groups.ids.len(),
        });
    }
    match &vals.tail {
        Column::Int(v) => {
            let mut out = vec![0i64; groups.ngroups()];
            for (i, &x) in v.iter().enumerate() {
                let acc = &mut out[groups.ids[i] as usize];
                *acc = acc.wrapping_add(x);
            }
            Ok(Column::Int(out))
        }
        Column::Float(v) => {
            let mut out = vec![0f64; groups.ngroups()];
            for (i, &x) in v.iter().enumerate() {
                out[groups.ids[i] as usize] += x;
            }
            Ok(Column::Float(out))
        }
        c => Err(KernelError::TypeMismatch {
            op: "sum_grouped",
            expected: crate::DataType::Float,
            found: c.data_type(),
        }),
    }
}

/// Per-group count.
pub fn count_grouped(groups: &Groups) -> Column {
    let mut out = vec![0i64; groups.ngroups()];
    for &g in &groups.ids {
        out[g as usize] += 1;
    }
    Column::Int(out)
}

/// Per-group minimum.
pub fn min_grouped(vals: &Bat, groups: &Groups) -> Result<Column> {
    grouped_extreme(vals, groups, true)
}

/// Per-group maximum.
pub fn max_grouped(vals: &Bat, groups: &Groups) -> Result<Column> {
    grouped_extreme(vals, groups, false)
}

fn grouped_extreme(vals: &Bat, groups: &Groups, is_min: bool) -> Result<Column> {
    if vals.len() != groups.ids.len() {
        return Err(KernelError::LengthMismatch {
            op: "min/max_grouped",
            left: vals.len(),
            right: groups.ids.len(),
        });
    }
    match &vals.tail {
        Column::Int(v) => {
            let init = if is_min { i64::MAX } else { i64::MIN };
            let mut out = vec![init; groups.ngroups()];
            for (i, &x) in v.iter().enumerate() {
                let slot = &mut out[groups.ids[i] as usize];
                if (is_min && x < *slot) || (!is_min && x > *slot) {
                    *slot = x;
                }
            }
            Ok(Column::Int(out))
        }
        Column::Float(v) => {
            let init = if is_min { f64::INFINITY } else { f64::NEG_INFINITY };
            let mut out = vec![init; groups.ngroups()];
            for (i, &x) in v.iter().enumerate() {
                let slot = &mut out[groups.ids[i] as usize];
                if (is_min && x < *slot) || (!is_min && x > *slot) {
                    *slot = x;
                }
            }
            Ok(Column::Float(out))
        }
        c => Err(KernelError::TypeMismatch {
            op: "min/max_grouped",
            expected: crate::DataType::Float,
            found: c.data_type(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::group;

    #[test]
    fn scalar_sum_int_and_float() {
        assert_eq!(sum(&Bat::transient(Column::Int(vec![1, 2, 3]))).unwrap(), Value::Int(6));
        assert_eq!(sum(&Bat::transient(Column::Float(vec![0.5, 1.5]))).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn sum_wraps_like_map_arith() {
        // Same contract as `map::tests::wrapping_semantics_documented`, in
        // debug and release builds alike.
        let vals = Bat::transient(Column::Int(vec![i64::MAX, 1]));
        assert_eq!(sum(&vals).unwrap(), Value::Int(i64::MIN));
        let one_group = group(&Bat::transient(Column::Int(vec![7, 7]))).unwrap();
        assert_eq!(sum_grouped(&vals, &one_group).unwrap(), Column::Int(vec![i64::MIN]));
    }

    #[test]
    fn scalar_sum_empty_is_identity() {
        assert_eq!(sum(&Bat::empty(crate::DataType::Int)).unwrap(), Value::Int(0));
    }

    #[test]
    fn scalar_count() {
        assert_eq!(count(&Bat::transient(Column::Int(vec![9, 9]))), Value::Int(2));
    }

    #[test]
    fn scalar_min_max() {
        let b = Bat::transient(Column::Int(vec![4, -2, 9]));
        assert_eq!(min(&b).unwrap(), Some(Value::Int(-2)));
        assert_eq!(max(&b).unwrap(), Some(Value::Int(9)));
        assert_eq!(min(&Bat::empty(crate::DataType::Int)).unwrap(), None);
    }

    #[test]
    fn scalar_min_max_strings() {
        let b = Bat::transient(Column::Str(vec!["b".into(), "a".into()]));
        assert_eq!(min(&b).unwrap(), Some(Value::from("a")));
        assert_eq!(max(&b).unwrap(), Some(Value::from("b")));
    }

    #[test]
    fn scalar_avg() {
        let b = Bat::transient(Column::Int(vec![1, 2, 3, 4]));
        assert_eq!(avg(&b).unwrap(), Some(Value::Float(2.5)));
        assert_eq!(avg(&Bat::empty(crate::DataType::Float)).unwrap(), None);
    }

    #[test]
    fn sum_on_strings_is_error() {
        assert!(sum(&Bat::transient(Column::Str(vec!["x".into()]))).is_err());
    }

    #[test]
    fn grouped_sum() {
        let keys = Bat::transient(Column::Int(vec![1, 2, 1, 2, 1]));
        let vals = Bat::transient(Column::Int(vec![10, 20, 30, 40, 50]));
        let g = group(&keys).unwrap();
        assert_eq!(sum_grouped(&vals, &g).unwrap(), Column::Int(vec![90, 60]));
    }

    #[test]
    fn grouped_count() {
        let keys = Bat::transient(Column::Int(vec![7, 8, 7]));
        let g = group(&keys).unwrap();
        assert_eq!(count_grouped(&g), Column::Int(vec![2, 1]));
    }

    #[test]
    fn grouped_min_max() {
        let keys = Bat::transient(Column::Int(vec![1, 1, 2]));
        let vals = Bat::transient(Column::Float(vec![5.0, 3.0, 9.0]));
        let g = group(&keys).unwrap();
        assert_eq!(min_grouped(&vals, &g).unwrap(), Column::Float(vec![3.0, 9.0]));
        assert_eq!(max_grouped(&vals, &g).unwrap(), Column::Float(vec![5.0, 9.0]));
    }

    #[test]
    fn grouped_length_mismatch() {
        let keys = Bat::transient(Column::Int(vec![1, 2]));
        let vals = Bat::transient(Column::Int(vec![1]));
        let g = group(&keys).unwrap();
        assert!(sum_grouped(&vals, &g).is_err());
    }

    #[test]
    fn compensation_rules_match_paper() {
        assert_eq!(AggKind::Sum.compensation(), Some(AggKind::Sum));
        assert_eq!(AggKind::Count.compensation(), Some(AggKind::Sum)); // "a count is to be compensated by a sum"
        assert_eq!(AggKind::Min.compensation(), Some(AggKind::Min));
        assert_eq!(AggKind::Max.compensation(), Some(AggKind::Max));
        assert_eq!(AggKind::Avg.compensation(), None); // expanding replication
    }

    #[test]
    fn agg_sql_names() {
        assert_eq!(AggKind::Avg.sql(), "avg");
        assert_eq!(AggKind::Count.sql(), "count");
    }
}
