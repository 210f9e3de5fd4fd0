//! Result sets: the rows a query (or one window firing) produces.

use crate::mal::MalValue;
use crate::PlanError;
use datacell_kernel::{Column, Value};

/// Named, aligned output columns of one query evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    names: Vec<String>,
    cols: Vec<Column>,
}

impl ResultSet {
    /// Build from aligned columns.
    pub fn new(names: Vec<String>, cols: Vec<Column>) -> crate::Result<ResultSet> {
        if names.len() != cols.len() {
            return Err(PlanError::Internal(format!(
                "result arity mismatch: {} names vs {} columns",
                names.len(),
                cols.len()
            )));
        }
        if let Some(first) = cols.first() {
            if cols.iter().any(|c| c.len() != first.len()) {
                return Err(PlanError::Internal("result columns not aligned".into()));
            }
        }
        Ok(ResultSet { names, cols })
    }

    /// An empty (zero-column, zero-row) result.
    pub fn empty() -> ResultSet {
        ResultSet { names: vec![], cols: vec![] }
    }

    /// Assemble from MAL result variables: BAT vars become columns, scalar
    /// vars become single-value columns. A mix of multi-row BATs and
    /// scalars broadcasts scalars; an `Absent` scalar collapses the whole
    /// result to zero rows (SQL's empty-window aggregate row is dropped —
    /// continuous queries emit nothing for windows with no qualifying data).
    pub fn from_mal(names: Vec<String>, vals: Vec<MalValue>) -> crate::Result<ResultSet> {
        // Determine row count: max BAT length, scalars broadcast.
        let mut nrows: Option<usize> = None;
        let mut any_absent = false;
        for v in &vals {
            match v {
                MalValue::Bat(b) => match nrows {
                    None => nrows = Some(b.len()),
                    Some(n) if n == b.len() => {}
                    Some(n) => {
                        return Err(PlanError::Internal(format!(
                            "result BATs misaligned: {n} vs {}",
                            b.len()
                        )))
                    }
                },
                MalValue::Scalar(_) => {}
                MalValue::Absent => any_absent = true,
            }
        }
        let nrows = if any_absent { 0 } else { nrows.unwrap_or(1) };
        let mut cols = Vec::with_capacity(vals.len());
        for v in vals {
            let col = match v {
                MalValue::Bat(b) => b.tail,
                MalValue::Scalar(s) => {
                    let mut c = Column::empty(s.data_type());
                    for _ in 0..nrows {
                        c.push(s.clone()).expect("same type");
                    }
                    c
                }
                MalValue::Absent => Column::empty(datacell_kernel::DataType::Float),
            };
            cols.push(col);
        }
        // When absent collapsed the row count, truncate BAT columns too
        // (they are necessarily empty in well-formed plans, but be safe).
        if any_absent {
            for c in &mut cols {
                if !c.is_empty() {
                    *c = Column::empty(c.data_type());
                }
            }
        }
        ResultSet::new(names, cols)
    }

    /// Column names.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Columns.
    pub fn columns(&self) -> &[Column] {
        &self.cols
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cols.first().map_or(0, datacell_kernel::Column::len)
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column by name.
    pub fn col(&self, name: &str) -> crate::Result<&Column> {
        let i = self
            .names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| PlanError::UnknownColumn(name.to_owned()))?;
        Ok(&self.cols[i])
    }

    /// Row `i` as values.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.cols.iter().map(|c| c.get(i).expect("row in range")).collect()
    }

    /// All rows (tests / small results).
    pub fn rows(&self) -> Vec<Vec<Value>> {
        (0..self.len()).map(|i| self.row(i)).collect()
    }

    /// Rows sorted lexicographically — order-insensitive comparison helper
    /// for tests comparing incremental vs re-evaluation output.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows();
        rows.sort_by(|a, b| {
            for (x, y) in a.iter().zip(b) {
                let ord = x.total_cmp(y);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_kernel::Bat;

    #[test]
    fn new_validates_arity_and_alignment() {
        assert!(ResultSet::new(vec!["a".into()], vec![]).is_err());
        assert!(ResultSet::new(
            vec!["a".into(), "b".into()],
            vec![Column::Int(vec![1]), Column::Int(vec![1, 2])]
        )
        .is_err());
        let rs = ResultSet::new(vec!["a".into()], vec![Column::Int(vec![1, 2])]).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn from_mal_scalars_make_one_row() {
        let rs = ResultSet::from_mal(
            vec!["m".into(), "n".into()],
            vec![MalValue::Scalar(Value::Int(5)), MalValue::Scalar(Value::Float(1.5))],
        )
        .unwrap();
        assert_eq!(rs.rows(), vec![vec![Value::Int(5), Value::Float(1.5)]]);
    }

    #[test]
    fn from_mal_absent_drops_row() {
        let rs = ResultSet::from_mal(
            vec!["m".into(), "n".into()],
            vec![MalValue::Scalar(Value::Int(5)), MalValue::Absent],
        )
        .unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn from_mal_bats_align() {
        let rs = ResultSet::from_mal(
            vec!["k".into(), "v".into()],
            vec![
                MalValue::Bat(Bat::transient(Column::Int(vec![1, 2]))),
                MalValue::Bat(Bat::transient(Column::Int(vec![10, 20]))),
            ],
        )
        .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.row(1), vec![Value::Int(2), Value::Int(20)]);
    }

    #[test]
    fn from_mal_misaligned_bats_error() {
        let r = ResultSet::from_mal(
            vec!["k".into(), "v".into()],
            vec![
                MalValue::Bat(Bat::transient(Column::Int(vec![1, 2]))),
                MalValue::Bat(Bat::transient(Column::Int(vec![10]))),
            ],
        );
        assert!(r.is_err());
    }

    #[test]
    fn from_mal_scalar_broadcasts_across_bat_rows() {
        let rs = ResultSet::from_mal(
            vec!["k".into(), "c".into()],
            vec![
                MalValue::Bat(Bat::transient(Column::Int(vec![1, 2]))),
                MalValue::Scalar(Value::Int(7)),
            ],
        )
        .unwrap();
        assert_eq!(rs.col("c").unwrap(), &Column::Int(vec![7, 7]));
    }

    #[test]
    fn col_lookup_and_sorted_rows() {
        let rs = ResultSet::new(vec!["a".into()], vec![Column::Int(vec![3, 1, 2])]).unwrap();
        assert_eq!(rs.col("a").unwrap().len(), 3);
        assert!(rs.col("zz").is_err());
        assert_eq!(
            rs.sorted_rows(),
            vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]
        );
    }

    #[test]
    fn empty_result() {
        let rs = ResultSet::empty();
        assert!(rs.is_empty());
        assert_eq!(rs.names().len(), 0);
    }
}
