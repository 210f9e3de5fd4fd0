//! Emitters: the egress edge of DataCell.
//!
//! Factories place each window result in an *output basket*; emitters drain
//! output baskets and deliver the rows to clients (paper §2: "a set of
//! separate processes … per client … to deliver results").

use crate::basket::Timestamp;
use crate::sharded::ShardedBasket;
use datacell_kernel::Value;

/// One delivered result row.
pub type Row = Vec<Value>;

/// Something that consumes result batches from an output basket.
pub trait Emitter {
    /// Seal the output basket's staged segments (so the client sees every
    /// delivered row), then drain everything resident, marking it consumed
    /// (expired). Returns the number of rows delivered.
    fn drain(&mut self, out: &ShardedBasket) -> crate::Result<usize>;
}

/// Collects delivered rows in memory — the default client used by tests,
/// examples and the benchmark harnesses.
#[derive(Debug, Default)]
pub struct CollectEmitter {
    rows: Vec<(Timestamp, Row)>,
}

impl CollectEmitter {
    /// A fresh, empty collector.
    pub fn new() -> CollectEmitter {
        CollectEmitter::default()
    }

    /// All rows delivered so far, with their result timestamps.
    pub fn rows(&self) -> &[(Timestamp, Row)] {
        &self.rows
    }

    /// Rows only (drop timestamps).
    pub fn values(&self) -> Vec<Row> {
        self.rows.iter().map(|(_, r)| r.clone()).collect()
    }

    /// Number of delivered rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing has been delivered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Forget everything collected so far.
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

impl Emitter for CollectEmitter {
    fn drain(&mut self, out: &ShardedBasket) -> crate::Result<usize> {
        out.seal();
        out.with(|b| {
            let w = b.snapshot();
            let n = w.len();
            for i in 0..n {
                let mut row = Row::with_capacity(w.columns().len());
                for c in w.columns() {
                    row.push(c.get(i).expect("aligned"));
                }
                self.rows.push((w.timestamps()[i], row));
            }
            b.expire_upto(b.end_oid());
            Ok(n)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basket::Basket;
    use datacell_kernel::{Column, DataType};

    #[test]
    fn collect_emitter_drains_and_expires() {
        let out = ShardedBasket::new(Basket::new("out", &[("sum", DataType::Int)]), 1);
        out.append(&[Column::Int(vec![10, 20])], 5).unwrap();
        let mut e = CollectEmitter::new();
        assert_eq!(e.drain(&out).unwrap(), 2);
        assert_eq!(out.len(), 0);
        assert_eq!(e.len(), 2);
        assert_eq!(e.rows()[0], (5, vec![Value::Int(10)]));
        assert_eq!(e.values(), vec![vec![Value::Int(10)], vec![Value::Int(20)]]);
        // Draining again is a no-op.
        assert_eq!(e.drain(&out).unwrap(), 0);
        assert_eq!(e.len(), 2);
        e.clear();
        assert!(e.is_empty());
    }

    #[test]
    fn drain_seals_then_delivers() {
        let out = ShardedBasket::new(Basket::new("out", &[("sum", DataType::Int)]), 2);
        out.append_shard(0, &[Column::Int(vec![10])], 1).unwrap();
        out.append_shard(1, &[Column::Int(vec![20])], 2).unwrap();
        assert_eq!(out.len(), 0); // everything still staged
        let mut e = CollectEmitter::new();
        assert_eq!(e.drain(&out).unwrap(), 2);
        assert_eq!(e.values(), vec![vec![Value::Int(10)], vec![Value::Int(20)]]);
        assert_eq!(out.len(), 0);
        assert_eq!(out.staged_len(), 0);
    }

    #[test]
    fn drain_multi_column_rows() {
        let out = ShardedBasket::new(
            Basket::new("out", &[("k", DataType::Int), ("v", DataType::Float)]),
            1,
        );
        out.append(&[Column::Int(vec![1]), Column::Float(vec![0.5])], 0).unwrap();
        let mut e = CollectEmitter::new();
        e.drain(&out).unwrap();
        assert_eq!(e.rows()[0].1, vec![Value::Int(1), Value::Float(0.5)]);
    }
}
