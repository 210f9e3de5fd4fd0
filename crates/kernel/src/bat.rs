//! Binary Association Tables.
//!
//! A BAT pairs a *virtual head* — a densely ascending run of [`Oid`]s
//! starting at `hseq` — with a materialized tail [`Column`]. The head is
//! never stored; `oid(i) = hseq + i`. This mirrors MonetDB's storage model
//! (paper §2, *A Column-oriented DBMS*): each relational attribute is one
//! BAT, intermediates are BATs, and candidate lists (selection results) are
//! BATs whose tail is an `Oid` column.

use crate::column::{Column, ColumnSlice};
use crate::error::KernelError;
use crate::value::{DataType, Value};
use crate::{Oid, Result};

/// A Binary Association Table: virtual oid head + typed tail.
#[derive(Debug, Clone, PartialEq)]
pub struct Bat {
    /// First head oid; tuple `i` has head oid `hseq + i`.
    pub hseq: Oid,
    /// The materialized tail values.
    pub tail: Column,
}

impl Bat {
    /// Build a BAT whose head starts at `hseq`.
    pub fn new(hseq: Oid, tail: Column) -> Bat {
        Bat { hseq, tail }
    }

    /// Build a transient BAT (head starts at 0), the common case for
    /// intermediates.
    pub fn transient(tail: Column) -> Bat {
        Bat { hseq: 0, tail }
    }

    /// An empty BAT of a given tail type.
    pub fn empty(dt: DataType) -> Bat {
        Bat { hseq: 0, tail: Column::empty(dt) }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tail.len()
    }

    /// True when the BAT holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tail.is_empty()
    }

    /// Tail type.
    pub fn data_type(&self) -> DataType {
        self.tail.data_type()
    }

    /// The head oid of tuple `i`.
    pub fn oid_at(&self, i: usize) -> Oid {
        self.hseq + i as u64
    }

    /// One past the last head oid.
    pub fn hend(&self) -> Oid {
        self.hseq + self.len() as u64
    }

    /// Tail value at position `i`.
    pub fn value_at(&self, i: usize) -> Option<Value> {
        self.tail.get(i)
    }

    /// Position of head oid `oid`, or an error if it is outside the BAT.
    pub fn index_of(&self, oid: Oid) -> Result<usize> {
        if oid < self.hseq || oid >= self.hend() {
            return Err(KernelError::OidOutOfRange { oid, hseq: self.hseq, len: self.len() });
        }
        Ok((oid - self.hseq) as usize)
    }

    /// Zero-copy view of the tail.
    pub fn tail_slice(&self) -> ColumnSlice<'_> {
        self.tail.as_slice()
    }

    /// View of tuples `[offset, offset+len)` as a BAT-like (hseq', slice)
    /// pair. Used by the splitter to carve basic windows out of a window,
    /// and by [`crate::par`] to hand each morsel its zero-copy range.
    pub fn view(&self, offset: usize, len: usize) -> (Oid, ColumnSlice<'_>) {
        (self.hseq + offset as u64, self.tail.slice(offset, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_head_arithmetic() {
        let b = Bat::new(100, Column::Int(vec![7, 8, 9]));
        assert_eq!(b.len(), 3);
        assert_eq!(b.oid_at(0), 100);
        assert_eq!(b.oid_at(2), 102);
        assert_eq!(b.hend(), 103);
        assert_eq!(b.index_of(101).unwrap(), 1);
    }

    #[test]
    fn index_of_out_of_range() {
        let b = Bat::new(10, Column::Int(vec![1]));
        assert!(b.index_of(9).is_err());
        assert!(b.index_of(11).is_err());
        assert!(b.index_of(10).is_ok());
    }

    #[test]
    fn transient_starts_at_zero() {
        let b = Bat::transient(Column::Float(vec![1.0]));
        assert_eq!(b.hseq, 0);
        assert_eq!(b.value_at(0), Some(Value::Float(1.0)));
        assert_eq!(b.value_at(1), None);
    }

    #[test]
    fn empty_bat() {
        let b = Bat::empty(DataType::Oid);
        assert!(b.is_empty());
        assert_eq!(b.data_type(), DataType::Oid);
    }

    #[test]
    fn view_carves_basic_windows() {
        let b = Bat::new(50, Column::Int(vec![1, 2, 3, 4, 5, 6]));
        let (hseq, slice) = b.view(2, 3);
        assert_eq!(hseq, 52);
        assert_eq!(slice.to_column(), Column::Int(vec![3, 4, 5]));
    }
}
