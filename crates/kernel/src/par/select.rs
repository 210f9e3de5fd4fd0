//! Chunk-parallel selection.
//!
//! The input BAT is carved into `P` contiguous zero-copy morsels; each
//! morsel runs the sequential bulk loop
//! ([`crate::algebra::select_slice`]), and the per-morsel candidate lists
//! are concatenated in morsel order. Because morsels are ascending
//! head-oid ranges, the concatenation *is* the sequential output:
//! `par::select` is byte-identical to `algebra::select` at every `P`
//! (at `P = 1` the one morsel is the whole BAT and its list is returned
//! as is).

use super::{carve, concat, run, ParConfig};
use crate::algebra::{select_slice, Predicate};
use crate::column::Column;
use crate::{Bat, Result};

/// Parallel selection over a whole BAT: returns the same candidate-list
/// BAT (oid tail) as [`crate::algebra::select`], computed over `P`
/// morsels (one when the input is shorter than `P`).
pub fn select(bat: &Bat, pred: &Predicate, cfg: &ParConfig) -> Result<Bat> {
    let partials = run(carve(bat.len(), cfg.partitions()), |(off, size)| {
        let (base, slice) = bat.view(off, size);
        select_slice(slice, base, pred)
    })?;
    Ok(Bat::transient(Column::Oid(concat(partials))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra;
    use crate::algebra::CmpOp;
    use crate::value::Value;

    #[test]
    fn identical_to_sequential_at_every_p() {
        let b = Bat::new(70, Column::Int((0..103).map(|i| i % 10).collect()));
        let pred = Predicate::gt(6);
        let seq = algebra::select(&b, &pred).unwrap();
        for p in [1, 2, 3, 8, 64] {
            let par = select(&b, &pred, &ParConfig::new(p)).unwrap();
            assert_eq!(par, seq, "P={p}");
        }
    }

    #[test]
    fn string_and_range_predicates() {
        let b = Bat::new(0, Column::Str((0..40).map(|i| format!("k{}", i % 7)).collect()));
        let pred = Predicate::eq("k3");
        assert_eq!(
            select(&b, &pred, &ParConfig::new(4)).unwrap(),
            algebra::select(&b, &pred).unwrap()
        );
        let ints = Bat::new(5, Column::Int((0..50).collect()));
        let pred = Predicate::between(10, 30);
        assert_eq!(
            select(&ints, &pred, &ParConfig::new(8)).unwrap(),
            algebra::select(&ints, &pred).unwrap()
        );
    }

    #[test]
    fn errors_propagate_from_morsels() {
        let b = Bat::transient(Column::Float(vec![1.0; 16]));
        let pred = Predicate::Cmp(CmpOp::Eq, Value::Str("x".into()));
        assert!(select(&b, &pred, &ParConfig::new(4)).is_err());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let b = Bat::empty(crate::DataType::Int);
        let out = select(&b, &Predicate::True, &ParConfig::new(4)).unwrap();
        assert!(out.is_empty());
        let tiny = Bat::new(9, Column::Int(vec![5]));
        let out = select(&tiny, &Predicate::True, &ParConfig::new(4)).unwrap();
        assert_eq!(out.tail, Column::Oid(vec![9]));
    }
}
