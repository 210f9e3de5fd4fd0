//! Morsel-parallel tuple reconstruction (fetch / `leftfetchjoin`).
//!
//! The candidate list is carved into `P` contiguous balanced morsels;
//! each morsel gathers tail values through the shared
//! [`crate::algebra::fetch_oids`] loop, and the per-morsel columns are
//! concatenated in morsel order. Because a fetch output is positionally
//! aligned with its candidate list, morsel-order concatenation *is* the
//! sequential output: `par::fetch` is byte-identical to
//! [`crate::algebra::fetch`] at every `P`.

use super::{carve, run, stats, ParConfig};
use crate::algebra::fetch_oids;
use crate::{Bat, Result};

/// Parallel fetch: materialize `values[oid]` for every oid in `cands`,
/// over `P` candidate-list morsels (one when the list is shorter than
/// `P`). Errors (non-oid candidates, out-of-range oids) propagate in
/// morsel order, so the reported error is the same one the sequential
/// loop would hit first.
pub fn fetch(cands: &Bat, values: &Bat, cfg: &ParConfig) -> Result<Bat> {
    let morsels = carve(cands.len(), cfg.partitions());
    let parallel = morsels.len() > 1;
    stats::record_fetch(parallel);
    let start = datacell_telemetry::timer();
    let out = cands.tail.as_oid().and_then(|oids| {
        let mut partials =
            run(morsels, |(off, size)| fetch_oids(&oids[off..off + size], values))?.into_iter();
        let mut out = partials.next().expect("carve yields at least one morsel");
        for mut partial in partials {
            out.append_owned(&mut partial)?;
        }
        Ok(out)
    });
    stats::record_fetch_time(parallel, start);
    out.map(Bat::transient)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra;
    use crate::column::Column;
    use crate::KernelError;

    #[test]
    fn identical_to_sequential_at_every_p() {
        let values = Bat::new(50, Column::Int((0..97).map(|i| i * 3).collect()));
        let cand = Bat::transient(Column::Oid((0..97).rev().map(|i| 50 + i as u64).collect()));
        let seq = algebra::fetch(&cand, &values).unwrap();
        for p in [1, 2, 3, 8, 64] {
            let par = fetch(&cand, &values, &ParConfig::new(p)).unwrap();
            assert_eq!(par, seq, "P={p}");
        }
    }

    #[test]
    fn string_values_and_duplicates() {
        let values = Bat::new(0, Column::Str((0..20).map(|i| format!("v{i}")).collect()));
        let cand = Bat::transient(Column::Oid(vec![3, 3, 0, 19, 7, 7, 7, 1]));
        assert_eq!(
            fetch(&cand, &values, &ParConfig::new(4)).unwrap(),
            algebra::fetch(&cand, &values).unwrap()
        );
    }

    #[test]
    fn out_of_range_oid_reports_first_in_candidate_order() {
        let values = Bat::new(0, Column::Int(vec![1, 2]));
        let cand = Bat::transient(Column::Oid(vec![0, 9, 1, 7, 0, 0, 1, 1]));
        let err = fetch(&cand, &values, &ParConfig::new(4)).unwrap_err();
        assert!(matches!(err, KernelError::OidOutOfRange { oid: 9, .. }), "{err}");
    }

    #[test]
    fn empty_and_tiny_candidate_lists() {
        let values = Bat::new(0, Column::Int(vec![5, 6]));
        let cand = Bat::transient(Column::Oid(vec![]));
        assert!(fetch(&cand, &values, &ParConfig::new(4)).unwrap().is_empty());
        let one = Bat::transient(Column::Oid(vec![1]));
        assert_eq!(fetch(&one, &values, &ParConfig::new(4)).unwrap().tail, Column::Int(vec![6]));
    }
}
