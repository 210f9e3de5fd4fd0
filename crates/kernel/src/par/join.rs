//! Radix-partitioned parallel hash join.
//!
//! Both inputs are hash-partitioned on the join key into `P` disjoint
//! partitions by the canonical [`Placement`] map (equal keys always land
//! in the same partition, so the union of the per-partition joins is
//! exactly the sequential join's pair set; the same map picks basket
//! staging shards and aligned aggregation morsels, so keyed ingest lands
//! pre-partitioned for the join). Each partition pair is then joined
//! independently by the one hash table [`crate::algebra::hashjoin`] uses
//! ([`crate::algebra::JoinIndex`], the partition's build positions pushed
//! as its only run and probed with the partition's probe positions), and
//! the aligned oid pairs are concatenated back in partition order.
//!
//! **Canonical output order** (documented determinism contract): pairs are
//! ordered by partition index first, then by probe position within the
//! partition, then newest-build-first within one probe match — the last
//! two being exactly the sequential core's order restricted to the
//! partition. At `P = 1` there is one partition, the whole inputs: no
//! scatter, no concat, byte-identical to `algebra::hashjoin`.

use super::{concat, run, stats, ParConfig};
use crate::algebra::{hashjoin_with, join_build_probe};
use crate::hash::Placement;
use crate::{Bat, Result};

/// Partitioned parallel hash join `l.tail == r.tail`; returns aligned
/// `(left_oids, right_oids)` candidate BATs, like `algebra::hashjoin`.
///
/// The smaller input builds, the larger probes (as in the sequential
/// join). Whether to partition at all gates on the *larger* side: a tiny
/// build against a huge probe still wins by splitting the probe scan
/// across partitions (empty build partitions short-circuit), and only
/// when even the probe side has fewer tuples than partitions is the
/// fan-out pure overhead.
pub fn hashjoin(l: &Bat, r: &Bat, cfg: &ParConfig) -> Result<(Bat, Bat)> {
    let start = datacell_telemetry::timer();
    let out = hashjoin_with(l, r, |build, probe| {
        let p = cfg.partitions();
        if p <= 1 || probe.len() < p {
            return join_build_probe(build, probe, None);
        }
        // Input vouched scatter-ordered by keyed ingest: the same hash
        // pass, but each partition arrives as a few runs to expand rather
        // than one push per row.
        let elide = cfg.input_is_aligned();
        if elide {
            stats::record_scatter_elided();
        }
        let [build_parts, probe_parts] = [build, probe].map(|side| {
            let (placement, keys) = (Placement::new(p), side.tail.as_slice());
            if !elide {
                return placement.scatter(&keys);
            }
            let expand = |runs: Vec<(u32, u32)>| {
                runs.into_iter().flat_map(|(start, n)| start..start + n).collect()
            };
            placement.scatter_runs(&keys).into_iter().map(expand).collect()
        });
        let pairs = build_parts.iter().zip(&probe_parts);
        let partials = run(pairs, |(bp, pp)| join_build_probe(build, probe, Some((bp, pp))))?;
        let (bo, po): (Vec<_>, Vec<_>) = partials.into_iter().unzip();
        Ok((concat(bo), concat(po)))
    })?;
    // The larger side probed.
    stats::record_join(l.len().max(r.len()), out.0.len(), start);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra;
    use crate::column::Column;
    use crate::error::KernelError;

    fn pairs(lo: &Bat, ro: &Bat) -> Vec<(u64, u64)> {
        lo.tail
            .as_oid()
            .unwrap()
            .iter()
            .zip(ro.tail.as_oid().unwrap())
            .map(|(&a, &b)| (a, b))
            .collect()
    }

    fn sorted_pairs(lo: &Bat, ro: &Bat) -> Vec<(u64, u64)> {
        let mut v = pairs(lo, ro);
        v.sort_unstable();
        v
    }

    #[test]
    fn p1_is_byte_identical_to_sequential() {
        let l = Bat::new(3, Column::Int(vec![1, 2, 3, 2, 9]));
        let r = Bat::new(40, Column::Int(vec![2, 9, 2, 5]));
        let (slo, sro) = algebra::hashjoin(&l, &r).unwrap();
        let (plo, pro) = hashjoin(&l, &r, &ParConfig::sequential()).unwrap();
        assert_eq!((slo, sro), (plo, pro));
    }

    #[test]
    fn partitions_preserve_pair_set() {
        let l = Bat::new(0, Column::Int((0..64).map(|i| i % 7).collect()));
        let r = Bat::new(1000, Column::Int((0..80).map(|i| i % 9).collect()));
        let (slo, sro) = algebra::hashjoin(&l, &r).unwrap();
        for p in [2, 3, 4, 8] {
            let (plo, pro) = hashjoin(&l, &r, &ParConfig::new(p)).unwrap();
            assert_eq!(sorted_pairs(&plo, &pro), sorted_pairs(&slo, &sro), "P={p}");
            // Every emitted pair matches on key.
            for (&a, &b) in plo.tail.as_oid().unwrap().iter().zip(pro.tail.as_oid().unwrap()) {
                assert_eq!(l.value_at((a - l.hseq) as usize), r.value_at((b - r.hseq) as usize));
            }
        }
    }

    #[test]
    fn canonical_order_is_deterministic() {
        let l = Bat::new(0, Column::Int((0..50).map(|i| i % 5).collect()));
        let r = Bat::new(0, Column::Int((0..50).map(|i| i % 4).collect()));
        let cfg = ParConfig::new(4);
        let (a1, b1) = hashjoin(&l, &r, &cfg).unwrap();
        let (a2, b2) = hashjoin(&l, &r, &cfg).unwrap();
        assert_eq!(pairs(&a1, &b1), pairs(&a2, &b2));
    }

    #[test]
    fn string_keys_partition_correctly() {
        let keys = ["ape", "bee", "cat", "dog", "eel", "fox", "gnu", "hen"];
        let l = Bat::new(0, Column::Str((0..32).map(|i| keys[i % 8].to_string()).collect()));
        let r = Bat::new(90, Column::Str((0..24).map(|i| keys[i % 3].to_string()).collect()));
        let (slo, sro) = algebra::hashjoin(&l, &r).unwrap();
        let (plo, pro) = hashjoin(&l, &r, &ParConfig::new(4)).unwrap();
        assert_eq!(sorted_pairs(&plo, &pro), sorted_pairs(&slo, &sro));
    }

    #[test]
    fn tiny_build_large_probe_still_partitions() {
        // One build tuple, many probe tuples: the probe scan is what gets
        // split; empty build partitions short-circuit.
        let l = Bat::new(0, Column::Int(vec![3]));
        let r = Bat::new(10, Column::Int((0..100).map(|i| i % 5).collect()));
        let (slo, sro) = algebra::hashjoin(&l, &r).unwrap();
        let (plo, pro) = hashjoin(&l, &r, &ParConfig::new(4)).unwrap();
        assert_eq!(sorted_pairs(&plo, &pro), sorted_pairs(&slo, &sro));
        assert_eq!(plo.len(), 20);
    }

    #[test]
    fn elided_join_byte_identical_to_aligned_join_and_counted() {
        use super::super::PlacementMode;
        let l = Bat::new(0, Column::Int((0..64).map(|i| i % 7).collect()));
        let r = Bat::new(1000, Column::Int((0..80).map(|i| i % 9).collect()));
        let aligned = ParConfig::new(4).with_placement(PlacementMode::Aligned);
        let elided = aligned.with_aligned_input(true);
        let e0 = stats::scatter_elided();
        assert_eq!(hashjoin(&l, &r, &elided).unwrap(), hashjoin(&l, &r, &aligned).unwrap());
        assert_eq!(
            hashjoin(&l, &r, &elided).unwrap(),
            hashjoin(&l, &r, &ParConfig::new(4)).unwrap()
        );
        assert!(stats::scatter_elided() > e0, "elided joins must be counted");
        // The mark without aligned placement must not change results
        // either (it is ignored: round-robin placement never elides).
        let marked_rr = ParConfig::new(4).with_aligned_input(true);
        assert_eq!(
            hashjoin(&l, &r, &marked_rr).unwrap(),
            hashjoin(&l, &r, &ParConfig::new(4)).unwrap()
        );
    }

    #[test]
    fn small_inputs_fall_back_to_sequential() {
        // Fewer tuples than partitions: byte-identical to sequential.
        let l = Bat::new(0, Column::Int(vec![1, 2]));
        let r = Bat::new(10, Column::Int(vec![2, 1, 2]));
        let (slo, sro) = algebra::hashjoin(&l, &r).unwrap();
        let (plo, pro) = hashjoin(&l, &r, &ParConfig::new(8)).unwrap();
        assert_eq!((slo, sro), (plo, pro));
    }

    #[test]
    fn empty_side_and_type_errors_match_sequential() {
        let l = Bat::empty(crate::DataType::Int);
        let r = Bat::new(0, Column::Int(vec![1, 2]));
        let cfg = ParConfig::new(4);
        let (lo, ro) = hashjoin(&l, &r, &cfg).unwrap();
        assert!(lo.is_empty() && ro.is_empty());
        let s = Bat::transient(Column::Str(vec!["1".into(); 8]));
        let i = Bat::transient(Column::Int(vec![1; 8]));
        assert!(hashjoin(&s, &i, &cfg).is_err());
        let f = Bat::transient(Column::Float(vec![1.0; 8]));
        assert!(matches!(hashjoin(&f, &f, &cfg), Err(KernelError::Unsupported(_))));
    }
}
