//! Hash equi-join over two BATs.
//!
//! Produces the matching head-oid pairs `(l_oid, r_oid)` as two aligned
//! candidate BATs, the MonetDB `join` result shape: callers then `fetch`
//! whatever attributes they need through either side. Float keys are
//! rejected (bit-exact float equality joins are almost always a modelling
//! error, and MonetDB hashes exact types too).

use crate::column::Column;
use crate::error::KernelError;
use crate::hash::{fast_map_with_capacity, FastMap};
use crate::{Bat, Oid, Result};

/// Hash join `l.tail == r.tail`; returns aligned `(left_oids, right_oids)`.
///
/// The smaller input is used as the build side. Output pairs are ordered by
/// the probe side's position (and build order within one probe match), which
/// is deterministic for a given pair of inputs.
pub fn hashjoin(l: &Bat, r: &Bat) -> Result<(Bat, Bat)> {
    hashjoin_with(l, r, |build, probe| join_build_probe(build, probe, None))
}

/// The frame around every hash join: check the key types, hand `join` the
/// smaller input as the build side and the larger as the probe side, and
/// turn its `(build_oids, probe_oids)` back into `(left, right)` BATs.
pub(crate) fn hashjoin_with(
    l: &Bat,
    r: &Bat,
    join: impl FnOnce(&Bat, &Bat) -> Result<(Vec<Oid>, Vec<Oid>)>,
) -> Result<(Bat, Bat)> {
    if l.data_type() != r.data_type() {
        return Err(KernelError::TypeMismatch {
            op: "hashjoin",
            expected: l.data_type(),
            found: r.data_type(),
        });
    }
    let (lo, ro) = if l.len() <= r.len() {
        join(l, r)?
    } else {
        let (ro, lo) = join(r, l)?;
        (lo, ro)
    };
    Ok((Bat::transient(Column::Oid(lo)), Bat::transient(Column::Oid(ro))))
}

/// Build a hash table on `build`, probe with `probe`; returns
/// `(build_oids, probe_oids)`. `parts` restricts the join to one
/// partition's `(build positions, probe positions)`, each ascending;
/// `None` joins the whole inputs. This is the one per-type dispatch.
pub(crate) fn join_build_probe(
    build: &Bat,
    probe: &Bat,
    parts: Option<(&[u32], &[u32])>,
) -> Result<(Vec<Oid>, Vec<Oid>)> {
    let (bh, ph) = (build.hseq, probe.hseq);
    match (&build.tail, &probe.tail) {
        (Column::Int(b), Column::Int(p)) => Ok(join_positions(b, p, bh, ph, parts, |&k| k)),
        (Column::Oid(b), Column::Oid(p)) => Ok(join_positions(b, p, bh, ph, parts, |&k| k)),
        (Column::Bool(b), Column::Bool(p)) => Ok(join_positions(b, p, bh, ph, parts, |&k| k)),
        (Column::Str(b), Column::Str(p)) => {
            Ok(join_positions(b, p, bh, ph, parts, |k: &String| k.as_str()))
        }
        (Column::Float(_), _) => Err(KernelError::Unsupported("hashjoin on float keys".into())),
        _ => unreachable!("type equality checked by caller"),
    }
}

/// Instantiate the join core for a position sequence: the whole range
/// (which compiles to plain slice loops) or one partition's lists.
fn join_positions<'a, T, K>(
    build: &'a [T],
    probe: &'a [T],
    build_hseq: Oid,
    probe_hseq: Oid,
    parts: Option<(&[u32], &[u32])>,
    key_of: impl Fn(&'a T) -> K,
) -> (Vec<Oid>, Vec<Oid>)
where
    K: std::hash::Hash + Eq,
{
    match parts {
        None => chained_join(build.iter().map(&key_of), probe.iter().map(&key_of), |i, j| {
            (build_hseq + i as u64, probe_hseq + j as u64)
        }),
        Some((build_pos, probe_pos)) => chained_join(
            build_pos.iter().map(|&i| key_of(&build[i as usize])),
            probe_pos.iter().map(|&j| key_of(&probe[j as usize])),
            |i, j| (build_hseq + u64::from(build_pos[i]), probe_hseq + u64::from(probe_pos[j])),
        ),
    }
}

/// Chained-bucket equi-join core, generic over how the build and probe
/// tuples are enumerated: `build_keys` and `probe_keys` yield the keys in
/// build and probe order, and `oids` maps a matching (build ordinal,
/// probe ordinal) pair to its head oids.
///
/// The table uses MonetDB's chained-bucket layout: a head map from key to
/// the *last* build ordinal with that key, plus a `next` chain array —
/// zero allocations per distinct key, which matters because the DataCell
/// join matrix calls this once per basic-window pair.
fn chained_join<K>(
    build_keys: impl ExactSizeIterator<Item = K>,
    probe_keys: impl ExactSizeIterator<Item = K>,
    oids: impl Fn(usize, usize) -> (Oid, Oid),
) -> (Vec<Oid>, Vec<Oid>)
where
    K: std::hash::Hash + Eq,
{
    if build_keys.len() == 0 || probe_keys.len() == 0 {
        return (Vec::new(), Vec::new());
    }
    const NONE: u32 = u32::MAX;
    // Map capacity: one slot per build tuple is the worst case (all keys
    // distinct) and guarantees a rehash-free build phase; duplicate-heavy
    // builds over-allocate at most `build.len()` slots, which is already
    // the size of the `next` chain array allocated beside it.
    let mut head: FastMap<K, u32> = fast_map_with_capacity(build_keys.len());
    let mut next: Vec<u32> = vec![NONE; build_keys.len()];
    for (i, key) in build_keys.enumerate() {
        let slot = head.entry(key).or_insert(NONE);
        next[i] = *slot;
        *slot = i as u32;
    }
    // Pre-reserve using the probe length as the output estimate: an
    // equi-join with mostly-unique keys emits at most ~one pair per probe
    // tuple, and starting from `probe.len()` avoids the doubling cascade
    // (log₂(n) reallocations + copies) that growing from zero costs on
    // the 100k×100k hot path.
    let mut bo = Vec::with_capacity(probe_keys.len());
    let mut po = Vec::with_capacity(probe_keys.len());
    for (j, key) in probe_keys.enumerate() {
        if let Some(&first) = head.get(&key) {
            let mut i = first;
            while i != NONE {
                let (build_oid, probe_oid) = oids(i as usize, j);
                bo.push(build_oid);
                po.push(probe_oid);
                i = next[i as usize];
            }
        }
    }
    (bo, po)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_int_keys() {
        let l = Bat::new(0, Column::Int(vec![1, 2, 3]));
        let r = Bat::new(10, Column::Int(vec![2, 3, 4, 3]));
        let (lo, ro) = hashjoin(&l, &r).unwrap();
        let pairs: Vec<(u64, u64)> = lo
            .tail
            .as_oid()
            .unwrap()
            .iter()
            .zip(ro.tail.as_oid().unwrap())
            .map(|(&a, &b)| (a, b))
            .collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![(1, 10), (2, 11), (2, 13)]);
    }

    #[test]
    fn join_alignment_invariant() {
        let l = Bat::new(0, Column::Int(vec![7, 7]));
        let r = Bat::new(100, Column::Int(vec![7]));
        let (lo, ro) = hashjoin(&l, &r).unwrap();
        assert_eq!(lo.len(), ro.len());
        assert_eq!(lo.len(), 2);
        // Every output pair must actually match.
        for (&a, &b) in lo.tail.as_oid().unwrap().iter().zip(ro.tail.as_oid().unwrap()) {
            assert_eq!(l.value_at((a - l.hseq) as usize), r.value_at((b - r.hseq) as usize));
        }
    }

    #[test]
    fn join_empty_side() {
        let l = Bat::new(0, Column::Int(vec![]));
        let r = Bat::new(0, Column::Int(vec![1, 2]));
        let (lo, ro) = hashjoin(&l, &r).unwrap();
        assert!(lo.is_empty() && ro.is_empty());
    }

    #[test]
    fn join_no_matches() {
        let l = Bat::new(0, Column::Int(vec![1]));
        let r = Bat::new(0, Column::Int(vec![2]));
        let (lo, _) = hashjoin(&l, &r).unwrap();
        assert!(lo.is_empty());
    }

    #[test]
    fn join_str_keys() {
        let l = Bat::new(0, Column::Str(vec!["a".into(), "b".into()]));
        let r = Bat::new(5, Column::Str(vec!["b".into(), "c".into()]));
        let (lo, ro) = hashjoin(&l, &r).unwrap();
        assert_eq!(lo.tail, Column::Oid(vec![1]));
        assert_eq!(ro.tail, Column::Oid(vec![5]));
    }

    #[test]
    fn join_type_mismatch() {
        let l = Bat::new(0, Column::Int(vec![1]));
        let r = Bat::new(0, Column::Str(vec!["1".into()]));
        assert!(hashjoin(&l, &r).is_err());
    }

    #[test]
    fn join_float_keys_rejected() {
        let l = Bat::new(0, Column::Float(vec![1.0]));
        let r = Bat::new(0, Column::Float(vec![1.0]));
        assert!(matches!(hashjoin(&l, &r), Err(KernelError::Unsupported(_))));
    }

    #[test]
    fn join_larger_left_swaps_internally_but_output_is_left_right() {
        let l = Bat::new(0, Column::Int(vec![1, 2, 3, 4, 5]));
        let r = Bat::new(50, Column::Int(vec![3]));
        let (lo, ro) = hashjoin(&l, &r).unwrap();
        assert_eq!(lo.tail, Column::Oid(vec![2]));
        assert_eq!(ro.tail, Column::Oid(vec![50]));
    }

    #[test]
    fn join_cross_product_on_duplicates() {
        let l = Bat::new(0, Column::Int(vec![9, 9]));
        let r = Bat::new(0, Column::Int(vec![9, 9, 9]));
        let (lo, _) = hashjoin(&l, &r).unwrap();
        assert_eq!(lo.len(), 6);
    }
}
