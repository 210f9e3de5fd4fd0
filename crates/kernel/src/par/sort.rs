//! Run-parallel stable sort with a k-way position merge.
//!
//! The position space `[0, len)` is carved into `P` contiguous balanced
//! runs; each run is stably sorted with the same per-variant comparators
//! the sequential [`crate::algebra::sort_perm`] uses, then the sorted
//! runs are merged with a k-way scan over the run heads.
//!
//! **Byte-identity argument.** The merge replaces its current best head
//! only on a strict `Less`, scanning runs in ascending index order, so
//! ties resolve to the earliest run — and because runs are contiguous
//! ascending position ranges, the earliest run always holds the globally
//! smallest positions. Within a run, `std`'s stable sort over ascending
//! positions keeps equal keys in position order. Together these reproduce
//! the *exact* sequential stable permutation at every `P`; descending
//! order is the final `.reverse()` of the ascending permutation on both
//! paths, mirroring what `plan::exec` has always done for `desc`. At
//! `P = 1` the one run is the whole input: sorted on the caller's thread
//! and returned with no merge.

use super::{carve, run, stats, ParConfig};
use crate::column::Column;
use crate::{Bat, Result};
use std::cmp::Ordering;

/// Stable sort of the tail over `P` parallel runs — a gather over
/// [`sort_perm`], so `desc` is the reverse of the ascending result (the
/// same final-reverse semantics the executor's `Sort {desc}` node has
/// always had). Returns a fresh transient BAT.
pub fn sort(b: &Bat, desc: bool, cfg: &ParConfig) -> Result<Bat> {
    let perm = sort_perm(b, desc, cfg)?;
    Ok(Bat::transient(b.tail.gather(&perm)))
}

/// The permutation (positions) that sorts the tail, computed over `P`
/// parallel runs (one when the input is shorter than `P`); stable,
/// ascending unless `desc`. Byte-identical to `algebra::sort_perm`
/// (+ `reverse()` for `desc`) at every `P`.
pub fn sort_perm(b: &Bat, desc: bool, cfg: &ParConfig) -> Result<Vec<u32>> {
    let runs = carve(b.len(), cfg.partitions());
    let parallel = runs.len() > 1;
    stats::record_sort(parallel);
    let start = datacell_telemetry::timer();
    // The same per-variant comparators `algebra::sort_perm` uses.
    let mut perm = match &b.tail {
        Column::Int(v) => perm_by(runs, &|i, j| v[i as usize].cmp(&v[j as usize])),
        Column::Float(v) => perm_by(runs, &|i, j| v[i as usize].total_cmp(&v[j as usize])),
        Column::Str(v) => perm_by(runs, &|i, j| v[i as usize].cmp(&v[j as usize])),
        Column::Bool(v) => perm_by(runs, &|i, j| v[i as usize].cmp(&v[j as usize])),
        Column::Oid(v) => perm_by(runs, &|i, j| v[i as usize].cmp(&v[j as usize])),
    }?;
    if desc {
        perm.reverse();
    }
    stats::record_sort_time(parallel, start);
    Ok(perm)
}

/// Reverse a BAT's tail into a fresh transient BAT (descending view of an
/// ascending sort). Shared with `plan::exec`'s `Sort {desc}` node.
pub fn reverse_bat(b: &Bat) -> Bat {
    let perm: Vec<u32> = (0..b.len() as u32).rev().collect();
    Bat::transient(b.tail.gather(&perm))
}

/// Stably sort each contiguous position run, then k-way merge; a single
/// run is already the answer.
fn perm_by<F>(runs: impl ExactSizeIterator<Item = (usize, usize)>, cmp: &F) -> Result<Vec<u32>>
where
    F: Fn(u32, u32) -> Ordering + Sync,
{
    let mut sorted = run(runs, |(off, size)| {
        let mut run: Vec<u32> = (off as u32..(off + size) as u32).collect();
        run.sort_by(|&i, &j| cmp(i, j));
        Ok(run)
    })?;
    if sorted.len() == 1 {
        return Ok(sorted.pop().expect("one run"));
    }
    let mstart = datacell_telemetry::timer();
    let merged = kway_merge(&sorted, cmp);
    stats::record_sort_merge_time(mstart);
    Ok(merged)
}

/// Merge sorted runs by scanning run heads, replacing the best candidate
/// only on a strict `Less` so ties go to the earliest (lowest-position)
/// run — the stability invariant the module docs lean on.
fn kway_merge<F>(runs: &[Vec<u32>], cmp: &F) -> Vec<u32>
where
    F: Fn(u32, u32) -> Ordering,
{
    let total: usize = runs.iter().map(Vec::len).sum();
    let mut heads = vec![0usize; runs.len()];
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        let mut best: Option<usize> = None;
        for (r, run) in runs.iter().enumerate() {
            if heads[r] >= run.len() {
                continue;
            }
            best = match best {
                None => Some(r),
                Some(b) if cmp(run[heads[r]], runs[b][heads[b]]) == Ordering::Less => Some(r),
                keep => keep,
            };
        }
        let r = best.expect("total accounts for every run element");
        out.push(runs[r][heads[r]]);
        heads[r] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra;

    fn seq_perm(b: &Bat, desc: bool) -> Vec<u32> {
        let mut perm = algebra::sort_perm(b).unwrap();
        if desc {
            perm.reverse();
        }
        perm
    }

    #[test]
    fn perm_identical_to_sequential_at_every_p() {
        let b = Bat::transient(Column::Int((0..101).map(|i| (i * 37) % 10).collect()));
        for desc in [false, true] {
            let seq = seq_perm(&b, desc);
            for p in [1, 2, 3, 8, 64] {
                let par = sort_perm(&b, desc, &ParConfig::new(p)).unwrap();
                assert_eq!(par, seq, "P={p} desc={desc}");
            }
        }
    }

    #[test]
    fn stability_matches_sequential_on_heavy_duplicates() {
        // Two distinct keys over 40 rows: ties must stay in position order.
        let b = Bat::transient(Column::Int((0..40).map(|i| i % 2).collect()));
        assert_eq!(sort_perm(&b, false, &ParConfig::new(8)).unwrap(), seq_perm(&b, false));
        assert_eq!(sort_perm(&b, true, &ParConfig::new(8)).unwrap(), seq_perm(&b, true));
    }

    #[test]
    fn sorted_values_identical_for_strings_and_floats() {
        let s = Bat::transient(Column::Str((0..33).map(|i| format!("k{}", (i * 7) % 5)).collect()));
        let f = Bat::transient(Column::Float((0..33).map(|i| f64::from(50 - i) * 0.5).collect()));
        for desc in [false, true] {
            assert_eq!(
                sort(&s, desc, &ParConfig::new(4)).unwrap(),
                sort(&s, desc, &ParConfig::new(1)).unwrap(),
                "str desc={desc}"
            );
            assert_eq!(
                sort(&f, desc, &ParConfig::new(4)).unwrap(),
                sort(&f, desc, &ParConfig::new(1)).unwrap(),
                "float desc={desc}"
            );
        }
    }

    #[test]
    fn empty_and_single_row() {
        let b = Bat::empty(crate::DataType::Int);
        assert!(sort(&b, false, &ParConfig::new(4)).unwrap().is_empty());
        assert!(sort_perm(&b, true, &ParConfig::new(4)).unwrap().is_empty());
        let one = Bat::transient(Column::Int(vec![7]));
        assert_eq!(sort_perm(&one, false, &ParConfig::new(4)).unwrap(), vec![0]);
    }

    #[test]
    fn reverse_bat_reverses() {
        let b = Bat::transient(Column::Int(vec![1, 2, 3]));
        assert_eq!(reverse_bat(&b).tail, Column::Int(vec![3, 2, 1]));
    }
}
