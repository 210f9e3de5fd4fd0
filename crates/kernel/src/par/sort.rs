//! Stable sort, one run on the caller's thread at every `P`.
//!
//! Sorting `P` runs on scoped threads leaves a k-way merge of the runs
//! that is serial and costs more than the fan-out saves: on 2 vCPUs,
//! `P = 2` measured slower than one sort at every size from 1k to 512k
//! rows (26.6 vs 122.4 ns/row at 512k). So every `P` sorts the whole
//! input once with [`crate::algebra::sort_perm`], and the result is
//! byte-identical to it at every `P` by construction. Descending order is
//! the final `.reverse()` of the ascending permutation, mirroring what
//! `plan::exec` has always done for `desc`. The `cfg` argument stays so
//! callers keep one `par::*` signature shape.

use super::{stats, ParConfig};
use crate::{algebra, Bat, Result};

/// Stable sort of the tail — a gather over [`sort_perm`], so `desc` is
/// the reverse of the ascending result (the same final-reverse semantics
/// the executor's `Sort {desc}` node has always had). Returns a fresh
/// transient BAT.
pub fn sort(b: &Bat, desc: bool, cfg: &ParConfig) -> Result<Bat> {
    let perm = sort_perm(b, desc, cfg)?;
    Ok(Bat::transient(b.tail.gather(&perm)))
}

/// The permutation (positions) that sorts the tail; stable, ascending
/// unless `desc`. Byte-identical to `algebra::sort_perm` (+ `reverse()`
/// for `desc`) at every `P`.
pub fn sort_perm(b: &Bat, desc: bool, _cfg: &ParConfig) -> Result<Vec<u32>> {
    stats::record_sort();
    let start = datacell_telemetry::timer();
    let mut perm = algebra::sort_perm(b)?;
    if desc {
        perm.reverse();
    }
    stats::record_sort_time(start);
    Ok(perm)
}

/// Reverse a BAT's tail into a fresh transient BAT (descending view of an
/// ascending sort). Shared with `plan::exec`'s `Sort {desc}` node.
pub fn reverse_bat(b: &Bat) -> Bat {
    let perm: Vec<u32> = (0..b.len() as u32).rev().collect();
    Bat::transient(b.tail.gather(&perm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Column;

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
