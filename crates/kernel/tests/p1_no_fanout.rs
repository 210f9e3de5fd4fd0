//! `P = 1` (and any input shorter than `P`) is one morsel on the caller's
//! thread: the process-wide `*_par_calls` counters must not move. The
//! counters are shared by every thread of a process, so this check owns
//! its test binary and is its only test.

use datacell_kernel::algebra::{self, AggKind};
use datacell_kernel::par::{self, stats, ParConfig};
use datacell_kernel::{Bat, Column};

#[test]
fn one_morsel_calls_leave_the_par_counters_alone() {
    let keys = Bat::transient(Column::Int((0..64).map(|i| (i * 7) % 5).collect()));
    let vals = Bat::transient(Column::Int((0..64).collect()));
    let cands = Bat::transient(Column::Oid((0..64).rev().collect()));
    let specs = [(AggKind::Sum, Some(&vals)), (AggKind::Avg, Some(&vals))];

    let before = stats::snapshot();
    for cfg in [ParConfig::sequential(), ParConfig::new(65)] {
        let sorted_desc = par::reverse_bat(&algebra::sort(&vals).unwrap());
        assert_eq!(par::sort(&vals, true, &cfg).unwrap(), sorted_desc);
        assert_eq!(
            par::fetch(&cands, &vals, &cfg).unwrap(),
            algebra::fetch(&cands, &vals).unwrap()
        );
        let (k, cols) = par::grouped_agg_multi(&keys, &specs, &cfg).unwrap();
        assert_eq!((k.len(), cols.len()), (5, 2));
    }
    let d = stats::snapshot().delta(&before);
    assert_eq!((d.sort_calls, d.fetch_calls, d.grouped_agg_calls), (2, 2, 2));
    assert_eq!((d.sort_par_calls, d.fetch_par_calls, d.grouped_agg_par_calls), (0, 0, 0));

    // The same calls at P = 4 do fan out, so the zeros above are not vacuous.
    let cfg = ParConfig::new(4);
    par::sort(&vals, false, &cfg).unwrap();
    par::fetch(&cands, &vals, &cfg).unwrap();
    par::grouped_agg_multi(&keys, &specs, &cfg).unwrap();
    let d = stats::snapshot().delta(&before);
    assert_eq!((d.sort_par_calls, d.fetch_par_calls, d.grouped_agg_par_calls), (1, 1, 1));
}
