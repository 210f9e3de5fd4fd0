//! `agg_scale` — throughput vs. partition fan-out for the fused
//! `kernel::par` grouped aggregation (the `GroupAgg` MAL node's hot
//! path): one grouping pass over N rows × K distinct keys feeding
//! sum + count + avg, per partition count × placement mode.
//!
//! For each `P` the harness runs `par::grouped_agg_multi` over the same
//! key/value BATs; `P = 1` is one morsel on the calling thread whose
//! partial is finalized as is — the sequential group-then-aggregate
//! chain, so it *is* the sequential baseline. The sweep repeats per placement mode: round
//! robin chunks rows and re-groups the partials at merge; aligned
//! scatters rows by the canonical key-hash (`kernel::hash::Placement`)
//! so every partial owns disjoint keys and the merge is pure
//! concatenation. The harness asserts every `P` × mode produces
//! byte-identical columns, prints wall/iter, input rows/s and speedup
//! per point, and reports the `par::stats` grouped-agg and merge-path
//! counters — an aligned sweep must take the concat fast path only
//! (fallback delta 0), so a run doubles as proof of the merge-free path.
//!
//! Like `join_scale`, speedup tracks *physical cores*: on a single-core
//! container the interesting number is the partial/merge overhead; on
//! multi-core hardware ≥2 partitions should beat sequential on this
//! workload.
//!
//! Flags: `--scale f` resizes the input, `--partitions n` measures one
//! fan-out against the `P = 1` baseline, `--placement m` pins one
//! placement mode instead of sweeping both, `--windows n` overrides the
//! iteration count, `--seed n` the data seed.

use datacell_bench::{lcg_int_bat, print_table, Args};
use datacell_kernel::algebra::AggKind;
use datacell_kernel::par::{self, AggSpec, ParConfig};
use datacell_kernel::{Bat, Column, PlacementMode};
use std::time::{Duration, Instant};

const PARTITION_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn mode_name(mode: PlacementMode) -> &'static str {
    match mode {
        PlacementMode::RoundRobin => "roundrobin",
        PlacementMode::Aligned => "aligned",
    }
}

/// Sweep one workload across `partition_counts` under `mode`; returns the
/// (P-invariant) aggregate result for cross-mode identity checks.
fn sweep(
    label: &str,
    keys: &Bat,
    vals: &Bat,
    partition_counts: &[usize],
    mode: PlacementMode,
    iters: usize,
) -> (Column, Vec<Column>) {
    println!("{label} [{}]: |rows| = {}, {iters} iters/point", mode_name(mode), keys.len());
    let rows_per_iter = keys.len() as f64;
    let mut rows = Vec::new();
    let mut baseline: Option<(Duration, (Column, Vec<Column>))> = None;
    let stats0 = par::stats::snapshot();
    for &p in partition_counts {
        let cfg = ParConfig::new(p).with_placement(mode);
        let specs: Vec<AggSpec> =
            vec![(AggKind::Sum, Some(vals)), (AggKind::Count, None), (AggKind::Avg, Some(vals))];
        // One untimed run for warm-up and the identity check.
        let result = par::grouped_agg_multi(keys, &specs, &cfg).unwrap();
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(
                par::grouped_agg_multi(std::hint::black_box(keys), &specs, &cfg).unwrap(),
            );
        }
        let wall = t0.elapsed() / iters as u32;
        let (speedup, identical) = match &baseline {
            Some((base, base_result)) => {
                (base.as_secs_f64() / wall.as_secs_f64().max(f64::EPSILON), *base_result == result)
            }
            None => (1.0, true),
        };
        assert!(
            identical,
            "P={p} ({}) produced different aggregates than sequential",
            mode_name(mode)
        );
        rows.push(vec![
            p.to_string(),
            format!("{wall:?}"),
            format!("{:.2}", rows_per_iter / wall.as_secs_f64() / 1.0e6),
            result.0.len().to_string(),
            format!("{speedup:.2}x"),
        ]);
        if baseline.is_none() {
            baseline = Some((wall, result));
        }
    }
    print_table(&["partitions", "wall/iter", "Mrows/s", "groups", "speedup"], &rows);
    let delta = par::stats::snapshot().delta(&stats0);
    let (concat, fallback) = (delta.merge_concat_fast_path, delta.merge_regroup_fallback);
    println!("merge paths: concat fast path +{concat}, re-group fallback +{fallback}");
    if mode == PlacementMode::Aligned {
        // The tentpole's acceptance check: aligned partials own disjoint
        // keys, so the merge never falls back to re-grouping.
        let ran_parallel = partition_counts.iter().any(|&p| p > 1);
        assert!(!ran_parallel || concat > 0, "aligned sweep never took the concat fast path");
        assert_eq!(fallback, 0, "aligned sweep fell back to merge-by-regroup");
    }
    println!("aggregate columns identical across partition counts: yes\n");
    baseline.expect("at least one partition count").1
}

fn main() {
    let args = Args::parse();
    let n = args.sized(1_000_000, 10_000);
    let iters = args.windows.unwrap_or(10).max(1);
    let sweep_list: Vec<usize> = match args.partitions {
        Some(p) if p > 1 => vec![1, p],
        Some(_) => vec![1],
        None => PARTITION_COUNTS.to_vec(),
    };
    let modes: Vec<PlacementMode> = match args.placement {
        Some(m) => vec![m],
        None => vec![PlacementMode::RoundRobin, PlacementMode::Aligned],
    };

    let stats0 = par::stats::snapshot();

    // Few heavy groups: the per-morsel hash tables stay tiny, the
    // aggregation loop dominates.
    let keys = lcg_int_bat(n, 100, args.seed);
    let vals = lcg_int_bat(n, 1_000_000, args.seed + 1);
    let per_mode: Vec<_> = modes
        .iter()
        .map(|&m| sweep("100 keys (few heavy groups)", &keys, &vals, &sweep_list, m, iters))
        .collect();
    assert!(per_mode.windows(2).all(|w| w[0] == w[1]), "placement modes diverged");

    // Many light groups: grouping (hashing) dominates, merge cost —
    // re-group vs. concat — is visible.
    let domain = (n as i64 / 10).max(100);
    let keys = lcg_int_bat(n, domain, args.seed + 2);
    let vals = lcg_int_bat(n, 1_000_000, args.seed + 3);
    let label = format!("{domain} keys (many light groups)");
    let per_mode: Vec<_> =
        modes.iter().map(|&m| sweep(&label, &keys, &vals, &sweep_list, m, iters)).collect();
    assert!(per_mode.windows(2).all(|w| w[0] == w[1]), "placement modes diverged");

    let delta = par::stats::snapshot().delta(&stats0);
    println!(
        "kernel stats: grouped_agg calls +{}, parallel fan-outs +{}",
        delta.grouped_agg_calls, delta.grouped_agg_par_calls
    );
    println!(
        "shape check: speedup tracks physical cores (≈1x minus partial/merge \
         overhead on a single-core container);\nP=1 computes one partial and \
         finalizes it — the sequential group-then-aggregate chain;\naligned \
         placement trades a hash scatter before the morsels for a merge-free \
         concat after them."
    );
}
