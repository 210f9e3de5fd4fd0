//! `sort_scale` — throughput vs. partition fan-out for the morsel-parallel
//! `kernel::par` fetch and sort paths (the `SortPerm` → `Fetch` MAL chain
//! behind `ORDER BY`), plus a scatter-elision leg for the aligned
//! aggregate kernel.
//!
//! For each `P` the harness runs `par::sort_perm` over the same key BAT
//! and then `par::fetch` of a payload column through the resulting
//! head-oid candidate list — the exact operator chain the executor emits
//! for `ORDER BY k`. `P = 1` is one run and one morsel on the calling
//! thread (no merge, no spawn), so it *is* the sequential
//! baseline, and the harness asserts every `P` produces byte-identical
//! permutations and fetched columns. Three key distributions stress the
//! merge differently: *dense* (near-unique keys — comparator-bound),
//! *skewed* (100 distinct keys — duplicate-heavy, stability-sensitive)
//! and *presorted* (already ordered — per-run sorts are trivial, the
//! k-way merge dominates).
//!
//! The elision leg re-orders rows into canonical placement order
//! (`kernel::hash::Placement`) and runs the fused grouped aggregation
//! twice per point under aligned placement: once plainly, once with the
//! caller vouching `ParConfig::with_aligned_input(true)` — the mark lets
//! the kernel skip materializing per-row position lists in favour of
//! run-compressed copies. Under round-robin placement the mark is inert
//! by construction, which the leg also demonstrates. Results must be
//! byte-identical marked or not (the kernel still hashes every key), and
//! an aligned sweep must bump the `scatter_elided` counter.
//!
//! Like `agg_scale`, speedup tracks *physical cores*: on a single-core
//! container the interesting number is the partition/merge overhead.
//!
//! Flags: `--scale f` resizes the input, `--partitions n` measures one
//! fan-out against the `P = 1` baseline, `--placement m` pins one
//! placement mode for the elision leg, `--windows n` overrides the
//! iteration count, `--seed n` the data seed.

use datacell_bench::{lcg_int_bat, print_table, Args};
use datacell_kernel::algebra::AggKind;
use datacell_kernel::par::{self, AggSpec, ParConfig};
use datacell_kernel::{algebra, Bat, Column, Placement, PlacementMode};
use std::time::{Duration, Instant};

const PARTITION_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn mode_name(mode: PlacementMode) -> &'static str {
    match mode {
        PlacementMode::RoundRobin => "roundrobin",
        PlacementMode::Aligned => "aligned",
    }
}

/// Sweep the SortPerm → Fetch chain over `partition_counts` for one key
/// distribution; asserts byte-identity against the `P = 1` baseline.
fn sweep_sort(label: &str, keys: &Bat, payload: &Bat, partition_counts: &[usize], iters: usize) {
    println!("{label}: |rows| = {}, {iters} iters/point", keys.len());
    let rows_per_iter = keys.len() as f64;
    let mut rows = Vec::new();
    let mut baseline: Option<(Duration, Vec<u32>, Bat)> = None;
    for &p in partition_counts {
        let cfg = ParConfig::new(p);
        // One untimed run for warm-up and the identity check.
        let perm = par::sort_perm(keys, false, &cfg).unwrap();
        let cands =
            Bat::transient(Column::Oid(perm.iter().map(|&i| keys.hseq + i as u64).collect()));
        let fetched = par::fetch(&cands, payload, &cfg).unwrap();

        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(par::sort_perm(std::hint::black_box(keys), false, &cfg).unwrap());
        }
        let sort_wall = t0.elapsed() / iters as u32;
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(par::fetch(std::hint::black_box(&cands), payload, &cfg).unwrap());
        }
        let fetch_wall = t0.elapsed() / iters as u32;

        let (speedup, identical) = match &baseline {
            Some((base, base_perm, base_fetched)) => (
                base.as_secs_f64() / sort_wall.as_secs_f64().max(f64::EPSILON),
                *base_perm == perm && *base_fetched == fetched,
            ),
            None => (1.0, true),
        };
        assert!(identical, "P={p} produced a different permutation or fetch than sequential");
        rows.push(vec![
            p.to_string(),
            format!("{sort_wall:?}"),
            format!("{fetch_wall:?}"),
            format!("{:.2}", rows_per_iter / sort_wall.as_secs_f64() / 1.0e6),
            format!("{speedup:.2}x"),
        ]);
        if baseline.is_none() {
            baseline = Some((sort_wall, perm, fetched));
        }
    }
    print_table(&["partitions", "sort/iter", "fetch/iter", "Msorted/s", "sort speedup"], &rows);
    println!("permutation and fetched column identical across partition counts: yes\n");
}

/// Re-order rows into canonical placement order for `p` partitions, so the
/// input genuinely satisfies the aligned-input vouch.
fn align_rows(keys: &Bat, vals: &Bat, p: usize) -> (Bat, Bat) {
    let parts = Placement::new(p).scatter(&keys.tail.as_slice());
    let order: Vec<u32> = parts.into_iter().flatten().collect();
    (Bat::transient(keys.tail.gather(&order)), Bat::transient(vals.tail.gather(&order)))
}

/// Time the fused grouped aggregation with and without the aligned-input
/// mark on genuinely placement-ordered input; results must be identical.
fn sweep_elision(
    keys: &Bat,
    vals: &Bat,
    partition_counts: &[usize],
    mode: PlacementMode,
    iters: usize,
) {
    println!("scatter elision [{}]: |rows| = {}, {iters} iters/point", mode_name(mode), keys.len());
    let mut rows = Vec::new();
    let stats0 = par::stats::snapshot();
    for &p in partition_counts {
        let (akeys, avals) = align_rows(keys, vals, p);
        let specs: Vec<AggSpec> = vec![
            (AggKind::Sum, Some(&avals)),
            (AggKind::Count, None),
            (AggKind::Avg, Some(&avals)),
        ];
        let plain = ParConfig::new(p).with_placement(mode);
        let marked = plain.with_aligned_input(true);

        let base = par::grouped_agg_multi(&akeys, &specs, &plain).unwrap();
        let elided = par::grouped_agg_multi(&akeys, &specs, &marked).unwrap();
        assert_eq!(base, elided, "P={p} ({}) aligned-input mark changed results", mode_name(mode));

        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(par::grouped_agg_multi(&akeys, &specs, &plain).unwrap());
        }
        let plain_wall = t0.elapsed() / iters as u32;
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(par::grouped_agg_multi(&akeys, &specs, &marked).unwrap());
        }
        let marked_wall = t0.elapsed() / iters as u32;
        rows.push(vec![
            p.to_string(),
            format!("{plain_wall:?}"),
            format!("{marked_wall:?}"),
            format!(
                "{:.2}x",
                plain_wall.as_secs_f64() / marked_wall.as_secs_f64().max(f64::EPSILON)
            ),
        ]);
    }
    print_table(&["partitions", "unmarked/iter", "marked/iter", "elision speedup"], &rows);
    let delta = par::stats::snapshot().delta(&stats0);
    println!("scatter elisions this sweep: +{}", delta.scatter_elided);
    let ran_parallel = partition_counts.iter().any(|&p| p > 1);
    match mode {
        PlacementMode::Aligned if ran_parallel => assert!(
            delta.scatter_elided > 0,
            "aligned sweep with the input mark never elided a scatter"
        ),
        PlacementMode::RoundRobin => assert_eq!(
            delta.scatter_elided, 0,
            "round-robin placement must never honour the aligned-input mark"
        ),
        _ => {}
    }
    println!();
}

fn main() {
    let args = Args::parse();
    let n = args.sized(1_000_000, 10_000);
    let iters = args.windows.unwrap_or(5).max(1);
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

    let payload = lcg_int_bat(n, 1_000_000, args.seed + 7);
    let dense = lcg_int_bat(n, n as i64, args.seed);
    sweep_sort("dense keys (near-unique)", &dense, &payload, &sweep_list, iters);

    let skewed = lcg_int_bat(n, 100, args.seed + 1);
    sweep_sort(
        "skewed keys (100 distinct, duplicate-heavy)",
        &skewed,
        &payload,
        &sweep_list,
        iters,
    );

    let presorted = algebra::sort(&dense).unwrap();
    sweep_sort("presorted keys (merge-dominated)", &presorted, &payload, &sweep_list, iters);

    let agg_keys = lcg_int_bat(n, 1_000, args.seed + 2);
    let agg_vals = lcg_int_bat(n, 1_000_000, args.seed + 3);
    for &m in &modes {
        sweep_elision(&agg_keys, &agg_vals, &sweep_list, m, iters);
    }

    let delta = par::stats::snapshot().delta(&stats0);
    println!(
        "kernel stats: fetch calls +{} (parallel +{}), sort calls +{} (parallel +{}), \
         scatters elided +{}",
        delta.fetch_calls,
        delta.fetch_par_calls,
        delta.sort_calls,
        delta.sort_par_calls,
        delta.scatter_elided
    );
    println!(
        "shape check: sort speedup tracks physical cores (≈1x minus run-sort/merge \
         overhead on a single-core container);\nP=1 is one run and one morsel on \
         the calling thread: no merge, no spawn;\nthe aligned-input mark \
         trades per-row scatter position lists for run-compressed bulk copies and \
         can never change results — the kernel still hashes every key."
    );
}
