//! `join_scale` — throughput vs. partition fan-out for the `kernel::par`
//! radix hash join on the ROADMAP's 100k×100k hot-path workload.
//!
//! For each partition count `P` the harness joins the same two BATs
//! (`par::hashjoin`); `P = 1` is one partition — the whole inputs through
//! the join core `algebra::hashjoin` runs — so it *is* the sequential
//! baseline. The
//! harness asserts that every `P` produces the same pair set (sorted
//! comparison — the canonical order at `P > 1` interleaves partitions)
//! and prints wall/iter, input rows/s, and speedup per `P`.
//!
//! Like the scheduler's CPU-bound table, speedup tracks *physical cores*:
//! on a single-core container the interesting number is the partitioning
//! overhead; on multi-core hardware ≥2 partitions should beat sequential
//! by ≥1.5x on this workload.
//!
//! Flags: `--scale f` resizes the inputs, `--partitions n` measures one
//! fan-out instead of the default sweep, `--windows n` overrides the
//! iteration count, `--seed n` the data seed.

use datacell_bench::{lcg_int_bat, lcg_str_bat, print_table, Args};
use datacell_kernel::par::{self, ParConfig};
use datacell_kernel::Bat;
use std::time::{Duration, Instant};

const PARTITION_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Sorted pair set of one join result (for the cross-`P` identity check).
fn pair_set(lo: &Bat, ro: &Bat) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = lo
        .tail
        .as_oid()
        .unwrap()
        .iter()
        .zip(ro.tail.as_oid().unwrap())
        .map(|(&a, &b)| (a, b))
        .collect();
    v.sort_unstable();
    v
}

fn sweep(label: &str, l: &Bat, r: &Bat, partition_counts: &[usize], iters: usize) {
    println!("{label}: |L| = {}, |R| = {}, {iters} iters/point", l.len(), r.len());
    let rows_per_iter = (l.len() + r.len()) as f64;
    let mut rows = Vec::new();
    let mut baseline: Option<(Duration, Vec<(u64, u64)>)> = None;
    for &p in partition_counts {
        let cfg = ParConfig::new(p);
        // One untimed run for warm-up and the identity check.
        let (lo, ro) = par::hashjoin(l, r, &cfg).unwrap();
        let pairs = pair_set(&lo, &ro);
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(par::hashjoin(std::hint::black_box(l), r, &cfg).unwrap());
        }
        let wall = t0.elapsed() / iters as u32;
        let (speedup, identical) = match &baseline {
            Some((base, base_pairs)) => {
                (base.as_secs_f64() / wall.as_secs_f64().max(f64::EPSILON), *base_pairs == pairs)
            }
            None => (1.0, true),
        };
        assert!(identical, "P={p} produced a different pair set than sequential");
        rows.push(vec![
            p.to_string(),
            format!("{wall:?}"),
            format!("{:.2}", rows_per_iter / wall.as_secs_f64() / 1.0e6),
            pairs.len().to_string(),
            format!("{speedup:.2}x"),
        ]);
        if baseline.is_none() {
            baseline = Some((wall, pairs));
        }
    }
    print_table(&["partitions", "wall/iter", "Mrows/s", "pairs", "speedup"], &rows);
    println!("pair sets identical across partition counts: yes\n");
}

fn main() {
    let args = Args::parse();
    let n = args.sized(100_000, 1_000);
    let domain = (n as i64 / 10).max(10);
    let iters = args.windows.unwrap_or(10).max(1);
    // A pinned fan-out is still measured against the P=1 baseline.
    let sweep_list: Vec<usize> = match args.partitions {
        Some(p) if p > 1 => vec![1, p],
        Some(_) => vec![1],
        None => PARTITION_COUNTS.to_vec(),
    };

    let l = lcg_int_bat(n, domain, args.seed);
    let r = lcg_int_bat(n, domain, args.seed + 1);
    sweep("int keys", &l, &r, &sweep_list, iters);

    let ls = lcg_str_bat(n, domain, args.seed);
    let rs = lcg_str_bat(n, domain, args.seed + 1);
    sweep("string keys", &ls, &rs, &sweep_list, iters);

    println!(
        "shape check: speedup tracks physical cores (≈1x minus partitioning \
         overhead on a single-core container);\nP=1 is one partition: \
         the whole inputs through algebra::hashjoin's core, unscattered."
    );
}
