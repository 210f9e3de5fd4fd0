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
//! `--sliding` measures the other way the join table is used: the
//! incremental factory's strip. A window of `n` basic windows per stream
//! (512 rows each) slides by one; the strip — expire, push, probe the new
//! left keys against the right stream's `JoinIndex` and the new right
//! keys against the left's — is timed next to the same new row and column
//! joined cell by cell through `algebra::hashjoin`, for n ∈ {4, 16, 64,
//! 256}, as wirebench-style `name value unit` lines. The strip's probe
//! rows do not depend on `n`, so its time follows the pairs it emits:
//! with 4096 keys those grow with `n`, with one key per window row they
//! do not and the strip is nearly flat. The cells are linear in `n` either
//! way.
//!
//! Flags: `--scale f` resizes the inputs, `--partitions n` measures one
//! fan-out instead of the default sweep, `--windows n` overrides the
//! iteration count, `--seed n` the data seed.

use datacell_bench::{lcg_int_bat, lcg_str_bat, print_table, Args};
use datacell_kernel::algebra::{self, JoinIndex};
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

/// Median ns/slide of the join strip and of the same cells joined one by
/// one, and the median pairs per slide, over `slides` slides of a window
/// of `n` basic windows. Basic window `t` of a stream is `bats[t]`, so the
/// window after slide `t` is `bats[t + 1..=t + n]`. The two ways run as
/// separate passes: run alternately, each evicts the other's tables.
fn sliding_point(n: usize, step: usize, keys: i64, slides: usize, seed: u64) -> (f64, f64, f64) {
    let stream = |salt: u64| -> Vec<Bat> {
        (0..n + slides).map(|t| lcg_int_bat(step, keys, seed + 2 * t as u64 + salt)).collect()
    };
    let (lefts, rights) = (stream(0), stream(1));
    fn refs(bats: &[Bat]) -> Vec<&Bat> {
        bats.iter().collect()
    }
    let pairs_of = |cells: &[(Bat, Bat)]| cells.iter().map(|(lo, _)| lo.len()).sum::<usize>();

    let mut indexes = [&lefts, &rights].map(|bats| {
        let mut index = JoinIndex::with_capacity(n * step);
        bats[..n].iter().for_each(|bat| index.push(bat).unwrap());
        index
    });
    let (mut strip_ns, mut cells_ns, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
    for t in 0..slides {
        let (new_left, new_right) = (&lefts[t + n], &rights[t + n]);
        let start = Instant::now();
        let [left, right] = &mut indexes;
        left.expire();
        right.expire();
        right.push(new_right).unwrap();
        let row = right.probe(&refs(&rights[t + 1..=t + n]), new_left).unwrap();
        let col = left.probe(&refs(&lefts[t + 1..t + n]), new_right).unwrap();
        left.push(new_left).unwrap();
        strip_ns.push(start.elapsed().as_nanos() as f64);
        pairs.push(pairs_of(&row) + pairs_of(&col));
    }
    for (t, &strip_pairs) in pairs.iter().enumerate() {
        let (new_left, new_right) = (&lefts[t + n], &rights[t + n]);
        let start = Instant::now();
        let row = rights[t + 1..=t + n].iter().map(|r| algebra::hashjoin(new_left, r).unwrap());
        let col = lefts[t + 1..t + n].iter().map(|l| algebra::hashjoin(l, new_right).unwrap());
        let cells: Vec<(Bat, Bat)> = row.chain(col).collect();
        cells_ns.push(start.elapsed().as_nanos() as f64);
        assert_eq!(pairs_of(&cells), strip_pairs, "strip and cells disagree at n = {n}");
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let pairs = pairs.into_iter().map(|p| p as f64).collect();
    (median(strip_ns), median(cells_ns), median(pairs))
}

fn sliding_sweep(args: &Args) {
    const STEP: usize = 512;
    let slides = args.windows.unwrap_or(200).max(1);
    println!("sliding join: step {STEP} rows, median of {slides} slides per point");
    // Wirebench's key domain, where a longer window holds more duplicates
    // of every key and the pairs per slide grow with n; then one key per
    // window row, where they do not.
    for label in ["k4096", "kwindow"] {
        for n in [4usize, 16, 64, 256] {
            let keys = if label == "k4096" { 4096 } else { (n * STEP) as i64 };
            let (strip, cells, pairs) = sliding_point(n, STEP, keys, slides, args.seed);
            println!("  {:<30} {strip:>18.0} ns/slide", format!("join.{label}.strip_n{n}"));
            println!("  {:<30} {cells:>18.0} ns/slide", format!("join.{label}.cells_n{n}"));
            println!("  {:<30} {pairs:>18.0} pairs/slide", format!("join.{label}.pairs_n{n}"));
        }
    }
    println!(
        "shape check: the strip probes 2 x {STEP} rows whatever n is, so its time follows the \
         pairs it emits (nearly flat in n under kwindow);\nthe cells probe (2n - 1) x {STEP} rows \
         (linear in n under both)."
    );
}

fn main() {
    let args = Args::parse();
    if args.sliding {
        return sliding_sweep(&args);
    }
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
