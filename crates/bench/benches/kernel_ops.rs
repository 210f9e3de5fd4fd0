//! Microbenchmarks of the column-store kernel's bulk operators — the
//! substrate costs underlying every figure (ablation: how much of a slide
//! is pure kernel work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datacell_bench::{lcg_int_bat as make_int_bat, lcg_str_bat as make_str_bat};
use datacell_kernel::algebra::{self, Predicate};
use datacell_kernel::par::{self, ParConfig};
use datacell_kernel::Bat;
use std::hint::black_box;

fn bench_select(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_select");
    for n in [10_000usize, 100_000, 1_000_000] {
        let b = make_int_bat(n, 100, 42);
        let pred = Predicate::gt(79); // 20% selectivity
        g.bench_with_input(BenchmarkId::from_parameter(n), &b, |bench, bat| {
            bench.iter(|| algebra::select(black_box(bat), black_box(&pred)).unwrap());
        });
    }
    g.finish();
}

fn bench_fetch(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_fetch");
    for n in [10_000usize, 100_000, 1_000_000] {
        let b = make_int_bat(n, 100, 42);
        let cands = algebra::select(&b, &Predicate::gt(79)).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &(cands, b), |bench, (c, b)| {
            bench.iter(|| algebra::fetch(black_box(c), black_box(b)).unwrap());
        });
    }
    g.finish();
}

fn bench_hashjoin(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_hashjoin");
    g.sample_size(20);
    for n in [10_000usize, 100_000] {
        let l = make_int_bat(n, 10_000, 1);
        let r = make_int_bat(n, 10_000, 2);
        // Input rows per iteration: both sides are consumed once.
        g.throughput(Throughput::Elements(2 * n as u64));
        g.bench_with_input(BenchmarkId::new("int", n), &(l, r), |bench, (l, r)| {
            bench.iter(|| algebra::hashjoin(black_box(l), black_box(r)).unwrap());
        });
        let l = make_str_bat(n, 10_000, 1);
        let r = make_str_bat(n, 10_000, 2);
        g.bench_with_input(BenchmarkId::new("str", n), &(l, r), |bench, (l, r)| {
            bench.iter(|| algebra::hashjoin(black_box(l), black_box(r)).unwrap());
        });
    }
    g.finish();
}

fn bench_hashjoin_partitioned(c: &mut Criterion) {
    // Regression-tracks the `kernel::par` radix join against the
    // sequential baseline (P=1 is one partition, unscattered). On a single-core
    // container the interesting number is the partitioning overhead; on
    // multi-core hardware this group should scale with physical cores —
    // the `join_scale` binary prints the full speedup table.
    let mut g = c.benchmark_group("kernel_hashjoin_par_100k");
    g.sample_size(20);
    let n = 100_000;
    let l = make_int_bat(n, 10_000, 1);
    let r = make_int_bat(n, 10_000, 2);
    g.throughput(Throughput::Elements(2 * n as u64));
    for p in [1usize, 2, 4] {
        let cfg = ParConfig::new(p);
        g.bench_with_input(BenchmarkId::new("partitions", p), &(&l, &r), |bench, (l, r)| {
            bench.iter(|| par::hashjoin(black_box(l), black_box(r), &cfg).unwrap());
        });
    }
    g.finish();
}

fn bench_group_aggregate(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_group_sum");
    for n in [10_000usize, 100_000, 1_000_000] {
        let keys = make_int_bat(n, 100, 3);
        let vals = make_int_bat(n, 1000, 4);
        g.bench_with_input(BenchmarkId::from_parameter(n), &(keys, vals), |bench, (k, v)| {
            bench.iter(|| {
                let groups = algebra::group(black_box(k)).unwrap();
                algebra::sum_grouped(black_box(v), &groups).unwrap()
            });
        });
    }
    g.finish();
}

fn bench_concat(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_concat_512_parts");
    for part in [128usize, 2_048] {
        let parts: Vec<Bat> = (0..512).map(|i| make_int_bat(part, 100, i as u64)).collect();
        let refs: Vec<&Bat> = parts.iter().collect();
        g.bench_with_input(BenchmarkId::from_parameter(part), &refs, |bench, refs| {
            bench.iter(|| algebra::concat(black_box(refs)).unwrap());
        });
    }
    g.finish();
}

fn bench_sort_distinct(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_sort_distinct");
    let b = make_int_bat(100_000, 1_000, 5);
    g.bench_function("sort_100k", |bench| bench.iter(|| algebra::sort(black_box(&b)).unwrap()));
    g.bench_function("distinct_100k", |bench| {
        bench.iter(|| algebra::distinct(black_box(&b)).unwrap());
    });
    g.finish();
}

criterion_group!(
    kernel,
    bench_select,
    bench_fetch,
    bench_hashjoin,
    bench_hashjoin_partitioned,
    bench_group_aggregate,
    bench_concat,
    bench_sort_distinct,
);
criterion_main!(kernel);
