//! Synthetic stream workloads matching the paper's §4 setup.
//!
//! * Q1 streams carry `(x1, x2)` with `x1` uniform in `[0, domain)` so that
//!   the predicate `x1 > threshold` has a controllable selectivity and the
//!   group-by has at most `domain` groups;
//! * Q2 streams carry `(key, val)` with keys uniform in `[0, key_domain)`;
//!   the expected join selectivity between two windows is
//!   `1 / key_domain` (the paper sweeps 10⁻⁵% … 10⁻²%).

use datacell_kernel::{Bat, Column};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Domain of the Q1 grouping attribute (the paper groups on a selective
/// attribute; 100 keeps group counts small and cache-friendly).
pub const Q1_DOMAIN: i64 = 100;

/// Threshold such that `x1 > threshold` over a uniform `[0, Q1_DOMAIN)`
/// attribute passes about `selectivity` of the tuples.
pub fn selectivity_threshold(selectivity: f64) -> i64 {
    let s = selectivity.clamp(0.0, 1.0);
    ((1.0 - s) * Q1_DOMAIN as f64).round() as i64 - 1
}

/// Generate `n` tuples of the Q1 stream: `(x1 uniform [0,100), x2 uniform
/// [0,1000))`, deterministic in `seed`.
pub fn gen_q1_stream(n: usize, seed: u64) -> Vec<Column> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x1 = Vec::with_capacity(n);
    let mut x2 = Vec::with_capacity(n);
    for _ in 0..n {
        x1.push(rng.random_range(0..Q1_DOMAIN));
        x2.push(rng.random_range(0..1000i64));
    }
    vec![Column::Int(x1), Column::Int(x2)]
}

/// Generate `n` tuples of one Q2 stream: `(key uniform [0, key_domain),
/// val uniform [0,1000))`.
pub fn gen_join_stream(n: usize, key_domain: i64, seed: u64) -> Vec<Column> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut key = Vec::with_capacity(n);
    let mut val = Vec::with_capacity(n);
    for _ in 0..n {
        key.push(rng.random_range(0..key_domain.max(1)));
        val.push(rng.random_range(0..1000i64));
    }
    vec![Column::Int(key), Column::Int(val)]
}

/// An `n`-tuple int BAT with keys uniform in `[0, domain)`, deterministic
/// in `seed` via a bare LCG — the kernel-level join/select benchmark
/// input of the `scale` bin's kernel, join and aggregation sweeps
/// (no engine, no streams, so it bypasses the `rand` shim on purpose:
/// the same bytes regenerate regardless of shim evolution).
pub fn lcg_int_bat(n: usize, domain: i64, seed: u64) -> Bat {
    let mut state = seed | 1;
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        vals.push(((state >> 33) as i64).rem_euclid(domain));
    }
    Bat::transient(Column::Int(vals))
}

/// The string-key twin of [`lcg_int_bat`]: the same key sequence rendered
/// as `key-NNNNNN` strings, so int and string joins see identical match
/// structure.
pub fn lcg_str_bat(n: usize, domain: i64, seed: u64) -> Bat {
    let ints = lcg_int_bat(n, domain, seed);
    let vals =
        ints.tail.as_int().expect("int column").iter().map(|k| format!("key-{k:06}")).collect();
    Bat::transient(Column::Str(vals))
}

/// Render a two-column int batch as CSV text (the loading-cost experiment
/// parses this back through the CSV receptor).
pub fn csv_for_stream(batch: &[Column]) -> String {
    let a = batch[0].as_int().expect("int column");
    let b = batch[1].as_int().expect("int column");
    let mut out = String::with_capacity(a.len() * 10);
    for (x, y) in a.iter().zip(b) {
        out.push_str(&format!("{x},{y}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_maps_selectivity() {
        // 20% selectivity -> threshold 79: passes x1 in {80..99} = 20 values.
        assert_eq!(selectivity_threshold(0.2), 79);
        assert_eq!(selectivity_threshold(0.9), 9);
        assert_eq!(selectivity_threshold(1.0), -1); // everything passes
    }

    #[test]
    fn q1_stream_is_deterministic_and_in_domain() {
        let a = gen_q1_stream(1000, 42);
        let b = gen_q1_stream(1000, 42);
        assert_eq!(a, b);
        let c = gen_q1_stream(1000, 43);
        assert_ne!(a, c);
        for &v in a[0].as_int().unwrap() {
            assert!((0..Q1_DOMAIN).contains(&v));
        }
    }

    #[test]
    fn measured_selectivity_close_to_target() {
        let cols = gen_q1_stream(100_000, 7);
        let thr = selectivity_threshold(0.2);
        let passing =
            cols[0].as_int().unwrap().iter().filter(|&&v| v > thr).count() as f64 / 100_000.0;
        assert!((passing - 0.2).abs() < 0.01, "measured {passing}");
    }

    #[test]
    fn join_stream_domain() {
        let cols = gen_join_stream(1000, 10, 1);
        for &k in cols[0].as_int().unwrap() {
            assert!((0..10).contains(&k));
        }
    }

    #[test]
    fn csv_roundtrip_shape() {
        let cols = gen_q1_stream(5, 1);
        let text = csv_for_stream(&cols);
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().all(|l| l.split(',').count() == 2));
    }
}
