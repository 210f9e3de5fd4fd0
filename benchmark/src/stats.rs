//! Order statistics and the process/thread accounting read from `/proc`.

use std::fs;

/// Fewest samples that must lie beyond a reported percentile
/// (choosing-metrics §1); a tail with fewer is an anecdote, not a number.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0..=1) of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(((q * n as f64).ceil() as usize).max(1))
}

/// Is percentile `q` of an `n`-sample distribution reportable?
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sort a latency sample ascending, in place.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Linux reports CPU times in `/proc/<pid>/stat` in clock ticks;
/// `USER_HZ` is 100 on every mainstream kernel configuration.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed by the whole process so far.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields resume after the `)`.
    let rest = stat.rsplit_once(')').expect("stat has a comm field").1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After `)`: state is field 0, utime is field 11, stime field 12.
    let ticks = |i: usize| fields[i].parse::<f64>().expect("cpu ticks");
    (ticks(11) + ticks(12)) / CLK_TCK
}

/// On-CPU seconds of the *calling thread* (nanosecond resolution).
pub fn thread_cpu_s() -> f64 {
    let s = fs::read_to_string("/proc/thread-self/schedstat").expect("read schedstat");
    let ns: f64 = s.split_whitespace().next().expect("on-cpu field").parse().expect("ns");
    ns / 1e9
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
    let kb: f64 = line.split_whitespace().nth(1).expect("VmHWM value").parse().expect("kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 200 samples leave exactly 10 beyond p95; 199 leave 9.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(tail_supported(200, 0.95));
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert!(!tail_supported(199, 0.95));
        // p99 needs a thousand.
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(!tail_supported(0, 0.95));
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn proc_readers_return_positive_numbers() {
        assert!(process_cpu_s() >= 0.0);
        assert!(thread_cpu_s() > 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
