//! Minimal command-line argument handling shared by the figure harnesses.
//!
//! Every harness accepts:
//!
//! * `--scale f`  — multiply all data sizes by `f` (default keeps runs in
//!   seconds; the paper's exact sizes are minutes-per-point);
//! * `--paper`    — shorthand for the paper's full sizes (`--scale 1` on
//!   the paper's parameters; default harness parameters are pre-reduced);
//! * `--windows n` — override the number of measured windows;
//! * `--seed n`   — RNG seed;
//! * `--fire-cost-us n` — simulated per-fire blocking latency in µs
//!   (`scheduler_scale` only: models receptor/emitter hops so scheduler
//!   overlap is measurable even on a single core);
//! * `--partitions n` — pin the kernel partition fan-out (`join_scale`
//!   only: measure a single `P` instead of sweeping the default list);
//! * `--sliding` — `join_scale` only: sweep the sliding-window join strip
//!   over the basic-window count instead of the one-shot join over `P`;
//! * `--shards n` — pin the basket shard count (`ingest_scale` only:
//!   measure a single shard count instead of sweeping the default list);
//! * `--placement m` — pin the morsel placement mode (`aligned` or
//!   `roundrobin`; `agg_scale`/`ingest_scale`: measure one mode instead
//!   of sweeping both).

use datacell_core::parse_count;
use datacell_kernel::PlacementMode;

/// Parsed harness arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Size multiplier applied to the harness's default workload.
    pub scale: f64,
    /// Use the paper's full parameters.
    pub paper: bool,
    /// Override for the measured window count.
    pub windows: Option<usize>,
    /// RNG seed.
    pub seed: u64,
    /// Override for the simulated per-fire latency (µs).
    pub fire_cost_us: Option<u64>,
    /// Override for the kernel partition fan-out.
    pub partitions: Option<usize>,
    /// Measure the sliding-window join strip (`join_scale`).
    pub sliding: bool,
    /// Override for the basket shard count.
    pub shards: Option<usize>,
    /// Override for the morsel placement mode.
    pub placement: Option<PlacementMode>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 1.0,
            paper: false,
            windows: None,
            seed: 42,
            fire_cost_us: None,
            partitions: None,
            sliding: false,
            shards: None,
            placement: None,
        }
    }
}

impl Args {
    /// Parse from `std::env::args()` (skipping the binary name). Unknown
    /// flags abort with a usage message — harnesses have no other inputs.
    pub fn parse() -> Args {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from(mut it: impl Iterator<Item = String>) -> Args {
        let mut args = Args::default();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--scale" => {
                    args.scale = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scale needs a number"));
                }
                "--paper" => args.paper = true,
                "--windows" => {
                    args.windows = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--windows needs a count")),
                    );
                }
                "--seed" => {
                    args.seed = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a number"));
                }
                "--fire-cost-us" => {
                    args.fire_cost_us = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage("--fire-cost-us needs microseconds")),
                    );
                }
                "--partitions" => {
                    // The parser DATACELL_PARTITIONS goes through: zero is
                    // rejected, the minimum fan-out is 1.
                    args.partitions = Some(
                        parse_count(it.next().as_deref())
                            .unwrap_or_else(|| usage("--partitions needs a positive count")),
                    );
                }
                "--sliding" => args.sliding = true,
                "--shards" => {
                    // As DATACELL_BASKET_SHARDS: minimum shard count is 1.
                    args.shards = Some(
                        parse_count(it.next().as_deref())
                            .unwrap_or_else(|| usage("--shards needs a positive count")),
                    );
                }
                "--placement" => {
                    args.placement = Some(
                        parse_placement(it.next().as_deref())
                            .unwrap_or_else(|| usage("--placement needs aligned or roundrobin")),
                    );
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }

    /// Scale a size, keeping it at least `min`.
    pub fn sized(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(min)
    }
}

/// Parse a placement name: `aligned` or `roundrobin` (also
/// `round-robin`/`rr`), case-insensitively. `None` for unset, empty or
/// unrecognized values.
fn parse_placement(raw: Option<&str>) -> Option<PlacementMode> {
    match raw?.trim().to_ascii_lowercase().as_str() {
        "aligned" => Some(PlacementMode::Aligned),
        "roundrobin" | "round-robin" | "rr" => Some(PlacementMode::RoundRobin),
        _ => None,
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: fig* [--scale f] [--paper] [--windows n] [--seed n] [--fire-cost-us n] \
         [--partitions n] [--sliding] [--shards n] [--placement aligned|roundrobin]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Args {
        Args::parse_from(v.iter().map(std::string::ToString::to_string))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.scale, 1.0);
        assert!(!a.paper);
        assert_eq!(a.windows, None);
        assert_eq!(a.seed, 42);
    }

    #[test]
    fn flags_parse() {
        let a = parse(&[
            "--scale",
            "0.5",
            "--paper",
            "--windows",
            "7",
            "--seed",
            "9",
            "--fire-cost-us",
            "150",
            "--partitions",
            "4",
            "--shards",
            "8",
            "--placement",
            "aligned",
        ]);
        assert_eq!(a.scale, 0.5);
        assert!(a.paper);
        assert_eq!(a.windows, Some(7));
        assert_eq!(a.seed, 9);
        assert_eq!(a.fire_cost_us, Some(150));
        assert_eq!(a.partitions, Some(4));
        assert_eq!(a.shards, Some(8));
        assert_eq!(a.placement, Some(PlacementMode::Aligned));
    }

    #[test]
    fn placement_accepts_both_spellings() {
        assert_eq!(parse(&["--placement", "rr"]).placement, Some(PlacementMode::RoundRobin));
        assert_eq!(
            parse(&["--placement", "round-robin"]).placement,
            Some(PlacementMode::RoundRobin)
        );
        assert_eq!(parse(&[]).placement, None);
    }

    #[test]
    fn parse_placement_accepts_both_modes() {
        assert_eq!(parse_placement(None), None);
        assert_eq!(parse_placement(Some("")), None);
        assert_eq!(parse_placement(Some("diagonal")), None);
        assert_eq!(parse_placement(Some("aligned")), Some(PlacementMode::Aligned));
        assert_eq!(parse_placement(Some(" Aligned ")), Some(PlacementMode::Aligned));
        assert_eq!(parse_placement(Some("roundrobin")), Some(PlacementMode::RoundRobin));
        assert_eq!(parse_placement(Some("round-robin")), Some(PlacementMode::RoundRobin));
        assert_eq!(parse_placement(Some("rr")), Some(PlacementMode::RoundRobin));
    }

    #[test]
    fn sized_scales_with_floor() {
        let a = parse(&["--scale", "0.01"]);
        assert_eq!(a.sized(1000, 64), 64);
        assert_eq!(a.sized(100_000, 64), 1000);
    }
}
