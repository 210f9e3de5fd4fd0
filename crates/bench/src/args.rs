//! Minimal command-line argument handling shared by the harnesses.
//!
//! Every harness accepts:
//!
//! * `--scale f`  — multiply all data sizes by `f` (default keeps runs in
//!   seconds; the paper's exact sizes are minutes-per-point);
//! * `--paper`    — shorthand for the paper's full sizes (`--scale 1` on
//!   the paper's parameters; default harness parameters are pre-reduced;
//!   the `fig*` bins only);
//! * `--windows n` — override the number of measured windows;
//! * `--seed n`   — RNG seed.

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
}

impl Default for Args {
    fn default() -> Self {
        Args { scale: 1.0, paper: false, windows: None, seed: 42 }
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

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: fig* [--scale f] [--paper] [--windows n] [--seed n]");
    eprintln!("       scale [sweep ...] [--scale f] [--windows n] [--seed n]");
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
        let a = parse(&["--scale", "0.5", "--paper", "--windows", "7", "--seed", "9"]);
        assert_eq!(a.scale, 0.5);
        assert!(a.paper);
        assert_eq!(a.windows, Some(7));
        assert_eq!(a.seed, 9);
    }

    #[test]
    fn sized_scales_with_floor() {
        let a = parse(&["--scale", "0.01"]);
        assert_eq!(a.sized(1000, 64), 64);
        assert_eq!(a.sized(100_000, 64), 1000);
    }
}
