//! The engine's configuration, read from the environment in one place.

/// The three settings an [`crate::Engine`] is built with, fixed for the
/// engine's lifetime: `Engine::with_config` reads them once and nothing
/// changes them afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Scheduler workers (`DATACELL_WORKERS`): 1 fires factories on the
    /// thread that calls `run_until_idle`.
    pub workers: usize,
    /// Kernel partition fan-out (`DATACELL_PARTITIONS`): 1 runs every
    /// operator as one morsel on the firing thread.
    pub partitions: usize,
    /// Run the typed plan analyzer at registration. Seeded from
    /// `datacell_plan::verify::enabled()` (`DATACELL_VERIFY` or a debug
    /// build), which the plan crate's own passes read below this crate.
    pub verify: bool,
}

impl Default for EngineConfig {
    /// One worker, one partition.
    fn default() -> EngineConfig {
        EngineConfig { workers: 1, partitions: 1, verify: datacell_plan::verify::enabled() }
    }
}

impl EngineConfig {
    /// The defaults, overridden by `DATACELL_WORKERS` and
    /// `DATACELL_PARTITIONS` where those hold a valid value.
    pub fn from_env() -> EngineConfig {
        use std::env;
        let count = |raw: Result<String, env::VarError>| parse_count(raw.ok().as_deref());
        let d = EngineConfig::default();
        EngineConfig {
            workers: count(env::var("DATACELL_WORKERS")).unwrap_or(d.workers),
            partitions: count(env::var("DATACELL_PARTITIONS")).unwrap_or(d.partitions),
            verify: d.verify,
        }
    }
}

/// Parse a worker or partition count: a positive integer. `None`
/// for unset, empty, non-numeric or zero values.
pub fn parse_count(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_count_accepts_positive_counts() {
        for bad in [None, Some(""), Some("many"), Some("0"), Some("-3")] {
            assert_eq!(parse_count(bad), None, "{bad:?}");
        }
        assert_eq!(parse_count(Some("1")), Some(1));
        assert_eq!(parse_count(Some(" 8\n")), Some(8));
    }
}
