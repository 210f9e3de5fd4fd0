//! Per-slide timing metrics.
//!
//! The paper's Fig. 7 breaks the incremental cost into the "main plan"
//! component (the original plan's operators running on new data) and the
//! "merge" component (the extra operators incremental processing adds:
//! concatenation, compensation, transitions). Factories record both per
//! slide so the harness can regenerate that breakdown.

use std::time::Duration;

/// Timings and output size of one window slide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlideMetrics {
    /// 0-based index of the produced window result.
    pub window_index: usize,
    /// Total time for the slide.
    pub total: Duration,
    /// Time in the original plan's operators (per-basic-window / per-slot
    /// evaluation; for re-evaluation: the whole-window execution).
    pub main_plan: Duration,
    /// Time in merge machinery (concat, compensation, transitions).
    pub merge: Duration,
    /// Result rows emitted.
    pub rows: usize,
}

impl SlideMetrics {
    /// Sum two metric records (aggregating steps).
    pub fn accumulate(&mut self, other: &SlideMetrics) {
        self.total += other.total;
        self.main_plan += other.main_plan;
        self.merge += other.merge;
        self.rows += other.rows;
    }
}

/// Summary over a run of slides.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetricsSummary {
    /// Number of slides.
    pub slides: usize,
    /// Total result rows emitted across all slides.
    pub rows: usize,
    /// Total wall time.
    pub total: Duration,
    /// Total main-plan time.
    pub main_plan: Duration,
    /// Total merge time.
    pub merge: Duration,
    /// Mean per-slide total; `None` for an empty run, so a summary of
    /// zero slides is distinguishable from a run of sub-resolution
    /// slides whose mean genuinely rounds to zero.
    pub mean_total: Option<Duration>,
    /// Merge time as a share of total time (the paper's Fig. 7 split),
    /// in `[0, 1]`. Defined as 0.0 when total time is zero (no slides,
    /// or all below clock resolution) — there is no merge cost to
    /// attribute in either case.
    pub merge_share: f64,
}

/// Summarize a slice of per-slide metrics. An empty slice yields the
/// zero summary with `mean_total == None` (see [`MetricsSummary`] field
/// docs for the empty/zero conventions).
pub fn summarize(metrics: &[SlideMetrics]) -> MetricsSummary {
    let mut s = MetricsSummary { slides: metrics.len(), ..Default::default() };
    for m in metrics {
        s.rows += m.rows;
        s.total += m.total;
        s.main_plan += m.main_plan;
        s.merge += m.merge;
    }
    if s.slides > 0 {
        s.mean_total = Some(s.total / s.slides as u32);
    }
    if !s.total.is_zero() {
        s.merge_share = s.merge.as_secs_f64() / s.total.as_secs_f64();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_sums_fields() {
        let mut a = SlideMetrics {
            window_index: 0,
            total: Duration::from_millis(10),
            main_plan: Duration::from_millis(7),
            merge: Duration::from_millis(3),
            rows: 5,
        };
        let b = SlideMetrics {
            window_index: 1,
            total: Duration::from_millis(20),
            main_plan: Duration::from_millis(12),
            merge: Duration::from_millis(8),
            rows: 1,
        };
        a.accumulate(&b);
        assert_eq!(a.total, Duration::from_millis(30));
        assert_eq!(a.main_plan, Duration::from_millis(19));
        assert_eq!(a.merge, Duration::from_millis(11));
        assert_eq!(a.rows, 6);
    }

    #[test]
    fn summarize_means() {
        let ms = vec![
            SlideMetrics {
                total: Duration::from_millis(10),
                merge: Duration::from_millis(4),
                rows: 3,
                ..Default::default()
            },
            SlideMetrics {
                total: Duration::from_millis(30),
                merge: Duration::from_millis(6),
                rows: 7,
                ..Default::default()
            },
        ];
        let s = summarize(&ms);
        assert_eq!(s.slides, 2);
        assert_eq!(s.rows, 10);
        assert_eq!(s.total, Duration::from_millis(40));
        assert_eq!(s.mean_total, Some(Duration::from_millis(20)));
        assert!((s.merge_share - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summarize_empty() {
        // The empty run is unambiguous: no mean at all (not a zero mean)
        // and a merge share pinned at 0.0.
        let s = summarize(&[]);
        assert_eq!(s.slides, 0);
        assert_eq!(s.rows, 0);
        assert_eq!(s.mean_total, None);
        assert_eq!(s.merge_share, 0.0);
    }

    #[test]
    fn summarize_zero_duration_slides_keep_mean_some() {
        // Slides whose timings all round to zero still have a (zero)
        // mean — only the *empty* run reports None.
        let ms = vec![SlideMetrics { rows: 1, ..Default::default() }; 3];
        let s = summarize(&ms);
        assert_eq!(s.slides, 3);
        assert_eq!(s.mean_total, Some(Duration::ZERO));
        assert_eq!(s.merge_share, 0.0);
    }
}
