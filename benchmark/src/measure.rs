//! Turning the writer's phase logs and the reader's arrival stamps into
//! the named metrics.

use crate::stats;
use crate::wire::{PhaseLog, ReaderLog};
use crate::workloads::{Workload, LATENCY_LIMIT_MS};

/// Windows a phase expected and how many of them arrived.
pub struct WindowCount {
    /// First wire window the phase's rows complete.
    pub first: u64,
    /// One past the last.
    pub end: u64,
    pub received: u64,
}

impl WindowCount {
    pub fn of(w: &Workload, phase: &PhaseLog, reader: &ReaderLog) -> WindowCount {
        let first = w.windows_after(phase.rows_from);
        let end = w.windows_after(phase.rows_to);
        let received = (reader.arrivals.len() as u64).clamp(first, end) - first;
        WindowCount { first, end, received }
    }

    pub fn expected(&self) -> u64 {
        self.end - self.first
    }

    pub fn missing(&self) -> u64 {
        self.expected() - self.received
    }
}

/// The closed-loop phase, end to end.
pub struct Saturate {
    pub windows: WindowCount,
    /// Input rows (all streams) whose windows were all received.
    pub rows: u64,
    /// First byte written to last expected line read, seconds.
    pub wall_s: f64,
    pub rows_per_s: f64,
    pub cpu_s_per_mrow: f64,
}

pub fn saturate(w: &Workload, phase: &PhaseLog, reader: &ReaderLog) -> Saturate {
    let windows = WindowCount::of(w, phase, reader);
    let rows = windows.received * (w.slide * w.streams.len()) as u64;
    let last = match windows.received {
        0 => phase.end_ns,
        n => reader.arrivals[(windows.first + n - 1) as usize],
    };
    let wall_s = (last.saturating_sub(phase.start_ns)).max(1) as f64 / 1e9;
    Saturate {
        rows_per_s: rows as f64 / wall_s,
        cpu_s_per_mrow: phase.process_cpu_s / (rows.max(1) as f64 / 1e6),
        windows,
        rows,
        wall_s,
    }
}

/// The open-loop phase: per-window latency from the due time of the
/// window's closing row to the arrival of its last result line.
pub struct Paced {
    pub windows: WindowCount,
    /// In window order.
    pub latency_ms: Vec<f64>,
    /// Windows the server held longer than [`LATENCY_LIMIT_MS`], counted
    /// from when their closing batch actually left: a stall of the
    /// generator itself (a descheduled writer thread, seen at 20 to 600 ms
    /// on a shared two-core box) shows in `latency_ms` and in
    /// `gen_late_ms`, but is not a window the server failed.
    pub late: u64,
    /// How late each batch left, ascending.
    pub gen_late_ms: Vec<f64>,
}

pub fn paced(w: &Workload, phase: &PhaseLog, reader: &ReaderLog) -> Paced {
    let windows = WindowCount::of(w, phase, reader);
    let schedule = phase.schedule.expect("a paced phase has a schedule");
    let ms_since = |from_ns: u64, j: u64| {
        reader.arrivals[j as usize].saturating_sub(phase.start_ns + from_ns) as f64 / 1e6
    };
    let mut late = 0;
    let latency_ms: Vec<f64> = (windows.first..windows.first + windows.received)
        .map(|j| {
            let batch = schedule.batch_of_row(w.closing_rows(j) - phase.rows_from);
            late += u64::from(ms_since(phase.batch_sent_ns[batch as usize], j) > LATENCY_LIMIT_MS);
            ms_since(schedule.due_ns(batch), j)
        })
        .collect();
    let mut gen_late_ms: Vec<f64> = phase
        .batch_sent_ns
        .iter()
        .enumerate()
        .map(|(k, &sent)| sent.saturating_sub(schedule.due_ns(k as u64)) as f64 / 1e6)
        .collect();
    stats::sort(&mut gen_late_ms);
    Paced { windows, latency_ms, late, gen_late_ms }
}

/// Fewest samples a segment needs for its p95 to have
/// [`stats::MIN_TAIL_SAMPLES`] beyond it.
const SEGMENT_MIN_SAMPLES: usize = 200;
const MAX_SEGMENTS: usize = 12;

impl Paced {
    /// Consecutive, equally long stretches of the phase the gated
    /// percentiles are taken over.
    pub fn segments(&self) -> usize {
        (self.latency_ms.len() / SEGMENT_MIN_SAMPLES).clamp(1, MAX_SEGMENTS)
    }

    /// The gated latency: percentile `q` of each segment, then the median
    /// over the segments. A shared box slows everything down for a second
    /// or two every so often; taken over the whole phase, p95 moved by a
    /// quarter from run to run on such episodes alone, while the median
    /// segment only moves when most of the phase does.
    pub fn latency(&self, q: f64) -> f64 {
        let per_segment = self.latency_ms.len() / self.segments();
        let percentiles: Vec<f64> = self
            .latency_ms
            .chunks_exact(per_segment)
            .map(|segment| {
                let mut sorted = segment.to_vec();
                stats::sort(&mut sorted);
                stats::percentile(&sorted, q)
            })
            .collect();
        stats::median(&percentiles)
    }

    /// Percentile `q` over the whole phase: the ungated tail.
    pub fn overall(&self, q: f64) -> f64 {
        let mut sorted = self.latency_ms.clone();
        stats::sort(&mut sorted);
        stats::percentile(&sorted, q)
    }
}

/// Median write-to-window latency of the idle-floor probes, ms.
pub fn idle_floor_ms(phase: &PhaseLog, reader: &ReaderLog) -> f64 {
    let ms: Vec<f64> = phase
        .probes
        .iter()
        .filter_map(|&(window, sent_ns)| {
            reader.arrivals.get(window as usize).map(|&a| a.saturating_sub(sent_ns) as f64 / 1e6)
        })
        .collect();
    stats::median(&ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paced(latency_ms: Vec<f64>) -> Paced {
        let windows = WindowCount {
            first: 0,
            end: latency_ms.len() as u64,
            received: latency_ms.len() as u64,
        };
        Paced { windows, latency_ms, late: 0, gen_late_ms: Vec::new() }
    }

    #[test]
    fn gated_latency_is_the_median_segment() {
        // Three segments of 200; the middle one is a slow episode.
        let mut ms: Vec<f64> = (0..600).map(|i| 1.0 + f64::from(i % 200) / 200.0).collect();
        for v in &mut ms[200..400] {
            *v += 10.0;
        }
        let p = paced(ms);
        assert_eq!(p.segments(), 3);
        assert_eq!(p.latency(0.5), 1.0 + 99.0 / 200.0);
        assert_eq!(p.latency(0.95), 1.0 + 189.0 / 200.0);
        // The whole-phase tail still sees the episode.
        assert!(p.overall(0.95) > 11.0);
        // Too few samples for two segments: one segment, the plain percentile.
        let short = paced((0..399).map(f64::from).collect());
        assert_eq!(short.segments(), 1);
        assert_eq!(short.latency(0.5), short.overall(0.5));
    }
}
