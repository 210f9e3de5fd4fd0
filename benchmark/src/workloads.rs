//! The four permanent workloads and their seeded payload rings.
//!
//! Every workload uses count windows, so window contents — and with them
//! the result lines — are periodic once the input is a ring replayed
//! cyclically: a ring of `L` rows with `L % slide == 0` gives a result
//! sequence of period `L / slide` windows.

use datacell_kernel::{Column, DataType};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;

/// A window the server holds longer than this counts as a failed window,
/// like a missing or mismatching one. Two orders of magnitude above the
/// seed commit's p95, because the limit is a backstop for a backlog that
/// grows, not a latency target (p50 and p95 are gated on their own): a
/// shared two-core box stalls the whole process for 50 to 350 ms a few
/// times an hour, and a 50 ms limit failed one seed-commit run in five on
/// host noise alone.
pub const LATENCY_LIMIT_MS: f64 = 500.0;

/// One input stream: its name, its two columns and how a row is drawn.
pub struct StreamSpec {
    pub name: &'static str,
    pub cols: [(&'static str, DataType); 2],
    /// Domain of the first (Int) column: uniform in `[0, key_domain)`.
    pub key_domain: i64,
    /// Domain of the second column: uniform in `[0, val_domain)`; a Float
    /// column carries that draw times 0.5, so sums stay exact in `f64`
    /// whatever order partial sums are merged in.
    pub val_domain: i64,
}

/// One benchmark workload. Names are permanent: later PRs compare against
/// numbers recorded under them.
pub struct Workload {
    pub name: &'static str,
    /// Why it exists — which layer it loads and which it must leave flat.
    pub why: &'static str,
    pub sql: &'static str,
    pub streams: &'static [StreamSpec],
    pub window: usize,
    pub slide: usize,
    /// Ring length in slides (`L = ring_slides * slide` rows per stream).
    pub ring_slides: usize,
    /// Open-loop rate of the `paced` phase, input rows per second summed
    /// over the workload's streams: ≈40 % of the `rows_per_s` the seed
    /// commit sustains in `saturate`, to two significant digits. Fixed, so
    /// that latency is compared at the same offered load on every commit.
    ///
    /// `wide_result_egress` is the exception, at ≈4 %: an open loop has no
    /// in-flight bound, so after a host stall the server reads the whole
    /// backlog in one tick and emits its windows at once, and a burst
    /// above `subscriber_queue` (1 MiB) evicts the subscriber. At 24 result
    /// bytes per input row, 100 k rows/s survives a 430 ms stall; at 40 %
    /// a 45 ms stall, which the shared box produces every few minutes.
    pub paced_rows_per_s: u64,
    /// Rows per stream the closed-loop writer hands the socket per call.
    pub saturate_chunk: usize,
    /// Closed-loop bound: rows per stream written whose windows have not
    /// come back yet. Large enough to keep the server busy across ticks,
    /// small enough that one tick's results fit the subscriber queue.
    pub inflight_rows: usize,
    /// Slides the traced run's in-process replay pushes through, per
    /// second of `--seconds`: a fixed amount of work, so that the layer
    /// seconds of two commits compare directly.
    pub replay_slides_per_run_s: u64,
}

impl Workload {
    /// Rows per stream in the payload ring.
    pub fn ring_rows(&self) -> usize {
        self.ring_slides * self.slide
    }

    /// Windows complete once `rows` rows have reached every stream.
    pub fn windows_after(&self, rows: u64) -> u64 {
        let (w, s) = (self.window as u64, self.slide as u64);
        if rows < w {
            0
        } else {
            (rows - w) / s + 1
        }
    }

    /// Rows per stream that close window `j` (0-based).
    pub fn closing_rows(&self, j: u64) -> u64 {
        self.window as u64 + j * self.slide as u64
    }
}

const XY: [StreamSpec; 1] = [StreamSpec {
    name: "s",
    cols: [("x", DataType::Int), ("y", DataType::Float)],
    key_domain: 7,
    val_domain: 2000,
}];

const Q1: [StreamSpec; 1] = [StreamSpec {
    name: "s",
    cols: [("x1", DataType::Int), ("x2", DataType::Int)],
    key_domain: 16,
    val_domain: 1000,
}];

const JOIN: [StreamSpec; 2] = [
    StreamSpec {
        name: "s1",
        cols: [("k", DataType::Int), ("v", DataType::Int)],
        key_domain: 4096,
        val_domain: 100_000,
    },
    StreamSpec {
        name: "s2",
        cols: [("k", DataType::Int), ("v", DataType::Int)],
        key_domain: 4096,
        val_domain: 100_000,
    },
];

const WIDE: [StreamSpec; 1] = [StreamSpec {
    name: "s",
    cols: [("k", DataType::Int), ("v", DataType::Int)],
    key_domain: 2048,
    val_domain: 1000,
}];

/// The workloads, in reporting order.
pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ingest_scan",
        why: "one result line per 4096 rows: nearly all work is net read/line-split and \
              basket parse/append; kernel, merge and egress are negligible",
        sql: "SELECT sum(y) FROM s WHERE x > 1 WINDOW SIZE 8192 SLIDE 4096",
        streams: &XY,
        window: 8192,
        slide: 4096,
        ring_slides: 64,
        paced_rows_per_s: 2_000_000,
        saturate_chunk: 4096,
        inflight_rows: 65536,
        replay_slides_per_run_s: 100,
    },
    Workload {
        name: "small_slide_groupby",
        why: "the paper's Q1 in the Fig. 7 small-step regime: 64 retained basic windows, \
              thousands of fires per second, so merge and scheduler overhead dominate",
        sql: "SELECT x1, sum(x2) FROM s WHERE x1 > 3 GROUP BY x1 WINDOW SIZE 4096 SLIDE 64",
        streams: &Q1,
        window: 4096,
        slide: 64,
        ring_slides: 1024,
        paced_rows_per_s: 900_000,
        saturate_chunk: 1024,
        inflight_rows: 65536,
        replay_slides_per_run_s: 500,
    },
    Workload {
        name: "join_window",
        why: "the paper's Q2: a two-stream window join over 4096 keys, 63 new basic-window \
              cells per slide, so the main-plan hash join dominates and net/basket do little",
        sql: "SELECT max(s1.v), avg(s2.v) FROM s1, s2 WHERE s1.k = s2.k \
              WINDOW SIZE 16384 SLIDE 512",
        streams: &JOIN,
        window: 16384,
        slide: 512,
        ring_slides: 128,
        paced_rows_per_s: 560_000,
        saturate_chunk: 512,
        inflight_rows: 24576,
        replay_slides_per_run_s: 100,
    },
    Workload {
        name: "wide_result_egress",
        why: "about 1.7k result lines per 1024 input rows over 2048 keys: fan-out, CSV render \
              and socket write, plus high-cardinality regroup merge",
        sql: "SELECT k, sum(v), count(v) FROM s GROUP BY k WINDOW SIZE 4096 SLIDE 1024",
        streams: &WIDE,
        window: 4096,
        slide: 1024,
        ring_slides: 64,
        paced_rows_per_s: 100_000,
        saturate_chunk: 1024,
        inflight_rows: 16384,
        replay_slides_per_run_s: 100,
    },
];

/// Look a workload up by its permanent name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One stream's pre-rendered payload: `rows` CSV lines generated once at
/// set-up and replayed cyclically, so the timed path never formats a row.
pub struct Ring {
    /// The same rows as typed columns (reference pass, kernel probes).
    pub cols: Vec<Column>,
    /// The rows as CSV text, one `\n`-terminated line per row.
    pub csv: Vec<u8>,
    /// Byte offset of each row in `csv`, plus the end (`rows + 1` entries).
    pub row_off: Vec<u32>,
}

impl Ring {
    /// Draw `rows` rows of `spec` from `rng`.
    pub fn generate(spec: &StreamSpec, rows: usize, rng: &mut StdRng) -> Ring {
        let float_vals = spec.cols[1].1 == DataType::Float;
        let mut keys = Vec::with_capacity(rows);
        let mut ints = Vec::new();
        let mut floats = Vec::new();
        let mut csv = String::with_capacity(rows * 12);
        let mut row_off = Vec::with_capacity(rows + 1);
        for _ in 0..rows {
            row_off.push(u32::try_from(csv.len()).expect("ring below 4 GiB"));
            let k = rng.random_range(0..spec.key_domain);
            let v = rng.random_range(0..spec.val_domain);
            keys.push(k);
            if float_vals {
                let f = v as f64 * 0.5;
                floats.push(f);
                writeln!(csv, "{k},{f}").expect("write to string");
            } else {
                ints.push(v);
                writeln!(csv, "{k},{v}").expect("write to string");
            }
        }
        row_off.push(u32::try_from(csv.len()).expect("ring below 4 GiB"));
        let vals = if float_vals { Column::Float(floats) } else { Column::Int(ints) };
        Ring { cols: vec![Column::Int(keys), vals], csv: csv.into_bytes(), row_off }
    }

    /// Rows in the ring.
    pub fn rows(&self) -> usize {
        self.row_off.len() - 1
    }

    /// The CSV bytes of ring rows `[from, to)` (no wrap: `to <= rows`).
    pub fn csv_rows(&self, from: usize, to: usize) -> &[u8] {
        &self.csv[self.row_off[from] as usize..self.row_off[to] as usize]
    }

    /// Typed columns of `n` rows starting at stream position `pos`,
    /// wrapping around the ring.
    pub fn columns_at(&self, pos: u64, n: usize) -> Vec<Column> {
        let len = self.rows();
        let idx = (0..n).map(|i| ((pos + i as u64) % len as u64) as usize);
        self.cols
            .iter()
            .map(|c| match c {
                Column::Int(v) => Column::Int(idx.clone().map(|i| v[i]).collect()),
                Column::Float(v) => Column::Float(idx.clone().map(|i| v[i]).collect()),
                _ => unreachable!("rings hold Int and Float columns only"),
            })
            .collect()
    }
}

/// The rings of every stream of `w`, drawn from `seed`.
pub fn rings(w: &Workload, seed: u64) -> Vec<Ring> {
    let mut rng = StdRng::seed_from_u64(seed);
    w.streams.iter().map(|s| Ring::generate(s, w.ring_rows(), &mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rings_are_whole_slides_and_cover_a_window() {
        for w in &WORKLOADS {
            assert_eq!(w.ring_rows() % w.slide, 0, "{}: L % slide", w.name);
            assert_eq!(w.window % w.slide, 0, "{}: W % slide", w.name);
            assert!(w.ring_rows() >= w.window, "{}: ring shorter than a window", w.name);
            assert_eq!(w.saturate_chunk % w.slide, 0, "{}: chunk % slide", w.name);
            assert_eq!(w.ring_rows() % w.saturate_chunk, 0, "{}: L % chunk", w.name);
            // No window comes back before the first one is full.
            assert!(w.inflight_rows >= w.window + w.saturate_chunk, "{}: in-flight bound", w.name);
        }
    }

    #[test]
    fn same_seed_same_ring_other_seed_other_ring() {
        let w = find("join_window").unwrap();
        let (a, b, c) = (rings(w, 7), rings(w, 7), rings(w, 8));
        assert_eq!(a[0].csv, b[0].csv);
        assert_eq!(a[1].csv, b[1].csv);
        assert_ne!(a[0].csv, c[0].csv);
        assert_ne!(a[0].csv, a[1].csv, "the two join streams must differ");
    }

    #[test]
    fn csv_and_columns_describe_the_same_rows() {
        let w = find("ingest_scan").unwrap();
        let r = &rings(w, 3)[0];
        assert_eq!(r.rows(), w.ring_rows());
        let text = std::str::from_utf8(r.csv_rows(5, 7)).unwrap();
        let cols = r.columns_at(5, 2);
        let (Column::Int(x), Column::Float(y)) = (&cols[0], &cols[1]) else { panic!("types") };
        assert_eq!(text, format!("{},{}\n{},{}\n", x[0], y[0], x[1], y[1]));
        // Wrap-around: position L is row 0 again.
        assert_eq!(r.columns_at(r.rows() as u64, 1), r.columns_at(0, 1));
    }

    #[test]
    fn window_arithmetic() {
        let w = find("small_slide_groupby").unwrap();
        assert_eq!(w.windows_after(4095), 0);
        assert_eq!(w.windows_after(4096), 1);
        assert_eq!(w.windows_after(4096 + 63), 1);
        assert_eq!(w.windows_after(4096 + 64), 2);
        assert_eq!(w.closing_rows(0), 4096);
        assert_eq!(w.windows_after(w.closing_rows(41)), 42);
    }
}
