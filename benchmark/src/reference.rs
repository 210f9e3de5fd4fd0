//! The periodic reference: what every result line on the wire must be.
//!
//! One in-process [`Engine`] pass over `L + W` ring rows yields `L/slide + 1`
//! windows; the last one covers the same rows as window 0 (the ring has
//! wrapped), which proves the period before any socket is opened. Window
//! `j` on the wire must then equal reference window `j % period`, byte
//! for byte.

use crate::workloads::{Ring, Workload};
use datacell_core::{Engine, QueryId, ResultSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A fresh engine, as shipped, with the workload's streams and query.
/// Returns the engine, the query and how long `register_sql` took.
pub fn build_engine(w: &Workload) -> (Engine, QueryId, Duration) {
    let mut engine = Engine::new();
    for s in w.streams {
        engine.create_stream(s.name, &s.cols).expect("create stream");
    }
    let t = Instant::now();
    let q = engine.register_sql(w.sql).expect("register query");
    (engine, q, t.elapsed())
}

/// Render one window's result the way the server does: one CSV line per
/// row, values in `Value` display form.
pub fn render(rs: &ResultSet, out: &mut String) {
    for i in 0..rs.len() {
        for (j, col) in rs.columns().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let v = col.get(i).expect("row within column");
            write!(out, "{v}").expect("write to string");
        }
        out.push('\n');
    }
}

/// The expected result lines of one period of windows.
pub struct Reference {
    /// Result lines of windows `0..period`, concatenated.
    pub bytes: Vec<u8>,
    /// End offset in `bytes` of each window (`period` entries).
    pub win_end: Vec<usize>,
    /// Result lines per window.
    pub win_lines: Vec<u32>,
}

impl Reference {
    /// Run the reference pass. Panics if the ring does not make the
    /// results periodic or a window renders no line (an empty window is
    /// invisible on the wire, so its arrival could not be stamped).
    pub fn compute(w: &Workload, rings: &[Ring]) -> Reference {
        let (mut engine, q, _) = build_engine(w);
        let period = w.ring_slides;
        let total = w.ring_rows() + w.window;
        let mut windows: Vec<String> = Vec::with_capacity(period + 1);
        let mut pos = 0;
        while pos < total {
            for (s, ring) in w.streams.iter().zip(rings) {
                engine.append(s.name, &ring.columns_at(pos as u64, w.slide)).expect("append");
            }
            pos += w.slide;
            engine.run_until_idle().expect("reference pass");
            for rs in engine.drain_results(q).expect("drain") {
                let mut text = String::new();
                render(&rs, &mut text);
                windows.push(text);
            }
        }
        assert_eq!(windows.len(), period + 1, "{}: windows over L + W rows", w.name);
        assert_eq!(windows[period], windows[0], "{}: results are not periodic", w.name);
        windows.truncate(period);
        Reference::from_windows(&windows)
    }

    /// Pack per-window texts.
    pub fn from_windows(windows: &[String]) -> Reference {
        let mut r = Reference { bytes: Vec::new(), win_end: Vec::new(), win_lines: Vec::new() };
        for text in windows {
            assert!(!text.is_empty(), "window {} renders no line", r.win_end.len());
            r.bytes.extend_from_slice(text.as_bytes());
            r.win_end.push(r.bytes.len());
            r.win_lines.push(text.bytes().filter(|&b| b == b'\n').count() as u32);
        }
        r
    }

    /// Windows per period.
    pub fn period(&self) -> usize {
        self.win_end.len()
    }

    /// Result lines of the first `windows` wire windows.
    pub fn lines_upto(&self, windows: u64) -> u64 {
        let p = self.period() as u64;
        let lines = |slots: &[u32]| slots.iter().map(|&l| u64::from(l)).sum::<u64>();
        (windows / p) * lines(&self.win_lines) + lines(&self.win_lines[..(windows % p) as usize])
    }
}

/// Where the wire diverged from the reference.
#[derive(Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// The wire window (0-based since subscription) that diverged.
    pub window: u64,
    /// Byte offset inside that window's expected text.
    pub offset: usize,
}

/// Checks a byte stream against the periodic reference as it arrives, in
/// whatever pieces the socket delivers, and reports each window the
/// moment its last byte has been seen.
pub struct Verifier<'a> {
    reference: &'a Reference,
    /// Wire windows fully verified so far.
    windows: u64,
    /// Cursor into `reference.bytes` (always inside window `windows % period`).
    pos: usize,
}

impl<'a> Verifier<'a> {
    pub fn new(reference: &'a Reference) -> Verifier<'a> {
        Verifier { reference, windows: 0, pos: 0 }
    }

    /// Wire windows fully verified so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Is the cursor inside a partly received window?
    pub fn mid_window(&self) -> bool {
        let slot = (self.windows % self.reference.period() as u64) as usize;
        let start = if slot == 0 { 0 } else { self.reference.win_end[slot - 1] };
        self.pos != start
    }

    /// Consume `data`; `on_window(j)` fires for each wire window `j` that
    /// `data` completes. Stops at the first differing byte.
    pub fn feed(
        &mut self,
        mut data: &[u8],
        mut on_window: impl FnMut(u64),
    ) -> Result<(), Mismatch> {
        let r = self.reference;
        let period = r.period() as u64;
        while !data.is_empty() {
            let slot = (self.windows % period) as usize;
            let end = r.win_end[slot];
            let take = data.len().min(end - self.pos);
            let want = &r.bytes[self.pos..self.pos + take];
            if data[..take] != *want {
                let start = if slot == 0 { 0 } else { r.win_end[slot - 1] };
                let at = data.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0);
                return Err(Mismatch { window: self.windows, offset: self.pos - start + at });
            }
            self.pos += take;
            data = &data[take..];
            if self.pos == end {
                on_window(self.windows);
                self.windows += 1;
                if slot + 1 == r.period() {
                    self.pos = 0;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, rings};

    fn toy() -> Reference {
        Reference::from_windows(&[
            "a,1\nb,2\n".to_owned(),
            "c,3\n".to_owned(),
            "d,4\ne,5\n".to_owned(),
        ])
    }

    #[test]
    fn windows_map_onto_the_period() {
        let r = toy();
        assert_eq!(r.period(), 3);
        assert_eq!(r.win_lines, vec![2, 1, 2]);
        assert_eq!(r.lines_upto(0), 0);
        assert_eq!(r.lines_upto(3), 5);
        assert_eq!(r.lines_upto(5), 5 + 2 + 1);

        // Two and a bit periods, delivered in awkward pieces: every window
        // is reported once, in order, when its last byte lands.
        let stream = b"a,1\nb,2\nc,3\nd,4\ne,5\na,1\nb,2\nc,3\nd,4\ne,5\na,1\nb,2\n";
        let mut v = Verifier::new(&r);
        let mut seen = Vec::new();
        for piece in stream.chunks(5) {
            v.feed(piece, |j| seen.push(j)).unwrap();
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(v.windows(), 7);
        assert!(!v.mid_window());
        v.feed(b"c,", |_| panic!("window is incomplete")).unwrap();
        assert!(v.mid_window());
    }

    #[test]
    fn a_corrupted_line_fails_verification() {
        let r = toy();
        let mut v = Verifier::new(&r);
        let err = v.feed(b"a,1\nb,2\nc,9\n", |_| {}).unwrap_err();
        assert_eq!(err, Mismatch { window: 1, offset: 2 });
    }

    #[test]
    fn reference_of_a_real_workload_is_periodic_and_seeded() {
        let w = find("small_slide_groupby").unwrap();
        let a = Reference::compute(w, &rings(w, 11));
        assert_eq!(a.period(), w.ring_slides);
        // 16 keys, `x1 > 3` keeps 12 of them in a 4096-row window.
        assert!(a.win_lines.iter().all(|&l| l == 12));
        let b = Reference::compute(w, &rings(w, 12));
        assert_ne!(a.bytes, b.bytes, "another seed gives other results");
    }
}
