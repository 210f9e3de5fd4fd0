//! Factories: continuous query plans as resumable state machines.
//!
//! "Continuous query plans are represented by factories, i.e., a kind of
//! co-routine [...] Each factory encloses a (partial) query plan and
//! produces a partial result at each call. [...] The factory remains active
//! as long as the continuous query remains in the system." (paper §2)
//!
//! Rust has no native co-routines; a factory is a state machine whose
//! `fire` method is one resumption: it consumes the next batch of input
//! from its baskets, advances its internal state (rings of intermediates
//! for the incremental factory, buffered windows for re-evaluation), and
//! possibly emits a window result.

pub mod incremental;
pub mod reeval;

use crate::error::DataCellError;
use crate::metrics::SlideMetrics;
use datacell_basket::{BasicWindow, ShardedBasket, Timestamp};
use datacell_kernel::{Oid, ParConfig, Table};
use datacell_plan::exec::ExecCtx;
use datacell_plan::{ResultSet, WindowSpec};
use std::collections::HashMap;

/// What one `fire` call produced.
#[derive(Debug)]
pub enum FireOutcome {
    /// A complete window result.
    Produced {
        /// The window's rows.
        result: ResultSet,
        /// Timings for this slide.
        metrics: SlideMetrics,
    },
    /// Input was consumed (preface basic window or chunk) but the window
    /// is not complete yet.
    Progressed,
    /// The firing condition does not hold (insufficient input).
    NotReady,
}

/// A standing continuous query plan.
///
/// `Send` is load-bearing: with more than one worker the Petri-net
/// scheduler moves a factory (as its owned box) onto a worker thread for
/// each dispatch, so every piece of factory state must be transferable
/// across threads. A factory is only ever *owned* by one thread at a time
/// — implementations need no internal locking beyond what
/// [`ShardedBasket`] already provides for the baskets they read.
pub trait Factory: Send {
    /// Human-readable name (for scheduler introspection).
    fn label(&self) -> &str;
    /// Petri-net firing condition: is there enough input (or has enough
    /// time passed) for one more step?
    fn ready(&self, clock: Timestamp) -> bool;
    /// Execute one step.
    fn fire(&mut self, clock: Timestamp) -> Result<FireOutcome, DataCellError>;
    /// How far this factory has consumed a stream (for basket expiry).
    /// `None` when the stream is not an input of this factory.
    fn consumed_upto(&self, stream: &str) -> Option<Oid>;
    /// The input streams.
    fn input_streams(&self) -> Vec<String>;
}

/// One input stream endpoint: the shared basket plus the factory's private
/// consumption cursor. Several factories can read the same basket at
/// different positions; the engine expires tuples below the minimum cursor.
///
/// Reads go through the handle's lock on the one oid-ordered basket of
/// the stream. An append is whole once it returns, so factories never
/// observe a partial batch, and cursor arithmetic over
/// `base_oid`/`end_oid` holds however many receptors append concurrently.
#[derive(Debug, Clone)]
pub struct StreamInput {
    /// Stream name.
    pub name: String,
    /// The shared basket.
    pub basket: ShardedBasket,
    /// Next unconsumed oid.
    pub consumed: Oid,
}

impl StreamInput {
    /// Wrap a basket starting at its first *resident* tuple (`base_oid`):
    /// a factory registered mid-stream sees the not-yet-expired backlog
    /// but never already-expired prefixes; on a fresh basket that is 0.
    pub fn new(name: impl Into<String>, basket: ShardedBasket) -> StreamInput {
        let consumed = basket.with(|b| b.base_oid());
        StreamInput { name: name.into(), basket, consumed }
    }

    /// Tuples available beyond the cursor.
    pub fn available(&self) -> usize {
        self.basket.with(|b| b.available_from(self.consumed))
    }

    /// Read and consume exactly `count` tuples.
    pub fn take(&mut self, count: usize) -> Result<BasicWindow, DataCellError> {
        let w = self.basket.with(|b| b.read_range(self.consumed, count))?;
        self.consumed += count as u64;
        Ok(w)
    }

    /// Read and consume one step's worth of input.
    pub(crate) fn take_step(&mut self, step: Step) -> Result<BasicWindow, DataCellError> {
        match step {
            Step::Tuples(count) => self.take(count),
            Step::Until(deadline) => self.take_until_ts(deadline),
        }
    }

    /// Read and consume every tuple with arrival timestamp `< until`.
    pub fn take_until_ts(&mut self, until: Timestamp) -> Result<BasicWindow, DataCellError> {
        let w = self.basket.with(|b| b.read_until_ts(self.consumed, until))?;
        self.consumed = w.end_oid();
        Ok(w)
    }
}

/// What one slide step takes from every input stream: a number of tuples
/// or everything that arrived before a deadline. This is the only thing
/// count-based and time-based windows differ in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    Tuples(usize),
    Until(Timestamp),
}

impl Step {
    /// The step that closes basic window number `advances` of `window`.
    pub fn of(window: &WindowSpec, advances: usize) -> Step {
        match (window.step_count(), window.step_ms()) {
            (Some(step), _) => Step::Tuples(step),
            (None, Some(ms)) => Step::Until((advances as u64 + 1) * ms),
            (None, None) => unreachable!("a window steps by count or by time"),
        }
    }

    /// Petri-net firing condition: every input holds the tuples, or the
    /// clock has passed the deadline (an empty slice is a valid step).
    pub fn ready(self, inputs: &[StreamInput], clock: Timestamp) -> bool {
        match self {
            Step::Tuples(count) => inputs.iter().all(|i| i.available() >= count),
            Step::Until(deadline) => clock >= deadline,
        }
    }
}

/// The execution context of both factories: it lends plan execution the
/// stream windows of this call (a whole window for re-evaluation, one
/// basic window for a per-bw segment, none for per-cell and merge
/// segments) and the table snapshot, and owns nothing.
pub(crate) struct SegmentCtx<'a> {
    pub windows: &'a [(&'a str, &'a BasicWindow)],
    pub tables: Option<&'a HashMap<String, Table>>,
    pub par: ParConfig,
}

impl ExecCtx for SegmentCtx<'_> {
    fn stream_window(&self, stream: &str) -> Option<&BasicWindow> {
        self.windows.iter().find(|(name, _)| *name == stream).map(|&(_, w)| w)
    }

    fn table(&self, name: &str) -> Option<&Table> {
        self.tables?.get(name)
    }

    fn par_config(&self) -> ParConfig {
        self.par
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_basket::Basket;
    use datacell_kernel::{Column, DataType};

    fn shared() -> ShardedBasket {
        ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]))
    }

    #[test]
    fn stream_input_take_advances_cursor() {
        let b = shared();
        b.append(&[Column::Int(vec![1, 2, 3])], 0).unwrap();
        let mut si = StreamInput::new("s", b.clone());
        assert_eq!(si.available(), 3);
        let w = si.take(2).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!(si.available(), 1);
        assert_eq!(si.consumed, 2);
        assert!(si.take(2).is_err()); // only 1 left
    }

    #[test]
    fn stream_input_take_until_ts() {
        let b = shared();
        b.append(&[Column::Int(vec![1])], 10).unwrap();
        b.append(&[Column::Int(vec![2])], 20).unwrap();
        let mut si = StreamInput::new("s", b);
        let w = si.take_until_ts(15).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(si.consumed, 1);
        let w = si.take_until_ts(15).unwrap(); // nothing new before 15
        assert!(w.is_empty());
    }

    #[test]
    fn stream_input_starts_at_base_oid() {
        let b = shared();
        b.append(&[Column::Int(vec![1, 2])], 0).unwrap();
        b.with(|bk| bk.expire_upto(1));
        let si = StreamInput::new("s", b);
        assert_eq!(si.consumed, 1);
    }

    #[test]
    fn segment_ctx_lookup() {
        let w = BasicWindow::new(0, vec![Column::Int(vec![1])], vec![0], vec!["x".into()]);
        let tables =
            HashMap::from([("dim".to_owned(), Table::new("dim", &[("k", DataType::Int)]))]);
        let ctx = SegmentCtx {
            windows: &[("s", &w)],
            tables: Some(&tables),
            par: ParConfig::sequential(),
        };
        assert!(ctx.stream_window("s").is_some());
        assert!(ctx.stream_window("zz").is_none());
        assert!(ctx.table("dim").is_some());
        assert!(ctx.table("zz").is_none());
        let bare = SegmentCtx { windows: &[], tables: None, par: ParConfig::sequential() };
        assert!(bare.stream_window("s").is_none() && bare.table("dim").is_none());
    }
}
