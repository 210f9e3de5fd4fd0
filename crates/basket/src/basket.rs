//! The basket: DataCell's stream buffer.
//!
//! "When an event stream enters the system via a receptor, stream tuples are
//! immediately stored in a lightweight table, called basket. [...] Once a
//! tuple has been seen by all relevant queries/operators, it is dropped from
//! its basket." (paper §2)
//!
//! A basket is an append-only multi-column buffer with a moving front:
//! tuples keep their global stream position ([`datacell_kernel::Oid`])
//! forever, and expiring a prefix only advances `base_oid`. Factories track
//! how far they have consumed by oid, so multiple standing queries can read
//! the same basket at different speeds; the engine expires tuples only up to
//! the *minimum* consumed position across queries.

use crate::window::BasicWindow;
use datacell_kernel::{Column, DataType, KernelError, Oid, Value};
use std::fmt;

/// Arrival timestamps: milliseconds on a logical clock. The engine decides
/// whether this is wall-clock time or a synthetic tick (experiments use
/// synthetic ticks for determinism).
pub type Timestamp = u64;

/// Errors raised by basket operations.
#[derive(Debug, Clone, PartialEq)]
pub enum BasketError {
    /// Batch columns have inconsistent lengths or wrong arity.
    Malformed(String),
    /// Type error from the kernel while appending.
    Kernel(KernelError),
    /// Requested range is not (fully) resident: it was either expired or has
    /// not arrived yet.
    RangeUnavailable {
        /// First oid requested.
        from: Oid,
        /// Number of tuples requested.
        count: usize,
        /// First resident oid.
        base: Oid,
        /// One past the last resident oid.
        end: Oid,
    },
    /// Column name not in the basket schema.
    UnknownColumn(String),
}

impl fmt::Display for BasketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BasketError::Malformed(m) => write!(f, "malformed batch: {m}"),
            BasketError::Kernel(e) => write!(f, "kernel: {e}"),
            BasketError::RangeUnavailable { from, count, base, end } => write!(
                f,
                "range [{from}, {}) unavailable: resident [{base}, {end})",
                from + *count as u64
            ),
            BasketError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
        }
    }
}

impl std::error::Error for BasketError {}

impl From<KernelError> for BasketError {
    fn from(e: KernelError) -> Self {
        BasketError::Kernel(e)
    }
}

/// Validate a batch against a schema *before any state is mutated*:
/// arity, column alignment and column types. Returns the row count.
///
/// [`Basket::append_with_ts`] runs it first, so a rejected batch can
/// never leave a torn basket (some columns extended, others not,
/// timestamps misaligned with oids) or consume an oid.
fn validate_batch(
    name: &str,
    schema: &[(String, DataType)],
    batch: &[Column],
) -> crate::Result<usize> {
    if batch.len() != schema.len() {
        return Err(BasketError::Malformed(format!(
            "{}: batch arity {} != schema arity {}",
            name,
            batch.len(),
            schema.len()
        )));
    }
    let n = batch.first().map_or(0, datacell_kernel::Column::len);
    for (i, c) in batch.iter().enumerate() {
        if c.len() != n {
            return Err(BasketError::Malformed(format!(
                "{}: column {} has {} rows, expected {}",
                name,
                schema[i].0,
                c.len(),
                n
            )));
        }
        if c.data_type() != schema[i].1 {
            return Err(BasketError::Malformed(format!(
                "{}: column {} is {:?}, schema says {:?}",
                name,
                schema[i].0,
                c.data_type(),
                schema[i].1
            )));
        }
    }
    Ok(n)
}

/// A stream buffer: named, typed columns plus per-tuple arrival timestamps.
#[derive(Debug, Clone)]
pub struct Basket {
    name: String,
    schema: Vec<(String, DataType)>,
    cols: Vec<Column>,
    ts: Vec<Timestamp>,
    /// Oid of the first resident tuple.
    base_oid: Oid,
    /// High-water mark of every timestamp ever appended. Unlike
    /// `ts.last()` this survives expiry, so the non-decreasing-stamp rule
    /// holds across a basket drained to empty.
    last_ts: Option<Timestamp>,
}

impl Basket {
    /// Create an empty basket with the given schema.
    pub fn new(name: impl Into<String>, schema: &[(&str, DataType)]) -> Basket {
        Basket {
            name: name.into(),
            schema: schema.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
            cols: schema.iter().map(|(_, t)| Column::empty(*t)).collect(),
            ts: Vec::new(),
            base_oid: 0,
            last_ts: None,
        }
    }

    /// Basket (stream) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema: attribute names and types in declaration order.
    pub fn schema(&self) -> &[(String, DataType)] {
        &self.schema
    }

    /// Position of a named attribute.
    pub fn col_index(&self, name: &str) -> crate::Result<usize> {
        self.schema
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| BasketError::UnknownColumn(format!("{}.{}", self.name, name)))
    }

    /// Number of resident (not yet expired) tuples.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when no tuples are resident.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Oid of the first resident tuple.
    pub fn base_oid(&self) -> Oid {
        self.base_oid
    }

    /// One past the oid of the last resident tuple — equivalently, the total
    /// number of tuples that ever entered this basket.
    pub fn end_oid(&self) -> Oid {
        self.base_oid + self.ts.len() as u64
    }

    /// Timestamp of the newest resident tuple.
    pub fn latest_ts(&self) -> Option<Timestamp> {
        self.ts.last().copied()
    }

    /// Highest timestamp ever appended, surviving expiry (`None` only on
    /// a basket that never held a tuple). `latest_ts` forgets stamps when
    /// the prefix holding them is expired; this mark does not, so it is
    /// the correct lower bound for the next append's stamp even on a
    /// basket drained to empty.
    pub fn ts_high_water(&self) -> Option<Timestamp> {
        self.last_ts
    }

    /// Timestamp of tuple `oid`, if resident.
    pub fn ts_at(&self, oid: Oid) -> Option<Timestamp> {
        if oid < self.base_oid || oid >= self.end_oid() {
            return None;
        }
        Some(self.ts[(oid - self.base_oid) as usize])
    }

    /// Append a batch of aligned columns, all tuples stamped `now`.
    /// Returns the oid of the first appended tuple.
    ///
    /// Timestamps must be non-decreasing across appends (streams arrive in
    /// order); a violation is a receptor bug and is reported as `Malformed`.
    pub fn append(&mut self, batch: &[Column], now: Timestamp) -> crate::Result<Oid> {
        self.append_with_ts(batch, |_| now)
    }

    /// Append a batch with a per-row timestamp function (row index within
    /// the batch → timestamp). Used by replay receptors that carry original
    /// generation times.
    pub fn append_with_ts(
        &mut self,
        batch: &[Column],
        ts_of: impl Fn(usize) -> Timestamp,
    ) -> crate::Result<Oid> {
        let n = validate_batch(&self.name, &self.schema, batch)?;
        if n == 0 {
            return Ok(self.end_oid());
        }
        let first_ts = ts_of(0);
        if let Some(last) = self.last_ts {
            // Checked against the expiry-surviving high-water mark, not
            // `ts.last()`: a basket drained to empty must still reject
            // stamps older than what it has already seen.
            if first_ts < last {
                return Err(BasketError::Malformed(format!(
                    "{}: timestamps must be non-decreasing ({} < {})",
                    self.name, first_ts, last
                )));
            }
        }
        let start = self.end_oid();
        for (dst, src) in self.cols.iter_mut().zip(batch) {
            // Cannot fail: `validate_batch` checked types above, so the
            // batch can never tear the basket mid-append.
            dst.append(src)?;
        }
        let mut prev = first_ts;
        for i in 0..n {
            let t = ts_of(i);
            debug_assert!(t >= prev, "per-row timestamps must be non-decreasing");
            prev = t;
            self.ts.push(t);
        }
        self.last_ts = Some(prev);
        Ok(start)
    }

    /// Append a single row of values (receptor convenience / tests).
    pub fn append_row(&mut self, row: &[Value], now: Timestamp) -> crate::Result<Oid> {
        let batch: Vec<Column> = row
            .iter()
            .map(|v| {
                let mut c = Column::empty(v.data_type());
                c.push(v.clone()).expect("same type");
                c
            })
            .collect();
        self.append(&batch, now)
    }

    /// Read tuples `[from, from + count)` as an owned [`BasicWindow`].
    ///
    /// This is the paper's `basket.getLatest(input, stepsize)`: the factory
    /// asks for the next unprocessed step-sized batch. Fails if part of the
    /// range has expired or has not yet arrived.
    pub fn read_range(&self, from: Oid, count: usize) -> crate::Result<BasicWindow> {
        let end = from + count as u64;
        if from < self.base_oid || end > self.end_oid() {
            return Err(BasketError::RangeUnavailable {
                from,
                count,
                base: self.base_oid,
                end: self.end_oid(),
            });
        }
        let off = (from - self.base_oid) as usize;
        let cols = self.cols.iter().map(|c| c.slice_owned(off, count)).collect();
        let ts = self.ts[off..off + count].to_vec();
        Ok(BasicWindow::new(from, cols, ts, self.names()))
    }

    /// Read all resident tuples with `oid >= from` whose timestamp is
    /// `< until` (time-based windows slice the stream by arrival interval).
    pub fn read_until_ts(&self, from: Oid, until: Timestamp) -> crate::Result<BasicWindow> {
        if from < self.base_oid {
            return Err(BasketError::RangeUnavailable {
                from,
                count: 0,
                base: self.base_oid,
                end: self.end_oid(),
            });
        }
        let off = (from - self.base_oid) as usize;
        // Timestamps are sorted: binary search for the first ts >= until.
        let upper = self.ts.partition_point(|&t| t < until);
        let count = upper.saturating_sub(off);
        self.read_range(from, count)
    }

    /// Number of resident tuples with oid `>= from` (how much unconsumed
    /// input a factory has).
    pub fn available_from(&self, from: Oid) -> usize {
        (self.end_oid().saturating_sub(from.max(self.base_oid))) as usize
    }

    /// Drop all tuples with `oid < upto` — the paper's
    /// `basket.delete(input, wexp)`. Expiring past the end is capped.
    pub fn expire_upto(&mut self, upto: Oid) {
        let upto = upto.min(self.end_oid());
        if upto <= self.base_oid {
            return;
        }
        let n = (upto - self.base_oid) as usize;
        for c in &mut self.cols {
            c.drain_front(n);
        }
        self.ts.drain(..n);
        self.base_oid = upto;
    }

    /// Attribute names in order.
    pub fn names(&self) -> Vec<String> {
        self.schema.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Snapshot the resident content as a BasicWindow (tests).
    pub fn snapshot(&self) -> BasicWindow {
        self.read_range(self.base_oid, self.len()).expect("full resident range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basket() -> Basket {
        Basket::new("s", &[("x", DataType::Int), ("y", DataType::Float)])
    }

    fn batch(xs: Vec<i64>, ys: Vec<f64>) -> Vec<Column> {
        vec![Column::Int(xs), Column::Float(ys)]
    }

    #[test]
    fn append_assigns_global_oids() {
        let mut b = basket();
        assert_eq!(b.append(&batch(vec![1, 2], vec![0.1, 0.2]), 10).unwrap(), 0);
        assert_eq!(b.append(&batch(vec![3], vec![0.3]), 11).unwrap(), 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b.base_oid(), 0);
        assert_eq!(b.end_oid(), 3);
    }

    #[test]
    fn append_validates_arity_and_alignment() {
        let mut b = basket();
        assert!(b.append(&[Column::Int(vec![1])], 0).is_err());
        assert!(b.append(&batch(vec![1, 2], vec![0.1]), 0).is_err());
    }

    #[test]
    fn type_mismatched_batch_cannot_tear_the_basket() {
        // Regression: a batch whose *second* column has the wrong type
        // used to extend the first column before erroring, permanently
        // skewing values against oids/timestamps. Validation now runs
        // before any mutation, so the basket stays intact.
        let mut b = basket();
        b.append(&batch(vec![1], vec![0.1]), 0).unwrap();
        let err = b.append(&[Column::Int(vec![2]), Column::Int(vec![3])], 1).unwrap_err();
        assert!(matches!(err, BasketError::Malformed(_)));
        assert_eq!(b.len(), 1);
        let w = b.snapshot();
        assert_eq!(w.col(0).unwrap(), &Column::Int(vec![1])); // no phantom row
                                                              // The stream continues cleanly aligned.
        b.append(&batch(vec![4], vec![0.4]), 2).unwrap();
        let w = b.snapshot();
        assert_eq!(w.col(0).unwrap(), &Column::Int(vec![1, 4]));
        assert_eq!(w.col(1).unwrap(), &Column::Float(vec![0.1, 0.4]));
        assert_eq!(w.timestamps(), &[0, 2]);
    }

    #[test]
    fn append_rejects_time_regression() {
        let mut b = basket();
        b.append(&batch(vec![1], vec![0.1]), 100).unwrap();
        assert!(b.append(&batch(vec![2], vec![0.2]), 99).is_err());
        assert!(b.append(&batch(vec![2], vec![0.2]), 100).is_ok()); // equal ok
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut b = basket();
        b.append(&batch(vec![1], vec![0.1]), 5).unwrap();
        let oid = b.append(&batch(vec![], vec![]), 1).unwrap(); // stale ts ok for empty
        assert_eq!(oid, 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn read_range_returns_owned_window() {
        let mut b = basket();
        b.append(&batch(vec![1, 2, 3, 4], vec![0.1, 0.2, 0.3, 0.4]), 7).unwrap();
        let w = b.read_range(1, 2).unwrap();
        assert_eq!(w.base_oid(), 1);
        assert_eq!(w.len(), 2);
        assert_eq!(w.col(0).unwrap(), &Column::Int(vec![2, 3]));
        assert_eq!(w.timestamps(), &[7, 7]);
    }

    #[test]
    fn read_range_unavailable_not_arrived() {
        let mut b = basket();
        b.append(&batch(vec![1], vec![0.1]), 0).unwrap();
        let err = b.read_range(0, 2).unwrap_err();
        assert!(matches!(err, BasketError::RangeUnavailable { .. }));
    }

    #[test]
    fn expire_advances_base_and_keeps_oids_stable() {
        let mut b = basket();
        b.append(&batch(vec![1, 2, 3], vec![0.1, 0.2, 0.3]), 0).unwrap();
        b.expire_upto(2);
        assert_eq!(b.base_oid(), 2);
        assert_eq!(b.len(), 1);
        // Oid 2 still readable, oid 1 gone.
        assert!(b.read_range(2, 1).is_ok());
        assert!(b.read_range(1, 1).is_err());
        // Appends continue the global sequence.
        assert_eq!(b.append(&batch(vec![4], vec![0.4]), 1).unwrap(), 3);
    }

    #[test]
    fn expire_is_idempotent_and_capped() {
        let mut b = basket();
        b.append(&batch(vec![1, 2], vec![0.1, 0.2]), 0).unwrap();
        b.expire_upto(1);
        b.expire_upto(1);
        assert_eq!(b.len(), 1);
        b.expire_upto(100);
        assert_eq!(b.len(), 0);
        assert_eq!(b.base_oid(), 2);
    }

    #[test]
    fn available_from_counts_unconsumed() {
        let mut b = basket();
        b.append(&batch(vec![1, 2, 3], vec![0.1, 0.2, 0.3]), 0).unwrap();
        assert_eq!(b.available_from(0), 3);
        assert_eq!(b.available_from(2), 1);
        assert_eq!(b.available_from(5), 0);
        b.expire_upto(1);
        assert_eq!(b.available_from(0), 2); // clamped to resident range
    }

    #[test]
    fn read_until_ts_slices_by_time() {
        let mut b = basket();
        b.append(&batch(vec![1], vec![0.1]), 10).unwrap();
        b.append(&batch(vec![2], vec![0.2]), 20).unwrap();
        b.append(&batch(vec![3], vec![0.3]), 30).unwrap();
        let w = b.read_until_ts(0, 25).unwrap();
        assert_eq!(w.len(), 2);
        let w = b.read_until_ts(1, 25).unwrap();
        assert_eq!(w.len(), 1);
        let w = b.read_until_ts(0, 5).unwrap();
        assert_eq!(w.len(), 0); // empty basic window — recognized, not an error
    }

    #[test]
    fn time_regression_rejected_even_after_drain_to_empty() {
        // Regression: the non-decreasing-stamp rule
        // used to be checked against `ts.last()`, which a drain-to-empty
        // resets — letting time silently run backwards across expiry.
        let mut b = basket();
        b.append(&batch(vec![1], vec![0.1]), 100).unwrap();
        b.expire_upto(b.end_oid());
        assert!(b.is_empty());
        assert_eq!(b.latest_ts(), None); // resident view forgets...
        assert_eq!(b.ts_high_water(), Some(100)); // ...the mark does not
        assert!(b.append(&batch(vec![2], vec![0.2]), 99).is_err());
        assert!(b.append(&batch(vec![2], vec![0.2]), 100).is_ok());
        assert_eq!(b.ts_high_water(), Some(100));
    }

    #[test]
    fn drained_to_empty_basket_keeps_end_oid_stable() {
        // Schedulers poll `end_oid()` for growth; it must not move when
        // a basket is drained to empty, and the next append must continue
        // the global oid sequence exactly where it left off.
        let mut b = basket();
        b.append(&batch(vec![1, 2, 3], vec![0.1, 0.2, 0.3]), 5).unwrap();
        b.expire_upto(b.end_oid());
        assert!(b.is_empty());
        assert_eq!(b.base_oid(), 3);
        assert_eq!(b.end_oid(), 3); // base == end on drained-to-empty
        assert_eq!(b.available_from(0), 0);
        // Zero-width reads at the frontier stay valid (empty window, not
        // an error) — callers that compute `read_range(end, 0)` on an
        // empty basket are in bounds.
        assert_eq!(b.read_range(3, 0).unwrap().len(), 0);
        assert!(b.read_range(2, 1).is_err());
        assert_eq!(b.append(&batch(vec![4], vec![0.4]), 6).unwrap(), 3);
        assert_eq!(b.end_oid(), 4);
    }

    #[test]
    fn ts_at_and_latest() {
        let mut b = basket();
        assert_eq!(b.latest_ts(), None);
        b.append(&batch(vec![1, 2], vec![0.1, 0.2]), 42).unwrap();
        assert_eq!(b.latest_ts(), Some(42));
        assert_eq!(b.ts_at(1), Some(42));
        assert_eq!(b.ts_at(2), None);
    }

    #[test]
    fn append_row_convenience() {
        let mut b = basket();
        b.append_row(&[Value::Int(9), Value::Float(0.9)], 1).unwrap();
        assert_eq!(b.len(), 1);
        assert!(b.append_row(&[Value::Int(9)], 2).is_err());
    }

    #[test]
    fn col_index_lookup() {
        let b = basket();
        assert_eq!(b.col_index("y").unwrap(), 1);
        assert!(b.col_index("zzz").is_err());
    }

    #[test]
    fn snapshot_covers_resident() {
        let mut b = basket();
        b.append(&batch(vec![1, 2], vec![0.1, 0.2]), 0).unwrap();
        b.expire_upto(1);
        let s = b.snapshot();
        assert_eq!(s.base_oid(), 1);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn append_with_per_row_ts() {
        let mut b = basket();
        b.append_with_ts(&batch(vec![1, 2, 3], vec![0.1, 0.2, 0.3]), |i| 10 * (i as u64 + 1))
            .unwrap();
        assert_eq!(b.ts_at(0), Some(10));
        assert_eq!(b.ts_at(2), Some(30));
    }
}
