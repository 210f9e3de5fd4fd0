//! Receptors: the ingress edge of DataCell.
//!
//! "It contains receptors and emitters, i.e., a set of separate processes
//! per stream and per client, respectively, to listen for new data and to
//! deliver results." (paper §2)
//!
//! Two receptor flavours are provided:
//!
//! * [`CsvReceptor`] — parses CSV text ("The input file is organized in
//!   rows, i.e., a typical csv file. DataCell has to parse the file and load
//!   the proper column/baskets for each batch", paper §4.2). This is the
//!   loading path whose cost the final figure of §4.2 breaks down.
//! * [`GeneratorReceptor`] — wraps a batch-producing closure; the harnesses
//!   use it to feed synthetic workloads without I/O.

use crate::basket::Timestamp;
use crate::sharded::Ingest;
use datacell_kernel::{Column, DataType, Oid};
use datacell_telemetry::Counter;
use std::fmt;
use std::sync::OnceLock;

/// Process-wide count of rows rejected by CSV receptors (malformed or
/// schema-mismatched), on the global telemetry registry. Wire-fed ingest
/// surfaces data loss here even when the caller ignores the per-call
/// [`ParseOutcome`].
fn rejected_counter() -> &'static Counter {
    static REJECTED: OnceLock<Counter> = OnceLock::new();
    REJECTED.get_or_init(|| {
        datacell_telemetry::global().counter(
            "datacell_receptor_rows_rejected_total",
            "Rows rejected by CSV receptors: malformed fields, wrong arity, or schema-mismatched values.",
        )
    })
}

/// How a CSV receptor treats rows that fail to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MalformedPolicy {
    /// Skip bad rows, counting them.
    Skip,
    /// Abort ingestion with an error.
    Fail,
}

/// CSV parse errors.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "csv line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

/// What one [`CsvReceptor::parse`] call did: rows that made it into the
/// pending batch and rows that were rejected (malformed, wrong arity, or
/// schema-mismatched). Under [`MalformedPolicy::Fail`] a rejection raises
/// [`CsvError`] instead, so `rejected` is only ever nonzero when skipping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseOutcome {
    /// Rows parsed into the pending batch by this call.
    pub rows: usize,
    /// Rows rejected by this call.
    pub rejected: usize,
}

/// Parses delimiter-separated rows into typed columns according to a schema.
///
/// The receptor is incremental: feed it bytes with
/// [`CsvReceptor::parse_bytes`] (or text with [`CsvReceptor::parse`]), then
/// deliver the accumulated batch to a basket with
/// [`CsvReceptor::flush_into`]. Statistics (rows parsed / skipped) support
/// failure-injection tests and operational visibility.
///
/// # Grammar (the behaviour contract)
///
/// Input is a sequence of lines ended by `\n`; a non-empty remainder after
/// the last `\n` is a line too. Every line, blank or not,
/// advances the 1-based line number [`CsvError::line`] reports. A line is
/// trimmed of ASCII whitespace (so `\r\n` works) and skipped when empty;
/// otherwise it is split at every delimiter byte, each field is trimmed of
/// ASCII whitespace, and the row is accepted iff the field count equals
/// the schema's and every field parses as its column type:
///
/// * `Int` — `str::parse::<i64>`: optional `+`/`-`, decimal digits;
/// * `Oid` — `str::parse::<u64>`: optional `+`, decimal digits (a negative
///   or overflowing oid is a reject, never a wrapped value);
/// * `Float` — `str::parse::<f64>` (`1e5`, `inf`, `nan` included);
/// * `Bool` — exactly `true` or `false`;
/// * `Str` — any bytes, decoded lossily (invalid UTF-8 → U+FFFD).
///
/// A rejected row leaves nothing behind in the pending batch, bumps
/// [`CsvReceptor::rows_skipped`], [`ParseOutcome::rejected`] and the
/// process-wide `datacell_receptor_rows_rejected_total` counter, and under
/// [`MalformedPolicy::Fail`] ends the call with its line number. The
/// outcome depends only on the concatenated lines, never on how they were
/// cut into calls, as long as every call but the last ends on a `\n`.
/// "Whitespace" is `char::is_whitespace` restricted to ASCII (`\t`, `\n`,
/// VT, FF, `\r`, space): non-ASCII whitespace is field content, so a
/// numeric field padded with it is a counted reject.
#[derive(Debug)]
pub struct CsvReceptor {
    delimiter: u8,
    policy: MalformedPolicy,
    /// One typed vector per schema column; a row is pushed field by field
    /// and rolled back as a whole if a later field rejects it. Flushing
    /// clears the vectors in place, so their capacity is reused.
    pending: Vec<Column>,
    rows_ok: usize,
    rows_skipped: usize,
    lines_seen: usize,
}

/// `char::is_whitespace` on ASCII. Unlike `u8::is_ascii_whitespace` this
/// includes VT (0x0B), which `str::trim` strips.
const fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

fn trim(mut s: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = s {
        if !is_space(*first) {
            break;
        }
        s = rest;
    }
    while let [rest @ .., last] = s {
        if !is_space(*last) {
            break;
        }
        s = rest;
    }
    s
}

/// Up to 18 decimal digits, which fit both `i64` and `u64` without an
/// overflow check; `None` for anything else (the caller falls back to
/// `str::parse`, which also owns the error cases).
fn short_decimal(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || digits.len() > 18 {
        return None;
    }
    let mut v = 0u64;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v * 10 + u64::from(d);
    }
    Some(v)
}

fn std_parse<T: std::str::FromStr>(field: &[u8]) -> Option<T> {
    std::str::from_utf8(field).ok()?.parse().ok()
}

fn parse_int(field: &[u8]) -> Option<i64> {
    let (negative, digits) = match field {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        _ => (false, field),
    };
    match short_decimal(digits) {
        #[allow(clippy::cast_possible_wrap)] // < 10^18
        Some(v) => Some(if negative { -(v as i64) } else { v as i64 }),
        None => std_parse(field),
    }
}

fn parse_oid(field: &[u8]) -> Option<Oid> {
    let digits = field.strip_prefix(b"+").unwrap_or(field);
    short_decimal(digits).or_else(|| std_parse(field))
}

fn parse_bool(field: &[u8]) -> Option<bool> {
    match field {
        b"true" => Some(true),
        b"false" => Some(false),
        _ => None,
    }
}

/// Append a field that parsed; `false` for one that did not.
fn push<T>(column: &mut Vec<T>, parsed: Option<T>) -> bool {
    parsed.map(|value| column.push(value)).is_some()
}

impl CsvReceptor {
    /// A receptor for the given column types, comma-delimited, skipping
    /// malformed rows.
    pub fn new(schema: &[DataType]) -> CsvReceptor {
        CsvReceptor {
            delimiter: b',',
            policy: MalformedPolicy::Skip,
            pending: schema.iter().map(|t| Column::empty(*t)).collect(),
            rows_ok: 0,
            rows_skipped: 0,
            lines_seen: 0,
        }
    }

    /// Use a different delimiter.
    ///
    /// # Panics
    ///
    /// If `d` is not ASCII or is `\n`: rows are split bytewise.
    pub fn with_delimiter(mut self, d: char) -> CsvReceptor {
        assert!(
            d.is_ascii() && d != '\n',
            "CSV delimiter must be an ASCII character other than \\n"
        );
        self.delimiter = d as u8;
        self
    }

    /// Use a different malformed-row policy.
    pub fn with_policy(mut self, p: MalformedPolicy) -> CsvReceptor {
        self.policy = p;
        self
    }

    /// Rows successfully parsed since creation.
    pub fn rows_ok(&self) -> usize {
        self.rows_ok
    }

    /// Rows skipped as malformed.
    pub fn rows_skipped(&self) -> usize {
        self.rows_skipped
    }

    /// Rows currently buffered and not yet flushed.
    pub fn pending_rows(&self) -> usize {
        self.pending.first().map_or(0, datacell_kernel::Column::len)
    }

    /// Parse a chunk of CSV text (possibly many lines; blank lines are
    /// ignored) into the pending batch: [`CsvReceptor::parse_bytes`] over
    /// the whole of `text`.
    ///
    /// Returns how many rows parsed **and** how many were rejected — under
    /// [`MalformedPolicy::Skip`] bad rows used to vanish silently unless
    /// the caller polled [`CsvReceptor::rows_skipped`]; wire-fed ingest
    /// must see the loss on every call. Each rejection also bumps the
    /// process-wide `datacell_receptor_rows_rejected_total` counter.
    pub fn parse(&mut self, text: &str) -> Result<ParseOutcome, CsvError> {
        self.parse_bytes(text.as_bytes(), usize::MAX).map(|(outcome, _)| outcome)
    }

    /// Parse lines of `bytes` straight into the typed pending columns, in
    /// place and without a per-row allocation (`Str` fields own their
    /// text), stopping before a line once `max_pending` rows are pending.
    /// Returns what the consumed lines did and how many bytes they span;
    /// the caller flushes and passes the rest again. The grammar is on
    /// [`CsvReceptor`].
    pub fn parse_bytes(
        &mut self,
        bytes: &[u8],
        max_pending: usize,
    ) -> Result<(ParseOutcome, usize), CsvError> {
        let mut out = ParseOutcome::default();
        let mut at = 0;
        while at < bytes.len() && self.pending_rows() < max_pending {
            let rest = &bytes[at..];
            let line = match rest.iter().position(|&b| b == b'\n') {
                Some(nl) => {
                    at += nl + 1;
                    &rest[..nl]
                }
                None => {
                    at = bytes.len();
                    rest
                }
            };
            self.lines_seen += 1;
            let line = trim(line);
            if line.is_empty() {
                continue;
            }
            match self.push_row(line) {
                None => {
                    self.rows_ok += 1;
                    out.rows += 1;
                }
                Some(column) => {
                    self.rows_skipped += 1;
                    out.rejected += 1;
                    rejected_counter().inc();
                    if self.policy == MalformedPolicy::Fail {
                        let message = self.why_rejected(line, column);
                        return Err(CsvError { line: self.lines_seen, message });
                    }
                }
            }
        }
        Ok((out, at))
    }

    /// Append one trimmed, non-blank line to the pending columns. A field
    /// that does not parse, or a field count off the schema's, rolls the
    /// columns back to where the row started and returns the index of the
    /// column the row failed at (the column count for a surplus field).
    fn push_row(&mut self, line: &[u8]) -> Option<usize> {
        let row_base = self.pending_rows();
        let delimiter = self.delimiter;
        let mut fields = line.split(|&b| b == delimiter);
        let failed = self
            .pending
            .iter_mut()
            .position(|col| {
                let Some(field) = fields.next().map(trim) else { return true };
                !match col {
                    Column::Int(v) => push(v, parse_int(field)),
                    Column::Oid(v) => push(v, parse_oid(field)),
                    Column::Float(v) => push(v, std_parse(field)),
                    Column::Bool(v) => push(v, parse_bool(field)),
                    Column::Str(v) => push(v, Some(String::from_utf8_lossy(field).into_owned())),
                }
            })
            .or_else(|| fields.next().map(|_| self.pending.len()));
        if failed.is_some() {
            for col in &mut self.pending {
                col.truncate(row_base);
            }
        }
        failed
    }

    /// The [`CsvError::message`] for a line `push_row` rejected at
    /// `column`: the field count when it is off, else the offending field.
    fn why_rejected(&self, line: &[u8], column: usize) -> String {
        let mut fields = line.split(|&b| b == self.delimiter);
        let found = fields.clone().count();
        match (self.pending.get(column), fields.nth(column)) {
            (Some(col), Some(field)) if found == self.pending.len() => format!(
                "{} `{}` does not parse",
                col.data_type(),
                String::from_utf8_lossy(trim(field))
            ),
            _ => format!("expected {} fields, found {found}", self.pending.len()),
        }
    }

    /// Move the pending batch into a basket, stamping all rows `now`.
    /// Returns the first assigned oid (or the basket end when empty).
    ///
    /// Generic over the ingest edge: a [`crate::ShardedBasket`] at any
    /// shard count, or a bench's discarding sink.
    pub fn flush_into(&mut self, basket: &impl Ingest, now: Timestamp) -> crate::Result<Oid> {
        let first = basket.ingest(&self.pending, now);
        for col in &mut self.pending {
            col.truncate(0);
        }
        first
    }
}

/// A receptor producing synthetic batches from a closure — one call per
/// "network read". Returns `None` when the source is exhausted.
pub struct GeneratorReceptor {
    gen: Box<dyn FnMut() -> Option<Vec<Column>> + Send>,
    produced: usize,
}

impl fmt::Debug for GeneratorReceptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GeneratorReceptor").field("produced", &self.produced).finish()
    }
}

impl GeneratorReceptor {
    /// Wrap a batch generator.
    pub fn new(gen: impl FnMut() -> Option<Vec<Column>> + Send + 'static) -> GeneratorReceptor {
        GeneratorReceptor { gen: Box::new(gen), produced: 0 }
    }

    /// Pull one batch and append it to the basket (any ingest edge — see
    /// [`CsvReceptor::flush_into`]). Returns how many tuples were
    /// delivered, or `None` when the generator is exhausted.
    pub fn pump(&mut self, basket: &impl Ingest, now: Timestamp) -> crate::Result<Option<usize>> {
        match (self.gen)() {
            None => Ok(None),
            Some(batch) => {
                let n = batch.first().map_or(0, datacell_kernel::Column::len);
                basket.ingest(&batch, now)?;
                self.produced += n;
                Ok(Some(n))
            }
        }
    }

    /// Total tuples produced so far.
    pub fn produced(&self) -> usize {
        self.produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basket::Basket;
    use crate::sharded::ShardedBasket;

    fn shared() -> ShardedBasket {
        ShardedBasket::new(Basket::new("s", &[("x", DataType::Int), ("y", DataType::Float)]), 1)
    }

    #[test]
    fn csv_parses_well_formed_rows() {
        let mut r = CsvReceptor::new(&[DataType::Int, DataType::Float]);
        let n = r.parse("1,0.5\n2,1.5\n").unwrap();
        assert_eq!(n, ParseOutcome { rows: 2, rejected: 0 });
        assert_eq!(r.pending_rows(), 2);
        let b = shared();
        r.flush_into(&b, 3).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(r.pending_rows(), 0);
        b.with(|bk| {
            let w = bk.snapshot();
            assert_eq!(w.col(0).unwrap(), &Column::Int(vec![1, 2]));
            assert_eq!(w.col(1).unwrap(), &Column::Float(vec![0.5, 1.5]));
        });
    }

    #[test]
    fn csv_skips_malformed_by_default() {
        let mut r = CsvReceptor::new(&[DataType::Int, DataType::Float]);
        let before = crate::receptor::rejected_counter().get();
        let out = r.parse("1,0.5\nbogus,row,extra\nnotanint,1.0\n3,3.0").unwrap();
        assert_eq!(out, ParseOutcome { rows: 2, rejected: 2 });
        assert_eq!(r.rows_ok(), 2);
        assert_eq!(r.rows_skipped(), 2);
        // Every rejection is also visible process-wide for wire-fed ingest
        // (>=: sibling tests share the global counter under parallel runs).
        assert!(crate::receptor::rejected_counter().get() >= before + 2);
    }

    #[test]
    fn csv_fail_policy_reports_line() {
        let mut r = CsvReceptor::new(&[DataType::Int]).with_policy(MalformedPolicy::Fail);
        r.parse("1").unwrap();
        let err = r.parse("2\nbad\n3").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("int"));
    }

    #[test]
    fn csv_malformed_row_leaves_no_partial_data() {
        let mut r = CsvReceptor::new(&[DataType::Int, DataType::Int]);
        // First field parses, second does not: nothing may be appended.
        r.parse("5,oops").unwrap();
        assert_eq!(r.pending_rows(), 0);
    }

    #[test]
    fn csv_custom_delimiter_and_strings() {
        let mut r = CsvReceptor::new(&[DataType::Str, DataType::Int]).with_delimiter(';');
        r.parse("hello; 7\nworld;8").unwrap();
        assert_eq!(r.pending_rows(), 2);
    }

    #[test]
    fn csv_blank_lines_ignored() {
        let mut r = CsvReceptor::new(&[DataType::Int]);
        r.parse("\n1\n\n2\n\n").unwrap();
        assert_eq!(r.rows_ok(), 2);
    }

    #[test]
    fn csv_bool_and_oid_fields() {
        let mut r = CsvReceptor::new(&[DataType::Bool, DataType::Oid]);
        r.parse("true,42").unwrap();
        assert_eq!(r.rows_ok(), 1);
        assert_eq!(r.rows_skipped(), 0);
    }

    #[test]
    fn csv_negative_or_overflowing_oid_is_rejected_not_wrapped() {
        // `-1` used to parse as i64 and land as 18446744073709551615.
        let mut r = CsvReceptor::new(&[DataType::Oid]);
        let out = r.parse("-1\n18446744073709551616\n-0\n18446744073709551615\n+7\n").unwrap();
        assert_eq!(out, ParseOutcome { rows: 2, rejected: 3 });
        assert_eq!(r.pending, vec![Column::Oid(vec![u64::MAX, 7])]);
    }

    #[test]
    fn parse_bytes_stops_at_the_pending_cap_and_reports_consumed_bytes() {
        let mut r = CsvReceptor::new(&[DataType::Int]);
        let bytes = b"1\n\n2\n3\n4";
        let (out, used) = r.parse_bytes(bytes, 2).unwrap();
        assert_eq!((out.rows, used), (2, 5)); // "1\n\n2\n"
        let b = ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]), 1);
        r.flush_into(&b, 0).unwrap();
        let (out, used) = r.parse_bytes(&bytes[5..], 2).unwrap();
        assert_eq!((out.rows, used), (2, 3)); // "3\n4": the tail counts as a line
        assert_eq!(r.pending, vec![Column::Int(vec![3, 4])]);
    }

    #[test]
    fn flush_keeps_the_pending_capacity() {
        let mut r = CsvReceptor::new(&[DataType::Int]);
        r.parse("1\n2\n3\n").unwrap();
        let Column::Int(v) = &r.pending[0] else { panic!("int column") };
        let cap = v.capacity();
        let b = ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]), 1);
        r.flush_into(&b, 0).unwrap();
        let Column::Int(v) = &r.pending[0] else { panic!("int column") };
        assert_eq!((v.len(), v.capacity()), (0, cap));
    }

    #[test]
    fn receptors_feed_sharded_baskets_through_the_same_api() {
        // The shard count is invisible to a receptor: the same code
        // flushes into a 4-shard basket, which seals to the same view.
        let mut r = CsvReceptor::new(&[DataType::Int, DataType::Float]);
        r.parse("1,0.5\n2,1.5\n").unwrap();
        let sb = ShardedBasket::new(
            Basket::new("s", &[("x", DataType::Int), ("y", DataType::Float)]),
            4,
        );
        assert_eq!(r.flush_into(&sb, 3).unwrap(), 0);
        assert_eq!(sb.len(), 2); // ordered path seals synchronously
        let mut g = GeneratorReceptor::new({
            let mut left = 1;
            move || {
                if left == 0 {
                    return None;
                }
                left -= 1;
                Some(vec![Column::Int(vec![9]), Column::Float(vec![0.9])])
            }
        });
        assert_eq!(g.pump(&sb, 4).unwrap(), Some(1));
        assert_eq!(g.pump(&sb, 5).unwrap(), None);
        assert_eq!(sb.len(), 3);
        sb.with(|bk| {
            let w = bk.snapshot();
            assert_eq!(w.col(0).unwrap(), &Column::Int(vec![1, 2, 9]));
        });
    }

    #[test]
    fn generator_pumps_until_exhausted() {
        let mut left = 3;
        let mut g = GeneratorReceptor::new(move || {
            if left == 0 {
                return None;
            }
            left -= 1;
            Some(vec![Column::Int(vec![1, 2]), Column::Float(vec![0.1, 0.2])])
        });
        let b = shared();
        let mut t = 0;
        while let Some(n) = g.pump(&b, t).unwrap() {
            assert_eq!(n, 2);
            t += 1;
        }
        assert_eq!(b.len(), 6);
        assert_eq!(g.produced(), 6);
    }
}
