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
///
/// # How the bytes are walked
///
/// One cursor walks each line once and parses every field in place into
/// its typed column; nothing splits the line first. A number spelled
/// canonically and followed straight by the delimiter (or, in the last
/// column, the line's end) takes a typed walk: an `Int`/`Oid` of an
/// optional sign and 1–18 digits is accumulated as it is read, and a
/// `Float` of an optional `-` and `digits[.digits]` with at most 15 digits
/// is `m / 10^frac`, which is exact because both operands are exact `f64`s
/// and one IEEE division rounds once (Clinger's fast path, *How to Read
/// Floating Point Numbers Accurately*, 1990). A `Bool` is compared against
/// its two literals and a `Str` copied from the field's bytes. Any other
/// field is first cut at its delimiter and trimmed: a number that is then
/// canonical (it was padded, say, or the delimiter is a digit, a sign or
/// `.`) takes the same typed walk over the trimmed field, and every other
/// spelling (exponents, `inf`/`nan`, a `+` float, `.5`, `5.`, more digits)
/// goes to `str::parse`, so it parses exactly as the grammar above says.
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

/// `str::parse` on a trimmed field's bytes.
fn std_parse<T: std::str::FromStr>(field: &[u8]) -> Option<T> {
    std::str::from_utf8(field).ok()?.parse().ok()
}

fn parse_bool(field: &[u8]) -> Option<bool> {
    match field {
        b"true" => Some(true),
        b"false" => Some(false),
        _ => None,
    }
}

/// A `Str` field's text: the bytes as they are when they are UTF-8,
/// decoded lossily only when they are not.
fn parse_str(field: &[u8]) -> Option<String> {
    Some(
        std::str::from_utf8(field)
            .map_or_else(|_| String::from_utf8_lossy(field).into_owned(), str::to_owned),
    )
}

/// The powers of ten a float of at most 15 digits is divided by, every
/// one exact in `f64` (10^22 is the last that is).
const POW10: [f64; 16] =
    [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15];

/// The index of the byte that ends the field `from` lies in: the
/// delimiter, `\n`, or the end of the bytes.
fn field_end(bytes: &[u8], from: usize, delimiter: u8) -> usize {
    bytes[from..]
        .iter()
        .position(|&b| b == delimiter || b == b'\n')
        .map_or(bytes.len(), |n| from + n)
}

/// Where the line `at` lies in ends: past its `\n`, or at the end of the
/// bytes.
fn line_end(bytes: &[u8], at: usize) -> usize {
    match bytes.get(at) {
        Some(b'\n') => at + 1,
        _ => bytes[at..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |n| at + n + 1),
    }
}

/// Whether the field that ended at `at` has a successor on its line: `at`
/// holds the delimiter and, when the delimiter is whitespace, something
/// other than whitespace follows it before the `\n` (the grammar trims a
/// line before splitting it, so trailing whitespace delimits nothing).
fn another_field(bytes: &[u8], at: usize, delimiter: u8) -> bool {
    bytes.get(at) == Some(&delimiter)
        && (!is_space(delimiter)
            || bytes[at..]
                .iter()
                .find(|&&b| b == b'\n' || !is_space(b))
                .is_some_and(|&b| b != b'\n'))
}

/// Whether the delimiter could be read as part of a number (a digit, a
/// sign or `.`). The typed walk then takes no number in place, since it
/// reads a number's bytes without comparing each to the delimiter; the
/// fallback walks the field once the delimiter has cut it.
fn numeric_delimiter(delimiter: u8) -> bool {
    matches!(delimiter, b'0'..=b'9' | b'+' | b'-' | b'.')
}

/// Accumulate the decimal digits from `at` onto `acc`. Returns the value
/// (wrapped past 19 digits), the digit count and where the digits stop.
#[inline]
fn digits(bytes: &[u8], at: usize, mut acc: u64) -> (u64, usize, usize) {
    let mut n = 0;
    for &b in &bytes[at..] {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        acc = acc.wrapping_mul(10).wrapping_add(u64::from(d));
        n += 1;
    }
    (acc, n, at + n)
}

/// The typed walk's decimal from `at`: an optional `-` or `+`, then 1–18
/// digits, which fit `i64` and `u64` with no overflow check. Returns the
/// sign, the magnitude and where the digits stop; `Err` is where the walk
/// left the spelling.
#[inline]
fn short_decimal(bytes: &[u8], at: usize) -> Result<(bool, u64, usize), usize> {
    let (negative, from) = match bytes.get(at) {
        Some(b'-') => (true, at + 1),
        Some(b'+') => (false, at + 1),
        _ => (false, at),
    };
    let (m, n, end) = digits(bytes, from, 0);
    if (1..=18).contains(&n) {
        Ok((negative, m, end))
    } else {
        Err(end)
    }
}

#[inline]
fn short_int(bytes: &[u8], at: usize) -> Result<(i64, usize), usize> {
    let (negative, m, end) = short_decimal(bytes, at)?;
    #[allow(clippy::cast_possible_wrap)] // < 10^18
    let m = m as i64;
    Ok((if negative { -m } else { m }, end))
}

#[inline]
fn short_oid(bytes: &[u8], at: usize) -> Result<(Oid, usize), usize> {
    match short_decimal(bytes, at)? {
        (false, m, end) => Ok((m, end)),
        // `-0` included: a negative oid is `str::parse`'s to reject.
        (true, _, end) => Err(end),
    }
}

/// The typed walk's float from `at`: an optional `-`, digits, and
/// optionally `.` and more digits, at most 15 digits in all. `m / 10^frac`
/// is exact: the mantissa (< 10^15) and the power of ten are both exact
/// `f64`s, and one IEEE division rounds the exact quotient once, so it is
/// the correctly rounded value `str::parse` returns (Clinger's fast path).
/// The sign is applied after, exactly.
#[inline]
fn short_float(bytes: &[u8], at: usize) -> Result<(f64, usize), usize> {
    let negative = bytes.get(at) == Some(&b'-');
    let (mut m, whole, mut end) = digits(bytes, at + usize::from(negative), 0);
    let dot = bytes.get(end) == Some(&b'.');
    let mut frac = 0;
    if dot {
        (m, frac, end) = digits(bytes, end + 1, m);
    }
    if whole == 0 || (dot && frac == 0) || whole + frac > 15 {
        return Err(end);
    }
    #[allow(clippy::cast_precision_loss)] // < 10^15 < 2^53: exact
    let value = m as f64 / POW10[frac];
    Ok((if negative { -value } else { value }, end))
}

/// Land the typed walk's number when the field ends where `next` says it
/// may, returning where the walk goes on; `Err` is where it stopped.
fn land<T>(
    column: &mut Vec<T>,
    walked: Result<(T, usize), usize>,
    next: impl FnOnce(usize) -> Option<usize>,
) -> Result<usize, usize> {
    let (value, end) = walked?;
    let next = next(end).ok_or(end)?;
    column.push(value);
    Ok(next)
}

/// Append a field that parsed; `false` for one that did not.
fn push<T>(column: &mut Vec<T>, parsed: Option<T>) -> bool {
    parsed.map(|value| column.push(value)).is_some()
}

/// Parse the field at `at` into its typed column, `last` for the row's
/// last. Returns where the walk goes on: past the field's delimiter, or
/// past the line for the last field. `None` when the field does not parse
/// or the line's field count is off the schema's.
///
/// A number takes the typed walk in place when `typed` and its spelling
/// is canonical and runs right up to the byte that must end the field.
/// Every other field goes to [`fallback`].
fn walk_field(
    column: &mut Column,
    bytes: &[u8],
    at: usize,
    delimiter: u8,
    typed: bool,
    last: bool,
) -> Option<usize> {
    let next = |end: usize| match (last, bytes.get(end)) {
        (true, Some(b'\n')) => Some(end + 1),
        (true, None) => Some(end),
        (true, Some(_)) => None,
        (false, _) => another_field(bytes, end, delimiter).then_some(end + 1),
    };
    let walked = match column {
        Column::Int(v) if typed => land(v, short_int(bytes, at), next),
        Column::Oid(v) if typed => land(v, short_oid(bytes, at), next),
        Column::Float(v) if typed => land(v, short_float(bytes, at), next),
        _ => Err(at),
    };
    match walked {
        Ok(next) => Some(next),
        Err(stop) => fallback(column, bytes, at, stop, delimiter, last),
    }
}

/// A trimmed numeric field: the typed walk's value when it spans the whole
/// field, else `str::parse`, which also owns every error case.
fn number<T: std::str::FromStr>(
    field: &[u8],
    short: impl FnOnce(&[u8], usize) -> Result<(T, usize), usize>,
) -> Option<T> {
    match short(field, 0) {
        Ok((value, end)) if end == field.len() => Some(value),
        _ => std_parse(field),
    }
}

/// The rest of [`walk_field`]: the field from `at`, whose walk reached
/// `from`, trimmed and parsed by the grammar's rule, then the field count.
/// Never inlined, so the typed walk's loop stays small.
#[inline(never)]
fn fallback(
    column: &mut Column,
    bytes: &[u8],
    at: usize,
    from: usize,
    delimiter: u8,
    last: bool,
) -> Option<usize> {
    let end = field_end(bytes, from, delimiter);
    let field = trim(&bytes[at..end]);
    let landed = match column {
        Column::Int(v) => push(v, number(field, short_int)),
        Column::Oid(v) => push(v, number(field, short_oid)),
        Column::Float(v) => push(v, number(field, short_float)),
        Column::Bool(v) => push(v, parse_bool(field)),
        Column::Str(v) => push(v, parse_str(field)),
    };
    match (landed, another_field(bytes, end, delimiter)) {
        (true, false) if last => Some(line_end(bytes, end)),
        (true, true) if !last => Some(end + 1),
        _ => None,
    }
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
            let start = at;
            self.lines_seen += 1;
            while bytes.get(at).is_some_and(|&b| b != b'\n' && is_space(b)) {
                at += 1;
            }
            if bytes.get(at).is_none_or(|&b| b == b'\n') {
                at = line_end(bytes, at);
                continue;
            }
            let Some(column) = self.walk_row(bytes, &mut at) else {
                self.rows_ok += 1;
                out.rows += 1;
                continue;
            };
            at = line_end(bytes, at);
            self.rows_skipped += 1;
            out.rejected += 1;
            rejected_counter().inc();
            if self.policy == MalformedPolicy::Fail {
                let message = self.why_rejected(trim(&bytes[start..at]), column);
                return Err(CsvError { line: self.lines_seen, message });
            }
        }
        Ok((out, at))
    }

    /// Walk the fields of the non-blank line at `at` once, parsing each in
    /// place into its pending column. A row that lands leaves `at` at the
    /// next line. A field that does not parse, or a field count off the
    /// schema's, rolls the columns back to where the row started, leaves
    /// `at` inside the line and returns the column the row failed at.
    fn walk_row(&mut self, bytes: &[u8], at: &mut usize) -> Option<usize> {
        let row_base = self.pending_rows();
        let delimiter = self.delimiter;
        let typed = !numeric_delimiter(delimiter);
        let last = self.pending.len().wrapping_sub(1);
        let failed = self.pending.iter_mut().enumerate().position(|(i, col)| {
            match walk_field(col, bytes, *at, delimiter, typed, i == last) {
                Some(next) => {
                    *at = next;
                    false
                }
                None => true,
            }
        });
        // With no columns, the line's one field is a surplus one.
        let failed = failed.or(self.pending.is_empty().then_some(0));
        if failed.is_some() {
            for col in &mut self.pending {
                col.truncate(row_base);
            }
        }
        failed
    }

    /// The [`CsvError::message`] for a line rejected at `column`: the
    /// field count when it is off, else the offending field.
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
    /// Generic over the ingest edge: a [`crate::ShardedBasket`], or a
    /// bench's discarding sink.
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
        ShardedBasket::new(Basket::new("s", &[("x", DataType::Int), ("y", DataType::Float)]))
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
    fn csv_empty_schema_rejects_every_non_blank_line() {
        let mut r = CsvReceptor::new(&[]).with_policy(MalformedPolicy::Fail);
        let err = r.parse("\n \nx\n").unwrap_err();
        assert_eq!(err, CsvError { line: 3, message: "expected 0 fields, found 1".into() });
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
        let b = ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]));
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
        let b = ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]));
        r.flush_into(&b, 0).unwrap();
        let Column::Int(v) = &r.pending[0] else { panic!("int column") };
        assert_eq!((v.len(), v.capacity()), (0, cap));
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
