//! # datacell-net
//!
//! The network edge of DataCell: the receptor/emitter processes of the
//! paper's Fig. 1 made wire-facing. "It contains receptors and emitters,
//! i.e., a set of separate processes per stream and per client,
//! respectively, to listen for new data and to deliver results" (paper §2)
//! — here one nonblocking TCP event loop multiplexing many client
//! connections onto the engine's stream baskets and draining query
//! results back out to subscribers.
//!
//! The crate is deliberately **std-only**: a `poll(2)` loop over
//! nonblocking `std::net` sockets, no async runtime, no vendored reactor —
//! `poll` itself is one `extern "C"` declaration against the libc std
//! already links (unix; elsewhere the loop sleeps out its tick). One thread
//! owns the [`datacell_core::Engine`] outright (no mutex around the engine)
//! and interleaves socket work with scheduler work, which keeps per-query
//! result order byte-identical to an in-process run.
//!
//! ## Protocol
//!
//! Line-framed text; the first line of a connection selects its role:
//!
//! * `INGEST <stream>` — every following line is one CSV row for
//!   `<stream>`, parsed with the same [`datacell_basket::CsvReceptor`] as
//!   the in-process loading path (malformed rows are counted and skipped,
//!   never fatal; the grammar is on the receptor). Rows are batched per
//!   connection and flushed into the stream's
//!   [`datacell_basket::ShardedBasket`] once per loop pass or every
//!   [`NetConfig::batch_rows`] rows, whichever comes first. The
//!   server accepts **silently** (an ingest connection is write-only — a
//!   reply would arm TCP's reset-on-close-with-unread-data against writers
//!   that never read) and answers only errors: `ERR unknown stream <s>`.
//! * `SUBSCRIBE <label>` — attach to the continuous query with that label
//!   (`q0`, `q1`, … — see `Engine::queries`). The server replies
//!   `OK subscribe <label>` and then streams every result row the query
//!   emits from this point on, one CSV line per row.
//! * `GET /metrics` — one-shot HTTP: the engine's full telemetry snapshot
//!   plus this server's `datacell_net_*` families in Prometheus text
//!   format, then the connection closes.
//!
//! ## The ingest byte path
//!
//! Only a connection's first line (and a `GET`'s headers) is ever turned
//! into a `String`. From then on an ingest connection's bytes are touched
//! once: the socket is read straight into the spare capacity of the
//! connection's input buffer, the loop hands the receptor the prefix of
//! that buffer up to its last `\n` (all of it once the peer has closed —
//! a final row needs no newline), and
//! [`datacell_basket::CsvReceptor::parse_bytes`] scans lines and fields
//! in place and appends each value to the typed pending column it belongs
//! to — no per-row allocation (a `Str` field owns its text), no line or
//! field vectors. What was parsed is dropped by advancing a read offset;
//! the buffer is compacted only when it is empty or more than half
//! consumed. Because the receptor only ever sees whole lines, how TCP cut
//! the stream into reads cannot change what lands in the basket. Time in
//! the parser is exposed as `datacell_net_parse_seconds`, one observation
//! per ingest connection per loop pass.
//!
//! ## The egress byte path
//!
//! `Engine::drain_results` is the output basket of the paper's Fig. 1 and
//! this loop is its emitter: nothing is buffered in between. Each pass the
//! loop drains every query; for a query with at least one live subscriber
//! it renders the drained `ResultSet`s **once** into one buffer of CSV
//! lines and appends that buffer to each subscriber's queue. The render is
//! the mirror of `parse_bytes`: each cell is written from its typed column
//! slice — an `Int` by a digit loop, a `Str` as its bytes, a `Bool` as its
//! literal, `Float` and `Oid` through `write!` of the bare number — with no
//! per-cell `Value` and no `String` clone, byte-identical to the `Value`
//! display form. The loop owns that buffer and clears it per query, so it
//! grows to the largest output once, not every pass. The socket takes what
//! it will without blocking and the queue drops it by advancing a read
//! offset — the same offset-consumed buffer the input side uses, compacted
//! only when empty or more than half consumed, so a partial write never
//! shifts the rest.
//! A subscriber receives exactly the results drained while it is
//! attached: a late joiner sees results from its `OK` on, never history.
//! Time in the renderer is exposed as `datacell_net_render_seconds`, one
//! observation per query per loop pass that rendered for a subscriber, and
//! time writing sockets as `datacell_net_write_seconds`, one observation
//! per loop pass that wrote bytes; like the parse histogram, both are timed
//! only while `DATACELL_TELEMETRY` is on.
//!
//! ## Backpressure and slow consumers
//!
//! Two explicit safety valves, both observable in `/metrics`:
//!
//! * **Ingest backpressure** — when the total unconsumed backlog across all
//!   actively-ingesting streams (rows retained in their baskets) exceeds
//!   [`NetConfig::staging_budget`], the loop
//!   stops *reading* ingest sockets. Kernel TCP buffers fill and the
//!   senders block: flow control reaches the producer without any
//!   unbounded queue inside the engine.
//! * **Subscriber overflow** — each subscriber has a bounded outbound
//!   byte queue ([`NetConfig::subscriber_queue`]), the only egress state
//!   that outlives a pass. A subscriber that stops reading is disconnected
//!   (and logged) the moment a delivery would overflow its queue. It holds
//!   nothing inside the engine — no cursor, no stake on any basket — so a
//!   stalled client cannot hold back basket expiry or another subscriber.
//!
//! Results of a query with **no** live subscribers are drained and
//! discarded, so an unwatched server stays bounded no matter how many
//! queries it runs.

mod conn;
#[cfg(unix)]
mod poll;
mod server;
mod stats;

pub use server::NetServer;
pub use stats::NetStats;

use std::time::Duration;

/// Tuning knobs for [`NetServer::spawn`]. `Default` is sized for tests and
/// small deployments.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Flush a connection's parsed-but-unflushed CSV rows into its basket
    /// once this many are pending, even mid-pass. Batching amortizes the
    /// basket lock; every pass ends with a flush regardless, so this bounds
    /// per-connection memory, not latency.
    pub batch_rows: usize,
    /// Total rows retained in the baskets of actively-ingesting
    /// streams above which the loop stops reading ingest sockets until the
    /// scheduler catches up.
    pub staging_budget: usize,
    /// Maximum buffered outbound bytes per subscriber. A delivery that
    /// would exceed it disconnects the subscriber instead of queueing.
    pub subscriber_queue: usize,
    /// Longest line a client may send before the connection is dropped as
    /// malformed (guards the input buffer against a client that never
    /// sends a newline).
    pub max_line: usize,
    /// Longest the loop blocks when no socket is ready; also how often it
    /// checks the stop flag.
    pub tick: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            batch_rows: 256,
            staging_budget: 1 << 16,
            subscriber_queue: 1 << 20,
            max_line: 1 << 16,
            tick: Duration::from_millis(1),
        }
    }
}
