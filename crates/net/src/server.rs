//! The event loop: one thread, one [`Engine`], many sockets.
//!
//! Each pass runs accept, read/parse, flush ingest batches, run the
//! scheduler and fan results out, then writes whatever the sockets will
//! take without blocking. A pass that made no progress ends in one
//! `poll(2)` over the sockets the next pass could act on, bounded by
//! [`NetConfig::tick`], so a row that lands while the loop is idle is read
//! the moment it arrives, not at the end of a sleep. Owning the engine on
//! the loop thread (instead of sharing it behind a mutex) keeps per-query
//! result order identical to an in-process run: the scheduler only ever
//! runs between socket passes, exactly like a driver program alternating
//! `append` and `run_until_idle`.

use crate::conn::{Conn, Role};
use crate::{NetConfig, NetStats};
use datacell_basket::{CsvReceptor, Timestamp};
use datacell_core::{Engine, ResultSet};
use datacell_kernel::{Column, DataType};
use datacell_telemetry::render_text;
use std::any::Any;
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Handle to a running network edge. Spawned with an [`Engine`] it owns
/// until [`NetServer::shutdown`] hands it back; dropping the handle stops
/// the server and discards the engine.
pub struct NetServer {
    local: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: NetStats,
    thread: Option<JoinHandle<Engine>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving the engine on a dedicated loop thread. Bind errors surface
    /// here, synchronously.
    pub fn spawn(engine: Engine, addr: &str, cfg: NetConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = NetStats::new();
        let ev = EventLoop {
            engine,
            cfg,
            stats: stats.clone(),
            listener,
            stop: Arc::clone(&stop),
            conns: Vec::new(),
            render: Vec::new(),
        };
        let thread = thread::Builder::new().name("datacell-net".into()).spawn(move || ev.run())?;
        Ok(NetServer { local, stop, stats, thread: Some(thread) })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Live server counters (clonable atomic handles).
    #[must_use]
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Stop the loop, flush what can be flushed, and hand the engine back
    /// for inspection. Takes up to one [`NetConfig::tick`] to be noticed.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Other`] carrying the panic message if the loop
    /// thread panicked; the engine went down with it.
    pub fn shutdown(mut self) -> io::Result<Engine> {
        self.stop.store(true, Ordering::Release);
        match self.thread.take() {
            Some(t) => t.join().map_err(loop_panic),
            // `thread` is only vacated by this method or by `Drop`, both of
            // which consume the handle; keep the signature total anyway.
            None => Err(io::Error::other("event loop already stopped")),
        }
    }
}

/// A panic that unwound out of the loop thread, as the error `shutdown`
/// returns: its message when the payload is the usual `&str` or `String`.
fn loop_panic(payload: Box<dyn Any + Send>) -> io::Error {
    let msg = match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().map_or("event loop panicked", |m| *m).into(),
    };
    io::Error::other(msg)
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            drop(t.join());
        }
    }
}

struct EventLoop {
    engine: Engine,
    cfg: NetConfig,
    stats: NetStats,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    conns: Vec<Conn>,
    /// One query's rendered results, cleared per query and reused, so it
    /// grows to the largest pass's output once instead of every pass.
    render: Vec<u8>,
}

impl EventLoop {
    fn run(mut self) -> Engine {
        while !self.stop.load(Ordering::Acquire) {
            let mut busy = self.accept_new();
            busy |= self.pump();
            busy |= self.flush_ingest();
            self.run_engine();
            busy |= self.fan_out();
            busy |= self.write_all();
            self.reap();
            if !busy {
                self.wait(true);
            }
        }
        self.finish()
    }

    /// Block until a socket the next pass can act on is ready, or for at
    /// most one tick: the listener and each connection still reading (not
    /// at EOF, not an ingest connection held by the staging valve) for
    /// input, each connection with queued bytes for output. A connection
    /// with neither is left out: `poll` reports hang-ups on every fd it is
    /// given, and one the loop will not touch would wake it forever. The
    /// shutdown path only writes (`reading == false`).
    #[cfg(unix)]
    fn wait(&self, reading: bool) {
        use crate::poll::{self, PollFd, POLLIN, POLLOUT};
        use std::os::unix::io::AsRawFd;
        let paused = reading && self.ingest_backlog() > self.cfg.staging_budget;
        let mut fds = Vec::with_capacity(self.conns.len() + 1);
        if reading {
            fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        }
        for conn in self.conns.iter().filter(|c| !c.dead) {
            let mut events = 0;
            if reading && !conn.eof && !(paused && conn.is_ingest()) {
                events |= POLLIN;
            }
            if !conn.outbuf.unconsumed().is_empty() {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(conn.sock.as_raw_fd(), events));
            }
        }
        match poll::wait(&mut fds, self.cfg.tick) {
            Ok(0) => self.stats.wakeups_timeout.inc(),
            Ok(_) => self.stats.wakeups_ready.inc(),
            // A signal: straight back round the loop.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Anything else would fail again at once; fall back to a tick.
            Err(_) => thread::sleep(self.cfg.tick),
        }
    }

    /// Without `poll(2)` the loop sleeps out the tick.
    #[cfg(not(unix))]
    fn wait(&self, _reading: bool) {
        thread::sleep(self.cfg.tick);
        self.stats.wakeups_timeout.inc();
    }

    /// Accept every connection waiting on the listener.
    fn accept_new(&mut self) -> bool {
        let mut any = false;
        loop {
            match self.listener.accept() {
                Ok((sock, peer)) => {
                    if sock.set_nonblocking(true).is_err() {
                        continue;
                    }
                    drop(sock.set_nodelay(true)); // best effort
                    self.conns.push(Conn::new(sock, peer.to_string()));
                    self.stats.connection_opened();
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        any
    }

    /// Unconsumed backlog across the distinct streams being ingested: rows
    /// still retained in their baskets.
    fn ingest_backlog(&self) -> usize {
        let mut seen: HashMap<&str, usize> = HashMap::new();
        for conn in &self.conns {
            if conn.dead {
                continue;
            }
            if let Role::Ingest { stream, basket, .. } = &conn.role {
                seen.entry(stream.as_str()).or_insert_with(|| basket.len());
            }
        }
        seen.values().sum()
    }

    /// Read every socket (ingest sockets only while under the staging
    /// budget); dispatch handshake lines, parse ingest bytes in place.
    fn pump(&mut self) -> bool {
        let paused = self.ingest_backlog() > self.cfg.staging_budget;
        if paused {
            self.stats.backpressure_ticks.inc();
        }
        let mut busy = false;
        let engine = &mut self.engine;
        let stats = &self.stats;
        let cfg = &self.cfg;
        for conn in &mut self.conns {
            if conn.dead || (paused && conn.is_ingest()) {
                continue;
            }
            let n = conn.read_available();
            if n > 0 {
                stats.rx_bytes.add(n as u64);
                busy = true;
            }
            let input = conn.inbuf.unconsumed();
            if input.len() > cfg.max_line && !input.contains(&b'\n') {
                stats.errors.inc();
                conn.fail("line too long");
                continue;
            }
            // The first line picks the role. Once it is `Ingest` the rest
            // of the input is rows, which never become lines.
            while !conn.is_ingest() {
                let Some(line) = conn.inbuf.take_line(conn.eof) else { break };
                busy = true;
                handle_line(engine, stats, conn, &line);
            }
            busy |= ingest_available(engine.clock(), stats, cfg, conn);
            if conn.eof && conn.inbuf.unconsumed().is_empty() {
                match conn.role {
                    // Ingest connections die in `flush_ingest`, after
                    // their final batch lands.
                    Role::Ingest { .. } => {}
                    Role::Drain => {
                        if conn.outbuf.unconsumed().is_empty() {
                            conn.dead = true;
                        }
                    }
                    Role::Handshake | Role::Subscribe { .. } => conn.dead = true,
                }
            }
        }
        busy
    }

    /// Flush every connection's pending CSV batch into its basket; one
    /// clock tick per round that delivered rows.
    fn flush_ingest(&mut self) -> bool {
        let clock = self.engine.clock();
        let stats = &self.stats;
        let mut flushed = 0;
        for conn in &mut self.conns {
            if conn.dead {
                continue;
            }
            if let Role::Ingest { stream, basket, receptor } = &mut conn.role {
                let pending = receptor.pending_rows();
                if pending > 0 {
                    match receptor.flush_into(basket, clock) {
                        Ok(_) => flushed += pending,
                        Err(e) => {
                            stats.errors.inc();
                            eprintln!("datacell-net: flush into `{stream}` failed: {e}");
                            conn.dead = true;
                            continue;
                        }
                    }
                }
                if conn.eof && conn.inbuf.unconsumed().is_empty() {
                    conn.dead = true;
                }
            }
        }
        if flushed > 0 {
            self.engine.advance_clock(clock + 1);
        }
        flushed > 0
    }

    fn run_engine(&mut self) {
        if let Err(e) = self.engine.run_until_idle() {
            self.stats.errors.inc();
            eprintln!("datacell-net: scheduler error: {e}");
        }
    }

    /// Drain every query's results and deliver them: a query with at
    /// least one live subscriber has the pass's results rendered once and
    /// the bytes appended to each subscriber's bounded queue — or that
    /// subscriber disconnected when they would overflow it. A subscriber
    /// receives exactly what is drained while it is attached; unwatched
    /// results are discarded, so the server stays bounded without
    /// subscribers.
    fn fan_out(&mut self) -> bool {
        let stats = &self.stats;
        let queue = self.cfg.subscriber_queue;
        let mut busy = false;
        for (qid, label) in self.engine.queries() {
            let Ok(results) = self.engine.drain_results(qid) else { continue };
            if results.is_empty() {
                continue;
            }
            busy = true;
            let mut subscribers = self
                .conns
                .iter_mut()
                .filter(|c| !c.dead && matches!(c.role, Role::Subscribe { query } if query == qid))
                .peekable();
            if subscribers.peek().is_none() {
                continue; // no live subscriber: results dropped on the floor
            }
            let started = datacell_telemetry::timer();
            let bytes = &mut self.render;
            bytes.clear();
            for rs in &results {
                render_csv(rs, bytes);
            }
            stats.render_seconds.record_since(started);
            let rows: usize = results.iter().map(ResultSet::len).sum();
            for conn in subscribers {
                if conn.outbuf.unconsumed().len() + bytes.len() > queue {
                    stats.subscriber_overflows.inc();
                    eprintln!(
                        "datacell-net: subscriber {} on `{label}` overflowed its {queue}-byte queue; disconnecting",
                        conn.peer
                    );
                    conn.dead = true;
                    continue;
                }
                conn.outbuf.push(bytes);
                stats.fanout_rows.add(rows as u64);
            }
        }
        busy
    }

    /// Write whatever each socket will take without blocking.
    fn write_all(&mut self) -> bool {
        let stats = &self.stats;
        let mut started = None;
        let mut busy = false;
        for conn in &mut self.conns {
            if conn.dead || conn.outbuf.unconsumed().is_empty() {
                continue;
            }
            if started.is_none() {
                started = datacell_telemetry::timer();
            }
            let n = conn.write_available();
            if n > 0 {
                stats.tx_bytes.add(n as u64);
                busy = true;
            }
        }
        if busy {
            stats.write_seconds.record_since(started);
        }
        busy
    }

    /// Remove dead connections.
    fn reap(&mut self) {
        let stats = &self.stats;
        self.conns.retain(|conn| {
            if conn.dead {
                stats.connection_closed();
            }
            !conn.dead
        });
    }

    /// Shutdown path: land pending batches, run the scheduler once more,
    /// fan out, and give sockets a grace period of up to 64 ticks to drain.
    fn finish(mut self) -> Engine {
        self.flush_ingest();
        self.run_engine();
        self.fan_out();
        for _ in 0..64 {
            self.write_all();
            if self.conns.iter().all(|c| c.dead || c.outbuf.unconsumed().is_empty()) {
                break;
            }
            self.wait(false);
        }
        self.engine
    }
}

/// Dispatch one complete line of a connection that is not (yet) ingesting.
fn handle_line(engine: &mut Engine, stats: &NetStats, conn: &mut Conn, line: &str) {
    match conn.role {
        Role::Handshake => handshake(engine, stats, conn, line),
        Role::Subscribe { .. } => {
            stats.errors.inc();
            conn.fail("unexpected input on a subscriber connection");
        }
        // Ingest rows go through `ingest_available`; trailing HTTP headers
        // and the like are ignored.
        Role::Ingest { .. } | Role::Drain => {}
    }
}

/// First line of a connection: `INGEST` / `SUBSCRIBE` / `GET /metrics`.
fn handshake(engine: &mut Engine, stats: &NetStats, conn: &mut Conn, line: &str) {
    let mut it = line.split_whitespace();
    match it.next().unwrap_or("") {
        "INGEST" => {
            let Some(stream) = it.next() else {
                stats.errors.inc();
                conn.fail("usage: INGEST <stream>");
                return;
            };
            match engine.basket(stream) {
                // Accepted silently: an ingest connection is write-only, so
                // a writer may close without ever reading. Replying here
                // would arm TCP's reset-on-close-with-unread-data and
                // discard the writer's final rows in flight.
                Ok(basket) => {
                    let types: Vec<DataType> =
                        basket.with(|b| b.schema().iter().map(|&(_, t)| t).collect());
                    conn.role = Role::Ingest {
                        stream: stream.to_owned(),
                        basket,
                        receptor: CsvReceptor::new(&types),
                    };
                }
                Err(_) => {
                    stats.errors.inc();
                    conn.fail(&format!("unknown stream {stream}"));
                }
            }
        }
        "SUBSCRIBE" => {
            let Some(label) = it.next() else {
                stats.errors.inc();
                conn.fail("usage: SUBSCRIBE <query-label>");
                return;
            };
            match engine.queries().into_iter().find(|(_, l)| l == label) {
                Some((query, _)) => {
                    conn.outbuf.push(format!("OK subscribe {label}\n").as_bytes());
                    conn.role = Role::Subscribe { query };
                }
                None => {
                    stats.errors.inc();
                    conn.fail(&format!("unknown query {label}"));
                }
            }
        }
        "GET" => {
            if it.next() == Some("/metrics") {
                stats.metrics_requests.inc();
                http_response(conn, "200 OK", &metrics_body(engine, stats));
            } else {
                stats.errors.inc();
                http_response(conn, "404 Not Found", "only /metrics is served\n");
            }
            conn.role = Role::Drain;
            conn.close_after_flush = true;
        }
        _ => {
            stats.errors.inc();
            conn.fail("unknown command (INGEST <stream> | SUBSCRIBE <label> | GET /metrics)");
        }
    }
}

/// Parse what an ingest connection has read, in place: every complete line
/// (up to the last `\n`; everything once the peer sent EOF — a closing
/// client's last row counts without a trailing newline) goes through
/// [`CsvReceptor::parse_bytes`] straight from the input buffer, flushing
/// into the basket whenever [`NetConfig::batch_rows`] rows are pending.
/// Returns whether anything was consumed.
fn ingest_available(clock: Timestamp, stats: &NetStats, cfg: &NetConfig, conn: &mut Conn) -> bool {
    let Role::Ingest { stream, basket, receptor } = &mut conn.role else { return false };
    let input = conn.inbuf.unconsumed();
    let end = if conn.eof {
        input.len()
    } else {
        input.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1)
    };
    if end == 0 {
        return false;
    }
    let batch_rows = cfg.batch_rows.max(1);
    let mut at = 0;
    let mut parsing = Duration::ZERO;
    let mut csv_error = None;
    while at < end {
        let started = datacell_telemetry::timer();
        let parsed = receptor.parse_bytes(&input[at..end], batch_rows);
        if let Some(t) = started {
            parsing += t.elapsed();
        }
        match parsed {
            Ok((outcome, used)) => {
                stats.ingest_rows.add(outcome.rows as u64);
                at += used;
            }
            // Only reachable under `MalformedPolicy::Fail`; server
            // receptors use the default skip-and-count policy, so rejects
            // are counters, not connection errors.
            Err(e) => {
                csv_error = Some(e);
                break;
            }
        }
        if receptor.pending_rows() >= batch_rows {
            if let Err(e) = receptor.flush_into(basket, clock) {
                stats.errors.inc();
                eprintln!("datacell-net: flush into `{stream}` failed: {e}");
                conn.dead = true;
                break;
            }
        }
    }
    if datacell_telemetry::enabled() {
        stats.parse_seconds.record(parsing);
    }
    conn.inbuf.consume(end);
    if let Some(e) = csv_error {
        stats.errors.inc();
        conn.fail(&format!("csv: {e}"));
    }
    true
}

/// Engine snapshot plus this server's families, in Prometheus text format.
fn metrics_body(engine: &Engine, stats: &NetStats) -> String {
    let mut snap = engine.telemetry_snapshot();
    stats.extend_snapshot(&mut snap);
    render_text(&snap)
}

/// Minimal one-shot HTTP response (the connection closes after flushing).
fn http_response(conn: &mut Conn, status: &str, body: &str) {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.outbuf.push(head.as_bytes());
    conn.outbuf.push(body.as_bytes());
}

/// Append a result's rows to `out` as CSV lines, one row per line, each
/// value written straight from its typed column in the display form of
/// [`datacell_kernel::Value`] (`Oid`s as `<n>@oid`), without building a
/// `Value` per cell. An empty result appends nothing.
fn render_csv(rs: &ResultSet, out: &mut Vec<u8>) {
    let cols = rs.columns();
    for i in 0..rs.len() {
        for (j, col) in cols.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            // `ResultSet::new` keeps the columns aligned, so `i` is in range.
            match col {
                Column::Int(v) => push_int(out, v[i]),
                Column::Str(v) => out.extend_from_slice(v[i].as_bytes()),
                Column::Bool(v) => out.extend_from_slice(if v[i] { b"true" } else { b"false" }),
                Column::Float(v) => {
                    let _ = write!(out, "{}", v[i]);
                }
                Column::Oid(v) => {
                    let _ = write!(out, "{}@oid", v[i]);
                }
            }
        }
        out.push(b'\n');
    }
}

/// The decimal pairs `00`..`99`, so `push_int` divides once per two digits.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append `v` in decimal: digits written back to front, two at a time,
/// into a stack buffer from its magnitude, which also covers `i64::MIN`.
fn push_int(out: &mut Vec<u8>, v: i64) {
    let mut buf = [0u8; 20]; // a sign and i64::MIN's 19 digits
    let mut at = buf.len();
    let mut n = v.unsigned_abs();
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.extend_from_slice(&buf[at..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_kernel::Column;
    use datacell_telemetry::parse_text;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn engine_with_stream() -> Engine {
        let mut e = Engine::new();
        e.create_stream("s", &[("x", DataType::Int), ("y", DataType::Float)]).unwrap();
        e
    }

    fn connect(server: &NetServer) -> TcpStream {
        let sock = TcpStream::connect(server.local_addr()).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        sock
    }

    #[test]
    fn ingest_lands_rows_in_the_basket() {
        let server =
            NetServer::spawn(engine_with_stream(), "127.0.0.1:0", NetConfig::default()).unwrap();
        let mut sock = connect(&server);
        // No ack on success: a writer may fire-and-forget and close.
        sock.write_all(b"INGEST s\n1,0.5\n2,1.5\n3,2.5\n").unwrap();
        drop(sock); // EOF: the server flushes the final batch
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats().ingest_rows.get() < 3 {
            assert!(std::time::Instant::now() < deadline, "rows never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        let engine = server.shutdown().unwrap();
        assert_eq!(engine.basket_len("s").unwrap(), 3);
    }

    /// Feed `stream` to a fresh ingest connection in the given read
    /// fragments (one `ingest_available` per fragment, then EOF) and return
    /// what landed: the basket's columns, the receptor's rejects, and the
    /// `ingest_rows` counter.
    fn ingest_fragmented(stream: &[u8], cuts: &[usize]) -> (Vec<Column>, usize, u64) {
        let engine = engine_with_stream();
        let basket = engine.basket("s").unwrap();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, addr) = listener.accept().unwrap();
        let mut conn = Conn::new(sock, addr.to_string());
        conn.role = Role::Ingest {
            stream: "s".to_owned(),
            basket: basket.clone(),
            receptor: CsvReceptor::new(&[DataType::Int, DataType::Float]),
        };
        let stats = NetStats::new();
        let cfg = NetConfig { batch_rows: 2, ..NetConfig::default() };
        let mut from = 0;
        for &to in cuts.iter().chain([&stream.len()]) {
            conn.inbuf.push(&stream[from..to]);
            conn.eof = to == stream.len();
            ingest_available(engine.clock(), &stats, &cfg, &mut conn);
            from = to;
        }
        assert!(conn.inbuf.unconsumed().is_empty(), "EOF consumes the tail");
        let Role::Ingest { receptor, .. } = &mut conn.role else { panic!("still ingesting") };
        receptor.flush_into(&basket, engine.clock()).unwrap();
        let cols = basket.with(|b| {
            let w = b.snapshot();
            vec![w.col(0).unwrap().clone(), w.col(1).unwrap().clone()]
        });
        (cols, receptor.rows_skipped(), stats.ingest_rows.get())
    }

    #[test]
    fn ingest_is_invariant_under_read_fragmentation() {
        // CRLF and LF rows, a blank line, a malformed row, and a final row
        // with no newline before EOF.
        let stream = b"1,0.5\r\n22,1.5\nbad,row\n\n333, 2.5 \r\n4444,3.5";
        let whole = ingest_fragmented(stream, &[]);
        assert_eq!(
            whole,
            (
                vec![Column::Int(vec![1, 22, 333, 4444]), Column::Float(vec![0.5, 1.5, 2.5, 3.5])],
                1,
                4
            )
        );
        // Every single cut — inside a field, between `\r` and `\n`, right
        // before the unterminated last row — and one byte per read.
        for cut in 1..stream.len() {
            assert_eq!(ingest_fragmented(stream, &[cut]), whole, "cut at {cut}");
        }
        let every_byte: Vec<usize> = (1..stream.len()).collect();
        assert_eq!(ingest_fragmented(stream, &every_byte), whole);
    }

    /// The oracle: each row's values through [`datacell_kernel::Value`]'s
    /// `Display`, comma-joined, one line per row.
    fn value_display(rs: &ResultSet) -> Vec<u8> {
        let mut out = String::new();
        for row in rs.rows() {
            let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out.into_bytes()
    }

    fn rendered(rs: &ResultSet) -> Vec<u8> {
        let mut out = Vec::new();
        render_csv(rs, &mut out);
        out
    }

    fn one_column(col: Column) -> ResultSet {
        ResultSet::new(vec!["c".into()], vec![col]).unwrap()
    }

    #[test]
    fn render_csv_is_byte_identical_to_value_display() {
        let rs = ResultSet::new(
            ["i", "f", "s", "b", "o"].map(String::from).to_vec(),
            vec![
                Column::Int(vec![-7, 8]),
                Column::Float(vec![0.5, 3.0]),
                Column::Str(vec!["ab".into(), String::new()]),
                Column::Bool(vec![true, false]),
                Column::Oid(vec![0, 42]),
            ],
        )
        .unwrap();
        assert_eq!(rendered(&rs), b"-7,0.5,ab,true,0@oid\n8,3,,false,42@oid\n");
        assert_eq!(rendered(&rs), value_display(&rs));

        let edges = [
            Column::Int(vec![i64::MIN, i64::MAX, 0, -1, 9, 10, -10, 99, 100, -101]),
            Column::Float(vec![
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                1e21,
                1e-7,
                0.1 + 0.2,
            ]),
            Column::Str(vec![String::new(), "h\u{e9}llo \u{2713}".into(), "\u{1f980}".into()]),
            Column::Bool(vec![true, false]),
            Column::Oid(vec![0, u64::MAX]),
        ];
        for col in edges {
            let rs = one_column(col);
            assert_eq!(rendered(&rs), value_display(&rs), "{rs:?}");
        }
        assert_eq!(
            rendered(&one_column(Column::Int(vec![i64::MIN, i64::MAX]))),
            b"-9223372036854775808\n9223372036854775807\n"
        );
        assert_eq!(
            rendered(&one_column(Column::Oid(vec![u64::MAX]))),
            b"18446744073709551615@oid\n"
        );

        // Empty results (zero columns, or columns without rows) append nothing.
        let mut out = b"kept".to_vec();
        render_csv(&ResultSet::empty(), &mut out);
        render_csv(&one_column(Column::Int(vec![])), &mut out);
        assert_eq!(out, b"kept");
    }

    #[test]
    fn render_csv_matches_value_display_on_random_results() {
        // xorshift64: deterministic, no dependency.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const CHARS: [char; 6] = ['a', 'Z', '0', ' ', '\u{e9}', '\u{1f980}'];
        let mut appended = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..500 {
            let ncols = 1 + (next() % 5) as usize;
            let nrows = (next() % 9) as usize;
            let mut cols = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let col = match next() % 5 {
                    // Full-range bits half the time, small magnitudes otherwise.
                    0 => Column::Int(
                        (0..nrows)
                            .map(|_| match next() % 2 {
                                0 => next() as i64,
                                _ => (next() % 2001) as i64 - 1000,
                            })
                            .collect(),
                    ),
                    1 => Column::Float(
                        (0..nrows)
                            .map(|_| match next() % 2 {
                                0 => f64::from_bits(next()),
                                _ => (next() % 20001) as f64 / 64.0 - 150.0,
                            })
                            .collect(),
                    ),
                    2 => Column::Str(
                        (0..nrows)
                            .map(|_| {
                                (0..next() % 6).map(|_| CHARS[(next() % 6) as usize]).collect()
                            })
                            .collect(),
                    ),
                    3 => Column::Bool((0..nrows).map(|_| next() % 2 == 0).collect()),
                    _ => Column::Oid((0..nrows).map(|_| next() >> (next() % 64)).collect()),
                };
                cols.push(col);
            }
            let names = (0..ncols).map(|j| format!("c{j}")).collect();
            let rs = ResultSet::new(names, cols).unwrap();
            let want = value_display(&rs);
            assert_eq!(rendered(&rs), want, "{rs:?}");
            // Rendering appends: a pass renders many results into one buffer.
            render_csv(&rs, &mut appended);
            expected.extend_from_slice(&want);
        }
        assert_eq!(appended, expected);
    }

    #[test]
    fn a_loop_panic_becomes_an_other_error_with_its_message() {
        let payloads: [(Box<dyn Any + Send>, &str); 3] = [
            (Box::new("static message"), "static message"),
            (Box::new(format!("formatted {}", 7)), "formatted 7"),
            (Box::new(7_u32), "event loop panicked"),
        ];
        for (payload, want) in payloads {
            let err = loop_panic(payload);
            assert_eq!(err.kind(), io::ErrorKind::Other);
            assert_eq!(err.to_string(), want);
        }
    }

    #[test]
    fn unknown_stream_and_command_get_err_lines() {
        let server =
            NetServer::spawn(engine_with_stream(), "127.0.0.1:0", NetConfig::default()).unwrap();
        for (req, want) in
            [("INGEST nope\n", "ERR unknown stream nope\n"), ("FROB x\n", "ERR unknown command")]
        {
            let mut sock = connect(&server);
            sock.write_all(req.as_bytes()).unwrap();
            let mut line = String::new();
            BufReader::new(&sock).read_line(&mut line).unwrap();
            assert!(line.starts_with(want.trim_end_matches('\n')), "got {line:?} for {req:?}");
        }
        assert!(server.stats().errors.get() >= 2);
        drop(server);
    }

    #[test]
    fn metrics_endpoint_serves_strictly_parseable_text() {
        let server =
            NetServer::spawn(engine_with_stream(), "127.0.0.1:0", NetConfig::default()).unwrap();
        let mut sock = connect(&server);
        sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        use std::io::Read;
        sock.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "bad status: {response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        let parsed = parse_text(body).unwrap();
        assert!(parsed.get("datacell_net_connections_total", &[]).unwrap() >= 1.0);
        assert!(parsed.families_without_help().is_empty());
        drop(server);
    }

    #[test]
    fn unwatched_queries_do_not_accumulate_results() {
        // No subscriber: the server drains every query each pass and
        // discards the results, so outputs stay bounded.
        let mut engine = engine_with_stream();
        let q = engine
            .register_sql("SELECT count(x) FROM s WINDOW SIZE 2 SLIDE 2")
            .expect("count query");
        let server = NetServer::spawn(engine, "127.0.0.1:0", NetConfig::default()).unwrap();
        let mut sock = connect(&server);
        sock.write_all(b"INGEST s\n1,0.5\n2,1.5\n3,2.5\n4,3.5\n").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats().ingest_rows.get() < 4 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20)); // a few passes to drain
        let mut engine = server.shutdown().unwrap();
        // The two emitted windows were discarded, not queued.
        assert_eq!(engine.drain_results(q).unwrap().len(), 0);
    }
}
