//! The system under test and the two load-generator threads.
//!
//! The server is the real `datacell_net::NetServer` on a localhost port,
//! spawned in-process with `Engine::new()` and `NetConfig::default()`. Load
//! comes from exactly two threads: the *writer* (the thread that calls
//! into [`Session`]) and one *subscriber-reader* that verifies every byte
//! against the periodic reference and stamps each window's arrival.

use crate::reference::{build_engine, Mismatch, Reference, Verifier};
use crate::stats;
use crate::workloads::{self, Ring, Workload};
use datacell_net::{NetConfig, NetServer};
use datacell_telemetry::Parsed;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// The open-loop generator's batch interval.
pub const TICK: Duration = Duration::from_millis(1);

/// Longest a phase waits for its last window before the missing windows
/// are counted as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// The `paced` phase's send schedule: one batch per [`TICK`], sized so
/// the cumulative row count tracks the fixed rate exactly, plus one final
/// top-up batch that ends the phase on a slide boundary. Pure arithmetic:
/// due times never depend on how the run went.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Rows per second, per stream.
    pub rate: u64,
    /// Regular batches; batch `k` is due `k` ticks after the phase start.
    pub batches: u64,
    pub slide: u64,
}

impl Schedule {
    pub fn new(rate: u64, duration: Duration, slide: u64) -> Schedule {
        let batches = (duration.as_nanos() / TICK.as_nanos()) as u64;
        Schedule { rate, batches, slide }
    }

    /// Rows per stream written once batches `0..k` are out
    /// (`k == batches + 1` includes the top-up).
    pub fn rows_upto(&self, k: u64) -> u64 {
        let ticks_per_s = 1_000_000_000 / TICK.as_nanos() as u64;
        let regular = self.rate * k.min(self.batches) / ticks_per_s;
        if k > self.batches {
            regular.div_ceil(self.slide) * self.slide
        } else {
            regular
        }
    }

    /// Rows per stream the whole phase writes.
    pub fn total_rows(&self) -> u64 {
        self.rows_upto(self.batches + 1)
    }

    /// The batch that carries the `rows`-th row of the phase (1-based).
    pub fn batch_of_row(&self, rows: u64) -> u64 {
        assert!(rows >= 1 && rows <= self.total_rows(), "row outside the phase");
        // Smallest k with rows_upto(k + 1) >= rows.
        let (mut lo, mut hi) = (0, self.batches);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.rows_upto(mid + 1) >= rows {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// When batch `k` is due, in nanoseconds after the phase start.
    pub fn due_ns(&self, k: u64) -> u64 {
        k * TICK.as_nanos() as u64
    }
}

/// State the reader publishes to the writer.
struct Shared {
    /// Wire windows fully received and verified.
    windows: AtomicU64,
    /// The reader stopped early: mismatch, EOF or socket error.
    broken: AtomicBool,
    /// The writer is done; the reader may exit.
    stop: AtomicBool,
    /// The writer thread, parked while it waits for windows; the reader
    /// unparks it on every advance. Polling instead would wake a third
    /// thread thousands of times a second on a two-core box.
    writer: Thread,
}

/// What the subscriber-reader saw.
pub struct ReaderLog {
    /// Arrival of each wire window's last byte, ns since the session epoch.
    pub arrivals: Vec<u64>,
    pub mismatch: Option<Mismatch>,
    /// The server closed the subscription (overflow eviction or error).
    pub closed: bool,
    /// Bytes left over inside a half-received window at exit.
    pub mid_window: bool,
}

fn reader_loop(
    mut sock: TcpStream,
    reference: Arc<Reference>,
    shared: Arc<Shared>,
    epoch: Instant,
) -> ReaderLog {
    let mut verifier = Verifier::new(&reference);
    let mut log = ReaderLog {
        arrivals: Vec::with_capacity(1 << 20),
        mismatch: None,
        closed: false,
        mid_window: false,
    };
    let mut buf = vec![0u8; 1 << 16];
    loop {
        match sock.read(&mut buf) {
            Ok(0) => {
                log.closed = true;
                break;
            }
            Ok(n) => {
                let now = epoch.elapsed().as_nanos() as u64;
                if let Err(m) = verifier.feed(&buf[..n], |_| log.arrivals.push(now)) {
                    log.mismatch = Some(m);
                    break;
                }
                shared.windows.store(verifier.windows(), Ordering::Release);
                shared.writer.unpark();
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                log.closed = true;
                break;
            }
        }
    }
    if log.closed || log.mismatch.is_some() {
        shared.broken.store(true, Ordering::Release);
        shared.writer.unpark();
    }
    log.mid_window = verifier.mid_window();
    log
}

/// One write call of the traced closed loop.
pub struct Send {
    pub start_ns: u64,
    pub end_ns: u64,
    /// Rows per stream written once this call returned.
    pub rows_after: u64,
}

/// What the writer recorded about one phase. Row counts are per stream.
pub struct PhaseLog {
    pub start_ns: u64,
    /// All rows handed to the sockets.
    pub written_ns: u64,
    /// Drain finished (or timed out).
    pub end_ns: u64,
    pub rows_from: u64,
    pub rows_to: u64,
    pub drained: bool,
    /// Process CPU seconds over `[start_ns, end_ns]`.
    pub process_cpu_s: f64,
    /// Writer-thread CPU seconds over `[start_ns, written_ns]`.
    pub writer_cpu_s: f64,
    /// Server backpressure ticks over the phase.
    pub backpressure_ticks: u64,
    /// Open loop only: when each batch actually left, ns after the phase
    /// start (batch `k` was due at `schedule.due_ns(k)`).
    pub batch_sent_ns: Vec<u64>,
    /// Open loop only: the schedule the batches followed.
    pub schedule: Option<Schedule>,
    /// Traced closed loop only: every write call.
    pub sends: Vec<Send>,
    /// Idle-floor probe only: (window, ns at which its slide was written).
    pub probes: Vec<(u64, u64)>,
}

/// A live server with its connections: the result of one set-up.
pub struct Session {
    w: &'static Workload,
    pub rings: Vec<Ring>,
    pub reference: Arc<Reference>,
    server: NetServer,
    ingest: Vec<TcpStream>,
    shared: Arc<Shared>,
    reader: JoinHandle<ReaderLog>,
    pub epoch: Instant,
    /// Rows per stream written so far.
    sent: u64,
    /// The engine configuration as resolved at set-up, for the run header.
    pub engine_config: String,
    pub register_s: f64,
    /// How long [`Session::open`] took.
    pub setup_s: f64,
}

impl Session {
    /// Everything `setup_s` covers: payload rings + reference pass +
    /// engine + streams + `register_sql` + server spawn + handshakes.
    pub fn open(w: &'static Workload, seed: u64) -> io::Result<Session> {
        let t = Instant::now();
        let rings = workloads::rings(w, seed);
        let reference = Reference::compute(w, &rings);
        let mut session = Session::serve(w, rings, reference)?;
        session.setup_s = t.elapsed().as_secs_f64();
        Ok(session)
    }

    /// Serve `w` and check the wire against `reference`.
    fn serve(w: &'static Workload, rings: Vec<Ring>, reference: Reference) -> io::Result<Session> {
        let reference = Arc::new(reference);
        let (engine, _, register) = build_engine(w);
        let engine_config = format!(
            "workers={} partitions={} basket_shards={} placement={:?}",
            engine.workers(),
            engine.partitions(),
            engine.basket_shards(),
            engine.placement()
        );
        let server = NetServer::spawn(engine, "127.0.0.1:0", NetConfig::default())?;
        let addr = server.local_addr();
        let epoch = Instant::now();

        // The subscriber attaches before the first row is written, so wire
        // window 0 is the engine's window 0.
        let sub = TcpStream::connect(addr)?;
        sub.set_nodelay(true)?;
        let mut sub = BufReader::new(sub);
        sub.get_mut().write_all(b"SUBSCRIBE q0\n")?;
        let mut ack = String::new();
        sub.read_line(&mut ack)?;
        if ack != "OK subscribe q0\n" {
            return Err(io::Error::other(format!("subscribe refused: {ack:?}")));
        }
        let sub = sub.into_inner();
        sub.set_read_timeout(Some(Duration::from_millis(20)))?;

        let mut ingest = Vec::new();
        for s in w.streams {
            let mut sock = TcpStream::connect(addr)?;
            sock.set_nodelay(true)?;
            sock.write_all(format!("INGEST {}\n", s.name).as_bytes())?;
            ingest.push(sock);
        }

        let shared = Arc::new(Shared {
            windows: AtomicU64::new(0),
            broken: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            writer: thread::current(),
        });
        let reader = {
            let (reference, shared) = (Arc::clone(&reference), Arc::clone(&shared));
            thread::Builder::new()
                .name("wirebench-reader".into())
                .spawn(move || reader_loop(sub, reference, shared, epoch))?
        };
        Ok(Session {
            w,
            rings,
            reference,
            server,
            ingest,
            shared,
            reader,
            epoch,
            sent: 0,
            engine_config,
            register_s: register.as_secs_f64(),
            setup_s: 0.0,
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn broken(&self) -> bool {
        self.shared.broken.load(Ordering::Acquire)
    }

    /// Write the next `n` ring rows to every stream's socket, in stream
    /// order. A refused write marks the session broken.
    fn send_rows(&mut self, n: u64) {
        for (ring, sock) in self.rings.iter().zip(&mut self.ingest) {
            let len = ring.rows() as u64;
            let mut pos = self.sent;
            let end = self.sent + n;
            while pos < end {
                let from = (pos % len) as usize;
                let to = (from as u64 + (end - pos)).min(len) as usize;
                if sock.write_all(ring.csv_rows(from, to)).is_err() {
                    self.shared.broken.store(true, Ordering::Release);
                    return;
                }
                pos += (to - from) as u64;
            }
        }
        self.sent += n;
    }

    /// Wait until every window the written rows complete has been
    /// received and verified. False on timeout or a broken session.
    fn drain(&self) -> bool {
        let target = self.w.windows_after(self.sent);
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.shared.windows.load(Ordering::Acquire) < target {
            if self.broken() || Instant::now() > deadline {
                return false;
            }
            thread::park_timeout(Duration::from_millis(20));
        }
        true
    }

    /// Start a phase. The three counters hold their readings at the
    /// start until [`Session::finish`] turns them into differences.
    fn begin(&self) -> PhaseLog {
        PhaseLog {
            start_ns: self.now_ns(),
            written_ns: 0,
            end_ns: 0,
            rows_from: self.sent,
            rows_to: self.sent,
            drained: false,
            process_cpu_s: stats::process_cpu_s(),
            writer_cpu_s: stats::thread_cpu_s(),
            backpressure_ticks: self.server.stats().backpressure_ticks.get(),
            batch_sent_ns: Vec::new(),
            schedule: None,
            sends: Vec::new(),
            probes: Vec::new(),
        }
    }

    /// All rows are written: drain, and close the phase's accounts.
    fn finish(&self, mut log: PhaseLog) -> PhaseLog {
        log.written_ns = self.now_ns();
        log.writer_cpu_s = stats::thread_cpu_s() - log.writer_cpu_s;
        log.rows_to = self.sent;
        log.drained = self.drain();
        log.end_ns = self.now_ns();
        log.process_cpu_s = stats::process_cpu_s() - log.process_cpu_s;
        log.backpressure_ticks =
            self.server.stats().backpressure_ticks.get() - log.backpressure_ticks;
        log
    }

    /// Block until writing `chunk` more rows keeps the rows whose windows
    /// have not come back within the workload's in-flight bound.
    fn await_credit(&self, chunk: u64) {
        let cap = self.w.inflight_rows as u64;
        loop {
            let done = match self.shared.windows.load(Ordering::Acquire) {
                0 => 0,
                n => self.w.closing_rows(n - 1),
            };
            if self.sent + chunk - done <= cap || self.broken() {
                return;
            }
            thread::park_timeout(Duration::from_millis(20));
        }
    }

    /// Closed loop: write chunk after chunk for `duration`, never more
    /// than `inflight_rows` ahead of the last window received — the next
    /// rows go out only as earlier windows come back. Then drain.
    ///
    /// The bound is the benchmark's, not the server's: the server's own
    /// valve (stop reading past `staging_budget`) is checked once per tick
    /// *before* an unbounded read, so a writer faster than the engine
    /// makes one tick emit more than `subscriber_queue` bytes and evicts
    /// the subscriber, and on `join_window` lets one stream run so far
    /// ahead of the other that the valve closes for good.
    pub fn saturate(&mut self, duration: Duration, traced: bool) -> PhaseLog {
        let mut log = self.begin();
        let chunk = self.w.saturate_chunk as u64;
        let start = Instant::now();
        while start.elapsed() < duration && !self.broken() {
            self.await_credit(chunk);
            if traced {
                let t0 = self.now_ns();
                self.send_rows(chunk);
                log.sends.push(Send { start_ns: t0, end_ns: self.now_ns(), rows_after: self.sent });
            } else {
                self.send_rows(chunk);
            }
        }
        self.finish(log)
    }

    /// Open loop: one batch per tick at the workload's fixed rate, on a
    /// schedule that does not slow when the server slows. Then drain.
    pub fn paced(&mut self, duration: Duration) -> PhaseLog {
        let per_stream = self.w.paced_rows_per_s / self.w.streams.len() as u64;
        let schedule = Schedule::new(per_stream, duration, self.w.slide as u64);
        let mut log = self.begin();
        log.schedule = Some(schedule);
        log.batch_sent_ns.reserve(schedule.batches as usize + 1);
        let start = self.epoch + Duration::from_nanos(log.start_ns);
        for k in 0..=schedule.batches {
            let due = Duration::from_nanos(schedule.due_ns(k));
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                thread::sleep(wait);
            }
            log.batch_sent_ns.push(start.elapsed().as_nanos() as u64);
            self.send_rows(schedule.rows_upto(k + 1) - schedule.rows_upto(k));
            if self.broken() {
                break;
            }
        }
        self.finish(log)
    }

    /// `n` single slides, `gap` apart, each timed from its write to its
    /// window: the latency floor an idle server adds (its poll tick).
    pub fn idle_floor(&mut self, n: usize, gap: Duration) -> PhaseLog {
        let mut log = self.begin();
        for _ in 0..n {
            thread::sleep(gap);
            let t = self.now_ns();
            self.send_rows(self.w.slide as u64);
            log.probes.push((self.w.windows_after(self.sent) - 1, t));
            if !self.drain() {
                break;
            }
        }
        self.finish(log)
    }

    /// `GET /metrics`, parsed strictly.
    pub fn scrape(&self) -> io::Result<Parsed> {
        let mut sock = TcpStream::connect(self.server.local_addr())?;
        sock.set_read_timeout(Some(Duration::from_secs(5)))?;
        sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")?;
        let mut response = String::new();
        sock.read_to_string(&mut response)?;
        let body = response
            .split_once("\r\n\r\n")
            .filter(|(head, _)| head.starts_with("HTTP/1.0 200"))
            .map(|(_, body)| body)
            .ok_or_else(|| io::Error::other("metrics scrape: bad response"))?;
        datacell_telemetry::parse_text(body).map_err(io::Error::other)
    }

    /// Close the connections, stop the server and join the reader.
    pub fn close(self) -> Closed {
        self.shared.stop.store(true, Ordering::Release);
        let reader = self.reader.join().expect("reader thread");
        drop(self.ingest);
        let stats = self.server.stats().clone();
        drop(self.server.shutdown());
        Closed {
            rings: self.rings,
            reference: self.reference,
            reader,
            subscriber_overflows: stats.subscriber_overflows.get(),
            net_errors: stats.errors.get(),
        }
    }
}

/// What is left of a session once it is closed.
pub struct Closed {
    pub rings: Vec<Ring>,
    pub reference: Arc<Reference>,
    pub reader: ReaderLog,
    pub subscriber_overflows: u64,
    pub net_errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(corrupt: bool) -> Session {
        let w = workloads::find("small_slide_groupby").unwrap();
        let rings = workloads::rings(w, 5);
        let mut reference = Reference::compute(w, &rings);
        if corrupt {
            // One digit of one line of window 700, which the wire reaches
            // about 50k rows in.
            let at = reference.win_end[699] + 3;
            reference.bytes[at] = if reference.bytes[at] == b'7' { b'8' } else { b'7' };
        }
        Session::serve(w, rings, reference).unwrap()
    }

    #[test]
    fn a_clean_wire_run_verifies_every_window() {
        let mut s = session(false);
        let phase = s.saturate(Duration::from_millis(200), false);
        let paced = s.paced(Duration::from_millis(200));
        let closed = s.close();
        assert!(phase.drained && paced.drained);
        assert!(
            closed.reader.mismatch.is_none() && !closed.reader.closed && !closed.reader.mid_window
        );
        let w = workloads::find("small_slide_groupby").unwrap();
        assert_eq!(closed.reader.arrivals.len() as u64, w.windows_after(paced.rows_to));
        assert!(closed.reader.arrivals.windows(2).all(|p| p[0] <= p[1]));
        assert_eq!((closed.subscriber_overflows, closed.net_errors), (0, 0));
    }

    #[test]
    fn a_corrupted_line_makes_the_wire_run_fail() {
        let mut s = session(true);
        let phase = s.saturate(Duration::from_millis(500), false);
        let closed = s.close();
        assert!(!phase.drained, "the drain is the nothing-lost check");
        let m = closed.reader.mismatch.expect("the reader must notice the differing byte");
        assert_eq!((m.window, m.offset), (700, 3));
        assert_eq!(closed.reader.arrivals.len(), 700, "windows before the corrupted one verified");
    }

    #[test]
    fn schedule_tracks_the_rate_and_ends_on_a_slide() {
        // 2500 rows/s is 2.5 rows per tick: batches alternate 2 and 3.
        let s = Schedule::new(2500, Duration::from_millis(10), 64);
        assert_eq!(s.batches, 10);
        let sizes: Vec<u64> = (0..10).map(|k| s.rows_upto(k + 1) - s.rows_upto(k)).collect();
        assert_eq!(sizes, vec![2, 3, 2, 3, 2, 3, 2, 3, 2, 3]);
        assert_eq!(s.rows_upto(10), 25);
        // The top-up batch (index 10) rounds 25 up to the slide.
        assert_eq!(s.total_rows(), 64);
        assert_eq!(s.total_rows() % s.slide, 0);
    }

    #[test]
    fn due_time_is_that_of_the_batch_carrying_the_closing_row() {
        let s = Schedule::new(2500, Duration::from_millis(10), 64);
        // Rows 1-2 leave in batch 0 (due at 0), rows 3-5 in batch 1 (1 ms).
        assert_eq!(s.batch_of_row(1), 0);
        assert_eq!(s.batch_of_row(2), 0);
        assert_eq!(s.batch_of_row(3), 1);
        assert_eq!(s.batch_of_row(5), 1);
        assert_eq!(s.batch_of_row(25), 9);
        // Everything past the regular batches leaves with the top-up.
        assert_eq!(s.batch_of_row(26), 10);
        assert_eq!(s.batch_of_row(64), 10);
        assert_eq!(s.due_ns(9), 9_000_000);
        // A stall cannot move a due time: it is a function of the row alone.
        let rate = Schedule::new(100_000, Duration::from_secs(1), 64);
        assert_eq!(rate.rows_upto(1), 100);
        assert_eq!(rate.due_ns(rate.batch_of_row(64)), 0);
        assert_eq!(rate.due_ns(rate.batch_of_row(101)), 1_000_000);
        assert_eq!(rate.total_rows(), 100_032);
    }
}
