//! End-to-end exercise of the network edge: real localhost TCP sockets,
//! concurrent writers and subscribers, against `datacell_net::NetServer`.
//!
//! The headline invariant mirrors the parallelism arc: results delivered
//! over the wire are **byte-for-byte** what an in-process run of the same
//! engine configuration produces — the network edge adds transport, not
//! semantics.

use datacell::core::Engine;
use datacell::kernel::{Column, DataType};
use datacell::net::{NetConfig, NetServer};
use datacell::plan::ResultSet;
use datacell::telemetry::parse_text;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

const STREAMS: usize = 3;
const ROWS_PER_STREAM: usize = 40;

/// One engine shape, used for both the in-process reference and the
/// served instance: `STREAMS` input streams, one continuous query each.
fn build_engine() -> Engine {
    let mut e = Engine::new();
    for i in 0..STREAMS {
        e.create_stream(&format!("s{i}"), &[("x", DataType::Int), ("y", DataType::Float)])
            .expect("stream");
    }
    for i in 0..STREAMS {
        let sql = if i % 2 == 0 {
            format!("SELECT sum(y) FROM s{i} WHERE x > 1 WINDOW SIZE 8 SLIDE 4")
        } else {
            format!("SELECT count(x) FROM s{i} WINDOW SIZE 8 SLIDE 4")
        };
        e.register_sql(&sql).expect("query");
    }
    e
}

/// Deterministic per-stream data; writer `i` owns stream `s{i}` outright,
/// so per-stream arrival order (hence per-query results) is independent of
/// how the OS interleaves the connections.
fn rows_for(stream: usize) -> (Vec<i64>, Vec<f64>) {
    let xs = (0..ROWS_PER_STREAM).map(|j| ((j + stream) % 7) as i64).collect();
    #[allow(clippy::cast_precision_loss)]
    let ys = (0..ROWS_PER_STREAM).map(|j| j as f64 * 0.5 + stream as f64).collect();
    (xs, ys)
}

/// Render results exactly like the server's fan-out does: one CSV line per
/// row, `Value` display form, comma-separated.
fn csv_lines(results: &[ResultSet]) -> Vec<String> {
    let mut lines = Vec::new();
    for rs in results {
        for row in rs.rows() {
            let mut s = String::new();
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{v}");
            }
            lines.push(s);
        }
    }
    lines
}

/// The in-process reference: same engine, same rows, no sockets.
fn reference_lines() -> Vec<Vec<String>> {
    let mut e = build_engine();
    for i in 0..STREAMS {
        let (xs, ys) = rows_for(i);
        e.append(&format!("s{i}"), &[Column::Int(xs), Column::Float(ys)]).expect("append");
    }
    e.run_until_idle().expect("run");
    let queries = e.queries();
    queries.iter().map(|&(q, _)| csv_lines(&e.drain_results(q).expect("drain"))).collect()
}

fn connect(server: &NetServer) -> TcpStream {
    let sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    sock
}

fn read_line(reader: &mut impl BufRead) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read line");
    line.trim_end_matches('\n').to_owned()
}

#[test]
fn socket_results_match_in_process_byte_for_byte() {
    let expected = reference_lines();
    let server = NetServer::spawn(build_engine(), "127.0.0.1:0", NetConfig::default())
        .expect("spawn server");

    // M = 2 subscribers per query, attached before any data flows so all
    // of them see every result from the first window on.
    let mut subscribers = Vec::new();
    for qi in 0..STREAMS {
        for _ in 0..2 {
            let sock = connect(&server);
            let mut reader = BufReader::new(sock);
            reader.get_mut().write_all(format!("SUBSCRIBE q{qi}\n").as_bytes()).expect("send");
            assert_eq!(read_line(&mut reader), format!("OK subscribe q{qi}"));
            subscribers.push((qi, reader));
        }
    }

    // N concurrent writers, one per stream, over their own connections.
    let writers: Vec<_> = (0..STREAMS)
        .map(|i| {
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(addr).expect("writer connect");
                sock.write_all(format!("INGEST s{i}\n").as_bytes()).expect("hello");
                let (xs, ys) = rows_for(i);
                // Dribble rows in small chunks to force many poll ticks.
                let mut payload = String::new();
                for (j, (x, y)) in xs.iter().zip(&ys).enumerate() {
                    let _ = writeln!(payload, "{x},{y}");
                    if j % 7 == 6 {
                        sock.write_all(payload.as_bytes()).expect("rows");
                        payload.clear();
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                sock.write_all(payload.as_bytes()).expect("tail rows");
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }

    // Every subscriber of query i receives exactly the reference lines,
    // in order, bytes for bytes.
    for (qi, reader) in &mut subscribers {
        let want = &expected[*qi];
        assert!(!want.is_empty(), "reference produced no lines for q{qi}");
        for (n, want_line) in want.iter().enumerate() {
            let got = read_line(reader);
            assert_eq!(&got, want_line, "q{qi} line {n} diverged over the wire");
        }
    }

    // The same listener answers /metrics with a strictly parseable
    // exposition reflecting the traffic above.
    let mut sock = connect(&server);
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request");
    let mut response = String::new();
    sock.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"));
    let body = response.split("\r\n\r\n").nth(1).expect("body");
    let parsed = parse_text(body).expect("strict parse");
    assert!(parsed.families_without_help().is_empty(), "family without help text");
    let total_rows = (STREAMS * ROWS_PER_STREAM) as f64;
    assert_eq!(parsed.get("datacell_net_ingest_rows_total", &[]), Some(total_rows));
    assert!(parsed.get("datacell_net_fanout_rows_total", &[]).expect("fanout family") > 0.0);
    assert!(parsed.get("datacell_net_connections_total", &[]).expect("conn family") >= 10.0);

    let engine = server.shutdown().expect("shutdown");
    // Everything arrived: every stream saw all its rows.
    for i in 0..STREAMS {
        let b = engine.basket(&format!("s{i}")).expect("basket");
        assert_eq!(b.end_oid(), ROWS_PER_STREAM as u64, "s{i} lost rows");
    }
}

#[test]
fn late_subscriber_sees_a_suffix_and_nothing_earlier() {
    let want = reference_lines().swap_remove(0).join("\n") + "\n";
    let server = NetServer::spawn(build_engine(), "127.0.0.1:0", NetConfig::default())
        .expect("spawn server");
    let subscribe = || {
        let mut reader = BufReader::new(connect(&server));
        reader.get_mut().write_all(b"SUBSCRIBE q0\n").expect("send");
        assert_eq!(read_line(&mut reader), "OK subscribe q0");
        reader
    };
    let (xs, ys) = rows_for(0);
    let rows: Vec<String> = xs.iter().zip(&ys).map(|(x, y)| format!("{x},{y}\n")).collect();
    let (first, rest) = rows.split_at(ROWS_PER_STREAM / 2);

    // A attaches before any row and has results in hand before B attaches.
    let mut a = subscribe();
    let mut writer = connect(&server);
    writer.write_all(format!("INGEST s0\n{}", first.concat()).as_bytes()).expect("first half");
    let mut got_a = String::new();
    for _ in 0..2 {
        a.read_line(&mut got_a).expect("early result");
    }
    let mut b = subscribe();
    writer.write_all(rest.concat().as_bytes()).expect("second half");
    drop(writer);
    while got_a.len() < want.len() {
        assert_ne!(a.read_line(&mut got_a).expect("read"), 0, "A was cut short: {got_a:?}");
    }
    assert_eq!(got_a, want, "A attached first and sees every result");

    // Shutdown flushes and closes, so B reads everything it was sent.
    server.shutdown().expect("shutdown");
    let mut got_b = String::new();
    b.read_to_string(&mut got_b).expect("B to EOF");
    assert!(!got_b.is_empty() && got_b.len() < want.len(), "not a proper suffix: {got_b:?}");
    let earlier = want.strip_suffix(&got_b).expect("B's bytes are a suffix of A's");
    assert!(earlier.ends_with('\n'), "B starts on a result line");
}

#[test]
fn subscribe_reaches_its_own_query_after_a_deregister() {
    // Regression: labels were numbered by the count of live queries, so
    // after a deregister the next query took a label already in use and
    // `SUBSCRIBE` could not tell the two apart.
    let mut engine = Engine::new();
    engine.create_stream("s", &[("x", DataType::Int)]).expect("stream");
    let dropped = engine.register_sql("SELECT sum(x) FROM s WINDOW SIZE 4 SLIDE 4").expect("q0");
    engine.register_sql("SELECT count(x) FROM s WINDOW SIZE 4 SLIDE 4").expect("q1");
    engine.deregister(dropped).expect("deregister");
    engine.register_sql("SELECT max(x) FROM s WINDOW SIZE 4 SLIDE 4").expect("q2");
    let server = NetServer::spawn(engine, "127.0.0.1:0", NetConfig::default()).expect("spawn");

    let mut subscribers: Vec<_> = ["q1", "q2"]
        .into_iter()
        .map(|label| {
            let mut reader = BufReader::new(connect(&server));
            reader.get_mut().write_all(format!("SUBSCRIBE {label}\n").as_bytes()).expect("send");
            assert_eq!(read_line(&mut reader), format!("OK subscribe {label}"));
            reader
        })
        .collect();
    let mut gone = BufReader::new(connect(&server));
    gone.get_mut().write_all(b"SUBSCRIBE q0\n").expect("send");
    assert_eq!(read_line(&mut gone), "ERR unknown query q0");

    let mut sock = connect(&server);
    sock.write_all(b"INGEST s\n10\n40\n20\n30\n").expect("rows");
    assert_eq!(read_line(&mut subscribers[0]), "4", "q1 is the count");
    assert_eq!(read_line(&mut subscribers[1]), "40", "q2 is the max");
    server.shutdown().expect("shutdown");
}

#[test]
fn stalled_subscriber_is_evicted_and_cannot_pin_gc() {
    let mut engine = Engine::new();
    engine.create_stream("t", &[("x", DataType::Int), ("tag", DataType::Str)]).expect("stream");
    // Every row is its own window: result volume ≈ ingest volume, so a
    // non-reading subscriber's queue must fill quickly.
    engine.register_sql("SELECT x, count(tag) FROM t GROUP BY x WINDOW SIZE 1 SLIDE 1").expect("q");
    let cfg = NetConfig { subscriber_queue: 4096, ..NetConfig::default() };
    let server = NetServer::spawn(engine, "127.0.0.1:0", cfg).expect("spawn");

    // A subscriber that handshakes and then never reads again.
    let stalled = connect(&server);
    let mut reader = BufReader::new(stalled);
    reader.get_mut().write_all(b"SUBSCRIBE q0\n").expect("send");
    assert_eq!(read_line(&mut reader), "OK subscribe q0");

    // Pump enough wide rows through that the results overrun both kernel
    // socket buffers and the 4 KiB server-side queue.
    let total: usize = 4000;
    let mut sock = TcpStream::connect(server.local_addr()).expect("writer");
    sock.write_all(b"INGEST t\n").expect("hello");
    let tag = "z".repeat(120);
    for j in 0..total {
        sock.write_all(format!("{j},{tag}\n").as_bytes()).expect("row");
    }
    sock.flush().expect("flush");

    // The server must disconnect the stalled subscriber instead of letting
    // its unconsumed cursor freeze basket expiry.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().subscriber_overflows.get() == 0 {
        assert!(Instant::now() < deadline, "stalled subscriber was never evicted");
        std::thread::sleep(Duration::from_millis(2));
    }

    // Ingest keeps flowing after the eviction.
    drop(sock);
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().ingest_rows.get() < total as u64 {
        assert!(Instant::now() < deadline, "ingest stalled after eviction");
        std::thread::sleep(Duration::from_millis(2));
    }
    std::thread::sleep(Duration::from_millis(20)); // a few ticks of GC

    let engine = server.shutdown().expect("shutdown");
    // Results go from the query straight to subscriber queues: the engine
    // holds no result-side stream a dead subscriber could have pinned.
    assert!(engine.basket("q0.out").is_err());
    // And the input basket's prefix was consumed and expired as usual.
    let retained = engine.basket_len("t").expect("input basket");
    assert!(retained < total / 2, "input basket retained {retained} of {total} rows");
    drop(reader);
}

#[test]
fn backpressure_pauses_ingest_reads_when_nothing_consumes() {
    let mut engine = Engine::new();
    // No query reads `u`: nothing ever consumes, so the backlog can only
    // grow and must trip the staging budget.
    engine.create_stream("u", &[("x", DataType::Int)]).expect("stream");
    let cfg = NetConfig { staging_budget: 64, ..NetConfig::default() };
    let server = NetServer::spawn(engine, "127.0.0.1:0", cfg).expect("spawn");

    let mut sock = connect(&server);
    sock.write_all(b"INGEST u\n").expect("hello");
    for j in 0..2000 {
        sock.write_all(format!("{j}\n").as_bytes()).expect("row");
    }

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().backpressure_ticks.get() == 0 {
        assert!(Instant::now() < deadline, "staging budget never engaged");
        std::thread::sleep(Duration::from_millis(2));
    }
    // The valve pauses *reads*; the already-accepted backlog stays put and
    // the server stays responsive (metrics still answers on the listener).
    let mut m = connect(&server);
    m.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request");
    let mut response = String::new();
    m.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"));

    let engine = server.shutdown().expect("shutdown");
    let landed = engine.basket_len("u").expect("basket");
    assert!(landed >= 64, "budget tripped before any rows landed ({landed})");
    drop(sock);
}

#[test]
fn a_slide_reaches_the_subscriber_without_waiting_out_the_tick() {
    let mut engine = Engine::new();
    engine.create_stream("s", &[("x", DataType::Int)]).expect("stream");
    engine.register_sql("SELECT sum(x) FROM s WINDOW SIZE 4 SLIDE 4").expect("q0");
    // A tick four times the bound: a loop that sleeps it out whenever a
    // pass made no progress cannot deliver in time.
    let cfg = NetConfig { tick: Duration::from_secs(2), ..NetConfig::default() };
    let server = NetServer::spawn(engine, "127.0.0.1:0", cfg).expect("spawn");
    let mut subscriber = BufReader::new(connect(&server));
    subscriber.get_mut().write_all(b"SUBSCRIBE q0\n").expect("send");
    assert_eq!(read_line(&mut subscriber), "OK subscribe q0");

    let mut writer = connect(&server);
    let sent = Instant::now();
    writer.write_all(b"INGEST s\n1\n2\n3\n4\n").expect("one window of rows");
    assert_eq!(read_line(&mut subscriber), "10");
    let waited = sent.elapsed();
    assert!(waited < Duration::from_millis(500), "the result waited {waited:?} for the tick");
    drop(writer);
    server.shutdown().expect("shutdown");
}

#[test]
fn an_idle_server_blocks_instead_of_spinning() {
    let mut engine = Engine::new();
    engine.create_stream("s", &[("x", DataType::Int)]).expect("stream");
    engine.register_sql("SELECT sum(x) FROM s WINDOW SIZE 4 SLIDE 4").expect("q0");
    // Nothing reads `u`, so its backlog closes the staging valve for good.
    engine.create_stream("u", &[("x", DataType::Int)]).expect("stream");
    let tick = Duration::from_millis(50);
    let cfg = NetConfig { tick, staging_budget: 64, ..NetConfig::default() };
    let server = NetServer::spawn(engine, "127.0.0.1:0", cfg).expect("spawn");
    let stats = server.stats();

    // An idle subscriber: attached, then silent.
    let mut subscriber = BufReader::new(connect(&server));
    subscriber.get_mut().write_all(b"SUBSCRIBE q0\n").expect("send");
    assert_eq!(read_line(&mut subscriber), "OK subscribe q0");

    // An ingest connection that has sent its rows and half-closed while
    // the valve holds it: its socket stays readable (rows, then EOF) and
    // the loop must not be woken by it.
    let mut writer = connect(&server);
    writer.write_all(format!("INGEST u\n{}", "7\n".repeat(1000)).as_bytes()).expect("rows");
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.backpressure_ticks.get() == 0 {
        assert!(Instant::now() < deadline, "staging valve never closed");
        std::thread::sleep(Duration::from_millis(1));
    }
    writer.write_all("7\n".repeat(4096).as_bytes()).expect("rows left unread");
    writer.shutdown(Shutdown::Write).expect("half-close");

    // Let the loop settle into its idle state, then count its wakes.
    std::thread::sleep(4 * tick);
    let (ready, timeout) = (stats.wakeups_ready.get(), stats.wakeups_timeout.get());
    std::thread::sleep(Duration::from_millis(500));
    let ready = stats.wakeups_ready.get() - ready;
    let timeout = stats.wakeups_timeout.get() - timeout;
    assert_eq!(ready, 0, "an idle socket woke the loop {ready} times in 500 ms");
    assert!(ready + timeout <= 500 / 50 + 2, "{timeout} wakes in 500 ms at a 50 ms tick");
    assert!(timeout > 0, "the loop never waited");

    drop((writer, subscriber));
    server.shutdown().expect("shutdown");
}

#[test]
fn overlong_line_without_newline_gets_a_typed_error() {
    let mut engine = Engine::new();
    engine.create_stream("u", &[("x", DataType::Int)]).expect("stream");
    let server = NetServer::spawn(engine, "127.0.0.1:0", NetConfig::default()).expect("spawn");
    let errors_before = server.stats().errors.get();

    let mut sock = connect(&server);
    sock.write_all(b"INGEST u\n1\n2\n").expect("hello and two good rows");
    // 70 KiB of digits and never a newline: past `max_line` (64 KiB).
    sock.write_all(&vec![b'7'; 70 * 1024]).expect("overlong line");
    let mut reader = BufReader::new(&sock);
    assert_eq!(read_line(&mut reader), "ERR line too long");
    assert_eq!(server.stats().errors.get(), errors_before + 1);

    let engine = server.shutdown().expect("shutdown");
    assert_eq!(engine.basket_len("u").expect("basket"), 2, "the rows before it landed");
}

#[test]
fn malformed_row_inside_a_burst_rejects_exactly_that_row() {
    const ROWS: usize = 10_000;
    let mut engine = Engine::new();
    engine.create_stream("u", &[("x", DataType::Int), ("y", DataType::Float)]).expect("stream");
    let server = NetServer::spawn(engine, "127.0.0.1:0", NetConfig::default()).expect("spawn");

    let mut burst = String::from("INGEST u\n");
    for j in 0..ROWS {
        if j == ROWS / 2 {
            burst.push_str("5000,not-a-float\n");
        } else {
            let _ = writeln!(burst, "{j},{}.5", j % 10);
        }
    }
    let mut sock = connect(&server);
    sock.write_all(burst.as_bytes()).expect("burst");
    drop(sock); // EOF: the server lands the final batch

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().ingest_rows.get() < (ROWS - 1) as u64 {
        assert!(Instant::now() < deadline, "burst never finished parsing");
        std::thread::sleep(Duration::from_millis(2));
    }
    let counted = server.stats().ingest_rows.clone();
    let engine = server.shutdown().expect("shutdown");
    assert_eq!(counted.get(), (ROWS - 1) as u64, "ingest_rows counts accepted rows exactly");
    assert_eq!(engine.basket_len("u").expect("basket"), ROWS - 1);
    let xs: i64 = engine
        .basket("u")
        .expect("basket")
        .with(|b| b.snapshot().col(0).expect("x").as_int().expect("ints").iter().sum());
    let all: i64 = (0..ROWS as i64).sum();
    assert_eq!(xs, all - (ROWS / 2) as i64, "every row but the malformed one, once");
}
