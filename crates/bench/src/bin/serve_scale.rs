//! `serve_scale` — network-edge throughput: ingest connections ×
//! subscribers over real localhost TCP.
//!
//! Each measured point spins up a fresh engine with `STREAMS` input
//! streams and one continuous query per stream, serves it with
//! `datacell_net::NetServer`, then hammers it: `conns` writer connections
//! (round-robin across streams) each push `rows` CSV rows as fast as the
//! socket accepts, while `subs` subscriber connections (round-robin across
//! queries) read result lines until every expected window has arrived.
//! The wall clock runs from the first writer byte to the last subscriber
//! line — it covers parse, shard append, scheduling, window evaluation
//! and fan-out, i.e. the whole wire-to-wire path.
//!
//! Reported per point: total rows pushed, wire-to-wire wall time, ingest
//! throughput (Mrows/s), result lines delivered, and the two safety-valve
//! counters (backpressure ticks, subscriber overflows — both should be 0
//! in a healthy run; nonzero backpressure means the scheduler, not the
//! wire, is the bottleneck at that point).
//!
//! Flags: `--scale f` resizes rows per connection, `--windows n`
//! overrides rows per connection directly, `--seed n` the value seed.

use datacell_bench::{fmt_duration, print_table, Args};
use datacell_core::Engine;
use datacell_kernel::DataType;
use datacell_net::{NetConfig, NetServer};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const STREAMS: usize = 4;
const WINDOW: usize = 256;
const SLIDE: usize = 128;
/// (ingest connections, subscribers) per measured point.
const POINTS: [(usize, usize); 4] = [(1, 1), (4, 2), (8, 8), (16, 8)];
const ROWS_PER_CONN: usize = 20_000;

struct Point {
    conns: usize,
    subs: usize,
    total_rows: usize,
    wall: Duration,
    lines: u64,
    backpressure: u64,
    overflows: u64,
}

fn engine() -> Engine {
    let mut e = Engine::new();
    for i in 0..STREAMS {
        e.create_stream(&format!("s{i}"), &[("x", DataType::Int), ("y", DataType::Float)])
            .expect("stream");
    }
    for i in 0..STREAMS {
        e.register_sql(&format!(
            "SELECT sum(y) FROM s{i} WHERE x > 1 WINDOW SIZE {WINDOW} SLIDE {SLIDE}"
        ))
        .expect("query");
    }
    e
}

/// Result lines one query emits over `n` input rows (one line per window).
fn expected_lines(n: usize) -> usize {
    if n >= WINDOW {
        (n - WINDOW) / SLIDE + 1
    } else {
        0
    }
}

fn run_point(conns: usize, subs: usize, rows: usize, seed: u64) -> Point {
    let server =
        NetServer::spawn(engine(), "127.0.0.1:0", NetConfig::default()).expect("spawn server");
    let addr = server.local_addr();

    // Subscribers attach first so every one of them sees window 0: a
    // late subscriber starts at the stream's end and would wait for a
    // window that already went by. Each reports its handshake here.
    let (attached_tx, attached_rx) = std::sync::mpsc::channel();
    let writers_on = |stream: usize| (0..conns).filter(|c| c % STREAMS == stream).count();
    let readers: Vec<_> = (0..subs)
        .map(|m| {
            let qi = m % STREAMS;
            let want = expected_lines(writers_on(qi) * rows);
            let attached = attached_tx.clone();
            std::thread::spawn(move || {
                let sock = TcpStream::connect(addr).expect("subscriber connect");
                sock.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");
                let mut r = BufReader::new(sock);
                r.get_mut().write_all(format!("SUBSCRIBE q{qi}\n").as_bytes()).expect("hello");
                let mut line = String::new();
                r.read_line(&mut line).expect("ack");
                assert!(line.starts_with("OK"), "handshake failed: {line:?}");
                attached.send(()).expect("main is waiting");
                for _ in 0..want {
                    line.clear();
                    let n = r.read_line(&mut line).expect("result line");
                    assert!(n > 0, "server closed before all windows arrived");
                }
            })
        })
        .collect();

    for _ in 0..subs {
        attached_rx.recv().expect("subscriber handshake");
    }

    let start = Instant::now();
    let writers: Vec<_> = (0..conns)
        .map(|c| {
            let stream = c % STREAMS;
            std::thread::spawn(move || {
                let mut sock = TcpStream::connect(addr).expect("writer connect");
                sock.write_all(format!("INGEST s{stream}\n").as_bytes()).expect("hello");
                // ~4 KiB batches: realistic client-side buffering.
                let mut payload = String::with_capacity(8192);
                for j in 0..rows {
                    let x = (j as u64).wrapping_mul(seed | 1) % 7;
                    let y = j as f64 * 0.5;
                    payload.push_str(&format!("{x},{y}\n"));
                    if payload.len() >= 4096 {
                        sock.write_all(payload.as_bytes()).expect("rows");
                        payload.clear();
                    }
                }
                sock.write_all(payload.as_bytes()).expect("tail");
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }
    for r in readers {
        r.join().expect("subscriber thread");
    }
    let wall = start.elapsed();

    let stats = server.stats().clone();
    drop(server.shutdown());
    Point {
        conns,
        subs,
        total_rows: conns * rows,
        wall,
        lines: stats.fanout_rows.get(),
        backpressure: stats.backpressure_ticks.get(),
        overflows: stats.subscriber_overflows.get(),
    }
}

fn main() {
    let args = Args::parse();
    let rows = args.windows.unwrap_or_else(|| args.sized(ROWS_PER_CONN, WINDOW * 2));
    println!(
        "serve_scale: {STREAMS} streams/queries, window {WINDOW} slide {SLIDE}, \
         {rows} rows per connection\n"
    );
    let mut table = Vec::new();
    for (conns, subs) in POINTS {
        let p = run_point(conns, subs, rows, args.seed);
        let mrows = p.total_rows as f64 / p.wall.as_secs_f64() / 1e6;
        table.push(vec![
            format!("{}", p.conns),
            format!("{}", p.subs),
            format!("{}", p.total_rows),
            fmt_duration(p.wall),
            format!("{mrows:.2}"),
            format!("{}", p.lines),
            format!("{}", p.backpressure),
            format!("{}", p.overflows),
        ]);
    }
    print_table(
        &["conns", "subs", "rows", "wall", "Mrows/s", "lines out", "bp ticks", "overflows"],
        &table,
    );
}
