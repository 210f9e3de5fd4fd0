//! Failure injection and edge behaviour: malformed input, starved and
//! bursty streams, degenerate windows, misuse of the API.

use datacell::basket::{Basket, BasketError, CsvReceptor, MalformedPolicy, ShardedBasket};
use datacell::core::{ExecMode, Factory, FireOutcome, RegisterOptions, StreamInput};
use datacell::net::{NetConfig, NetServer};
use datacell::prelude::*;
use datacell::telemetry::parse_text;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn engine() -> Engine {
    let mut e = Engine::new();
    e.create_stream("s", &[("x1", DataType::Int), ("x2", DataType::Int)]).unwrap();
    e
}

#[test]
fn malformed_csv_rows_are_contained() {
    let mut rx = CsvReceptor::new(&[DataType::Int, DataType::Int]);
    // Garbage of every flavour: wrong arity, wrong types, empty fields.
    rx.parse("1,2\nx,y\n3\n4,5,6\n7,\n8,9\n").unwrap();
    assert_eq!(rx.rows_ok(), 2);
    assert_eq!(rx.rows_skipped(), 4);
    // Fail policy aborts instead.
    let mut strict =
        CsvReceptor::new(&[DataType::Int, DataType::Int]).with_policy(MalformedPolicy::Fail);
    let err = strict.parse("1,2\nbad,row\n").unwrap_err();
    assert_eq!(err.line, 2);
}

#[test]
fn starved_stream_never_fires() {
    let mut e = engine();
    let q = e.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 100 SLIDE 50").unwrap();
    // Not enough tuples for even one basic window.
    e.append("s", &[Column::Int(vec![1; 49]), Column::Int(vec![1; 49])]).unwrap();
    e.run_until_idle().unwrap();
    assert!(e.drain_results(q).unwrap().is_empty());
    // One more tuple completes the first basic window but not the window.
    e.append("s", &[Column::Int(vec![1]), Column::Int(vec![1])]).unwrap();
    e.run_until_idle().unwrap();
    assert!(e.drain_results(q).unwrap().is_empty());
    // Filling the window produces exactly one result.
    e.append("s", &[Column::Int(vec![1; 50]), Column::Int(vec![1; 50])]).unwrap();
    e.run_until_idle().unwrap();
    assert_eq!(e.drain_results(q).unwrap().len(), 1);
}

#[test]
fn bursty_arrivals_equal_steady_arrivals() {
    let xs: Vec<i64> = (0..60).map(|i| i % 7).collect();
    let ys: Vec<i64> = (0..60).collect();
    let sql = "SELECT x1, sum(x2) FROM s WHERE x1 > 1 GROUP BY x1 WINDOW SIZE 12 SLIDE 4";

    // Steady: 4-tuple batches.
    let mut e1 = engine();
    let q1 = e1.register_sql(sql).unwrap();
    for c in xs.chunks(4).zip(ys.chunks(4)) {
        e1.append("s", &[Column::Int(c.0.to_vec()), Column::Int(c.1.to_vec())]).unwrap();
        e1.run_until_idle().unwrap();
    }
    // Bursty: one huge batch then single tuples.
    let mut e2 = engine();
    let q2 = e2.register_sql(sql).unwrap();
    e2.append("s", &[Column::Int(xs[..37].to_vec()), Column::Int(ys[..37].to_vec())]).unwrap();
    e2.run_until_idle().unwrap();
    for i in 37..60 {
        e2.append("s", &[Column::Int(vec![xs[i]]), Column::Int(vec![ys[i]])]).unwrap();
        e2.run_until_idle().unwrap();
    }

    let r1 = e1.drain_results(q1).unwrap();
    let r2 = e2.drain_results(q2).unwrap();
    assert_eq!(r1.len(), r2.len());
    for (a, b) in r1.iter().zip(&r2) {
        assert_eq!(a.sorted_rows(), b.sorted_rows());
    }
}

#[test]
fn window_spec_validation_errors() {
    let mut e = engine();
    for bad in [
        "SELECT sum(x2) FROM s WINDOW SIZE 10 SLIDE 3", // step doesn't divide
        "SELECT sum(x2) FROM s WINDOW SIZE 5 SLIDE 10", // step > size
    ] {
        assert!(e.register_sql(bad).is_err(), "{bad} should be rejected");
    }
}

#[test]
fn basket_range_errors_are_typed() {
    let mut b = Basket::new("s", &[("x", DataType::Int)]);
    b.append(&[Column::Int(vec![1, 2, 3])], 0).unwrap();
    b.expire_upto(2);
    match b.read_range(0, 1) {
        Err(BasketError::RangeUnavailable { base, .. }) => assert_eq!(base, 2),
        other => panic!("expected RangeUnavailable, got {other:?}"),
    }
}

#[test]
fn unknown_query_operations_fail_cleanly() {
    let mut e = engine();
    let q = e.register_sql("SELECT sum(x2) FROM s WHERE x1 > 0 WINDOW SIZE 2 SLIDE 1").unwrap();
    e.deregister(q).unwrap();
    assert!(e.drain_results(q).is_err());
    assert!(e.drain_with_metrics(q).is_err());
    assert!(e.deregister(q).is_err());
}

#[test]
fn empty_windows_emit_empty_results_not_errors() {
    // All tuples filtered out: grouped query emits zero rows per window.
    let mut e = engine();
    let q = e
        .register_sql("SELECT x1, sum(x2) FROM s WHERE x1 > 1000 GROUP BY x1 WINDOW SIZE 4 SLIDE 2")
        .unwrap();
    e.append("s", &[Column::Int(vec![1; 8]), Column::Int(vec![1; 8])]).unwrap();
    e.run_until_idle().unwrap();
    let out = e.drain_results(q).unwrap();
    assert_eq!(out.len(), 3);
    assert!(out.iter().all(datacell::plan::ResultSet::is_empty));
}

#[test]
fn empty_window_scalar_aggregates_drop_the_row() {
    for mode in [ExecMode::Incremental, ExecMode::Reevaluation] {
        let mut e = engine();
        let q = e
            .register_sql_with(
                "SELECT max(x1) FROM s WHERE x1 > 1000 WINDOW SIZE 4 SLIDE 2",
                RegisterOptions { mode, chunker: None },
            )
            .unwrap();
        e.append("s", &[Column::Int(vec![1; 8]), Column::Int(vec![1; 8])]).unwrap();
        e.run_until_idle().unwrap();
        let out = e.drain_results(q).unwrap();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(datacell::plan::ResultSet::is_empty), "{mode:?}");
    }
}

#[test]
fn time_regression_in_appends_is_rejected() {
    let b = ShardedBasket::new(Basket::new("s", &[("x", DataType::Int)]), 1);
    b.append(&[Column::Int(vec![1])], 100).unwrap();
    let err = b.append(&[Column::Int(vec![2])], 50);
    assert!(err.is_err());
}

#[test]
fn engine_clock_is_monotonic() {
    let mut e = engine();
    e.advance_clock(100);
    e.advance_clock(50); // ignored
    assert_eq!(e.clock(), 100);
    e.append_at("s", &[Column::Int(vec![1]), Column::Int(vec![1])], 200).unwrap();
    assert_eq!(e.clock(), 200);
}

#[test]
fn zero_size_batches_are_noops() {
    let mut e = engine();
    let q = e.register_sql("SELECT count(x1) FROM s WINDOW SIZE 2 SLIDE 2").unwrap();
    e.append("s", &[Column::Int(vec![]), Column::Int(vec![])]).unwrap();
    e.run_until_idle().unwrap();
    assert!(e.drain_results(q).unwrap().is_empty());
}

#[test]
fn schema_violation_on_append() {
    let mut e = engine();
    // Wrong arity.
    assert!(e.append("s", &[Column::Int(vec![1])]).is_err());
    // Wrong type.
    assert!(e.append("s", &[Column::Float(vec![1.0]), Column::Int(vec![1])]).is_err());
    // Misaligned columns.
    assert!(e.append("s", &[Column::Int(vec![1, 2]), Column::Int(vec![1])]).is_err());
}

/// A registered factory that blows up when fired, after taking one row
/// or — so that it stays enabled and fails every drain — none.
struct ExplodingFactory {
    input: StreamInput,
    takes_row: bool,
}

impl Factory for ExplodingFactory {
    fn label(&self) -> &str {
        "exploding"
    }

    fn ready(&self, _clock: u64) -> bool {
        self.input.available() > 0
    }

    fn fire(&mut self, _clock: u64) -> Result<FireOutcome, DataCellError> {
        if self.takes_row {
            self.input.take(1)?;
        }
        panic!("factory exploded");
    }

    fn consumed_upto(&self, stream: &str) -> Option<u64> {
        (stream == self.input.name).then_some(self.input.consumed)
    }

    fn input_streams(&self) -> Vec<String> {
        vec![self.input.name.clone()]
    }
}

#[test]
fn panicking_factory_does_not_take_the_server_down() {
    // Default configuration (one worker: the server's loop thread fires
    // the factory itself). The panic must come back from the drain as a
    // typed error the server counts — not unwind through its loop.
    let mut engine = engine();
    let input = StreamInput::new("s", engine.basket("s").unwrap());
    engine.register_factory(Box::new(ExplodingFactory { input, takes_row: true })).unwrap();
    let server = NetServer::spawn(engine, "127.0.0.1:0", NetConfig::default()).expect("bind");

    let mut ingest = TcpStream::connect(server.local_addr()).expect("connect");
    ingest.write_all(b"INGEST s\n1,1\n").expect("ingest");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().errors.get() == 0 {
        assert!(Instant::now() < deadline, "the scheduler error was never counted");
        std::thread::sleep(Duration::from_millis(2));
    }

    let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
    sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request");
    let mut response = String::new();
    sock.read_to_string(&mut response).expect("response");
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
    let parsed = parse_text(response.split("\r\n\r\n").nth(1).expect("body")).expect("parse");
    assert!(parsed.get("datacell_net_errors_total", &[]).expect("errors family") >= 1.0);

    // The loop thread is alive to hand the engine back.
    let engine = server.shutdown().expect("shutdown");
    assert_eq!(engine.basket("s").unwrap().end_oid(), 1);
}

#[test]
fn factory_failing_every_drain_costs_its_neighbours_no_window() {
    // The exploding factory consumes nothing, so it is enabled — and
    // aborts the drain — every time. The SQL query beside it reads the
    // same stream; the windows it completes in an aborted drain are kept.
    let mut e = engine();
    let q = e.register_sql("SELECT sum(x2) FROM s WINDOW SIZE 2 SLIDE 2").unwrap();
    let input = StreamInput::new("s", e.basket("s").unwrap());
    e.register_factory(Box::new(ExplodingFactory { input, takes_row: false })).unwrap();
    for round in 0..3i64 {
        e.append("s", &[Column::Int(vec![0, 0]), Column::Int(vec![round, round])]).unwrap();
        let err = e.run_until_idle().unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        let out = e.drain_results(q).unwrap();
        assert_eq!(out.len(), 1, "round {round}");
        assert_eq!(out[0].rows()[0][0].as_i64(), Some(2 * round));
    }
}
