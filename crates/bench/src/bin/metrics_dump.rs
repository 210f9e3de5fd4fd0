//! `metrics_dump` — drive a sharded aggregation workload through all
//! three parallelism axes (4 scheduler workers × 4 basket shards × 4
//! kernel partitions by default) and print the engine's full telemetry
//! snapshot in Prometheus text format, followed by a human summary:
//! per-query slide-latency quantiles, the paper's Fig. 7 main-plan vs.
//! merge split, per-worker fire counts, per-shard staged depth and the
//! kernel's concat-vs-regroup merge ratio. The first burst goes in over a
//! real `INGEST` socket, so the dump also carries the network edge's
//! `datacell_net_*` families, as `GET /metrics` would serve them.
//!
//! The dump re-parses its own exposition with `telemetry::parse_text`
//! before printing anything, so every run doubles as a format
//! conformance check — CI runs this bin and fails on a parse error or
//! on a zero where the workload must have left a signal.
//!
//! Flags: `--scale f` resizes the per-round batch, `--shards n` /
//! `--partitions n` / `--windows n` (rounds) override the axes;
//! `DATACELL_WORKERS` above 1 overrides the worker count (default 4
//! here, not the engine's usual 1). `DATACELL_TELEMETRY=0` kills the timed
//! signals; counters and gauges stay on.

use datacell_bench::Args;
use datacell_core::{Engine, EngineConfig};
use datacell_kernel::{Column, DataType};
use datacell_net::{NetConfig, NetServer};
use datacell_telemetry::{parse_text, render_text, SampleValue};
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Deterministic key/value batch: keys from a small domain (heavy
/// groups), values from the LCG stream.
fn batch(rows: usize, seed: &mut u64) -> Vec<Column> {
    let mut ks = Vec::with_capacity(rows);
    let mut vs = Vec::with_capacity(rows);
    for _ in 0..rows {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ks.push(((*seed >> 33) % 16) as i64);
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        vs.push(((*seed >> 33) % 1_000_000) as i64);
    }
    vec![Column::Int(ks), Column::Int(vs)]
}

fn main() {
    let args = Args::parse();
    // The engine's usual default of one worker would leave the pool
    // families empty; this dump wants all three axes live.
    let workers = match EngineConfig::from_env().workers {
        1 => 4,
        n => n,
    };
    let shards = args.shards.unwrap_or(4);
    let partitions = args.partitions.unwrap_or(4);
    let rounds = args.windows.unwrap_or(8).max(1);
    let rows_per_shard = args.sized(256, 32);

    let mut e = Engine::with_config(EngineConfig {
        workers,
        partitions,
        basket_shards: shards,
        ..EngineConfig::from_env()
    });
    e.create_stream("s", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    e.create_stream("t", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
    let queries = [
        e.register_sql("SELECT k, sum(v), avg(v) FROM s GROUP BY k WINDOW SIZE 1024 SLIDE 512")
            .unwrap(),
        e.register_sql("SELECT sum(v) FROM s WHERE k > 3 WINDOW SIZE 512 SLIDE 256").unwrap(),
        e.register_sql("SELECT k, v FROM s ORDER BY v DESC LIMIT 10 WINDOW SIZE 512 SLIDE 256")
            .unwrap(),
        e.register_sql(
            "SELECT max(s.v), count(t.v) FROM s, t WHERE s.k = t.k WINDOW SIZE 64 SLIDE 16",
        )
        .unwrap(),
    ];

    // One burst over the wire: the server owns the engine while it runs
    // and hands it back, with its own counters kept for the dump.
    let mut seed = args.seed.wrapping_add(1);
    let wire_rows = rows_per_shard * shards;
    let mut csv = String::from("INGEST s\n");
    let burst = batch(wire_rows, &mut seed);
    for (k, v) in burst[0].as_int().unwrap().iter().zip(burst[1].as_int().unwrap()) {
        writeln!(csv, "{k},{v}").unwrap();
    }
    let server = NetServer::spawn(e, "127.0.0.1:0", NetConfig::default()).unwrap();
    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
    sock.write_all(csv.as_bytes()).unwrap();
    drop(sock);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().ingest_rows.get() < wire_rows as u64 {
        assert!(Instant::now() < deadline, "wire burst never landed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let net = server.stats().clone();
    let mut e = server.shutdown().unwrap();

    // N rounds of "one batch per staging shard, then drain" — the
    // steady-state loop of `shards` receptors feeding standing queries.
    let b = e.basket("s").unwrap();
    for _ in 0..rounds {
        for shard in 0..shards {
            b.append_shard(shard, &batch(rows_per_shard, &mut seed), 0).unwrap();
        }
        // The join's other side: every slide is two strip probes.
        e.append("t", &batch(64, &mut seed)).unwrap();
        e.run_until_idle().unwrap();
    }
    let slides: usize = queries.iter().map(|&q| e.drain_results(q).unwrap().len()).sum();
    assert!(slides > 0, "workload produced no window slides");

    // Leave a tail staged with no drain after it, like a receptor caught
    // mid-burst: the staged-depth gauges in the dump must be nonzero.
    for shard in 0..shards {
        b.append_shard(shard, &batch(8, &mut seed), 0).unwrap();
    }

    let mut snap = e.telemetry_snapshot();
    net.extend_snapshot(&mut snap);
    let text = render_text(&snap);
    let parsed = parse_text(&text).expect("exposition must parse as Prometheus text");
    println!("{text}");

    // -- human summary + nonzero acceptance checks -------------------------

    println!("# == summary ({workers} workers x {shards} shards x {partitions} partitions, {rounds} rounds, {slides} slides) ==");
    let fam = snap.family("datacell_query_slide_seconds").expect("query latency family");
    for s in &fam.samples {
        let SampleValue::Histogram(h) = &s.value else { continue };
        let query = s.labels.first().map_or("?", |(_, v)| v.as_str());
        let lbl = [("query", query)];
        let main_plan = parsed.get("datacell_query_main_plan_seconds_total", &lbl).unwrap_or(0.0);
        let merge = parsed.get("datacell_query_merge_seconds_total", &lbl).unwrap_or(0.0);
        println!(
            "# {query}: {} slides, p50 {:?}, p95 {:?}, p99 {:?}, main-plan {:.3}ms, merge {:.3}ms",
            h.count,
            h.quantile(0.50),
            h.quantile(0.95),
            h.quantile(0.99),
            main_plan * 1e3,
            merge * 1e3,
        );
        assert!(h.count > 0, "query {query} recorded no slide latencies");
    }

    let fires: Vec<f64> = parsed
        .samples
        .iter()
        .filter(|s| s.name == "datacell_scheduler_worker_fires_total")
        .map(|s| s.value)
        .collect();
    println!("# worker fires: {fires:?}");
    if workers > 1 {
        assert!(!fires.is_empty(), "pooled run exposed no per-worker series");
        assert!(fires.iter().sum::<f64>() > 0.0, "pool workers never fired a factory");
    }

    let staged = parsed.total("datacell_basket_staged_rows");
    let imbalance = parsed.total("datacell_basket_shard_imbalance_ratio");
    println!("# staged rows (tail burst): {staged}, shard imbalance ratio: {imbalance:.3}");
    assert!(staged > 0.0, "staged tail burst not visible in the dump");

    let concat = parsed.total("datacell_kernel_merge_concat_total");
    let regroup = parsed.total("datacell_kernel_merge_regroup_total");
    println!("# kernel merges: concat fast path {concat}, re-group fallback {regroup}");
    if partitions > 1 {
        assert!(concat + regroup > 0.0, "partitioned run never merged aggregation partials");
    }

    // The ORDER BY query exercises SortPerm + Fetch every slide, so the
    // morsel fetch/sort families must carry a signal (and the parallel
    // legs must fire whenever the axis asks for more than one partition).
    let fetches = parsed.total("datacell_kernel_fetch_calls_total");
    let sorts = parsed.total("datacell_kernel_sort_calls_total");
    let par_fetches = parsed.total("datacell_kernel_fetch_par_calls_total");
    let par_sorts = parsed.total("datacell_kernel_sort_par_calls_total");
    let elided = parsed.total("datacell_kernel_scatter_elided_total");
    println!(
        "# kernel fetch/sort: {fetches} fetches ({par_fetches} parallel), \
         {sorts} sorts ({par_sorts} parallel), {elided} scatters elided"
    );
    assert!(fetches > 0.0, "ORDER BY workload recorded no fetch calls");
    assert!(sorts > 0.0, "ORDER BY workload recorded no sort calls");
    if partitions > 1 {
        assert!(par_sorts > 0.0, "partitioned run never took the parallel sort path");
    }
    let joins = parsed.total("datacell_kernel_join_calls_total");
    let probe_rows = parsed.total("datacell_kernel_join_probe_rows_total");
    let pairs = parsed.total("datacell_kernel_join_pairs_total");
    println!("# kernel joins: {joins} calls, {probe_rows} probe rows, {pairs} pairs");
    assert!(joins > 0.0 && probe_rows > 0.0, "join workload recorded no join calls");
    let wire = parsed.total("datacell_net_ingest_rows_total");
    let parse_passes = parsed.total("datacell_net_parse_seconds_count");
    let parse_s = parsed.total("datacell_net_parse_seconds_sum");
    println!("# net edge: {wire} rows ingested, parsed in {parse_passes} loop passes, {parse_s:.6}s in the parser");
    assert!(wire > 0.0, "wire burst not visible in the dump");
    if datacell_telemetry::enabled() {
        assert!(parse_passes > 0.0, "wire burst recorded no parse time");
    }
    println!("# metrics_dump: exposition parsed clean ({} families)", parsed.families.len());
}
