//! `wirebench` — DataCell's wire-to-result benchmark.
//!
//! One process runs one workload: a CSV row enters an `INGEST` socket of
//! the real `NetServer`, the result line leaves a `SUBSCRIBE` socket, and
//! every line is checked against an in-process reference. `--trace 0`
//! measures the end-to-end metrics with tracing off; `--trace 1` is the
//! separate traced run that gives the per-layer numbers. See `README.md`
//! for the workloads, the metric definitions and how the layers are
//! expected to move the end-to-end numbers.

mod measure;
mod metrics;
mod reference;
mod replay;
mod stats;
mod trace;
mod wire;
mod workloads;

use datacell_telemetry::Parsed;
use metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Tracer, NO_PARENT};
use wire::{Closed, PhaseLog, Session};
use workloads::{Workload, LATENCY_LIMIT_MS, WORKLOADS};

/// Set-ups per run; `setup_s` is their median, so that one slow spawn or
/// page-fault storm does not decide the number.
const SETUPS: usize = 9;

/// Idle-floor probe: this many single slides, this far apart.
const IDLE_PROBES: usize = 100;
const IDLE_GAP: Duration = Duration::from_millis(20);

/// Guard rail: a generator that cannot keep its schedule runs later and
/// later, so half its batches leave more than a tick late. The rail is on
/// the median, not on p95: on two cores a waking writer regularly waits
/// out the running thread's scheduler slice (p95 0.2 to 1.1 ms on the seed
/// commit) and a shared box deschedules it for 20 to 600 ms a few times an
/// hour. Both are inside every reported latency, which is timed from the
/// due time, and `client.gen_late_p95_ms` states them; neither means the
/// generator was the bottleneck.
const GEN_LATE_LIMIT_MS: f64 = 1.0;

/// `--seconds` when the flag is absent; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = 24.0;
/// `--smoke`: about one second per phase.
const SMOKE_SECONDS: f64 = 2.5;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: wirebench --workload <{}> [--seed n] [--seconds s] [--trace 0|1] [--smoke]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (1u64, None, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workloads::find(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must lie in 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(if smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    Ok(Args { workload, seed, seconds, trace, smoke })
}

/// How `--seconds` is split. The untraced run spends everything on the
/// two measured phases; the traced run repeats them shorter and adds the
/// traced closed loop, the idle-floor probe and the in-process replay.
struct Plan {
    warmup: Duration,
    saturate: Duration,
    paced: Duration,
    /// Traced run only: the closed loop again, with client-side spans.
    traced_saturate: Duration,
    /// Traced run only: slides the in-process replay pushes through.
    replay_slides: u64,
    idle_probes: usize,
}

impl Plan {
    fn new(a: &Args) -> Plan {
        let share = |f: f64| Duration::from_secs_f64(a.seconds * f);
        if a.trace {
            Plan {
                warmup: share(0.1),
                saturate: share(0.2),
                traced_saturate: share(0.2),
                paced: share(0.25),
                replay_slides: ((a.workload.replay_slides_per_run_s as f64 * a.seconds) as u64)
                    .max(1),
                idle_probes: if a.smoke { IDLE_PROBES / 5 } else { IDLE_PROBES },
            }
        } else {
            Plan {
                warmup: share(0.1),
                saturate: share(0.4),
                paced: share(0.5),
                traced_saturate: Duration::ZERO,
                replay_slides: 0,
                idle_probes: 0,
            }
        }
    }
}

/// The commit the checkout is at, read from `.git` without running git;
/// `unknown` outside a repository (the driver's checkout is not one).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    match rev.trim() {
        "" => "unknown".to_owned(),
        r => r.chars().take(12).collect(),
    }
}

/// A run that must not be reported: the numbers would describe the load
/// generator or an unsupported tail, not the server.
struct Invalid(String);

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The engine runs as shipped: any DATACELL_* override would make the
    // numbers describe another configuration under the same name.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("DATACELL_"))
    {
        eprintln!(
            "error: {} is set; wirebench measures the default configuration only",
            k.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(Invalid(why)) => {
            eprintln!("invalid run: {why}");
            ExitCode::from(3)
        }
    }
}

/// The run header: everything needed to tell two result lines apart.
fn print_header(a: &Args, plan: &Plan, session: &Session) {
    let (w, cfg) = (a.workload, datacell_net::NetConfig::default());
    println!(
        "wirebench: workload={} seed={} seconds={} trace={}",
        w.name,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("  why: {}", w.why);
    println!("  sql: {}", w.sql);
    println!(
        "  git rev: {}  nproc: {}",
        git_rev(),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get)
    );
    println!("  engine: {}", session.engine_config);
    println!(
        "  net: batch_rows={} staging_budget={} subscriber_queue={} max_line={} tick={:?}",
        cfg.batch_rows, cfg.staging_budget, cfg.subscriber_queue, cfg.max_line, cfg.tick
    );
    println!(
        "  load: closed-loop saturate in {}-row writes with at most {} rows in flight, open-loop \
         paced at {} rows/s in {:?} batches, latency limit {LATENCY_LIMIT_MS} ms",
        w.saturate_chunk,
        w.inflight_rows,
        w.paced_rows_per_s,
        wire::TICK
    );
    print!(
        "  phases: warm-up {:?}, saturate {:?}, paced {:?}",
        plan.warmup, plan.saturate, plan.paced
    );
    if a.trace {
        print!(
            ", traced saturate {:?}, {} idle probes, replay {} slides",
            plan.traced_saturate, plan.idle_probes, plan.replay_slides
        );
    }
    println!();
    println!(
        "  ring: {} rows x {} stream(s), {} bytes, period {} windows, {} reference bytes",
        w.ring_rows(),
        w.streams.len(),
        session.rings.iter().map(|r| r.csv.len()).sum::<usize>(),
        session.reference.period(),
        session.reference.bytes.len()
    );
}

fn run(a: &Args) -> Result<bool, Invalid> {
    let w = a.workload;
    let plan = Plan::new(a);

    // Set-up, several times over; the last one is kept and measured on.
    let setups = if a.smoke { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    for _ in 1..setups {
        let s = Session::open(w, a.seed).expect("set-up");
        setup_s.push(s.setup_s);
        drop(s.close());
    }
    let mut session = Session::open(w, a.seed).expect("set-up");
    setup_s.push(session.setup_s);
    print_header(a, &plan, &session);

    // Phases, on one server; each ends with a full drain, which is also
    // the nothing-lost check.
    drop(session.saturate(plan.warmup, false));
    let saturate = session.saturate(plan.saturate, false);
    let traced = a.trace.then(|| {
        let before = session.scrape().expect("scrape before");
        let phase = session.saturate(plan.traced_saturate, true);
        let after = session.scrape().expect("scrape after");
        Traced { phase, before, after }
    });
    let paced = session.paced(plan.paced);
    let idle = a.trace.then(|| session.idle_floor(plan.idle_probes, IDLE_GAP));
    let (register_s, epoch) = (session.register_s, session.epoch);
    let closed = session.close();
    let reader = &closed.reader;
    let rejected =
        replay::family_total(&datacell_telemetry::global().snapshot(), REJECTED_ROWS) as u64;

    let sat = measure::saturate(w, &saturate, reader);
    let pac = measure::paced(w, &paced, reader);
    let attempted = sat.windows.expected() + pac.windows.expected();
    let failed = sat.windows.missing()
        + pac.windows.missing()
        + pac.late
        + rejected
        + closed.subscriber_overflows;
    if let Some(m) = &reader.mismatch {
        println!(
            "MISMATCH: wire window {} differs from the reference at byte {}",
            m.window, m.offset
        );
    }
    println!(
        "  windows: saturate {}/{} paced {}/{} ({} late), rejected rows {}, subscriber overflows {}, net errors {}",
        sat.windows.received,
        sat.windows.expected(),
        pac.windows.received,
        pac.windows.expected(),
        pac.late,
        rejected,
        closed.subscriber_overflows,
        closed.net_errors
    );
    println!(
        "  failed_share: {failed} / {attempted} = {:.6}",
        failed as f64 / attempted.max(1) as f64
    );
    let correct =
        reader.mismatch.is_none() && !reader.closed && !reader.mid_window && rejected == 0;
    if !correct || pac.latency_ms.is_empty() || sat.windows.received == 0 {
        println!("{}", result_line(false, attempted, failed.max(1), None));
        return Ok(false);
    }

    // Guard rails: a run that measured the generator is invalid, not noisy.
    let gen_late_p50 = stats::percentile(&pac.gen_late_ms, 0.5);
    if gen_late_p50 > GEN_LATE_LIMIT_MS {
        return Err(Invalid(format!(
            "half the paced batches left more than {gen_late_p50:.3} ms late (limit \
             {GEN_LATE_LIMIT_MS} ms): the generator, not the server, set the latency"
        )));
    }
    let writer_busy =
        saturate.writer_cpu_s / ((saturate.written_ns - saturate.start_ns) as f64 / 1e9);
    if saturate.backpressure_ticks == 0 && writer_busy > 0.9 {
        return Err(Invalid(format!(
            "saturate never saturated: no backpressure tick and the writer thread was {:.0} % on \
             CPU; enlarge saturate_chunk",
            writer_busy * 100.0
        )));
    }
    let n = pac.latency_ms.len();
    println!(
        "  latency samples: {n} in {} segment(s), {} beyond each p95",
        pac.segments(),
        stats::samples_beyond(n / pac.segments(), 0.95)
    );
    if !stats::tail_supported(n / pac.segments(), 0.95) {
        if !a.smoke {
            return Err(Invalid(format!(
                "p95 needs {} samples beyond it",
                stats::MIN_TAIL_SAMPLES
            )));
        }
        println!("  note: smoke run, too short to support p95");
    }

    let m = match (traced, idle) {
        (Some(traced), Some(idle)) => {
            let measured = Measured { saturate: &sat, paced: &pac, idle: &idle, register_s, epoch };
            let m = per_layer(w, &plan, &closed, &traced, &measured);
            println!("per-layer metrics:");
            m
        }
        _ => {
            let mut m = Metrics::new(END_TO_END);
            m.set("rows_per_s", sat.rows_per_s);
            m.set("latency_p50_ms", pac.latency(0.5));
            m.set("latency_p95_ms", pac.latency(0.95));
            m.set("cpu_s_per_mrow", sat.cpu_s_per_mrow);
            m.set("peak_rss_mb", stats::peak_rss_mb());
            m.set("setup_s", stats::median(&setup_s));
            println!("end-to-end metrics:");
            m
        }
    };
    m.print();
    println!("{}", result_line(true, attempted, failed, Some(&m)));
    Ok(true)
}

/// Rows any `CsvReceptor` in this process rejected (a process-wide counter).
const REJECTED_ROWS: &str = "datacell_receptor_rows_rejected_total";

/// The traced closed loop with the `/metrics` scrapes around it.
struct Traced {
    phase: PhaseLog,
    before: Parsed,
    after: Parsed,
}

/// What the traced run measured on the wire besides the traced phase.
struct Measured<'a> {
    saturate: &'a measure::Saturate,
    paced: &'a measure::Paced,
    idle: &'a PhaseLog,
    register_s: f64,
    epoch: Instant,
}

/// The per-layer half of the traced run: (a) client-side spans and scrape
/// deltas of the traced closed loop, (b) the in-process replay, (c) the
/// kernel probes. Writes the span file.
fn per_layer(w: &Workload, plan: &Plan, closed: &Closed, t: &Traced, x: &Measured) -> Metrics {
    let (rings, reference, reader) = (&closed.rings, &closed.reference, &closed.reader);
    let mut m = Metrics::new(PER_LAYER);
    let mut tracer = Tracer::new(x.epoch);
    let tsat = measure::saturate(w, &t.phase, reader);

    // (a) Each write, and each window from the write that closed it to
    // its last line.
    let root = tracer.push("wire.saturate", t.phase.start_ns, t.phase.end_ns, NO_PARENT, 0);
    let mut next = tsat.windows.first;
    for (i, s) in t.phase.sends.iter().enumerate() {
        let id = tracer.push("client.send", s.start_ns, s.end_ns, root, i as u64);
        while next < w.windows_after(s.rows_after) {
            if let Some(&arrival) = reader.arrivals.get(next as usize) {
                tracer.push("client.window", s.start_ns, arrival, id, next);
            }
            next += 1;
        }
    }
    m.set("client.gen_late_p95_ms", stats::percentile(&x.paced.gen_late_ms, 0.95));
    let written_s = (t.phase.written_ns - t.phase.start_ns) as f64 / 1e9;
    m.set("client.send_blocked_s", (written_s - t.phase.writer_cpu_s).max(0.0));
    m.set("client.latency_p99_ms", x.paced.overall(0.99));
    m.set("client.latency_max_ms", x.paced.overall(1.0));
    m.set("client.windows", reader.arrivals.len() as f64);
    m.set("client.lines", reference.lines_upto(reader.arrivals.len() as u64) as f64);
    let delta = |name: &str| t.after.total(name) - t.before.total(name);
    m.set("net.rx_bytes", delta("datacell_net_rx_bytes_total"));
    m.set("net.tx_bytes", delta("datacell_net_tx_bytes_total"));
    m.set("net.ingest_rows", delta("datacell_net_ingest_rows_total"));
    m.set("net.fanout_rows", delta("datacell_net_fanout_rows_total"));
    m.set("net.backpressure_ticks", delta("datacell_net_backpressure_ticks_total"));
    m.set("net.subscriber_overflows", delta("datacell_net_subscriber_overflows_total"));
    m.set("net.errors", delta("datacell_net_errors_total"));
    m.set("net.idle_floor_ms", measure::idle_floor_ms(x.idle, reader));

    // (b) The same bytes through the same public calls, in-process.
    let replay_root = tracer.open("replay", NO_PARENT, 0);
    let rep = replay::replay(w, rings, reference, plan.replay_slides, &mut tracer, replay_root);
    tracer.close(replay_root);
    let rows = (rep.rows * w.streams.len() as u64) as f64;
    let accounted_s: f64 = replay::LAYER_SPANS.iter().map(|l| tracer.total_s(l)).sum();
    // The wire's wall time for as many rows as the replay pushed.
    let wire_s = tsat.wall_s * rows / tsat.rows as f64;
    m.set("net.residual_s", wire_s - accounted_s);
    m.set("net.residual_share", (wire_s - accounted_s) / wire_s);
    m.set("trace.accounted_share", accounted_s / wire_s);
    m.set("trace.overhead_share", 1.0 - tsat.rows_per_s / x.saturate.rows_per_s);

    let parse_s = tracer.total_s("basket.parse");
    m.set("basket.parse_s", parse_s);
    m.set("basket.parse_ns_per_row", parse_s * 1e9 / rows);
    m.set("basket.append_s", tracer.total_s("basket.append"));
    m.set("basket.seal_s", tracer.total_s("basket.seal"));
    m.set("basket.seal_calls", rep.seal_calls as f64);
    m.set("basket.rejected_rows", rep.rejected_rows as f64);
    m.set("basket.resident_rows_max", rep.resident_rows_max as f64);

    let run_s = tracer.total_s("core.run_until_idle");
    let mut fires: Vec<f64> =
        tracer.durations_ns("core.run_until_idle").map(|ns| ns as f64 / 1e3).collect();
    stats::sort(&mut fires);
    m.set("core.run_until_idle_s", run_s);
    m.set("core.fire_p50_us", stats::percentile(&fires, 0.5));
    m.set("core.fire_p95_us", stats::percentile(&fires, 0.95));
    m.set("core.slides", rep.query_slides);
    m.set("core.slide_total_s", rep.slide_total_s);
    m.set("core.main_plan_s", rep.main_plan_s);
    m.set("core.merge_s", rep.merge_s);
    m.set("core.merge_share", rep.merge_s / rep.slide_total_s);
    m.set("core.sched_overhead_s", run_s - rep.slide_total_s);
    m.set("core.drain_s", tracer.total_s("core.drain"));
    m.set("sql.register_s", x.register_s);
    m.set("plan.mal_ops", mal_ops(w) as f64);
    m.set("kernel.grouped_agg_calls", rep.kernel.grouped_agg_calls as f64);
    m.set("kernel.grouped_agg_par_calls", rep.kernel.grouped_agg_par_calls as f64);
    m.set("kernel.merge_concat", rep.kernel.merge_concat_fast_path as f64);
    m.set("kernel.merge_regroup", rep.kernel.merge_regroup_fallback as f64);
    m.set("kernel.scatter_elided", rep.kernel.scatter_elided as f64);

    // (c) Kernel entry points on one window of this workload's rows.
    let probes_root = tracer.open("kernel.probes", NO_PARENT, 0);
    for (name, us) in replay::kernel_probes(w, rings, &mut tracer, probes_root) {
        m.set(&name, us);
    }
    tracer.close(probes_root);

    let path = PathBuf::from(format!("benchmark/out/{}.trace.json", w.name));
    tracer.write_json(&path).expect("write span file");
    println!(
        "  traced saturate: {:.0} rows/s against {:.0} untraced",
        tsat.rows_per_s, x.saturate.rows_per_s
    );
    println!(
        "  replay: {} rows/stream in {} slides; layers account for {accounted_s:.4} s of the \
         wire's {wire_s:.4} s, residual {:.4} s is net (socket read, line split, fan-out, \
         render, write, idle sleep)",
        rep.rows,
        rep.slides,
        wire_s - accounted_s
    );
    println!("  spans: {} written to {}", tracer.len(), path.display());
    m
}

/// Instructions of the incremental plan `explain_sql` prints
/// (`<stage> | X_n := op` lines). Repeats exactly for a given plan shape.
fn mal_ops(w: &Workload) -> usize {
    let (engine, _, _) = reference::build_engine(w);
    let text = engine.explain_sql(w.sql).expect("explain");
    text.lines().filter(|l| l.contains(" | X_")).count()
}
