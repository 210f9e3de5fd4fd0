//! Figure 10 (the unnumbered final figure of §4.2) — DataCell cost
//! breakdown: total time vs pure query processing vs loading (CSV parsing
//! into baskets), across window sizes.
//!
//! "Here, we test the complete software stack of DataCell, i.e., data is
//! read from an input file in chunks. It is parsed and then it is passed
//! into the system for query processing." The paper finds query processing
//! dominates and loading is a minor fraction.

use datacell_basket::CsvReceptor;
use datacell_bench::workload::{csv_for_stream, gen_join_stream};
use datacell_bench::{fmt_duration, print_table, Args};
use datacell_core::Engine;
use datacell_kernel::DataType;
use std::time::{Duration, Instant};

fn main() {
    let args = Args::parse();
    let windows = args.windows.unwrap_or(100);

    println!("Figure 10: DataCell cost breakdown (CSV loading vs query processing), Q2");
    let sizes = [1_024usize, 10_240, 25_600, 51_200, 102_400];
    let mut rows = Vec::new();
    for w in sizes {
        let w = if args.paper { w } else { args.sized(w, 640) };
        let step = (w / 64).max(1);
        let w = step * 64;
        let total_tuples = w + (windows - 1) * step;

        // Pre-render the CSV input (the "file") so only parse+load counts.
        let d1 = gen_join_stream(total_tuples, 100_000, args.seed);
        let d2 = gen_join_stream(total_tuples, 100_000, args.seed + 1);
        let csv1 = csv_for_stream(&d1);
        let csv2 = csv_for_stream(&d2);
        let lines1: Vec<&str> = csv1.lines().collect();
        let lines2: Vec<&str> = csv2.lines().collect();

        let mut engine = Engine::new();
        engine.create_stream("s1", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
        engine.create_stream("s2", &[("k", DataType::Int), ("v", DataType::Int)]).unwrap();
        let q = engine
            .register_sql(&format!(
                "SELECT max(s1.v), avg(s2.v) FROM s1, s2 WHERE s1.k = s2.k \
                 WINDOW SIZE {w} SLIDE {step}"
            ))
            .unwrap();

        let mut rx1 = CsvReceptor::new(&[DataType::Int, DataType::Int]);
        let mut rx2 = CsvReceptor::new(&[DataType::Int, DataType::Int]);
        let b1 = engine.basket("s1").unwrap();
        let b2 = engine.basket("s2").unwrap();

        let mut loading = Duration::ZERO;
        let t_total = Instant::now();
        let mut off = 0;
        while off < total_tuples {
            let len = step.min(total_tuples - off);
            // Loading: parse the next chunk of the file into the baskets.
            let t_load = Instant::now();
            let chunk1 = lines1[off..off + len].join("\n");
            let chunk2 = lines2[off..off + len].join("\n");
            rx1.parse(&chunk1).unwrap();
            rx2.parse(&chunk2).unwrap();
            rx1.flush_into(&b1, 0).unwrap();
            rx2.flush_into(&b2, 0).unwrap();
            loading += t_load.elapsed();
            // Query processing.
            engine.run_until_idle().unwrap();
            off += len;
        }
        let total = t_total.elapsed();
        let query: Duration =
            engine.drain_with_metrics(q).unwrap().iter().map(|(_, m)| m.total).sum();

        rows.push(vec![
            w.to_string(),
            fmt_duration(total),
            fmt_duration(query),
            fmt_duration(loading),
        ]);
    }
    print_table(&["|W|", "total", "query processing", "loading"], &rows);

    println!(
        "\nshape check: query processing is the major component; loading \
         (parse+append)\nis a minor fraction of total cost."
    );
}
