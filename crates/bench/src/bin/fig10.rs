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

/// The byte offset of every row of `csv` (one `\n`-terminated line per
/// row) and of its end, so rows `[a, b)` are `csv[off[a]..off[b]]`.
fn row_offsets(csv: &str) -> Vec<usize> {
    std::iter::once(0).chain(csv.match_indices('\n').map(|(i, _)| i + 1)).collect()
}

fn main() {
    let args = Args::parse();
    let windows = args.windows.unwrap_or(100);

    println!("Figure 10: DataCell cost breakdown (CSV loading vs query processing), Q2");
    // |W| is a multiple of the 64 basic windows; sizes `--scale` clamps
    // to the same |W| are measured once.
    let mut sizes: Vec<usize> = [1_024usize, 10_240, 25_600, 51_200, 102_400]
        .into_iter()
        .map(|w| if args.paper { w } else { args.sized(w, 640) })
        .map(|w| (w / 64).max(1) * 64)
        .collect();
    sizes.dedup();
    let mut rows = Vec::new();
    for w in sizes {
        let step = w / 64;
        let total_tuples = w + (windows - 1) * step;

        // Pre-render the CSV input (the "file") so only parse+load counts.
        let d1 = gen_join_stream(total_tuples, 100_000, args.seed);
        let d2 = gen_join_stream(total_tuples, 100_000, args.seed + 1);
        let csv1 = csv_for_stream(&d1);
        let csv2 = csv_for_stream(&d2);
        let (off1, off2) = (row_offsets(&csv1), row_offsets(&csv2));

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
            // Loading: parse the next chunk of the file, in place, into the
            // baskets.
            let t_load = Instant::now();
            rx1.parse_bytes(&csv1.as_bytes()[off1[off]..off1[off + len]], usize::MAX).unwrap();
            rx2.parse_bytes(&csv2.as_bytes()[off2[off]..off2[off + len]], usize::MAX).unwrap();
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
