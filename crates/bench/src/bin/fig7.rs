//! Figure 7 — Decreasing step size (increasing number of basic windows),
//! with the DataCell cost broken into *main plan* vs *merge* components.
//!
//! Paper: (a) Q1, |W| = 1.024e7, sel 20%, n ∈ {2..2048};
//!        (b) Q2, |W| = 1.024e5, n ∈ {2..64}.
//!
//! Below each table the shape is computed from its rows, not asserted:
//! DataCell's merge share of the slide at the smallest and the largest n,
//! and DataCell ÷ DataCellR per n. Every point also checks that DataCell
//! and DataCellR produced the same windows; the binary exits 1 if any
//! point disagrees.

use datacell_bench::{
    fmt_duration, print_table, run_q1, run_q2, Args, Mode, Q1Config, Q2Config, RunOutcome,
};
use std::time::Duration;

/// Mean total, main-plan and merge time per slide after the first window.
fn steady(per_window: &[datacell_core::SlideMetrics]) -> (Duration, Duration, Duration) {
    let s = &per_window[1.min(per_window.len().saturating_sub(1))..];
    if s.is_empty() {
        return (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    }
    let n = s.len() as u32;
    (
        s.iter().map(|m| m.total).sum::<Duration>() / n,
        s.iter().map(|m| m.main_plan).sum::<Duration>() / n,
        s.iter().map(|m| m.merge).sum::<Duration>() / n,
    )
}

/// Run one panel: per n, DataCellR then DataCell (`run(n, mode)`); print
/// the table and the computed shape lines. Returns the n at which the two
/// engines disagreed.
fn panel(label: &str, ns: &[usize], run: impl Fn(usize, &Mode) -> RunOutcome) -> Vec<usize> {
    let (mut rows, mut shares, mut ratios, mut disagree) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &n in ns {
        let re = run(n, &Mode::DataCellR);
        let inc = run(n, &Mode::DataCell);
        if !inc.agrees_with(&re) {
            disagree.push(n);
        }
        let (total, main, merge) = steady(&inc.per_window);
        let (rt, _, _) = steady(&re.per_window);
        let ratio = total.as_secs_f64() / rt.as_secs_f64().max(f64::MIN_POSITIVE);
        shares.push((n, merge.as_secs_f64() / total.as_secs_f64().max(f64::MIN_POSITIVE)));
        ratios.push(format!("n={n} {ratio:.2}"));
        rows.push(vec![
            n.to_string(),
            fmt_duration(rt),
            fmt_duration(total),
            fmt_duration(main),
            fmt_duration(merge),
        ]);
    }
    print_table(
        &["n", "DataCellR(total)", "DataCell(total)", "DataCell(main plan)", "DataCell(merge)"],
        &rows,
    );
    if let (Some((n0, s0)), Some((n1, s1))) = (shares.first(), shares.last()) {
        println!(
            "{label} merge share of the DataCell slide: {:.1}% at n = {n0}, {:.1}% at n = {n1}",
            100.0 * s0,
            100.0 * s1
        );
    }
    println!("{label} DataCell / DataCellR per slide: {}", ratios.join(", "));
    match disagree.as_slice() {
        [] => println!("{label} DataCell = DataCellR in every window of every point"),
        ns => println!("{label} DataCell != DataCellR at n = {ns:?}"),
    }
    disagree
}

fn main() {
    let args = Args::parse();
    let windows = args.windows.unwrap_or(5);

    // -- (a) Q1 ------------------------------------------------------------
    let w1 = if args.paper { 10_240_000 } else { args.sized(1_024_000, 8_192) };
    println!("Figure 7(a): Q1, vary #basic windows, |W| = {w1}, sel = 20%");
    let ns: Vec<usize> = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048]
        .into_iter()
        .filter(|n| w1 % n == 0)
        .collect();
    let bad_a = panel("(a)", &ns, |n, mode| {
        let cfg = Q1Config { window: w1, step: w1 / n, selectivity: 0.2, windows, seed: args.seed };
        run_q1(mode, &cfg)
    });

    // -- (b) Q2 ------------------------------------------------------------
    let w2 = if args.paper { 102_400 } else { args.sized(51_200, 4_096) };
    println!("\nFigure 7(b): Q2, vary #basic windows, |W| = {w2}");
    let ns: Vec<usize> = [2, 4, 8, 16, 32, 64].into_iter().filter(|n| w2 % n == 0).collect();
    let bad_b = panel("(b)", &ns, |n, mode| {
        let cfg =
            Q2Config { window: w2, step: w2 / n, key_domain: 10_000, windows, seed: args.seed };
        run_q2(mode, &cfg)
    });

    if !bad_a.is_empty() || !bad_b.is_empty() {
        eprintln!("error: DataCell and DataCellR disagree (see above)");
        std::process::exit(1);
    }
}
