//! The metric names and units, once: `BENCHMARK.json` lists the same
//! names in the same order, and a test holds the two together.

/// What a user of the system sees; reported by the untraced run, each with
/// a regression bound in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("cpu_s_per_mrow", "s/Mrow"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Single layers (the prefix is the crate); reported by the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.gen_late_p95_ms", "ms"),
    ("client.send_blocked_s", "s"),
    ("client.latency_p99_ms", "ms"),
    ("client.latency_max_ms", "ms"),
    ("client.windows", "count"),
    ("client.lines", "count"),
    ("net.rx_bytes", "bytes"),
    ("net.tx_bytes", "bytes"),
    ("net.ingest_rows", "rows"),
    ("net.fanout_rows", "rows"),
    ("net.backpressure_ticks", "count"),
    ("net.subscriber_overflows", "count"),
    ("net.errors", "count"),
    ("net.residual_s", "s"),
    ("net.residual_share", "ratio"),
    ("net.idle_floor_ms", "ms"),
    ("basket.parse_s", "s"),
    ("basket.parse_ns_per_row", "ns/row"),
    ("basket.append_s", "s"),
    ("basket.seal_s", "s"),
    ("basket.seal_calls", "count"),
    ("basket.rejected_rows", "rows"),
    ("basket.resident_rows_max", "rows"),
    ("core.run_until_idle_s", "s"),
    ("core.fire_p50_us", "us"),
    ("core.fire_p95_us", "us"),
    ("core.slides", "count"),
    ("core.slide_total_s", "s"),
    ("core.main_plan_s", "s"),
    ("core.merge_s", "s"),
    ("core.merge_share", "ratio"),
    ("core.sched_overhead_s", "s"),
    ("core.drain_s", "s"),
    ("sql.register_s", "s"),
    ("plan.mal_ops", "count"),
    ("kernel.select_p1_us", "us"),
    ("kernel.select_p2_us", "us"),
    ("kernel.group_agg_p1_us", "us"),
    ("kernel.group_agg_p2_us", "us"),
    ("kernel.hashjoin_p1_us", "us"),
    ("kernel.hashjoin_p2_us", "us"),
    ("kernel.sort_p1_us", "us"),
    ("kernel.sort_p2_us", "us"),
    ("kernel.fetch_p1_us", "us"),
    ("kernel.fetch_p2_us", "us"),
    ("kernel.grouped_agg_calls", "count"),
    ("kernel.grouped_agg_par_calls", "count"),
    ("kernel.merge_concat", "count"),
    ("kernel.merge_regroup", "count"),
    ("kernel.scatter_elided", "count"),
    ("trace.accounted_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// The values of one run, reported in the table's order.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics { table, values: vec![None; table.len()] }
    }

    /// Set `name`, which must be in the table and a finite number.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown metric {name}"));
        assert!(value.is_finite(), "metric {name} is not a finite number");
        self.values[i] = Some(value);
    }

    fn rows(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.table.iter().zip(&self.values).map(|(&(name, unit), v)| {
            (name, v.unwrap_or_else(|| panic!("metric {name} was never measured")), unit)
        })
    }

    /// Every metric by name, with its unit.
    pub fn print(&self) {
        for (name, value, unit) in self.rows() {
            println!("  {name:<30} {value:>18.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .rows()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The last line of standard output: what the driver reads. `metrics` is
/// absent when the run is incorrect and there is nothing to compare.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Option<&Metrics>,
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.map_or_else(|| "{}".to_owned(), Metrics::json)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_lists_the_same_names_and_units_in_the_same_order() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let mut at = 0;
        let mut expect = |needle: String| {
            at += json[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{needle} missing or out of order"))
                + needle.len();
        };
        for w in &WORKLOADS {
            expect(format!("{{\"name\": \"{}\", \"why\": ", w.name));
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            expect(format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", "));
        }
        let entries = json.matches("{\"name\": ").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
            "extra entries in BENCHMARK.json"
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new(&END_TO_END[..1]);
        m.set("rows_per_s", 1234.5);
        assert_eq!(
            result_line(true, 10, 0, Some(&m)),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"rows_per_s\": {\"value\": 1234.5, \"unit\": \"rows/s\"}}}"
        );
        assert_eq!(
            result_line(false, 0, 3, None),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 3, \"metrics\": {}}"
        );
    }
}
