//! Server-side observability: the `datacell_net_*` metric families.
//!
//! The counters live on clonable atomic handles (not the global registry)
//! so two servers in one process never alias each other's series; the
//! server folds them into the engine snapshot when answering `/metrics`.

use datacell_telemetry::{Counter, Family, Gauge, Histogram, MetricKind, Snapshot};

/// Counters and gauges for one [`crate::NetServer`]. All handles are
/// clonable atomics: the event-loop thread records, any thread may read.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Connections ever accepted.
    pub connections_total: Counter,
    /// Currently open connections.
    pub connections_open: Gauge,
    /// High-water mark of simultaneously open connections.
    pub connections_peak: Gauge,
    /// Bytes read off client sockets.
    pub rx_bytes: Counter,
    /// Bytes written to client sockets.
    pub tx_bytes: Counter,
    /// CSV rows parsed off ingest connections into pending batches.
    pub ingest_rows: Counter,
    /// Result rows delivered into subscriber queues.
    pub fanout_rows: Counter,
    /// Subscribers disconnected because a delivery would overflow their
    /// bounded queue.
    pub subscriber_overflows: Counter,
    /// Loop passes that skipped reading ingest sockets because the staging
    /// backlog exceeded the budget.
    pub backpressure_ticks: Counter,
    /// Idle waits that ended because a socket became ready.
    pub wakeups_ready: Counter,
    /// Idle waits that ended because the tick ran out.
    pub wakeups_timeout: Counter,
    /// `GET /metrics` requests served.
    pub metrics_requests: Counter,
    /// Protocol or engine errors answered with `ERR` / logged.
    pub errors: Counter,
    /// Time inside `CsvReceptor::parse_bytes`, one observation per ingest
    /// connection per loop pass that had complete lines to parse.
    pub parse_seconds: Histogram,
}

impl NetStats {
    /// Fresh, all-zero stats.
    #[must_use]
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Append the `datacell_net_*` families to a snapshot (the engine's
    /// own, when answering `/metrics`).
    pub fn extend_snapshot(&self, snap: &mut Snapshot) {
        let counters: [(&str, &str, &Counter); 8] = [
            (
                "datacell_net_connections_total",
                "Client connections accepted by the network edge.",
                &self.connections_total,
            ),
            ("datacell_net_rx_bytes_total", "Bytes read off client sockets.", &self.rx_bytes),
            ("datacell_net_tx_bytes_total", "Bytes written to client sockets.", &self.tx_bytes),
            (
                "datacell_net_ingest_rows_total",
                "CSV rows parsed off ingest connections.",
                &self.ingest_rows,
            ),
            (
                "datacell_net_fanout_rows_total",
                "Result rows delivered into subscriber queues.",
                &self.fanout_rows,
            ),
            (
                "datacell_net_subscriber_overflows_total",
                "Subscribers disconnected for overflowing their bounded queue.",
                &self.subscriber_overflows,
            ),
            (
                "datacell_net_backpressure_ticks_total",
                "Loop passes that paused ingest reads because the staging backlog exceeded the budget.",
                &self.backpressure_ticks,
            ),
            (
                "datacell_net_errors_total",
                "Protocol and engine errors surfaced by the network edge.",
                &self.errors,
            ),
        ];
        for (name, help, c) in counters {
            let mut f = Family::new(name, help, MetricKind::Counter);
            #[allow(clippy::cast_precision_loss)] // counters stay far below 2^52
            f.push_value(&[], c.get() as f64);
            snap.push(f);
        }
        let mut f = Family::new(
            "datacell_net_wakeups_total",
            "Idle waits of the event loop, by what ended them: a ready socket or the tick.",
            MetricKind::Counter,
        );
        for (cause, c) in [("ready", &self.wakeups_ready), ("timeout", &self.wakeups_timeout)] {
            #[allow(clippy::cast_precision_loss)]
            f.push_value(&[("cause", cause)], c.get() as f64);
        }
        snap.push(f);
        let gauges: [(&str, &str, &Gauge); 2] = [
            (
                "datacell_net_connections_open",
                "Currently open client connections.",
                &self.connections_open,
            ),
            (
                "datacell_net_connections_peak",
                "High-water mark of simultaneously open client connections.",
                &self.connections_peak,
            ),
        ];
        for (name, help, g) in gauges {
            let mut f = Family::new(name, help, MetricKind::Gauge);
            #[allow(clippy::cast_precision_loss)]
            f.push_value(&[], g.get() as f64);
            snap.push(f);
        }
        let mut f = Family::new(
            "datacell_net_parse_seconds",
            "Time one ingest connection's bytes spent in the CSV parser per loop pass.",
            MetricKind::Histogram,
        );
        f.push_histogram(&[], self.parse_seconds.snapshot());
        snap.push(f);
    }

    /// Record an accepted connection (total, open, peak).
    pub fn connection_opened(&self) {
        self.connections_total.inc();
        self.connections_open.inc();
        self.connections_peak.set_max(self.connections_open.get());
    }

    /// Record a closed connection.
    pub fn connection_closed(&self) {
        self.connections_open.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacell_telemetry::{parse_text, render_text};

    #[test]
    fn families_render_and_reparse_strictly() {
        let s = NetStats::new();
        s.connection_opened();
        s.connection_opened();
        s.connection_closed();
        s.ingest_rows.add(7);
        s.wakeups_ready.add(3);
        s.wakeups_timeout.inc();
        s.parse_seconds.record(std::time::Duration::from_micros(3));
        let mut snap = Snapshot::default();
        s.extend_snapshot(&mut snap);
        let text = render_text(&snap);
        let parsed = parse_text(&text).unwrap();
        assert_eq!(parsed.get("datacell_net_connections_total", &[]), Some(2.0));
        assert_eq!(parsed.get("datacell_net_connections_open", &[]), Some(1.0));
        assert_eq!(parsed.get("datacell_net_connections_peak", &[]), Some(2.0));
        assert_eq!(parsed.get("datacell_net_ingest_rows_total", &[]), Some(7.0));
        assert_eq!(parsed.get("datacell_net_wakeups_total", &[("cause", "ready")]), Some(3.0));
        assert_eq!(parsed.get("datacell_net_wakeups_total", &[("cause", "timeout")]), Some(1.0));
        assert_eq!(parsed.get("datacell_net_parse_seconds_count", &[]), Some(1.0));
        assert!(parsed.families_without_help().is_empty());
    }
}
