//! Gate/listener metrics: what the front door itself is doing.
//!
//! The service and router expositions cover everything *behind* the gate
//! (queries served, budgets, kernels); this module covers the wire layer
//! in front of it — connections, frames, per-verb traffic, refusals by
//! code, streamed/dropped subscription events — plus the process-level
//! `starj_build_info` gauge and uptime every scrape wants. All counters
//! are relaxed atomics on the hot path; the one `Mutex` (refusal codes)
//! is taken only when a refusal is actually written.

use starj_telemetry::PromText;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Listener-level counters, shared by every connection thread.
#[derive(Debug)]
pub struct GateMetrics {
    /// Connections accepted over the gate's lifetime.
    pub connections_total: AtomicU64,
    /// Connections currently being served.
    pub active_connections: AtomicU64,
    /// Request frames decoded off the wire (malformed frames included).
    pub frames_in: AtomicU64,
    /// Response/event frames written to the wire.
    pub frames_out: AtomicU64,
    /// `sql` requests handled.
    pub verb_sql: AtomicU64,
    /// `subscribe` requests handled.
    pub verb_subscribe: AtomicU64,
    /// `explain` requests handled.
    pub verb_explain: AtomicU64,
    /// Subscription events streamed to subscribers.
    pub events_streamed: AtomicU64,
    /// Subscription events dropped at slow subscribers (ring overwrite).
    pub events_dropped: AtomicU64,
    /// Refusal frames written, tallied by their stable `code`.
    refusals: Mutex<BTreeMap<String, u64>>,
    /// When the gate bound — drives the uptime gauge.
    started: Instant,
}

impl Default for GateMetrics {
    fn default() -> Self {
        GateMetrics {
            connections_total: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            frames_in: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            verb_sql: AtomicU64::new(0),
            verb_subscribe: AtomicU64::new(0),
            verb_explain: AtomicU64::new(0),
            events_streamed: AtomicU64::new(0),
            events_dropped: AtomicU64::new(0),
            refusals: Mutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }
}

impl GateMetrics {
    /// Adds one (relaxed; tallies, not synchronization points).
    pub fn inc(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` (relaxed).
    pub fn add(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Tallies one refusal under its stable code.
    pub fn refusal(&self, code: &str) {
        let mut map = self.refusals.lock().unwrap_or_else(|e| e.into_inner());
        *map.entry(code.to_string()).or_insert(0) += 1;
    }

    /// The refusal tally, sorted by code.
    pub fn refusal_counts(&self) -> Vec<(String, u64)> {
        let map = self.refusals.lock().unwrap_or_else(|e| e.into_inner());
        map.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Seconds since the gate bound.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The gate's own Prometheus text-format exposition. Metric names are
    /// disjoint from the service/router families, so appending this to a
    /// [`starj_router::Router::prometheus_text`] snapshot still lints
    /// clean (no duplicate headers).
    pub fn prometheus_text(&self) -> String {
        let mut p = PromText::new();
        p.header("starj_build_info", "Build metadata; value is always 1.", "gauge");
        p.sample(
            "starj_build_info",
            &[("version", env!("CARGO_PKG_VERSION")), ("crate", "starj-gate")],
            1.0,
        );
        p.header(
            "starj_gate_uptime_seconds",
            "Seconds since the gate bound its listener.",
            "gauge",
        );
        p.sample("starj_gate_uptime_seconds", &[], self.uptime_seconds());
        p.header("starj_gate_active_connections", "Connections currently being served.", "gauge");
        p.sample(
            "starj_gate_active_connections",
            &[],
            self.active_connections.load(Ordering::Relaxed) as f64,
        );
        for (name, help, value) in [
            ("connections", "Connections accepted.", &self.connections_total),
            ("frames_in", "Request frames read off the wire.", &self.frames_in),
            ("frames_out", "Response/event frames written to the wire.", &self.frames_out),
            ("events_streamed", "Subscription events streamed.", &self.events_streamed),
            (
                "events_dropped",
                "Subscription events dropped at slow subscribers.",
                &self.events_dropped,
            ),
        ] {
            let metric = format!("starj_gate_{name}_total");
            p.header(&metric, help, "counter");
            p.sample(&metric, &[], value.load(Ordering::Relaxed) as f64);
        }
        p.header("starj_gate_requests_total", "Requests handled, by verb.", "counter");
        for (verb, counter) in [
            ("sql", &self.verb_sql),
            ("subscribe", &self.verb_subscribe),
            ("explain", &self.verb_explain),
        ] {
            p.sample(
                "starj_gate_requests_total",
                &[("verb", verb)],
                counter.load(Ordering::Relaxed) as f64,
            );
        }
        let refusals = self.refusal_counts();
        p.header("starj_gate_refusals_total", "Refusal frames written, by stable code.", "counter");
        if refusals.is_empty() {
            p.sample("starj_gate_refusals_total", &[("code", "none")], 0.0);
        }
        for (code, count) in &refusals {
            p.sample("starj_gate_refusals_total", &[("code", code)], *count as f64);
        }
        p.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_lints_and_carries_every_family() {
        let m = GateMetrics::default();
        GateMetrics::inc(&m.connections_total);
        GateMetrics::inc(&m.active_connections);
        GateMetrics::add(&m.frames_in, 3);
        GateMetrics::inc(&m.verb_sql);
        m.refusal("unauthorized");
        m.refusal("unauthorized");
        m.refusal("budget_exhausted");
        let text = m.prometheus_text();
        let report = starj_telemetry::prom::lint(&text).expect("gate exposition lints clean");
        assert!(report.families >= 8, "families: {}", report.families);
        assert!(text.contains("starj_build_info{"));
        assert!(text.contains("starj_gate_refusals_total{code=\"unauthorized\"} 2\n"));
        assert!(text.contains("starj_gate_requests_total{verb=\"sql\"} 1\n"));
    }

    #[test]
    fn refusal_tally_is_sorted_by_code() {
        let m = GateMetrics::default();
        m.refusal("zeta");
        m.refusal("alpha");
        let codes: Vec<String> = m.refusal_counts().into_iter().map(|(c, _)| c).collect();
        assert_eq!(codes, ["alpha", "zeta"]);
    }
}
