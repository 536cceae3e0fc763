//! What a run reports: the metric catalogue (mirrored by `BENCHMARK.json`),
//! one workload's results, and the line formats the command prints.

use crate::stats;

/// `(name, unit, better, bound)` of every end-to-end metric. Each workload
/// reports all of them from its untraced run.
pub const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("qps", "1/s", "higher", 0.25),
    ("lat_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("rel_err_pm_eps0.1", "ratio", "lower", 0.02),
    ("rel_err_pm_eps1", "ratio", "lower", 0.02),
    ("rel_err_wd_eps1", "ratio", "lower", 0.02),
];

/// `(name, unit, better)` of every per-layer metric, layer = crate name.
/// Each workload reports all of them from its traced run; a layer that
/// does not run on a workload reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("gate.frame_us", "us", "lower"),
    ("gate.parse_us", "us", "lower"),
    ("gate.self_ms", "ms", "lower"),
    ("gate.frames_in", "count", "higher"),
    ("gate.refusals", "count", "lower"),
    ("router.call_us", "us", "lower"),
    ("router.self_us", "us", "lower"),
    ("service.call_us", "us", "lower"),
    ("service.hit_us", "us", "lower"),
    ("service.self_us", "us", "lower"),
    ("service.stage.admission_us", "us", "lower"),
    ("service.stage.canon_us", "us", "lower"),
    ("service.stage.cache_probe_us", "us", "lower"),
    ("service.stage.budget_reserve_us", "us", "lower"),
    ("service.stage.perturb_us", "us", "lower"),
    ("service.stage.queue_wait_us", "us", "lower"),
    ("service.stage.fused_scan_us", "us", "lower"),
    ("service.stage.commit_us", "us", "lower"),
    ("service.cache_hit_share", "ratio", "higher"),
    ("service.scans_per_req", "ratio", "lower"),
    ("service.batch_mean", "count", "higher"),
    ("service.fused_saved_share", "ratio", "higher"),
    ("service.refusals", "count", "lower"),
    ("durable.append_us", "us", "lower"),
    ("durable.fsync_us", "us", "lower"),
    ("durable.group_qps", "1/s", "higher"),
    ("durable.fsyncs_per_req", "ratio", "lower"),
    ("durable.records_per_req", "ratio", "lower"),
    ("durable.bytes_per_req", "B", "lower"),
    ("durable.segments", "count", "lower"),
    ("durable.replay_rec_per_s", "1/s", "higher"),
    ("durable.recovery_s", "s", "lower"),
    ("durable.timed_bytes", "B", "lower"),
    ("core.pm_us", "us", "lower"),
    ("core.perturb_us", "us", "lower"),
    ("core.wd_reconstruct_us", "us", "lower"),
    ("core.wd_ms", "ms", "lower"),
    ("noise.laplace_ns", "ns", "lower"),
    ("noise.discrete_ns", "ns", "lower"),
    ("linalg.strategy_us", "us", "lower"),
    ("engine.canon_us", "us", "lower"),
    ("engine.plan_us", "us", "lower"),
    ("engine.exec1_ms", "ms", "lower"),
    ("engine.exec8_ms", "ms", "lower"),
    ("engine.hist_ms", "ms", "lower"),
    ("engine.exec8_par2_ms", "ms", "lower"),
    ("engine.rows_per_s_1", "1/s", "higher"),
    ("engine.rows_per_s_8", "1/s", "higher"),
    ("engine.bytes_per_row", "B", "lower"),
    ("engine.stream_gbps", "GB/s", "higher"),
    ("engine.roofline_share", "ratio", "higher"),
    ("engine.chunks_per_scan", "count", "lower"),
    ("engine.staged_copy_per_chunk", "ratio", "lower"),
    ("engine.staged_gather_share", "ratio", "higher"),
    ("engine.shared_mask_saved_per_chunk", "ratio", "higher"),
    ("engine.probe_word_share", "ratio", "higher"),
    ("engine.probe_bytes_share", "ratio", "higher"),
    ("engine.probe_bitset_share", "ratio", "lower"),
    ("engine.cost_cache_hit_share", "ratio", "higher"),
    ("engine.timed_scans", "count", "lower"),
    ("ssb.gen_rows_per_s", "1/s", "higher"),
    ("telemetry.trace_overhead_share", "ratio", "lower"),
    ("trace.wire_p50_ms", "ms", "lower"),
    ("trace.lat_tail_ms", "ms", "lower"),
    ("trace.residual_wire_share", "ratio", "lower"),
    ("trace.residual_stage_share", "ratio", "lower"),
];

/// Share of an end-to-end figure the layer breakdown may leave unexplained
/// before the run says so.
pub const RESIDUAL_TOLERANCE: f64 = 0.10;

/// One in-run correctness check.
#[derive(Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// One workload's results.
#[derive(Debug)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, spread)` in first-reported order.
    pub metrics: Vec<(String, f64, f64)>,
    pub checks: Vec<Check>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            checks: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Reports a single measured value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.put_spread(name, value, 0.0);
    }

    /// Reports `value` with the spread of its per-slice `parts`.
    pub fn put_spread(&mut self, name: &str, value: f64, spread: f64) {
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.metrics.push((name.to_string(), value, spread));
    }

    /// Reports the median of per-slice values, with their spread.
    pub fn put_parts(&mut self, name: &str, parts: &[f64]) {
        self.put_spread(name, stats::median(parts), stats::spread(parts));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|&(_, v, _)| v)
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check { name: name.to_string(), ok, detail });
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// True iff every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The metrics the mode must report, in catalogue order, as `(name,
    /// value, unit, spread)`. A per-layer metric the workload did not
    /// report is 0: its layer does not run there.
    pub fn catalogue(&self, trace: bool) -> Vec<(&'static str, f64, &'static str, f64)> {
        let find = |name: &str| self.metrics.iter().find(|(n, _, _)| n == name);
        if trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    let (value, spread) = find(name).map_or((0.0, 0.0), |&(_, v, s)| (v, s));
                    (name, value, unit, spread)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(name, unit, _, _)| {
                    let &(_, value, spread) = find(name)
                        .unwrap_or_else(|| panic!("{}: {name} was not measured", self.workload));
                    (name, value, unit, spread)
                })
                .collect()
        }
    }

    /// The human-readable lines: notes, `workload metric value unit
    /// spread=…`, then the checks.
    pub fn lines(&self, trace: bool) -> Vec<String> {
        let mut out: Vec<String> = self.notes.iter().map(|n| format!("# {n}")).collect();
        for (name, value, unit, spread) in self.catalogue(trace) {
            out.push(format!("{} {name} {value} {unit} spread={spread:.4}", self.workload));
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            out.push(format!("# check {} {verdict}: {}", c.name, c.detail));
        }
        out
    }

    /// The result object the driver reads, on one line.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .catalogue(trace)
            .iter()
            .map(|(name, value, unit, _)| {
                assert!(value.is_finite(), "{}: {name} is not finite", self.workload);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starj_telemetry::Json;

    /// `BENCHMARK.json` and the catalogue above describe the same metrics.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let text = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                    (
                        text("name"),
                        text("unit"),
                        text("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let end_to_end: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), Some(bound)))
            .collect();
        assert_eq!(listed("end_to_end"), end_to_end);
        let per_layer: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string(), None))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("wire_adhoc");
        for &(name, ..) in END_TO_END {
            r.put(name, 1.5);
        }
        r.attempted = 10;
        let doc = Json::parse(&r.result_json(false)).expect("result parses");
        let Json::Obj(pairs) = &doc else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("metrics") };
        assert_eq!(metrics.len(), END_TO_END.len());
        // A traced report fills layers that did not run with 0.
        let Some(Json::Obj(layers)) =
            Json::parse(&r.result_json(true)).expect("parses").get("metrics").cloned()
        else {
            panic!("metrics")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
    }
}
