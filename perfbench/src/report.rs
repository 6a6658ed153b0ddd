//! The metric sets a run reports and the result line it prints.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off, on every workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("exact_match", "share"),
    ("suggest_coverage", "share"),
];

/// Per-layer metrics, from the traced run only. A layer a workload
/// bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("pyast.parse_ms", "ms"),
    ("pyast.symtable_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("graph.nodes", "count"),
    ("models.prepare_ms", "ms"),
    ("models.embed_ms", "ms"),
    ("models.targets", "count"),
    ("models.train_step_ms", "ms"),
    ("nn.optim_step_ms", "ms"),
    ("nn.fresh_allocs_per_step", "count"),
    ("nn.arena_reuse_ratio", "share"),
    ("space.knn_us", "us"),
    ("space.markers", "count"),
    ("space.overlay", "count"),
    ("space.recall_at_10", "share"),
    ("space.add_ms", "ms"),
    ("space.build_s", "s"),
    ("check.check_ms", "ms"),
    ("check.override_ms", "ms"),
    ("check.accept_ratio", "share"),
    ("core.predict_source_ms", "ms"),
    ("core.stage_coverage", "share"),
    ("core.load_s", "s"),
    ("serve.roundtrip_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.write_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.largest_batch", "count"),
    ("loadgen.late_ms", "ms"),
    ("loadgen.wait_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// What a workload run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: requests, files or training calls.
    pub attempted: u64,
    /// Attempted operations that failed: error replies, transport
    /// errors, output mismatches and unfinished requests.
    pub failed: u64,
    /// Metric values by name; end-to-end ones in an untraced run,
    /// per-layer ones in a traced run.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one phase's requests and prints its accounting line.
    pub fn phase(&mut self, name: &str, sent: u64, failed: u64) {
        println!(
            "phase {name}: sent {sent} succeeded {} failed {failed}",
            sent.saturating_sub(failed)
        );
        self.attempted += sent;
        self.failed += failed;
    }
}

/// The final result line: the metrics of `set`, in its order, each
/// with its unit. Panics if the workload did not produce one of them,
/// which is a bug in the benchmark.
pub fn result_line(report: &Report, set: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = set
        .iter()
        .map(|(name, unit)| {
            let value = report
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units in code are the ones BENCHMARK.json
    /// declares.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{entry} missing");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.set("a", 1.25);
        let line = result_line(&r, &[("a", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
