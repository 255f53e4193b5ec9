//! Metric names and units — the same tables `BENCHMARK.json` lists (a test
//! holds the two together) — and the report every run ends with.

use crate::stats::{Estimator, Timing};
use kvec_json::Json;
use std::collections::BTreeMap;

/// What a user of the system sees; printed by `--trace 0` runs.
/// `items_per_s` is the workload's own rate (README, "Workloads").
pub const END_TO_END: &[(&str, &str)] = &[("items_per_s", "1/s"), ("setup_s", "s")];

/// Single-layer metrics (layer = crate); printed by `--trace 1` runs. A
/// metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.gemv_nn_ns", "ns"),
    ("tensor.dot_on_ns", "ns"),
    ("tensor.axpy_on_ns", "ns"),
    ("tensor.matmul_gflops", "gflop/s"),
    ("nn.project_qkv_ns", "ns"),
    ("nn.attend_row_window_ns", "ns"),
    ("nn.finish_row_ns", "ns"),
    ("nn.lstm_step_ns", "ns"),
    ("nn.visible_len_mean", "count"),
    ("core.mask_push_ns", "ns"),
    ("core.embed_lookup_ns", "ns"),
    ("core.heads_ns", "ns"),
    ("core.feed_ns_per_processed", "ns"),
    ("core.feed_drop_ns", "ns"),
    ("core.halt_key_ns", "ns"),
    ("core.feed_unattributed_ns", "ns"),
    ("core.allocs_per_processed", "count"),
    ("core.alloc_bytes_per_processed", "bytes"),
    ("core.processed_fraction", "ratio"),
    ("core.mean_items_at_decision", "count"),
    ("core.resident_rows_peak", "count"),
    ("core.evicted_rows", "count"),
    ("core.tracked_keys_end", "count"),
    ("core.lap_time_drift", "ratio"),
    ("core.train_scenario_ms", "ms"),
    ("core.encode_stream_ms", "ms"),
    ("core.evaluate_scenario_ms", "ms"),
    ("core.eval_accuracy", "ratio"),
    ("core.eval_earliness", "ratio"),
    ("core.eval_hm", "ratio"),
    ("core.train_recovery_events", "count"),
    ("serve.submit_ns_p50", "ns"),
    ("serve.submit_ns_p99", "ns"),
    ("serve.queue_roundtrip_ns", "ns"),
    ("serve.admission_verdict_ns", "ns"),
    ("serve.queue_wait_us_mean", "us"),
    ("serve.service_us_mean", "us"),
    ("serve.service_over_feed_ratio", "ratio"),
    ("serve.engine_over_service_ratio", "ratio"),
    ("serve.retries_per_arrival", "ratio"),
    ("serve.late_drop_fraction", "ratio"),
    ("serve.allocs_per_arrival", "count"),
    ("serve.heap_live_growth_bytes_per_arrival", "bytes"),
    ("serve.shutdown_ms", "ms"),
    ("serve.shard_skew", "ratio"),
    ("serve.generator_lag_p99_ms", "ms"),
    ("serve.shed_fraction", "ratio"),
    ("serve.shed_queue_full", "count"),
    ("serve.shed_confident", "count"),
    ("serve.delayed_fraction", "ratio"),
    ("serve.forced_halts", "count"),
    ("serve.flow_ends_shed", "count"),
    ("serve.decided_key_fraction", "ratio"),
    ("serve.decision_latency_p50_us", "us"),
    ("serve.decision_latency_p99_us", "us"),
    ("serve.paced_decision_latency_p50_us", "us"),
    ("serve.paced_decision_latency_p99_us", "us"),
    ("serve.paced_queue_wait_us_mean", "us"),
    ("obs.enabled_overhead_fraction", "ratio"),
    ("obs.trace_overhead_fraction", "ratio"),
    ("obs.ledger_overhead_fraction", "ratio"),
    ("data.generate_items_per_s", "1/s"),
];

/// The checked-in benchmark definition: names, units, directions, bounds.
pub fn benchmark_json() -> Json {
    Json::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json is valid JSON")
}

/// The result of one run: operations attempted and failed, one value per
/// metric of its table, and the human-readable lines printed above the
/// final JSON line.
pub struct Report {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub lines: Vec<String>,
}

impl Report {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: table.iter().map(|&(name, _)| (name, 0.0)).collect(),
            attempted: 0,
            failed: 0,
            lines: Vec::new(),
        }
    }

    /// Records a metric; the name must be in the run's table.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in this run's table"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// Counts one oracle: `failures` of `out_of` operations failed it.
    pub fn check(&mut self, what: &str, failures: u64, out_of: u64) {
        self.attempted += out_of;
        self.failed += failures;
        let verdict = if failures == 0 { "ok" } else { "FAILED" };
        self.lines.push(format!(
            "check {what}: {verdict} ({failures} of {out_of} failed)"
        ));
    }

    /// Records `items_per_s` from the run's lap timing, with its spread.
    pub fn set_rate(&mut self, timing: &Timing, by: Estimator) {
        let laps = timing.stats();
        self.set("items_per_s", laps.rate(by));
        self.lines.push(format!(
            "laps: {} of {} segments; ns per item fastest {:.1}, p10 {:.1}, p50 {:.1}, p90 {:.1}; rate from {by:?}",
            laps.laps,
            laps.segments,
            laps.fastest * 1e9,
            laps.p10 * 1e9,
            laps.p50 * 1e9,
            laps.p90 * 1e9
        ));
        // `all` copies this line into its document for `compare`.
        self.lines.push(format!("lap_spread = {}", laps.spread(by)));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.values.values().all(|v| v.is_finite())
    }

    /// Every metric by name with its unit, one per line.
    pub fn metric_lines(&self) -> Vec<String> {
        self.table
            .iter()
            .map(|&(name, unit)| format!("{name} = {} {unit}", self.values[name]))
            .collect()
    }

    /// The contract's final line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self.table.iter().map(|&(name, unit)| {
            (
                name,
                Json::obj([
                    ("value", Json::Float(self.values[name])),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1) as i128)),
            ("failed", Json::Int(self.failed as i128)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}
