//! Metric names and units, and the result line.

use serde_json::Value;

/// End-to-end metrics (untraced runs): name and unit, in `BENCHMARK.json`
/// order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("rps", "req/s"),
    ("p50_us", "us"),
    ("ohr", "ratio"),
    ("bhr", "ratio"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit, in `BENCHMARK.json`
/// order.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("wire.verdict_encode_ns", "ns"),
    ("wire.verdict_decode_ns", "ns"),
    ("wire.bytes_per_req", "B"),
    ("gateway.residual_ns", "ns"),
    ("gateway.frames_in", "count"),
    ("gateway.verdicts_out", "count"),
    ("net.echo_p50_us", "us"),
    ("shard.route_ns", "ns"),
    ("shard.queue_ns", "ns"),
    ("shard.submit_ns", "ns"),
    ("shard.push_block_p99_us", "us"),
    ("shard.serve_p50_ns", "ns"),
    ("shard.queue_high_water", "count"),
    ("cache.process_ns", "ns"),
    ("cache.hoc_hit_ns", "ns"),
    ("cache.dc_hit_ns", "ns"),
    ("cache.miss_ns", "ns"),
    ("cache.hoc_hits", "count"),
    ("cache.dc_hits", "count"),
    ("cache.origin_fetches", "count"),
    ("cache.hoc_evictions", "count"),
    ("cache.dc_writes", "count"),
    ("cache.hits_per_promotion", "ratio"),
    ("core.observe_ns", "ns"),
    ("core.static_observe_ns", "ns"),
    ("core.overhead_ns", "ns"),
    ("core.budget_frac", "ratio"),
    ("core.darwin_ohr", "ratio"),
    ("core.static_ohr", "ratio"),
    ("core.rounds", "count"),
    ("core.switches", "count"),
    ("core.epochs", "count"),
    ("features.observe_ns", "ns"),
    ("nn.predict_ns", "ns"),
    ("bandit.observe_ns", "ns"),
    ("ckpt.cut_us", "us"),
    ("ckpt.frame_bytes", "B"),
    ("ckpt.delta_us", "us"),
    ("ckpt.delta_bytes", "B"),
    ("ckpt.ns_per_req", "ns"),
    ("ckpt.pause_p99_us", "us"),
    ("standby.shipped_bytes", "B"),
    ("obs.record_ns", "ns"),
    ("obs.journal_events", "count"),
    ("obs.events_dropped", "count"),
    ("lat.p90_us", "us"),
    ("lat.p99_us", "us"),
    ("lat.p999_us", "us"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("ledger.stage_sum_ns", "ns"),
    ("ledger.cpu_ns", "ns"),
];

/// Metric values by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The `"metrics"` object for the names in `table`, each with its unit.
    /// Panics if one is missing: a result must carry every metric.
    pub fn to_json(&self, table: &[(&str, &str)]) -> Value {
        Value::Object(
            table
                .iter()
                .map(|&(name, unit)| {
                    let v = self.get(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
                    let v = if v.is_finite() { v } else { 0.0 };
                    (
                        name.to_string(),
                        Value::Object(vec![
                            ("value".into(), Value::Float(v)),
                            ("unit".into(), Value::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// The last stdout line of a run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), metrics),
    ]))
    .expect("result serialization cannot fail")
}
