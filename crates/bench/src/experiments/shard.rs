//! Fleet throughput scaling: requests/sec vs shard count (`BENCH_shard.json`).
//!
//! For each shard count in {1, 2, 4, 8} the experiment drives the same
//! generated trace through a [`ShardedFleet`] (hash router, blocking
//! backpressure, a static expert per shard so the serving path — not model
//! training — is what's timed; the paper's learning logic is off the
//! critical path anyway, §5) and reports two throughput figures per row:
//!
//! * **live** — wall-clock requests/sec of the threaded fleet *on this
//!   machine*, driven the way a gateway drives it: [`PRODUCERS`] concurrent
//!   ingest producers routing whole frames into per-shard runs and
//!   delivering each run with one batched queue operation. Per-request
//!   submit→verdict latency is sampled alongside (`live_p99_ms`). On fewer
//!   cores than shards this measures queue/handoff overhead, not scale-out.
//! * **critical-path** — total requests ÷ the slowest shard's sequential
//!   replay time. Because the fleet is bitwise equivalent to its sequential
//!   per-shard replays (see `darwin-shard/tests/equivalence.rs`), this is
//!   the fleet's serving time on one-core-per-shard hardware — the honest
//!   scale-out projection a single-core CI box can still measure.
//!
//! Output: a console table, `<out>/shard_throughput.csv`, and
//! `<out>/BENCH_shard.json`.

use crate::report::{f4, Report};
use crate::scale::Scale;
use darwin_cache::ThresholdPolicy;
use darwin_obs::{Histogram, HistogramSnapshot};
use darwin_shard::{
    partition, run_partition, Backpressure, Envelope, FleetConfig, HashRouter, ShardedFleet, Verdict,
};
use darwin_testbed::StaticDriver;
use darwin_trace::{MixSpec, Request, Trace, TraceGenerator, TrafficClass};
use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// Shard counts swept by the experiment.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Concurrent ingest producers driving the live measurement (the gateway
/// topology: one producer per connection).
pub const PRODUCERS: usize = 4;

/// Requests per submitted frame on the live path (one `push_batch` per
/// touched shard per frame).
const FRAME: usize = 512;

/// Repetitions per timing; the fastest is kept (standard practice — the
/// minimum is the least noise-contaminated estimate of the true cost).
const REPEATS: usize = 3;

/// One row of `BENCH_shard.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ShardRow {
    /// Shard count (= worker threads = cache servers).
    pub shards: usize,
    /// Threaded-fleet wall-clock requests/sec on this machine, with
    /// [`PRODUCERS`] concurrent frame-batched ingest producers.
    pub live_rps: f64,
    /// `live_rps` relative to the 1-shard row.
    pub live_speedup: f64,
    /// 99th-percentile submit→verdict latency of the fastest live repeat,
    /// milliseconds — nearest-rank over a `darwin-obs` log-bucketed
    /// histogram (≤3.1% relative error). Includes queueing delay, so it
    /// rises when the shards — not the ingest path — are the bottleneck.
    pub live_p99_ms: f64,
    /// Median submit→verdict latency of the fastest live repeat, ms.
    pub live_p50_ms: f64,
    /// Projected requests/sec on one-core-per-shard hardware: total requests
    /// divided by the slowest shard's sequential replay seconds (valid by
    /// the fleet-equals-sequential-replay equivalence theorem).
    pub critical_path_rps: f64,
    /// `critical_path_rps` relative to the 1-shard row.
    pub critical_path_speedup: f64,
    /// Sequential replay seconds of the slowest shard.
    pub max_shard_seconds: f64,
    /// Fleet-wide object hit ratio at this shard count.
    pub fleet_ohr: f64,
    /// Deepest queue high-water mark observed across shards.
    pub max_queue_high_water: usize,
    /// Requests dropped (always 0 under blocking backpressure).
    pub dropped: u64,
}

/// The full `BENCH_shard.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ShardBench {
    /// Experiment name.
    pub experiment: String,
    /// Scale factor the trace length derives from.
    pub scale: usize,
    /// Requests in the benchmark trace.
    pub requests: usize,
    /// Router label.
    pub router: String,
    /// Per-shard admission driver label.
    pub driver: String,
    /// CPU cores visible to this process (interprets the live numbers).
    pub cpu_cores: usize,
    /// Concurrent ingest producers behind every live measurement.
    pub producers: usize,
    /// Critical-path throughput scaling from 1 to 8 shards.
    pub scaling_1_to_8_critical_path: f64,
    /// Live throughput scaling from 1 to 8 shards on this machine.
    pub scaling_1_to_8_live: f64,
    /// Per-shard-count measurements.
    pub rows: Vec<ShardRow>,
}

fn bench_trace(scale: &Scale) -> Trace {
    // 4x the online trace length: long enough that per-request serving cost
    // dominates thread spawn/join, short enough for a CI box.
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 2024)
        .generate(4 * scale.online_trace_len())
}

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::new(2, 100 * 1024)
}

/// Envelope that records its submit→verdict latency into a shared
/// lock-free [`Histogram`] — a handful of relaxed atomic adds on the hot
/// path, no allocation, no per-request slot array, and no reference count
/// (the histogram is leaked once per live run and borrowed for `'static`).
struct TimedEnvelope {
    req: Request,
    started: Instant,
    hist: &'static Histogram,
}

impl Envelope for TimedEnvelope {
    fn request(&self) -> &Request {
        &self.req
    }
    fn complete(self, _verdict: Verdict) {
        self.hist.record_duration(self.started.elapsed());
    }
}

/// A histogram quantile in milliseconds.
fn quantile_ms(snap: &HistogramSnapshot, p: f64) -> f64 {
    snap.quantile(p) as f64 / 1e6
}

/// One live run: [`PRODUCERS`] threads split the trace into contiguous
/// chunks (the gateway's connection topology) and frame-batch it into the
/// fleet. Returns (elapsed seconds, per-request latencies ns, report).
fn live_run(
    shards: usize,
    cache: &darwin_cache::CacheConfig,
    trace: &Trace,
) -> (f64, HistogramSnapshot, darwin_shard::FleetReport<StaticDriver>) {
    let n = trace.len();
    let fleet: ShardedFleet<StaticDriver, TimedEnvelope> = ShardedFleet::new(
        FleetConfig {
            shards,
            queue_capacity: 8192,
            batch: 512,
            backpressure: Backpressure::Block,
            snapshot_every: None,
            restart_budget: Default::default(),
            checkpoint_every: None,
            shed_watermark: None,
            replicas: 0,
        },
        cache.clone(),
        Box::new(HashRouter),
        |_| StaticDriver::new(policy()),
    );
    let hist: &'static Histogram = Box::leak(Box::new(Histogram::new()));
    let ingest = fleet.ingest();
    let chunk_len = n.div_ceil(PRODUCERS);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for chunk in trace.requests().chunks(chunk_len) {
            let mut producer = ingest.producer();
            scope.spawn(move || {
                for frame in chunk.chunks(FRAME) {
                    let started = Instant::now();
                    producer.submit_frame(frame.iter().map(|req| TimedEnvelope {
                        req: *req,
                        started,
                        hist,
                    }));
                }
            });
        }
    });
    let report = fleet.finish();
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(report.total_processed(), n as u64, "Block ingest is lossless");
    (elapsed, hist.snapshot(), report)
}

/// Runs the sweep and writes the table, CSV and `BENCH_shard.json`.
pub fn run(scale: &Scale, out: &Path) {
    let trace = bench_trace(scale);
    let n = trace.len();
    let cache = scale.cache_config();

    let mut rows: Vec<ShardRow> = Vec::new();
    for &shards in &SHARD_COUNTS {
        // Live threaded fleet behind PRODUCERS frame-batching producers;
        // the fastest of REPEATS runs wins and keeps its latency sample.
        let mut live_s = f64::INFINITY;
        let mut latency = HistogramSnapshot::default();
        let mut report = None;
        for _ in 0..REPEATS {
            let (elapsed, snap, r) = live_run(shards, &cache, &trace);
            if elapsed < live_s {
                live_s = elapsed;
                latency = snap;
            }
            report = Some(r);
        }
        let report = report.expect("at least one repeat");

        // Critical path: time each shard's sequential replay independently,
        // keeping each shard's fastest repeat.
        let mut max_shard_s = 0f64;
        for part in partition(&trace, &HashRouter, shards) {
            let mut best = f64::INFINITY;
            for _ in 0..REPEATS {
                let t0 = Instant::now();
                let r = run_partition(cache.clone(), StaticDriver::new(policy()), &part);
                best = best.min(t0.elapsed().as_secs_f64());
                assert_eq!(r.processed, part.len() as u64);
            }
            max_shard_s = max_shard_s.max(best);
        }

        rows.push(ShardRow {
            shards,
            live_rps: n as f64 / live_s,
            live_speedup: 0.0, // filled below
            live_p99_ms: quantile_ms(&latency, 99.0),
            live_p50_ms: quantile_ms(&latency, 50.0),
            critical_path_rps: n as f64 / max_shard_s,
            critical_path_speedup: 0.0, // filled below
            max_shard_seconds: max_shard_s,
            fleet_ohr: report.fleet_cache().hoc_ohr(),
            max_queue_high_water: report.shards.iter().map(|s| s.queue_high_water).max().unwrap_or(0),
            dropped: report.total_dropped(),
        });
    }
    let base_live = rows[0].live_rps;
    let base_crit = rows[0].critical_path_rps;
    for r in &mut rows {
        r.live_speedup = r.live_rps / base_live;
        r.critical_path_speedup = r.critical_path_rps / base_crit;
    }

    let mut table = Report::new(
        "shard_throughput",
        "Fleet throughput vs shard count",
        &["shards", "live_rps", "live_x", "p99_ms", "critpath_rps", "critpath_x", "ohr", "hiwater"],
        out,
    );
    for r in &rows {
        table.row(&[
            r.shards.to_string(),
            format!("{:.0}", r.live_rps),
            f4(r.live_speedup),
            format!("{:.3}", r.live_p99_ms),
            format!("{:.0}", r.critical_path_rps),
            f4(r.critical_path_speedup),
            f4(r.fleet_ohr),
            r.max_queue_high_water.to_string(),
        ]);
    }
    table.finish().expect("write shard_throughput.csv");

    let last = rows.last().expect("non-empty sweep");
    let bench = ShardBench {
        experiment: "shard_throughput".into(),
        scale: scale.factor(),
        requests: n,
        router: "hash".into(),
        driver: "static f2s100".into(),
        cpu_cores: std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
        producers: PRODUCERS,
        scaling_1_to_8_critical_path: last.critical_path_speedup,
        scaling_1_to_8_live: last.live_speedup,
        rows,
    };
    std::fs::create_dir_all(out).expect("create output dir");
    let json = serde_json::to_string_pretty(&bench).expect("serialize BENCH_shard");
    let path = out.join("BENCH_shard.json");
    std::fs::write(&path, &json).expect("write BENCH_shard.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_roundtrips_and_scales() {
        // A miniature sweep (tiny trace) through the same code path the
        // binary runs, checking the JSON document's shape.
        let dir = std::env::temp_dir().join("darwin-shard-bench-test");
        let scale = Scale::new(1);
        // Not the full run (CI keeps this fast) — just the serializer.
        let row = ShardRow {
            shards: 8,
            live_rps: 1.0,
            live_speedup: 1.0,
            live_p99_ms: 0.5,
            live_p50_ms: 0.1,
            critical_path_rps: 8.0,
            critical_path_speedup: 8.0,
            max_shard_seconds: 0.5,
            fleet_ohr: 0.25,
            max_queue_high_water: 3,
            dropped: 0,
        };
        let doc = ShardBench {
            experiment: "shard_throughput".into(),
            scale: scale.factor(),
            requests: 100,
            router: "hash".into(),
            driver: "static f2s100".into(),
            cpu_cores: 1,
            producers: PRODUCERS,
            scaling_1_to_8_critical_path: 8.0,
            scaling_1_to_8_live: 1.0,
            rows: vec![row],
        };
        let s = serde_json::to_string_pretty(&doc).unwrap();
        assert!(s.contains("\"experiment\""));
        assert!(s.contains("shard_throughput"));
        assert!(s.contains("critical_path_rps"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("BENCH_shard.json"), s).unwrap();
    }
}
