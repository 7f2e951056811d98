//! Warm-vs-cold restart recovery: hit-ratio recovery curves after a shard
//! death (`BENCH_recovery.json`).
//!
//! One shard serves a two-class trace and is killed by a scripted
//! [`FaultPlan`] panic exactly at a checkpoint boundary. Two scenarios
//! differ only in `checkpoint_every`:
//!
//! * `warm` — checkpointing on: the respawn restores the boundary
//!   checkpoint, so HOC/DC contents, sketch counts and policy survive and
//!   the hit ratio barely dips.
//! * `cold` — checkpointing off: the respawn starts from an empty cache and
//!   re-pays the full warm-up, the regime PR 4 left every restart in.
//!
//! The plotted curves are windowed hit ratios from a *deterministic
//! sequential replay* of the same scenario (fleet ≡ sequential replay by the
//! equivalence theorem, `darwin-shard/tests/equivalence.rs` and
//! `tests/restore.rs`), so the curve is a property of the trace — no thread
//! timing in the figure. The real threaded fleet runs each scenario too, and
//! its final cumulative metrics and warm/cold restart counters must match
//! the replay exactly.
//!
//! **Recovery point**: the first post-crash window whose hit ratio reaches
//! 95 % of the clean run's steady-state hit ratio. The experiment asserts
//! warm recovery takes strictly fewer post-crash requests than cold — the
//! acceptance criterion of the warm-recovery subsystem.
//!
//! Output: a console table, `<out>/recovery.csv`, and
//! `<out>/BENCH_recovery.json`.

use crate::curve::{recovery_requests, steady_ohr, CurvePoint, RECOVERY_THRESHOLD};
use crate::report::{f4, Report};
use crate::scale::Scale;
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer, ThresholdPolicy};
use darwin_shard::{
    Backpressure, FaultEvent, FaultKind, FaultPlan, FleetBoot, FleetConfig, HashRouter, ShardedFleet,
};
use darwin_testbed::StaticDriver;
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};
use serde::Serialize;
use std::path::Path;

/// One scenario's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryScenario {
    /// Scenario name (`warm`, `cold`).
    pub scenario: String,
    /// Supervisor restarts the threaded fleet granted (always 1).
    pub restarts: u32,
    /// Restarts that resumed from a checkpoint (1 warm, 0 cold).
    pub warm_restarts: u32,
    /// Post-crash requests until a window first reached
    /// [`RECOVERY_THRESHOLD`] × steady-state hit ratio; `None` if the tail
    /// ended first.
    pub recovery_requests: Option<u64>,
    /// Cumulative hit ratio over the whole run, crash included.
    pub final_ohr: f64,
    /// Windowed hit-ratio curve over the full run (the crash sits at
    /// `kill_at`; post-crash windows are the recovery curve).
    pub curve: Vec<CurvePoint>,
}

/// The full `BENCH_recovery.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct RecoveryBench {
    /// Experiment name.
    pub experiment: String,
    /// Scale factor the trace length derives from.
    pub scale: usize,
    /// Requests in the benchmark trace.
    pub requests: usize,
    /// Shards in the fleet (1: the scenario is one node's recovery).
    pub shards: usize,
    /// Per-shard sequence number of the scripted kill (a checkpoint
    /// boundary, so the warm restore is lossless).
    pub kill_at: u64,
    /// Checkpoint cadence of the warm scenario, requests.
    pub checkpoint_every: u64,
    /// Window length of the curves, requests.
    pub window: u64,
    /// Steady-state hit ratio of the crash-free run (windowed over its last
    /// quarter).
    pub steady_ohr: f64,
    /// Recovery threshold as a fraction of `steady_ohr`.
    pub recovery_threshold: f64,
    /// Per-scenario measurements.
    pub rows: Vec<RecoveryScenario>,
}

/// Outcome of one deterministic sequential replay.
struct ScenarioReplay {
    /// Cumulative metrics over the whole run (all incarnations).
    total: CacheMetrics,
    /// Windowed hit-ratio curve.
    curve: Vec<CurvePoint>,
}

fn bench_trace(scale: &Scale) -> Trace {
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 2027)
        .generate(scale.online_trace_len() / 2)
}

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::new(2, 100 * 1024)
}

/// Sequentially replays the scenario: process the trace on one
/// [`CacheServer`], checkpoint via [`CacheServer::save_state`] at each
/// boundary (when `ckpt_every` is set), and at index `kill_at` drop that
/// request and replace the server — restored from the latest checkpoint when
/// one exists, cold otherwise. `kill_at: None` is the crash-free control.
fn replay(
    cache: &CacheConfig,
    trace: &Trace,
    kill_at: Option<u64>,
    ckpt_every: Option<u64>,
    window: u64,
) -> ScenarioReplay {
    let mut server = CacheServer::new(cache.clone());
    server.set_policy(policy());
    // Metrics of incarnations lost to the crash (cold path); a warm restore
    // carries its metrics inside the checkpoint so nothing needs folding.
    let mut folded = CacheMetrics::default();
    let mut saved: Option<Vec<u8>> = None;
    let mut curve = Vec::new();
    let mut prev = CacheMetrics::default();
    let mut processed = 0u64;
    for (i, req) in trace.iter().enumerate() {
        if kill_at == Some(i as u64) {
            // The fatal request is answered `Dropped`; the next incarnation
            // starts either from the checkpoint or from nothing.
            match &saved {
                Some(frame) => {
                    server = CacheServer::restore_state(cache.clone(), frame)
                        .expect("boundary checkpoint restores");
                }
                None => {
                    folded = folded.merge(&server.metrics());
                    server = CacheServer::new(cache.clone());
                }
            }
            server.set_policy(policy());
            continue;
        }
        server.process(req);
        processed += 1;
        if let Some(every) = ckpt_every {
            if every > 0 && (i as u64 + 1).is_multiple_of(every) {
                saved = Some(server.save_state());
            }
        }
        if processed.is_multiple_of(window) {
            let cum = folded.merge(&server.metrics());
            curve.push(CurvePoint::window(
                i as u64 + 1,
                cum.requests - prev.requests,
                cum.hoc_hits - prev.hoc_hits,
            ));
            prev = cum;
        }
    }
    ScenarioReplay { total: folded.merge(&server.metrics()), curve }
}

/// Runs one scenario through the real threaded fleet and returns its shard-0
/// outcome `(cache, restarts, warm_restarts, dropped)`.
fn fleet_run(
    cache: &CacheConfig,
    trace: &Trace,
    kill_at: u64,
    ckpt_every: Option<u64>,
) -> (CacheMetrics, u32, u32, u64) {
    let p = policy();
    let mut fleet = ShardedFleet::with_boot(
        FleetConfig {
            shards: 1,
            queue_capacity: 4096,
            batch: 256,
            backpressure: Backpressure::Block,
            snapshot_every: None,
            restart_budget: Default::default(),
            checkpoint_every: ckpt_every,
            shed_watermark: None,
            replicas: 0,
        },
        cache.clone(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(p),
        FleetBoot {
            fault_plan: FaultPlan::new(vec![FaultEvent {
                shard: 0,
                at: kill_at,
                kind: FaultKind::Panic,
            }]),
            ..FleetBoot::default()
        },
    );
    fleet.submit_trace(trace);
    let report = fleet.finish();
    let s0 = &report.shards[0];
    (s0.cache, s0.restarts, s0.warm_restarts, s0.dropped)
}

/// Runs both scenarios and writes the table, CSV and `BENCH_recovery.json`.
pub fn run(scale: &Scale, out: &Path) {
    let trace = bench_trace(scale);
    let n = trace.len();
    let cache = scale.cache_config();
    let window = (n as u64 / 50).max(500);
    // Kill at ~40% of the trace, on a checkpoint boundary, leaving a long
    // enough tail for the cold cache to visibly re-warm.
    let kill_at = (n as u64 * 2 / 5 / window) * window;
    assert!(kill_at > 0 && kill_at < n as u64);

    // Crash-free control: steady state = windowed hit ratio over the last
    // quarter of the clean run.
    let steady_ohr = steady_ohr(&replay(&cache, &trace, None, None, window).curve);

    let mut rows = Vec::new();
    for (name, ckpt_every) in [("warm", Some(window)), ("cold", None)] {
        let rep = replay(&cache, &trace, Some(kill_at), ckpt_every, window);
        let (fleet_cache, restarts, warm, dropped) = fleet_run(&cache, &trace, kill_at, ckpt_every);

        // The curve is trustworthy only because the real fleet lands on the
        // same state: cumulative metrics bitwise, one death, one drop.
        assert_eq!(fleet_cache, rep.total, "{name}: fleet ≡ sequential replay across the restart");
        assert_eq!(restarts, 1, "{name}: one supervised restart");
        assert_eq!(dropped, 1, "{name}: only the fatal request is lost");
        assert_eq!(warm, u32::from(ckpt_every.is_some()), "{name}: restart temperature");

        let recovery = recovery_requests(&rep.curve, kill_at, steady_ohr);
        rows.push(RecoveryScenario {
            scenario: name.into(),
            restarts,
            warm_restarts: warm,
            recovery_requests: recovery,
            final_ohr: rep.total.hoc_ohr(),
            curve: rep.curve,
        });
    }

    // The acceptance criterion: warm reaches 95% of steady state in strictly
    // fewer post-crash requests than cold.
    let warm_rec = rows[0].recovery_requests.expect("warm restore must recover within the tail");
    // A cold run that never recovered within the tail loses trivially.
    if let Some(cold_rec) = rows[1].recovery_requests {
        assert!(
            warm_rec < cold_rec,
            "warm recovery ({warm_rec} requests) must beat cold ({cold_rec} requests)"
        );
    }

    let mut table = Report::new(
        "recovery",
        "Hit-ratio recovery after a shard death, warm vs cold restart",
        &["scenario", "restarts", "warm", "recovery_reqs", "final_ohr"],
        out,
    );
    for r in &rows {
        table.row(&[
            r.scenario.clone(),
            r.restarts.to_string(),
            r.warm_restarts.to_string(),
            r.recovery_requests.map_or_else(|| "never".into(), |v| v.to_string()),
            f4(r.final_ohr),
        ]);
    }
    table.finish().expect("write recovery.csv");

    let bench = RecoveryBench {
        experiment: "recovery".into(),
        scale: scale.factor(),
        requests: n,
        shards: 1,
        kill_at,
        checkpoint_every: window,
        window,
        steady_ohr,
        recovery_threshold: RECOVERY_THRESHOLD,
        rows,
    };
    std::fs::create_dir_all(out).expect("create output dir");
    let json = serde_json::to_string_pretty(&bench).expect("serialize BENCH_recovery");
    let path = out.join("BENCH_recovery.json");
    std::fs::write(&path, &json).expect("write BENCH_recovery.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace(n: usize) -> Trace {
        TraceGenerator::new(MixSpec::single(TrafficClass::image()), 9).generate(n)
    }

    fn tiny_cache() -> CacheConfig {
        CacheConfig::small_test()
    }

    #[test]
    fn warm_replay_is_lossless_at_a_boundary() {
        // A boundary kill with checkpointing restores the exact pre-crash
        // state, so the warm replay equals the uninterrupted replay of the
        // trace minus the one dropped request.
        let trace = tiny_trace(4_000);
        let mut reqs = trace.requests().to_vec();
        reqs.remove(2_000);
        let uninterrupted = replay(&tiny_cache(), &Trace::from_sorted(reqs), None, None, 500);
        let warm = replay(&tiny_cache(), &trace, Some(2_000), Some(500), 500);
        assert_eq!(warm.total, uninterrupted.total);
    }

    #[test]
    fn cold_replay_folds_the_dead_incarnation() {
        let trace = tiny_trace(4_000);
        let cold = replay(&tiny_cache(), &trace, Some(2_000), None, 500);
        // Counts conserve: everything but the fatal request was processed.
        assert_eq!(cold.total.requests, 3_999);
        // The windowed curve covers the whole run.
        assert_eq!(cold.curve.len(), 3_999 / 500);
    }

    #[test]
    fn bench_json_has_expected_shape() {
        let doc = RecoveryBench {
            experiment: "recovery".into(),
            scale: 1,
            requests: 100_000,
            shards: 1,
            kill_at: 40_000,
            checkpoint_every: 2_000,
            window: 2_000,
            steady_ohr: 0.5,
            recovery_threshold: RECOVERY_THRESHOLD,
            rows: vec![RecoveryScenario {
                scenario: "warm".into(),
                restarts: 1,
                warm_restarts: 1,
                recovery_requests: Some(2_000),
                final_ohr: 0.49,
                curve: vec![CurvePoint { seq: 2_000, ohr: 0.1 }],
            }],
        };
        let s = serde_json::to_string_pretty(&doc).unwrap();
        assert!(s.contains("\"experiment\""));
        assert!(s.contains("recovery_requests"));
        assert!(s.contains("steady_ohr"));
    }
}
