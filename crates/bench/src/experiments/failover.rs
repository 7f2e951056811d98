//! Failover certification: hot-standby promotion vs burial past the
//! restart budget (`BENCH_failover.json`).
//!
//! A two-shard fleet serves a two-class trace while shard 0 is killed
//! twice by a scripted [`FaultPlan`], both times exactly at a checkpoint
//! boundary, under a restart budget of **one**: the first death is a
//! budgeted warm restart, the second is past budget. Two scenarios differ
//! only in [`FleetConfig::replicas`]:
//!
//! * `replicated` — one hot standby per shard: the past-budget death
//!   *promotes* the standby's last applied frame. Nothing is ever answered
//!   `Unavailable`, and the windowed hit-ratio curve dips by at most one
//!   checkpoint window of lost recency (zero here: boundary kills are
//!   lossless), recovering within one window.
//! * `unreplicated` — the same plan buries shard 0: every request routed
//!   to it for the rest of the run is answered `Unavailable`, a fraction
//!   this experiment quantifies.
//!
//! The plotted curves are windowed hit ratios from a *deterministic
//! sequential replay* of shard 0's partition (fleet ≡ sequential replay by
//! the failover-equivalence theorem, `darwin-shard/tests/failover.rs`); the
//! real threaded fleet runs each scenario too and its shard-0 cumulative
//! metrics must match the replay bitwise.
//!
//! Output: a console table, `<out>/failover.csv`, and
//! `<out>/BENCH_failover.json`.

use crate::curve::{recovery_requests, steady_ohr, CurvePoint, RECOVERY_THRESHOLD};
use crate::report::{f4, Report};
use crate::scale::Scale;
use darwin_cache::{CacheConfig, CacheMetrics, CacheServer, ThresholdPolicy};
use darwin_shard::{
    partition, Backpressure, FaultEvent, FaultKind, FaultPlan, FleetBoot, FleetConfig, HashRouter,
    RestartBudget, ShardedFleet,
};
use darwin_testbed::StaticDriver;
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};
use serde::Serialize;
use std::path::Path;

/// One scenario's measurements, fleet counters and replay curve together.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverScenario {
    /// Scenario name (`replicated`, `unreplicated`).
    pub scenario: String,
    /// Hot standbys per shard (1 or 0).
    pub replicas: usize,
    /// Supervisor restarts granted to shard 0.
    pub restarts: u32,
    /// Restarts that resumed warm (includes the promotion).
    pub warm_restarts: u32,
    /// Past-budget deaths answered by standby promotion.
    pub failovers: u32,
    /// Shards dead when the fleet finished.
    pub dead_shards: usize,
    /// Requests fully processed, fleet-wide.
    pub processed: u64,
    /// Requests dropped (the fatal requests the scripted deaths lost).
    pub dropped: u64,
    /// Requests answered `Unavailable` (buried-shard tail).
    pub unavailable: u64,
    /// `unavailable / submitted` — the degradation the standby erases.
    pub unavailable_fraction: f64,
    /// Cumulative shard-0 hit ratio over the whole run.
    pub final_ohr: f64,
    /// Post-failover requests until a window first reached
    /// [`RECOVERY_THRESHOLD`] × steady-state hit ratio; `None` if it never
    /// did (the unreplicated scenario's curve ends at the burial).
    pub recovery_requests: Option<u64>,
    /// Windowed hit-ratio curve of shard 0's deterministic replay.
    pub curve: Vec<CurvePoint>,
}

/// The full `BENCH_failover.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct FailoverBench {
    /// Experiment name.
    pub experiment: String,
    /// Scale factor the trace length derives from.
    pub scale: usize,
    /// Requests in the benchmark trace (fleet-wide).
    pub requests: usize,
    /// Shards in the fleet.
    pub shards: usize,
    /// Per-shard sequence of the budgeted first kill (a boundary).
    pub kill1_at: u64,
    /// Per-shard sequence of the past-budget second kill (a boundary).
    pub kill2_at: u64,
    /// Checkpoint cadence — also the replication cadence and the curve
    /// window, so "recovers within one window" is "within one checkpoint".
    pub checkpoint_every: u64,
    /// Steady-state hit ratio of the crash-free shard-0 replay (windowed
    /// over its last quarter).
    pub steady_ohr: f64,
    /// Recovery threshold as a fraction of `steady_ohr`.
    pub recovery_threshold: f64,
    /// Per-scenario measurements.
    pub rows: Vec<FailoverScenario>,
}

fn bench_trace(scale: &Scale) -> Trace {
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 2028)
        .generate(scale.online_trace_len() / 2)
}

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::new(2, 100 * 1024)
}

/// Outcome of one deterministic sequential replay of shard 0's partition.
struct Replay {
    /// Cumulative metrics over every incarnation that processed requests.
    total: CacheMetrics,
    /// Windowed hit-ratio curve.
    curve: Vec<CurvePoint>,
}

/// Sequentially replays shard 0's partition: checkpoint at every `window`
/// boundary, drop the fatal request and restore warm at each kill index,
/// and — when `bury_at` is set — stop processing there (the unreplicated
/// fleet answers the rest `Unavailable`). Boundary kills restore the exact
/// pre-crash state, which is what makes this replay ≡ the promoted fleet.
fn replay(
    cache: &CacheConfig,
    part: &Trace,
    kills: &[u64],
    bury_at: Option<u64>,
    window: u64,
) -> Replay {
    let mut server = CacheServer::new(cache.clone());
    server.set_policy(policy());
    let mut saved: Option<Vec<u8>> = None;
    let mut curve = Vec::new();
    let mut prev = CacheMetrics::default();
    let mut processed = 0u64;
    for (i, req) in part.iter().enumerate() {
        let i = i as u64;
        if bury_at == Some(i) {
            break;
        }
        if kills.contains(&i) {
            let frame = saved.as_ref().expect("kills sit past the first checkpoint boundary");
            server =
                CacheServer::restore_state(cache.clone(), frame).expect("boundary checkpoint restores");
            server.set_policy(policy());
            continue; // the fatal request is answered `Dropped`
        }
        server.process(req);
        processed += 1;
        if (i + 1).is_multiple_of(window) {
            saved = Some(server.save_state());
        }
        if processed.is_multiple_of(window) {
            let cum = server.metrics();
            curve.push(CurvePoint::window(
                i + 1,
                cum.requests - prev.requests,
                cum.hoc_hits - prev.hoc_hits,
            ));
            prev = cum;
        }
    }
    Replay { total: server.metrics(), curve }
}

/// Runs both scenarios and writes the table, CSV and `BENCH_failover.json`.
pub fn run(scale: &Scale, out: &Path) {
    let trace = bench_trace(scale);
    let n = trace.len();
    let cache = scale.cache_config();
    let shards = 2usize;
    let parts = partition(&trace, &HashRouter, shards);
    let part0 = parts[0].len() as u64;

    let window = (part0 / 40).max(500);
    // First kill at ~30%, second at ~55% of shard 0's partition, both on
    // checkpoint boundaries, leaving a long post-promotion tail.
    let kill1_at = (part0 * 3 / 10 / window) * window;
    let kill2_at = (part0 * 11 / 20 / window) * window;
    assert!(kill1_at > 0 && kill2_at > kill1_at && kill2_at + window < part0);

    // Crash-free control: steady state = windowed hit ratio over the last
    // quarter of shard 0's clean replay.
    let steady_ohr = steady_ohr(&replay(&cache, &parts[0], &[], None, window).curve);

    let mut rows = Vec::new();
    for (name, replicas) in [("replicated", 1usize), ("unreplicated", 0usize)] {
        let p = policy();
        let mut fleet = ShardedFleet::with_boot(
            FleetConfig {
                shards,
                queue_capacity: 4096,
                batch: 256,
                backpressure: Backpressure::Block,
                snapshot_every: None,
                restart_budget: RestartBudget { max_restarts: 1, window_requests: u64::MAX },
                checkpoint_every: Some(window),
                shed_watermark: None,
                replicas,
            },
            cache.clone(),
            Box::new(HashRouter),
            move |_| StaticDriver::new(p),
            FleetBoot {
                fault_plan: FaultPlan::new(vec![
                    FaultEvent { shard: 0, at: kill1_at, kind: FaultKind::Panic },
                    FaultEvent { shard: 0, at: kill2_at, kind: FaultKind::Panic },
                ]),
                ..FleetBoot::default()
            },
        );
        fleet.submit_trace(&trace);
        let report = fleet.finish();
        let s0 = &report.shards[0];

        let submitted = n as u64;
        assert_eq!(
            report.total_processed() + report.total_dropped() + report.total_unavailable(),
            submitted,
            "{name}: conservation must be exact"
        );

        // The deterministic replay the curve comes from, validated bitwise
        // against the threaded fleet's shard 0.
        let rep = if replicas > 0 {
            replay(&cache, &parts[0], &[kill1_at, kill2_at], None, window)
        } else {
            replay(&cache, &parts[0], &[kill1_at], Some(kill2_at), window)
        };
        assert_eq!(s0.cache, rep.total, "{name}: fleet ≡ sequential replay");

        let recovery = recovery_requests(&rep.curve, kill2_at, steady_ohr);
        rows.push(FailoverScenario {
            scenario: name.into(),
            replicas,
            restarts: s0.restarts,
            warm_restarts: s0.warm_restarts,
            failovers: s0.failovers,
            dead_shards: report.dead_shards(),
            processed: report.total_processed(),
            dropped: report.total_dropped(),
            unavailable: report.total_unavailable(),
            unavailable_fraction: report.total_unavailable() as f64 / submitted as f64,
            final_ohr: rep.total.hoc_ohr(),
            recovery_requests: recovery,
            curve: rep.curve,
        });
    }

    // The acceptance criteria the standby is for: zero Unavailable with a
    // replica, a quantified Unavailable fraction without, and a hit-ratio
    // dip that recovers within one checkpoint window of the promotion.
    let rep = &rows[0];
    assert_eq!(rep.unavailable, 0, "replicated: promotion must erase Unavailable entirely");
    assert_eq!(rep.failovers, 1, "replicated: exactly one promotion");
    assert_eq!(rep.dead_shards, 0);
    let rec = rep.recovery_requests.expect("replicated: the dip must recover");
    assert!(
        rec <= window,
        "replicated: recovery took {rec} requests, more than one checkpoint window ({window})"
    );
    let unrep = &rows[1];
    assert!(unrep.unavailable > 0, "unreplicated: the buried shard's tail must degrade");
    assert_eq!(unrep.dead_shards, 1);
    assert_eq!(unrep.failovers, 0);

    let mut table = Report::new(
        "failover",
        "Hot-standby promotion vs burial past the restart budget",
        &[
            "scenario",
            "replicas",
            "failovers",
            "unavailable",
            "unavail_frac",
            "recovery_reqs",
            "final_ohr",
        ],
        out,
    );
    for r in &rows {
        table.row(&[
            r.scenario.clone(),
            r.replicas.to_string(),
            r.failovers.to_string(),
            r.unavailable.to_string(),
            f4(r.unavailable_fraction),
            r.recovery_requests.map_or_else(|| "never".into(), |v| v.to_string()),
            f4(r.final_ohr),
        ]);
    }
    table.finish().expect("write failover.csv");

    let bench = FailoverBench {
        experiment: "failover".into(),
        scale: scale.factor(),
        requests: n,
        shards,
        kill1_at,
        kill2_at,
        checkpoint_every: window,
        steady_ohr,
        recovery_threshold: RECOVERY_THRESHOLD,
        rows,
    };
    std::fs::create_dir_all(out).expect("create output dir");
    let json = serde_json::to_string_pretty(&bench).expect("serialize BENCH_failover");
    let path = out.join("BENCH_failover.json");
    std::fs::write(&path, &json).expect("write BENCH_failover.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace(n: usize) -> Trace {
        TraceGenerator::new(MixSpec::single(TrafficClass::image()), 9).generate(n)
    }

    #[test]
    fn boundary_kills_replay_losslessly() {
        // Two boundary kills with checkpointing equal the uninterrupted
        // replay of the trace minus the two dropped requests.
        let trace = tiny_trace(4_000);
        let mut reqs = trace.requests().to_vec();
        reqs.remove(2_000);
        reqs.remove(1_000);
        let uninterrupted =
            replay(&CacheConfig::small_test(), &Trace::from_sorted(reqs), &[], None, 500);
        let killed = replay(&CacheConfig::small_test(), &trace, &[1_000, 2_000], None, 500);
        assert_eq!(killed.total, uninterrupted.total);
    }

    #[test]
    fn burial_truncates_the_replay() {
        let trace = tiny_trace(4_000);
        let buried = replay(&CacheConfig::small_test(), &trace, &[1_000], Some(2_000), 500);
        // Processed everything before the burial except the one fatal.
        assert_eq!(buried.total.requests, 1_999);
        assert!(buried.curve.len() < 4_000 / 500);
    }

    #[test]
    fn bench_json_has_expected_shape() {
        let doc = FailoverBench {
            experiment: "failover".into(),
            scale: 1,
            requests: 100_000,
            shards: 2,
            kill1_at: 15_000,
            kill2_at: 27_500,
            checkpoint_every: 1_250,
            steady_ohr: 0.5,
            recovery_threshold: RECOVERY_THRESHOLD,
            rows: vec![FailoverScenario {
                scenario: "replicated".into(),
                replicas: 1,
                restarts: 2,
                warm_restarts: 2,
                failovers: 1,
                dead_shards: 0,
                processed: 99_998,
                dropped: 2,
                unavailable: 0,
                unavailable_fraction: 0.0,
                final_ohr: 0.49,
                recovery_requests: Some(1_250),
                curve: vec![CurvePoint { seq: 1_250, ohr: 0.1 }],
            }],
        };
        let s = serde_json::to_string_pretty(&doc).unwrap();
        assert!(s.contains("\"experiment\""));
        assert!(s.contains("unavailable_fraction"));
        assert!(s.contains("recovery_requests"));
        assert!(s.contains("\"failovers\""));
    }
}
