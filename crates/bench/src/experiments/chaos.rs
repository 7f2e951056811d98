//! Fault-injection serving benchmark: exactly-once answering under scripted
//! shard deaths (`BENCH_chaos.json`).
//!
//! Three scenarios run the same trace through a loopback [`Gateway`] over a
//! 4-shard fleet with a scripted [`FaultPlan`]:
//!
//! * `clean` — empty plan; the control run. No restarts, nothing dropped.
//! * `restarts` — three scripted worker panics, all inside the default
//!   restart budget: the supervisor cold-restarts each time, the client sees
//!   exactly one `Dropped` verdict per death, and service continues.
//! * `degraded` — a panic against a zero-restart budget: the shard is buried
//!   at per-shard request 100 and roughly a quarter of the remaining trace
//!   is answered `Unavailable` (degraded mode, bounded by the dead shard's
//!   share of the keyspace).
//!
//! Every scenario asserts the conservation law end to end: the client's
//! verdict tally covers the whole trace (exactly-once answering over the
//! wire), it agrees with the fleet's own counters, and the `Unavailable`
//! fraction stays within the dead-shard share. The scripted plans key off
//! per-shard request sequence numbers, so fault timing is reproducible
//! run to run even though wall-clock interleaving is not.
//!
//! Output: a console table, `<out>/chaos.csv`, `<out>/BENCH_chaos.json`,
//! and `<out>/chaos_events.log` — every scenario's per-shard event journal
//! (deaths, restart verdicts, restores, fault injections) fetched over the
//! wire with an `EVENTS` frame and rendered one event per line.

use crate::report::{f4, Report};
use crate::scale::Scale;
use darwin_cache::ThresholdPolicy;
use darwin_gateway::{loadgen, Gateway, GatewayConfig, LoadgenConfig};
use darwin_shard::{
    Backpressure, FaultEvent, FaultKind, FaultPlan, FleetBoot, FleetConfig, HashRouter, RestartBudget,
};
use darwin_testbed::StaticDriver;
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};
use serde::Serialize;
use std::fmt::Write;
use std::path::Path;

/// Shards behind the gateway in every scenario.
const SHARDS: usize = 4;

/// One row of `BENCH_chaos.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosRow {
    /// Scenario name (`clean`, `restarts`, `degraded`).
    pub scenario: String,
    /// Scripted worker panics in the plan.
    pub scripted_panics: usize,
    /// Restart budget per shard.
    pub max_restarts: u32,
    /// Verdicts the client tallied (must equal `requests` — exactly-once).
    pub answered: u64,
    /// Requests processed by cache servers.
    pub processed: u64,
    /// Requests dropped (in flight across a worker death, or shed).
    pub dropped: u64,
    /// Requests answered `Unavailable` by degraded routing.
    pub unavailable: u64,
    /// Fraction of the trace answered `Unavailable`.
    pub unavailable_frac: f64,
    /// Supervisor cold restarts across the fleet.
    pub restarts: u32,
    /// Shards buried after exhausting their budget.
    pub dead_shards: usize,
    /// End-to-end requests/sec of the replay.
    pub rps: f64,
    /// Events journaled across the fleet (see `chaos_events.log`).
    pub journal_events: u64,
}

/// The full `BENCH_chaos.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosBench {
    /// Experiment name.
    pub experiment: String,
    /// Scale factor the trace length derives from.
    pub scale: usize,
    /// Requests in the benchmark trace.
    pub requests: usize,
    /// Fleet shard count in every scenario.
    pub shards: usize,
    /// Per-scenario measurements.
    pub rows: Vec<ChaosRow>,
}

struct Scenario {
    name: &'static str,
    plan: FaultPlan,
    budget: RestartBudget,
    /// Inclusive bounds on the `Unavailable` fraction the scenario must land
    /// in (degraded mode is *bounded* degradation, not an outage).
    unavailable_frac: (f64, f64),
    expect_restarts: u32,
    expect_dead: usize,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "clean",
            plan: FaultPlan::default(),
            budget: RestartBudget::default(),
            unavailable_frac: (0.0, 0.0),
            expect_restarts: 0,
            expect_dead: 0,
        },
        Scenario {
            name: "restarts",
            plan: FaultPlan::new(vec![
                FaultEvent { shard: 0, at: 500, kind: FaultKind::Panic },
                FaultEvent { shard: 1, at: 800, kind: FaultKind::Panic },
                FaultEvent { shard: 2, at: 1_200, kind: FaultKind::Panic },
            ]),
            budget: RestartBudget::default(),
            unavailable_frac: (0.0, 0.0),
            expect_restarts: 3,
            expect_dead: 0,
        },
        Scenario {
            name: "degraded",
            plan: FaultPlan::new(vec![FaultEvent { shard: 0, at: 100, kind: FaultKind::Panic }]),
            budget: RestartBudget { max_restarts: 0, window_requests: 100_000 },
            // Shard 0 holds ~1/4 of the keyspace and dies ~immediately, so
            // its whole remaining share goes Unavailable.
            unavailable_frac: (0.10, 0.35),
            expect_restarts: 0,
            expect_dead: 1,
        },
    ]
}

fn bench_trace(scale: &Scale) -> Trace {
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 2026)
        .generate(scale.online_trace_len() / 4)
}

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::new(2, 100 * 1024)
}

/// Runs the scenarios and writes the table, CSV and `BENCH_chaos.json`.
pub fn run(scale: &Scale, out: &Path) {
    let trace = bench_trace(scale);
    let n = trace.len();
    let cache = scale.cache_config();

    let mut rows: Vec<ChaosRow> = Vec::new();
    let mut events_log = String::new();
    for sc in scenarios() {
        let scripted_panics = sc.plan.panics();
        let gateway = Gateway::bind_with(
            "127.0.0.1:0",
            FleetConfig {
                shards: SHARDS,
                queue_capacity: 8192,
                batch: 256,
                backpressure: Backpressure::Block,
                snapshot_every: None,
                restart_budget: sc.budget,
                checkpoint_every: None,
                shed_watermark: None,
                replicas: 0,
            },
            cache.clone(),
            Box::new(HashRouter),
            GatewayConfig {
                boot: FleetBoot { fault_plan: sc.plan, ..FleetBoot::default() },
                ..GatewayConfig::default()
            },
            |_| StaticDriver::new(policy()),
        )
        .expect("bind loopback gateway");
        let cfg = LoadgenConfig { connections: 2, batch: 64, window: 8, ..LoadgenConfig::default() };
        let report = loadgen::run(gateway.local_addr(), &trace, cfg).expect("loadgen replay");
        // Drain the journals over the wire (the EVENTS opcode) before the
        // fleet is joined — the same path `inspect --watch` polls.
        let journals = loadgen::fetch_events(gateway.local_addr()).expect("fetch events");
        let mut journal_events = 0u64;
        let _ = writeln!(events_log, "== scenario {} ==", sc.name);
        for (shard, journal) in &journals {
            journal_events += journal.events.len() as u64;
            for ev in &journal.events {
                let _ = writeln!(events_log, "s{shard} {}", ev.render());
            }
        }
        gateway.shutdown();
        let fleet = gateway.finish().expect("supervised gateway finishes cleanly");

        // The contract this benchmark exists to certify: exactly-once
        // answering over the wire, agreeing with the fleet's own ledger,
        // with degradation bounded by the dead shards' keyspace share.
        let t = report.tally;
        assert_eq!(t.total(), n as u64, "{}: every request answered exactly once", sc.name);
        assert_eq!(
            fleet.total_processed() + fleet.total_dropped() + fleet.total_unavailable(),
            n as u64,
            "{}: fleet-side conservation",
            sc.name
        );
        assert_eq!(t.unavailable, fleet.total_unavailable(), "{}: ledgers agree", sc.name);
        assert_eq!(t.dropped, fleet.total_dropped(), "{}: ledgers agree", sc.name);
        assert_eq!(fleet.total_restarts(), sc.expect_restarts, "{}: restarts", sc.name);
        assert_eq!(fleet.dead_shards(), sc.expect_dead, "{}: dead shards", sc.name);
        let frac = t.unavailable as f64 / n as f64;
        assert!(
            frac >= sc.unavailable_frac.0 && frac <= sc.unavailable_frac.1,
            "{}: unavailable fraction {frac:.3} outside [{}, {}]",
            sc.name,
            sc.unavailable_frac.0,
            sc.unavailable_frac.1
        );

        rows.push(ChaosRow {
            scenario: sc.name.into(),
            scripted_panics,
            max_restarts: sc.budget.max_restarts,
            answered: t.total(),
            processed: fleet.total_processed(),
            dropped: fleet.total_dropped(),
            unavailable: fleet.total_unavailable(),
            unavailable_frac: frac,
            restarts: fleet.total_restarts(),
            dead_shards: fleet.dead_shards(),
            rps: report.rps(),
            journal_events,
        });
    }

    let mut table = Report::new(
        "chaos",
        "Exactly-once answering under scripted shard deaths",
        &["scenario", "panics", "answered", "dropped", "unavail", "frac", "restarts", "dead", "rps"],
        out,
    );
    for r in &rows {
        table.row(&[
            r.scenario.clone(),
            r.scripted_panics.to_string(),
            r.answered.to_string(),
            r.dropped.to_string(),
            r.unavailable.to_string(),
            f4(r.unavailable_frac),
            r.restarts.to_string(),
            r.dead_shards.to_string(),
            format!("{:.0}", r.rps),
        ]);
    }
    table.finish().expect("write chaos.csv");

    let bench = ChaosBench {
        experiment: "chaos".into(),
        scale: scale.factor(),
        requests: n,
        shards: SHARDS,
        rows,
    };
    std::fs::create_dir_all(out).expect("create output dir");
    let json = serde_json::to_string_pretty(&bench).expect("serialize BENCH_chaos");
    let path = out.join("BENCH_chaos.json");
    std::fs::write(&path, &json).expect("write BENCH_chaos.json");
    println!("wrote {}", path.display());
    let log_path = out.join("chaos_events.log");
    std::fs::write(&log_path, &events_log).expect("write chaos_events.log");
    println!("wrote {}", log_path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_has_expected_shape() {
        let doc = ChaosBench {
            experiment: "chaos".into(),
            scale: 1,
            requests: 50_000,
            shards: SHARDS,
            rows: vec![ChaosRow {
                scenario: "degraded".into(),
                scripted_panics: 1,
                max_restarts: 0,
                answered: 50_000,
                processed: 37_000,
                dropped: 1,
                unavailable: 12_999,
                unavailable_frac: 0.26,
                restarts: 0,
                dead_shards: 1,
                rps: 100_000.0,
                journal_events: 3,
            }],
        };
        let s = serde_json::to_string_pretty(&doc).unwrap();
        assert!(s.contains("\"experiment\""));
        assert!(s.contains("unavailable_frac"));
        assert!(s.contains("dead_shards"));
    }

    #[test]
    fn scenarios_are_well_formed() {
        let sc = scenarios();
        assert_eq!(sc.len(), 3);
        assert!(sc.iter().any(|s| s.expect_dead > 0), "one scenario must exercise burial");
        assert!(sc.iter().any(|s| s.expect_restarts > 0), "one scenario must exercise restarts");
        for s in &sc {
            assert!(s.unavailable_frac.0 <= s.unavailable_frac.1);
        }
    }
}
