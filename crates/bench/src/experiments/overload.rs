//! Flash-crowd overload benchmark: fair shedding and network-fault
//! determinism over real sockets (`BENCH_overload.json`).
//!
//! Two scenario families share the output document:
//!
//! * **shed/fairness** — at 1, 2 and 8 shards, a flash-crowd trace
//!   ([`compress_window`] + [`flash_crowd`] + [`popularity_inversion`]) is
//!   replayed by a four-connection fair cohort while a **greedy client**
//!   floods the same gateway from a fifth connection as fast as it can.
//!   The gateway runs with both overload valves open: a per-connection
//!   token bucket (`conn_rate`) and a per-shard queue watermark
//!   (`shed_watermark`), with scripted worker stalls forcing the watermark
//!   to actually engage. Each run certifies, over the wire:
//!   - the extended conservation law — every record submitted to the fleet
//!     is `processed + dropped + unavailable + shed`, exactly;
//!   - exactly-once answering for the fair cohort (retried `Busy` records
//!     converge to one final verdict each) with **zero** starved
//!     connections and zero transport failures;
//!   - the greedy client's admitted throughput stays within 2× its token
//!     fair share — overload makes the gateway selective, not generous;
//!   - a bounded reply p99 for the surviving (fair) traffic.
//! * **net-fault determinism** — the same scripted hostile network
//!   ([`NetFaultPlan`]: accept pause, stall, reset, corruption) is run
//!   twice against identical gateways with a seeded loadgen; the fetched
//!   event journals must re-encode to **byte-identical** frames, proving
//!   the fault injector keys off frame sequence numbers, not wall clock.
//!
//! Output: a console table, `<out>/overload.csv` and
//! `<out>/BENCH_overload.json`.

use crate::report::{f4, Report};
use crate::scale::Scale;
use darwin_cache::{CacheMetrics, ThresholdPolicy};
use darwin_gateway::netfault::{NetFaultEvent, NetFaultKind, NetFaultPlan};
use darwin_gateway::wire::{encode_get, FrameReader, Message};
use darwin_gateway::{loadgen, Gateway, GatewayConfig, LoadgenConfig, VerdictOutcome};
use darwin_obs::encode_fleet_events;
use darwin_shard::{Backpressure, FaultEvent, FaultKind, FaultPlan, FleetBoot, FleetConfig, HashRouter};
use darwin_testbed::{AdmissionDriver, StaticDriver};
use darwin_trace::{
    compress_window, flash_crowd, popularity_inversion, MixSpec, Request, Trace, TraceGenerator,
    TrafficClass,
};
use serde::Serialize;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Per-connection token-bucket rate (records/second) in the shed scenarios.
const CONN_RATE: u64 = 4_000;
/// Per-shard queue watermark in the shed scenarios.
const SHED_WATERMARK: usize = 32;
/// Fair cohort size (loadgen connections).
const FAIR_CONNS: usize = 4;
/// Minimum greedy-client runtime, so its admitted-rate measurement
/// amortizes the bucket's one-second burst allowance.
const GREEDY_MIN_RUN: Duration = Duration::from_millis(1_500);

/// One shed/fairness row of `BENCH_overload.json`.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadRow {
    /// Fleet shard count.
    pub shards: usize,
    /// Fair-cohort requests (= trace length).
    pub requests: u64,
    /// Final verdicts the fair cohort tallied (must equal `requests`).
    pub answered: u64,
    /// Fair-cohort records answered `Busy` and later resent to completion.
    pub fair_shed: u64,
    /// Fleet-side ledger: processed.
    pub processed: u64,
    /// Fleet-side ledger: dropped.
    pub dropped: u64,
    /// Fleet-side ledger: unavailable.
    pub unavailable: u64,
    /// Fleet-side ledger: shed at the queue watermark.
    pub fleet_shed: u64,
    /// Records the gateway shed before the fleet (token bucket / backlog).
    pub gateway_shed: u64,
    /// Records submitted to the fleet (`requests_in`).
    pub submitted: u64,
    /// Records the greedy client got admitted (final verdicts).
    pub greedy_admitted: u64,
    /// Records the greedy client was answered `Busy`.
    pub greedy_busy: u64,
    /// Greedy admitted records/second over its run.
    pub greedy_rate: f64,
    /// The configured per-connection fair share (records/second).
    pub conn_rate: u64,
    /// Fair connections that failed to complete their chunk (must be 0).
    pub starved_conns: usize,
    /// p99 frame round-trip of the surviving (fair) traffic, milliseconds.
    pub p99_ms: f64,
    /// Fair-cohort end-to-end requests/second.
    pub rps: f64,
}

/// The determinism certificate for the net-fault scenario.
#[derive(Debug, Clone, Serialize)]
pub struct DeterminismRow {
    /// Scripted network faults in the plan.
    pub scripted_faults: usize,
    /// Network faults the gateway counted (must equal `scripted_faults`,
    /// same in both runs).
    pub fired_faults: u64,
    /// Bytes of the re-encoded journal frame.
    pub journal_bytes: usize,
    /// Whether the two seeded reruns produced byte-identical journals.
    pub identical: bool,
}

/// The full `BENCH_overload.json` document.
#[derive(Debug, Clone, Serialize)]
pub struct OverloadBench {
    /// Experiment name.
    pub experiment: String,
    /// Scale factor the trace length derives from.
    pub scale: usize,
    /// Per-shard-count shed/fairness measurements.
    pub rows: Vec<OverloadRow>,
    /// The two-run net-fault determinism certificate.
    pub determinism: DeterminismRow,
}

/// A driver with a small deterministic per-request spin, so the flash crowd
/// actually outruns the drain and the shed watermark has work to do.
struct SpinDriver {
    policy: ThresholdPolicy,
    spins: u32,
}

impl AdmissionDriver for SpinDriver {
    fn initial_policy(&mut self) -> ThresholdPolicy {
        self.policy
    }
    fn observe(&mut self, _req: &Request, _m: &CacheMetrics) -> Option<ThresholdPolicy> {
        for _ in 0..self.spins {
            std::hint::spin_loop();
        }
        None
    }
    fn label(&self) -> String {
        "spin".into()
    }
}

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::new(2, 100 * 1024)
}

/// The flash-crowd trace: a two-class base, its popular set inverted
/// mid-stream, a hot object absorbing half the burst window, and the
/// window's arrivals compressed 4× — §2.1's "rapid change" taken literally.
fn burst_trace(scale: &Scale) -> Trace {
    let base = TraceGenerator::new(
        MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5),
        4_217,
    )
    .generate(scale.online_trace_len() / 8);
    let inverted = popularity_inversion(&base, 0.5, 99);
    let hot = flash_crowd(&inverted, 0.4, 0.8, 0.5, 4 * 1024 * 1024, 7);
    compress_window(&hot, 0.4, 0.8, 4.0)
}

/// Floods the gateway from one connection as fast as the socket allows,
/// reading every reply (a greedy-but-polite client: it overruns its rate
/// share, not the slow-client budget). Returns
/// `(admitted, busy, elapsed_secs)`.
fn greedy_client(addr: std::net::SocketAddr, stop: &AtomicBool) -> (u64, u64, f64) {
    let stream = TcpStream::connect(addr).expect("greedy connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone greedy stream");
    let mut reader = FrameReader::new(stream);
    // A distinct hot-ish object set, far from the generator's id space.
    let frame: Vec<Request> = (0..256u64).map(|i| Request::new((1 << 60) | i, 64 * 1024, i)).collect();
    let mut buf = Vec::new();
    encode_get(&frame, &mut buf);
    let started = Instant::now();
    let (mut admitted, mut busy) = (0u64, 0u64);
    loop {
        if writer.write_all(&buf).is_err() {
            break;
        }
        match reader.recv() {
            Ok(Some(Message::Verdicts(vs))) => {
                for v in &vs {
                    if v.outcome == VerdictOutcome::Busy {
                        busy += 1;
                    } else {
                        admitted += 1;
                    }
                }
            }
            _ => break,
        }
        if stop.load(Ordering::Relaxed) && started.elapsed() >= GREEDY_MIN_RUN {
            break;
        }
    }
    (admitted, busy, started.elapsed().as_secs_f64())
}

/// One shed/fairness run at the given shard count.
fn run_shed(trace: &Trace, scale: &Scale, shards: usize) -> OverloadRow {
    let n = trace.len() as u64;
    // Stall every worker early (the shard overload suite's recipe) so the
    // queue watermark provably engages during the burst.
    let stalls = FaultPlan::new(
        (0..shards)
            .flat_map(|s| {
                (0..8).map(move |at| FaultEvent {
                    shard: s,
                    at,
                    kind: FaultKind::Delay { spins: 500_000 },
                })
            })
            .collect(),
    );
    let gateway = Gateway::bind_with(
        "127.0.0.1:0",
        FleetConfig {
            shards,
            queue_capacity: 4 * SHED_WATERMARK,
            batch: 32,
            backpressure: Backpressure::Block,
            snapshot_every: None,
            restart_budget: Default::default(),
            checkpoint_every: None,
            shed_watermark: Some(SHED_WATERMARK),
            replicas: 0,
        },
        scale.cache_config(),
        Box::new(HashRouter),
        GatewayConfig {
            boot: FleetBoot { fault_plan: stalls, ..FleetBoot::default() },
            conn_rate: Some(CONN_RATE),
            ..GatewayConfig::default()
        },
        |_| SpinDriver { policy: policy(), spins: 400 },
    )
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    let stop = AtomicBool::new(false);
    let (report, greedy) = std::thread::scope(|scope| {
        let greedy = scope.spawn(|| greedy_client(addr, &stop));
        let report = loadgen::run(
            addr,
            trace,
            LoadgenConfig { connections: FAIR_CONNS, batch: 64, window: 8, ..Default::default() },
        )
        .expect("fair cohort replay");
        stop.store(true, Ordering::Relaxed);
        (report, greedy.join().expect("greedy client"))
    });
    let (greedy_admitted, greedy_busy, greedy_elapsed) = greedy;

    let metrics = gateway.metrics();
    gateway.shutdown();
    let fleet = gateway.finish().expect("clean gateway shutdown");
    let gw = metrics.gateway.expect("gateway counters");

    // The contracts this benchmark exists to certify.
    assert_eq!(report.tally.total(), n, "{shards} shards: fair cohort answered exactly once");
    assert_eq!(report.errors.total_failures(), 0, "{shards} shards: Busy is flow control, not failure");
    let starved_conns = report.per_connection.iter().filter(|c| c.tally.total() != c.requests).count();
    assert_eq!(starved_conns, 0, "{shards} shards: no fair connection starves");
    assert_eq!(
        fleet.total_processed() + fleet.total_dropped() + fleet.total_unavailable() + fleet.total_shed(),
        gw.requests_in,
        "{shards} shards: extended ledger processed + dropped + unavailable + shed == submitted"
    );
    assert!(fleet.total_shed() > 0, "{shards} shards: the queue watermark must engage");
    assert!(gw.shed > 0, "{shards} shards: the token bucket must throttle the greedy flood");
    // Fairness: the greedy client's admitted rate is capped near its token
    // share (rate × elapsed plus the one-second burst, measured over a run
    // long enough that 2× covers the burst term).
    let greedy_rate = greedy_admitted as f64 / greedy_elapsed.max(1e-9);
    assert!(
        greedy_rate <= 2.0 * CONN_RATE as f64,
        "{shards} shards: greedy admitted {greedy_rate:.0} rec/s exceeds 2x fair share ({CONN_RATE})"
    );
    assert!(greedy_busy > 0, "{shards} shards: the greedy flood must see Busy verdicts");
    let p99_ms = report.latency.quantile(99.0) as f64 / 1e6;
    assert!(p99_ms < 2_000.0, "{shards} shards: surviving-traffic p99 {p99_ms:.1}ms is unbounded");

    OverloadRow {
        shards,
        requests: n,
        answered: report.tally.total(),
        fair_shed: report.errors.shed,
        processed: fleet.total_processed(),
        dropped: fleet.total_dropped(),
        unavailable: fleet.total_unavailable(),
        fleet_shed: fleet.total_shed(),
        gateway_shed: gw.shed,
        submitted: gw.requests_in,
        greedy_admitted,
        greedy_busy,
        greedy_rate,
        conn_rate: CONN_RATE,
        starved_conns,
        p99_ms,
        rps: report.rps(),
    }
}

/// The fixed hostile-network script for the determinism runs: every fault
/// kind, keyed to early frames so both runs provably reach them.
fn netfault_plan() -> NetFaultPlan {
    NetFaultPlan::new(vec![
        NetFaultEvent { conn: 0, at_frame: 0, kind: NetFaultKind::AcceptPause { spins: 40_000 } },
        NetFaultEvent { conn: 0, at_frame: 1, kind: NetFaultKind::Stall { spins: 80_000 } },
        NetFaultEvent { conn: 0, at_frame: 3, kind: NetFaultKind::Reset },
        NetFaultEvent { conn: 1, at_frame: 2, kind: NetFaultKind::Corrupt },
    ])
}

/// One seeded hostile-network run; returns the re-encoded journal frame and
/// the gateway's fault counter.
fn run_netfault_once(scale: &Scale) -> (Vec<u8>, u64) {
    let trace = TraceGenerator::new(MixSpec::single(TrafficClass::image()), 1_337)
        .generate((scale.online_trace_len() / 50).max(4_000));
    let gateway = Gateway::bind_with(
        "127.0.0.1:0",
        FleetConfig {
            shards: 2,
            queue_capacity: 256,
            batch: 64,
            backpressure: Backpressure::Block,
            snapshot_every: None,
            restart_budget: Default::default(),
            checkpoint_every: None,
            shed_watermark: None,
            replicas: 0,
        },
        scale.cache_config(),
        Box::new(HashRouter),
        GatewayConfig { net_fault_plan: netfault_plan(), ..GatewayConfig::default() },
        |_| StaticDriver::new(policy()),
    )
    .expect("bind loopback gateway");
    let addr = gateway.local_addr();

    let report = loadgen::run(
        addr,
        &trace,
        LoadgenConfig { connections: 1, batch: 64, window: 4, seed: 0xFA57, ..Default::default() },
    )
    .expect("replay must survive the hostile network");
    assert_eq!(report.tally.total(), trace.len() as u64, "exactly-once under faults");
    let journals = loadgen::fetch_events(addr).expect("events fetch");
    let frame = encode_fleet_events(&journals);

    let metrics = gateway.metrics();
    gateway.shutdown();
    gateway.finish().expect("clean gateway shutdown");
    (frame, metrics.gateway.expect("gateway counters").net_faults)
}

/// Runs both scenario families and writes the table, CSV and
/// `BENCH_overload.json`.
pub fn run(scale: &Scale, out: &Path) {
    let trace = burst_trace(scale);
    let rows: Vec<OverloadRow> =
        [1usize, 2, 8].iter().map(|&shards| run_shed(&trace, scale, shards)).collect();

    let plan_len = netfault_plan().events().len();
    let (journal_a, fired_a) = run_netfault_once(scale);
    let (journal_b, fired_b) = run_netfault_once(scale);
    assert_eq!(fired_a, plan_len as u64, "every scripted network fault fires");
    assert_eq!(fired_b, fired_a, "reruns fire identically");
    assert_eq!(journal_a, journal_b, "seeded reruns must re-encode byte-identical journals");
    let determinism = DeterminismRow {
        scripted_faults: plan_len,
        fired_faults: fired_a,
        journal_bytes: journal_a.len(),
        identical: journal_a == journal_b,
    };

    let mut table = Report::new(
        "overload",
        "Flash-crowd shedding, fairness and net-fault determinism",
        &["shards", "answered", "fleet_shed", "gw_shed", "greedy_rps", "fair_share", "p99_ms", "rps"],
        out,
    );
    for r in &rows {
        table.row(&[
            r.shards.to_string(),
            r.answered.to_string(),
            r.fleet_shed.to_string(),
            r.gateway_shed.to_string(),
            format!("{:.0}", r.greedy_rate),
            r.conn_rate.to_string(),
            f4(r.p99_ms),
            format!("{:.0}", r.rps),
        ]);
    }
    table.finish().expect("write overload.csv");
    println!(
        "net-fault determinism: {} faults fired, journals identical across reruns ({} bytes)",
        determinism.fired_faults, determinism.journal_bytes
    );

    let bench =
        OverloadBench { experiment: "overload".into(), scale: scale.factor(), rows, determinism };
    std::fs::create_dir_all(out).expect("create output dir");
    let json = serde_json::to_string_pretty(&bench).expect("serialize BENCH_overload");
    let path = out.join("BENCH_overload.json");
    std::fs::write(&path, &json).expect("write BENCH_overload.json");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_has_expected_shape() {
        let doc = OverloadBench {
            experiment: "overload".into(),
            scale: 1,
            rows: vec![OverloadRow {
                shards: 2,
                requests: 25_000,
                answered: 25_000,
                fair_shed: 1_200,
                processed: 24_000,
                dropped: 0,
                unavailable: 0,
                fleet_shed: 2_400,
                gateway_shed: 9_000,
                submitted: 26_400,
                greedy_admitted: 6_000,
                greedy_busy: 90_000,
                greedy_rate: 4_100.0,
                conn_rate: CONN_RATE,
                starved_conns: 0,
                p99_ms: 12.5,
                rps: 80_000.0,
            }],
            determinism: DeterminismRow {
                scripted_faults: 4,
                fired_faults: 4,
                journal_bytes: 180,
                identical: true,
            },
        };
        let s = serde_json::to_string_pretty(&doc).unwrap();
        assert!(s.contains("\"fleet_shed\""));
        assert!(s.contains("\"greedy_rate\""));
        assert!(s.contains("\"identical\": true"));
        assert!(s.contains("\"starved_conns\""));
    }

    #[test]
    fn netfault_plan_covers_every_kind() {
        let plan = netfault_plan();
        assert_eq!(plan.events().len(), 4);
        let kinds: Vec<_> = plan.events().iter().map(|e| e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(k, NetFaultKind::Reset)));
        assert!(kinds.iter().any(|k| matches!(k, NetFaultKind::Corrupt)));
        assert!(kinds.iter().any(|k| matches!(k, NetFaultKind::Stall { .. })));
        assert!(kinds.iter().any(|k| matches!(k, NetFaultKind::AcceptPause { .. })));
    }

    #[test]
    fn burst_trace_is_deterministic() {
        let scale = Scale::new(1);
        assert_eq!(burst_trace(&scale), burst_trace(&scale));
        assert_eq!(burst_trace(&scale).len(), scale.online_trace_len() / 8);
    }
}
