//! A whole benchmark run: generate inputs, set up, make passes until the
//! time budget is spent, check every answer, and reduce to metrics.

use crate::inputs::{
    expert_grid, online_config, shard_cache, static_policy, trace, train_model, Sizes, Workload,
    CLUSTERS, CONTROLLER_BUDGET_NS, SHARDS,
};
use crate::ledger;
use crate::oracle::{expected_verdicts, mismatches};
use crate::report::Metrics;
use crate::spans::SpanLog;
use crate::sys::{cpu_model, median, nproc, peak_rss_mib, steal_ticks};
use crate::workloads::{fleet_config, inproc_pass, wire_pass, Board, Pass, Tally};
use darwin::DarwinModel;
use darwin_gateway::{VerdictOutcome, WireVerdict};
use darwin_testbed::{DarwinDriver, StaticDriver};
use darwin_trace::{Request, Trace};
use serde_json::Value;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Passes a run never exceeds, whatever the time budget.
const MAX_PASSES: usize = 40;

/// One pass reduced to the numbers the end-to-end metrics take medians of.
#[derive(Debug, Clone, Copy)]
struct Summary {
    boot_s: f64,
    setup_s: f64,
    rps: f64,
    p50_us: f64,
    ohr: f64,
    bhr: f64,
    cpu_us: f64,
}

/// Everything a run reports.
#[derive(Debug)]
pub struct RunOutput {
    /// No failure, mismatch or invalid measurement.
    pub correct: bool,
    /// Requests submitted across every pass.
    pub attempted: u64,
    /// Requests dropped, unanswered, transport-failed or oracle-mismatched.
    pub failed: u64,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// The run's recorded context.
    pub context: Vec<(String, Value)>,
    /// What went wrong, if anything.
    pub problems: Vec<String>,
}

fn darwin_factory(model: &Arc<DarwinModel>) -> impl Fn(usize) -> DarwinDriver + Clone + Send + 'static {
    let model = Arc::clone(model);
    move |_| DarwinDriver::new(Arc::clone(&model), online_config())
}

fn static_factory() -> impl Fn(usize) -> StaticDriver + Clone + Send + 'static {
    |_| StaticDriver::new(static_policy())
}

/// HOC hit ratio and byte hit ratio of `verdicts` over the requests they
/// answer, counted from the client's own request sizes.
fn hit_ratios(reqs: &[Request], verdicts: &[u8]) -> (f64, f64) {
    let (mut hits, mut hit_bytes, mut bytes) = (0u64, 0u64, 0u64);
    for (r, &b) in reqs.iter().zip(verdicts) {
        bytes += r.size;
        if matches!(WireVerdict::from_byte(b), Ok(v) if v.outcome == VerdictOutcome::HocHit) {
            hits += 1;
            hit_bytes += r.size;
        }
    }
    (hits as f64 / reqs.len().max(1) as f64, hit_bytes as f64 / bytes.max(1) as f64)
}

/// Runs workload `w` for about `seconds` of passes. `traced` switches from
/// the end-to-end metrics to the per-layer ledger; `spans_out` is where a
/// traced run writes its spans.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    sizes: Sizes,
    spans_out: Option<PathBuf>,
) -> RunOutput {
    let full = trace(w, seed, &sizes);
    let reqs = full.requests();
    let cache = shard_cache();

    // Set-up, part 1: Darwin's offline stage, repeated; the median counts.
    let mut train_s = Vec::new();
    let mut model = None;
    if w.darwin() {
        for _ in 0..sizes.train_reps.max(1) {
            let t = Instant::now();
            let m = train_model(&sizes);
            train_s.push(t.elapsed().as_secs_f64());
            model = Some(Arc::new(m));
        }
    }

    let board = (w == Workload::InprocDarwin).then(|| Board::leak(reqs.len(), sizes.frame));
    let pass = |spans: Option<&mut SpanLog>, time_submits: bool| -> Pass {
        match (w, &model) {
            (Workload::WireSaturate, _) => {
                wire_pass(reqs, &sizes, fleet_config(None, 0), 2, None, static_factory(), spans)
            }
            (Workload::PacedDurable, Some(m)) => wire_pass(
                reqs,
                &sizes,
                fleet_config(Some(sizes.checkpoint_every), 1),
                1,
                Some(sizes.rate),
                darwin_factory(m),
                spans,
            ),
            (Workload::InprocDarwin, Some(m)) => inproc_pass(
                reqs,
                &sizes,
                fleet_config(None, 0),
                darwin_factory(m),
                board.expect("in-process runs allocate a board"),
                time_submits,
            ),
            _ => unreachable!("Darwin workloads train a model"),
        }
    };

    let timed_reqs = &reqs[sizes.warm..];
    let timed_n = timed_reqs.len() as f64;

    // Each pass is checked and reduced as soon as it ends, so no pass's
    // verdicts stay allocated while the next one runs. Single-submitter
    // passes are deterministic: every pass must answer exactly like the
    // first, and the first is checked against the oracle once the passes
    // (and the peak-memory reading) are done.
    let single_submitter = w != Workload::WireSaturate;
    let mut reference: Option<Vec<u8>> = None;
    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut summaries: Vec<Summary> = Vec::new();
    let mut check = |i: usize, p: &Pass, problems: &mut Vec<String>| -> (Summary, u64) {
        let mut wrong = 0;
        if single_submitter {
            match &reference {
                None => reference = Some(p.verdicts.clone()),
                Some(r) => wrong = mismatches(r, &p.verdicts),
            }
        }
        if wrong > 0 {
            problems.push(format!("pass {i}: {wrong} verdicts differ from pass 0"));
        }
        problems.extend(p.problems.iter().map(|m| format!("pass {i}: {m}")));
        let rps = timed_n / p.timed.as_secs_f64();
        if w == Workload::PacedDurable && rps < 0.9 * sizes.rate {
            problems.push(format!("pass {i}: open loop fell behind: {rps:.0} of {} req/s", sizes.rate));
        }
        let (ohr, bhr) = hit_ratios(timed_reqs, &p.verdicts[sizes.warm..]);
        let summary = Summary {
            boot_s: p.boot.as_secs_f64(),
            setup_s: p.setup.as_secs_f64(),
            rps,
            p50_us: ledger::latency_us(p, 50.0),
            ohr,
            bhr,
            cpu_us: p.cpu.as_secs_f64() * 1e6 / timed_n,
        };
        (summary, wrong.max(p.failed))
    };
    let mut spans = SpanLog::default();
    let mut kept: Vec<Pass> = Vec::new();
    // Peak memory while serving one pass in a fresh process; later passes
    // reuse what the allocator kept, so their peak mostly tracks allocator
    // churn rather than what serving needs.
    let mut peak_rss = 0.0;
    let started = Instant::now();
    let steal_before = steal_ticks();
    if traced {
        for traced_pass in [false, true] {
            let p = pass(traced_pass.then_some(&mut spans), traced_pass);
            let (summary, bad) = check(summaries.len(), &p, &mut problems);
            summaries.push(summary);
            failed += bad;
            kept.push(p);
        }
    } else {
        while summaries.len() < MAX_PASSES
            && (summaries.len() < sizes.min_passes
                || started.elapsed() < Duration::from_secs_f64(seconds))
        {
            let p = pass(None, false);
            let (summary, bad) = check(summaries.len(), &p, &mut problems);
            summaries.push(summary);
            failed += bad;
            if summaries.len() == 1 {
                peak_rss = peak_rss_mib();
            }
        }
    }
    let attempted = (summaries.len() * reqs.len()) as u64;
    let steal_after = steal_ticks();
    let steal_frac =
        (steal_after.0 - steal_before.0) as f64 / (steal_after.1 - steal_before.1).max(1) as f64;
    if let (Some(r), Some(m)) = (&reference, &model) {
        let wrong = mismatches(&expected_verdicts(&full, SHARDS, &cache, darwin_factory(m)), r);
        if wrong > 0 {
            problems.push(format!("{wrong} verdicts of every pass differ from sequential replay"));
            failed += wrong * summaries.len() as u64;
        }
    }
    let failed = failed.min(attempted);

    let mut metrics = Metrics::default();
    if traced {
        per_layer(w, &full, &sizes, model.as_ref(), &kept, &mut spans, &mut metrics, &mut problems);
        if let Some(path) = &spans_out {
            if let Err(e) = spans.write_jsonl(path) {
                eprintln!("could not write spans to {}: {e}", path.display());
            }
        }
    } else {
        let med = |f: fn(&Summary) -> f64| median(&summaries.iter().map(f).collect::<Vec<_>>());
        metrics.set("setup_s", median(&train_s) + med(|s| s.setup_s));
        metrics.set("rps", med(|s| s.rps));
        metrics.set("p50_us", med(|s| s.p50_us));
        metrics.set("ohr", med(|s| s.ohr));
        metrics.set("bhr", med(|s| s.bhr));
        metrics.set("cpu_us_per_req", med(|s| s.cpu_us));
        metrics.set("peak_rss_mb", peak_rss);
    }

    let mut context: Vec<(String, Value)> = vec![
        ("command".into(), Value::Str(std::env::args().collect::<Vec<_>>().join(" "))),
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::UInt(seed)),
        ("traced".into(), Value::Bool(traced)),
        ("nproc".into(), Value::UInt(nproc() as u64)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("shards".into(), Value::UInt(SHARDS as u64)),
        ("shard_hoc_bytes".into(), Value::UInt(cache.hoc_bytes)),
        ("shard_dc_bytes".into(), Value::UInt(cache.dc_bytes)),
        ("passes".into(), Value::UInt(summaries.len() as u64)),
        ("warm_requests_per_pass".into(), Value::UInt(sizes.warm as u64)),
        ("timed_requests_per_pass".into(), Value::UInt(timed_reqs.len() as u64)),
        ("frame_records".into(), Value::UInt(sizes.frame as u64)),
        ("controller_budget_ns".into(), Value::Float(CONTROLLER_BUDGET_NS)),
        ("fail_frac".into(), Value::Float(failed as f64 / attempted.max(1) as f64)),
        ("host_steal_frac".into(), Value::Float(steal_frac)),
    ];
    match w {
        Workload::WireSaturate => {
            context.push(("connections".into(), Value::UInt(2)));
            context.push(("window_frames".into(), Value::UInt(sizes.window as u64)));
            context.push(("offered_rps".into(), Value::Null));
            context.push(("static_expert".into(), Value::Str(format!("{:?}", static_policy()))));
        }
        Workload::PacedDurable => {
            context.push(("connections".into(), Value::UInt(1)));
            context.push(("offered_rps".into(), Value::Float(sizes.rate)));
            context.push(("checkpoint_every".into(), Value::UInt(sizes.checkpoint_every)));
            context.push(("replicas".into(), Value::UInt(1)));
        }
        Workload::InprocDarwin => {
            context.push(("producers".into(), Value::UInt(1)));
            context.push(("offered_rps".into(), Value::Null));
        }
    }
    if let Some(m) = &model {
        let grid = expert_grid().experts().iter().map(|e| Value::Str(e.label())).collect();
        context.push(("expert_grid".into(), Value::Array(grid)));
        context.push(("clusters".into(), Value::UInt(m.num_clusters() as u64)));
        context.push(("clusters_requested".into(), Value::UInt(CLUSTERS as u64)));
        context
            .push(("train_s".into(), Value::Array(train_s.iter().map(|&t| Value::Float(t)).collect())));
    }
    let per_pass =
        |f: fn(&Summary) -> f64| Value::Array(summaries.iter().map(|s| Value::Float(f(s))).collect());
    context.push(("pass_rps".into(), per_pass(|s| s.rps)));
    context.push(("pass_setup_s".into(), per_pass(|s| s.setup_s)));
    context.push(("pass_boot_s".into(), per_pass(|s| s.boot_s)));
    context.push(("pass_p50_us".into(), per_pass(|s| s.p50_us)));
    context.push((
        "problems".into(),
        Value::Array(problems.iter().take(20).map(|p| Value::Str(p.clone())).collect()),
    ));

    RunOutput {
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
        context,
        problems,
    }
}

/// Fills the per-layer ledger from the traced run: pass 0 untraced, pass 1
/// with spans (and timed submits in process).
#[allow(clippy::too_many_arguments)]
fn per_layer(
    w: Workload,
    full: &Trace,
    sizes: &Sizes,
    model: Option<&Arc<DarwinModel>>,
    passes: &[Pass],
    spans: &mut SpanLog,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) {
    let cache = shard_cache();
    let reqs = full.requests();
    let (plain, traced) = (&passes[0], &passes[1]);
    let timed_n = (reqs.len() - sizes.warm) as f64;
    let model_arc = model.cloned();

    // Stage ledger: single-threaded replay of the same frames, with spans.
    let (replayed, stages) = match &model_arc {
        Some(md) => ledger::replay_spans(reqs, sizes, &cache, w.wire(), darwin_factory(md), spans),
        None => ledger::replay_spans(reqs, sizes, &cache, w.wire(), static_factory(), spans),
    };
    if let Some(bad) =
        (w != Workload::WireSaturate).then(|| mismatches(&replayed, &plain.verdicts)).filter(|&n| n > 0)
    {
        problems.push(format!("layer replay disagrees with the live pass on {bad} verdicts"));
    }
    let stage = |s: &str| stages.get(s).copied().unwrap_or(0.0);
    m.set("wire.encode_ns", stage("wire.encode"));
    m.set("wire.decode_ns", stage("wire.decode"));
    m.set("wire.verdict_encode_ns", stage("wire.verdict_encode"));
    m.set("wire.verdict_decode_ns", stage("wire.verdict_decode"));
    m.set("shard.route_ns", stage("shard.route"));
    m.set("shard.queue_ns", stage("shard.queue"));
    let stage_sum: f64 = stages.values().sum();
    m.set("ledger.stage_sum_ns", stage_sum);
    let cpu_ns = plain.cpu.as_secs_f64() * 1e9 / timed_n;
    m.set("ledger.cpu_ns", cpu_ns);
    m.set("gateway.residual_ns", cpu_ns - stage_sum);
    let frames =
        (sizes.warm.div_ceil(sizes.frame) + (reqs.len() - sizes.warm).div_ceil(sizes.frame)) as f64;
    let wire_bytes = if w.wire() {
        (reqs.len() * darwin_gateway::wire::GET_RECORD_LEN) as f64
            + reqs.len() as f64
            + 2.0 * frames * darwin_gateway::wire::HEADER_LEN as f64
    } else {
        0.0
    };
    m.set("wire.bytes_per_req", wire_bytes / reqs.len() as f64);
    if w.wire() && plain.wire_bytes as f64 != wire_bytes {
        problems.push(format!("client moved {} bytes, expected {wire_bytes}", plain.wire_bytes));
    }

    // In-situ counters and histograms the fleet and gateway export.
    let fm = &plain.metrics;
    let gw = fm.gateway.unwrap_or_default();
    m.set("gateway.frames_in", gw.frames_in as f64);
    m.set("gateway.verdicts_out", gw.verdicts_out as f64);
    let mut lat = darwin_obs::LatencySnapshot::default();
    for s in &fm.shards {
        if let Some(l) = &s.latency {
            lat.merge(l);
        }
    }
    m.set("shard.serve_p50_ns", lat.serve.quantile(50.0) as f64);
    m.set("shard.push_block_p99_us", lat.queue_wait.quantile(99.0) as f64 / 1e3);
    m.set("ckpt.pause_p99_us", lat.ckpt_pause.quantile(99.0) as f64 / 1e3);
    m.set("shard.queue_high_water", fm.max_queue_high_water() as f64);
    m.set("standby.shipped_bytes", fm.total_replica_shipped_bytes() as f64);
    m.set("obs.journal_events", fm.shards.iter().map(|s| s.events.len()).sum::<usize>() as f64);
    m.set("obs.events_dropped", fm.shards.iter().map(|s| s.events_dropped).sum::<u64>() as f64);
    let c = fm.fleet_cache();
    m.set("cache.hoc_hits", c.hoc_hits as f64);
    m.set("cache.dc_hits", c.dc_hits as f64);
    m.set("cache.origin_fetches", c.origin_fetches as f64);
    m.set("cache.hoc_evictions", c.hoc_evictions as f64);
    m.set("cache.dc_writes", c.dc_writes as f64);
    m.set("cache.hits_per_promotion", c.hoc_hits as f64 / c.hoc_writes.max(1) as f64);
    let tally = Tally::of(&plain.verdicts);
    if tally.hoc != c.hoc_hits {
        problems.push(format!("client counted {} HOC hits, the fleet {}", tally.hoc, c.hoc_hits));
    }

    // Cache and controller, per call.
    // The static replay is the baseline the controller's overhead is taken
    // against; without a controller it is the workload's own replay.
    let fixed = ledger::split_replay(reqs, sizes, &cache, static_factory(), true);
    let split = match &model_arc {
        Some(md) => ledger::split_replay(reqs, sizes, &cache, darwin_factory(md), true),
        None => fixed.clone(),
    };
    m.set("cache.process_ns", split.process_ns);
    m.set("cache.hoc_hit_ns", split.by_outcome_ns[0]);
    m.set("cache.dc_hit_ns", split.by_outcome_ns[1]);
    m.set("cache.miss_ns", split.by_outcome_ns[2]);
    m.set("core.observe_ns", split.observe_ns);
    m.set("core.static_observe_ns", fixed.observe_ns);
    let overhead = split.observe_ns - fixed.observe_ns;
    m.set("core.overhead_ns", overhead);
    m.set("core.budget_frac", overhead / CONTROLLER_BUDGET_NS);
    m.set("core.static_ohr", ledger::best_static_ohr(reqs, sizes, &cache));
    m.set("ckpt.cut_us", split.cut_us);
    m.set("ckpt.frame_bytes", split.frame_bytes);
    m.set("ckpt.delta_us", split.delta_us);
    m.set("ckpt.delta_bytes", split.delta_bytes);
    m.set("ckpt.ns_per_req", split.cut_us * 1e3 / sizes.checkpoint_every as f64);
    m.set("features.observe_ns", ledger::features_observe_ns(&reqs[sizes.warm..]));
    m.set("obs.record_ns", ledger::obs_record_ns());
    match model {
        Some(md) => {
            m.set("core.darwin_ohr", split.ohr);
            m.set("nn.predict_ns", ledger::nn_predict_ns(md, reqs));
            m.set("bandit.observe_ns", ledger::bandit_round_ns(md, reqs));
            let (mut rounds, mut switches, mut epochs) = (0usize, 0usize, 0usize);
            let factory = darwin_factory(model_arc.as_ref().expect("model present"));
            for run in darwin_shard::run_sequential(
                SHARDS,
                cache.clone(),
                &darwin_shard::HashRouter,
                factory,
                full,
            ) {
                let ctl = run.driver.controller();
                rounds += ctl.epochs().iter().map(|e| e.identify_rounds).sum::<usize>();
                switches += ctl.switches().len();
                epochs += ctl.epochs().len();
            }
            m.set("core.rounds", rounds as f64);
            m.set("core.switches", switches as f64);
            m.set("core.epochs", epochs as f64);
        }
        None => {
            for k in [
                "core.darwin_ohr",
                "nn.predict_ns",
                "bandit.observe_ns",
                "core.rounds",
                "core.switches",
                "core.epochs",
            ] {
                m.set(k, 0.0);
            }
        }
    }

    // Submit cost on the producer side: in situ in process; over the wire
    // the gateway submits internally, so an in-process pass of the same
    // frames and driver stands in.
    let submit_pass = match (w, &model_arc) {
        (Workload::InprocDarwin, _) => None,
        (_, Some(md)) => Some(inproc_pass(
            reqs,
            sizes,
            fleet_config(None, 0),
            darwin_factory(md),
            Board::leak(reqs.len(), sizes.frame),
            true,
        )),
        (_, None) => Some(inproc_pass(
            reqs,
            sizes,
            fleet_config(None, 0),
            static_factory(),
            Board::leak(reqs.len(), sizes.frame),
            true,
        )),
    };
    let submit = submit_pass.as_ref().unwrap_or(traced).submit;
    m.set("shard.submit_ns", submit.as_nanos() as f64 / timed_n);

    // Transport floor, tails, generator lateness and tracing overhead.
    let frame_bytes =
        darwin_gateway::wire::HEADER_LEN + sizes.frame * darwin_gateway::wire::GET_RECORD_LEN;
    m.set("net.echo_p50_us", crate::client::echo_p50_us(frame_bytes, 2_000).unwrap_or(0.0));
    m.set("lat.p90_us", ledger::latency_us(plain, 90.0));
    m.set("lat.p99_us", ledger::latency_us(plain, 99.0));
    m.set("lat.p999_us", ledger::latency_us(plain, 99.9));
    let mut late = plain.late_ns.clone();
    late.sort_unstable();
    m.set("gen.late_p99_us", crate::sys::percentile_sorted(&late, 99.0) as f64 / 1e3);
    m.set("trace.overhead_frac", traced.timed.as_secs_f64() / plain.timed.as_secs_f64() - 1.0);
}
