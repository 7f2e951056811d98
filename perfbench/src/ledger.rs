//! The traced run's per-layer ledger.
//!
//! Every number here is taken from the benchmark's own files, around calls
//! into the public functions of each layer, or read from the counters and
//! histograms the fleet and gateway already export. Nothing is traced inside
//! the program.
//!
//! * [`replay_spans`] replays the pass's timed frames single-threaded
//!   through the same layers the live path crosses (wire decode → route →
//!   queue → serve → verdict encode/decode), one span per stage per frame;
//!   self times summed by name give the per-request stage ledger.
//! * [`split_replay`] times `CacheServer::process` and
//!   `AdmissionDriver::observe` per request (split by outcome) and cuts
//!   checkpoints at two consecutive boundaries.
//! * The micro functions time one layer's public entry point in a loop.

use crate::inputs::{expert_grid, Sizes, SHARDS};
use crate::spans::{SpanLog, ROOT};
use crate::sys::{median, percentile_sorted};
use crate::workloads::Pass;
use darwin::DarwinModel;
use darwin_bandit::{TasConfig, TrackAndStopSideInfo};
use darwin_cache::{CacheConfig, CacheServer, RequestOutcome, ThresholdPolicy};
use darwin_ckpt::delta::DeltaFrame;
use darwin_features::FeatureExtractor;
use darwin_gateway::wire::{decode, encode, encode_get};
use darwin_gateway::{Message, WireVerdict};
use darwin_obs::Histogram;
use darwin_shard::{channel, HashRouter, Router, ShardCheckpoint, Verdict};
use darwin_testbed::{AdmissionDriver, StaticDriver};
use darwin_trace::Request;
use std::collections::BTreeMap;
use std::time::Instant;

/// Stage spans [`replay_spans`] records, in path order.
pub const STAGES: [&str; 7] = [
    "wire.encode",
    "wire.decode",
    "shard.route",
    "shard.queue",
    "shard.serve",
    "wire.verdict_encode",
    "wire.verdict_decode",
];

/// Replays the pass single-threaded with one span per stage per timed
/// frame (frame ids match the live client's). Without `wire`, the wire
/// stages are skipped. Returns every request's verdict byte and the stage
/// self times in ns per timed request.
pub fn replay_spans<D: AdmissionDriver>(
    reqs: &[Request],
    sizes: &Sizes,
    cache: &CacheConfig,
    wire: bool,
    factory: impl Fn(usize) -> D,
    log: &mut SpanLog,
) -> (Vec<u8>, BTreeMap<&'static str, f64>) {
    let mut servers: Vec<(CacheServer, D)> = (0..SHARDS)
        .map(|s| {
            let mut d = factory(s);
            let mut server = CacheServer::new(cache.clone());
            server.set_policy(d.initial_policy());
            (server, d)
        })
        .collect();
    let serve = |server: &mut CacheServer, driver: &mut D, s: usize, req: &Request| {
        let writes = server.metrics().hoc_writes;
        let outcome = server.process(req);
        let metrics = server.metrics();
        if let Some(p) = driver.observe(req, &metrics) {
            server.set_policy(p);
        }
        WireVerdict::from(Verdict { shard: s, outcome, admitted: metrics.hoc_writes > writes })
    };
    let mut verdicts = Vec::with_capacity(reqs.len());
    for req in &reqs[..sizes.warm] {
        let s = HashRouter.route(req.id, SHARDS);
        let (server, driver) = &mut servers[s];
        verdicts.push(serve(server, driver, s, req).to_byte());
    }
    let lanes: Vec<_> = (0..SHARDS).map(|_| channel::<Request>(sizes.frame.max(1))).collect();
    let mut runs: Vec<Vec<Request>> = (0..SHARDS).map(|_| Vec::with_capacity(sizes.frame)).collect();
    let mut slots: Vec<Vec<usize>> = (0..SHARDS).map(|_| Vec::with_capacity(sizes.frame)).collect();
    let mut popped: Vec<Vec<Request>> = (0..SHARDS).map(|_| Vec::with_capacity(sizes.frame)).collect();
    let (mut get, mut reply) = (Vec::new(), Vec::new());
    let first_frame = sizes.warm.div_ceil(sizes.frame) as u32;
    for (k, frame) in reqs[sizes.warm..].chunks(sizes.frame).enumerate() {
        let id = first_frame + k as u32;
        let root = log.open("replay", ROOT, id);
        let records: Vec<Request> = if wire {
            log.time("wire.encode", root, id, || {
                get.clear();
                encode_get(frame, &mut get);
            });
            log.time("wire.decode", root, id, || match decode(&get) {
                Ok(Some((Message::Get(records), _))) => records,
                other => panic!("GET frame failed to decode: {other:?}"),
            })
        } else {
            frame.to_vec()
        };
        log.time("shard.route", root, id, || {
            for (pos, r) in records.iter().enumerate() {
                let s = HashRouter.route(r.id, SHARDS);
                runs[s].push(*r);
                slots[s].push(pos);
            }
        });
        log.time("shard.queue", root, id, || {
            for (s, (tx, rx)) in lanes.iter().enumerate() {
                tx.push_batch(&mut runs[s]);
                rx.pop_batch(&mut popped[s], sizes.frame);
            }
        });
        let mut out = vec![WireVerdict::DROPPED; records.len()];
        log.time("shard.serve", root, id, || {
            for s in 0..SHARDS {
                let (server, driver) = &mut servers[s];
                for (req, &pos) in popped[s].iter().zip(&slots[s]) {
                    out[pos] = serve(server, driver, s, req);
                }
                popped[s].clear();
                slots[s].clear();
            }
        });
        if wire {
            let msg = Message::Verdicts(out);
            log.time("wire.verdict_encode", root, id, || {
                reply.clear();
                encode(&msg, &mut reply);
            });
            let back = log.time("wire.verdict_decode", root, id, || match decode(&reply) {
                Ok(Some((Message::Verdicts(vs), _))) => vs,
                other => panic!("VERDICTS frame failed to decode: {other:?}"),
            });
            verdicts.extend(back.iter().map(|v| v.to_byte()));
        } else {
            verdicts.extend(out.iter().map(|v| v.to_byte()));
        }
        log.close(root);
    }
    let timed = (reqs.len() - sizes.warm).max(1) as f64;
    let selfs = log.self_times();
    let ledger = STAGES.iter().filter_map(|&s| selfs.get(s).map(|&ns| (s, ns as f64 / timed))).collect();
    (verdicts, ledger)
}

/// What [`split_replay`] measured.
#[derive(Debug, Default, Clone)]
pub struct Split {
    /// Mean `CacheServer::process` ns over timed requests.
    pub process_ns: f64,
    /// The same, for HOC hits / DC hits / origin fetches.
    pub by_outcome_ns: [f64; 3],
    /// Mean `AdmissionDriver::observe` ns over timed requests.
    pub observe_ns: f64,
    /// HOC hit ratio over the timed requests.
    pub ohr: f64,
    /// Checkpoint cut (cache + driver state + frame), µs, median of both cuts.
    pub cut_us: f64,
    /// Sealed checkpoint frame size, bytes.
    pub frame_bytes: f64,
    /// `DeltaFrame::compute` between consecutive cuts, µs.
    pub delta_us: f64,
    /// Delta payload size, bytes.
    pub delta_bytes: f64,
}

/// The cost of one `Instant::now()` read, ns (subtracted from per-call
/// timings).
fn timer_cost_ns() -> f64 {
    let mut v: Vec<f64> = (0..2_000)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Sequential per-shard replay timing every `process` and `observe` call of
/// the timed requests, and cutting shard 0's checkpoint at two boundaries
/// `checkpoint_every` requests apart.
pub fn split_replay<D: AdmissionDriver>(
    reqs: &[Request],
    sizes: &Sizes,
    cache: &CacheConfig,
    factory: impl Fn(usize) -> D,
    timed_calls: bool,
) -> Split {
    let timer = timer_cost_ns();
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
    for (i, r) in reqs.iter().enumerate() {
        parts[HashRouter.route(r.id, SHARDS)].push(i);
    }
    let (mut by_ns, mut by_n) = ([0f64; 3], [0u64; 3]);
    let (mut observe_ns, mut hits, mut timed) = (0f64, 0u64, 0u64);
    let mut out = Split::default();
    for (s, idx) in parts.iter().enumerate() {
        let mut driver = factory(s);
        let mut policy: ThresholdPolicy = driver.initial_policy();
        let mut server = CacheServer::new(cache.clone());
        server.set_policy(policy);
        let first_cut = idx.len() / 2;
        let mut frames: Vec<(f64, Vec<u8>)> = Vec::new();
        for (n, &i) in idx.iter().enumerate() {
            let req = &reqs[i];
            let in_timed = i >= sizes.warm;
            let t0 = Instant::now();
            let outcome = server.process(req);
            let t1 = Instant::now();
            let change = driver.observe(req, &server.metrics());
            let t2 = Instant::now();
            if let Some(p) = change {
                policy = p;
                server.set_policy(p);
            }
            if in_timed {
                let k = match outcome {
                    RequestOutcome::HocHit => 0,
                    RequestOutcome::DcHit => 1,
                    RequestOutcome::OriginFetch => 2,
                };
                hits += u64::from(k == 0);
                timed += 1;
                if timed_calls {
                    by_ns[k] += ((t1 - t0).as_nanos() as f64 - timer).max(0.0);
                    by_n[k] += 1;
                    observe_ns += ((t2 - t1).as_nanos() as f64 - timer).max(0.0);
                }
            }
            let cut_here = n + 1 == first_cut || n + 1 == first_cut + sizes.checkpoint_every as usize;
            if s == 0 && timed_calls && cut_here {
                let t = Instant::now();
                let frame = ShardCheckpoint {
                    shard: s,
                    seq: (n + 1) as u64,
                    policy,
                    cache: server.save_state(),
                    driver: driver.save_state().unwrap_or_default(),
                    restarts: 0,
                    budget_marks: Vec::new(),
                }
                .to_frame();
                frames.push((t.elapsed().as_secs_f64() * 1e6, frame));
            }
        }
        if let [(a_us, a), (b_us, b)] = frames.as_slice() {
            out.cut_us = median(&[*a_us, *b_us]);
            out.frame_bytes = b.len() as f64;
            let t = Instant::now();
            let delta = DeltaFrame::compute(a, b);
            out.delta_us = t.elapsed().as_secs_f64() * 1e6;
            out.delta_bytes = delta.payload_bytes() as f64;
        }
    }
    let total_n: u64 = by_n.iter().sum();
    out.process_ns = by_ns.iter().sum::<f64>() / total_n.max(1) as f64;
    for k in 0..3 {
        out.by_outcome_ns[k] = by_ns[k] / by_n[k].max(1) as f64;
    }
    out.observe_ns = observe_ns / timed.max(1) as f64;
    out.ohr = hits as f64 / timed.max(1) as f64;
    out
}

/// Best HOC hit ratio any static expert of the grid reaches on the same
/// requests (timed part), through the same sequential replay.
pub fn best_static_ohr(reqs: &[Request], sizes: &Sizes, cache: &CacheConfig) -> f64 {
    expert_grid()
        .experts()
        .iter()
        .map(|e| split_replay(reqs, sizes, cache, |_| StaticDriver::new(e.policy), false).ohr)
        .fold(0.0, f64::max)
}

/// `FeatureExtractor::observe`, ns per request.
pub fn features_observe_ns(reqs: &[Request]) -> f64 {
    let mut fx = FeatureExtractor::paper_default();
    let t = Instant::now();
    for r in reqs {
        fx.observe(std::hint::black_box(r));
    }
    std::hint::black_box(fx.requests());
    t.elapsed().as_nanos() as f64 / reqs.len().max(1) as f64
}

/// `DarwinModel::predict_hit_rate` over every trained pair, ns per call.
pub fn nn_predict_ns(model: &DarwinModel, reqs: &[Request]) -> f64 {
    let ext = FeatureExtractor::extract_extended(&darwin_trace::Trace::from_sorted(
        reqs[..reqs.len().min(20_000)].to_vec(),
    ));
    let k = model.grid().len();
    let pairs: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| (0..k).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j && model.has_predictor(i, j))
        .collect();
    if pairs.is_empty() {
        return 0.0;
    }
    let calls = 50_000;
    let mut acc = 0.0;
    let t = Instant::now();
    for c in 0..calls {
        let (i, j) = pairs[c % pairs.len()];
        acc += model.predict_hit_rate(i, j, 0.3 + (c % 7) as f64 * 0.01, std::hint::black_box(&ext));
    }
    std::hint::black_box(acc);
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// One Track-and-Stop round (`next_arm` + `observe`) over the whole expert
/// grid with the model's side information, ns per round.
pub fn bandit_round_ns(model: &DarwinModel, reqs: &[Request]) -> f64 {
    let ext = FeatureExtractor::extract_extended(&darwin_trace::Trace::from_sorted(
        reqs[..reqs.len().min(20_000)].to_vec(),
    ));
    let set: Vec<usize> = (0..model.grid().len()).collect();
    let marginals = model.bootstrap_marginals(&set, &ext, None);
    let sigma = model.side_info(&set, &ext, &marginals, 20.0, 1e-7);
    let cfg = TasConfig { stability_rounds: None, max_rounds: 0, ..TasConfig::default() };
    let mut tas = TrackAndStopSideInfo::new(sigma, 0.05, cfg);
    let rounds = 2_000;
    let t = Instant::now();
    let mut done = 0;
    for r in 0..rounds {
        if tas.finished() {
            break;
        }
        let arm = tas.next_arm();
        let y: Vec<f64> = marginals.iter().map(|m| m + ((r * 7 + arm) % 5) as f64 * 1e-3).collect();
        tas.observe(arm, &y);
        done += 1;
    }
    t.elapsed().as_nanos() as f64 / done.max(1) as f64
}

/// `Histogram::record`, ns per call.
pub fn obs_record_ns() -> f64 {
    let h = Histogram::new();
    let n = 1_000_000u64;
    let t = Instant::now();
    for i in 0..n {
        h.record(std::hint::black_box(i.wrapping_mul(2_654_435_761) % 1_000_000));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Latency percentiles (µs) of a pass's samples.
pub fn latency_us(pass: &Pass, p: f64) -> f64 {
    let mut v = pass.latency_ns.clone();
    v.sort_unstable();
    percentile_sorted(&v, p) as f64 / 1e3
}
