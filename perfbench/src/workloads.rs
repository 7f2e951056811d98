//! One pass of a workload against the real stack: set up (boot, connect,
//! warm the caches), run the timed phase, tear down, and check the ledger.

use crate::client::{closed_loop, open_loop, Conn};
use crate::inputs::{shard_cache, Sizes, SHARDS};
use crate::spans::SpanLog;
use crate::sys::process_cpu;
use darwin_gateway::{Gateway, VerdictOutcome, WireVerdict};
use darwin_shard::{
    Backpressure, Envelope, FleetConfig, FleetMetrics, HashRouter, MetricsHandle, ShardedFleet, Verdict,
};
use darwin_testbed::AdmissionDriver;
use darwin_trace::Request;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// What one pass measured and found.
#[derive(Debug)]
pub struct Pass {
    /// Boot + connect wall time (fleet or gateway up, clients connected).
    pub boot: Duration,
    /// Boot + connect + warm-up wall time.
    pub setup: Duration,
    /// Timed-phase wall time (open loop: schedule start to the last reply).
    pub timed: Duration,
    /// Process CPU time over the timed phase.
    pub cpu: Duration,
    /// Verdict byte of every request of the pass, in submission order
    /// (`UNANSWERED` where none came back).
    pub verdicts: Vec<u8>,
    /// Timed-phase latency samples, ns.
    pub latency_ns: Vec<u64>,
    /// Open-loop generator lateness per frame, ns (empty for closed loops).
    pub late_ns: Vec<u64>,
    /// Fleet (and gateway) metrics at the end of the timed phase.
    pub metrics: FleetMetrics,
    /// Ledger or transport problems found.
    pub problems: Vec<String>,
    /// Requests those problems affect.
    pub failed: u64,
    /// Bytes on the wire, both directions (0 in process).
    pub wire_bytes: u64,
    /// Producer-side `submit_frame` time over the timed phase (in process).
    pub submit: Duration,
}

/// Verdict byte of a request no answer came back for (no valid verdict
/// byte has bit 7 set).
pub const UNANSWERED: u8 = 0xFF;

/// Fleet shape shared by the workloads.
pub fn fleet_config(checkpoint_every: Option<u64>, replicas: usize) -> FleetConfig {
    FleetConfig {
        shards: SHARDS,
        queue_capacity: 8192,
        batch: 256,
        backpressure: Backpressure::Block,
        checkpoint_every,
        replicas,
        ..FleetConfig::default()
    }
}

/// One connection's verdicts (in its frame order) and round trips.
type ConnOutcome = Result<(Vec<u8>, Vec<u64>), String>;

/// Sends `frames` round-robin over `conns` (frame `g` on connection
/// `g % conns`), each connection on its own thread with a closed-loop
/// window. Returns the verdicts in frame order and every round trip.
fn spread(
    conns: &mut [Conn],
    frames: &[&[Request]],
    window: usize,
    first_id: u32,
    spans: Option<&mut SpanLog>,
) -> Result<(Vec<u8>, Vec<u64>), String> {
    let c = conns.len();
    let mut forks: Vec<Option<SpanLog>> =
        conns.iter().map(|_| spans.as_ref().map(|l| l.fork())).collect();
    let per_conn: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(forks.iter_mut())
            .enumerate()
            .map(|(i, (conn, fork))| {
                let mine: Vec<&[Request]> = frames.iter().skip(i).step_by(c).copied().collect();
                scope.spawn(move || {
                    let mut v = Vec::with_capacity(mine.iter().map(|f| f.len()).sum());
                    let log = fork.as_mut().map(|l| (l, first_id + i as u32, c as u32));
                    let rtt = closed_loop(conn, &mine, window, &mut v, log)?;
                    Ok((v, rtt))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".into())))
            .collect()
    });
    if let Some(log) = spans {
        for fork in forks.into_iter().flatten() {
            log.absorb(fork);
        }
    }
    let mut lists = Vec::with_capacity(c);
    let mut rtts = Vec::new();
    for r in per_conn {
        let (v, rtt) = r?;
        lists.push(v);
        rtts.extend(rtt);
    }
    let mut cursors = vec![0usize; c];
    let mut out = Vec::with_capacity(frames.iter().map(|f| f.len()).sum());
    for (g, f) in frames.iter().enumerate() {
        let (list, at) = (&lists[g % c], &mut cursors[g % c]);
        out.extend_from_slice(&list[*at..*at + f.len()]);
        *at += f.len();
    }
    Ok((out, rtts))
}

/// Counts of each outcome in a run of verdict bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// HOC hits.
    pub hoc: u64,
    /// DC hits.
    pub dc: u64,
    /// Origin fetches.
    pub origin: u64,
    /// Anything not processed (dropped, unavailable, busy, unanswered).
    pub unserved: u64,
}

impl Tally {
    /// Tallies verdict bytes.
    pub fn of(verdicts: &[u8]) -> Tally {
        let mut t = Tally::default();
        for &b in verdicts {
            match WireVerdict::from_byte(b).map(|v| v.outcome) {
                Ok(VerdictOutcome::HocHit) => t.hoc += 1,
                Ok(VerdictOutcome::DcHit) => t.dc += 1,
                Ok(VerdictOutcome::OriginFetch) => t.origin += 1,
                _ => t.unserved += 1,
            }
        }
        t
    }
}

/// One pass over the loopback gateway. `conns` closed-loop connections
/// share the frames round-robin; with `open_rate`, a single connection
/// replays the timed phase open loop at that rate instead.
pub fn wire_pass<D: AdmissionDriver + Send + 'static>(
    reqs: &[Request],
    sizes: &Sizes,
    cfg: FleetConfig,
    conns: usize,
    open_rate: Option<f64>,
    factory: impl FnMut(usize) -> D + Send + 'static,
    spans: Option<&mut SpanLog>,
) -> Pass {
    let t_setup = Instant::now();
    let gateway = Gateway::bind("127.0.0.1:0", cfg, shard_cache(), Box::new(HashRouter), factory)
        .expect("bind a loopback gateway");
    let addr = gateway.local_addr();
    let mut clients: Vec<Conn> =
        (0..conns).map(|_| Conn::connect(addr).expect("connect to the gateway")).collect();
    let boot = t_setup.elapsed();
    let warm: Vec<&[Request]> = reqs[..sizes.warm].chunks(sizes.frame).collect();
    let timed: Vec<&[Request]> = reqs[sizes.warm..].chunks(sizes.frame).collect();
    let mut problems = Vec::new();
    let mut verdicts = Vec::with_capacity(reqs.len());
    match spread(&mut clients, &warm, sizes.window, 0, None) {
        Ok((v, _)) => verdicts.extend(v),
        Err(e) => problems.push(format!("warm-up: {e}")),
    }
    let setup = t_setup.elapsed();

    let (t0, cpu0) = (Instant::now(), process_cpu());
    let (mut latency_ns, mut late_ns, mut timed_wall) = (Vec::new(), Vec::new(), None);
    if problems.is_empty() {
        match open_rate {
            Some(rate) => match open_loop(&mut clients[0], &timed, rate, &mut verdicts) {
                Ok(o) => {
                    latency_ns = o.latency_ns;
                    late_ns = o.late_ns;
                    timed_wall = Some(o.elapsed);
                }
                Err(e) => problems.push(format!("open loop: {e}")),
            },
            None => match spread(&mut clients, &timed, sizes.window, warm.len() as u32, spans) {
                Ok((v, rtt)) => {
                    verdicts.extend(v);
                    latency_ns = rtt;
                }
                Err(e) => problems.push(format!("closed loop: {e}")),
            },
        }
    }
    let (cpu, wall) = (process_cpu() - cpu0, t0.elapsed());
    let wire_bytes = clients.iter().map(|c| c.bytes_out + c.bytes_in()).sum();
    drop(clients);
    // Connections fold their writer counters into the gateway's when they
    // close, so read the counters once every connection has.
    let closing = Instant::now();
    let mut metrics = gateway.metrics();
    while metrics.gateway.is_some_and(|g| g.connections_active > 0)
        && closing.elapsed() < Duration::from_secs(10)
    {
        std::thread::sleep(Duration::from_millis(1));
        metrics = gateway.metrics();
    }
    gateway.shutdown();
    let report = gateway.finish();

    // Exactly-once ledger: one answer per request, and the client's tallies
    // equal the fleet's and the gateway's own counts.
    let n = reqs.len() as u64;
    verdicts.resize(reqs.len(), UNANSWERED);
    let tally = Tally::of(&verdicts);
    let mut failed = tally.unserved;
    match report {
        Ok(r) => {
            let accounted =
                r.total_processed() + r.total_dropped() + r.total_unavailable() + r.total_shed();
            if accounted != n {
                problems.push(format!("fleet ledger accounts for {accounted} of {n} requests"));
                failed = failed.max(accounted.abs_diff(n));
            }
            let c = r.fleet_cache();
            if (c.hoc_hits, c.dc_hits, c.origin_fetches) != (tally.hoc, tally.dc, tally.origin) {
                problems.push(format!(
                    "client tallies {:?} differ from the fleet's hoc/dc/origin {}/{}/{}",
                    tally, c.hoc_hits, c.dc_hits, c.origin_fetches
                ));
                failed = failed.max(c.hoc_hits.abs_diff(tally.hoc) + c.dc_hits.abs_diff(tally.dc));
            }
        }
        Err(e) => problems.push(format!("gateway finish: {e}")),
    }
    let frames = (warm.len() + timed.len()) as u64;
    match metrics.gateway {
        Some(g) if g.frames_in == frames && g.requests_in == n && g.verdicts_out == n => {}
        g => problems
            .push(format!("gateway counters {g:?} disagree with {frames} frames / {n} requests sent")),
    }
    if tally.unserved > 0 {
        problems.push(format!("{} requests were not served", tally.unserved));
    }
    Pass {
        boot,
        setup,
        timed: timed_wall.unwrap_or(wall),
        cpu,
        verdicts,
        latency_ns,
        late_ns,
        metrics,
        problems,
        failed,
        wire_bytes,
        submit: Duration::ZERO,
    }
}

/// Requests sampled for in-process latency: every `SAMPLE`-th.
const SAMPLE: usize = 16;

/// Where in-process envelopes deliver their verdicts: one slot per request,
/// plus submit/complete stamps for sampled requests. Allocated once per run
/// and reused by every pass, so an envelope carries a plain reference
/// instead of a reference-counted handle.
pub struct Board {
    epoch: Instant,
    verdicts: Vec<AtomicU8>,
    sent_ns: Vec<AtomicU64>,
    done_ns: Vec<AtomicU64>,
}

impl Board {
    /// A board for passes of up to `requests` requests in frames of `frame`.
    pub fn leak(requests: usize, frame: usize) -> &'static Board {
        Box::leak(Box::new(Board {
            epoch: Instant::now(),
            verdicts: (0..requests).map(|_| AtomicU8::new(UNANSWERED)).collect(),
            sent_ns: (0..requests.div_ceil(frame)).map(|_| AtomicU64::new(0)).collect(),
            done_ns: (0..requests.div_ceil(SAMPLE)).map(|_| AtomicU64::new(0)).collect(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// An in-process queue item: the request and its verdict slot.
struct Slot {
    req: Request,
    idx: u32,
    board: &'static Board,
}

impl Envelope for Slot {
    fn request(&self) -> &Request {
        &self.req
    }
    fn complete(self, verdict: Verdict) {
        let i = self.idx as usize;
        self.board.verdicts[i].store(WireVerdict::from(verdict).to_byte(), Ordering::Relaxed);
        if i.is_multiple_of(SAMPLE) {
            self.board.done_ns[i / SAMPLE].store(self.board.now_ns(), Ordering::Relaxed);
        }
    }
}

/// Requests the fleet has answered one way or another.
fn accounted(handle: &MetricsHandle) -> u64 {
    handle.cells().iter().map(|c| c.processed_total() + c.dropped() + c.unavailable() + c.shed()).sum()
}

/// Waits until the fleet has answered `target` requests, or gives up after
/// a minute so a stuck fleet fails the run instead of hanging it.
fn wait_answered(handle: &MetricsHandle, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while accounted(handle) < target && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// One in-process pass: a single producer drives `submit_frame` into the
/// fleet with blocking backpressure.
pub fn inproc_pass<D: AdmissionDriver + Send + 'static>(
    reqs: &[Request],
    sizes: &Sizes,
    cfg: FleetConfig,
    factory: impl FnMut(usize) -> D + Send + 'static,
    board: &'static Board,
    time_submits: bool,
) -> Pass {
    assert!(reqs.len() <= board.verdicts.len(), "board too small for the pass");
    for v in &board.verdicts[..reqs.len()] {
        v.store(UNANSWERED, Ordering::Relaxed);
    }
    let t_setup = Instant::now();
    let fleet: ShardedFleet<D, Slot> =
        ShardedFleet::new(cfg, shard_cache(), Box::new(HashRouter), factory);
    let handle = fleet.metrics_handle();
    let mut producer = fleet.ingest().producer();
    let boot = t_setup.elapsed();
    let mut base = 0usize;
    for frame in reqs[..sizes.warm].chunks(sizes.frame) {
        producer.submit_frame(frame.iter().enumerate().map(|(j, r)| Slot {
            req: *r,
            idx: (base + j) as u32,
            board,
        }));
        base += frame.len();
    }
    wait_answered(&handle, sizes.warm as u64);
    let setup = t_setup.elapsed();

    let (t0, cpu0) = (Instant::now(), process_cpu());
    let mut submit = Duration::ZERO;
    for (k, frame) in reqs[sizes.warm..].chunks(sizes.frame).enumerate() {
        board.sent_ns[k].store(board.now_ns(), Ordering::Relaxed);
        let t = time_submits.then(Instant::now);
        producer.submit_frame(frame.iter().enumerate().map(|(j, r)| Slot {
            req: *r,
            idx: (base + j) as u32,
            board,
        }));
        if let Some(t) = t {
            submit += t.elapsed();
        }
        base += frame.len();
    }
    wait_answered(&handle, reqs.len() as u64);
    let (timed, cpu) = (t0.elapsed(), process_cpu() - cpu0);
    let metrics = handle.snapshot();
    drop(producer);
    let report = fleet.finish();

    let verdicts: Vec<u8> =
        board.verdicts[..reqs.len()].iter().map(|v| v.load(Ordering::Relaxed)).collect();
    let tally = Tally::of(&verdicts);
    let mut problems = Vec::new();
    let n = reqs.len() as u64;
    if report.total_processed() != n || tally.unserved > 0 {
        problems.push(format!(
            "fleet processed {} of {n} requests; {} left unanswered",
            report.total_processed(),
            tally.unserved
        ));
    }
    let latency_ns = (sizes.warm..reqs.len())
        .filter(|i| i.is_multiple_of(SAMPLE))
        .map(|i| {
            let sent = board.sent_ns[(i - sizes.warm) / sizes.frame].load(Ordering::Relaxed);
            board.done_ns[i / SAMPLE].load(Ordering::Relaxed).saturating_sub(sent)
        })
        .collect();
    Pass {
        boot,
        setup,
        timed,
        cpu,
        verdicts,
        latency_ns,
        late_ns: Vec::new(),
        metrics,
        failed: tally.unserved.max(n.abs_diff(report.total_processed())),
        problems,
        wire_bytes: 0,
        submit,
    }
}
