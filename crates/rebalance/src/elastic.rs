//! The elastic fleet: live resizes over a generation of `ShardedFleet`s.
//!
//! An [`ElasticFleet`] owns the serving generation behind an `RwLock`:
//! submitters hold the read side (so a whole frame lands in exactly one
//! generation), a [`resize`](ElasticFleet::resize) holds the write side.
//! Because submission uses [`Backpressure::Block`](darwin_shard::Backpressure) semantics and the lock
//! hands over atomically, a resize never answers `Unavailable` and never
//! drops a request — the exactly-once conservation ledger
//! (`processed + dropped + unavailable + shed == submitted`) holds across
//! any resize sequence, which `experiments rebalance` certifies. A fleet
//! that never resizes is simply generation 0.
//!
//! Every generation boots from the one [`FleetBoot`] the fleet was built
//! with, so its fault plan and spill directory reach each of them (and the
//! [`FleetConfig`]'s replicas and shed watermark ride along the same way).
//! A fault plan applies to each generation afresh, keyed by per-shard
//! submission index *within* that generation — exactly as it would to a
//! freshly booted [`ShardedFleet`].
//!
//! A resize `N → M` walks every shard of the serving generation through the
//! one-way phase order `Serving → Draining → Transferring → Retired` (each
//! [`ShardCell`] refuses any other step), cuts every shard's final
//! [`ShardCheckpoint`] at its end-of-stream request-sequence boundary,
//! [ships](darwin_shard::ship()) each *surviving* shard's cut to the
//! successor generation as a [`ShipPurpose::Handoff`] envelope
//! (delta-compressed against the shard's last periodic checkpoint when one
//! exists), and boots
//! generation `g+1` with those frames as warm seeds. Keyspace slices that
//! *move* between shards arrive cold by design: the ring bounds them to
//! `|M−N|/max(N,M)` of the keyspace, which is exactly the bounded
//! post-resize hit-ratio dip the benchmark measures.

use darwin_cache::{CacheConfig, CacheMetrics};
use darwin_shard::{
    ship, CheckpointSlot, Envelope, EventKind, FleetBoot, FleetConfig, FleetMetrics, FleetProducer,
    GenerationSummary, MetricsHandle, Router, ShardCell, ShardCheckpoint, ShardOutcome, ShardPhase,
    ShardedFleet, ShipError, ShipPurpose,
};
use darwin_testbed::AdmissionDriver;
use darwin_trace::Request;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Factory shared across generations: every resize mints the new
/// generation's drivers from the same closure.
type DriverFactory<D> = Arc<Mutex<Box<dyn FnMut(usize) -> D + Send>>>;

/// The serving generation.
struct GenLive<D: AdmissionDriver + Send + 'static, E: Envelope> {
    fleet: Option<ShardedFleet<D, E>>,
    handle: MetricsHandle,
    generation: u32,
    shards: usize,
}

/// What one shard's handoff shipped at a cutover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferStat {
    /// Shard index (same in source and destination generation).
    pub shard: usize,
    /// Generation drained.
    pub from_generation: u32,
    /// Generation booted.
    pub to_generation: u32,
    /// Request-sequence boundary of the final cut.
    pub seq: u64,
    /// Size of the full sealed checkpoint frame.
    pub full_bytes: u64,
    /// Bytes actually shipped in the transfer envelope payload.
    pub shipped_bytes: u64,
    /// True when the payload was a delta against a pre-copied base.
    pub delta: bool,
}

/// Final accounting for a fleet's whole life.
#[derive(Debug)]
pub struct ElasticReport<D> {
    /// The serving generation's per-shard outcomes at finish, drivers
    /// included — for a fleet that never resized, the whole run's.
    pub shards: Vec<ShardOutcome<D>>,
    /// Per-shard-id metrics merged across every generation, with the
    /// per-generation ledger attached.
    pub metrics: FleetMetrics,
    /// Transfer envelopes shipped by every resize, in order.
    pub transfers: Vec<TransferStat>,
    /// Requests submitted across the fleet's whole life.
    pub submitted: u64,
}

impl<D> ElasticReport<D> {
    /// The exactly-once conservation ledger.
    pub fn conserved(&self) -> bool {
        self.total_processed() + self.total_dropped() + self.total_unavailable() + self.total_shed()
            == self.submitted
    }

    /// Fleet-wide cache metrics over every generation.
    pub fn fleet_cache(&self) -> CacheMetrics {
        self.metrics.fleet_cache()
    }

    /// Requests processed over every generation.
    pub fn total_processed(&self) -> u64 {
        self.metrics.total_processed()
    }

    /// Requests dropped over every generation.
    pub fn total_dropped(&self) -> u64 {
        self.metrics.total_dropped()
    }

    /// Requests answered `Unavailable` over every generation.
    pub fn total_unavailable(&self) -> u64 {
        self.metrics.total_unavailable()
    }

    /// Requests shed `Busy` at shard watermarks over every generation.
    pub fn total_shed(&self) -> u64 {
        self.metrics.total_shed()
    }

    /// Restarts granted over every generation (warm and cold together).
    pub fn total_restarts(&self) -> u32 {
        self.metrics.total_restarts()
    }

    /// Restarts that resumed warm from a checkpoint, over every generation.
    pub fn total_warm_restarts(&self) -> u32 {
        self.metrics.total_warm_restarts()
    }

    /// Shards of the serving generation that were dead at finish.
    pub fn dead_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.dead).count()
    }
}

/// A fleet whose shard count can change under load. See the module docs.
///
/// Generic over the queue [`Envelope`] exactly like [`ShardedFleet`]: the
/// benchmark drives it with bare [`Request`]s (the default), the gateway
/// with its reply-routing envelopes.
pub struct ElasticFleet<D: AdmissionDriver + Send + 'static, E: Envelope = Request> {
    state: RwLock<GenLive<D, E>>,
    factory: DriverFactory<D>,
    cfg: FleetConfig,
    cache: CacheConfig,
    router: Arc<dyn Router>,
    /// How generation 0 booted; every successor boots from it too, with
    /// its handoff seeds in place of the start mode.
    boot: FleetBoot,
    submitted: AtomicU64,
    /// Retired generations: exact post-drain snapshots, their ledger rows,
    /// and every transfer shipped.
    archive: Mutex<Archive>,
}

#[derive(Default)]
struct Archive {
    metrics: Vec<FleetMetrics>,
    generations: Vec<GenerationSummary>,
    transfers: Vec<TransferStat>,
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> ElasticFleet<D, E> {
    /// Boots generation 0 with `cfg.shards` shards routed by `router`, as
    /// `boot` describes: cold, or (with `warm_boot` and a checkpoint
    /// directory) warm from each shard's spill file — the cross-process
    /// warm-boot path.
    pub fn new(
        cfg: FleetConfig,
        cache: CacheConfig,
        router: Box<dyn Router>,
        factory: impl FnMut(usize) -> D + Send + 'static,
        boot: FleetBoot,
    ) -> Self {
        let router: Arc<dyn Router> = Arc::from(router);
        let factory: DriverFactory<D> = Arc::new(Mutex::new(Box::new(factory)));
        let gen0 = Self::launch(cfg, &cache, &router, &factory, boot.clone());
        Self {
            state: RwLock::new(gen0),
            factory,
            cfg,
            cache,
            router,
            boot,
            submitted: AtomicU64::new(0),
            archive: Mutex::new(Archive::default()),
        }
    }

    /// Boots one generation: `cfg.shards` shards, booted as `boot` says.
    fn launch(
        cfg: FleetConfig,
        cache: &CacheConfig,
        router: &Arc<dyn Router>,
        factory: &DriverFactory<D>,
        boot: FleetBoot,
    ) -> GenLive<D, E> {
        let generation = boot.generation;
        let fleet = ShardedFleet::with_boot(
            cfg,
            cache.clone(),
            Box::new(Arc::clone(router)),
            mint(factory),
            boot,
        );
        GenLive { handle: fleet.metrics_handle(), fleet: Some(fleet), generation, shards: cfg.shards }
    }

    /// Current router generation.
    pub fn generation(&self) -> u32 {
        self.state.read().expect("elastic state poisoned").generation
    }

    /// Current shard count.
    pub fn shards(&self) -> usize {
        self.state.read().expect("elastic state poisoned").shards
    }

    /// Requests submitted so far, across every generation.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Metrics handle for the *serving* generation — live cells, journals
    /// and drain phases. A resize retires the cells behind a previously
    /// returned handle (their journals stay readable); grab a fresh handle
    /// after every cutover.
    pub fn metrics_handle(&self) -> MetricsHandle {
        self.state.read().expect("elastic state poisoned").handle.clone()
    }

    /// An ingest front that lives across generations — one per submitting
    /// thread or connection. See [`ElasticProducer`].
    pub fn producer(&self) -> ElasticProducer<'_, D, E> {
        ElasticProducer { fleet: self, serving: None }
    }

    /// Routes one frame of requests into the serving generation through a
    /// one-off [`producer`](Self::producer).
    pub fn submit_frame(&self, reqs: impl IntoIterator<Item = E>) {
        self.producer().submit_frame(reqs);
    }

    /// Live metrics: the serving generation merged with every retired one,
    /// ledger rows attached.
    pub fn metrics(&self) -> FleetMetrics {
        let st = self.state.read().expect("elastic state poisoned");
        let live = st.handle.snapshot();
        drop(st);
        self.merged(live)
    }

    fn merged(&self, live: FleetMetrics) -> FleetMetrics {
        let archive = self.archive.lock().expect("archive poisoned");
        let mut merged = archive.metrics.iter().cloned().fold(live, |acc, retired| acc.merge(retired));
        let mut generations = archive.generations.clone();
        merged.generations.clear();
        merged.generations.append(&mut generations);
        merged.generations.sort_by_key(|g| g.generation);
        merged.generations.dedup_by_key(|g| g.generation);
        merged
    }

    fn summarize(generation: u32, shards: usize, snap: &FleetMetrics) -> GenerationSummary {
        GenerationSummary {
            generation,
            shards: shards as u32,
            processed: snap.total_processed(),
            dropped: snap.total_dropped(),
            unavailable: snap.total_unavailable(),
            shed: snap.total_shed(),
            restarts: snap.total_restarts(),
            warm_restarts: snap.total_warm_restarts(),
            warm_boots: snap.total_warm_boots(),
        }
    }

    /// Resizes the fleet to `to_shards` shards: drains the serving
    /// generation through the handoff phase order, ships every surviving
    /// shard's final cut as a [`ShipPurpose::Handoff`] envelope
    /// (delta-compressed when a pre-copied base exists) and boots the next
    /// generation warm from the resolved frames. Submitters blocked on the
    /// generation lock resume against the new generation; nothing is
    /// dropped or answered `Unavailable` by the resize itself.
    pub fn resize(&self, to_shards: usize) -> Result<Vec<TransferStat>, ShipError> {
        assert!(to_shards > 0, "fleet needs at least one shard");
        let mut st = self.state.write().expect("elastic state poisoned");
        let from_shards = st.shards;
        let from_gen = st.generation;
        let to_gen = from_gen + 1;
        let fleet = st.fleet.take().expect("fleet serving");
        let slots = fleet.checkpoint_slots();
        let old_handle = st.handle.clone();

        // Serving → Draining happens inside finish_with_cut; the drivers
        // retire with their generation.
        drop(fleet.finish_with_cut(to_shards));

        let survivors = from_shards.min(to_shards);
        let mut seeds: Vec<Option<Vec<u8>>> = vec![None; to_shards];
        let mut transfers = Vec::with_capacity(survivors);
        for (s, (slot, cell)) in slots.iter().zip(old_handle.cells()).enumerate() {
            advance(cell, s, ShardPhase::Transferring)?;
            if s < survivors {
                // A shard with nothing to ship (it died before its first
                // cut) leaves its successor to boot cold.
                if let Some((stat, resolved)) = hand_off(slot, s, from_gen, to_gen)? {
                    transfers.push(stat);
                    seeds[s] = Some(resolved);
                }
            } else {
                // Retired shard: its keyspace disperses across survivors;
                // its spill must not resurrect under a later warm boot.
                slot.clear_disk();
            }
            advance(cell, s, ShardPhase::Retired)?;
        }

        // Archive the drained generation (exact: the fleet is finished).
        let snap = old_handle.snapshot();
        {
            let mut archive = self.archive.lock().expect("archive poisoned");
            archive.generations.push(Self::summarize(from_gen, from_shards, &snap));
            archive.metrics.push(snap);
            archive.transfers.extend(transfers.iter().cloned());
        }

        // Boot the successor generation warm from the resolved transfers.
        let next = Self::launch(
            FleetConfig { shards: to_shards, ..self.cfg },
            &self.cache,
            &self.router,
            &self.factory,
            FleetBoot { warm_boot: true, seeds, generation: to_gen, handoff: true, ..self.boot.clone() },
        );
        let handle = next.handle.clone();
        let journal = &handle.cells()[0].obs().journal;
        journal.record(
            0,
            EventKind::RingResize {
                from_shards: from_shards as u32,
                to_shards: to_shards as u32,
                generation: to_gen,
            },
        );
        journal.record(0, EventKind::Cutover { generation: to_gen });
        *st = next;
        Ok(transfers)
    }

    /// Drains the serving generation and closes the book. With `final_cut`
    /// set, every shard cuts a final checkpoint into the spill directory
    /// first — the artifact a successor process warm-boots from. Takes
    /// `&self`, so a fleet shared behind an `Arc` (the gateway's) finishes
    /// the same way. Panics on a second call: the fleet serves (and
    /// finishes) exactly once.
    pub fn finish(&self, final_cut: bool) -> ElasticReport<D> {
        let mut st = self.state.write().expect("elastic state poisoned");
        let fleet = st.fleet.take().expect("fleet serving");
        let report = if final_cut { fleet.finish_with_cut(st.shards) } else { fleet.finish() };
        let snap = st.handle.snapshot();
        let (generation, shards) = (st.generation, st.shards);
        drop(st);
        let transfers = {
            let mut archive = self.archive.lock().expect("archive poisoned");
            archive.generations.push(Self::summarize(generation, shards, &snap));
            archive.transfers.clone()
        };
        ElasticReport {
            shards: report.shards,
            metrics: self.merged(snap),
            transfers,
            submitted: self.submitted.load(Ordering::Relaxed),
        }
    }
}

/// One submitter's ingest front onto an [`ElasticFleet`], living across
/// generations.
///
/// It wraps the serving generation's [`FleetProducer`] and keeps its
/// per-shard staging buffers from frame to frame. For each frame it holds
/// the generation lock's read side, so the whole frame lands in exactly one
/// generation and a concurrent resize waits for it; it re-mints the inner
/// producer only when a resize has retired the generation it points into.
pub struct ElasticProducer<'a, D: AdmissionDriver + Send + 'static, E: Envelope> {
    fleet: &'a ElasticFleet<D, E>,
    /// The generation the inner producer delivers into, and the producer.
    serving: Option<(u32, FleetProducer<D, E>)>,
}

impl<D: AdmissionDriver + Send + 'static, E: Envelope> ElasticProducer<'_, D, E> {
    /// Routes one frame into the serving generation and delivers every
    /// touched shard's run with one queue operation each (see
    /// [`FleetProducer::submit_frame`]). Returns how many envelopes the
    /// frame held.
    pub fn submit_frame(&mut self, envs: impl IntoIterator<Item = E>) -> u64 {
        let st = self.fleet.state.read().expect("elastic state poisoned");
        if self.serving.as_ref().is_none_or(|(generation, _)| *generation != st.generation) {
            let fleet = st.fleet.as_ref().expect("fleet serving");
            self.serving = Some((st.generation, fleet.ingest().producer()));
        }
        let (_, producer) = self.serving.as_mut().expect("minted above");
        let n = producer.submit_frame(envs);
        self.fleet.submitted.fetch_add(n, Ordering::Relaxed);
        n
    }
}

/// Ships shard `s`'s final cut from generation `from_gen` to `to_gen` as a
/// [`ShipPurpose::Handoff`] envelope and resolves it on the receiving side.
/// Returns the transfer's ledger row and the resolved frame, or `None` when
/// the slot holds no frame that decodes as this shard's checkpoint.
fn hand_off(
    slot: &CheckpointSlot,
    s: usize,
    from_gen: u32,
    to_gen: u32,
) -> Result<Option<(TransferStat, Vec<u8>)>, ShipError> {
    // The final cut is the slot's newest valid frame. Its delta base — what
    // a real destination would have pre-copied while the source still
    // served — is the frame before it: the last periodic cut (or the seed
    // this generation booted from). Read after the cut, it depends on the
    // request stream alone, never on how far a worker had got when the
    // resize began. A base that does not decode as this shard's checkpoint
    // (a scripted corruption left it torn) is no base: the cut ships full.
    let mut candidates = slot.candidates().into_iter();
    let Some((seq, cut)) = candidates.find_map(|f| Some((cut_seq(&f, s)?, f))) else {
        return Ok(None);
    };
    let base = candidates.find(|b| *b != cut).and_then(|b| Some((cut_seq(&b, s)?, b)));
    let base = base.as_ref().map(|(base_seq, b)| (*base_seq, b.as_slice()));
    let shipped = ship(ShipPurpose::Handoff, s, to_gen, seq, &cut, base)?;
    let stat = TransferStat {
        shard: s,
        from_generation: from_gen,
        to_generation: to_gen,
        seq,
        full_bytes: cut.len() as u64,
        shipped_bytes: shipped.shipped_bytes,
        delta: shipped.delta,
    };
    Ok(Some((stat, shipped.image)))
}

/// The boundary `frame` was cut at, if it decodes as shard `s`'s checkpoint.
fn cut_seq(frame: &[u8], s: usize) -> Option<u64> {
    ShardCheckpoint::from_frame(frame).ok().filter(|c| c.shard == s).map(|c| c.seq)
}

/// Moves shard `s`'s cell one step along the handoff order.
fn advance(cell: &ShardCell, s: usize, to: ShardPhase) -> Result<(), ShipError> {
    cell.advance_phase(to).map_err(|from| ShipError::IllegalPhase { shard: s, from, to })
}

/// A per-generation driver factory borrowing the shared closure.
fn mint<D: AdmissionDriver + Send + 'static>(
    factory: &DriverFactory<D>,
) -> impl FnMut(usize) -> D + Send + 'static {
    let factory = Arc::clone(factory);
    move |s| (factory.lock().expect("driver factory poisoned"))(s)
}
