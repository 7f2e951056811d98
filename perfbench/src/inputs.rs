//! Workload definitions: what each workload sends, how much of it, and the
//! Darwin model its controllers run. Every input is a pure function of the
//! workload seed; the program under test only ever sees the generated
//! requests.

use darwin::{DarwinModel, Expert, ExpertGrid, OfflineConfig, OfflineTrainer, OnlineConfig};
use darwin_bench::Scale;
use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_nn::TrainConfig;
use darwin_trace::{concat_traces, MixSpec, Request, Trace, TraceGenerator, TrafficClass};

/// Shards behind every workload (fixed, so a result never mixes shard
/// counts; client threads plus shard workers stay near a 2-core budget).
pub const SHARDS: usize = 2;

/// The controller budget Darwin is reported against: extra nanoseconds per
/// request a learned admission controller may add over a static expert.
pub const CONTROLLER_BUDGET_NS: f64 = 100.0;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over loopback, 2 connections, static expert.
    WireSaturate,
    /// Open loop over loopback at a fixed rate, Darwin on a drift trace,
    /// checkpoints and a hot standby on.
    PacedDurable,
    /// Closed loop in process, 1 producer, Darwin on a stationary mix.
    InprocDarwin,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::WireSaturate, Workload::PacedDurable, Workload::InprocDarwin];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireSaturate => "wire_saturate",
            Workload::PacedDurable => "paced_durable",
            Workload::InprocDarwin => "inproc_darwin",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when the shards run Darwin controllers (and set-up trains a
    /// model).
    pub fn darwin(self) -> bool {
        !matches!(self, Workload::WireSaturate)
    }

    /// True when requests travel over loopback sockets.
    pub fn wire(self) -> bool {
        !matches!(self, Workload::InprocDarwin)
    }
}

/// How much work one run does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Requests served before the timed phase of every pass (cache warm-up,
    /// counted in set-up time).
    pub warm: usize,
    /// Requests in the timed phase of every pass.
    pub timed: usize,
    /// Records per `GET` frame (or per `submit_frame` call in process).
    pub frame: usize,
    /// Frames each closed-loop connection keeps in flight.
    pub window: usize,
    /// Offered rate of the open-loop client, requests per second.
    pub rate: f64,
    /// Passes a run makes at least, however short `--seconds` is.
    pub min_passes: usize,
    /// Times set-up training is repeated (its median is reported).
    pub train_reps: usize,
    /// Requests in each offline training trace.
    pub train_requests: usize,
    /// Requests per mix phase of the drift trace.
    pub phase: usize,
    /// Per-shard checkpoint cadence, in requests (`paced_durable`).
    pub checkpoint_every: u64,
}

impl Sizes {
    /// The sizes the benchmark command runs.
    pub fn full(w: Workload) -> Sizes {
        let base = Sizes {
            warm: 200_000,
            timed: 1_000_000,
            frame: 128,
            window: 16,
            rate: 150_000.0,
            min_passes: 3,
            train_reps: 3,
            train_requests: 10_000,
            phase: 60_000,
            checkpoint_every: 100_000,
        };
        match w {
            Workload::WireSaturate => Sizes { warm: 300_000, timed: 1_500_000, ..base },
            Workload::PacedDurable => Sizes { warm: 100_000, timed: 450_000, frame: 50, ..base },
            Workload::InprocDarwin => Sizes { timed: 2_000_000, ..base },
        }
    }

    /// Miniature sizes for the benchmark's own tests.
    pub fn tiny(w: Workload) -> Sizes {
        Sizes {
            warm: 3_000,
            timed: 12_000,
            min_passes: 2,
            train_reps: 1,
            train_requests: 3_000,
            phase: 4_000,
            checkpoint_every: 4_000,
            rate: 10_000.0,
            ..Sizes::full(w)
        }
    }

    /// Requests per pass.
    pub fn total(&self) -> usize {
        self.warm + self.timed
    }
}

/// The aggregate cache (`Scale::cache_config()` at scale 1) split evenly
/// across [`SHARDS`], so capacity does not grow with the shard count.
pub fn shard_cache() -> CacheConfig {
    let agg = Scale::new(1).cache_config();
    CacheConfig {
        hoc_bytes: agg.hoc_bytes / SHARDS as u64,
        dc_bytes: agg.dc_bytes / SHARDS as u64,
        ..agg
    }
}

/// The static expert of `wire_saturate` (admit on the 2nd request, objects
/// up to 100 KB).
pub fn static_policy() -> ThresholdPolicy {
    ThresholdPolicy::new(2, 100 * 1024)
}

/// Per-shard online controller configuration.
pub fn online_config() -> OnlineConfig {
    OnlineConfig {
        epoch_requests: 20_000,
        warmup_requests: 2_000,
        round_requests: 500,
        ..OnlineConfig::default()
    }
}

/// The pass trace of workload `w`: `sizes.total()` requests.
///
/// The catalog (object sizes and popularity) and the arrival sequence are
/// fixed per workload; the seed relabels every object through a bijection
/// of its rank. A seed therefore changes which objects share a shard and
/// every hash and map layout, while hit ratios stay comparable across seeds
/// instead of following one draw of a heavy-tailed size catalog.
pub fn trace(w: Workload, seed: u64, sizes: &Sizes) -> Trace {
    let n = sizes.total();
    let gen = |share_image: f64, s: u64| {
        TraceGenerator::new(
            MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), share_image),
            s,
        )
    };
    let base = match w {
        // Stationary 50:50 image:download.
        Workload::WireSaturate => gen(0.5, 0x5A7).generate(n),
        // Stationary image-heavy: a different hit profile from the 50:50 mix.
        Workload::InprocDarwin => gen(0.9, 0x1A7E).generate(n),
        // Drift: the mix flips between image-heavy and download-heavy every
        // `phase` requests, so each controller re-identifies.
        Workload::PacedDurable => {
            let phases: Vec<Trace> = (0..n.div_ceil(sizes.phase))
                .map(|i| {
                    gen(if i % 2 == 0 { 0.97 } else { 0.03 }, 0xD21F + i as u64).generate(sizes.phase)
                })
                .collect();
            let all = concat_traces(&phases);
            Trace::from_sorted(all.requests()[..n].to_vec())
        }
    };
    let relabeled = base.requests().iter().map(|r| Request { id: relabel(r.id, seed), ..*r }).collect();
    Trace::from_sorted(relabeled)
}

/// Low bits of an object id holding the per-class rank (the class index
/// sits above them).
const RANK_BITS: u32 = 48;

/// A seed-keyed bijection on the rank bits of `id`; the class bits stay.
fn relabel(id: u64, seed: u64) -> u64 {
    let mask = (1u64 << RANK_BITS) - 1;
    let key = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
    let mut x = (id & mask) ^ key;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD | 1) & mask;
    x ^= x >> 23;
    (id & !mask) | x
}

/// The expert grid Darwin chooses from: small- vs large-object admission at
/// two frequency thresholds, so the per-phase optimum moves with the mix.
pub fn expert_grid() -> ExpertGrid {
    ExpertGrid::new(vec![
        Expert::new(1, 20),
        Expert::new(4, 20),
        Expert::new(1, 1000),
        Expert::new(4, 1000),
    ])
}

/// Clusters the offline stage groups training traces into.
pub const CLUSTERS: usize = 2;

/// Darwin's offline stage: evaluates every expert on six training traces
/// spanning the image:download range, clusters them and trains the
/// cross-expert predictors. The training corpus is fixed (like the
/// catalog), so every seed deploys the same model.
pub fn train_model(sizes: &Sizes) -> DarwinModel {
    let seed = 0xDA_2023;
    let cfg = OfflineConfig {
        grid: expert_grid(),
        hoc_bytes: shard_cache().hoc_bytes,
        nn_train: TrainConfig { epochs: 40, ..TrainConfig::default() },
        n_clusters: CLUSTERS,
        // Experts within 15% of a trace's best join its set, so the sets
        // hold several experts and the bandit and predictors have work.
        theta_percent: 15.0,
        feature_prefix_requests: online_config().warmup_requests,
        seed,
        ..OfflineConfig::default()
    };
    let traces: Vec<Trace> = (0..6)
        .map(|i| {
            TraceGenerator::new(
                MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), i as f64 / 5.0),
                seed.wrapping_add(10 + i as u64),
            )
            .generate(sizes.train_requests)
        })
        .collect();
    OfflineTrainer::new(cfg).train(&traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_seeded_and_sized() {
        for w in Workload::ALL {
            let s = Sizes::tiny(w);
            let a = trace(w, 7, &s);
            assert_eq!(a.len(), s.total());
            assert_eq!(a, trace(w, 7, &s), "same seed, same inputs");
            assert_ne!(a, trace(w, 8, &s), "another seed, other inputs");
        }
    }

    #[test]
    fn relabel_is_a_bijection_that_keeps_the_class() {
        let ids: Vec<u64> = (0..10_000u64).map(|r| (1 << RANK_BITS) | r).collect();
        let mut out: Vec<u64> = ids.iter().map(|&id| relabel(id, 42)).collect();
        assert!(out.iter().all(|&id| id >> RANK_BITS == 1));
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), ids.len());
    }

    #[test]
    fn names_roundtrip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
