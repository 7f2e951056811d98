//! The checkpoint byte format is pinned: a fixed seeded trace must leave a
//! `CacheServer` (exact and sketched frequency modes) and a
//! `FeatureExtractor` whose encoded state hashes to constants recorded when
//! the format was last changed. Warm-boot files written by earlier builds
//! therefore still restore, and per-map hasher keys never reach the bytes.
//! The bytes a shard ships are pinned the same way: a `DeltaFrame` between
//! two fixed images, and one `Full` and one `Delta` shipping envelope of
//! each purpose.

use darwin_cache::server::FrequencyMode;
use darwin_cache::{CacheConfig, CacheServer, ThresholdPolicy};
use darwin_ckpt::delta::DeltaFrame;
use darwin_ckpt::Enc;
use darwin_features::FeatureExtractor;
use darwin_shard::{ShipFrame, ShipPayload, ShipPurpose};
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};

/// FNV-1a, 64-bit: a stable digest with no dependency behind it.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn trace() -> Trace {
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 13)
        .generate(30_000)
}

fn server_bytes(cfg: &CacheConfig, trace: &Trace) -> Vec<u8> {
    let mut server = CacheServer::new(cfg.clone());
    server.set_policy(ThresholdPolicy::with_recency(1, 200 * 1024, 5_000_000));
    server.process_trace(trace);
    server.save_state()
}

fn extractor_bytes(trace: &Trace) -> Vec<u8> {
    let mut fx = FeatureExtractor::paper_default();
    for r in trace {
        fx.observe(r);
    }
    let mut enc = Enc::new();
    fx.encode_state(&mut enc);
    enc.into_bytes()
}

fn sketch_config() -> CacheConfig {
    CacheConfig {
        frequency: FrequencyMode::Sketch { expected_objects: 4096 },
        ..CacheConfig::small_test()
    }
}

#[test]
fn exact_mode_cache_bytes_are_pinned() {
    let t = trace();
    let bytes = server_bytes(&CacheConfig::small_test(), &t);
    assert_eq!(bytes, server_bytes(&CacheConfig::small_test(), &t), "independent servers diverged");
    assert_eq!((bytes.len(), fnv1a(&bytes)), (EXACT_LEN, EXACT_FNV));
    let restored = CacheServer::restore_state(CacheConfig::small_test(), &bytes).unwrap();
    assert_eq!(restored.save_state(), bytes);
}

#[test]
fn sketch_mode_cache_bytes_are_pinned() {
    let t = trace();
    let bytes = server_bytes(&sketch_config(), &t);
    assert_eq!(bytes, server_bytes(&sketch_config(), &t), "independent servers diverged");
    assert_eq!((bytes.len(), fnv1a(&bytes)), (SKETCH_LEN, SKETCH_FNV));
    let restored = CacheServer::restore_state(sketch_config(), &bytes).unwrap();
    assert_eq!(restored.save_state(), bytes);
}

#[test]
fn feature_extractor_bytes_are_pinned() {
    let t = trace();
    let bytes = extractor_bytes(&t);
    assert_eq!(bytes, extractor_bytes(&t), "independent extractors diverged");
    assert_eq!((bytes.len(), fnv1a(&bytes)), (FEATURES_LEN, FEATURES_FNV));
}

/// A fixed pseudo-random image (64-bit LCG, top byte of each step).
fn image(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x >> 56) as u8
        })
        .collect()
}

/// A base image and its successor: one churned run in the middle and a
/// grown tail, so the delta carries both copy and literal ops.
fn delta_pair() -> (Vec<u8>, Vec<u8>) {
    let base = image(64 * 1024, 2);
    let mut target = base.clone();
    for b in &mut target[1_000..1_200] {
        *b ^= 0x5A;
    }
    target.extend(image(300, 7));
    (base, target)
}

#[test]
fn delta_frame_bytes_are_pinned() {
    let (base, target) = delta_pair();
    let frame = DeltaFrame::compute(&base, &target).to_frame();
    assert_eq!((frame.len(), fnv1a(&frame)), (DELTA_LEN, DELTA_FNV));
    assert_eq!(DeltaFrame::from_frame(&frame).unwrap().apply(&base).unwrap(), target);
}

#[test]
fn shipping_envelope_bytes_are_pinned() {
    let (base, target) = delta_pair();
    let delta = DeltaFrame::compute(&base, &target).to_frame();
    let mut pins = Vec::new();
    for purpose in [ShipPurpose::Replicate, ShipPurpose::Handoff] {
        for payload in [
            ShipPayload::Full(target.clone()),
            ShipPayload::Delta { base_seq: 4_000, frame: delta.clone() },
        ] {
            let wire = ShipFrame { purpose, shard: 3, generation: 2, seq: 5_000, payload }.to_frame();
            pins.push((wire.len(), fnv1a(&wire)));
        }
    }
    assert_eq!(pins, SHIP_PINS);
}

// Recorded before object-id maps moved to the keyed `IdHash`; a mismatch
// means checkpoints saved by earlier builds no longer restore.
const EXACT_LEN: usize = 552_866;
const EXACT_FNV: u64 = 18_068_917_066_055_029_886;
const SKETCH_LEN: usize = 408_470;
const SKETCH_FNV: u64 = 6_607_403_689_306_750_806;
const FEATURES_LEN: usize = 557_168;
const FEATURES_FNV: u64 = 6_103_537_689_460_739_481;

// Recorded before the replica and transfer envelopes merged into one: the
// delta payload both of them carried must not move.
const DELTA_LEN: usize = 670;
const DELTA_FNV: u64 = 14_304_040_918_718_968_807;

// Recorded when the shipping envelope was introduced, in the order
// (Replicate, Full), (Replicate, Delta), (Handoff, Full), (Handoff, Delta).
const SHIP_PINS: [(usize, u64); 4] = [
    (65_888, 13_880_144_742_793_493_103),
    (730, 11_050_057_505_781_507_569),
    (65_888, 4_758_879_757_764_380_626),
    (730, 12_343_019_227_032_548_925),
];
