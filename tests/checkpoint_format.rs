//! The checkpoint byte format is pinned: a fixed seeded trace must leave a
//! `CacheServer` (exact and sketched frequency modes) and a
//! `FeatureExtractor` whose encoded state hashes to constants recorded when
//! the format was last changed. Warm-boot files written by earlier builds
//! therefore still restore, and per-map hasher keys never reach the bytes.

use darwin_cache::server::FrequencyMode;
use darwin_cache::{CacheConfig, CacheServer, ThresholdPolicy};
use darwin_ckpt::Enc;
use darwin_features::FeatureExtractor;
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

// Recorded before object-id maps moved to the keyed `IdHash`; a mismatch
// means checkpoints saved by earlier builds no longer restore.
const EXACT_LEN: usize = 552_866;
const EXACT_FNV: u64 = 18_068_917_066_055_029_886;
const SKETCH_LEN: usize = 408_470;
const SKETCH_FNV: u64 = 6_607_403_689_306_750_806;
const FEATURES_LEN: usize = 557_168;
const FEATURES_FNV: u64 = 6_103_537_689_460_739_481;
