//! Cross-process warm boot, enforced end to end.
//!
//! Regression for the startup bug where `ShardedFleet` unconditionally
//! wiped the checkpoint spill directory: a *second* fleet instance pointed
//! at the first instance's spill directory must restore every shard warm
//! and continue bitwise-identically to an uninterrupted run. The cold
//! fallback is pinned too — a truncated spill file is *detected* cold
//! (journaled `RestoreCold`, spill removed) while intact shards still boot
//! warm.

use darwin_cache::{CacheConfig, ThresholdPolicy};
use darwin_shard::{
    partition, run_partition, Backpressure, EventKind, FleetBoot, FleetConfig, HashRouter, ShardedFleet,
};
use darwin_testbed::StaticDriver;
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};

const CKPT_EVERY: u64 = 1_000;

fn cache_cfg() -> CacheConfig {
    CacheConfig { hoc_bytes: 2 * 1024 * 1024, ..CacheConfig::small_test() }
}

fn fleet_cfg(shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        queue_capacity: 256,
        batch: 64,
        backpressure: Backpressure::Block,
        snapshot_every: None,
        restart_budget: Default::default(),
        checkpoint_every: Some(CKPT_EVERY),
        shed_watermark: None,
        replicas: 0,
    }
}

fn test_trace() -> Trace {
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 77)
        .generate(24_000)
}

fn split(trace: &Trace, at: usize) -> (Trace, Trace) {
    let reqs = trace.requests();
    (Trace::from_sorted(reqs[..at].to_vec()), Trace::from_sorted(reqs[at..].to_vec()))
}

fn policy() -> ThresholdPolicy {
    ThresholdPolicy::new(2, 100 * 1024)
}

/// Runs the first "process": a fleet over `head` that cuts a final
/// checkpoint into `dir` on shutdown. Returns its per-shard published
/// cache metrics.
fn first_instance(
    dir: &std::path::Path,
    shards: usize,
    head: &Trace,
) -> Vec<darwin_cache::CacheMetrics> {
    let p = policy();
    let mut fleet = ShardedFleet::with_boot(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(p),
        FleetBoot { checkpoint_dir: Some(dir.to_path_buf()), ..FleetBoot::default() },
    );
    fleet.submit_trace(head);
    let report = fleet.finish_with_cut(shards);
    report.shards.iter().map(|s| s.cache).collect()
}

/// Keystone: a second fleet instance pointed at the first's spill directory
/// warm-boots every shard and its published window equals the uninterrupted
/// full run minus the first instance's window — the restore path is bitwise.
#[test]
fn second_instance_warm_boots_from_first_spill() {
    let dir = std::env::temp_dir().join(format!("darwin-warm-boot-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let shards = 4;
    let trace = test_trace();
    let (head, tail) = split(&trace, trace.len() / 2);
    let first = first_instance(&dir, shards, &head);

    let p = policy();
    let mut fleet = ShardedFleet::with_boot(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(p),
        FleetBoot::warm_from(dir.clone()),
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&tail);
    let report = fleet.finish();
    let snap = handle.snapshot();

    assert_eq!(snap.total_warm_boots(), shards as u32, "every shard restores from the spill");
    assert_eq!(snap.total_restarts(), 0, "a warm boot is not a restart");

    // Bitwise restore certificate: the second instance continued the first's
    // cache servers, so full-run cumulative metrics minus the first window
    // must equal the second window exactly, per shard.
    let parts = partition(&trace, &HashRouter, shards);
    for (s, part) in parts.iter().enumerate() {
        let p = policy();
        let full = run_partition(cache_cfg(), StaticDriver::new(p), part);
        assert_eq!(
            report.shards[s].cache,
            full.cache.diff(&first[s]),
            "shard {s}: warm-booted window diverges from the uninterrupted run"
        );
    }

    // Journal: the boot restore is recorded as a warm boot (not a handoff).
    for cell in handle.cells() {
        let events = cell.obs().journal.snapshot().events;
        assert!(
            events.iter().any(|e| matches!(e.kind, EventKind::HandoffRestore { warm_boot: true, .. })),
            "shard {}: missing HandoffRestore journal entry",
            cell.shard_index()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Cold fallback: a truncated spill file never restores and never panics —
/// the shard detects cold, journals it, and drops the bad file; intact
/// shards on the same directory still boot warm.
#[test]
fn corrupt_spill_detects_cold_per_shard() {
    let dir = std::env::temp_dir().join(format!("darwin-warm-boot-cold-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let shards = 2;
    let trace = test_trace();
    let (head, tail) = split(&trace, trace.len() / 2);
    first_instance(&dir, shards, &head);

    // Truncate shard 0's spill mid-frame: CRC can no longer validate.
    let bad = dir.join("shard-0.ckpt");
    let bytes = std::fs::read(&bad).expect("first instance spilled shard 0");
    std::fs::write(&bad, &bytes[..bytes.len() / 2]).unwrap();

    let p = policy();
    let mut fleet = ShardedFleet::with_boot(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(p),
        FleetBoot::warm_from(dir.clone()),
    );
    let handle = fleet.metrics_handle();
    fleet.submit_trace(&tail);
    fleet.finish();
    let snap = handle.snapshot();

    assert_eq!(snap.shards[0].warm_boots, 0, "truncated spill must not restore");
    assert_eq!(snap.shards[1].warm_boots, 1, "intact sibling still boots warm");
    // The invalid spill was dropped at boot; anything on disk now is a valid
    // frame cut by the cold restart itself (per-process sequence numbers).
    if bad.exists() {
        let frame = std::fs::read(&bad).unwrap();
        let ckpt = darwin_shard::ShardCheckpoint::from_frame(&frame)
            .expect("post-boot spill is a valid frame, not the truncated leftover");
        assert!(
            ckpt.seq <= tail.len() as u64,
            "spill seq {} must come from the fresh cold run, not the stale head run",
            ckpt.seq
        );
    }
    let events = handle.cells()[0].obs().journal.snapshot().events;
    assert!(
        events.iter().any(|e| e.kind == EventKind::RestoreCold),
        "shard 0 journals the detected-cold boot"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The pre-fix semantics stay pinned for cold boots: a spill directory without
/// `warm_boot` clears stale spill files up front, so a rerun never resurrects a previous
/// run's state.
#[test]
fn cold_constructor_still_clears_stale_spills() {
    let dir = std::env::temp_dir().join(format!("darwin-warm-boot-clear-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let shards = 2;
    let trace = test_trace();
    let (head, _) = split(&trace, trace.len() / 2);
    first_instance(&dir, shards, &head);
    assert!(dir.join("shard-0.ckpt").exists());

    let p = policy();
    let fleet: ShardedFleet<_> = ShardedFleet::with_boot(
        fleet_cfg(shards),
        cache_cfg(),
        Box::new(HashRouter),
        move |_| StaticDriver::new(p),
        FleetBoot { checkpoint_dir: Some(dir.clone()), ..FleetBoot::default() },
    );
    let handle = fleet.metrics_handle();
    fleet.finish();
    assert_eq!(handle.snapshot().total_warm_boots(), 0, "cold constructor never warm-boots");
    std::fs::remove_dir_all(&dir).ok();
}
