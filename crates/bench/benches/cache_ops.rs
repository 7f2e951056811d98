//! Criterion micro-benchmarks of the cache substrate: request-processing
//! throughput of the two-level server and of the HOC-only simulator, plus
//! the raw LRU store and frequency structures. These quantify the §6.4
//! claim that admission-policy logic imposes negligible per-request cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use darwin_cache::{
    BloomFilter, CacheConfig, CacheServer, EvictionKind, FrequencySketch, HocSim, Store, ThresholdPolicy,
};
use darwin_trace::{MixSpec, Trace, TraceGenerator, TrafficClass};

fn workload(n: usize) -> Trace {
    TraceGenerator::new(MixSpec::two_class(TrafficClass::image(), TrafficClass::download(), 0.5), 42)
        .generate(n)
}

fn bench_cache_server(c: &mut Criterion) {
    let trace = workload(100_000);
    let mut g = c.benchmark_group("cache_server");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(10);
    g.bench_function("two_level_process", |b| {
        b.iter(|| {
            let mut server = CacheServer::new(CacheConfig {
                hoc_bytes: 16 * 1024 * 1024,
                dc_bytes: 1024 * 1024 * 1024,
                ..CacheConfig::paper_default()
            });
            server.set_policy(ThresholdPolicy::new(2, 100 * 1024));
            black_box(server.process_trace(&trace))
        })
    });
    g.bench_function("hoc_only_process", |b| {
        b.iter(|| {
            let mut sim =
                HocSim::new(16 * 1024 * 1024, EvictionKind::Lru, ThresholdPolicy::new(2, 100 * 1024));
            black_box(sim.run_trace(&trace))
        })
    });
    g.finish();
}

fn bench_lru_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("lru_store");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("insert_touch_evict", |b| {
        b.iter(|| {
            let mut s = Store::lru(1_000_000);
            for i in 0..100_000u64 {
                if !s.touch(i % 2_000) {
                    s.insert(i % 2_000, 997, |_, _| {});
                }
            }
            black_box(s.len())
        })
    });
    g.finish();
}

fn bench_filters(c: &mut Criterion) {
    let mut g = c.benchmark_group("filters");
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("bloom_insert", |b| {
        b.iter(|| {
            let mut f = BloomFilter::with_capacity(100_000);
            for i in 0..100_000u64 {
                f.insert(black_box(i));
            }
            black_box(f.inserted())
        })
    });
    g.bench_function("sketch_increment", |b| {
        b.iter(|| {
            let mut s = FrequencySketch::with_capacity(100_000);
            for i in 0..100_000u64 {
                s.increment(black_box(i % 10_000));
            }
            black_box(s.estimate(1))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_cache_server, bench_lru_store, bench_filters);
criterion_main!(benches);
