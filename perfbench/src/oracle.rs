//! The answer check: every verdict a single-submitter run returns must equal
//! what sequential replay computes for that request.
//!
//! `darwin_shard::run_sequential` reports per-shard aggregates only, so the
//! per-request verdicts come from the same loop `run_partition` runs
//! (`CacheServer::process`, then `AdmissionDriver::observe`), recorded per
//! request; its per-shard totals are then required to equal
//! `run_sequential`'s bitwise, which ties the per-request oracle to the
//! library's replay.

use darwin_cache::{CacheConfig, CacheServer};
use darwin_gateway::WireVerdict;
use darwin_shard::{run_sequential, HashRouter, Router, Verdict};
use darwin_testbed::AdmissionDriver;
use darwin_trace::Trace;

/// Expected wire verdict byte of every request, in submission order.
pub fn expected_verdicts<D: AdmissionDriver>(
    trace: &Trace,
    shards: usize,
    cache: &CacheConfig,
    factory: impl Fn(usize) -> D,
) -> Vec<u8> {
    let reqs = trace.requests();
    let mut parts: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (i, r) in reqs.iter().enumerate() {
        parts[HashRouter.route(r.id, shards)].push(i);
    }
    let mut out = vec![0u8; reqs.len()];
    let mut totals = Vec::with_capacity(shards);
    for (s, idx) in parts.iter().enumerate() {
        let mut driver = factory(s);
        let mut server = CacheServer::new(cache.clone());
        server.set_policy(driver.initial_policy());
        for &i in idx {
            let req = &reqs[i];
            let writes_before = server.metrics().hoc_writes;
            let outcome = server.process(req);
            let metrics = server.metrics();
            let admitted = metrics.hoc_writes > writes_before;
            out[i] = WireVerdict::from(Verdict { shard: s, outcome, admitted }).to_byte();
            if let Some(policy) = driver.observe(req, &metrics) {
                server.set_policy(policy);
            }
        }
        totals.push((server.metrics(), idx.len() as u64));
    }
    let replay = run_sequential(shards, cache.clone(), &HashRouter, factory, trace);
    for (s, run) in replay.iter().enumerate() {
        assert_eq!(
            (run.cache, run.processed),
            totals[s],
            "per-request oracle diverged from run_sequential on shard {s}"
        );
    }
    out
}

/// Requests whose verdict differs from the oracle's.
pub fn mismatches(expected: &[u8], got: &[u8]) -> u64 {
    let differing = expected.iter().zip(got).filter(|(e, g)| e != g).count();
    (differing + expected.len().abs_diff(got.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{static_policy, trace, Sizes, Workload};
    use darwin_testbed::StaticDriver;

    #[test]
    fn oracle_catches_a_flipped_verdict() {
        let w = Workload::WireSaturate;
        let t = trace(w, 3, &Sizes::tiny(w));
        let cache = CacheConfig::small_test();
        let expected = expected_verdicts(&t, 2, &cache, |_| StaticDriver::new(static_policy()));
        let mut got = expected.clone();
        assert_eq!(mismatches(&expected, &got), 0);
        // Flip one HOC hit into an origin fetch (outcome bits 0–2).
        let i = got.iter().position(|&b| b & 0b111 == 0).expect("a HOC hit in the trace");
        got[i] = 2;
        assert_eq!(mismatches(&expected, &got), 1);
        got.pop();
        assert!(mismatches(&expected, &got) >= 1, "a missing answer is a mismatch");
    }
}
