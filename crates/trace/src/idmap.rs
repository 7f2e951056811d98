//! Hash maps keyed by [`ObjectId`], with a fast keyed hasher.
//!
//! Every per-object table on the cache's request path (HOC/DC residency,
//! request counts, last-access times, feature rings) is probed several
//! times per request, and std's default SipHash costs more than the rest of
//! the probe. [`IdHash`] replaces it with two folded multiplies — the high
//! and low halves of a 64×64→128-bit product XORed together — seeded with
//! two keys drawn from [`RandomState`] when each map is built.
//!
//! The keys are never a fixed constant: object ids arrive from the wire, and
//! an unkeyed hash would let a client pick ids that all land in one bucket.
//! Nothing may depend on an [`IdMap`]'s iteration order, which differs from
//! map to map; encoders sort by id before writing.

use crate::request::ObjectId;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` from object id to `V` using the keyed [`IdHash`] hasher.
///
/// Build one with `IdMap::default()` (or `collect()`); each map draws fresh
/// keys.
pub type IdMap<V> = HashMap<ObjectId, V, IdHash>;

/// Odd multiplier of the fold (the PCG/Knuth MMIX constant); every 16-bit
/// lane of it is odd, so ids that differ in any lane move the product's
/// high half.
const MUL: u64 = 0x5851_F42D_4C95_7F2D;

/// The high and low halves of `a * b` (as 128 bits), XORed.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let full = u128::from(a) * u128::from(b);
    (full as u64) ^ ((full >> 64) as u64)
}

/// Builds [`IdHasher`]s that share two random keys.
#[derive(Clone, Copy, Debug)]
pub struct IdHash {
    k0: u64,
    k1: u64,
}

impl IdHash {
    /// A builder with fresh keys from std's per-process random source.
    pub fn new() -> Self {
        let seed = RandomState::new();
        Self { k0: seed.hash_one(0u64), k1: seed.hash_one(1u64) }
    }
}

impl Default for IdHash {
    fn default() -> Self {
        Self::new()
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher { k0: self.k0, k1: self.k1, h: 0 }
    }
}

/// The hasher built by [`IdHash`]: one `write_u64` is two folded
/// multiplies, each preceded by XORing in one key.
#[derive(Clone, Copy, Debug)]
pub struct IdHasher {
    k0: u64,
    k1: u64,
    h: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.h = fold(fold(self.h ^ x ^ self.k0, MUL) ^ self.k1, MUL);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::object_id;

    /// Pearson's χ² of `hashes` binned by `bin` into 128 buckets.
    fn chi2(hashes: &[u64], bin: impl Fn(u64) -> usize) -> f64 {
        let mut counts = [0u64; 128];
        for &h in hashes {
            counts[bin(h)] += 1;
        }
        let expect = hashes.len() as f64 / 128.0;
        counts.iter().map(|&c| (c as f64 - expect).powi(2) / expect).sum()
    }

    #[test]
    fn two_builders_disagree() {
        let (a, b) = (IdHash::new(), IdHash::new());
        let differ = (0..1000u64).filter(|&id| a.hash_one(id) != b.hash_one(id)).count();
        assert!(differ >= 990, "only {differ} of 1000 ids hash differently");
    }

    #[test]
    fn structured_ids_spread_over_top_and_bottom_bits() {
        // 128 buckets, 64 expected per bucket: χ² has 127 degrees of
        // freedom (mean 127, sd ≈ 16); 250 is beyond 7 sd.
        const N: u64 = 128 * 64;
        let families: [(&str, Vec<u64>); 3] = [
            ("sequential ranks", (0..N).collect()),
            ("multiples of 2^32", (0..N).map(|i| i << 32).collect()),
            ("class bits only", (0..N as usize).map(|c| object_id(c, 7)).collect()),
        ];
        for _ in 0..8 {
            let hash = IdHash::new();
            for (name, ids) in &families {
                let hashes: Vec<u64> = ids.iter().map(|&id| hash.hash_one(id)).collect();
                let top = chi2(&hashes, |h| (h >> 57) as usize);
                let bottom = chi2(&hashes, |h| (h & 127) as usize);
                assert!(top < 250.0, "{name}: top 7 bits χ² = {top:.0}");
                assert!(bottom < 250.0, "{name}: bottom 7 bits χ² = {bottom:.0}");
            }
        }
    }

    #[test]
    fn id_map_behaves_as_a_map() {
        let mut m: IdMap<u32> = IdMap::default();
        for id in 0..10_000u64 {
            m.insert(id << 20, id as u32);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|id| m[&(id << 20)] == id as u32));
        let collected: IdMap<u32> = m.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(collected, m);
    }
}
