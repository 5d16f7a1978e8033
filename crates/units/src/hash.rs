//! The workspace's one hasher, for maps keyed by simulator ids.
//!
//! Every per-page lookup on the simulated fault path — page table,
//! replacement lists, the engine's side tables, the GMS directory and
//! the recorders' `(node, page)` indexes — goes through a hash map. The
//! standard library's default, SipHash-1-3 behind a per-map random
//! seed, is built to resist collision attacks from untrusted keys and
//! costs more than the rest of a typical lookup. These keys are
//! trusted simulator state (page numbers, node indexes), not attacker
//! input, so [`FastHasher`] trades that resistance for one add and one
//! multiply per word.
//!
//! Iteration order of a [`FastMap`] is deterministic for a given
//! insertion history, but nothing in the workspace may depend on it:
//! every output that walks a map sorts first or folds order-free
//! (counts, sums, maxima), as it had to under the randomly seeded
//! default.

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::HashMap;

/// Odd multiplier with well-spread bits (neither the Fibonacci
/// constant the GMS directory uses to pick custodians — keys sharing a
/// custodian would then share hash bits — nor any power-of-two
/// pattern).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate hasher for trusted integer keys.
///
/// Each word is added into the state and the sum multiplied by an odd
/// constant. A product's high bits mix every input bit, its low bits
/// only the low input bits, so [`Hasher::finish`] rotates the high bits
/// down: `HashMap` indexes buckets by the low bits of a hash and tags
/// entries with its top 7 bits, and both then see well-mixed bits for
/// dense keys such as contiguous page numbers.
///
/// # Examples
///
/// ```
/// use gms_units::{FastMap, NodeId};
///
/// let mut served_by: FastMap<u64, NodeId> = FastMap::default();
/// served_by.insert(0x8_0000, NodeId::new(2));
/// assert_eq!(served_by.get(&0x8_0000), Some(&NodeId::new(2)));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds [`FastHasher`]s: stateless, so every map hashes a key the
/// same way.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` hashed by [`FastHasher`]. Create one with
/// `FastMap::default()` (or `with_capacity_and_hasher`).
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use core::hash::{BuildHasher, Hash};

    /// First page number of the synthetic layouts: their base address
    /// `0x1_0000_0000` over 8 KB pages.
    const LAYOUT_BASE_PAGE: u64 = 0x1_0000_0000 >> 13;

    fn hash<T: Hash>(key: T) -> u64 {
        FastBuildHasher::default().hash_one(key)
    }

    #[test]
    fn builders_hash_a_key_identically() {
        let (a, b) = (FastBuildHasher::default(), FastBuildHasher::default());
        for key in [0u64, 1, LAYOUT_BASE_PAGE, u64::MAX] {
            assert_eq!(a.hash_one(key), b.hash_one(key));
            assert_eq!(a.hash_one((3u32, key)), b.hash_one((3u32, key)));
        }
        assert_ne!(hash(1u64), hash(2u64));
        assert_ne!(hash((1u32, 2u64)), hash((2u32, 1u64)));
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        assert_ne!(hash([0u8; 9]), hash([0, 0, 0, 0, 0, 0, 0, 0, 1u8]));
        assert_ne!(hash("page"), hash("pagf"));
    }

    /// Buckets the hashes two ways, as `HashMap` uses them — by the low
    /// `bucket_bits` bits (the bucket index) and by the top 7 bits (the
    /// control tag) — and checks both histograms stay within
    /// `factor` times a fair share, with every tag in use.
    fn assert_spread(hashes: &[u64], bucket_bits: u32, factor: usize) {
        let buckets = 1usize << bucket_bits;
        let mut low = vec![0usize; buckets];
        let mut tags = [0usize; 128];
        for &h in hashes {
            low[(h as usize) & (buckets - 1)] += 1;
            tags[(h >> 57) as usize] += 1;
        }
        let fair = hashes.len() / buckets;
        let worst = low.iter().max().copied().unwrap_or(0);
        assert!(
            worst <= factor * fair,
            "bucket holds {worst} keys, fair share {fair}"
        );
        let fair_tag = hashes.len() / tags.len();
        let worst_tag = tags.iter().max().copied().unwrap_or(0);
        assert!(
            worst_tag <= factor * fair_tag,
            "tag holds {worst_tag} keys, fair share {fair_tag}"
        );
        assert!(tags.iter().all(|&n| n > 0), "a control tag is never used");
    }

    #[test]
    fn dense_pages_spread_over_buckets_and_tags() {
        let pages: Vec<u64> = (0..16_384).map(|i| hash(LAYOUT_BASE_PAGE + i)).collect();
        assert_spread(&pages, 12, 3);
        // Per-node namespaces: the same dense pages above a node index
        // in the high bits.
        let namespaced: Vec<u64> = (0..4u64)
            .flat_map(|node| (0..4_096).map(move |i| hash((node << 40) + LAYOUT_BASE_PAGE + i)))
            .collect();
        assert_spread(&namespaced, 12, 3);
    }

    #[test]
    fn dense_node_page_pairs_spread_over_buckets_and_tags() {
        let pairs: Vec<u64> = (0..8u32)
            .flat_map(|node| (0..2_048).map(move |i| hash((node, LAYOUT_BASE_PAGE + i))))
            .collect();
        assert_spread(&pairs, 12, 3);
    }
}
