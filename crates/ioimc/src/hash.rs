//! A seeded fast hasher for the dense integer keys of composition and
//! refinement.
//!
//! [`refine`](crate::bisim::refine) hands out block ids by signature (runs
//! of `u64` words) and by proposition mask, and interns the cumulative rate
//! keys of rates that have no one-word key
//! ([`RateForm`](crate::rate::RateForm)'s coefficient vectors; an `f64`
//! sum goes into its signature as its bits).
//! [`compose`](crate::compose::compose) indexes product states by their
//! `(left, right)` pair packed into one word, but only when the operands are
//! too large for its dense pair table: that table costs a cell per pair of
//! operand states, not per product state, so it is capped at 2^17 cells
//! (512 KiB), and products of larger operands, which are often sparse, use
//! the map and keep their memory in proportion to the states they reach.
//! These keys are small integers, for which std's SipHash
//! is a heavy cost on a cold build.  [`FastMap`] hashes each 64-bit word
//! with one folded multiply instead: the 128-bit product of the running
//! state, xor the word, with a fixed odd constant, folded to 64 bits by
//! xoring its two halves.  Every output bit then depends on every input bit.
//! A rotate-xor-multiply in the FxHash style does not do that: its low bits
//! see only the words' low bits, and on packed signature words (a label
//! word or block in one half, a block or rate bits in the other) that
//! collided enough to make `refine` slower than with SipHash.
//!
//! **Seeding.** Each map draws its seed from a fresh
//! [`RandomState`](std::collections::hash_map::RandomState), so a key set
//! that collides under one map does not collide under the next, and a key
//! set cannot be picked ahead of time to collide in every run.
//!
//! **Why ids never come from iteration order.** The seed differs from map to
//! map and from run to run, so a map's iteration order does too.  Every
//! user here therefore only looks keys up: each new key gets the next id of
//! a counter, in the order the keys are first seen (states in exploration
//! or state order), never in the map's order.  Product numbering and block
//! numbering, and with them every model byte, are the same under any seed.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` whose keys go through [`FoldHasher`], seeded per map.
pub(crate) type FastMap<K, V> = HashMap<K, V, FastState>;

/// The odd multiplier of [`FoldHasher`]: the first 64 fraction bits of π.
const MULTIPLIER: u64 = 0x243f_6a88_85a3_08d3;

/// Builds the [`FoldHasher`]s of one map, all from one seed drawn when the
/// map is made.
pub(crate) struct FastState {
    seed: u64,
}

impl Default for FastState {
    fn default() -> FastState {
        FastState {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for FastState {
    type Hasher = FoldHasher;

    fn build_hasher(&self) -> FoldHasher {
        FoldHasher { state: self.seed }
    }
}

/// One folded multiply per 64-bit word; see the [module documentation](self).
pub(crate) struct FoldHasher {
    state: u64,
}

/// The 128-bit product of `a` and `b`, its two halves xored together.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

impl Hasher for FoldHasher {
    /// Hashes `bytes` as native-endian words, the last one zero-padded: a
    /// `[u64]` key (std hashes an integer slice as its bytes in one call)
    /// costs one multiply per word.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_ne_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_ne_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = folded_multiply(self.state ^ i, MULTIPLIER);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folded_multiply_keeps_both_halves_of_the_product() {
        assert_eq!(folded_multiply(0, MULTIPLIER), 0);
        assert_eq!(folded_multiply(1, MULTIPLIER), MULTIPLIER);
        // 2^63 · m = (m >> 1) · 2^64 + (m & 1) · 2^63.
        assert_eq!(
            folded_multiply(1 << 63, MULTIPLIER),
            (MULTIPLIER >> 1) ^ (1 << 63)
        );
        assert_eq!(folded_multiply(u64::MAX, u64::MAX), 1 ^ (u64::MAX - 1));
    }

    #[test]
    fn byte_writes_hash_whole_words_like_word_writes() {
        let state = FastState { seed: 0x5eed };
        let words = [7u64, u64::MAX, 1 << 40];
        let mut by_words = state.build_hasher();
        for &w in &words {
            by_words.write_u64(w);
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_ne_bytes()).collect();
        let mut by_bytes = state.build_hasher();
        by_bytes.write(&bytes);
        assert_eq!(by_bytes.finish(), by_words.finish());

        // A short tail is zero-padded into one more word.
        let mut tail = state.build_hasher();
        tail.write(&bytes[..11]);
        let mut padded = state.build_hasher();
        padded.write_u64(words[0]);
        padded.write_u64(u64::from_ne_bytes([
            bytes[8], bytes[9], bytes[10], 0, 0, 0, 0, 0,
        ]));
        assert_eq!(tail.finish(), padded.finish());
    }

    #[test]
    fn each_map_draws_its_own_seed() {
        let (a, b) = (FastState::default(), FastState::default());
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.hash_one(42u64), b.hash_one(42u64));
    }

    #[test]
    fn dense_keys_spread_over_the_low_and_high_bits() {
        // Packed small pairs and signature words: the keys of `compose` and
        // `refine`.  A table of 2^k buckets indexes by the low bits and
        // filters by the top seven, so both must spread.
        let state = FastState {
            seed: 0x0123_4567_89ab_cdef,
        };
        let mut keys: Vec<u64> = Vec::new();
        for l in 0..32u64 {
            for r in 0..32u64 {
                keys.push(state.hash_one(l << 32 | r));
            }
        }
        for label in 0..32u64 {
            for block in 0..32u32 {
                keys.push(state.hash_one(&[label << 32 | u64::from(block)][..]));
            }
        }
        let mut low = vec![0u32; 1 << 10];
        let mut high = [0u32; 128];
        for &h in &keys {
            low[(h & 0x3ff) as usize] += 1;
            high[(h >> 57) as usize] += 1;
        }
        // 2048 keys: two per low bucket and 16 per top-seven value on average.
        assert!(low.iter().all(|&n| n <= 12), "low bits cluster");
        assert!(
            high.iter().all(|&n| (4..=40).contains(&n)),
            "high bits cluster"
        );
    }
}
