//! Stable, process-independent hashing for fingerprints and cache keys.
//!
//! `std::collections::hash_map::DefaultHasher` is randomly seeded per process
//! and its algorithm is unspecified, so it cannot back anything that must be
//! stable across runs — plan-cache keys, topology fingerprints, golden IR
//! dumps. [`StableHasher`] is a plain FNV-1a over the byte stream fed through
//! the [`std::hash::Hasher`] interface: deterministic, dependency-free, and
//! good enough for cache keys (collisions only cost a spurious cache miss or
//! an extra validation, never wrong results — plan rebinding re-checks
//! structure).

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hasher with a stable, documented algorithm.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stable_hash_of(value: &impl std::hash::Hash) -> u64 {
        let mut h = StableHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn known_vector() {
        // FNV-1a of "hello" is a published test vector.
        let mut h = StableHasher::new();
        h.write(b"hello");
        assert_eq!(h.finish(), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        assert_eq!(stable_hash_of(&("a", 1u64)), stable_hash_of(&("a", 1u64)));
        assert_ne!(stable_hash_of(&("a", 1u64)), stable_hash_of(&("a", 2u64)));
        assert_ne!(stable_hash_of(&("ab", "c")), stable_hash_of(&("a", "bc")));
    }

    #[test]
    fn empty_is_offset_basis() {
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
    }
}
