//! Deterministic hashing for keys that must be the same in every run.
//!
//! `std::collections::HashMap`'s default hasher is seeded per process,
//! which is the right call for maps keyed by untrusted input but gives
//! a different value for the same text in every run. The vocabulary's
//! text keys and the name keys are compared across tables and stored
//! in filters, so they come from a fixed-seed FNV-1a — fast on the
//! short keys they carry.

use std::hash::Hasher;

/// FNV-1a, 64-bit, fixed offset basis — byte-for-byte reproducible
/// across processes and runs.
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(0xcbf29ce484222325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// The deterministic 64-bit hash of `key`, finalized so the **high**
/// bits avalanche (FNV-1a mixes multiplicatively, which feeds entropy
/// upward slowly; the name filters and the keyed tables' filter words
/// read the top bits, so a Fibonacci-multiply finalizer spreads
/// short-key entropy there).
pub fn stable_hash<Q: ?Sized + std::hash::Hash>(key: &Q) -> u64 {
    let mut h = FnvHasher::default();
    key.hash(&mut h);
    let mut x = h.finish();
    x ^= x >> 32;
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_across_calls_and_types() {
        assert_eq!(stable_hash("abc"), stable_hash("abc"));
        assert_ne!(stable_hash("abc"), stable_hash("abd"));
        assert_eq!(stable_hash(&42u64), stable_hash(&42u64));
        // The same in every build: text and name keys derive from it.
        assert_eq!(stable_hash("semantic web"), 0xfb1d_05b4_2f68_c34a);
    }

    #[test]
    fn arc_str_hashes_like_str() {
        use std::sync::Arc;
        let a: Arc<str> = Arc::from("semantic web");
        assert_eq!(stable_hash(a.as_ref()), stable_hash("semantic web"));
    }

    #[test]
    fn high_bits_vary_for_small_integer_keys() {
        let tops: std::collections::HashSet<u64> =
            (0..64u64).map(|k| stable_hash(&k) >> 58).collect();
        assert!(tops.len() > 16, "top-6-bit spread too narrow: {tops:?}");
    }
}
