//! Deterministic hashing for shard selection and map buckets.
//!
//! `std::collections::HashMap`'s default hasher is seeded per process,
//! which is the right call for maps keyed by untrusted input but makes
//! shard placement unobservable: a test cannot construct "two keys on
//! the same shard". MINARET's concurrent maps key internal data
//! (vocabulary labels, fingerprints, source kinds), so a fixed-seed
//! FNV-1a — fast on the short keys these maps carry — is both safe and
//! what makes the deterministic concurrency suites possible.

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a, 64-bit, fixed offset basis — byte-for-byte reproducible
/// across processes and runs.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

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

/// Builds [`FnvHasher`]s; usable as a `HashMap` hasher parameter.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// The deterministic 64-bit hash of `key`, finalized so the **high**
/// bits avalanche (FNV-1a mixes multiplicatively, which feeds entropy
/// upward slowly; shard selection reads the top bits, so a
/// Fibonacci-multiply finalizer spreads short-key entropy there).
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
