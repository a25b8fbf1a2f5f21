//! TTL'd recommendation result cache.
//!
//! `/recommend` is the expensive route: every uncached call runs the
//! full three-phase pipeline (fan-out, disambiguation, filter, rank).
//! Editors iterating on a submission re-ask the same question, so the
//! serving layer keys finished **response bytes** by a canonical
//! fingerprint of (manuscript, editor config) and serves repeats
//! without touching Phases 1–3. Storing the serialized bytes — not the
//! report — is what makes the hit path byte-identical to the miss path.
//!
//! One `Mutex` guards the map and its FIFO order. A hit holds it for
//! one hash lookup and one `Arc` clone; a miss's insert, which follows
//! a whole pipeline run, also sweeps expired entries under it. The
//! cache holds at most its configured capacity, evicting oldest first,
//! and expires entries on read past their TTL.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use minaret_core::{EditorConfig, ManuscriptDetails};
use minaret_scholarly::{Clock, SystemClock};
use minaret_telemetry::Telemetry;
use parking_lot::Mutex;

struct Entry {
    body: Arc<Vec<u8>>,
    expires_at_micros: u64,
}

#[derive(Default)]
struct Entries {
    map: HashMap<u64, Entry>,
    /// Insertion order for FIFO eviction at capacity.
    order: VecDeque<u64>,
}

/// A TTL'd, capacity-bounded cache of serialized `/recommend` bodies.
///
/// Reports hit/miss/eviction/invalidation counters and an entry gauge
/// to telemetry. Time comes from an injectable [`Clock`], so expiry is
/// testable with a simulated clock instead of wall-time sleeps.
pub struct ResultCache {
    ttl_micros: u64,
    capacity: usize,
    entries: Mutex<Entries>,
    clock: Arc<dyn Clock>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ResultCache(ttl {}us, cap {}, {} entries)",
            self.ttl_micros,
            self.capacity,
            self.len()
        )
    }
}

impl ResultCache {
    /// A cache holding at most `capacity` responses, each valid for
    /// `ttl_micros` after insertion.
    pub fn new(ttl_micros: u64, capacity: usize) -> Self {
        Self {
            ttl_micros,
            capacity: capacity.max(1),
            entries: Mutex::new(Entries::default()),
            clock: Arc::new(SystemClock::new()),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Replaces the clock (share a `SimulatedClock` for deterministic
    /// TTL tests).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Reports `minaret_result_cache_*` series to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Entries currently stored (including any not yet expired-on-read).
    pub fn len(&self) -> usize {
        self.entries.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical fingerprint of a `/recommend` question: an FNV-64
    /// hash over the `Debug` rendering of the manuscript and the full
    /// editor configuration. Every config field participates — and any
    /// field added later participates automatically — so two requests
    /// share a cache line only if the pipeline would see identical
    /// inputs.
    pub fn fingerprint(manuscript: &ManuscriptDetails, config: &EditorConfig) -> u64 {
        let canonical = format!("{manuscript:?}|{config:?}");
        let mut h: u64 = 0xcbf29ce484222325;
        for b in canonical.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// The cached response for `key`, if present and unexpired. An
    /// expired entry is evicted on read and counts as a miss.
    pub fn get(&self, key: u64) -> Option<Arc<Vec<u8>>> {
        let now = self.clock.now_micros();
        let mut entries = self.entries.lock();
        match entries.map.get(&key) {
            Some(entry) if now < entry.expires_at_micros => {
                let body = entry.body.clone();
                drop(entries);
                self.telemetry
                    .counter("minaret_result_cache_hits_total", &[])
                    .inc();
                Some(body)
            }
            Some(_) => {
                entries.map.remove(&key);
                entries.order.retain(|k| *k != key);
                let len = entries.map.len();
                drop(entries);
                self.telemetry
                    .counter("minaret_result_cache_evictions_total", &[("cause", "ttl")])
                    .inc();
                self.note_miss(len);
                None
            }
            None => {
                let len = entries.map.len();
                drop(entries);
                self.note_miss(len);
                None
            }
        }
    }

    /// Stores a response under `key`. Entries already past their TTL
    /// are swept first — dead entries must never crowd out a fresh
    /// insertion — then the oldest live entries are FIFO-evicted past
    /// the capacity.
    pub fn insert(&self, key: u64, body: Vec<u8>) {
        let now = self.clock.now_micros();
        let expires_at_micros = now.saturating_add(self.ttl_micros);
        let mut entries = self.entries.lock();
        // Sweep expired entries at insert time. Without this, a cache
        // full of TTL-dead entries (written, never re-read) still sits
        // at capacity and sheds live entries via FIFO instead of the
        // corpses.
        let mut expired = 0u64;
        entries.map.retain(|_, entry| {
            let live = now < entry.expires_at_micros;
            if !live {
                expired += 1;
            }
            live
        });
        if expired > 0 {
            let Entries { map, order } = &mut *entries;
            order.retain(|k| map.contains_key(k));
        }
        if entries
            .map
            .insert(
                key,
                Entry {
                    body: Arc::new(body),
                    expires_at_micros,
                },
            )
            .is_none()
        {
            entries.order.push_back(key);
        }
        let mut evicted = 0u64;
        while entries.map.len() > self.capacity {
            let Some(oldest) = entries.order.pop_front() else {
                break;
            };
            entries.map.remove(&oldest);
            evicted += 1;
        }
        let len = entries.map.len();
        drop(entries);
        if expired > 0 {
            self.telemetry
                .counter("minaret_result_cache_evictions_total", &[("cause", "ttl")])
                .inc_by(expired);
        }
        if evicted > 0 {
            self.telemetry
                .counter(
                    "minaret_result_cache_evictions_total",
                    &[("cause", "capacity")],
                )
                .inc_by(evicted);
        }
        self.note_entries(len);
    }

    /// Drops the single entry under `key`, if present. Returns whether
    /// an entry was actually dropped; both outcomes are counted to
    /// telemetry (`scope="single"`, `outcome="hit"|"miss"`), so an
    /// editor invalidating a fingerprint that was never cached — or
    /// already expired — is visible in the metrics.
    pub fn invalidate(&self, key: u64) -> bool {
        let mut entries = self.entries.lock();
        let dropped = entries.map.remove(&key).is_some();
        if dropped {
            entries.order.retain(|k| *k != key);
        }
        let len = entries.map.len();
        drop(entries);
        self.telemetry
            .counter(
                "minaret_result_cache_invalidations_total",
                &[
                    ("scope", "single"),
                    ("outcome", if dropped { "hit" } else { "miss" }),
                ],
            )
            .inc();
        self.note_entries(len);
        dropped
    }

    /// Drops every entry (the invalidation hook for world changes).
    /// Returns how many entries were dropped.
    pub fn invalidate_all(&self) -> usize {
        let dropped = {
            let mut entries = self.entries.lock();
            let n = entries.map.len();
            entries.map.clear();
            entries.order.clear();
            n
        };
        self.telemetry
            .counter("minaret_result_cache_invalidations_total", &[])
            .inc();
        self.note_entries(0);
        dropped
    }

    fn note_entries(&self, len: usize) {
        self.telemetry
            .gauge("minaret_result_cache_entries", &[])
            .set(len as i64);
    }

    fn note_miss(&self, len: usize) {
        self.telemetry
            .counter("minaret_result_cache_misses_total", &[])
            .inc();
        self.note_entries(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_core::AuthorInput;
    use minaret_scholarly::SimulatedClock;

    fn manuscript(title: &str) -> ManuscriptDetails {
        ManuscriptDetails {
            title: title.to_string(),
            keywords: vec!["databases".into()],
            authors: vec![AuthorInput::named("A. Author")],
            target_venue: "EDBT".into(),
        }
    }

    #[test]
    fn fingerprint_distinguishes_manuscript_and_config() {
        let m1 = manuscript("one");
        let m2 = manuscript("two");
        let c1 = EditorConfig::default();
        let c2 = EditorConfig {
            max_recommendations: c1.max_recommendations + 1,
            ..EditorConfig::default()
        };
        assert_eq!(
            ResultCache::fingerprint(&m1, &c1),
            ResultCache::fingerprint(&m1, &c1)
        );
        assert_ne!(
            ResultCache::fingerprint(&m1, &c1),
            ResultCache::fingerprint(&m2, &c1)
        );
        assert_ne!(
            ResultCache::fingerprint(&m1, &c1),
            ResultCache::fingerprint(&m1, &c2)
        );
    }

    #[test]
    fn hit_returns_stored_bytes_and_counts() {
        let telemetry = Telemetry::new();
        let cache = ResultCache::new(1_000_000, 8).with_telemetry(telemetry.clone());
        assert!(cache.get(1).is_none());
        cache.insert(1, b"body".to_vec());
        assert_eq!(cache.get(1).unwrap().as_slice(), b"body");
        assert_eq!(
            telemetry
                .counter("minaret_result_cache_hits_total", &[])
                .get(),
            1
        );
        assert_eq!(
            telemetry
                .counter("minaret_result_cache_misses_total", &[])
                .get(),
            1
        );
    }

    #[test]
    fn entries_expire_after_ttl_on_the_injected_clock() {
        let clock = SimulatedClock::new();
        let cache = ResultCache::new(1_000, 8).with_clock(clock.clone());
        cache.insert(7, b"x".to_vec());
        assert!(cache.get(7).is_some());
        clock.advance(999);
        assert!(cache.get(7).is_some(), "just inside the TTL");
        clock.advance(1);
        assert!(cache.get(7).is_none(), "expired exactly at the TTL");
        assert!(cache.is_empty(), "expired entry evicted on read");
    }

    #[test]
    fn capacity_evicts_oldest_first() {
        let cache = ResultCache::new(1_000_000, 2);
        cache.insert(1, b"a".to_vec());
        cache.insert(2, b"b".to_vec());
        cache.insert(3, b"c".to_vec());
        assert!(cache.get(1).is_none(), "oldest entry evicted");
        assert!(cache.get(2).is_some());
        assert!(cache.get(3).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn insert_sweeps_expired_entries_before_capacity_eviction() {
        // A cache at capacity with only TTL-dead entries must shed the
        // corpses — not the fresh insertions.
        let telemetry = Telemetry::new();
        let clock = SimulatedClock::new();
        let cache = ResultCache::new(1_000, 2)
            .with_clock(clock.clone())
            .with_telemetry(telemetry.clone());
        cache.insert(1, b"old-a".to_vec());
        cache.insert(2, b"old-b".to_vec());
        clock.advance(1_000); // both entries are now expired, unread
        cache.insert(3, b"fresh-a".to_vec());
        cache.insert(4, b"fresh-b".to_vec());
        assert!(cache.get(3).is_some(), "fresh entry must survive");
        assert!(cache.get(4).is_some(), "fresh entry must survive");
        assert_eq!(cache.len(), 2, "expired entries were swept");
        assert_eq!(
            telemetry
                .counter("minaret_result_cache_evictions_total", &[("cause", "ttl")])
                .get(),
            2,
            "the sweep is counted as TTL evictions"
        );
        assert_eq!(
            telemetry
                .counter(
                    "minaret_result_cache_evictions_total",
                    &[("cause", "capacity")],
                )
                .get(),
            0,
            "no live entry was FIFO-evicted"
        );
    }

    #[test]
    fn invalidate_single_drops_only_that_entry_and_counts_outcomes() {
        let telemetry = Telemetry::new();
        let cache = ResultCache::new(1_000_000, 8).with_telemetry(telemetry.clone());
        cache.insert(1, b"a".to_vec());
        cache.insert(2, b"b".to_vec());
        assert!(cache.invalidate(1), "present entry is dropped");
        assert!(!cache.invalidate(1), "second attempt is a miss");
        assert!(!cache.invalidate(999), "never-cached key is a miss");
        assert!(cache.get(1).is_none());
        assert!(cache.get(2).is_some(), "other entries survive");
        let hit = telemetry.counter(
            "minaret_result_cache_invalidations_total",
            &[("scope", "single"), ("outcome", "hit")],
        );
        let miss = telemetry.counter(
            "minaret_result_cache_invalidations_total",
            &[("scope", "single"), ("outcome", "miss")],
        );
        assert_eq!(hit.get(), 1);
        assert_eq!(miss.get(), 2);
    }

    #[test]
    fn invalidate_all_drops_everything() {
        let cache = ResultCache::new(1_000_000, 8);
        cache.insert(1, b"a".to_vec());
        cache.insert(2, b"b".to_vec());
        assert_eq!(cache.invalidate_all(), 2);
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
    }
}
