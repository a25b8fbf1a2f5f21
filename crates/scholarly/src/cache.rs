//! Caching decorator over any [`ScholarSource`].
//!
//! The paper stresses that MINARET extracts information on-the-fly so the
//! recommendations are "dynamic and based on up-to-date information".
//! On-the-fly extraction is expensive; within one recommendation run the
//! same profile is needed by several phases, so a per-run cache is the
//! standard mitigation. Experiment E6 measures exactly what it buys.
//!
//! Entries are stored and returned as `Arc`-shared values: a cache hit is
//! a shallow clone of a `Vec<Arc<SourceProfile>>` (pointer bumps), never a
//! deep copy of the profiles themselves.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use minaret_concurrent::{ConcurrentMap, ShardedMap};
use minaret_telemetry::Telemetry;

use crate::error::SourceError;
use crate::record::SourceProfile;
use crate::sim::ScholarSource;
use crate::spec::SourceKind;

/// Cache hit/miss/error/eviction counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that went to the underlying source and succeeded
    /// (i.e. populated the cache). Failed fetch-throughs are counted in
    /// `errors`, not here — counting them as misses used to make the
    /// hit ratio drift downward on flaky sources even when every
    /// cacheable response was served from cache.
    pub misses: u64,
    /// Fetch-throughs that failed; nothing was cached.
    pub errors: u64,
    /// Entries dropped by [`CachingSource::clear`].
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; `0` when no requests were made.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A read-through cache over a source.
///
/// Successful results are cached per query; errors are never cached, so a
/// transient failure retried later can still succeed.
pub struct CachingSource {
    inner: Arc<dyn ScholarSource>,
    telemetry: Telemetry,
    by_name: ShardedMap<String, Vec<Arc<SourceProfile>>>,
    by_interest: ShardedMap<Arc<str>, Vec<Arc<SourceProfile>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    errors: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for CachingSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachingSource")
            .field("kind", &self.inner.kind())
            .field("stats", &self.stats())
            .finish()
    }
}

impl CachingSource {
    /// Wraps `inner` with an empty cache and no telemetry.
    #[must_use]
    pub fn new(inner: Arc<dyn ScholarSource>) -> Self {
        Self::with_telemetry(inner, Telemetry::disabled())
    }

    /// Wraps `inner` with an empty cache reporting
    /// `minaret_cache_{hits,misses,errors,evictions}_total{source=...}`
    /// to `telemetry`.
    #[must_use]
    pub fn with_telemetry(inner: Arc<dyn ScholarSource>, telemetry: Telemetry) -> Self {
        Self {
            inner,
            telemetry,
            by_name: ShardedMap::new(),
            by_interest: ShardedMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Current hit/miss/error/eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops all cached entries (a new recommendation run starting from
    /// scratch, per the paper's freshness requirement).
    pub fn clear(&self) {
        let evicted = (self.by_name.clear() + self.by_interest.clear()) as u64;
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        self.cache_counter("evictions").inc_by(evicted);
    }

    fn cache_counter(&self, event: &str) -> minaret_telemetry::Counter {
        self.telemetry.counter(
            &format!("minaret_cache_{event}_total"),
            &[("source", self.inner.kind().prefix())],
        )
    }

    fn on_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.cache_counter("hits").inc();
    }

    /// Resolves a fetch-through: successes count as misses (the cache
    /// is now populated), failures as errors (nothing was cached).
    fn on_fetch<T>(&self, result: &Result<T, SourceError>) {
        match result {
            Ok(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.cache_counter("misses").inc();
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.cache_counter("errors").inc();
            }
        }
    }
}

impl ScholarSource for CachingSource {
    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }

    fn supports_interest_search(&self) -> bool {
        self.inner.supports_interest_search()
    }

    fn search_by_name(&self, name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
        if let Some(hit) = self.by_name.get(name) {
            self.on_hit();
            return Ok(hit);
        }
        let result = self.inner.search_by_name(name);
        self.on_fetch(&result);
        let result = result?;
        self.by_name.insert(name.to_string(), result.clone());
        Ok(result)
    }

    /// Per-label caching over the batched search: labels already cached
    /// by earlier batches are served from the cache, and only the missing
    /// ones go to the inner source — as one batch. Each cached label
    /// counts a hit, each fetched label a miss; a failed fetch-through
    /// counts one error and caches nothing, so a later retry can still
    /// succeed — and labels already cached before the failure stay
    /// cached.
    fn search_by_interests(
        &self,
        labels: &[Arc<str>],
    ) -> Result<crate::sim::LabeledHits, SourceError> {
        let mut results: Vec<Option<Vec<Arc<SourceProfile>>>> = Vec::with_capacity(labels.len());
        let mut missing: Vec<Arc<str>> = Vec::new();
        for label in labels {
            match self.by_interest.get(label.as_ref()) {
                Some(hit) => {
                    self.on_hit();
                    results.push(Some(hit));
                }
                None => {
                    missing.push(label.clone());
                    results.push(None);
                }
            }
        }
        if !missing.is_empty() {
            match self.inner.search_by_interests(&missing) {
                Ok(fetched) => {
                    let fetched_by_label: HashMap<Arc<str>, Vec<Arc<SourceProfile>>> =
                        fetched.into_iter().collect();
                    for (label, slot) in labels.iter().zip(results.iter_mut()) {
                        if slot.is_none() {
                            // get, not remove: a duplicated input label
                            // must resolve both occurrences.
                            let hits = fetched_by_label
                                .get(label.as_ref())
                                .cloned()
                                .unwrap_or_default();
                            self.misses.fetch_add(1, Ordering::Relaxed);
                            self.cache_counter("misses").inc();
                            self.by_interest.insert(label.clone(), hits.clone());
                            *slot = Some(hits);
                        }
                    }
                }
                Err(e) => {
                    self.errors.fetch_add(1, Ordering::Relaxed);
                    self.cache_counter("errors").inc();
                    return Err(e);
                }
            }
        }
        Ok(labels
            .iter()
            .zip(results)
            .map(|(label, hits)| (label.clone(), hits.expect("every label resolved")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimulatedSource;
    use crate::spec::SourceSpec;
    use minaret_synth::{WorldConfig, WorldGenerator};

    fn cached(kind: SourceKind) -> (CachingSource, Arc<minaret_synth::World>) {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 100,
                ..Default::default()
            })
            .generate(),
        );
        let src = Arc::new(SimulatedSource::new(
            SourceSpec::for_kind(kind),
            world.clone(),
        ));
        (CachingSource::new(src), world)
    }

    fn world_labels(w: &minaret_synth::World, n: usize) -> Vec<Arc<str>> {
        let mut labels: Vec<Arc<str>> = Vec::new();
        for s in w.scholars() {
            for &i in &s.interests {
                let label: Arc<str> = Arc::from(w.ontology.label(i));
                if !labels.contains(&label) {
                    labels.push(label);
                }
                if labels.len() == n {
                    return labels;
                }
            }
        }
        labels
    }

    /// The hits for `label` alone, asked as a one-label batch.
    fn search_one(
        c: &CachingSource,
        label: &Arc<str>,
    ) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
        c.search_by_interests(std::slice::from_ref(label))
            .map(|mut hits| hits.remove(0).1)
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let (c, w) = cached(SourceKind::GoogleScholar);
        let name = w.scholars()[0].full_name();
        let a = c.search_by_name(&name).unwrap();
        let b = c.search_by_name(&name).unwrap();
        assert_eq!(a, b);
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cache_hits_share_profile_allocations() {
        let (c, w) = cached(SourceKind::GoogleScholar);
        let name = w.scholars()[0].full_name();
        let a = c.search_by_name(&name).unwrap();
        let b = c.search_by_name(&name).unwrap();
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(
                Arc::ptr_eq(x, y),
                "a cache hit must be a shallow Arc clone, not a deep copy"
            );
        }
    }

    #[test]
    fn clear_forces_refetch() {
        let (c, w) = cached(SourceKind::Dblp);
        let name = w.scholars()[1].full_name();
        c.search_by_name(&name).unwrap();
        c.clear();
        c.search_by_name(&name).unwrap();
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn errors_are_not_cached() {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 50,
                ..Default::default()
            })
            .generate(),
        );
        let mut spec = SourceSpec::for_kind(SourceKind::GoogleScholar);
        spec.failure_rate = 0.95;
        let src = Arc::new(SimulatedSource::new(spec, world));
        let c = CachingSource::new(src);
        // Keep retrying until one call succeeds; then the next identical
        // call must be a hit even though earlier ones failed.
        let mut ok = false;
        for _ in 0..200 {
            if c.search_by_name("anyone").is_ok() {
                ok = true;
                break;
            }
        }
        assert!(ok, "expected at least one success in 200 tries");
        let before = c.stats().hits;
        c.search_by_name("anyone").unwrap();
        assert_eq!(c.stats().hits, before + 1);
    }

    #[test]
    fn batched_search_serves_cached_labels_and_fetches_the_rest() {
        let (c, w) = cached(SourceKind::GoogleScholar);
        let labels = world_labels(&w, 3);
        assert_eq!(labels.len(), 3);
        // Warm one label through a one-label batch.
        let warm = search_one(&c, &labels[0]).unwrap();
        assert_eq!(c.stats().misses, 1);
        // The batch serves it from cache and fetches only the others.
        let batch = c.search_by_interests(&labels).unwrap();
        assert_eq!(batch.len(), labels.len());
        assert_eq!(batch[0].1, warm);
        let s = c.stats();
        assert_eq!(s.hits, 1, "the warmed label must be a hit");
        assert_eq!(s.misses as usize, labels.len(), "only missing labels fetch");
        // A repeat batch is now fully cached.
        let again = c.search_by_interests(&labels).unwrap();
        assert_eq!(again, batch);
        assert_eq!(c.stats().hits as usize, 1 + labels.len());
    }

    #[test]
    fn mixed_batch_preserves_input_order_and_counts_exactly() {
        let (c, w) = cached(SourceKind::GoogleScholar);
        let labels = world_labels(&w, 4);
        assert_eq!(labels.len(), 4);
        // Warm labels 1 and 3 so the batch interleaves hit/miss/hit/miss.
        search_one(&c, &labels[1]).unwrap();
        search_one(&c, &labels[3]).unwrap();
        let mixed = vec![
            labels[0].clone(),
            labels[1].clone(),
            labels[2].clone(),
            labels[3].clone(),
        ];
        let batch = c.search_by_interests(&mixed).unwrap();
        // Output order mirrors input order label-for-label, regardless of
        // which labels were served from cache.
        assert_eq!(batch.len(), mixed.len());
        for (got, want) in batch.iter().zip(mixed.iter()) {
            assert!(Arc::ptr_eq(&got.0, want), "labels echo in input order");
        }
        let s = c.stats();
        assert_eq!(s.hits, 2, "two pre-warmed labels hit");
        assert_eq!(s.misses, 2 + 2, "two warmups + two batch fetches");
        assert_eq!(s.errors, 0);
        // Cached hits are the same Arcs a one-label batch returns.
        let single = search_one(&c, &labels[1]).unwrap();
        let batched = &batch[1].1;
        assert_eq!(&single, batched);
    }

    #[test]
    fn partial_miss_failure_leaves_cached_labels_intact() {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 100,
                ..Default::default()
            })
            .generate(),
        );
        let labels = world_labels(&world, 2);
        assert_eq!(labels.len(), 2);
        let spec = SourceSpec::for_kind(SourceKind::GoogleScholar);
        // Alternating succeed/fail: call 0 succeeds, call 1 fails, ...
        let flaky = Arc::new(SimulatedSource::new(spec, world).with_fault(
            crate::sim::FaultSchedule::RateLimitBursts {
                allowed: 1,
                limited: 1,
            },
        ));
        let c = CachingSource::new(flaky);
        // Inner call 0 succeeds and caches label 0.
        let cached_hits = search_one(&c, &labels[0]).unwrap();
        // The batch hits label 0 in cache and fetches only label 1 —
        // inner call 1, which is scripted to fail.
        let before = c.stats();
        assert!(c.search_by_interests(&labels).is_err());
        let after = c.stats();
        assert_eq!(after.errors, before.errors + 1, "one error for the batch");
        assert_eq!(after.hits, before.hits + 1, "cached label still hits");
        assert_eq!(after.misses, before.misses, "failure caches nothing");
        // The previously cached label is still served from cache.
        let again = search_one(&c, &labels[0]).unwrap();
        assert_eq!(again, cached_hits);
        assert_eq!(c.stats().hits, after.hits + 1);
    }

    #[test]
    fn batched_search_failure_counts_one_error_and_caches_nothing() {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 50,
                ..Default::default()
            })
            .generate(),
        );
        let mut spec = SourceSpec::for_kind(SourceKind::GoogleScholar);
        spec.failure_rate = 1.0;
        let c = CachingSource::new(Arc::new(SimulatedSource::new(spec, world)));
        let labels: Vec<Arc<str>> = vec![Arc::from("databases"), Arc::from("data mining")];
        assert!(c.search_by_interests(&labels).is_err());
        let s = c.stats();
        assert_eq!(s.errors, 1, "one failed batch fetch-through = one error");
        assert_eq!(s.misses, 0);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn empty_stats_hit_ratio_is_zero() {
        let (c, _) = cached(SourceKind::Orcid);
        assert_eq!(c.stats().hit_ratio(), 0.0);
    }

    #[test]
    fn failed_fetches_count_as_errors_not_misses() {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 50,
                ..Default::default()
            })
            .generate(),
        );
        let mut spec = SourceSpec::for_kind(SourceKind::GoogleScholar);
        spec.failure_rate = 1.0;
        let c = CachingSource::new(Arc::new(SimulatedSource::new(spec, world)));
        for _ in 0..5 {
            assert!(c.search_by_name("anyone").is_err());
        }
        let s = c.stats();
        assert_eq!(s.errors, 5);
        assert_eq!(s.misses, 0, "failed fetches must not count as misses");
        assert_eq!(s.hit_ratio(), 0.0);
    }

    #[test]
    fn clear_counts_evictions() {
        let (c, w) = cached(SourceKind::Dblp);
        c.search_by_name(&w.scholars()[0].full_name()).unwrap();
        c.search_by_name(&w.scholars()[1].full_name()).unwrap();
        c.clear();
        assert_eq!(c.stats().evictions, 2);
        c.clear();
        assert_eq!(
            c.stats().evictions,
            2,
            "clearing an empty cache evicts nothing"
        );
    }

    #[test]
    fn telemetry_mirrors_cache_counters() {
        let telemetry = minaret_telemetry::Telemetry::new();
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 100,
                ..Default::default()
            })
            .generate(),
        );
        let src = Arc::new(SimulatedSource::new(
            SourceSpec::for_kind(SourceKind::GoogleScholar),
            world.clone(),
        ));
        let c = CachingSource::with_telemetry(src, telemetry.clone());
        let name = world.scholars()[0].full_name();
        c.search_by_name(&name).unwrap();
        c.search_by_name(&name).unwrap();
        c.clear();
        let text = telemetry.encode_prometheus();
        assert!(
            text.contains("minaret_cache_hits_total{source=\"gs\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("minaret_cache_misses_total{source=\"gs\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("minaret_cache_evictions_total{source=\"gs\"} 1"),
            "{text}"
        );
    }
}
