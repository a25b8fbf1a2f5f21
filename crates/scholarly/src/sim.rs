//! The simulated source implementation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use minaret_ontology::{normalize_label, normalize_label_onto};
use minaret_synth::{LazyWorld, ScholarId, World, WorldHandle, WorldScope};
use minaret_telemetry::Telemetry;

use crate::clock::{Clock, SystemClock};
use crate::error::SourceError;
use crate::record::{
    AffiliationRecord, SourceMetrics, SourceProfile, SourcePublication, SourceReview,
};
use crate::spec::{SourceKind, SourceSpec};

/// Per-label hit lists from a batched interest search: each queried
/// label (echoed as the caller's own `Arc<str>`) paired with its
/// possibly-empty, `Arc`-shared profile hits, in input order.
pub type LabeledHits = Vec<(Arc<str>, Vec<Arc<SourceProfile>>)>;

/// A scholarly data source, as the extraction phase sees it.
///
/// The paper's framework treats every scholarly website uniformly and is
/// "flexibly designed to include any further information from any
/// additional scholarly resource" — this trait is that extension seam.
/// All methods may fail transiently; callers are expected to retry
/// retriable errors (see [`crate::SourceRegistry`]).
pub trait ScholarSource: Send + Sync {
    /// Which service this is.
    fn kind(&self) -> SourceKind;

    /// Whether [`ScholarSource::search_by_interests`] is supported.
    fn supports_interest_search(&self) -> bool;

    /// Finds profiles whose display name matches `name` (normalized,
    /// both full names and abbreviated forms are matched the way the
    /// real sites do). Results are `Arc`-shared: a profile handed out
    /// twice is the same allocation, not a deep copy, so callers may
    /// hold hits from overlapping queries cheaply.
    fn search_by_name(&self, name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError>;

    /// Finds, for every label of `labels`, the profiles that register it
    /// among their research interests — the paper queries Google Scholar
    /// and Publons this way to retrieve candidate reviewers (§2.1).
    /// Returns the hits per label in input order, each label echoed as
    /// the caller's `Arc<str>`. The whole label set is one request, so a
    /// source pays its per-call cost once per batch, not once per label.
    fn search_by_interests(&self, labels: &[Arc<str>]) -> Result<LabeledHits, SourceError>;
}

/// A lazily-built, per-source store of [`Arc`]-shared profiles.
///
/// Building a [`SourceProfile`] clones institution names, publication
/// titles, coauthor names, and keyword lists out of the world — dozens
/// of allocations per profile. A source's view of a scholar is
/// deterministic, so the store builds each profile at most once (on
/// first request, lock-free via [`OnceLock`]) and every subsequent hit
/// anywhere — name search, interest search, key fetch — is one `Arc`
/// clone.
pub struct ProfileStore {
    slots: Vec<OnceLock<Arc<SourceProfile>>>,
    /// Growth path: profiles for [`ScholarId`]s beyond the fixed slot
    /// range (a world that grew after the store was sized) land in a
    /// sharded map instead of panicking on an out-of-range index.
    overflow: minaret_concurrent::ShardedMap<usize, Arc<SourceProfile>>,
    /// When set, slot initialization consults the embedded store first
    /// (decode hit → no rebuild) and persists freshly built profiles.
    backing: Option<ProfileBacking>,
}

struct ProfileBacking {
    store: Arc<minaret_store::Store>,
    kind: SourceKind,
}

impl ProfileStore {
    /// An empty store with one slot per scholar in the world.
    #[must_use]
    pub fn with_capacity(scholars: usize) -> Self {
        Self {
            slots: (0..scholars).map(|_| OnceLock::new()).collect(),
            overflow: minaret_concurrent::ShardedMap::new(),
            backing: None,
        }
    }

    /// A store whose slots lazily load from (and write back to) the
    /// embedded `store`, under keys namespaced by `kind`. Decode
    /// failures fall back to rebuilding — the persisted bytes are a
    /// cache of deterministic computation, never the source of truth.
    #[must_use]
    pub fn with_store(scholars: usize, store: Arc<minaret_store::Store>, kind: SourceKind) -> Self {
        Self {
            slots: (0..scholars).map(|_| OnceLock::new()).collect(),
            overflow: minaret_concurrent::ShardedMap::new(),
            backing: Some(ProfileBacking { store, kind }),
        }
    }

    /// The shared profile for `id`, building it via `build` exactly once
    /// across all threads (or loading it from the backing store, when
    /// one is attached and holds a decodable entry).
    pub fn get_or_build(
        &self,
        id: ScholarId,
        build: impl FnOnce() -> SourceProfile,
    ) -> Arc<SourceProfile> {
        match self.slots.get(id.index()) {
            Some(slot) => slot.get_or_init(|| self.materialize(id, build)).clone(),
            // Out-of-range ids take the sharded overflow path instead of
            // panicking; same build-at-most-once guarantee, enforced by
            // the shard lock rather than a `OnceLock`.
            None => {
                use minaret_concurrent::ConcurrentMap;
                self.overflow
                    .get_or_insert_with(id.index(), || self.materialize(id, build))
                    .0
            }
        }
    }

    fn materialize(
        &self,
        id: ScholarId,
        build: impl FnOnce() -> SourceProfile,
    ) -> Arc<SourceProfile> {
        if let Some(backing) = &self.backing {
            let key = crate::persist::profile_key(backing.kind, id);
            if let Ok(Some(bytes)) = backing.store.get(&key) {
                if let Ok(profile) = crate::persist::decode_profile(&bytes) {
                    return Arc::new(profile);
                }
            }
            let profile = build();
            // Best-effort write-back: a full disk must not take down the
            // serving path — the profile is still correct, just not
            // persisted.
            let _ = backing
                .store
                .put(&key, &crate::persist::encode_profile(&profile));
            return Arc::new(profile);
        }
        Arc::new(build())
    }

    /// How many profiles have been materialized so far.
    pub fn built_count(&self) -> usize {
        use minaret_concurrent::ConcurrentMap;
        self.slots.iter().filter(|s| s.get().is_some()).count() + self.overflow.len()
    }

    /// How many fixed (lock-free) slots the store was sized with. Ids
    /// beyond this take the sharded overflow path, so sizing from the
    /// actual world keeps the hot path `OnceLock`-only.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// True when a backing store is attached.
    pub fn is_persistent(&self) -> bool {
        self.backing.is_some()
    }
}

/// FNV-1a; all simulation noise is a pure function of hashed identifiers,
/// so a source's view of the world is stable across calls and runs.
fn hash64(parts: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &p in parts {
        for b in p.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A scripted fault injected into a [`SimulatedSource`] — the
/// deterministic counterpart of `SourceSpec::failure_rate`'s dice.
///
/// Schedules are keyed off the source's own call counter and the
/// injected [`Clock`], so every breaker transition and backoff decision
/// downstream of them is exactly reproducible: no sleeps, no randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultSchedule {
    /// No scripted faults (spec-driven behaviour only).
    #[default]
    Healthy,
    /// The first `failures` calls fail transiently, then the source
    /// recovers for good.
    FailThenRecover {
        /// How many leading calls fail.
        failures: u64,
    },
    /// Every call fails transiently — a dead service.
    PermanentOutage,
    /// Every call succeeds but takes `latency_micros` of injected-clock
    /// time — a stalled-but-alive service for deadline tests.
    Slow {
        /// Fixed per-call latency on the injected clock.
        latency_micros: u64,
    },
    /// Repeating rate-limit bursts: `allowed` calls succeed, then
    /// `limited` calls are rejected with `RateLimited`, forever.
    RateLimitBursts {
        /// Calls admitted per window.
        allowed: u64,
        /// Calls rejected after the window fills.
        limited: u64,
    },
}

/// One simulated scholarly website over a shared world — eager
/// ([`World`]) or lazy ([`LazyWorld`], profiles materialized from the
/// embedded store on first touch).
pub struct SimulatedSource {
    spec: SourceSpec,
    world: WorldHandle,
    fault: FaultSchedule,
    clock: Arc<dyn Clock>,
    salt: u64,
    /// normalized full display name -> scholars covered by this source.
    name_index: HashMap<String, Vec<ScholarId>>,
    /// normalized interest keyword -> scholars registering it here.
    interest_index: HashMap<String, Vec<ScholarId>>,
    /// Memoized profiles: built on first hit, `Arc`-shared ever after.
    profiles: ProfileStore,
    calls: AtomicU64,
    rate_window_used: AtomicU64,
    /// Bumped each time a lazy world materializes a profile from the
    /// store (`minaret_profile_lazy_builds_total`); a no-op handle
    /// until [`Self::with_telemetry`].
    lazy_builds: minaret_telemetry::Counter,
}

impl std::fmt::Debug for SimulatedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatedSource")
            .field("kind", &self.spec.kind)
            .field("names", &self.name_index.len())
            .finish()
    }
}

impl SimulatedSource {
    /// Builds the simulated source over a fully materialized world,
    /// precomputing its coverage and search indexes.
    pub fn new(spec: SourceSpec, world: Arc<World>) -> Self {
        Self::over(spec, WorldHandle::Eager(world))
    }

    /// Builds the simulated source over a lazy, store-backed world.
    /// Index construction reads only the compact per-scholar summaries
    /// (names and interest ids); full profiles are materialized from the
    /// store one community block at a time, on first touch. Serving is
    /// byte-identical to the eager path.
    pub fn lazy(spec: SourceSpec, world: Arc<LazyWorld>) -> Self {
        Self::over(spec, WorldHandle::Lazy(world))
    }

    /// Builds the simulated source over either world representation.
    pub fn over(spec: SourceSpec, world: WorldHandle) -> Self {
        let salt = hash64(&[spec.kind as u64 + 1, 0x5eed]);
        let mut name_index: HashMap<String, Vec<ScholarId>> = HashMap::new();
        let mut interest_index: HashMap<String, Vec<ScholarId>> = HashMap::new();
        // Index construction touches only summary data (id, name parts,
        // interest ids) — both world representations serve it without
        // materializing a single profile, which is what keeps a
        // 10^6-scholar cold start at index-build cost.
        world.for_each_summary(|id, given, family, interests| {
            if !Self::covered_static(salt, spec.coverage, id) {
                return;
            }
            let display = Self::display_name_parts(salt, &spec, id, given, family);
            name_index
                .entry(normalize_label(&display))
                .or_default()
                .push(id);
            // Also index under the unabbreviated name — sites match both.
            let full = normalize_label(&format!("{given} {family}"));
            let entry = name_index.entry(full).or_default();
            if !entry.contains(&id) {
                entry.push(id);
            }
            if spec.has_interests {
                for (i, &t) in interests.iter().enumerate() {
                    // Each interest survives onto the profile with p=0.85.
                    let keep = unit(hash64(&[salt, 0x1a7e, id.0 as u64, i as u64])) < 0.85;
                    if keep {
                        let label = normalize_label(world.ontology().label(t));
                        interest_index.entry(label).or_default().push(id);
                    }
                }
            }
        });
        let profiles = ProfileStore::with_capacity(world.scholar_count());
        Self {
            spec,
            world,
            fault: FaultSchedule::default(),
            clock: Arc::new(SystemClock::new()),
            salt,
            name_index,
            interest_index,
            profiles,
            calls: AtomicU64::new(0),
            rate_window_used: AtomicU64::new(0),
            lazy_builds: Telemetry::disabled().counter("minaret_profile_lazy_builds_total", &[]),
        }
    }

    /// Scripts a deterministic fault schedule onto this source.
    pub fn with_fault(mut self, fault: FaultSchedule) -> Self {
        self.fault = fault;
        self
    }

    /// Replaces the clock the source pays latency against (share one
    /// [`crate::SimulatedClock`] with the registry for deterministic
    /// deadline tests).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Backs this source's profile cache with an embedded store:
    /// profiles already persisted there are loaded instead of rebuilt,
    /// and freshly built ones are written back. Serving behaviour is
    /// byte-identical either way — profile construction is
    /// deterministic and the codec round-trips exactly.
    pub fn with_persistence(mut self, store: Arc<minaret_store::Store>) -> Self {
        self.profiles = ProfileStore::with_store(self.world.scholar_count(), store, self.spec.kind);
        self
    }

    /// Registers this source's metrics with `telemetry` — currently the
    /// `minaret_profile_lazy_builds_total` counter, labelled by source.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.lazy_builds = telemetry.counter(
            "minaret_profile_lazy_builds_total",
            &[("source", self.spec.kind.prefix())],
        );
        self
    }

    /// The source's simulation parameters.
    pub fn spec(&self) -> &SourceSpec {
        &self.spec
    }

    /// The scripted fault schedule, if any.
    pub fn fault(&self) -> FaultSchedule {
        self.fault
    }

    /// Number of scholars this source covers.
    pub fn covered_count(&self) -> usize {
        (0..self.world.scholar_count())
            .filter(|&i| Self::covered_static(self.salt, self.spec.coverage, ScholarId(i as u32)))
            .count()
    }

    fn covered_static(salt: u64, coverage: f64, id: ScholarId) -> bool {
        unit(hash64(&[salt, 0xc0ffee, id.0 as u64])) < coverage
    }

    fn display_name_parts(
        salt: u64,
        spec: &SourceSpec,
        id: ScholarId,
        given: &str,
        family: &str,
    ) -> String {
        if unit(hash64(&[salt, 0x4a3e, id.0 as u64])) < spec.name_noise {
            let initial = given.chars().next().unwrap_or('?');
            format!("{initial}. {family}")
        } else {
            format!("{given} {family}")
        }
    }

    /// The per-source key for a scholar — an opaque, source-specific id.
    pub fn key_for(&self, id: ScholarId) -> String {
        let obfuscated = hash64(&[self.salt, 0x6b, id.0 as u64]) & 0xffff_ffff;
        format!("{}:{obfuscated:08x}-{}", self.spec.kind.prefix(), id.0)
    }

    fn scholar_from_key(&self, key: &str) -> Option<ScholarId> {
        let rest = key
            .strip_prefix(self.spec.kind.prefix())?
            .strip_prefix(':')?;
        let (hash_part, idx) = rest.split_once('-')?;
        let id = ScholarId(idx.parse().ok()?);
        if id.index() >= self.world.scholar_count() {
            return None;
        }
        let expect = hash64(&[self.salt, 0x6b, id.0 as u64]) & 0xffff_ffff;
        if u64::from_str_radix(hash_part, 16).ok()? != expect {
            return None;
        }
        Some(id)
    }

    /// Fetches one profile by its per-source key (see [`Self::key_for`]).
    /// Pays one call, like a search.
    pub fn fetch_profile(&self, key: &str) -> Result<Arc<SourceProfile>, SourceError> {
        self.pay_call()?;
        let not_found = || SourceError::NotFound {
            source: self.spec.kind,
            key: key.to_string(),
        };
        let id = self.scholar_from_key(key).ok_or_else(not_found)?;
        if !Self::covered_static(self.salt, self.spec.coverage, id) {
            return Err(not_found());
        }
        Ok(self.profile(id))
    }

    /// Simulates per-call cost and failure; every public operation calls
    /// this exactly once. Scripted faults ([`FaultSchedule`]) are applied
    /// first — they are deterministic in the call sequence number — then
    /// the spec's probabilistic failure model.
    fn pay_call(&self) -> Result<(), SourceError> {
        if self.spec.latency_micros > 0 {
            self.clock.sleep_micros(self.spec.latency_micros);
        }
        let seq = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.fault {
            FaultSchedule::Healthy => {}
            FaultSchedule::FailThenRecover { failures } => {
                if seq < failures {
                    return Err(SourceError::Transient {
                        source: self.spec.kind,
                    });
                }
            }
            FaultSchedule::PermanentOutage => {
                return Err(SourceError::Transient {
                    source: self.spec.kind,
                });
            }
            FaultSchedule::Slow { latency_micros } => {
                self.clock.sleep_micros(latency_micros);
            }
            FaultSchedule::RateLimitBursts { allowed, limited } => {
                let window = allowed.saturating_add(limited).max(1);
                if seq % window >= allowed {
                    return Err(SourceError::RateLimited {
                        source: self.spec.kind,
                    });
                }
            }
        }
        if self.spec.rate_limit > 0 {
            let used = self.rate_window_used.fetch_add(1, Ordering::Relaxed);
            if used >= self.spec.rate_limit as u64 {
                // One rejection, then the window resets — a compressed
                // model of "back off and the limiter forgives you".
                self.rate_window_used.store(0, Ordering::Relaxed);
                return Err(SourceError::RateLimited {
                    source: self.spec.kind,
                });
            }
        }
        if self.spec.failure_rate > 0.0
            && unit(hash64(&[self.salt, 0xfa11, seq])) < self.spec.failure_rate
        {
            return Err(SourceError::Transient {
                source: self.spec.kind,
            });
        }
        Ok(())
    }

    /// One result page over an index slice: profiles for at most
    /// `max_hits` matches. Index entries are appended in scholar-id
    /// order, so the page is the deterministic first-K — and its size
    /// is what keeps search cost flat in the world size.
    fn page(&self, ids: &[ScholarId]) -> Vec<Arc<SourceProfile>> {
        let cap = match self.spec.max_hits {
            0 => ids.len(),
            cap => cap,
        };
        ids.iter().take(cap).map(|&id| self.profile(id)).collect()
    }

    /// The shared profile for `id`: built once via [`Self::build_profile`]
    /// on first request, an `Arc` clone ever after. Lazy worlds resolve
    /// the build against `id`'s community block (one cached point read);
    /// a store failure there is unrecoverable for a local embedded store
    /// and panics rather than serving a wrong profile.
    fn profile(&self, id: ScholarId) -> Arc<SourceProfile> {
        self.profiles.get_or_build(id, || {
            if self.world.is_lazy() {
                self.lazy_builds.inc();
            }
            self.world
                .try_scope(id, |scope| self.build_profile(scope, id))
                .expect("embedded world store failed while materializing a profile")
        })
    }

    /// Builds the profile a page fetch would return for `id`. The same
    /// code serves both world representations through [`WorldScope`],
    /// which is what makes lazy profiles byte-identical to eager ones.
    fn build_profile(&self, w: &dyn WorldScope, id: ScholarId) -> SourceProfile {
        let s = w.scholar(id);
        let spec = &self.spec;
        let display_name =
            Self::display_name_parts(self.salt, spec, id, &s.given_name, &s.family_name);

        let current_inst = w.institution(s.current_affiliation());
        let (affiliation, country) = (
            Some(current_inst.name.clone()),
            Some(current_inst.country.clone()),
        );
        let affiliation_history = if spec.has_affiliation_history {
            s.affiliations
                .iter()
                .map(|a| {
                    let inst = w.institution(a.institution);
                    AffiliationRecord {
                        institution: inst.name.clone(),
                        country: inst.country.clone(),
                        from_year: a.from_year,
                        to_year: a.to_year,
                    }
                })
                .collect()
        } else {
            Vec::new()
        };

        let interests = if spec.has_interests {
            s.interests
                .iter()
                .enumerate()
                .filter(|(i, _)| unit(hash64(&[self.salt, 0x1a7e, id.0 as u64, *i as u64])) < 0.85)
                .map(|(_, &t)| w.ontology().label(t).to_string())
                .collect()
        } else {
            Vec::new()
        };

        let mut publications = Vec::new();
        for p in w.papers_of(id) {
            if unit(hash64(&[self.salt, 0x9a9e2, p.id.0 as u64])) >= spec.publication_coverage {
                continue;
            }
            publications.push(Arc::new(SourcePublication {
                title: p.title.clone(),
                year: p.year,
                venue_name: w.venue(p.venue).name.clone(),
                coauthor_names: p
                    .authors
                    .iter()
                    .filter(|&&a| a != id)
                    .map(|&a| w.scholar(a).full_name())
                    .collect(),
                keywords: p
                    .topics
                    .iter()
                    .map(|&t| w.ontology().label(t).to_string())
                    .collect(),
                citations: if spec.has_metrics {
                    Some(p.citations)
                } else {
                    None
                },
            }));
        }

        let metrics = if spec.has_metrics {
            // Metrics reflect what *this source* indexes, like real sites.
            let mut cites: Vec<u32> = publications
                .iter()
                .map(|p| p.citations.unwrap_or(0))
                .collect();
            cites.sort_unstable_by(|a, b| b.cmp(a));
            let h = cites
                .iter()
                .enumerate()
                .take_while(|(rank, &c)| c as usize > *rank)
                .count() as u32;
            SourceMetrics {
                citations: Some(cites.iter().map(|&c| c as u64).sum()),
                h_index: Some(h),
                i10_index: Some(cites.iter().filter(|&&c| c >= 10).count() as u32),
            }
        } else {
            SourceMetrics::default()
        };

        let reviews = if spec.has_reviews {
            w.reviews_of(id)
                .into_iter()
                .map(|r| {
                    Arc::new(SourceReview {
                        venue_name: w.venue(r.venue).name.clone(),
                        year: r.year,
                        turnaround_days: r.turnaround_days,
                        quality: Some(r.quality),
                    })
                })
                .collect()
        } else {
            Vec::new()
        };

        SourceProfile {
            source: spec.kind,
            key: self.key_for(id),
            display_name,
            affiliation,
            country,
            affiliation_history,
            interests,
            publications,
            metrics,
            reviews,
            truth: id,
        }
    }
}

impl ScholarSource for SimulatedSource {
    fn kind(&self) -> SourceKind {
        self.spec.kind
    }

    fn supports_interest_search(&self) -> bool {
        self.spec.supports_interest_search
    }

    fn search_by_name(&self, name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
        self.pay_call()?;
        let needle = normalize_label(name);
        // Iterate the index slice in place — no per-lookup id-vector
        // clone — and hand out memoized profiles, one page's worth.
        let hits = match self.name_index.get(&needle) {
            Some(ids) => self.page(ids),
            None => Vec::new(),
        };
        Ok(hits)
    }

    /// One `pay_call` answers the whole batch: the interest index is
    /// precomputed, so per-label lookups are free once the (simulated)
    /// request cost is paid. Echoed labels are the caller's own
    /// `Arc<str>`s — no string clone per label — and every label is
    /// normalized into one reused buffer.
    fn search_by_interests(&self, labels: &[Arc<str>]) -> Result<LabeledHits, SourceError> {
        if !self.spec.supports_interest_search {
            return Err(SourceError::Unsupported {
                source: self.spec.kind,
                operation: "search by research interest",
            });
        }
        self.pay_call()?;
        let mut needle = String::new();
        Ok(labels
            .iter()
            .map(|label| {
                needle.clear();
                normalize_label_onto(label, &mut needle);
                let hits = match self.interest_index.get(&needle) {
                    Some(ids) => self.page(ids),
                    None => Vec::new(),
                };
                (label.clone(), hits)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_synth::{WorldConfig, WorldGenerator};

    fn world() -> Arc<World> {
        Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 200,
                ..Default::default()
            })
            .generate(),
        )
    }

    fn source(kind: SourceKind) -> SimulatedSource {
        SimulatedSource::new(SourceSpec::for_kind(kind), world())
    }

    /// The hits for `label` alone, asked as a one-label batch.
    fn search_one(s: &SimulatedSource, label: &str) -> Vec<Arc<SourceProfile>> {
        let (_, hits) = s
            .search_by_interests(&[Arc::from(label)])
            .unwrap()
            .remove(0);
        hits
    }

    #[test]
    fn coverage_is_partial_and_stable() {
        let s = source(SourceKind::Publons);
        let c1 = s.covered_count();
        let c2 = s.covered_count();
        assert_eq!(c1, c2);
        assert!(c1 > 50 && c1 < 200, "publons coverage {c1} out of range");
    }

    #[test]
    fn fetch_roundtrips_through_key() {
        let s = source(SourceKind::Dblp);
        let w = world();
        // Find a covered scholar.
        let id = w
            .scholars()
            .iter()
            .map(|sc| sc.id)
            .find(|&id| s.fetch_profile(&s.key_for(id)).is_ok())
            .expect("dblp covers 95%");
        let p = s.fetch_profile(&s.key_for(id)).unwrap();
        assert_eq!(p.truth, id);
        assert_eq!(p.source, SourceKind::Dblp);
    }

    #[test]
    fn bad_keys_are_not_found() {
        let s = source(SourceKind::Dblp);
        assert!(matches!(
            s.fetch_profile("dblp:zzzz-3"),
            Err(SourceError::NotFound { .. })
        ));
        assert!(matches!(
            s.fetch_profile("gs:00000000-3"),
            Err(SourceError::NotFound { .. })
        ));
        assert!(matches!(
            s.fetch_profile("dblp:00000000-999999"),
            Err(SourceError::NotFound { .. })
        ));
    }

    #[test]
    fn dblp_has_full_pubs_but_no_interests_or_metrics() {
        let s = source(SourceKind::Dblp);
        let w = world();
        for sc in w.scholars().iter().take(50) {
            if let Ok(p) = s.fetch_profile(&s.key_for(sc.id)) {
                assert!(p.interests.is_empty());
                assert_eq!(p.metrics, SourceMetrics::default());
                assert_eq!(p.publications.len(), w.papers_of(sc.id).len());
            }
        }
    }

    #[test]
    fn google_scholar_exposes_interests_and_metrics() {
        let s = source(SourceKind::GoogleScholar);
        let w = world();
        let mut saw_interests = false;
        let mut saw_metrics = false;
        for sc in w.scholars() {
            if let Ok(p) = s.fetch_profile(&s.key_for(sc.id)) {
                saw_interests |= !p.interests.is_empty();
                saw_metrics |= p.metrics.citations.is_some();
            }
        }
        assert!(saw_interests && saw_metrics);
    }

    #[test]
    fn publons_exposes_reviews() {
        let s = source(SourceKind::Publons);
        let w = world();
        let any_reviews = w.scholars().iter().any(|sc| {
            s.fetch_profile(&s.key_for(sc.id))
                .map(|p| !p.reviews.is_empty())
                .unwrap_or(false)
        });
        assert!(any_reviews);
    }

    #[test]
    fn orcid_exposes_affiliation_history() {
        let s = source(SourceKind::Orcid);
        let w = world();
        let any_history = w.scholars().iter().any(|sc| {
            s.fetch_profile(&s.key_for(sc.id))
                .map(|p| !p.affiliation_history.is_empty())
                .unwrap_or(false)
        });
        assert!(any_history);
    }

    #[test]
    fn interest_search_finds_registered_scholars() {
        let s = source(SourceKind::GoogleScholar);
        let w = world();
        // Take some scholar's interest and search for it.
        let sc = &w.scholars()[0];
        let label = w.ontology.label(sc.interests[0]);
        let hits = search_one(&s, label);
        for h in &hits {
            let normalized: Vec<String> = h.interests.iter().map(|i| normalize_label(i)).collect();
            assert!(normalized.contains(&normalize_label(label)));
        }
    }

    #[test]
    fn batched_interest_search_pays_one_call() {
        // FailThenRecover{1}: the first call fails. A batched query over
        // many labels must consume exactly one call-counter tick, so the
        // second batch (and everything after) succeeds.
        let s = SimulatedSource::new(SourceSpec::for_kind(SourceKind::GoogleScholar), world())
            .with_fault(FaultSchedule::FailThenRecover { failures: 1 });
        let labels: Vec<Arc<str>> = (0..10).map(|i| Arc::from(format!("label {i}"))).collect();
        assert!(s.search_by_interests(&labels).is_err(), "first call fails");
        assert!(
            s.search_by_interests(&labels).is_ok(),
            "one batch = one call; the fault schedule must have advanced exactly once"
        );
    }

    #[test]
    fn batched_interest_search_echoes_the_callers_labels() {
        let s = source(SourceKind::GoogleScholar);
        let w = world();
        let labels: Vec<Arc<str>> = w
            .scholars()
            .iter()
            .take(3)
            .map(|sc| Arc::from(w.ontology.label(sc.interests[0])))
            .collect();
        let batched = s.search_by_interests(&labels).unwrap();
        for ((echoed, _), sent) in batched.iter().zip(&labels) {
            assert!(
                Arc::ptr_eq(echoed, sent),
                "echoed label must share the caller's allocation"
            );
        }
    }

    #[test]
    fn batched_interest_search_rejected_by_incapable_source() {
        let s = source(SourceKind::Dblp);
        assert!(matches!(
            s.search_by_interests(&[Arc::from("databases")]),
            Err(SourceError::Unsupported { .. })
        ));
    }

    #[test]
    fn name_search_matches_collisions_together() {
        let w = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 300,
                name_collision_rate: 0.4,
                ..Default::default()
            })
            .generate(),
        );
        let s = SimulatedSource::new(SourceSpec::for_kind(SourceKind::Dblp), w.clone());
        // Find a name shared by several scholars. Pick one where at least
        // two holders are actually covered by this source — DBLP's
        // coverage is partial, so an arbitrary colliding name might have
        // only one covered holder.
        let mut counts: HashMap<String, Vec<ScholarId>> = HashMap::new();
        for sc in w.scholars() {
            counts.entry(sc.full_name()).or_default().push(sc.id);
        }
        let (name, covered) = counts
            .iter()
            .filter(|(_, v)| v.len() >= 2)
            .map(|(name, ids)| {
                let covered: Vec<_> = ids
                    .iter()
                    .copied()
                    .filter(|&id| s.fetch_profile(&s.key_for(id)).is_ok())
                    .collect();
                (name, covered)
            })
            .find(|(_, covered)| covered.len() >= 2)
            .expect("collision sample too small");
        let hits = s.search_by_name(name).unwrap();
        // All covered holders of the name are returned.
        let got: std::collections::HashSet<ScholarId> = hits.iter().map(|p| p.truth).collect();
        for id in covered {
            assert!(got.contains(&id));
        }
    }

    #[test]
    fn failure_injection_is_retriable() {
        let mut spec = SourceSpec::for_kind(SourceKind::GoogleScholar);
        spec.failure_rate = 0.5;
        let s = SimulatedSource::new(spec, world());
        let mut failures = 0;
        let mut successes = 0;
        for _ in 0..100 {
            match s.search_by_name("nobody") {
                Ok(_) => successes += 1,
                Err(e) => {
                    assert!(e.is_retriable());
                    failures += 1;
                }
            }
        }
        assert!(
            failures > 20 && successes > 20,
            "f={failures} s={successes}"
        );
    }

    #[test]
    fn rate_limit_triggers_then_recovers() {
        let mut spec = SourceSpec::for_kind(SourceKind::Dblp);
        spec.rate_limit = 5;
        let s = SimulatedSource::new(spec, world());
        let mut limited = false;
        for _ in 0..12 {
            if matches!(s.search_by_name("x"), Err(SourceError::RateLimited { .. })) {
                limited = true;
                break;
            }
        }
        assert!(limited);
        // After the rejection, the window resets and calls succeed again.
        assert!(s.search_by_name("x").is_ok());
    }

    #[test]
    fn fail_then_recover_schedule_is_exact() {
        let s = SimulatedSource::new(SourceSpec::for_kind(SourceKind::Dblp), world())
            .with_fault(FaultSchedule::FailThenRecover { failures: 3 });
        for i in 0..3 {
            assert!(
                matches!(s.search_by_name("x"), Err(SourceError::Transient { .. })),
                "call {i} should fail"
            );
        }
        for _ in 0..5 {
            assert!(
                s.search_by_name("x").is_ok(),
                "recovered source must stay up"
            );
        }
    }

    #[test]
    fn permanent_outage_never_recovers() {
        let s = SimulatedSource::new(SourceSpec::for_kind(SourceKind::Dblp), world())
            .with_fault(FaultSchedule::PermanentOutage);
        for _ in 0..10 {
            assert!(matches!(
                s.search_by_name("x"),
                Err(SourceError::Transient { .. })
            ));
        }
    }

    #[test]
    fn slow_schedule_charges_the_injected_clock() {
        let clock = crate::clock::SimulatedClock::new();
        let s = SimulatedSource::new(SourceSpec::for_kind(SourceKind::Dblp), world())
            .with_fault(FaultSchedule::Slow {
                latency_micros: 40_000,
            })
            .with_clock(clock.clone());
        assert!(s.search_by_name("x").is_ok());
        assert_eq!(clock.now_micros(), 40_000);
        assert!(s.search_by_name("x").is_ok());
        assert_eq!(clock.now_micros(), 80_000, "each call pays fixed latency");
    }

    #[test]
    fn rate_limit_bursts_repeat_exactly() {
        let s = SimulatedSource::new(SourceSpec::for_kind(SourceKind::Dblp), world()).with_fault(
            FaultSchedule::RateLimitBursts {
                allowed: 2,
                limited: 1,
            },
        );
        for window in 0..3 {
            for _ in 0..2 {
                assert!(s.search_by_name("x").is_ok(), "window {window}");
            }
            assert!(
                matches!(s.search_by_name("x"), Err(SourceError::RateLimited { .. })),
                "window {window} third call must be limited"
            );
        }
    }

    #[test]
    fn persistent_profiles_round_trip_through_the_store() {
        let dir = std::env::temp_dir().join(format!("minaret-sim-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let w = world();
        let fresh =
            SimulatedSource::new(SourceSpec::for_kind(SourceKind::GoogleScholar), w.clone());
        let id = w.scholars()[3].id;
        let expected = fresh.fetch_profile(&fresh.key_for(id)).unwrap();

        // First persistent source: builds and writes back.
        {
            let store = Arc::new(
                minaret_store::Store::open(&dir, minaret_store::StoreConfig::default()).unwrap(),
            );
            let s =
                SimulatedSource::new(SourceSpec::for_kind(SourceKind::GoogleScholar), w.clone())
                    .with_persistence(store.clone());
            assert!(s.profiles.is_persistent());
            assert_eq!(*s.fetch_profile(&s.key_for(id)).unwrap(), *expected);
            store.flush().unwrap();
        }
        // Second process: the profile is loaded from disk, not rebuilt,
        // and is byte-identical to the fresh build.
        let store = Arc::new(
            minaret_store::Store::open(&dir, minaret_store::StoreConfig::default()).unwrap(),
        );
        assert!(store
            .get(&crate::persist::profile_key(SourceKind::GoogleScholar, id))
            .unwrap()
            .is_some());
        let s = SimulatedSource::new(SourceSpec::for_kind(SourceKind::GoogleScholar), w.clone())
            .with_persistence(store.clone());
        assert_eq!(*s.fetch_profile(&s.key_for(id)).unwrap(), *expected);
        drop(s);
        drop(store);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn profiles_are_deterministic() {
        let s = source(SourceKind::GoogleScholar);
        let w = world();
        let id = w.scholars()[3].id;
        let key = s.key_for(id);
        if let (Ok(a), Ok(b)) = (s.fetch_profile(&key), s.fetch_profile(&key)) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn profile_store_shares_one_allocation_across_entry_points() {
        let s = source(SourceKind::GoogleScholar);
        let w = world();
        // Find a covered scholar via fetch, then reach the same profile
        // through name search: both must hand out the same Arc.
        let (id, fetched) = w
            .scholars()
            .iter()
            .find_map(|sc| s.fetch_profile(&s.key_for(sc.id)).ok().map(|p| (sc.id, p)))
            .expect("gs covers most scholars");
        let by_name = s.search_by_name(&fetched.display_name).unwrap();
        let same = by_name
            .iter()
            .find(|p| p.truth == id)
            .expect("name search must find the fetched scholar");
        assert!(
            Arc::ptr_eq(&fetched, same),
            "memoized store must share, not rebuild"
        );
        let again = s.fetch_profile(&s.key_for(id)).unwrap();
        assert!(Arc::ptr_eq(&fetched, &again));
    }

    #[test]
    fn profile_store_grows_past_its_fixed_slots() {
        // A store sized for 2 scholars asked about id 40: the overflow
        // path must build (once) instead of panicking on the slot index.
        let store = ProfileStore::with_capacity(2);
        let make = |id: ScholarId| SourceProfile {
            source: SourceKind::GoogleScholar,
            key: format!("gs:{}", id.index()),
            display_name: "Late Arrival".into(),
            affiliation: None,
            country: None,
            affiliation_history: vec![],
            interests: vec![],
            publications: vec![],
            metrics: Default::default(),
            reviews: vec![],
            truth: id,
        };
        let id = ScholarId(40);
        let a = store.get_or_build(id, || make(id));
        let b = store.get_or_build(id, || panic!("already built"));
        assert!(Arc::ptr_eq(&a, &b), "overflow entries build once");
        assert_eq!(store.built_count(), 1);
        // In-range ids still use their fixed slot.
        let low = ScholarId(1);
        let c = store.get_or_build(low, || make(low));
        assert_eq!(c.truth, low);
        assert_eq!(store.built_count(), 2);
    }

    #[test]
    fn profile_store_is_sized_from_the_world() {
        let w = world();
        let s = SimulatedSource::new(SourceSpec::for_kind(SourceKind::Dblp), w.clone());
        assert_eq!(s.profiles.slot_capacity(), w.scholars().len());
        assert_eq!(ProfileStore::with_capacity(7).slot_capacity(), 7);
    }

    #[test]
    fn search_results_are_capped_at_one_page() {
        let mut spec = SourceSpec::for_kind(SourceKind::GoogleScholar);
        spec.max_hits = 2;
        let w = world();
        let s = SimulatedSource::new(spec.clone(), w.clone());
        // Pick an interest label registered by more than two scholars.
        let (label, all_ids) = s
            .interest_index
            .iter()
            .find(|(_, ids)| ids.len() > 2)
            .map(|(l, ids)| (l.clone(), ids.clone()))
            .expect("some interest is popular enough");
        let page = search_one(&s, &label);
        assert_eq!(page.len(), 2, "page cap must truncate");
        // Deterministic first-K in scholar-id order.
        let got: Vec<ScholarId> = page.iter().map(|p| p.truth).collect();
        assert_eq!(got, all_ids[..2].to_vec());
        // An uncapped source returns every match.
        spec.max_hits = 0;
        let unbounded = SimulatedSource::new(spec, w);
        assert_eq!(search_one(&unbounded, &label).len(), all_ids.len());
    }

    fn lazy_source_pair(
        kind: SourceKind,
        tag: &str,
    ) -> (
        SimulatedSource,
        SimulatedSource,
        Arc<World>,
        std::path::PathBuf,
    ) {
        use minaret_synth::{stream_snapshot_world, StreamingGenerator};
        let dir =
            std::env::temp_dir().join(format!("minaret-sim-lazy-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = WorldConfig {
            scholars: 200,
            ..Default::default()
        };
        let w = Arc::new(WorldGenerator::new(cfg.clone()).generate());
        let store = Arc::new(
            minaret_store::Store::open(&dir, minaret_store::StoreConfig::default()).unwrap(),
        );
        stream_snapshot_world(&store, &StreamingGenerator::new(cfg), |_| {}).unwrap();
        let lazy_world = minaret_synth::LazyWorld::open(store).unwrap().unwrap();
        let eager = SimulatedSource::new(SourceSpec::for_kind(kind), w.clone());
        let lazy = SimulatedSource::lazy(SourceSpec::for_kind(kind), lazy_world);
        (eager, lazy, w, dir)
    }

    #[test]
    fn lazy_source_serves_profiles_identical_to_eager() {
        let (eager, lazy, w, dir) = lazy_source_pair(SourceKind::GoogleScholar, "profiles");
        assert!(lazy.world.is_lazy());
        assert_eq!(lazy.name_index, eager.name_index);
        assert_eq!(lazy.interest_index, eager.interest_index);
        assert_eq!(lazy.covered_count(), eager.covered_count());
        for sc in w.scholars() {
            let key = eager.key_for(sc.id);
            assert_eq!(key, lazy.key_for(sc.id));
            match (eager.fetch_profile(&key), lazy.fetch_profile(&key)) {
                (Ok(a), Ok(b)) => assert_eq!(*a, *b, "profiles diverge for {key}"),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("coverage diverges for {key}: {a:?} vs {b:?}"),
            }
        }
        drop(lazy);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn lazy_source_search_matches_eager() {
        let (eager, lazy, w, dir) = lazy_source_pair(SourceKind::Publons, "search");
        let sc = &w.scholars()[0];
        assert_eq!(
            eager.search_by_name(&sc.full_name()).unwrap(),
            lazy.search_by_name(&sc.full_name()).unwrap()
        );
        let label = w.ontology.label(sc.interests[0]);
        assert_eq!(search_one(&eager, label), search_one(&lazy, label));
        drop(lazy);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn lazy_builds_counter_counts_materializations() {
        let (_eager, lazy, w, dir) = lazy_source_pair(SourceKind::Dblp, "telemetry");
        let telemetry = Telemetry::new();
        let lazy = lazy.with_telemetry(&telemetry);
        let mut fetched = 0;
        for sc in w.scholars().iter().take(20) {
            if lazy.fetch_profile(&lazy.key_for(sc.id)).is_ok() {
                fetched += 1;
            }
            // A second fetch hits the memoized Arc — no new build.
            let _ = lazy.fetch_profile(&lazy.key_for(sc.id));
        }
        assert!(fetched > 0);
        let snapshot = telemetry.snapshot();
        let series = snapshot
            .iter()
            .find(|m| m.name == "minaret_profile_lazy_builds_total")
            .expect("lazy build counter registered");
        assert!(
            matches!(
                series.value,
                minaret_telemetry::SnapshotValue::Counter(n) if n == fetched
            ),
            "lazy builds counted {:?}, fetched {fetched}",
            series.value
        );
        drop(lazy);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
