//! The `/recommend` result cache, proven at the route layer: a counting
//! source shows the hit path performs **zero** fan-outs, the bodies are
//! byte-identical, expiry runs on an injected simulated clock (no
//! sleeps), and degraded answers are never pinned.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use minaret::http::{Method, Request, Router};
use minaret::json::Value;
use minaret::prelude::*;
use minaret::scholarly::{LabeledHits, SourceError, SourceProfile};
use minaret_server::{build_router, AppState, ResultCache};
use minaret_telemetry::Telemetry;

/// Counts every call that reaches the wrapped source.
struct CountingSource {
    inner: SimulatedSource,
    calls: Arc<AtomicU64>,
}

impl ScholarSource for CountingSource {
    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }
    fn supports_interest_search(&self) -> bool {
        self.inner.supports_interest_search()
    }
    fn search_by_name(&self, name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.search_by_name(name)
    }
    fn search_by_interests(&self, labels: &[Arc<str>]) -> Result<LabeledHits, SourceError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.search_by_interests(labels)
    }
}

struct Harness {
    state: Arc<AppState>,
    router: Router,
    calls: Arc<AtomicU64>,
    clock: Arc<SimulatedClock>,
    telemetry: Telemetry,
}

const TTL_MICROS: u64 = 5_000_000;

/// Demo-like state over counting sources, with a result cache driven by
/// a simulated clock. `fault` optionally breaks one extra source so the
/// pipeline reports `degraded: true`.
fn harness(degraded: bool) -> Harness {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(120)).generate());
    let telemetry = Telemetry::new();
    let clock = SimulatedClock::new();
    let calls = Arc::new(AtomicU64::new(0));
    let mut registry = SourceRegistry::new(RegistryConfig {
        max_retries: 0,
        concurrent: false,
        resilience: ResilienceConfig::default(),
    });
    let mut specs = SourceSpec::all_defaults().into_iter();
    let first = specs.next().unwrap();
    registry.register(Arc::new(CountingSource {
        inner: SimulatedSource::new(first, world.clone()),
        calls: calls.clone(),
    }) as Arc<dyn ScholarSource>);
    if degraded {
        // Publons supports interest search, so its outage shows up in
        // the fan-out ledger and flips the report to degraded.
        let publons = specs.find(|s| s.kind == SourceKind::Publons).unwrap();
        registry.register(Arc::new(
            SimulatedSource::new(publons, world.clone()).with_fault(FaultSchedule::PermanentOutage),
        ) as Arc<dyn ScholarSource>);
    }
    let cache = Arc::new(
        ResultCache::new(TTL_MICROS, 64)
            .with_clock(clock.clone())
            .with_telemetry(telemetry.clone()),
    );
    let state = AppState::with_registry_and_cache(
        world,
        Arc::new(registry),
        telemetry.clone(),
        Some(cache),
    );
    let router = build_router(state.clone());
    Harness {
        state,
        router,
        calls,
        clock,
        telemetry,
    }
}

fn post(router: &Router, path: &str, body: &str) -> minaret::http::Response {
    router.dispatch(&Request {
        method: Method::Post,
        path: path.into(),
        query: vec![],
        headers: vec![],
        body: body.as_bytes().to_vec(),
        minor_version: 1,
        deadline: None,
    })
}

fn manuscript_body(state: &AppState, title: &str) -> String {
    let lead = state
        .world
        .scholars()
        .iter()
        .find(|s| !state.world.papers_of(s.id).is_empty())
        .expect("a published scholar exists");
    let keywords: Vec<Value> = lead
        .interests
        .iter()
        .take(2)
        .map(|&t| Value::from(state.world.ontology.label(t)))
        .collect();
    Value::object()
        .set("title", title)
        .set("keywords", keywords)
        .set(
            "authors",
            vec![Value::object().set("name", lead.full_name().as_str())],
        )
        .set("target_venue", state.world.venues()[0].name.as_str())
        .to_string()
}

#[test]
fn identical_requests_are_served_from_cache_with_zero_fan_outs() {
    let h = harness(false);
    let body = manuscript_body(&h.state, "Cached manuscript");

    let first = post(&h.router, "/recommend", &body);
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    let uncached_calls = h.calls.load(Ordering::SeqCst);
    assert!(uncached_calls > 0, "the miss path reached the sources");

    let second = post(&h.router, "/recommend", &body);
    assert_eq!(second.status, 200);
    assert_eq!(
        first.body, second.body,
        "cache hit must be byte-identical to the miss that filled it"
    );
    assert_eq!(
        h.calls.load(Ordering::SeqCst),
        uncached_calls,
        "the hit path performed zero source calls"
    );
    assert_eq!(
        h.telemetry
            .counter("minaret_result_cache_hits_total", &[])
            .get(),
        1
    );

    // A different manuscript is a different fingerprint: miss.
    let other = manuscript_body(&h.state, "A different manuscript");
    let third = post(&h.router, "/recommend", &other);
    assert_eq!(third.status, 200);
    assert!(h.calls.load(Ordering::SeqCst) > uncached_calls);

    // A different editor config over the *same* manuscript is also a
    // different fingerprint.
    let calls_before = h.calls.load(Ordering::SeqCst);
    let reconfigured =
        body.trim_end_matches('}').to_string() + r#","config":{"max_recommendations":3}}"#;
    let fourth = post(&h.router, "/recommend", &reconfigured);
    assert_eq!(fourth.status, 200);
    assert!(h.calls.load(Ordering::SeqCst) > calls_before);
}

#[test]
fn entries_expire_on_the_simulated_clock() {
    let h = harness(false);
    let body = manuscript_body(&h.state, "Expiring manuscript");
    let first = post(&h.router, "/recommend", &body);
    assert_eq!(first.status, 200);
    let calls_after_fill = h.calls.load(Ordering::SeqCst);

    // Still inside the TTL: a hit.
    h.clock.advance(TTL_MICROS - 1);
    post(&h.router, "/recommend", &body);
    assert_eq!(h.calls.load(Ordering::SeqCst), calls_after_fill);

    // One more microsecond: expired, evicted on read, re-fanned-out.
    h.clock.advance(1);
    let refreshed = post(&h.router, "/recommend", &body);
    assert_eq!(refreshed.status, 200);
    assert!(h.calls.load(Ordering::SeqCst) > calls_after_fill);
    assert_eq!(
        h.telemetry
            .counter("minaret_result_cache_evictions_total", &[("cause", "ttl")])
            .get(),
        1
    );
}

#[test]
fn invalidation_hook_forces_recomputation() {
    let h = harness(false);
    let body = manuscript_body(&h.state, "Invalidated manuscript");
    assert_eq!(post(&h.router, "/recommend", &body).status, 200);
    let calls_after_fill = h.calls.load(Ordering::SeqCst);

    let resp = post(&h.router, "/cache/invalidate", "");
    assert_eq!(resp.status, 200);
    let v = minaret::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(v.get("invalidated").and_then(Value::as_u64), Some(1));
    assert!(h.state.result_cache.as_ref().unwrap().is_empty());

    assert_eq!(post(&h.router, "/recommend", &body).status, 200);
    assert!(
        h.calls.load(Ordering::SeqCst) > calls_after_fill,
        "post-invalidation request recomputed"
    );
}

#[test]
fn ttl_expiry_is_per_entry_and_stays_on_its_shard() {
    // Expiry is per entry: the one entry past its TTL is evicted on
    // read, and no other entry goes with it.
    let clock = SimulatedClock::new();
    let cache = ResultCache::new(1_000, 64).with_clock(clock.clone());
    cache.insert(1, b"early".to_vec());
    clock.advance(600);
    cache.insert(2, b"late".to_vec());
    cache.insert(3, b"also late".to_vec());
    // At t=1000 the early entry is expired; the later ones are live.
    clock.advance(400);
    assert!(cache.get(1).is_none(), "expired exactly at the TTL");
    assert!(cache.get(2).is_some(), "later insert");
    assert!(cache.get(3).is_some(), "later insert");
    assert_eq!(cache.len(), 2, "expired entry evicted on read");
}

#[test]
fn fifo_overflow_evicts_within_the_shard_not_across() {
    // The whole cache is one FIFO holding exactly its capacity: past
    // it, every insert evicts the oldest entry, whatever its key.
    let cache = ResultCache::new(1_000_000, 8);
    for k in 0..16u64 {
        cache.insert(k, b"x".to_vec());
    }
    assert_eq!(cache.len(), 8, "exactly the capacity");
    for k in 0..8u64 {
        assert!(cache.get(k).is_none(), "key {k}: among the oldest");
    }
    for k in 8..16u64 {
        assert!(cache.get(k).is_some(), "key {k}: among the newest");
    }
}

#[test]
fn a_ttl_dead_shard_does_not_shed_fresh_insertions() {
    // Regression: expired entries used to occupy FIFO capacity until
    // someone happened to *read* them. A cache filled with TTL-dead
    // entries (written once, never re-read) stayed "full", so a burst
    // of fresh insertions FIFO-evicted its own newest members instead
    // of the corpses. Inserts now sweep expired entries first.
    let clock = SimulatedClock::new();
    let cache = ResultCache::new(1_000, 3).with_clock(clock.clone());
    for k in 0..3u64 {
        cache.insert(k, b"dead".to_vec());
    }
    // Every entry expires; nothing reads the cache in between.
    clock.advance(1_000);
    // Three fresh entries all fit: the sweep reclaims the expired
    // slots, so no fresh entry is evicted.
    for k in 3..6u64 {
        cache.insert(k, b"fresh".to_vec());
    }
    for k in 3..6u64 {
        assert!(cache.get(k).is_some(), "fresh entry {k} survives");
    }
    for k in 0..3u64 {
        assert!(cache.get(k).is_none(), "the corpses are gone");
    }
    assert_eq!(cache.len(), 3, "only the live entries remain");
}

#[test]
fn single_invalidation_retires_one_fingerprint_and_spares_the_rest() {
    let h = harness(false);
    let body_a = manuscript_body(&h.state, "Submission A");
    let body_b = manuscript_body(&h.state, "Submission B");
    assert_eq!(post(&h.router, "/recommend", &body_a).status, 200);
    assert_eq!(post(&h.router, "/recommend", &body_b).status, 200);
    assert_eq!(h.state.result_cache.as_ref().unwrap().len(), 2);
    let calls_after_fill = h.calls.load(Ordering::SeqCst);

    // Invalidate A by its manuscript body: scope=single, one entry out.
    let resp = post(&h.router, "/cache/invalidate", &body_a);
    assert_eq!(resp.status, 200);
    let v = minaret::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(v.get("scope").and_then(Value::as_str), Some("single"));
    assert_eq!(v.get("invalidated").and_then(Value::as_u64), Some(1));
    assert_eq!(h.state.result_cache.as_ref().unwrap().len(), 1);

    // B is still served with zero fan-outs; A recomputes.
    assert_eq!(post(&h.router, "/recommend", &body_b).status, 200);
    assert_eq!(
        h.calls.load(Ordering::SeqCst),
        calls_after_fill,
        "the surviving fingerprint still hits"
    );
    assert_eq!(post(&h.router, "/recommend", &body_a).status, 200);
    assert!(
        h.calls.load(Ordering::SeqCst) > calls_after_fill,
        "the invalidated fingerprint recomputed"
    );

    // Re-invalidating A (just recomputed) hits; drop-everything then
    // clears the rest.
    let resp = post(&h.router, "/cache/invalidate", &body_a);
    let v = minaret::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(v.get("invalidated").and_then(Value::as_u64), Some(1));
    let resp = post(&h.router, "/cache/invalidate", "");
    let v = minaret::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(v.get("scope").and_then(Value::as_str), Some("all"));
    assert_eq!(v.get("invalidated").and_then(Value::as_u64), Some(1));
    assert!(h.state.result_cache.as_ref().unwrap().is_empty());
}

#[test]
fn degraded_responses_are_never_cached() {
    let h = harness(true);
    let body = manuscript_body(&h.state, "Manuscript during an outage");
    let first = post(&h.router, "/recommend", &body);
    assert_eq!(
        first.status,
        200,
        "{}",
        String::from_utf8_lossy(&first.body)
    );
    let v = minaret::json::parse(std::str::from_utf8(&first.body).unwrap()).unwrap();
    assert_eq!(
        v.get("degraded").and_then(Value::as_bool),
        Some(true),
        "harness precondition: the outage makes the run degraded"
    );
    assert!(h.state.result_cache.as_ref().unwrap().is_empty());

    let calls_after_first = h.calls.load(Ordering::SeqCst);
    let second = post(&h.router, "/recommend", &body);
    assert_eq!(second.status, 200);
    assert!(
        h.calls.load(Ordering::SeqCst) > calls_after_first,
        "a degraded answer is recomputed, not pinned for a TTL"
    );
}
