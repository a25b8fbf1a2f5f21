//! Deterministic concurrency: a batch `/assign` and a `/recommend` that
//! share the same manuscript must coalesce onto ONE interest fan-out.
//!
//! The blocking primitive is a condvar gate inside the wrapped source
//! (the same technique as `load_shedding.rs`), not a sleep: the test
//! *knows* the assign fan-out is wedged inside the source (gate counts
//! blocked threads) and *knows* the recommend fan-out became a follower
//! (`coalesced_count`), so every assertion fires on a proven
//! interleaving rather than a timing guess.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use minaret::json::Value;
use minaret::prelude::*;
use minaret::scholarly::{LabeledHits, ScholarSource, SourceError, SourceProfile};
use minaret_server::{build_router, AppState};
use minaret_telemetry::Telemetry;

/// A condvar gate: threads entering `pass` block until `open`, and the
/// test can wait until exactly `n` threads are blocked inside.
struct Gate {
    state: Mutex<(bool, usize)>, // (open, currently blocked)
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new((false, 0)),
            cv: Condvar::new(),
        })
    }

    fn pass(&self) {
        let mut s = self.state.lock().unwrap();
        s.1 += 1;
        self.cv.notify_all();
        while !s.0 {
            s = self.cv.wait(s).unwrap();
        }
        s.1 -= 1;
        self.cv.notify_all();
    }

    /// Blocks until `n` threads are waiting inside the gate.
    fn wait_blocked(&self, n: usize) {
        let mut s = self.state.lock().unwrap();
        while s.1 < n {
            s = self.cv.wait(s).unwrap();
        }
    }

    fn blocked(&self) -> usize {
        self.state.lock().unwrap().1
    }

    fn open(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 = true;
        self.cv.notify_all();
    }
}

/// Wraps a source so only the *batched interest fan-out* must pass the
/// gate (and is counted); name/profile lookups stay free so the rest of
/// each pipeline runs unimpeded.
struct GatedSource {
    inner: SimulatedSource,
    gate: Arc<Gate>,
    batched: AtomicUsize,
}

impl ScholarSource for GatedSource {
    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }
    fn supports_interest_search(&self) -> bool {
        self.inner.supports_interest_search()
    }
    fn search_by_name(&self, name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
        self.inner.search_by_name(name)
    }
    fn search_by_interests(&self, labels: &[Arc<str>]) -> Result<LabeledHits, SourceError> {
        self.batched.fetch_add(1, Ordering::SeqCst);
        self.gate.pass();
        self.inner.search_by_interests(labels)
    }
}

fn dispatch(router: &minaret::http::Router, path: &str, body: &str) -> minaret::http::Response {
    router.dispatch(&minaret::http::Request {
        method: minaret::http::Method::Post,
        path: path.into(),
        query: vec![],
        headers: vec![],
        body: body.as_bytes().to_vec(),
        minor_version: 1,
        deadline: None,
    })
}

#[test]
fn concurrent_assign_and_recommend_coalesce_onto_one_fanout() {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(250)).generate());
    let telemetry = Telemetry::new();
    let gate = Gate::new();
    let mut registry = SourceRegistry::with_telemetry(
        RegistryConfig {
            max_retries: 0,
            concurrent: false,
            resilience: ResilienceConfig::default(),
        },
        telemetry.clone(),
    );
    let spec = SourceSpec::all_defaults().into_iter().next().unwrap();
    let prefix = spec.kind.prefix();
    let source = Arc::new(GatedSource {
        inner: SimulatedSource::new(spec, world.clone()),
        gate: gate.clone(),
        batched: AtomicUsize::new(0),
    });
    registry.register(source.clone() as Arc<dyn ScholarSource>);
    let state = AppState::with_registry(world, Arc::new(registry), telemetry);
    let router = Arc::new(build_router(state.clone()));

    // One manuscript shared by both requests: identical keywords expand
    // to the identical normalized label set, which is the coalescing key.
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
    let manuscript = Value::object()
        .set("title", "Coalescing under concurrent assignment")
        .set("keywords", keywords)
        .set(
            "authors",
            vec![Value::object().set("name", lead.full_name().as_str())],
        )
        .set("target_venue", state.world.venues()[0].name.as_str());
    let assign_body = Value::object()
        .set("manuscripts", vec![manuscript.clone()])
        .set(
            "spec",
            Value::object()
                .set("reviewers_per_paper", 2u64)
                .set("max_load", 3u64),
        )
        .to_string();
    let recommend_body = manuscript.to_string();

    // Thread A: /assign. Its single batched fan-out wedges in the gate
    // while it *leads* the coalescing cell.
    let router_a = router.clone();
    let a = std::thread::spawn(move || dispatch(&router_a, "/assign", &assign_body));
    gate.wait_blocked(1);

    // Thread B: /recommend over the same label set. It must become a
    // follower of A's in-flight fan-out — never a second gate entrant.
    let router_b = router.clone();
    let b = std::thread::spawn(move || dispatch(&router_b, "/recommend", &recommend_body));
    while state.registry.coalesced_count() < 1 {
        assert!(
            gate.blocked() < 2,
            "recommend started a second fan-out instead of coalescing"
        );
        std::thread::yield_now();
    }

    // With one leader wedged and one follower parked, telemetry must
    // still be readable: no lock is held across either wait.
    let mid = router.dispatch(&minaret::http::Request {
        method: minaret::http::Method::Get,
        path: "/metrics".into(),
        query: vec![],
        headers: vec![],
        body: vec![],
        minor_version: 1,
        deadline: None,
    });
    assert_eq!(mid.status, 200);

    gate.open();
    let assign_resp = a.join().unwrap();
    let recommend_resp = b.join().unwrap();
    assert_eq!(
        assign_resp.status,
        200,
        "{}",
        String::from_utf8_lossy(&assign_resp.body)
    );
    assert_eq!(
        recommend_resp.status,
        200,
        "{}",
        String::from_utf8_lossy(&recommend_resp.body)
    );
    let v = minaret::json::parse(std::str::from_utf8(&assign_resp.body).unwrap()).unwrap();
    assert_eq!(
        v.get("papers")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(1)
    );

    // Exactly one batched call reached the source; the recommend side
    // shared its result.
    assert_eq!(source.batched.load(Ordering::SeqCst), 1);
    assert_eq!(state.registry.coalesced_count(), 1);

    // And the shared telemetry registry came through uncorrupted: one
    // 200 per route, one coalesced follower, no source errors.
    let after = router.dispatch(&minaret::http::Request {
        method: minaret::http::Method::Get,
        path: "/metrics".into(),
        query: vec![],
        headers: vec![],
        body: vec![],
        minor_version: 1,
        deadline: None,
    });
    assert_eq!(after.status, 200);
    let text = String::from_utf8(after.body).unwrap();
    for needle in [
        "minaret_http_requests_total{route=\"/assign\",status=\"200\"} 1".to_string(),
        "minaret_http_requests_total{route=\"/recommend\",status=\"200\"} 1".to_string(),
        format!("minaret_fanout_coalesced_total{{source=\"{prefix}\"}} 1"),
    ] {
        assert!(text.contains(&needle), "missing {needle:?} in:\n{text}");
    }
}
