//! Deterministic overload harness for the admission-controlled server.
//!
//! The blocking primitive is a condvar gate inside a wrapped scholarly
//! source, not a sleep: the test *knows* when both workers are wedged
//! (the gate counts blocked threads) and *knows* when the queue is full
//! (`Server::queue_depth`), so every assertion fires on a proven state
//! rather than a timing guess.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};

use minaret::http::{KeepAliveConfig, Response, Router, Server, ServerConfig};
use minaret::prelude::*;
use minaret::scholarly::{LabeledHits, SourceError, SourceProfile};
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

    fn open(&self) {
        let mut s = self.state.lock().unwrap();
        s.0 = true;
        self.cv.notify_all();
    }
}

/// Wraps a source so every call must pass the gate first.
struct GatedSource {
    inner: SimulatedSource,
    gate: Arc<Gate>,
}

impl ScholarSource for GatedSource {
    fn kind(&self) -> SourceKind {
        self.inner.kind()
    }
    fn supports_interest_search(&self) -> bool {
        self.inner.supports_interest_search()
    }
    fn search_by_name(&self, name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
        self.gate.pass();
        self.inner.search_by_name(name)
    }
    fn search_by_interests(&self, labels: &[Arc<str>]) -> Result<LabeledHits, SourceError> {
        self.gate.pass();
        self.inner.search_by_interests(labels)
    }
}

/// App state whose single source is gated; fan-outs run on the calling
/// worker thread (`concurrent: false`) so a closed gate provably wedges
/// the HTTP worker itself.
fn gated_state(gate: Arc<Gate>, telemetry: Telemetry) -> Arc<AppState> {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(60)).generate());
    let mut registry = SourceRegistry::with_telemetry(
        RegistryConfig {
            max_retries: 0,
            concurrent: false,
            resilience: ResilienceConfig::default(),
        },
        telemetry.clone(),
    );
    let spec = SourceSpec::all_defaults().into_iter().next().unwrap();
    registry.register(Arc::new(GatedSource {
        inner: SimulatedSource::new(spec, world.clone()),
        gate,
    }) as Arc<dyn ScholarSource>);
    AppState::with_registry(world, Arc::new(registry), telemetry)
}

/// A complete close-framed exchange: connect, send, read until EOF (or
/// a reset — whatever already arrived is returned).
fn raw_request(addr: SocketAddr, payload: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(payload.as_bytes()).unwrap();
    let mut out = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match s.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn try_status_of(response: &str) -> Option<u16> {
    response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
}

fn status_of(response: &str) -> u16 {
    try_status_of(response).unwrap_or_else(|| panic!("unparseable response: {response:?}"))
}

#[test]
fn full_queue_sheds_503_with_retry_after_and_recovers() {
    let gate = Gate::new();
    let telemetry = Telemetry::new();
    let state = gated_state(gate.clone(), telemetry.clone());
    let router = build_router(state);
    let server = Server::bind_with(
        "127.0.0.1:0",
        router,
        ServerConfig {
            workers: 2,
            queue_depth: 2,
            request_timeout: None,
            keep_alive: KeepAliveConfig {
                max_requests: 100,
                idle_timeout: None,
            },
            retry_after_secs: 3,
            telemetry: telemetry.clone(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Phase 1: wedge both workers on the gated source.
    let body = r#"{"authors":[{"name":"Ada King"}]}"#;
    let blocker_payload = Arc::new(format!(
        "POST /verify-authors HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    ));
    let blockers: Vec<_> = (0..2)
        .map(|_| {
            let payload = blocker_payload.clone();
            std::thread::spawn(move || raw_request(addr, &payload))
        })
        .collect();
    gate.wait_blocked(2); // both workers are now provably inside the gate

    // Phase 2: fill the admission queue. The acceptor enqueues these,
    // but no worker is free to pop them.
    let queued: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                raw_request(
                    addr,
                    "GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                )
            })
        })
        .collect();
    while server.queue_depth() < 2 {
        std::thread::yield_now();
    }

    // Phase 3: one connection past capacity is refused immediately —
    // not queued, not left hanging — with the configured Retry-After.
    let shed = raw_request(
        addr,
        "GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&shed), 503, "{shed}");
    assert!(shed.contains("Retry-After: 3"), "{shed}");
    assert_eq!(
        server.queue_depth(),
        2,
        "the shed connection never entered the queue"
    );
    assert_eq!(
        telemetry
            .counter("minaret_http_shed_total", &[("reason", "queue_full")])
            .get(),
        1
    );

    // Phase 4: recovery. Open the gate; the wedged workers finish, the
    // queued connections are served, and fresh requests get 200 again.
    gate.open();
    for b in blockers {
        assert_eq!(status_of(&b.join().unwrap()), 200);
    }
    for q in queued {
        assert_eq!(status_of(&q.join().unwrap()), 200);
    }
    let after = raw_request(
        addr,
        "GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&after), 200, "{after}");

    // The whole incident is visible at /metrics: the shed counter and
    // the time-in-queue histogram both recorded.
    let metrics = raw_request(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(
        metrics.contains("minaret_http_shed_total{reason=\"queue_full\"} 1"),
        "{metrics}"
    );
    assert!(
        telemetry
            .histogram("minaret_http_time_in_queue_micros", &[])
            .snapshot()
            .count
            >= 2,
        "queued connections recorded their time in queue"
    );

    server.shutdown();
}

#[test]
fn per_client_burst_cap_sheds_429_until_a_slot_frees() {
    let telemetry = Telemetry::new();
    let mut router = Router::new();
    router.get("/ping", |_, _| Response::text(200, "pong"));
    let server = Server::bind_with(
        "127.0.0.1:0",
        router,
        ServerConfig {
            workers: 2,
            queue_depth: 8,
            request_timeout: None,
            keep_alive: KeepAliveConfig {
                max_requests: 100,
                idle_timeout: None,
            },
            per_client_burst: 1,
            telemetry: telemetry.clone(),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Hold one admitted keep-alive connection open (it occupies the
    // client's single burst slot without ever sending a request)...
    let held = TcpStream::connect(addr).unwrap();
    // ...and wait until the acceptor has admitted it: the *next*
    // connection is the one that must be refused, and it only can be
    // once the held connection is counted.
    let refused = loop {
        let resp = raw_request(
            addr,
            "GET /ping HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        match try_status_of(&resp) {
            Some(429) => break resp,
            // 200: held conn not admitted yet. None: the refusal was
            // reset in flight. Either way, try again.
            Some(200) | None => std::thread::yield_now(),
            Some(other) => panic!("unexpected status {other}: {resp}"),
        }
    };
    assert!(refused.contains("Retry-After:"), "{refused}");
    assert!(
        telemetry
            .counter("minaret_http_shed_total", &[("reason", "client_burst")])
            .get()
            >= 1
    );

    // Releasing the held connection frees the slot; the client is
    // admitted again (retrying absorbs the release latency — no sleeps).
    drop(held);
    loop {
        let resp = raw_request(
            addr,
            "GET /ping HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        if try_status_of(&resp) == Some(200) {
            break;
        }
        std::thread::yield_now();
    }

    server.shutdown();
}
