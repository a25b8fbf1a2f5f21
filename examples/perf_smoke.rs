//! CI perf smoke for the batched-retrieval pipeline (E7 addendum).
//!
//! Two modes:
//!
//! - `--record` re-measures and writes the committed baseline,
//!   `BENCH_e7_scalability.json`. Run it (release mode) after an
//!   intentional performance change and commit the new file.
//! - default (no flag) re-measures and **fails** (exit 1) when either
//!   guard breaks:
//!   1. batched retrieval of the full label set must stay at least
//!      [`MIN_SPEEDUP`]x faster than per-label retrieval, and
//!   2. the extraction phase of a multi-keyword recommendation must not
//!      regress more than [`REGRESSION_HEADROOM`] over the baseline.
//!
//! Sources carry scraping-scale injected latency, so the measurement is
//! dominated by round trips the registry schedules — not raw CPU — which
//! keeps the check stable across machines. Minimum-of-N timing discards
//! scheduler noise.
//!
//! The connection-scaling sweep holds 100 and 1 000 idle keep-alive
//! connections open against the epoll reactor and gates two claims:
//! the serving thread count stays at `io_threads + workers` (idle
//! sockets cost table entries, not threads), and the uncached
//! `/recommend` p50 stays flat as idle sockets pile up. Set
//! `MINARET_CONN_SWEEP=1` to extend the sweep to 10 000 connections
//! (clamped to the fd budget when both socket ends don't fit in
//! RLIMIT_NOFILE).
//!
//! The world-size sweep (E7 proper) stream-generates worlds of 10^3,
//! 10^4, and 10^5 scholars straight into an embedded store and gates
//! two same-run claims: the lazy cold start must beat regenerating the
//! largest world, and the uncached recommend p50 must stay flat (within
//! [`SWEEP_FLATNESS_HEADROOM`]) from the smallest to the largest size.
//! Set `MINARET_WORLD_SWEEP=1` to extend the sweep to 10^6 scholars
//! (minutes of wall time; reported, not gated).
//!
//! Built with `--features count-allocs`, the smoke additionally counts
//! **heap allocations per warm recommendation** through a counting
//! global allocator and fails when they regress more than
//! [`ALLOC_REGRESSION_HEADROOM`] over the committed baseline — the guard
//! for the zero-copy extraction work (Arc-shared profiles, interning,
//! single-flight coalescing). Without the feature the allocation guard
//! is skipped (timings stay valid either way).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: minaret_bench::alloc::CountingAllocator = minaret_bench::alloc::CountingAllocator;

use minaret::concurrent::{ConcurrentMap, ShardedMap, SingleLockMap};
use minaret::eval::harness::{EvalContext, ScenarioConfig};
use minaret::http::{KeepAliveConfig, Method, Request, Server, ServerConfig};
use minaret::json::{parse, Value};
use minaret::prelude::*;
use minaret::synth::LazyWorld;
use minaret_server::{build_router, AppState, ResultCache};
use minaret_telemetry::Telemetry;

/// Committed baseline, resolved against the workspace root so the smoke
/// works from any working directory.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_e7_scalability.json");

/// World size: small — the round trips, not profile assembly, should
/// dominate.
const SCHOLARS: usize = 200;

/// Labels in the sweep set (the largest point of the e7 label sweep).
const LABELS: usize = 80;

/// Per-call injected source latency, in microseconds.
const LATENCY_MICROS: u64 = 500;

/// Timed repetitions; the minimum is kept.
const RUNS: usize = 5;

/// Batched retrieval must beat per-label retrieval by at least this
/// factor (the PR's headline claim).
const MIN_SPEEDUP: f64 = 2.0;

/// Allowed extraction-time growth over the committed baseline.
const REGRESSION_HEADROOM: f64 = 1.25;

/// Allowed growth in warm-path allocations per recommendation over the
/// committed baseline (only checked under `--features count-allocs`).
#[cfg(feature = "count-allocs")]
const ALLOC_REGRESSION_HEADROOM: f64 = 1.25;

/// A cached `/recommend` over HTTP must beat the uncached pipeline by at
/// least this factor (the serving-layer result cache's headline claim).
const CACHE_MIN_SPEEDUP: f64 = 10.0;

/// Allowed growth of the served cache-hit latency over the committed
/// baseline. Wider than the extraction headroom: loopback round trips
/// carry more scheduler noise than in-process timing.
const SERVED_REGRESSION_HEADROOM: f64 = 2.0;

/// Cached requests in the throughput run.
const THROUGHPUT_REQUESTS: usize = 100;

/// World size for the embedded-store smoke (the e7 scalability point:
/// snapshot, recover, and serve a 10k-scholar world).
const STORE_SCHOLARS: usize = 10_000;

/// Keys in the store put/get microbenchmark.
const STORE_OPS: usize = 2_000;

/// Allowed growth of the store metrics (`store_put_micros`,
/// `store_get_micros`, `store_recovery_millis`) over the committed
/// baseline. Wider than the extraction headroom because single-digit
/// microsecond ops carry proportionally more scheduler and filesystem
/// noise; a small additive slack absorbs tiny-baseline rounding.
const STORE_REGRESSION_HEADROOM: f64 = 2.0;

/// World sizes in the E7 scalability sweep (generation throughput, lazy
/// cold start, uncached recommend latency). The `MINARET_WORLD_SWEEP`
/// environment variable extends the sweep to [`SWEEP_FULL_SIZE`].
const SWEEP_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// The opt-in million-scholar sweep point (minutes of wall time, so it
/// never runs by default).
const SWEEP_FULL_SIZE: usize = 1_000_000;

/// Distinct manuscripts behind the uncached recommend p50. Every title
/// is unique, so no result cache could serve any of them.
const SWEEP_MANUSCRIPTS: usize = 11;

/// Page cap ([`SourceSpec::max_hits`]) used by the sweep sources: small
/// enough that even the 10^3-scholar world saturates a page for common
/// topics, so the latency comparison isolates world-size effects from
/// result-count effects — the cap is exactly the mechanism that keeps
/// per-request work independent of world size.
const SWEEP_MAX_HITS: usize = 8;

/// Flat-latency gate: the uncached recommend p50 at the largest default
/// sweep size must stay within this factor of the p50 at the smallest.
/// Both ends are measured moments apart in this process, so the budget
/// absorbs scheduler noise, not cross-machine variance — but on a
/// single-CPU runner each point's p50 still swings ~±15% run to run
/// (observed same-tree ratios 1.26–1.61 across back-to-back runs), so
/// the budget must sit clear of the noise band around the true ~1.3–1.4
/// ratio. 1.75 still rejects the failure mode this gate exists for:
/// per-request work growing with world size (a linear path would be
/// ~100× here, not <2×).
const SWEEP_FLATNESS_HEADROOM: f64 = 1.75;

/// Idle keep-alive connection counts in the connection-scaling sweep
/// (E7 serving addendum): with the epoll reactor, idle connections must
/// cost table entries, not threads. `MINARET_CONN_SWEEP=1` extends the
/// sweep to [`CONN_FULL_SIZE`].
const CONN_SIZES: [usize; 2] = [100, 1_000];

/// The opt-in ten-thousand-connection point. Clamped to the process fd
/// budget when RLIMIT_NOFILE cannot hold both ends of that many
/// loopback sockets in one process (clamping is reported, never
/// silent).
const CONN_FULL_SIZE: usize = 10_000;

/// Uncached `/recommend` samples per connection-sweep point; the median
/// is kept.
const CONN_SAMPLES: usize = 9;

/// The uncached recommend p50 with the most idle connections open must
/// stay within this factor of the p50 at the smallest point — idle
/// sockets may not tax live requests. Same-run comparison, so the
/// budget only absorbs scheduler noise.
const CONN_FLATNESS_HEADROOM: f64 = 1.5;

/// Reactor threads in the connection sweep's server.
const CONN_IO_THREADS: usize = 1;

/// Worker threads in the connection sweep's server.
const CONN_WORKERS: usize = 2;

/// Threads the server may add beyond `io_threads + workers` at any
/// sweep point (slack for a runtime helper thread, not per-connection
/// growth).
const CONN_THREAD_SLACK: usize = 1;

/// Injected cost of a cache-miss build in the contention bench, in
/// microseconds. Sized like a cheap I/O round trip so the measurement
/// is dominated by time spent *holding a lock across a blocking build*
/// — the workload shape sharding helps with — rather than raw CPU,
/// which keeps the bench meaningful on single-core CI runners: the
/// single-lock baseline serializes the sleeps, the sharded map
/// overlaps them.
const CONTENTION_BUILD_MICROS: u64 = 200;

/// `get_or_insert_with` calls each bench thread performs (all distinct
/// keys, so every call pays the build cost).
const CONTENTION_OPS: usize = 64;

/// Timed repetitions of each contention configuration; the minimum
/// elapsed (maximum throughput) is kept.
const CONTENTION_RUNS: usize = 3;

/// Allowed single-thread throughput drop for the sharded map against
/// the committed baseline — the "sharding must not tax the
/// uncontended path" gate.
const CONTENTION_REGRESSION_HEADROOM: f64 = 1.25;

struct Measured {
    per_label: Duration,
    batched: Duration,
    extraction: Duration,
}

fn min_of<F: FnMut() -> Duration>(runs: usize, mut f: F) -> Duration {
    (0..runs).map(|_| f()).min().expect("runs >= 1")
}

fn measure() -> Measured {
    let mut scenario = ScenarioConfig::sized(SCHOLARS);
    scenario.source_latency_micros = LATENCY_MICROS;
    let ctx = EvalContext::build(scenario);

    let mut labels: Vec<String> = ctx
        .ontology
        .topics()
        .map(|t| t.label.clone())
        .take(LABELS)
        .collect();
    let mut filler = 0usize;
    while labels.len() < LABELS {
        labels.push(format!("synthetic topic {filler}"));
        filler += 1;
    }

    // Per-label retrieval: one single-label fan-out per label, which
    // pays labels × sources policed calls.
    let per_label = min_of(RUNS, || {
        let t = Instant::now();
        for label in &labels {
            let _ = ctx
                .registry
                .search_by_interests_report(std::slice::from_ref(label));
        }
        t.elapsed()
    });
    let batched = min_of(RUNS, || {
        let t = Instant::now();
        let _ = ctx.registry.search_by_interests_report(&labels);
        t.elapsed()
    });

    // Extraction phase of a multi-keyword manuscript: the end-to-end
    // path the batching optimises (author verification fan-outs plus
    // exactly one batched interest fan-out).
    let sub = ctx.submissions(1, 0xE7).pop().expect("submission");
    let mut manuscript = ctx.manuscript_for(&sub);
    let mut topics = ctx.ontology.topics().map(|t| t.label.clone());
    while manuscript.keywords.len() < 3 {
        let label = topics.next().expect("curated ontology has topics");
        if !manuscript.keywords.contains(&label) {
            manuscript.keywords.push(label);
        }
    }
    let extraction = min_of(RUNS, || {
        let report = ctx
            .minaret
            .recommend(&manuscript)
            .expect("smoke pipeline succeeds");
        report.timings.extraction
    });

    Measured {
        per_label,
        batched,
        extraction,
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

struct ServedMeasured {
    uncached: Duration,
    cached: Duration,
    rps: f64,
    hit_rate: f64,
}

/// One keep-alive POST: write the request, read a `Content-Length`-framed
/// response, return the status.
fn post_keep_alive(stream: &mut TcpStream, path: &str, body: &str) -> u16 {
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: smoke\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(req.as_bytes()).expect("request written");
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break i + 4;
        }
        let n = stream.read(&mut buf).expect("response readable");
        assert!(n > 0, "server closed mid-response");
        raw.extend_from_slice(&buf[..n]);
    };
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length present");
    while raw.len() < head_end + content_length {
        let n = stream.read(&mut buf).expect("body readable");
        assert!(n > 0, "server closed mid-body");
        raw.extend_from_slice(&buf[..n]);
    }
    status
}

/// Serving-layer measurement: cached vs uncached `/recommend` latency
/// and cached throughput over one keep-alive connection, against a real
/// TCP server whose sources carry the same injected scraping latency as
/// the retrieval smoke (so the uncached path is round-trip-dominated
/// and the comparison is stable across machines).
fn measure_serving() -> ServedMeasured {
    let world = Arc::new(
        WorldGenerator::new(WorldConfig {
            seed: 0xE7,
            ..WorldConfig::sized(SCHOLARS)
        })
        .generate(),
    );
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for mut spec in SourceSpec::all_defaults() {
        spec.latency_micros = LATENCY_MICROS;
        registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    let telemetry = Telemetry::new();
    let cache = Arc::new(ResultCache::new(600_000_000, 1024).with_telemetry(telemetry.clone()));
    let state = AppState::with_registry_and_cache(
        world,
        Arc::new(registry),
        telemetry.clone(),
        Some(cache),
    );
    let router = build_router(state.clone());
    let server = Server::bind_with(
        "127.0.0.1:0",
        router,
        ServerConfig {
            workers: 2,
            keep_alive: KeepAliveConfig {
                max_requests: 1_000_000,
                idle_timeout: None,
            },
            telemetry: telemetry.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("server binds");

    let lead = state
        .world
        .scholars()
        .iter()
        .find(|s| !state.world.papers_of(s.id).is_empty())
        .expect("a published scholar exists");
    let keywords: Vec<Value> = lead
        .interests
        .iter()
        .take(3)
        .map(|&t| Value::from(state.world.ontology.label(t)))
        .collect();
    let body_for = |title: &str| {
        Value::object()
            .set("title", title)
            .set("keywords", keywords.clone())
            .set(
                "authors",
                vec![Value::object().set("name", lead.full_name().as_str())],
            )
            .set("target_venue", state.world.venues()[0].name.as_str())
            .to_string()
    };

    let mut stream = TcpStream::connect(server.local_addr()).expect("client connects");
    // Uncached: every request is a distinct title, so every request is
    // a miss and runs the full pipeline. Minimum-of-N discards noise.
    let uncached = (0..RUNS)
        .map(|i| {
            let body = body_for(&format!("smoke uncached {i}"));
            let t = Instant::now();
            let status = post_keep_alive(&mut stream, "/recommend", &body);
            assert_eq!(status, 200, "uncached /recommend failed");
            t.elapsed()
        })
        .min()
        .expect("runs >= 1");

    // Cached: one fill, then repeats of the identical question.
    let cached_body = body_for("smoke cached");
    assert_eq!(
        post_keep_alive(&mut stream, "/recommend", &cached_body),
        200
    );
    let cached = min_of(RUNS, || {
        let t = Instant::now();
        let status = post_keep_alive(&mut stream, "/recommend", &cached_body);
        assert_eq!(status, 200, "cached /recommend failed");
        t.elapsed()
    });

    // Throughput on the hit path, same keep-alive connection.
    let t = Instant::now();
    for _ in 0..THROUGHPUT_REQUESTS {
        assert_eq!(
            post_keep_alive(&mut stream, "/recommend", &cached_body),
            200
        );
    }
    let rps = THROUGHPUT_REQUESTS as f64 / t.elapsed().as_secs_f64().max(1e-9);

    let hits = telemetry
        .counter("minaret_result_cache_hits_total", &[])
        .get() as f64;
    let misses = telemetry
        .counter("minaret_result_cache_misses_total", &[])
        .get() as f64;
    let hit_rate = hits / (hits + misses).max(1.0);

    drop(stream);
    server.shutdown();
    ServedMeasured {
        uncached,
        cached,
        rps,
        hit_rate,
    }
}

struct StoreMeasured {
    put_micros: u64,
    get_micros: u64,
    recovery_millis: u64,
    regen: Duration,
    cold_start: Duration,
}

/// Embedded-store measurement over a 10k-scholar world: per-op put and
/// get latency, recovery time on reopen (WAL replay + table
/// validation), and the snapshot-served cold start — which must beat
/// regenerating the same world from scratch, the whole point of
/// `--data-dir`.
fn measure_store() -> StoreMeasured {
    use minaret::store::{Store, StoreConfig};
    use minaret::synth::{load_world, snapshot_world, SnapshotMeta};

    let dir = std::env::temp_dir().join(format!("minaret-perf-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Full regeneration cost: the bar a snapshot-served cold start must
    // clear.
    let t = Instant::now();
    let world = WorldGenerator::new(WorldConfig {
        seed: 0xE7,
        ..WorldConfig::sized(STORE_SCHOLARS)
    })
    .generate();
    let regen = t.elapsed();

    let store = Store::open(&dir, StoreConfig::default()).expect("store opens");
    snapshot_world(
        &store,
        &world,
        SnapshotMeta {
            scholars: STORE_SCHOLARS as u32,
            seed: 0xE7,
            current_year: world.current_year,
        },
    )
    .expect("snapshot written");

    // Per-op put latency over profile-sized values (buffered WAL path).
    let value = vec![0xABu8; 512];
    let key = |prefix: &str, i: usize| format!("{prefix}/{i:06}").into_bytes();
    let t = Instant::now();
    for i in 0..STORE_OPS {
        store.put(&key("bench", i), &value).expect("put");
    }
    let put_micros = (t.elapsed().as_micros() as u64 / STORE_OPS as u64).max(1);

    // Per-op get latency from a flushed sorted table (sparse-index
    // binary search + file reads), not the memtable fast path.
    store.flush().expect("flush");
    let t = Instant::now();
    for i in 0..STORE_OPS {
        assert!(
            store.get(&key("bench", i)).expect("get").is_some(),
            "bench key must be present"
        );
    }
    let get_micros = (t.elapsed().as_micros() as u64 / STORE_OPS as u64).max(1);

    // Leave unflushed records behind so recovery replays a real WAL.
    for i in 0..STORE_OPS / 4 {
        store.put(&key("tail", i), &value).expect("put");
    }
    store.sync().expect("sync");
    drop(store);

    let store = Store::open(&dir, StoreConfig::default()).expect("store reopens");
    let recovery_millis = store.stats().recovery_millis;
    let t = Instant::now();
    let (loaded, _) = load_world(&store)
        .expect("snapshot loads")
        .expect("snapshot present");
    let cold_start = t.elapsed();
    assert_eq!(
        loaded.scholars().len(),
        world.scholars().len(),
        "cold start must serve the snapshotted world"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    StoreMeasured {
        put_micros,
        get_micros,
        recovery_millis,
        regen,
        cold_start,
    }
}

struct SweepPoint {
    scholars: usize,
    stream: Duration,
    peak_chunk_bytes: usize,
    cold_start: Duration,
    regen: Duration,
    p50: Duration,
}

/// Default sweep sizes, extended to [`SWEEP_FULL_SIZE`] when the
/// `MINARET_WORLD_SWEEP` environment variable is set (non-empty, not
/// `0`).
fn sweep_sizes() -> Vec<usize> {
    let mut sizes = SWEEP_SIZES.to_vec();
    let opt_in = std::env::var("MINARET_WORLD_SWEEP")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if opt_in {
        sizes.push(SWEEP_FULL_SIZE);
    }
    sizes
}

/// A manuscript whose lead author sits `i` strides into the world, with
/// keywords drawn from that scholar's interests. Built entirely from
/// resident summary data — no profile materialization.
fn sweep_manuscript(lazy: &LazyWorld, i: usize) -> ManuscriptDetails {
    let n = lazy.scholar_count();
    let stride = (n / SWEEP_MANUSCRIPTS).max(1);
    let mut idx = (i * stride) % n;
    // Skip the rare interest-free scholar so validation always passes.
    while lazy.summary(idx).2.is_empty() {
        idx = (idx + 1) % n;
    }
    let (given, family, interests) = lazy.summary(idx);
    let keywords = interests
        .iter()
        .take(3)
        .map(|&t| lazy.ontology().label(t).to_string())
        .collect();
    ManuscriptDetails {
        title: format!("world sweep manuscript {i}"),
        keywords,
        authors: vec![AuthorInput::named(format!("{given} {family}"))],
        target_venue: lazy.venues()[0].name.clone(),
    }
}

/// One point of the E7 world-size sweep: stream-generate a world of
/// `scholars` straight into an embedded store (write-through chunks, so
/// peak generator memory stays one community block regardless of world
/// size), then measure the lazy cold start against full regeneration
/// and the uncached recommend p50 over lazy sources carrying the same
/// injected scraping latency as the retrieval smoke.
fn measure_world_point(scholars: usize) -> SweepPoint {
    use minaret::store::{Store, StoreConfig};
    use minaret::synth::{stream_snapshot_world, StreamingGenerator};

    let dir = std::env::temp_dir().join(format!(
        "minaret-perf-sweep-{scholars}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = WorldConfig {
        seed: 0xE7,
        ..WorldConfig::sized(scholars)
    };

    // Streaming generation with write-through snapshotting.
    let store = Store::open(&dir, StoreConfig::default()).expect("store opens");
    let t = Instant::now();
    let totals = stream_snapshot_world(&store, &StreamingGenerator::new(cfg.clone()), |_| {})
        .expect("streamed snapshot");
    let stream = t.elapsed();
    drop(store);

    // Lazy cold start: reopen the store, decode the resident summaries,
    // and build all six source indexes — everything a server must do
    // before its first request. No profile is materialized.
    let t = Instant::now();
    let store = Arc::new(Store::open(&dir, StoreConfig::default()).expect("store reopens"));
    let lazy = LazyWorld::open(store)
        .expect("lazy world opens")
        .expect("streamed snapshot present");
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for mut spec in SourceSpec::all_defaults() {
        spec.latency_micros = LATENCY_MICROS;
        spec.max_hits = SWEEP_MAX_HITS;
        registry.register(Arc::new(SimulatedSource::lazy(spec, lazy.clone())));
    }
    let registry = Arc::new(registry);
    let cold_start = t.elapsed();

    // The bar the lazy cold start must clear: regenerating the same
    // world and building the same six sources eagerly.
    let t = Instant::now();
    let world = Arc::new(WorldGenerator::new(cfg).generate());
    let mut eager = SourceRegistry::new(RegistryConfig::default());
    for spec in SourceSpec::all_defaults() {
        eager.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    let regen = t.elapsed();
    drop(eager);
    drop(world);

    // Uncached recommend p50: the full pipeline behind POST /recommend,
    // measured in-process (HTTP framing is world-size-independent and
    // gated separately by the serving smoke). Every title is distinct,
    // so a result cache could never answer — each run pays author
    // resolution, keyword expansion, interest fan-out, and per-profile
    // source round trips. A first pass over the same manuscripts warms
    // the internal profile caches, the steady state of a serving
    // process (the serving smoke measures its uncached latency over a
    // warm server the same way); the cold one-off cost of the first
    // request is the cold_start metric's department, not p50's.
    let ontology = Arc::new(minaret::ontology::seed::curated_cs_ontology());
    let pipeline = Minaret::new(registry, ontology, EditorConfig::default());
    for i in 0..SWEEP_MANUSCRIPTS {
        let mut manuscript = sweep_manuscript(&lazy, i);
        manuscript.title = format!("world sweep warmup {i}");
        let _ = pipeline
            .recommend(&manuscript)
            .expect("sweep warmup recommendation succeeds");
    }
    // Per-manuscript minimum over three measured passes discards
    // scheduler noise, the same policy as the retrieval smoke's
    // minimum-of-N timing.
    let mut samples: Vec<Duration> = (0..SWEEP_MANUSCRIPTS)
        .map(|i| {
            let manuscript = sweep_manuscript(&lazy, i);
            min_of(3, || {
                let t = Instant::now();
                let _ = pipeline
                    .recommend(&manuscript)
                    .expect("sweep recommendation succeeds");
                t.elapsed()
            })
        })
        .collect();
    samples.sort();
    let p50 = samples[SWEEP_MANUSCRIPTS / 2];

    drop(pipeline);
    drop(lazy);
    let _ = std::fs::remove_dir_all(&dir);
    SweepPoint {
        scholars,
        stream,
        peak_chunk_bytes: totals.peak_chunk_bytes,
        cold_start,
        regen,
        p50,
    }
}

struct ConnPoint {
    conns: usize,
    p50: Duration,
    /// Threads the process gained over the pre-bind baseline while this
    /// many connections were open — must be `io_threads + workers`,
    /// never a function of `conns`.
    extra_threads: usize,
}

/// Live threads in this process, via `/proc/self/task`.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|entries| entries.count())
        .expect("/proc/self/task is readable on Linux")
}

/// Soft RLIMIT_NOFILE, from `/proc/self/limits`.
fn fd_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Connection counts to sweep. The opt-in point holds both ends of
/// every loopback socket in this one process (client + server = 2 fds
/// per connection), so it is clamped to the fd budget with a printed
/// note rather than failing on EMFILE.
fn conn_sweep_sizes() -> Vec<usize> {
    let mut sizes = CONN_SIZES.to_vec();
    let opt_in = std::env::var("MINARET_CONN_SWEEP")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if opt_in {
        let budget = fd_soft_limit()
            .map(|soft| soft.saturating_sub(512) / 2)
            .unwrap_or(CONN_FULL_SIZE);
        let n = CONN_FULL_SIZE.min(budget);
        if n < CONN_FULL_SIZE {
            println!(
                "conn sweep: clamping the opt-in point from {CONN_FULL_SIZE} to {n} \
                 connections (RLIMIT_NOFILE holds both socket ends in this process)"
            );
        }
        sizes.push(n);
    }
    sizes
}

/// Connection-scaling sweep: hold N idle keep-alive connections open
/// and measure (a) the process thread count — which must stay at
/// `io_threads + workers` regardless of N — and (b) the uncached
/// `/recommend` p50 over a separate live connection, which must not
/// degrade as idle sockets pile up. Synchronization is on the
/// observable open-connections gauge, never sleeps.
fn measure_conn_scaling() -> Vec<ConnPoint> {
    let world = Arc::new(
        WorldGenerator::new(WorldConfig {
            seed: 0xE7,
            ..WorldConfig::sized(SCHOLARS)
        })
        .generate(),
    );
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for mut spec in SourceSpec::all_defaults() {
        spec.latency_micros = LATENCY_MICROS;
        registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    let telemetry = Telemetry::new();
    let state = AppState::with_registry_and_cache(
        world,
        Arc::new(registry),
        telemetry.clone(),
        None, // no result cache: every sampled request runs the pipeline
    );
    let router = build_router(state.clone());

    let lead = state
        .world
        .scholars()
        .iter()
        .find(|s| !state.world.papers_of(s.id).is_empty())
        .expect("a published scholar exists");
    let keywords: Vec<Value> = lead
        .interests
        .iter()
        .take(3)
        .map(|&t| Value::from(state.world.ontology.label(t)))
        .collect();
    let body_for = |title: &str| {
        Value::object()
            .set("title", title)
            .set("keywords", keywords.clone())
            .set(
                "authors",
                vec![Value::object().set("name", lead.full_name().as_str())],
            )
            .set("target_venue", state.world.venues()[0].name.as_str())
            .to_string()
    };

    // The registry's fan-out pool spawns lazily on the first
    // recommendation, so push one through the router *in process* before
    // taking the thread baseline — otherwise the pool's threads would be
    // billed to the serving layer by the fixed-thread gate below.
    let prime = router.dispatch(&Request {
        method: Method::Post,
        path: "/recommend".into(),
        query: vec![],
        headers: vec![],
        body: body_for("conn sweep pool prime").into_bytes(),
        minor_version: 1,
        deadline: None,
    });
    assert_eq!(prime.status, 200, "pool-priming recommendation failed");
    // Baseline after the pipeline (registry fan-out pool etc.) is up:
    // from here on, every additional thread belongs to the serving
    // layer, which is exactly what the fixed-thread gate measures.
    let baseline_threads = thread_count();
    let server = Server::bind_with(
        "127.0.0.1:0",
        router,
        ServerConfig {
            workers: CONN_WORKERS,
            io_threads: CONN_IO_THREADS,
            keep_alive: KeepAliveConfig {
                max_requests: usize::MAX,
                idle_timeout: None, // idle connections must survive the measurement
            },
            telemetry: telemetry.clone(),
            ..ServerConfig::default()
        },
    )
    .expect("conn-sweep server binds");
    let addr = server.local_addr();

    let open_connections = telemetry.gauge("minaret_http_open_connections", &[]);
    let wait_for_open = |want: usize| {
        let deadline = Instant::now() + Duration::from_secs(120);
        while open_connections.get() != want as i64 {
            assert!(
                Instant::now() < deadline,
                "open-connections gauge stuck at {} (want {want}) — connections shed?",
                open_connections.get()
            );
            thread::yield_now();
        }
    };

    // The measuring connection is itself one open connection.
    let mut probe = TcpStream::connect(addr).expect("probe connects");
    wait_for_open(1);
    // Warm the pipeline's internal caches once so the first sweep point
    // doesn't pay one-off costs the later points skip.
    assert_eq!(
        post_keep_alive(&mut probe, "/recommend", &body_for("conn sweep warmup")),
        200
    );

    let mut points = Vec::new();
    for n in conn_sweep_sizes() {
        let idle: Vec<TcpStream> = (0..n)
            .map(|_| TcpStream::connect(addr).expect("idle connection connects"))
            .collect();
        wait_for_open(n + 1);
        let extra_threads = thread_count() - baseline_threads;

        let mut samples: Vec<Duration> = (0..CONN_SAMPLES)
            .map(|i| {
                let body = body_for(&format!("conn sweep {n} sample {i}"));
                let t = Instant::now();
                let status = post_keep_alive(&mut probe, "/recommend", &body);
                assert_eq!(status, 200, "uncached /recommend failed at {n} conns");
                t.elapsed()
            })
            .collect();
        samples.sort();
        let p50 = samples[CONN_SAMPLES / 2];

        drop(idle);
        wait_for_open(1);
        points.push(ConnPoint {
            conns: n,
            p50,
            extra_threads,
        });
    }
    drop(probe);
    server.shutdown();
    points
}

struct ContentionMeasured {
    threads: Vec<usize>,
    baseline_ops: Vec<f64>,
    sharded_ops: Vec<f64>,
}

/// Thread counts for the contention sweep, overridable via the
/// `MINARET_CONTENTION_THREADS` environment variable (comma-separated,
/// e.g. `MINARET_CONTENTION_THREADS=1,4`).
fn contention_thread_counts() -> Vec<usize> {
    std::env::var("MINARET_CONTENTION_THREADS")
        .ok()
        .map(|raw| {
            raw.split(',')
                .filter_map(|part| part.trim().parse().ok())
                .filter(|&n| (1..=64).contains(&n))
                .collect::<Vec<usize>>()
        })
        .filter(|counts| !counts.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4, 8])
}

/// Throughput (ops/s) of `threads` workers performing distinct-key
/// `get_or_insert_with` calls whose build blocks for
/// [`CONTENTION_BUILD_MICROS`]. A fresh map per run keeps every call
/// on the miss path.
fn contention_ops_per_sec<M, F>(threads: usize, make_map: F) -> f64
where
    M: ConcurrentMap<u64, u64> + Send + Sync + 'static,
    F: Fn() -> M,
{
    let best = min_of(CONTENTION_RUNS, || {
        let map = Arc::new(make_map());
        let start = Arc::new(Barrier::new(threads + 1));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let map = Arc::clone(&map);
                let start = Arc::clone(&start);
                thread::spawn(move || {
                    start.wait();
                    for i in 0..CONTENTION_OPS {
                        let key = (t * CONTENTION_OPS + i) as u64;
                        let _ = map.get_or_insert_with(key, || {
                            thread::sleep(Duration::from_micros(CONTENTION_BUILD_MICROS));
                            key
                        });
                    }
                })
            })
            .collect();
        start.wait();
        let t0 = Instant::now();
        for handle in handles {
            handle.join().expect("bench worker completes");
        }
        t0.elapsed()
    });
    (threads * CONTENTION_OPS) as f64 / best.as_secs_f64().max(1e-9)
}

/// Lock-contention sweep: single-lock baseline vs the sharded map at
/// each thread count, same workload.
fn measure_contention() -> ContentionMeasured {
    let threads = contention_thread_counts();
    let baseline_ops: Vec<f64> = threads
        .iter()
        .map(|&t| contention_ops_per_sec(t, SingleLockMap::new))
        .collect();
    let sharded_ops: Vec<f64> = threads
        .iter()
        .map(|&t| contention_ops_per_sec(t, ShardedMap::new))
        .collect();
    ContentionMeasured {
        threads,
        baseline_ops,
        sharded_ops,
    }
}

/// Batch-assignment point (E7 assignment addendum): conference scale.
const ASSIGN_SCHOLARS: usize = 10_000;
/// Manuscripts in the measured `assign` batch.
const ASSIGN_MANUSCRIPTS: usize = 50;
/// Reviewers demanded per paper.
const ASSIGN_K: usize = 3;
/// Per-reviewer load ceiling.
const ASSIGN_MAX_LOAD: usize = 8;
/// Allowed batch-solve latency growth over the committed baseline.
/// Wide, like the other wall-clock gates: seconds-scale solves on a
/// shared CI box jitter more than microbenchmarks.
const ASSIGN_REGRESSION_HEADROOM: f64 = 2.0;

struct AssignMeasured {
    elapsed: Duration,
    solved: minaret::assign::BatchAssignment,
}

/// Solves the conference-scale batch once, cold: a 50-manuscript batch
/// over a 10^4-scholar world through the full extract → score → greedy
/// → flow pipeline, then grades it against the world's ground truth.
/// One solve (not min-of-N) — at seconds scale a single run dominates
/// scheduler noise, and re-solving would measure warmed interning.
fn measure_assign() -> AssignMeasured {
    use minaret::assign::{coverage_against_world, manuscript_from_submission, Assigner};

    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(ASSIGN_SCHOLARS)).generate());
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    let ontology = Arc::new(minaret::ontology::seed::curated_cs_ontology());
    let manuscripts: Vec<ManuscriptDetails> =
        minaret::synth::SubmissionGenerator::new(&world, 4242)
            .generate_many(ASSIGN_MANUSCRIPTS)
            .iter()
            .map(|sub| manuscript_from_submission(&world, sub))
            .collect();
    let assigner = Assigner::new(Minaret::new(
        Arc::new(registry),
        ontology,
        EditorConfig::default(),
    ));
    let spec = AssignmentSpec::new(ASSIGN_K, ASSIGN_MAX_LOAD);
    let start = Instant::now();
    let mut solved = assigner
        .assign(&manuscripts, &spec)
        .expect("conference-scale batch is feasible");
    let elapsed = start.elapsed();
    solved.quality.coverage_at_k = coverage_against_world(&world, &manuscripts, &solved);
    AssignMeasured { elapsed, solved }
}

/// Warm-path allocation counts per recommendation: `(allocs, bytes)`
/// for a cached registry and for the uncached pipeline default.
#[cfg(feature = "count-allocs")]
fn measure_allocs() -> ((u64, u64), (u64, u64)) {
    use minaret::eval::harness::{EvalContext, ScenarioConfig};

    fn per_rec(cached: bool) -> (u64, u64) {
        let mut scenario = ScenarioConfig::sized(SCHOLARS);
        scenario.source_latency_micros = 0;
        scenario.cached = cached;
        let ctx = EvalContext::build(scenario);
        let sub = ctx.submissions(1, 0xE7).pop().expect("submission");
        let mut manuscript = ctx.manuscript_for(&sub);
        let mut topics = ctx.ontology.topics().map(|t| t.label.clone());
        while manuscript.keywords.len() < 3 {
            let label = topics.next().expect("curated ontology has topics");
            if !manuscript.keywords.contains(&label) {
                manuscript.keywords.push(label);
            }
        }
        // Warm caches, the interner, lazy profile stores, worker pools.
        for _ in 0..2 {
            let _ = ctx.minaret.recommend(&manuscript).unwrap();
        }
        const N: u64 = 5;
        let before = minaret_bench::alloc::snapshot();
        for _ in 0..N {
            let _ = std::hint::black_box(ctx.minaret.recommend(&manuscript).unwrap());
        }
        let after = minaret_bench::alloc::snapshot();
        (
            after.allocs_since(&before) / N,
            after.bytes_since(&before) / N,
        )
    }

    (per_rec(true), per_rec(false))
}

fn main() {
    let record = std::env::args().any(|a| a == "--record");
    let m = measure();
    let speedup = m.per_label.as_secs_f64() / m.batched.as_secs_f64().max(1e-9);
    println!(
        "perf smoke: per_label({LABELS})={:.2} ms  batched({LABELS})={:.2} ms  speedup={speedup:.1}x  extraction={:.2} ms",
        m.per_label.as_secs_f64() * 1e3,
        m.batched.as_secs_f64() * 1e3,
        m.extraction.as_secs_f64() * 1e3,
    );

    #[cfg(feature = "count-allocs")]
    let ((warm_allocs, warm_bytes), (uncached_allocs, uncached_bytes)) = {
        let counts = measure_allocs();
        println!(
            "alloc smoke: warm {} allocs/rec ({} bytes)  uncached {} allocs/rec ({} bytes)",
            counts.0 .0, counts.0 .1, counts.1 .0, counts.1 .1
        );
        counts
    };

    if speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: batched retrieval speedup {speedup:.2}x is below the required {MIN_SPEEDUP}x"
        );
        std::process::exit(1);
    }

    let served = measure_serving();
    let cache_speedup = served.uncached.as_secs_f64() / served.cached.as_secs_f64().max(1e-9);
    println!(
        "serving smoke: uncached={:.2} ms  cached={:.3} ms  cache_speedup={cache_speedup:.1}x  throughput={:.0} req/s  hit_rate={:.2}",
        served.uncached.as_secs_f64() * 1e3,
        served.cached.as_secs_f64() * 1e3,
        served.rps,
        served.hit_rate,
    );
    if cache_speedup < CACHE_MIN_SPEEDUP {
        eprintln!(
            "FAIL: served cache-hit speedup {cache_speedup:.2}x is below the required {CACHE_MIN_SPEEDUP}x"
        );
        std::process::exit(1);
    }

    let conn_points = measure_conn_scaling();
    for p in &conn_points {
        println!(
            "conn sweep: idle_conns={}  recommend_p50={:.2} ms  serving_threads={} \
             (io={CONN_IO_THREADS} + workers={CONN_WORKERS})",
            p.conns,
            p.p50.as_secs_f64() * 1e3,
            p.extra_threads,
        );
    }
    // Fixed-thread gate: the serving thread count may never grow with
    // the number of open connections.
    let thread_budget = CONN_IO_THREADS + CONN_WORKERS + CONN_THREAD_SLACK;
    for p in &conn_points {
        if p.extra_threads > thread_budget {
            eprintln!(
                "FAIL: {} serving threads with {} idle connections open exceeds \
                 io_threads + workers + {CONN_THREAD_SLACK} = {thread_budget}",
                p.extra_threads, p.conns
            );
            std::process::exit(1);
        }
    }
    // Idle-connections-are-free gate: the uncached recommend p50 must
    // stay flat as idle keep-alive sockets pile up. Same-run comparison
    // against the smallest point.
    let conn_small = conn_points.first().expect("conn sweep is non-empty");
    for p in &conn_points[1..] {
        let ratio = p.p50.as_secs_f64() / conn_small.p50.as_secs_f64().max(1e-9);
        if ratio > CONN_FLATNESS_HEADROOM {
            eprintln!(
                "FAIL: recommend p50 with {} idle connections ({:.2} ms) is {ratio:.2}x the \
                 p50 with {} ({:.2} ms); budget {CONN_FLATNESS_HEADROOM}x",
                p.conns,
                p.p50.as_secs_f64() * 1e3,
                conn_small.conns,
                conn_small.p50.as_secs_f64() * 1e3,
            );
            std::process::exit(1);
        }
    }
    println!(
        "OK: serving threads fixed at <= {thread_budget} and recommend p50 flat from {} to {} \
         idle connections",
        conn_small.conns,
        conn_points.last().expect("conn sweep is non-empty").conns,
    );

    let store = measure_store();
    println!(
        "store smoke: put={} us/op  get={} us/op  recovery={} ms  cold_start={:.0} ms  regen={:.0} ms",
        store.put_micros,
        store.get_micros,
        store.recovery_millis,
        store.cold_start.as_secs_f64() * 1e3,
        store.regen.as_secs_f64() * 1e3,
    );
    if store.cold_start >= store.regen {
        eprintln!(
            "FAIL: snapshot-served cold start ({:?}) is not faster than regenerating the \
             {STORE_SCHOLARS}-scholar world ({:?})",
            store.cold_start, store.regen
        );
        std::process::exit(1);
    }

    let sweep: Vec<SweepPoint> = sweep_sizes().into_iter().map(measure_world_point).collect();
    for p in &sweep {
        println!(
            "world sweep: n={}  stream={:.0} ms ({:.0} scholars/s)  peak_chunk={} KiB  \
             cold_start={:.0} ms  regen={:.0} ms  recommend_p50={:.1} ms",
            p.scholars,
            p.stream.as_secs_f64() * 1e3,
            p.scholars as f64 / p.stream.as_secs_f64().max(1e-9),
            p.peak_chunk_bytes / 1024,
            p.cold_start.as_secs_f64() * 1e3,
            p.regen.as_secs_f64() * 1e3,
            p.p50.as_secs_f64() * 1e3,
        );
    }
    // Flat-latency gate: the page cap must keep the uncached recommend
    // p50 from growing with world size.
    let small = sweep.first().expect("sweep is non-empty");
    let large = sweep
        .iter()
        .find(|p| p.scholars == *SWEEP_SIZES.last().expect("sweep sizes are non-empty"))
        .expect("largest default sweep point measured");
    let flatness = large.p50.as_secs_f64() / small.p50.as_secs_f64().max(1e-9);
    if flatness > SWEEP_FLATNESS_HEADROOM {
        eprintln!(
            "FAIL: uncached recommend p50 at {} scholars ({:.1} ms) is {flatness:.2}x the p50 at \
             {} scholars ({:.1} ms); budget {SWEEP_FLATNESS_HEADROOM}x",
            large.scholars,
            large.p50.as_secs_f64() * 1e3,
            small.scholars,
            small.p50.as_secs_f64() * 1e3,
        );
        std::process::exit(1);
    }
    println!(
        "OK: uncached recommend p50 stays flat from {} to {} scholars ({flatness:.2}x <= \
         {SWEEP_FLATNESS_HEADROOM}x)",
        small.scholars, large.scholars
    );
    // Cold-start gate: serving a streamed snapshot lazily must beat
    // regenerating the world at the largest default size.
    if large.cold_start >= large.regen {
        eprintln!(
            "FAIL: lazy cold start at {} scholars ({:?}) is not faster than regenerating the \
             world ({:?})",
            large.scholars, large.cold_start, large.regen
        );
        std::process::exit(1);
    }
    println!(
        "OK: lazy cold start beats regeneration at {} scholars ({:.0} ms < {:.0} ms)",
        large.scholars,
        large.cold_start.as_secs_f64() * 1e3,
        large.regen.as_secs_f64() * 1e3,
    );

    let contention = measure_contention();
    for (i, &t) in contention.threads.iter().enumerate() {
        println!(
            "contention smoke: threads={t}  baseline={:.0} ops/s  sharded={:.0} ops/s  ratio={:.2}x",
            contention.baseline_ops[i],
            contention.sharded_ops[i],
            contention.sharded_ops[i] / contention.baseline_ops[i].max(1e-9),
        );
    }
    // Same-run separation gate: at 4 threads the sharded map must beat
    // the single global lock outright. Both sides are measured in this
    // process moments apart, so no cross-machine headroom is needed.
    if let Some(i) = contention.threads.iter().position(|&t| t == 4) {
        if contention.sharded_ops[i] <= contention.baseline_ops[i] {
            eprintln!(
                "FAIL: sharded map ({:.0} ops/s) did not beat the single-lock baseline \
                 ({:.0} ops/s) at 4 threads",
                contention.sharded_ops[i], contention.baseline_ops[i]
            );
            std::process::exit(1);
        }
    }

    let assign = measure_assign();
    let aq = &assign.solved.quality;
    println!(
        "assign smoke: batch of {ASSIGN_MANUSCRIPTS} over {ASSIGN_SCHOLARS} scholars = {:.0} ms  \
         mean_relevance={:.4}  coverage={:.4}  load_gini={:.4}  flow={:.3} (greedy {:.3}, {} augmentations)",
        assign.elapsed.as_secs_f64() * 1e3,
        aq.mean_relevance,
        aq.coverage_at_k.unwrap_or(0.0),
        aq.load_gini,
        assign.solved.total_score,
        assign.solved.greedy_total,
        assign.solved.augmentations,
    );
    // Same-run refinement gate: the flow solution may never total below
    // the greedy seed it started from.
    if assign.solved.total_score + 1e-9 < assign.solved.greedy_total {
        eprintln!(
            "FAIL: flow assignment total {:.6} fell below the greedy seed {:.6}",
            assign.solved.total_score, assign.solved.greedy_total
        );
        std::process::exit(1);
    }

    if record {
        #[allow(unused_mut)]
        let mut json = Value::object()
            .set("scholars", SCHOLARS)
            .set("labels", LABELS)
            .set("source_latency_micros", LATENCY_MICROS)
            .set("runs", RUNS)
            .set("per_label_micros", micros(m.per_label))
            .set("batched_micros", micros(m.batched))
            .set("speedup", speedup)
            .set("extraction_micros", micros(m.extraction))
            .set("served_uncached_micros", micros(served.uncached))
            .set("served_cached_micros", micros(served.cached))
            .set("served_cache_speedup", cache_speedup)
            .set("served_rps", served.rps)
            .set("served_cache_hit_rate", served.hit_rate)
            .set("store_scholars", STORE_SCHOLARS)
            .set("store_put_micros", store.put_micros)
            .set("store_get_micros", store.get_micros)
            .set("store_recovery_millis", store.recovery_millis)
            .set(
                "store_cold_start_millis",
                store.cold_start.as_millis() as u64,
            )
            .set("store_regen_millis", store.regen.as_millis() as u64)
            .set("contention_build_micros", CONTENTION_BUILD_MICROS)
            .set("contention_ops_per_thread", CONTENTION_OPS);
        for (i, &t) in contention.threads.iter().enumerate() {
            json = json
                .set(
                    &format!("contention_baseline_{t}t_ops"),
                    contention.baseline_ops[i],
                )
                .set(
                    &format!("contention_sharded_{t}t_ops"),
                    contention.sharded_ops[i],
                );
        }
        for p in &conn_points {
            let n = p.conns;
            json = json
                .set(&format!("conn_{n}_p50_micros"), micros(p.p50))
                .set(&format!("conn_{n}_threads"), p.extra_threads);
        }
        json = json
            .set("sweep_manuscripts", SWEEP_MANUSCRIPTS)
            .set("sweep_max_hits", SWEEP_MAX_HITS)
            .set("sweep_recommend_flatness", flatness)
            .set("assign_scholars", ASSIGN_SCHOLARS)
            .set("assign_manuscripts", ASSIGN_MANUSCRIPTS)
            .set("assign_reviewers_per_paper", ASSIGN_K)
            .set("assign_max_load", ASSIGN_MAX_LOAD)
            .set("assign_batch50_millis", assign.elapsed.as_millis() as u64)
            .set("assign_quality_mean_relevance", aq.mean_relevance)
            .set("assign_quality_coverage", aq.coverage_at_k.unwrap_or(0.0))
            .set("assign_quality_load_gini", aq.load_gini)
            .set("assign_greedy_total", assign.solved.greedy_total)
            .set("assign_flow_total", assign.solved.total_score)
            .set("assign_flow_augmentations", assign.solved.augmentations)
            .set("assign_pool_size", assign.solved.pool_size)
            .set("assign_eligible_pairs", assign.solved.eligible_pairs);
        for p in &sweep {
            let n = p.scholars;
            json = json
                .set(
                    &format!("world_{n}_stream_millis"),
                    p.stream.as_millis() as u64,
                )
                .set(
                    &format!("world_{n}_gen_rate"),
                    n as f64 / p.stream.as_secs_f64().max(1e-9),
                )
                .set(&format!("world_{n}_peak_chunk_bytes"), p.peak_chunk_bytes)
                .set(
                    &format!("world_{n}_cold_start_millis"),
                    p.cold_start.as_millis() as u64,
                )
                .set(
                    &format!("world_{n}_regen_millis"),
                    p.regen.as_millis() as u64,
                )
                .set(&format!("world_{n}_recommend_p50_micros"), micros(p.p50));
        }
        #[cfg(feature = "count-allocs")]
        {
            json = json
                .set("warm_allocs_per_rec", warm_allocs)
                .set("warm_alloc_bytes_per_rec", warm_bytes)
                .set("uncached_warm_allocs_per_rec", uncached_allocs)
                .set("uncached_warm_alloc_bytes_per_rec", uncached_bytes);
        }
        std::fs::write(BASELINE_PATH, json.to_pretty_string() + "\n")
            .expect("baseline file is writable");
        println!("recorded baseline to {BASELINE_PATH}");
        return;
    }

    let raw = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        eprintln!("FAIL: no committed baseline at {BASELINE_PATH} ({e}); run with --record first");
        std::process::exit(1);
    });
    let baseline = parse(&raw).expect("baseline parses as JSON");
    let base_extraction = baseline
        .get("extraction_micros")
        .and_then(|v| v.as_u64())
        .expect("baseline has extraction_micros");
    let budget = base_extraction as f64 * REGRESSION_HEADROOM;
    let measured = micros(m.extraction) as f64;
    if measured > budget {
        eprintln!(
            "FAIL: extraction {measured:.0} us exceeds baseline {base_extraction} us by more than {:.0}% \
             (budget {budget:.0} us)",
            (REGRESSION_HEADROOM - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "OK: extraction {measured:.0} us within {:.0}% of baseline {base_extraction} us",
        (REGRESSION_HEADROOM - 1.0) * 100.0
    );

    // Cache-hit-path regression gate: the served hit latency must stay
    // near the committed baseline.
    let base_cached = baseline
        .get("served_cached_micros")
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| {
            eprintln!("FAIL: baseline {BASELINE_PATH} lacks served_cached_micros; re-record");
            std::process::exit(1);
        });
    let served_budget = base_cached as f64 * SERVED_REGRESSION_HEADROOM;
    let served_measured = micros(served.cached) as f64;
    if served_measured > served_budget {
        eprintln!(
            "FAIL: served cache hit {served_measured:.0} us exceeds baseline {base_cached} us \
             by more than {:.0}% (budget {served_budget:.0} us)",
            (SERVED_REGRESSION_HEADROOM - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "OK: served cache hit {served_measured:.0} us within {:.0}% of baseline {base_cached} us",
        (SERVED_REGRESSION_HEADROOM - 1.0) * 100.0
    );

    // Store regression gates: each metric may grow at most
    // STORE_REGRESSION_HEADROOM× over the committed baseline, plus a
    // small additive slack so a 1-unit baseline doesn't gate on noise.
    for (field, measured, slack) in [
        ("store_put_micros", store.put_micros, 25),
        ("store_get_micros", store.get_micros, 25),
        ("store_recovery_millis", store.recovery_millis, 50),
    ] {
        let Some(base) = baseline.get(field).and_then(|v| v.as_u64()) else {
            eprintln!("FAIL: baseline {BASELINE_PATH} lacks {field}; re-record");
            std::process::exit(1);
        };
        let budget = base as f64 * STORE_REGRESSION_HEADROOM + slack as f64;
        if measured as f64 > budget {
            eprintln!(
                "FAIL: {field} {measured} exceeds baseline {base} by more than {:.0}% (budget {budget:.0})",
                (STORE_REGRESSION_HEADROOM - 1.0) * 100.0
            );
            std::process::exit(1);
        }
        println!("OK: {field} {measured} within budget {budget:.0} (baseline {base})");
    }

    // Assignment-latency regression gate: the conference-scale batch
    // solve may grow at most ASSIGN_REGRESSION_HEADROOM× over the
    // committed baseline.
    let Some(base_assign) = baseline
        .get("assign_batch50_millis")
        .and_then(|v| v.as_u64())
    else {
        eprintln!("FAIL: baseline {BASELINE_PATH} lacks assign_batch50_millis; re-record");
        std::process::exit(1);
    };
    let assign_budget = base_assign as f64 * ASSIGN_REGRESSION_HEADROOM;
    let assign_measured = assign.elapsed.as_millis() as f64;
    if assign_measured > assign_budget {
        eprintln!(
            "FAIL: batch assign {assign_measured:.0} ms exceeds baseline {base_assign} ms by \
             more than {:.0}% (budget {assign_budget:.0} ms)",
            (ASSIGN_REGRESSION_HEADROOM - 1.0) * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "OK: batch assign {assign_measured:.0} ms within {:.0}% of baseline {base_assign} ms",
        (ASSIGN_REGRESSION_HEADROOM - 1.0) * 100.0
    );

    // Uncontended-path gate: single-thread sharded throughput must stay
    // within CONTENTION_REGRESSION_HEADROOM of the committed baseline —
    // sharding buys contended scaling, it must not tax the common case.
    if let Some(i) = contention.threads.iter().position(|&t| t == 1) {
        let Some(base) = baseline
            .get("contention_sharded_1t_ops")
            .and_then(|v| v.as_f64())
        else {
            eprintln!("FAIL: baseline {BASELINE_PATH} lacks contention_sharded_1t_ops; re-record");
            std::process::exit(1);
        };
        let floor = base / CONTENTION_REGRESSION_HEADROOM;
        let measured = contention.sharded_ops[i];
        if measured < floor {
            eprintln!(
                "FAIL: single-thread sharded throughput {measured:.0} ops/s fell more than \
                 {:.0}% below baseline {base:.0} ops/s (floor {floor:.0})",
                (CONTENTION_REGRESSION_HEADROOM - 1.0) * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "OK: single-thread sharded throughput {measured:.0} ops/s within {:.0}% of baseline {base:.0}",
            (CONTENTION_REGRESSION_HEADROOM - 1.0) * 100.0
        );
    }

    #[cfg(feature = "count-allocs")]
    for (field, measured) in [
        ("warm_allocs_per_rec", warm_allocs),
        ("uncached_warm_allocs_per_rec", uncached_allocs),
    ] {
        let Some(base) = baseline.get(field).and_then(|v| v.as_u64()) else {
            eprintln!(
                "FAIL: baseline {BASELINE_PATH} lacks {field}; re-record with --features count-allocs"
            );
            std::process::exit(1);
        };
        let budget = base as f64 * ALLOC_REGRESSION_HEADROOM;
        if measured as f64 > budget {
            eprintln!(
                "FAIL: {field} {measured} exceeds baseline {base} by more than {:.0}% (budget {budget:.0})",
                (ALLOC_REGRESSION_HEADROOM - 1.0) * 100.0
            );
            std::process::exit(1);
        }
        println!(
            "OK: {field} {measured} within {:.0}% of baseline {base}",
            (ALLOC_REGRESSION_HEADROOM - 1.0) * 100.0
        );
    }
    #[cfg(feature = "count-allocs")]
    let _ = (warm_bytes, uncached_bytes);
}
