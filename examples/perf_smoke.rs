//! CI perf smoke: the checks that no other harness covers.
//!
//! Wall-clock claims about the serving paths live in `perfbench/`,
//! which judges a change against the parent's measured spread. This
//! smoke keeps the checks that have neither a perfbench workload nor an
//! exact test:
//!
//! - The connection-scaling sweep holds 100 and 1 000 idle keep-alive
//!   connections open against the epoll reactor and gates two claims:
//!   the serving thread count stays at `io_threads + workers` (idle
//!   sockets cost table entries, not threads), and the uncached
//!   `/recommend` p50 with 1 000 idle connections stays within
//!   [`CONN_FLATNESS_HEADROOM`] of the p50 with 100, in the same run.
//! - The world point stream-generates a 10^5-scholar world into an
//!   embedded store. The lazy cold start over that snapshot must beat
//!   regenerating the world, in the same run.
//!
//! Built with `--features count-allocs`, the smoke also counts **heap
//! allocations per warm recommendation** through a counting global
//! allocator and fails when they regress more than
//! [`ALLOC_REGRESSION_HEADROOM`] over the committed baseline — the guard
//! for the zero-copy extraction work (Arc-shared profiles and vocabulary
//! entries, single-flight coalescing). It counts two manuscripts: one
//! whose filter and rank phases run on every core and one retrieving
//! fewer candidates than `chunked_map` splits, which maps inline. For
//! each it also runs `CandidateFilter::decide` over every kept
//! candidate and `CandidateScorer::score` over every candidate on one
//! thread, and fails unless that pass allocates nothing: the
//! per-candidate phases only compare forms built with the profiles.
//! The merge gate counts the allocations of `merge_profiles` over each
//! manuscript's deduped hits, plus dropping its candidates, and fails
//! unless they stay within [`merge_alloc_bound`] per candidate plus
//! [`MERGE_FIXED_ALLOCS`] per merge: a candidate holds its profiles, so
//! its allocations do not grow with its publications, reviews, interests
//! or keys. Counts are exact, so these gates do not depend on the
//! machine.
//!
//! `--record` re-measures and writes the committed baseline,
//! `BENCH_e7_scalability.json`. Run it (release mode, with
//! `--features count-allocs`) after an intentional change and commit
//! the new file. Without the flag the smoke checks against that file
//! and exits 1 when a gate breaks.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

#[cfg(feature = "count-allocs")]
use minaret::core::filter::CandidateFilter;
#[cfg(feature = "count-allocs")]
use minaret::core::rank::CandidateScorer;
use minaret::http::{KeepAliveConfig, Method, Request, Server, ServerConfig};
#[cfg(feature = "count-allocs")]
use minaret::json::parse;
use minaret::json::Value;
use minaret::prelude::*;
#[cfg(feature = "count-allocs")]
use minaret::scholarly::{merge_profiles, MergedCandidate};
use minaret::synth::LazyWorld;
use minaret_server::{build_router, AppState};
use minaret_telemetry::Telemetry;

/// Committed baseline, resolved against the workspace root so the smoke
/// works from any working directory.
const BASELINE_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_e7_scalability.json");

/// World size of the connection sweep and the allocation count: small,
/// so the sources' injected round trips, not profile assembly,
/// dominate a request.
const SCHOLARS: usize = 200;

/// Per-call injected source latency in the connection sweep, in
/// microseconds.
const LATENCY_MICROS: u64 = 500;

/// Allowed growth in warm-path allocations per recommendation over the
/// committed baseline (only checked under `--features count-allocs`).
/// The counts are exact up to scheduling: repeated runs of one tree
/// differ by a few allocations in thousands.
#[cfg(feature = "count-allocs")]
const ALLOC_REGRESSION_HEADROOM: f64 = 1.01;

/// Allocations one `merge_profiles` call may make beyond its
/// candidates' [`merge_alloc_bound`]: the candidate list, the sort's
/// buffer and the dedupe's scratch space.
#[cfg(feature = "count-allocs")]
const MERGE_FIXED_ALLOCS: u64 = 3;

/// The measured manuscripts' names and baseline key prefixes: the
/// 3-keyword one's keys carry no prefix.
#[cfg(feature = "count-allocs")]
const ALLOC_MANUSCRIPTS: [(&str, &str); 2] = [("wide", ""), ("narrow", "narrow_")];

/// World size of the cold-start point: a lazy cold start over a
/// streamed snapshot of this many scholars must beat regenerating it.
const WORLD_SCHOLARS: usize = 100_000;

/// Idle keep-alive connection counts in the connection-scaling sweep
/// (E7 serving addendum): with the epoll reactor, idle connections must
/// cost table entries, not threads.
const CONN_SIZES: [usize; 2] = [100, 1_000];

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

#[cfg(feature = "count-allocs")]
mod alloc {
    //! A counting global allocator for allocation-visible benchmarking.
    //!
    //! Wall-clock latency on a 1-CPU container is too noisy to gate small
    //! hot-path regressions, but allocation counts are exact and perfectly
    //! reproducible: the same code path performs the same number of heap
    //! allocations every run. The perf smoke (`examples/perf_smoke.rs`)
    //! installs [`CountingAllocator`] as the global allocator (behind the
    //! `count-allocs` feature) and reports allocations and bytes per
    //! warm-path recommendation, which `ci.sh` gates against the committed
    //! baseline.
    //!
    //! Counting is two relaxed atomic increments per allocation — cheap
    //! enough to leave on for a measurement binary, but not meant for
    //! production servers, hence the feature gate.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// A [`GlobalAlloc`] wrapper around [`System`] that counts every
    /// allocation and allocated byte. Install with `#[global_allocator]`.
    ///
    /// Reallocation growth counts as one allocation (the data moved), and
    /// frees are not subtracted — the counters measure allocator *traffic*,
    /// which is what costs time, not live-set size.
    pub struct CountingAllocator;

    // SAFETY: defers entirely to `System`; the counters are plain atomics
    // and never allocate themselves.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
            System.realloc(ptr, layout, new_size)
        }
    }

    /// A snapshot of the allocation counters, taken with [`snapshot`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AllocSnapshot {
        allocs: u64,
        bytes: u64,
    }

    impl AllocSnapshot {
        /// Allocations performed since `earlier`.
        pub fn allocs_since(&self, earlier: &AllocSnapshot) -> u64 {
            self.allocs.wrapping_sub(earlier.allocs)
        }

        /// Bytes allocated since `earlier`.
        pub fn bytes_since(&self, earlier: &AllocSnapshot) -> u64 {
            self.bytes.wrapping_sub(earlier.bytes)
        }
    }

    /// Reads the current counters. Meaningful only when
    /// [`CountingAllocator`] is installed as the global allocator;
    /// otherwise both deltas stay zero.
    #[must_use]
    pub fn snapshot() -> AllocSnapshot {
        AllocSnapshot {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// True when the counters are live (i.e. the counting allocator is
    /// installed): performs a tiny allocation and checks the counter moved.
    #[must_use]
    pub fn is_counting() -> bool {
        let before = snapshot();
        let probe = vec![0u8; 1];
        std::hint::black_box(&probe);
        let after = snapshot();
        after.allocs_since(&before) > 0
    }
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
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
    for n in CONN_SIZES {
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

struct WorldPoint {
    stream: Duration,
    peak_chunk_bytes: usize,
    cold_start: Duration,
    regen: Duration,
}

/// The E7 cold-start point: stream-generate a world of
/// [`WORLD_SCHOLARS`] straight into an embedded store (write-through
/// chunks, so peak generator memory stays one community block
/// regardless of world size), then time the lazy cold start over that
/// snapshot against regenerating the same world.
fn measure_world_point() -> WorldPoint {
    use minaret::store::{Store, StoreConfig};
    use minaret::synth::{stream_snapshot_world, StreamingGenerator};

    let dir = std::env::temp_dir().join(format!("minaret-perf-world-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = WorldConfig {
        seed: 0xE7,
        ..WorldConfig::sized(WORLD_SCHOLARS)
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
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(SimulatedSource::lazy(spec, lazy.clone())));
    }
    let cold_start = t.elapsed();
    drop(registry);
    drop(lazy);

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

    let _ = std::fs::remove_dir_all(&dir);
    WorldPoint {
        stream,
        peak_chunk_bytes: totals.peak_chunk_bytes,
        cold_start,
        regen,
    }
}

/// One measured manuscript's allocation counts.
#[cfg(feature = "count-allocs")]
struct AllocCounts {
    /// `(allocs, bytes)` per warm recommendation over the uncached
    /// pipeline default.
    uncached: (u64, u64),
    /// Allocations of one pass of `CandidateFilter::decide` over every
    /// kept candidate and `CandidateScorer::score` over every candidate,
    /// after a warm-up pass, on this thread.
    per_candidate: u64,
    /// Candidates the recommendation retrieves.
    candidates: usize,
    /// Allocations of `merge_profiles` over the recommendation's deduped
    /// hits, plus dropping its candidates.
    merge: u64,
    /// The sum of [`merge_alloc_bound`] over those candidates.
    merge_bound: u64,
}

/// The allocations merging `candidate` may make: its profile list, plus
/// a bit set for each of its publication and review lists that loses a
/// copy to the dedupe. That is one for a one-profile candidate whose
/// records are distinct and at most three for any other, however many
/// publications, reviews, interests or keys it holds.
#[cfg(feature = "count-allocs")]
fn merge_alloc_bound(candidate: &MergedCandidate) -> u64 {
    match candidate.profiles() {
        [profile]
            if candidate.publication_count() == profile.publications().len()
                && candidate.review_count() == profile.reviews().len() =>
        {
            1
        }
        _ => 3,
    }
}

/// Allocation counts of the two measured manuscripts: a 3-keyword one
/// whose filter and rank phases take `chunked_map`'s parallel path, and
/// a 1-keyword one retrieving fewer than `MIN_PARALLEL_ITEMS`
/// candidates, whose phases map inline.
#[cfg(feature = "count-allocs")]
fn measure_allocs() -> [AllocCounts; 2] {
    use minaret::concurrent::MIN_PARALLEL_ITEMS;
    use minaret::eval::harness::{EvalContext, ScenarioConfig};

    fn wide(ctx: &EvalContext) -> ManuscriptDetails {
        let sub = ctx.submissions(1, 0xE7).pop().expect("submission");
        let mut manuscript = ctx.manuscript_for(&sub);
        let mut topics = ctx.ontology.topics().map(|t| t.label.clone());
        while manuscript.keywords.len() < 3 {
            let label = topics.next().expect("curated ontology has topics");
            if !manuscript.keywords.contains(&label) {
                manuscript.keywords.push(label);
            }
        }
        manuscript
    }

    /// The wide manuscript with one keyword instead: the first curated
    /// topic whose search retrieves fewer than `MIN_PARALLEL_ITEMS`
    /// candidates and still recommends some.
    fn narrow(ctx: &EvalContext, wide: &ManuscriptDetails) -> ManuscriptDetails {
        ctx.ontology
            .topics()
            .map(|t| ManuscriptDetails {
                keywords: vec![t.label.clone()],
                ..wide.clone()
            })
            .find(|m| {
                ctx.minaret.recommend(m).is_ok_and(|r| {
                    r.candidates_retrieved < MIN_PARALLEL_ITEMS && !r.recommendations.is_empty()
                })
            })
            .expect("some topic retrieves a small candidate set")
    }

    fn per_rec(ctx: &EvalContext, manuscript: &ManuscriptDetails) -> (u64, u64) {
        // Warm the lazy profile stores and their vocabularies, and the
        // worker pools.
        for _ in 0..2 {
            let _ = ctx.minaret.recommend(manuscript).unwrap();
        }
        const N: u64 = 5;
        let before = alloc::snapshot();
        for _ in 0..N {
            let _ = std::hint::black_box(ctx.minaret.recommend(manuscript).unwrap());
        }
        let after = alloc::snapshot();
        (
            after.allocs_since(&before) / N,
            after.bytes_since(&before) / N,
        )
    }

    /// `parse_name`, `normalize_label` and `TokenSet::new` all allocate,
    /// so a pass that allocates nothing derived none of them.
    fn per_candidate(ctx: &EvalContext, manuscript: &ManuscriptDetails) -> (u64, usize) {
        let batch = ctx
            .minaret
            .extract_batch(std::slice::from_ref(manuscript))
            .expect("the manuscript extracts");
        let paper = &batch.papers[0];
        let config = ctx.minaret.config();
        let filter = CandidateFilter::new(&paper.author_records, config);
        let scorer = CandidateScorer::new(&paper.expansion_sets, &manuscript.target_venue, config);
        let candidates: Vec<(&MergedCandidate, f64)> = paper
            .matches
            .iter()
            .map(|m| (&batch.pool[m.pool_index], m.keyword_score))
            .collect();
        let kept: Vec<(&MergedCandidate, f64)> = candidates
            .iter()
            .copied()
            .filter(|&(c, score)| filter.decide(c, score).kept())
            .collect();
        assert!(!kept.is_empty(), "the measured manuscript keeps candidates");
        let pass = || {
            for &(c, score) in &kept {
                std::hint::black_box(filter.decide(c, score));
            }
            for &(c, _) in &candidates {
                std::hint::black_box(scorer.score(c));
            }
        };
        pass();
        let before = alloc::snapshot();
        pass();
        (alloc::snapshot().allocs_since(&before), candidates.len())
    }

    /// Allocations of `merge_profiles` over the manuscript's hits,
    /// deduped, plus dropping the candidates; and their bound.
    fn merge(ctx: &EvalContext, manuscript: &ManuscriptDetails) -> (u64, u64) {
        use minaret::ontology::normalize_label;
        let expander = KeywordExpander::new(&ctx.ontology, ctx.minaret.config().expansion);
        let mut labels = std::collections::BTreeSet::new();
        for kw in &manuscript.keywords {
            if let Ok(expanded) = expander.expand(kw) {
                labels.extend(expanded.iter().map(|e| normalize_label(&e.label)));
            }
            labels.insert(normalize_label(kw));
        }
        let labels: Vec<String> = labels.into_iter().collect();
        let report = ctx.registry.search_by_interests_report(&labels);
        let mut profiles: Vec<_> = report
            .by_label
            .into_iter()
            .flat_map(|(_, hits)| hits)
            .collect();
        profiles.sort_by(|a, b| (a.source, &a.key).cmp(&(b.source, &b.key)));
        profiles.dedup_by(|a, b| a.source == b.source && a.key == b.key);
        let before = alloc::snapshot();
        let merged = merge_profiles(profiles);
        let bound = merged.iter().map(merge_alloc_bound).sum();
        drop(std::hint::black_box(merged));
        (alloc::snapshot().allocs_since(&before), bound)
    }

    let mut scenario = ScenarioConfig::sized(SCHOLARS);
    scenario.source_latency_micros = 0;
    let ctx = EvalContext::build(scenario);
    let wide = wide(&ctx);
    let narrow = narrow(&ctx, &wide);
    [wide, narrow].map(|manuscript| {
        let (per_candidate, candidates) = per_candidate(&ctx, &manuscript);
        let (merge, merge_bound) = merge(&ctx, &manuscript);
        AllocCounts {
            uncached: per_rec(&ctx, &manuscript),
            per_candidate,
            candidates,
            merge,
            merge_bound,
        }
    })
}

fn main() {
    let record = std::env::args().any(|a| a == "--record");

    #[cfg(feature = "count-allocs")]
    let alloc_counts = {
        assert!(
            alloc::is_counting(),
            "count-allocs builds install the counting allocator"
        );
        let counts = measure_allocs();
        for ((name, _), c) in ALLOC_MANUSCRIPTS.iter().zip(&counts) {
            println!(
                "alloc smoke ({name}, {} candidates): uncached warm {} allocs/rec ({} bytes)  \
                 filter+rank per-candidate pass {} allocs",
                c.candidates, c.uncached.0, c.uncached.1, c.per_candidate
            );
        }
        // Exact gate: deciding and scoring candidates derives nothing.
        for ((name, _), c) in ALLOC_MANUSCRIPTS.iter().zip(&counts) {
            if c.per_candidate != 0 {
                eprintln!(
                    "FAIL: CandidateFilter::decide and CandidateScorer::score made {} allocations \
                     over the {name} manuscript's {} candidates; they must make none",
                    c.per_candidate, c.candidates
                );
                std::process::exit(1);
            }
        }
        println!("OK: filter and rank made 0 allocations per candidate on both manuscripts");
        // Exact gate: a merged candidate's allocations do not grow with
        // what its profiles list.
        for ((name, _), c) in ALLOC_MANUSCRIPTS.iter().zip(&counts) {
            let budget = c.merge_bound + MERGE_FIXED_ALLOCS;
            println!(
                "merge alloc gate ({name}, {} candidates): {} allocs ({:.2} per candidate), \
                 budget {budget} ({} by candidate + {MERGE_FIXED_ALLOCS} per merge)",
                c.candidates,
                c.merge,
                c.merge as f64 / c.candidates.max(1) as f64,
                c.merge_bound,
            );
            if c.merge > budget {
                eprintln!(
                    "FAIL: merge_profiles made {} allocations over the {name} manuscript's {} \
                     candidates; the budget is {budget}",
                    c.merge, c.candidates
                );
                std::process::exit(1);
            }
        }
        println!("OK: merging allocates within the per-candidate bound on both manuscripts");
        counts
    };

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

    let world = measure_world_point();
    println!(
        "world point: n={WORLD_SCHOLARS}  stream={:.0} ms ({:.0} scholars/s)  peak_chunk={} KiB  \
         cold_start={:.0} ms  regen={:.0} ms",
        world.stream.as_secs_f64() * 1e3,
        WORLD_SCHOLARS as f64 / world.stream.as_secs_f64().max(1e-9),
        world.peak_chunk_bytes / 1024,
        world.cold_start.as_secs_f64() * 1e3,
        world.regen.as_secs_f64() * 1e3,
    );
    // Cold-start gate: serving a streamed snapshot lazily must beat
    // regenerating the world.
    if world.cold_start >= world.regen {
        eprintln!(
            "FAIL: lazy cold start at {WORLD_SCHOLARS} scholars ({:?}) is not faster than \
             regenerating the world ({:?})",
            world.cold_start, world.regen
        );
        std::process::exit(1);
    }
    println!(
        "OK: lazy cold start beats regeneration at {WORLD_SCHOLARS} scholars ({:.0} ms < {:.0} ms)",
        world.cold_start.as_secs_f64() * 1e3,
        world.regen.as_secs_f64() * 1e3,
    );

    if record {
        let mut json = Value::object()
            .set("scholars", SCHOLARS)
            .set("source_latency_micros", LATENCY_MICROS);
        for p in &conn_points {
            let n = p.conns;
            json = json
                .set(&format!("conn_{n}_p50_micros"), micros(p.p50))
                .set(&format!("conn_{n}_threads"), p.extra_threads);
        }
        let n = WORLD_SCHOLARS;
        json = json
            .set(
                &format!("world_{n}_stream_millis"),
                world.stream.as_millis() as u64,
            )
            .set(
                &format!("world_{n}_gen_rate"),
                n as f64 / world.stream.as_secs_f64().max(1e-9),
            )
            .set(
                &format!("world_{n}_peak_chunk_bytes"),
                world.peak_chunk_bytes,
            )
            .set(
                &format!("world_{n}_cold_start_millis"),
                world.cold_start.as_millis() as u64,
            )
            .set(
                &format!("world_{n}_regen_millis"),
                world.regen.as_millis() as u64,
            );
        #[cfg(feature = "count-allocs")]
        for ((_, prefix), c) in ALLOC_MANUSCRIPTS.iter().zip(&alloc_counts) {
            json = json
                .set(
                    &format!("{prefix}uncached_warm_allocs_per_rec"),
                    c.uncached.0,
                )
                .set(
                    &format!("{prefix}uncached_warm_alloc_bytes_per_rec"),
                    c.uncached.1,
                );
        }
        std::fs::write(BASELINE_PATH, json.to_pretty_string() + "\n")
            .expect("baseline file is writable");
        println!("recorded baseline to {BASELINE_PATH}");
    } else {
        #[cfg(feature = "count-allocs")]
        gate_allocs(&alloc_counts);
    }
}

/// Fails unless each manuscript's warm allocations per recommendation
/// stay within [`ALLOC_REGRESSION_HEADROOM`] of the committed baseline.
#[cfg(feature = "count-allocs")]
fn gate_allocs(counts: &[AllocCounts]) {
    let raw = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        eprintln!("FAIL: no committed baseline at {BASELINE_PATH} ({e}); run with --record first");
        std::process::exit(1);
    });
    let baseline = parse(&raw).expect("baseline parses as JSON");
    for ((_, prefix), c) in ALLOC_MANUSCRIPTS.iter().zip(counts) {
        let field = format!("{prefix}uncached_warm_allocs_per_rec");
        let measured = c.uncached.0;
        let Some(base) = baseline.get(&field).and_then(|v| v.as_u64()) else {
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
}
