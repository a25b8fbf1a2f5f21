//! The four workloads. Each one spawns the release server, sets it up
//! several times (reporting the median set-up), then drives a fixed,
//! seed-determined request sequence through a closed loop, checks every
//! response, and reads the server from outside.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use minaret_assign::{coverage_against_world, Assigner, AssignmentSpec};
use minaret_core::{ManuscriptDetails, Minaret};
use minaret_disambig::{AuthorQuery, IdentityResolver, ResolutionPolicy};
use minaret_json::Value;
use minaret_ontology::{normalize_label, KeywordExpander};
use minaret_scholarly::merge_profiles;
use minaret_server::{
    assign_request_from_json, assignment_to_json, manuscript_from_json, report_to_json, AppState,
    ResultCache,
};
use minaret_store::{Store, StoreConfig};
use minaret_synth::persist::load_world_streamed;
use minaret_synth::{stream_snapshot_world, StreamingGenerator, World, WorldConfig};
use minaret_telemetry::Telemetry;

use crate::check;
use crate::client::{self, Conn, Response};
use crate::inputs::{self, Batch, Manuscript, Stream, SCHOLARS, WORLD_SEED};
use crate::server::{self, Launch, Metrics, Server};
use crate::trace::{self, Span, Spans, ROOT};

/// Workload names, in the order the documentation describes them.
pub const NAMES: [&str; 4] = [
    "recommend-uncached",
    "recommend-hot",
    "assign-contested",
    "cold-start",
];

/// Fewest timed operations in any run.
const MIN_OPS: usize = 10;

/// Operations per second of `--seconds`. A run's operation count is
/// `seconds × rate`, fixed before it starts, so a slower program takes
/// longer instead of doing less (and every source memo fills the same
/// way). The first three are the completion rates on a 2-core machine.
const UNCACHED_RPS: f64 = 3.0;
const HOT_RPS: f64 = 20_000.0;
const ASSIGN_RPS: f64 = 0.75;
/// Twice cold-start's completion rate: 30 restarts at `--seconds 12`,
/// the fewest that give a tail percentile above the median (p66.7)
/// rather than a bare maximum.
const COLD_START_OPS: f64 = 2.5;

/// Untimed uncached requests after boot, from outside the timed set.
const WARMUP_REQUESTS: usize = 2;
/// Prefilled manuscripts the hot workload replays, and the requests per
/// round its figures are medians over.
const HOT_POOL: usize = 16;
const HOT_ROUND: usize = 100;
/// Zipf exponent of the hot replay sequence.
const HOT_ZIPF: f64 = 1.0;
/// A result-cache TTL longer than any run (one hour, in ms).
const HOT_CACHE_TTL_MS: u64 = 3_600_000;
/// Papers per contested batch, the keyword sets they share, reviewers
/// per paper and the load limit that binds.
const BATCH_PAPERS: usize = 10;
const BATCH_THEMES: usize = 3;
const REVIEWERS_PER_PAPER: usize = 3;
const MAX_LOAD: usize = 1;
/// Uncached requests that persist source profiles into the cold-start
/// data dir.
const COLD_SETUP_REQUESTS: usize = 3;

/// What a workload run needs.
pub struct Ctx {
    /// How to start the server.
    pub launch: Launch,
    /// Workload seed: fixes every input byte.
    pub seed: u64,
    /// Nominal measuring time; sets the operation count.
    pub seconds: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Scratch space for data dirs and span files.
    pub work_dir: PathBuf,
    /// The served world, regenerated here to build inputs.
    pub world: Arc<World>,
    /// The in-process replay state of a traced run.
    pub replay: Option<Replay>,
}

/// In-process state for a traced run: an `AppState` built the way
/// `minaret-server` builds it, plus the span store.
pub struct Replay {
    /// The replay state.
    pub state: Arc<AppState>,
    /// Its telemetry, read for the solver's own phase split.
    pub telemetry: Telemetry,
    /// Recorded spans.
    pub spans: Spans,
}

impl Replay {
    /// Builds the replay state for the served world.
    pub fn new() -> Replay {
        let telemetry = Telemetry::new();
        let state = AppState::demo_with_cache_ttl(
            SCHOLARS,
            WORLD_SEED,
            telemetry.clone(),
            HOT_CACHE_TTL_MS * 1_000,
        );
        Replay {
            state,
            telemetry,
            spans: Spans::default(),
        }
    }
}

/// A pass/fail validity guard: a broken guard makes the run invalid,
/// not slow.
#[derive(Debug, Clone)]
pub struct Guard {
    /// What is checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The observed value.
    pub detail: String,
}

/// One successful timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When it was sent, seconds into the timed phase.
    pub start_s: f64,
    /// Client-observed time, ms.
    pub ms: f64,
}

/// A run's end-to-end figures.
#[derive(Debug, Clone)]
pub struct Summary {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// The tail latency, its percentile and sample count.
    pub tail: crate::stats::Tail,
    /// Completed operations per second.
    pub throughput_rps: f64,
    /// Peak server memory, MB.
    pub peak_rss_mb: f64,
    /// Rounds the figures are medians over (1: the whole run).
    pub rounds: usize,
}

/// One run's raw results.
#[derive(Debug, Default)]
pub struct Run {
    /// Seconds from spawn to the timed phase, per set-up.
    pub setup_s: Vec<f64>,
    /// Successful operations, in request order.
    pub ops: Vec<Op>,
    /// Operations per round, or 0 when the run is one round.
    pub round: usize,
    /// Timed-phase wall time, s.
    pub wall_s: f64,
    /// Operations attempted and failed.
    pub attempted: usize,
    /// Failed operations.
    pub failed: usize,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Server `VmHWM` at the end of the timed phase, MB.
    pub peak_rss_mb: f64,
    /// Fingerprint of every response body with the timings removed.
    pub fingerprint: u64,
    /// Validity guards.
    pub guards: Vec<Guard>,
    /// Per-layer values measured from outside (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Per-layer metrics a probe filled, not the workload's requests.
    pub probed: Vec<&'static str>,
    /// The rendered per-layer table (traced runs).
    pub table: Option<String>,
}

impl Run {
    /// Every response checked out and every guard held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.guards.iter().all(|g| g.ok)
    }

    fn guard(&mut self, name: &'static str, ok: bool, detail: String) {
        self.guards.push(Guard { name, ok, detail });
    }

    fn absorb(&mut self, out: LoopOut) {
        self.wall_s = out.wall.as_secs_f64();
        self.attempted += out.attempted;
        self.failed += out.failures.len();
        self.failures.extend(out.failures.into_iter().take(5));
        self.ops = out.ops;
        self.fingerprint = check::fingerprint(&out.hashes);
    }

    /// Client-observed times of the successful operations, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.ms).collect()
    }

    /// The end-to-end figures. A run measured in rounds reports the
    /// median over rounds of each round's median, tail and throughput,
    /// so a stall in one round moves no figure; a run of one round
    /// reports them over all its operations and its whole wall time.
    pub fn summary(&self) -> Summary {
        use crate::stats::{median, tail};
        let setup_s = median(&self.setup_s);
        if self.round == 0 || self.ops.len() < 2 * self.round {
            let ms = self.latencies_ms();
            return Summary {
                setup_s,
                p50_ms: median(&ms),
                tail: tail(&ms),
                throughput_rps: self.ops.len() as f64 / self.wall_s,
                peak_rss_mb: self.peak_rss_mb,
                rounds: 1,
            };
        }
        let rounds: Vec<&[Op]> = self.ops.chunks_exact(self.round).collect();
        let per =
            |f: &dyn Fn(&[Op]) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
        let ms = |r: &[Op]| r.iter().map(|o| o.ms).collect::<Vec<_>>();
        let tails: Vec<crate::stats::Tail> = rounds.iter().map(|r| tail(&ms(r))).collect();
        Summary {
            setup_s,
            p50_ms: per(&|r| median(&ms(r))),
            tail: crate::stats::Tail {
                value: median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
                ..tails[0]
            },
            throughput_rps: per(&|r| {
                let start = r.iter().map(|o| o.start_s).fold(f64::MAX, f64::min);
                let end = r
                    .iter()
                    .map(|o| o.start_s + o.ms / 1e3)
                    .fold(f64::MIN, f64::max);
                r.len() as f64 / (end - start)
            }),
            peak_rss_mb: self.peak_rss_mb,
            rounds: rounds.len(),
        }
    }
}

/// Runs `name`.
pub fn run(name: &str, ctx: &Ctx) -> Result<Run, String> {
    match name {
        "recommend-uncached" => recommend_uncached(ctx),
        "recommend-hot" => recommend_hot(ctx),
        "assign-contested" => assign_contested(ctx),
        "cold-start" => cold_start(ctx),
        other => Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    }
}

fn ops(ctx: &Ctx, rate: f64) -> usize {
    ((ctx.seconds as f64 * rate).ceil() as usize).max(MIN_OPS)
}

// ---- closed loop ----------------------------------------------------

struct LoopOut {
    ops: Vec<Op>,
    hashes: Vec<u64>,
    failures: Vec<String>,
    attempted: usize,
    wall: Duration,
    body_bytes: u64,
}

/// One request's result: its timing, body hash and body size.
type Outcome = Result<(Op, u64, usize), String>;

/// Sends requests `0..count` over `connections` keep-alive connections,
/// each sending its next request only after the previous answer. `handle`
/// checks a 200 answer (and, in a traced run, replays it) outside the
/// timed interval and returns the body hash for the fingerprint.
fn closed_loop<'a>(
    addr: SocketAddr,
    connections: usize,
    count: usize,
    request: impl Fn(usize) -> &'a [u8] + Sync,
    handle: impl Fn(usize, &Response, f64) -> Result<u64, String> + Sync,
) -> LoopOut {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let threads: Vec<Vec<(usize, Outcome)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::new(addr);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let t0 = Instant::now();
                        let sent = conn.send(request(i));
                        let op = Op {
                            start_s: t0.duration_since(started).as_secs_f64(),
                            ms: t0.elapsed().as_secs_f64() * 1e3,
                        };
                        let outcome = match sent {
                            Ok(resp) if resp.status == 200 => {
                                handle(i, &resp, op.ms).map(|h| (op, h, resp.body.len()))
                            }
                            Ok(resp) => Err(format!(
                                "request {i}: status {}: {}",
                                resp.status,
                                String::from_utf8_lossy(&resp.body[..resp.body.len().min(200)])
                            )),
                            Err(e) => Err(format!("request {i}: {e}")),
                        };
                        out.push((i, outcome));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut by_index: Vec<Option<Outcome>> = vec![None; count];
    for (i, o) in threads.into_iter().flatten() {
        by_index[i] = Some(o);
    }
    let mut out = LoopOut {
        ops: Vec::with_capacity(count),
        hashes: Vec::with_capacity(count),
        failures: Vec::new(),
        attempted: count,
        wall,
        body_bytes: 0,
    };
    for o in by_index.into_iter().flatten() {
        match o {
            Ok((op, hash, bytes)) => {
                out.ops.push(op);
                out.hashes.push(hash);
                out.body_bytes += bytes as u64;
            }
            Err(e) => {
                out.hashes.push(0);
                out.failures.push(e);
            }
        }
    }
    out
}

/// Sends one request on a fresh connection, wanting a 200.
fn send_ok(addr: SocketAddr, request: &[u8]) -> Result<Response, String> {
    let resp = Conn::new(addr)
        .send(request)
        .map_err(|e| format!("set-up request failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!(
            "set-up request answered {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    Ok(resp)
}

/// Sends untimed set-up requests over two connections, checks each 200
/// answer with `check`, and returns the bodies in request order.
fn set_up_requests(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    check: impl Fn(usize, &[u8]) -> Result<(), String> + Sync,
) -> Result<Vec<Vec<u8>>, String> {
    let bodies = Mutex::new(vec![Vec::new(); requests.len()]);
    let out = closed_loop(
        addr,
        2,
        requests.len(),
        |i| &requests[i],
        |i, resp, _| {
            check(i, &resp.body)?;
            bodies.lock().expect("body store poisoned")[i] = resp.body.clone();
            Ok(0)
        },
    );
    match out.failures.first() {
        Some(e) => Err(format!("set-up request failed: {e}")),
        None => Ok(bodies.into_inner().expect("body store poisoned")),
    }
}

/// Runs `once` `ctx.setups` times, each from a fresh spawn, and keeps
/// the last result; each earlier server stops before the next starts.
fn set_up<T>(
    ctx: &Ctx,
    run: &mut Run,
    mut once: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..ctx.setups.max(1) {
        drop(kept.take());
        let started = Instant::now();
        let value = once()?;
        run.setup_s.push(started.elapsed().as_secs_f64());
        kept = Some(value);
    }
    Ok(kept.expect("at least one set-up ran"))
}

fn start(ctx: &Ctx, flags: &[&str]) -> Result<Server, String> {
    let mut launch = ctx.launch.clone();
    launch.flags = flags.iter().map(|f| f.to_string()).collect();
    Server::start(&launch).map_err(|e| format!("cannot start {}: {e}", launch.binary.display()))
}

fn scrape(server: &Server) -> Result<Metrics, String> {
    server.metrics().map_err(|e| format!("/metrics: {e}"))
}

fn cpu(server: &Server) -> Result<Duration, String> {
    server.cpu_time().map_err(|e| format!("/proc stat: {e}"))
}

fn rss(server: &Server) -> Result<f64, String> {
    server
        .peak_rss_mb()
        .map_err(|e| format!("/proc status: {e}"))
}

/// What the server was asked and answered over the timed phase, for
/// the layers measured from outside.
struct Served {
    /// Requests sent.
    requests: usize,
    /// Mean client-observed time per request, ms.
    client_ms: f64,
    /// Wall time the server was observed over, s.
    wall_s: f64,
    /// Response body bytes received.
    body_bytes: u64,
    /// Server CPU time (user + system) over the same interval.
    cpu: Duration,
}

impl Served {
    fn from_loop(out: &LoopOut, cpu: Duration) -> Served {
        Served {
            requests: out.attempted,
            client_ms: out.ops.iter().map(|o| o.ms).sum::<f64>() / out.ops.len().max(1) as f64,
            wall_s: out.wall.as_secs_f64(),
            body_bytes: out.body_bytes,
            cpu,
        }
    }
}

/// Guards and per-layer values every served workload shares, from the
/// `/metrics` delta over the timed phase and `/proc` CPU time.
fn serving_layers(run: &mut Run, route: &str, delta: &Metrics, served: &Served) {
    let shed = delta.get("minaret_http_shed_total");
    run.guard(
        "minaret_http_shed_total = 0",
        shed == 0.0,
        format!("{shed}"),
    );
    let n = served.requests.max(1) as f64;
    let handler_ms = ratio(
        delta.get(&format!(
            "minaret_http_request_micros_sum{{route=\"{route}\"}}"
        )),
        delta.get(&format!(
            "minaret_http_request_micros_count{{route=\"{route}\"}}"
        )),
    ) / 1e3;
    let cpu_s = served.cpu.as_secs_f64();
    let hits = delta.get("minaret_result_cache_hits_total");
    let misses = delta.get("minaret_result_cache_misses_total");
    for (name, value) in [
        ("process.cpu_cores", cpu_s / served.wall_s),
        ("process.cpu_ms_per_req", cpu_s * 1e3 / n),
        ("server.handler_ms", handler_ms),
        (
            "http.outside_handler_us",
            (served.client_ms - handler_ms) * 1e3,
        ),
        (
            "http.queue_wait_us",
            ratio(
                delta.get("minaret_http_time_in_queue_micros_sum"),
                delta.get("minaret_http_time_in_queue_micros_count"),
            ),
        ),
        (
            "http.reactor_dispatch_us",
            ratio(
                delta.get("minaret_http_reactor_dispatch_micros_sum"),
                delta.get("minaret_http_reactor_dispatch_micros_count"),
            ),
        ),
        (
            "http.wakeups_per_req",
            delta.get("minaret_http_reactor_wakeups_total") / n,
        ),
        (
            "http.conn_closes_per_kreq",
            1e3 * delta.get("minaret_http_requests_per_connection_count") / n,
        ),
        ("server.response_kb", served.body_bytes as f64 / 1024.0 / n),
        (
            "scholarly.source_calls_per_req",
            delta.sum("minaret_source_requests_total") / n,
        ),
        (
            "scholarly.lazy_builds_per_req",
            delta.sum("minaret_profile_lazy_builds_total") / n,
        ),
        ("server.cache_hit_share", ratio(hits, hits + misses)),
    ] {
        run.layers.insert(name, value);
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Phase timings and counts an uncached `/recommend` answer carries.
fn record_phases(spans: &Spans, i: usize, v: &Value, parent: &'static str) {
    let t = v.get(check::TIMINGS_KEY);
    for (key, name) in [
        ("extraction", "core.extraction"),
        ("filtering", "core.filtering"),
        ("ranking", "core.ranking"),
    ] {
        let ms = t
            .and_then(|t| t.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        spans.record(i, name, parent, ms);
    }
    let retrieved = v
        .get("candidates_retrieved")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let filtered = v.get("filtered_out").and_then(Value::as_f64).unwrap_or(0.0);
    spans.record(i, "value.candidates", "", retrieved);
    spans.record(i, "value.kept", "", retrieved - filtered);
}

/// The extraction sub-layers replayed in-process: expansion, identity
/// resolution, the batched fan-out over the expanded labels and the
/// merge, for one or more manuscripts sharing one fan-out.
fn replay_extraction(
    r: &Replay,
    i: usize,
    manuscripts: &[ManuscriptDetails],
    parent: &'static str,
) {
    let state = &r.state;
    let config = state.minaret.config();
    let expander = KeywordExpander::new(&state.ontology, config.expansion);
    let labels: Vec<String> = r.spans.time(i, "ontology.expand", parent, || {
        let mut labels = std::collections::BTreeSet::new();
        for m in manuscripts {
            for kw in m.keywords.iter().filter(|k| !k.trim().is_empty()) {
                if let Ok(expanded) = expander.expand(kw) {
                    labels.extend(expanded.iter().map(|e| normalize_label(&e.label)));
                }
                labels.insert(normalize_label(kw));
            }
        }
        labels.into_iter().collect()
    });
    r.spans.record(i, "value.labels", "", labels.len() as f64);
    r.spans.time(i, "disambig.resolve", parent, || {
        let resolver = IdentityResolver::new(&state.registry);
        for m in manuscripts {
            for a in &m.authors {
                resolver.resolve(
                    AuthorQuery {
                        name: a.name.clone(),
                        affiliation: a.affiliation.clone(),
                        country: a.country.clone(),
                        context_keywords: m.keywords.clone(),
                    },
                    &ResolutionPolicy::AutoTop1,
                );
            }
        }
    });
    let report = r.spans.time(i, "scholarly.fanout", parent, || {
        state.registry.search_by_interests_report(&labels)
    });
    let mut profiles: Vec<_> = report
        .by_label
        .into_iter()
        .flat_map(|(_, hits)| hits)
        .collect();
    let hits = profiles.len();
    profiles.sort_by(|a, b| (a.source, &a.key).cmp(&(b.source, &b.key)));
    profiles.dedup_by(|a, b| a.source == b.source && a.key == b.key);
    r.spans.record(i, "value.hits", "", hits as f64);
    r.spans.record(i, "value.unique", "", profiles.len() as f64);
    r.spans
        .time(i, "scholarly.merge", parent, || merge_profiles(profiles));
}

/// Replays the `/recommend` handler's own steps on request `i`'s body.
/// Returns the decoded manuscript.
fn replay_recommend_front(r: &Replay, i: usize, body: &[u8]) -> ManuscriptDetails {
    let state = &r.state;
    let (manuscript, config) = r.spans.time(i, "server.decode", ROOT, || {
        let v = minaret_json::parse(std::str::from_utf8(body).expect("inputs are UTF-8"))
            .expect("inputs are JSON");
        manuscript_from_json(&v, state.minaret.config()).expect("inputs decode")
    });
    let key = r.spans.time(i, "server.fingerprint", ROOT, || {
        ResultCache::fingerprint(&manuscript, &config)
    });
    let cache = state.result_cache.as_ref().expect("replay state caches");
    r.spans.time(i, "server.cache_get", ROOT, || cache.get(key));
    manuscript
}

/// Spans (and counts recorded as spans) behind the per-layer metrics,
/// with the factor from milliseconds to the metric's unit.
const SPAN_METRICS: &[(&str, &str, f64)] = &[
    ("server.decode", "server.decode_us", 1e3),
    ("server.fingerprint", "server.fingerprint_us", 1e3),
    ("server.cache_get", "server.cache_get_us", 1e3),
    ("server.encode", "server.encode_ms", 1.0),
    ("server.coverage", "server.coverage_ms", 1.0),
    ("server.assign_encode", "server.assign_encode_ms", 1.0),
    ("core.extraction", "core.extraction_ms", 1.0),
    ("core.filtering", "core.filtering_ms", 1.0),
    ("core.ranking", "core.ranking_ms", 1.0),
    ("ontology.expand", "ontology.expand_us", 1e3),
    ("disambig.resolve", "disambig.resolve_ms", 1.0),
    ("scholarly.fanout", "scholarly.fanout_ms", 1.0),
    ("scholarly.merge", "scholarly.merge_ms", 1.0),
    ("assign.extract", "assign.extract_ms", 1.0),
    ("assign.solve", "assign.solve_ms", 1.0),
    ("synth.snapshot_write", "synth.snapshot_write_ms", 1.0),
    ("synth.snapshot_load", "synth.snapshot_load_ms", 1.0),
    ("store.recovery", "store.recovery_ms", 1.0),
    ("value.candidates", "core.candidates", 1.0),
    ("value.labels", "ontology.labels_per_req", 1.0),
    ("value.hits", "scholarly.hits_per_req", 1.0),
    ("value.pool_size", "assign.pool_size", 1.0),
    ("value.eligible_pairs", "assign.eligible_pairs", 1.0),
    ("value.augmentations", "assign.augmentations", 1.0),
    ("value.refinement_gain", "assign.refinement_gain", 1.0),
    ("value.core_unaccounted", "core.unaccounted_ms", 1.0),
];

/// Per-layer values of the spans present, averaged over `requests`.
fn span_values(spans: &[Span], requests: usize) -> BTreeMap<&'static str, f64> {
    let rows = trace::rows(spans, requests);
    let mean = |name: &str| trace::mean_ms(&rows, name);
    let present = |name: &str| rows.iter().any(|r| r.name == name);
    let mut values: BTreeMap<&'static str, f64> = SPAN_METRICS
        .iter()
        .filter(|(span, _, _)| present(span))
        .map(|&(span, metric, scale)| (metric, mean(span) * scale))
        .collect();
    if present("value.candidates") {
        values.insert(
            "core.kept_share",
            ratio(mean("value.kept"), mean("value.candidates")),
        );
    }
    if present("value.hits") {
        values.insert(
            "scholarly.unique_share",
            ratio(mean("value.unique"), mean("value.hits")),
        );
    }
    values
}

/// Ends a traced pass: per-layer values from the request spans, probes
/// for the layers those spans never reached, the rendered table, and the
/// span file. `request_parent` is the span the HTTP request sits under.
/// Returns the table.
fn finish_trace(
    ctx: &Ctx,
    run: &mut Run,
    name: &str,
    requests: usize,
    inputs: &[Manuscript],
    request_parent: &'static str,
) -> Result<Option<String>, String> {
    let Some(r) = &ctx.replay else {
        return Ok(None);
    };
    // The time outside the handler, as a span per request: client time
    // minus the route's mean handler time from `/metrics`.
    let outside_ms = run
        .layers
        .get("http.outside_handler_us")
        .copied()
        .unwrap_or(0.0)
        / 1e3;
    for i in 0..requests {
        r.spans
            .record(i, "http.outside_handler", request_parent, outside_ms);
    }
    let spans = r.spans.take();
    let values = span_values(&spans, requests);
    let phases: f64 = ["core.extraction_ms", "core.filtering_ms", "core.ranking_ms"]
        .iter()
        .filter_map(|m| values.get(m))
        .sum();
    if values.contains_key("core.extraction_ms") {
        let handler = run.layers.get("server.handler_ms").copied().unwrap_or(0.0);
        run.layers.insert("core.unaccounted_ms", handler - phases);
    }
    run.layers.extend(values);
    probe(ctx, r, run, inputs)?;
    for (metric, value) in span_values(&r.spans.take(), 1) {
        if !run.layers.contains_key(metric) {
            run.layers.insert(metric, value);
            run.probed.push(metric);
        }
    }
    // The table's bottom lines: layer self times against end-to-end.
    let rows = trace::rows(&spans, requests);
    let e2e = trace::mean_ms(&rows, ROOT);
    let unaccounted = rows
        .iter()
        .find(|r| r.name == ROOT)
        .map_or(0.0, |r| r.self_ms);
    run.layers.insert("trace.e2e_ms", e2e);
    run.layers.insert("trace.layers_ms", e2e - unaccounted);
    run.layers.insert("trace.unaccounted_ms", unaccounted);
    let timed: Vec<Span> = spans
        .iter()
        .filter(|s| !s.name.starts_with("value."))
        .cloned()
        .collect();
    let path = ctx
        .work_dir
        .join(format!("spans-{name}-{}.jsonl", ctx.seed));
    trace::write_jsonl(&spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Some(trace::render(&trace::rows(&timed, requests))))
}

/// The request index of probe spans.
const PROBE: usize = usize::MAX;

/// Gives every layer a figure on every workload. After the traced pass,
/// the layers the workload's requests never reach are called directly,
/// once, on the workload's own first inputs and outside any request
/// span: the `/recommend` path on the first manuscript, `/assign`'s
/// solver on a batch of the first ten, and a snapshot round trip through
/// the store for a workload that runs without one. The printed list
/// marks the values these calls fill as probes.
fn probe(ctx: &Ctx, r: &Replay, run: &mut Run, inputs: &[Manuscript]) -> Result<(), String> {
    let manuscript = replay_recommend_front(r, PROBE, &inputs[0].body);
    let started = Instant::now();
    if let Ok(report) = r.state.minaret.recommend(&manuscript) {
        let pipeline_ms = started.elapsed().as_secs_f64() * 1e3;
        let t = &report.timings;
        let phases_ms = (t.extraction + t.filtering + t.ranking).as_secs_f64() * 1e3;
        r.spans
            .record(PROBE, "value.core_unaccounted", "", pipeline_ms - phases_ms);
        let v = r.spans.time(PROBE, "server.encode", ROOT, || {
            let v = report_to_json(&report);
            v.to_json();
            v
        });
        record_phases(&r.spans, PROBE, &v, ROOT);
    }
    replay_extraction(
        r,
        PROBE,
        std::slice::from_ref(&manuscript),
        "core.extraction",
    );
    if !run.layers.contains_key("assign.solve_ms") {
        let batch: Vec<ManuscriptDetails> = inputs
            .iter()
            .take(BATCH_PAPERS)
            .map(|m| m.details.clone())
            .collect();
        replay_assign_rest(r, PROBE, &batch);
    }
    if !run.layers.contains_key("synth.snapshot_write_ms") {
        let mb = snapshot_round_trip(r, PROBE, &ctx.work_dir.join(format!("probe-{}", ctx.seed)))?;
        run.layers.entry("store.dir_mb").or_insert_with(|| {
            run.probed.push("store.dir_mb");
            mb
        });
    }
    Ok(())
}

/// Writes the served world as a snapshot into a fresh store at `dir`,
/// reopens it (WAL recovery) and loads the world back, as spans of
/// `request`. Returns the store's size in MB.
fn snapshot_round_trip(r: &Replay, request: usize, dir: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_dir_all(dir);
    let err = |e: minaret_store::StoreError| format!("{}: {e}", dir.display());
    r.spans.time(request, "synth.snapshot_write", ROOT, || {
        let store = Store::open(dir, StoreConfig::default()).map_err(err)?;
        let generator = StreamingGenerator::new(WorldConfig {
            seed: WORLD_SEED,
            ..WorldConfig::sized(SCHOLARS)
        });
        stream_snapshot_world(&store, &generator, |_| {}).map_err(err)
    })?;
    let store = r.spans.time(request, "store.recovery", ROOT, || {
        Store::open(dir, StoreConfig::default()).map_err(err)
    })?;
    r.spans
        .time(request, "synth.snapshot_load", ROOT, || {
            load_world_streamed(&store)
        })
        .map_err(err)?;
    drop(store);
    let bytes = server::dir_bytes(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(bytes as f64 / (1024.0 * 1024.0))
}

// ---- recommend-uncached ---------------------------------------------

fn recommend_requests(manuscripts: &[Manuscript]) -> Vec<Vec<u8>> {
    manuscripts
        .iter()
        .map(|m| client::post("/recommend", &m.body))
        .collect()
}

fn recommend_uncached(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let count = ops(ctx, UNCACHED_RPS);
    let warmup = inputs::manuscripts(&ctx.world, ctx.seed, WARMUP_REQUESTS, Stream::SetUp);
    let timed = inputs::manuscripts(&ctx.world, ctx.seed, count, Stream::Timed);
    let requests = recommend_requests(&timed);
    let warmup_requests = recommend_requests(&warmup);
    let server = set_up(ctx, &mut run, || {
        let server = start(ctx, &[])?;
        set_up_requests(server.addr, &warmup_requests, |i, body| {
            check::recommend(body, &warmup[i].details).map(drop)
        })?;
        Ok(server)
    })?;
    if let Some(r) = &ctx.replay {
        // The replay state sees the same warm-up the server saw.
        for m in &warmup {
            let _ = r.state.minaret.recommend(&m.details);
        }
    }
    let before = scrape(&server)?;
    let cpu0 = cpu(&server)?;
    let out = closed_loop(
        server.addr,
        2,
        count,
        |i| &requests[i],
        |i, resp, ms| {
            let v = check::recommend(&resp.body, &timed[i].details)?;
            if let Some(r) = &ctx.replay {
                replay_uncached(r, i, &timed[i], &v, ms);
            }
            Ok(check::fnv1a(&check::strip_timings(&resp.body)))
        },
    );
    let cpu = cpu(&server)?.saturating_sub(cpu0);
    run.peak_rss_mb = rss(&server)?;
    let delta = scrape(&server)?.delta(&before);
    serving_layers(
        &mut run,
        "/recommend",
        &delta,
        &Served::from_loop(&out, cpu),
    );
    let hits = delta.get("minaret_result_cache_hits_total");
    run.guard(
        "server.cache_hit_share = 0",
        hits == 0.0,
        format!("{hits} hits"),
    );
    drop(server);
    let n = out.attempted;
    run.absorb(out);
    run.table = finish_trace(ctx, &mut run, "recommend-uncached", n, &timed, ROOT)?;
    Ok(run)
}

fn replay_uncached(r: &Replay, i: usize, m: &Manuscript, v: &Value, ms: f64) {
    r.spans.record(i, ROOT, "", ms);
    let manuscript = replay_recommend_front(r, i, &m.body);
    record_phases(&r.spans, i, v, ROOT);
    // The whole pipeline first, on a source memo in the state the
    // server's was in; then its extraction sub-layers on the warm memo.
    if let Ok(report) = r.state.minaret.recommend(&manuscript) {
        r.spans.time(i, "server.encode", ROOT, || {
            report_to_json(&report).to_json()
        });
    }
    replay_extraction(r, i, std::slice::from_ref(&manuscript), "core.extraction");
}

// ---- recommend-hot --------------------------------------------------

fn recommend_hot(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let count = ops(ctx, HOT_RPS).div_ceil(HOT_ROUND) * HOT_ROUND;
    let pool = inputs::manuscripts(&ctx.world, ctx.seed, HOT_POOL, Stream::Timed);
    let requests = recommend_requests(&pool);
    let sequence = inputs::zipf_sequence(ctx.seed, HOT_POOL, HOT_ZIPF, count);
    let (server, prefill) = set_up(ctx, &mut run, || {
        let server = start(ctx, &["--cache-ttl-ms", &HOT_CACHE_TTL_MS.to_string()])?;
        let bodies = set_up_requests(server.addr, &requests, |i, body| {
            check::recommend(body, &pool[i].details).map(drop)
        })?;
        Ok((server, bodies))
    })?;
    let hashes: Vec<u64> = prefill
        .iter()
        .map(|b| check::fnv1a(&check::strip_timings(b)))
        .collect();
    if let Some(r) = &ctx.replay {
        let cache = r.state.result_cache.as_ref().expect("replay state caches");
        for (m, body) in pool.iter().zip(&prefill) {
            cache.insert(
                ResultCache::fingerprint(&m.details, r.state.minaret.config()),
                body.clone(),
            );
        }
    }
    let before = scrape(&server)?;
    let cpu0 = cpu(&server)?;
    let out = closed_loop(
        server.addr,
        2,
        count,
        |i| &requests[sequence[i]],
        |i, resp, ms| {
            let j = sequence[i];
            if resp.body != prefill[j] {
                return Err(format!("request {i}: body differs from the prefill of {j}"));
            }
            if let Some(r) = &ctx.replay {
                r.spans.record(i, ROOT, "", ms);
                replay_recommend_front(r, i, &pool[j].body);
            }
            Ok(hashes[j])
        },
    );
    let cpu = cpu(&server)?.saturating_sub(cpu0);
    run.peak_rss_mb = rss(&server)?;
    let delta = scrape(&server)?.delta(&before);
    serving_layers(
        &mut run,
        "/recommend",
        &delta,
        &Served::from_loop(&out, cpu),
    );
    let hits = delta.get("minaret_result_cache_hits_total");
    let misses = delta.get("minaret_result_cache_misses_total");
    run.guard(
        "server.cache_hit_share = 1",
        misses == 0.0 && hits == count as f64,
        format!("{hits} hits, {misses} misses"),
    );
    drop(server);
    run.absorb(out);
    run.round = HOT_ROUND;
    run.table = finish_trace(ctx, &mut run, "recommend-hot", count, &pool, ROOT)?;
    Ok(run)
}

// ---- assign-contested -----------------------------------------------

fn assign_contested(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let count = ops(ctx, ASSIGN_RPS);
    let batches = |stream: Stream, n: usize| -> Vec<Batch> {
        inputs::contested_batches(
            &ctx.world,
            ctx.seed,
            stream,
            n,
            BATCH_PAPERS,
            BATCH_THEMES,
            REVIEWERS_PER_PAPER,
            MAX_LOAD,
        )
    };
    let warmup = batches(Stream::SetUp, 1);
    let timed = batches(Stream::Timed, count);
    let requests: Vec<Vec<u8>> = timed
        .iter()
        .map(|b| client::post("/assign", &b.body))
        .collect();
    let server = set_up(ctx, &mut run, || {
        let server = start(ctx, &[])?;
        let resp = send_ok(server.addr, &client::post("/assign", &warmup[0].body))?;
        check::assign(
            &resp.body,
            &warmup[0].manuscripts,
            REVIEWERS_PER_PAPER,
            MAX_LOAD,
        )?;
        Ok(server)
    })?;
    if let Some(r) = &ctx.replay {
        // The replay state sees the same warm-up the server saw.
        replay_assign_rest(r, PROBE, &warmup[0].manuscripts);
        let _ = r.spans.take();
    }
    let before = scrape(&server)?;
    let cpu0 = cpu(&server)?;
    let out = closed_loop(
        server.addr,
        1,
        count,
        |i| &requests[i],
        |i, resp, ms| {
            let batch = &timed[i];
            check::assign(
                &resp.body,
                &batch.manuscripts,
                REVIEWERS_PER_PAPER,
                MAX_LOAD,
            )?;
            if let Some(r) = &ctx.replay {
                replay_assign(r, i, batch, ms);
            }
            Ok(check::fnv1a(&check::strip_timings(&resp.body)))
        },
    );
    let cpu = cpu(&server)?.saturating_sub(cpu0);
    run.peak_rss_mb = rss(&server)?;
    let delta = scrape(&server)?.delta(&before);
    serving_layers(&mut run, "/assign", &delta, &Served::from_loop(&out, cpu));
    drop(server);
    run.absorb(out);
    let first_batch: Vec<Manuscript> = timed[0]
        .manuscripts
        .iter()
        .map(Manuscript::from_details)
        .collect();
    run.table = finish_trace(ctx, &mut run, "assign-contested", count, &first_batch, ROOT)?;
    Ok(run)
}

/// Replays `/assign`'s work after decoding on `manuscripts`:
/// `Assigner::assign` (its time split into extraction and solving by the
/// solver's own trace), the coverage grading and the encoding, plus the
/// solver's counts.
fn replay_assign_rest(r: &Replay, i: usize, manuscripts: &[ManuscriptDetails]) {
    let state = &r.state;
    let assigner = Assigner::new(
        Minaret::new(
            state.registry.clone(),
            state.ontology.clone(),
            state.minaret.config().clone(),
        )
        .with_telemetry(r.telemetry.clone()),
    )
    .with_telemetry(r.telemetry.clone());
    let started = Instant::now();
    let solved = assigner.assign(
        manuscripts,
        &AssignmentSpec::new(REVIEWERS_PER_PAPER, MAX_LOAD),
    );
    let total_ms = started.elapsed().as_secs_f64() * 1e3;
    let extract_ms = r
        .telemetry
        .recent_traces()
        .into_iter()
        .find(|t| t.name == "assign")
        .and_then(|t| t.spans.into_iter().find(|s| s.name == "extract"))
        .map_or(0.0, |s| s.duration_micros as f64 / 1e3);
    r.spans.record(i, "assign.extract", ROOT, extract_ms);
    r.spans
        .record(i, "assign.solve", ROOT, total_ms - extract_ms);
    let Ok(solved) = solved else { return };
    r.spans.time(i, "server.coverage", ROOT, || {
        coverage_against_world(&state.world, manuscripts, &solved)
    });
    r.spans.time(i, "server.assign_encode", ROOT, || {
        assignment_to_json(&solved).to_json()
    });
    for (name, value) in [
        ("value.pool_size", solved.pool_size as f64),
        ("value.eligible_pairs", solved.eligible_pairs as f64),
        ("value.augmentations", solved.augmentations as f64),
        (
            "value.refinement_gain",
            solved.total_score - solved.greedy_total,
        ),
    ] {
        r.spans.record(i, name, "", value);
    }
}

fn replay_assign(r: &Replay, i: usize, batch: &Batch, ms: f64) {
    r.spans.record(i, ROOT, "", ms);
    let manuscripts = r.spans.time(i, "server.decode", ROOT, || {
        let v = minaret_json::parse(std::str::from_utf8(&batch.body).expect("inputs are UTF-8"))
            .expect("inputs are JSON");
        assign_request_from_json(&v, r.state.minaret.config())
            .expect("inputs decode")
            .0
    });
    replay_assign_rest(r, i, &manuscripts);
    replay_extraction(r, i, &manuscripts, "assign.extract");
}

// ---- cold-start -----------------------------------------------------

fn cold_start(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let count = ops(ctx, COLD_START_OPS);
    let setup_docs = inputs::manuscripts(&ctx.world, ctx.seed, COLD_SETUP_REQUESTS, Stream::SetUp);
    let setup_requests = recommend_requests(&setup_docs);
    // One manuscript per restart; every restart restores the same dir.
    let rotation = inputs::narrow_manuscripts(&ctx.world, ctx.seed, count);
    let root = ctx.work_dir.join(format!("cold-start-{}", ctx.seed));
    let _ = std::fs::remove_dir_all(&root);
    let io = |e: std::io::Error| format!("{}: {e}", root.display());
    std::fs::create_dir_all(&root).map_err(io)?;
    let mut attempt = 0;
    let base = set_up(ctx, &mut run, || {
        attempt += 1;
        let dir = root.join(format!("base-{attempt}"));
        let server = start(ctx, &["--data-dir", dir.to_str().expect("UTF-8 work dir")])?;
        set_up_requests(server.addr, &setup_requests, |i, body| {
            check::recommend(body, &setup_docs[i].details).map(drop)
        })?;
        Ok(dir)
    })?;
    let dir_mb = server::dir_bytes(&base).map_err(io)? as f64 / (1024.0 * 1024.0);

    let mut hashes = Vec::with_capacity(count);
    let mut restarts = Vec::with_capacity(count);
    let timed_start = Instant::now();
    for (k, m) in rotation.iter().enumerate() {
        run.attempted += 1;
        match restart(ctx, &root, &base, k, m) {
            Ok(op) => {
                run.ops.push(Op {
                    start_s: timed_start.elapsed().as_secs_f64() - op.ms / 1e3,
                    ms: op.ms,
                });
                run.peak_rss_mb = run.peak_rss_mb.max(op.rss_mb);
                hashes.push(check::fnv1a(&check::strip_timings(&op.body)));
                if let Some(r) = &ctx.replay {
                    replay_cold(r, k, &root, &base, &op)?;
                }
                restarts.push(op);
            }
            Err(e) => {
                run.failed += 1;
                hashes.push(0);
                if run.failures.len() < 5 {
                    run.failures.push(format!("restart {k}: {e}"));
                }
            }
        }
    }
    run.wall_s = timed_start.elapsed().as_secs_f64();
    run.fingerprint = check::fingerprint(&hashes);
    let writes: f64 = restarts
        .iter()
        .map(|op| op.metrics.get("minaret_world_chunk_writes_total"))
        .sum();
    run.guard(
        "minaret_world_chunk_writes_total = 0",
        writes == 0.0,
        format!("{writes} chunk writes over {} restarts", restarts.len()),
    );
    let n = restarts.len().max(1) as f64;
    let first_request_ms: f64 = restarts.iter().map(|op| op.request_ms).sum();
    let served = Served {
        requests: restarts.len(),
        client_ms: first_request_ms / n,
        wall_s: restarts.iter().map(|op| op.ms / 1e3).sum(),
        body_bytes: restarts.iter().map(|op| op.body.len() as u64).sum(),
        cpu: restarts.iter().map(|op| op.cpu).sum(),
    };
    let total = Metrics::total(restarts.iter().map(|op| &op.metrics));
    serving_layers(&mut run, "/recommend", &total, &served);
    run.layers.insert("store.dir_mb", dir_mb);
    run.layers.insert(
        "store.wal_appends_per_op",
        total.get("store_wal_appends") / n,
    );
    run.table = finish_trace(ctx, &mut run, "cold-start", count, &rotation, FIRST_REQUEST)?;
    let _ = std::fs::remove_dir_all(&root);
    Ok(run)
}

/// The span of a restart's first request, after boot.
const FIRST_REQUEST: &str = "first_request";

/// What one restart observed.
struct Restart {
    /// Spawn to the first answer, ms.
    ms: f64,
    /// Spawn to listening, ms.
    boot_ms: f64,
    /// The first request alone, send to last byte, ms.
    request_ms: f64,
    rss_mb: f64,
    /// Server CPU time over its whole life.
    cpu: Duration,
    metrics: Metrics,
    body: Vec<u8>,
}

/// One restart: restore an identical copy of the data dir, spawn over
/// it, and time spawn to the first uncached answer.
fn restart(
    ctx: &Ctx,
    root: &Path,
    base: &Path,
    k: usize,
    m: &Manuscript,
) -> Result<Restart, String> {
    let dir = root.join(format!("op-{k}"));
    server::copy_dir(base, &dir).map_err(|e| format!("restore {}: {e}", dir.display()))?;
    let request = client::post("/recommend", &m.body);
    let started = Instant::now();
    let server = start(ctx, &["--data-dir", dir.to_str().expect("UTF-8 work dir")])?;
    let sent = Instant::now();
    let resp = send_ok(server.addr, &request)?;
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let request_ms = sent.elapsed().as_secs_f64() * 1e3;
    check::recommend(&resp.body, &m.details)?;
    let op = Restart {
        ms,
        boot_ms: server.boot.as_secs_f64() * 1e3,
        request_ms,
        rss_mb: rss(&server)?,
        metrics: scrape(&server)?,
        cpu: cpu(&server)?,
        body: resp.body,
    };
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(op)
}

fn replay_cold(r: &Replay, k: usize, root: &Path, base: &Path, op: &Restart) -> Result<(), String> {
    r.spans.record(k, ROOT, "", op.ms);
    r.spans.record(k, "process.boot", ROOT, op.boot_ms);
    r.spans.record(k, FIRST_REQUEST, ROOT, op.request_ms);
    r.spans.record(
        k,
        "store.recovery",
        "process.boot",
        op.metrics.get("store_recovery_millis"),
    );
    // The snapshot load the server performs at boot, replayed on an
    // identical copy of the data dir.
    let dir = root.join(format!("replay-{k}"));
    server::copy_dir(base, &dir).map_err(|e| format!("restore {}: {e}", dir.display()))?;
    let store = Store::open(&dir, StoreConfig::default()).map_err(|e| e.to_string())?;
    r.spans.time(k, "synth.snapshot_load", "process.boot", || {
        let _ = load_world_streamed(&store);
    });
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(v) = minaret_json::parse(&String::from_utf8_lossy(&op.body)) {
        record_phases(&r.spans, k, &v, FIRST_REQUEST);
    }
    Ok(())
}
