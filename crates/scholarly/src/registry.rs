//! Concurrent fan-out over all registered sources, with resilience:
//! retries with seeded backoff, per-call deadlines, a whole-fan-out
//! budget, and a circuit breaker per source.
//!
//! Fan-outs run on a **persistent worker pool**: one long-lived worker
//! thread per source (so each source's calls have an affinity home) plus
//! a small shared overflow crew that absorbs spill when a source's
//! worker is busy. Enqueueing a job is two atomic operations and a
//! channel send — no thread spawn per call, which matters when the
//! pipeline issues many fan-outs per recommendation.
//!
//! The design goal is that one stalled or dying source can never take a
//! recommendation down: per-source failures become per-source
//! [`SourceOutcome`]s (including a panicking source implementation,
//! contained by `catch_unwind` so the worker thread survives), and
//! callers decide how much partial coverage they tolerate.

use std::any::Any;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crossbeam::channel;
use minaret_concurrent::{ConcurrentMap, ShardedMap};
use minaret_ontology::{normalize_label_onto, NormalizedLabels};
use minaret_telemetry::Telemetry;
// parking_lot throughout (no std lock poisoning): a leader that panics
// inside a source call must not wedge the coalescing map or its cells
// for every later fan-out.
use parking_lot::{Condvar, Mutex, RwLock};

use crate::clock::{Clock, SystemClock};
use crate::error::SourceError;
use crate::record::SourceProfile;
use crate::resilience::{BreakerState, CircuitBreaker, ResilienceConfig};
use crate::sim::ScholarSource;
use crate::spec::SourceKind;

/// Retry + resilience policy for the registry's fan-out calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegistryConfig {
    /// Retries per source call for retriable errors.
    pub max_retries: u32,
    /// Whether to query sources concurrently (on the persistent worker
    /// pool, the way a scraper overlaps network waits) or sequentially
    /// on the calling thread (deterministic, for simulated-clock tests).
    pub concurrent: bool,
    /// Deadlines, backoff, and circuit-breaker policy. The default is
    /// fully disabled (immediate retries, no deadlines, no breaker);
    /// [`ResilienceConfig::standard`] is the production preset.
    pub resilience: ResilienceConfig,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            max_retries: 3,
            concurrent: true,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Call counters, exposed to the extraction-cost experiment (E6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Source calls issued (including retries).
    pub calls: u64,
    /// Calls that failed retriably and were retried.
    pub retries: u64,
    /// Calls that ultimately failed after exhausting retries (or the
    /// fan-out budget).
    pub gave_up: u64,
    /// Calls classified as timed out against the per-call deadline.
    pub timed_out: u64,
    /// Requests rejected fast because the source's breaker was open.
    pub short_circuited: u64,
}

/// How one source's slice of a fan-out ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceStatus {
    /// The source answered (possibly after retries).
    Ok,
    /// The source was not asked — it does not support this operation
    /// (expected, not a failure).
    Skipped,
    /// The source failed; the error says how (transient exhaustion,
    /// deadline, budget, open breaker, panic, …).
    Failed(SourceError),
}

/// One source's result line in a [`FanOutReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceOutcome {
    /// Which source.
    pub source: SourceKind,
    /// How its slice of the fan-out ended.
    pub status: SourceStatus,
    /// Calls actually issued to it (0 when skipped or short-circuited
    /// before the first attempt).
    pub attempts: u32,
}

/// The structured result of one fan-out: merged profiles plus a
/// per-source outcome ledger, so callers can tell *which* sources are
/// missing from the answer and why (the degraded-mode contract).
#[derive(Debug, Clone, PartialEq)]
pub struct FanOutReport {
    /// Successful sources' profiles, concatenated. `Arc`-shared with the
    /// sources' own stores: fanning the same profile out twice clones a
    /// pointer, not the record.
    pub profiles: Vec<Arc<SourceProfile>>,
    /// One outcome per registered source, in registration order.
    pub outcomes: Vec<SourceOutcome>,
}

impl FanOutReport {
    /// The per-source errors.
    pub fn errors(&self) -> Vec<SourceError> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.status {
                SourceStatus::Failed(e) => Some(e.clone()),
                _ => None,
            })
            .collect()
    }
}

/// The result of one **batched** interest fan-out
/// ([`SourceRegistry::search_by_interests_report`]): per-label hits
/// merged across sources, plus the same per-source outcome ledger as
/// [`FanOutReport`]. One batched fan-out costs each source exactly one
/// policy-governed call regardless of label count — the resilience
/// accounting (deadline, budget, breaker, retries) applies once per
/// source per batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchFanOutReport {
    /// Hits per requested label, in input order. A label nobody
    /// registered gets an empty vector. Within one label, profiles are
    /// concatenated in source-registration order (deterministic). A
    /// label repeated in the input (up to normalization) is asked once,
    /// and its hits fill every position that carries it. Each label is
    /// the caller's string as an `Arc<str>`; profiles are `Arc`-shared
    /// with the sources that produced them.
    pub by_label: Vec<(Arc<str>, Vec<Arc<SourceProfile>>)>,
    /// One outcome per registered source, in registration order. A
    /// failed source failed the *whole batch* — every label in it.
    pub outcomes: Vec<SourceOutcome>,
}

impl BatchFanOutReport {
    /// The per-source errors.
    pub fn errors(&self) -> Vec<SourceError> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.status {
                SourceStatus::Failed(e) => Some(e.clone()),
                _ => None,
            })
            .collect()
    }
}

/// One registered source with its breaker — the unit a pool job works
/// on. Cloning is cheap (two `Arc`s + a tag).
#[derive(Clone)]
struct SourceEntry {
    source: Arc<dyn ScholarSource>,
    breaker: Arc<CircuitBreaker>,
    kind: SourceKind,
}

/// State shared between the registry handle and its pool workers:
/// policy, telemetry, clock, and the call counters. Jobs capture this
/// behind an `Arc`, which is what lets fan-out work move to long-lived
/// threads instead of scoped borrows.
struct RegistryShared {
    config: RegistryConfig,
    telemetry: Telemetry,
    clock: RwLock<Arc<dyn Clock>>,
    sources: RwLock<Vec<SourceEntry>>,
    /// The persistent worker pool, spawned lazily on the first
    /// concurrent fan-out. Lives here (not on the handle) so
    /// [`SourceRegistry::scoped_with_budget`] views share one pool.
    pool: OnceLock<WorkerPool>,
    calls: AtomicU64,
    retries: AtomicU64,
    gave_up: AtomicU64,
    timed_out: AtomicU64,
    short_circuited: AtomicU64,
    /// Jobs enqueued on the pool but not yet started.
    queue_depth: AtomicU64,
    /// In-flight single-flight cells, keyed by (source, fan-out key).
    /// Type-erased so one map serves any fan-out result type. Sharded:
    /// leader election for one fan-out key never contends with
    /// unrelated fan-outs — only same-shard keys share a lock, and the
    /// per-entry leader/follower handoff lives in the cell's own
    /// `Mutex`/`Condvar`, not the map's.
    inflight: ShardedMap<(SourceKind, u64), Arc<dyn Any + Send + Sync>>,
    /// Fan-out slices answered by joining another caller's in-flight
    /// computation instead of issuing their own source call.
    coalesced: AtomicU64,
}

impl RegistryShared {
    fn clock(&self) -> Arc<dyn Clock> {
        self.clock.read().clone()
    }

    /// Publishes a breaker state to the telemetry gauge.
    fn note_breaker_state(&self, source_label: &str, state: BreakerState) {
        self.telemetry
            .gauge("minaret_breaker_state", &[("source", source_label)])
            .set(state.gauge_value());
    }

    fn note_enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::AcqRel) + 1;
        self.telemetry
            .gauge("minaret_pool_queue_depth", &[])
            .set(depth as i64);
    }

    fn note_dequeue(&self) {
        let depth = self.queue_depth.fetch_sub(1, Ordering::AcqRel) - 1;
        self.telemetry
            .gauge("minaret_pool_queue_depth", &[])
            .set(depth as i64);
    }

    /// Runs `op` against one source with the retry, deadline, backoff,
    /// and breaker policy. Returns the result and the number of calls
    /// actually issued. For a batched operation this runs **once for the
    /// whole batch**: one deadline, one retry ladder, one breaker
    /// verdict, regardless of how many labels the batch carries.
    fn call_with_policy<T>(
        &self,
        entry: &SourceEntry,
        fanout_deadline: Option<u64>,
        op: impl Fn() -> Result<T, SourceError>,
    ) -> (Result<T, SourceError>, u32) {
        let kind = entry.kind;
        let source_label = kind.prefix();
        let breaker = entry.breaker.as_ref();
        let policy = &self.config.resilience;
        let clock = self.clock();
        let started = clock.now_micros();
        let mut attempts = 0u32;
        let mut last_err = None;
        let result = 'attempts: {
            for attempt in 0..=self.config.max_retries {
                let now = clock.now_micros();
                if !breaker.allow(now) {
                    self.short_circuited.fetch_add(1, Ordering::Relaxed);
                    self.telemetry
                        .counter(
                            "minaret_source_short_circuits_total",
                            &[("source", source_label)],
                        )
                        .inc();
                    let err = SourceError::CircuitOpen { source: kind };
                    self.note_error(source_label, &err);
                    self.note_breaker_state(source_label, breaker.state(now));
                    break 'attempts Err(err);
                }
                if let Some(deadline) = fanout_deadline {
                    if now >= deadline {
                        break 'attempts Err(self.budget_exhausted(source_label, kind));
                    }
                }
                attempts += 1;
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.telemetry
                    .counter("minaret_source_requests_total", &[("source", source_label)])
                    .inc();
                let call_started = clock.now_micros();
                let mut outcome = op();
                if policy.call_deadline_micros > 0 {
                    let elapsed = clock.now_micros().saturating_sub(call_started);
                    if elapsed > policy.call_deadline_micros {
                        // Even a success that arrives after the deadline
                        // is useless — a real HTTP client would have hung
                        // up already.
                        self.timed_out.fetch_add(1, Ordering::Relaxed);
                        self.telemetry
                            .counter("minaret_source_timeouts_total", &[("source", source_label)])
                            .inc();
                        outcome = Err(SourceError::DeadlineExceeded { source: kind });
                    }
                }
                let after_call = clock.now_micros();
                match outcome {
                    Ok(v) => {
                        breaker.record_success();
                        self.note_breaker_state(source_label, breaker.state(after_call));
                        break 'attempts Ok(v);
                    }
                    Err(e) => {
                        if e.is_service_fault() {
                            breaker.record_failure(after_call);
                        } else {
                            // The service answered fine; the answer was
                            // just "no" — keep the breaker healthy.
                            breaker.record_success();
                        }
                        self.note_breaker_state(source_label, breaker.state(after_call));
                        self.note_error(source_label, &e);
                        if e.is_retriable() && attempt < self.config.max_retries {
                            self.retries.fetch_add(1, Ordering::Relaxed);
                            self.telemetry
                                .counter(
                                    "minaret_source_retries_total",
                                    &[("source", source_label)],
                                )
                                .inc();
                            let delay = policy.backoff.delay_micros(attempt, kind as u64);
                            if let Some(deadline) = fanout_deadline {
                                if after_call.saturating_add(delay) >= deadline {
                                    break 'attempts Err(self.budget_exhausted(source_label, kind));
                                }
                            }
                            clock.sleep_micros(delay);
                            last_err = Some(e);
                        } else {
                            if e.is_retriable() {
                                self.gave_up.fetch_add(1, Ordering::Relaxed);
                                self.telemetry
                                    .counter(
                                        "minaret_source_gave_up_total",
                                        &[("source", source_label)],
                                    )
                                    .inc();
                            }
                            break 'attempts Err(e);
                        }
                    }
                }
            }
            Err(last_err.expect("loop executes at least once"))
        };
        self.telemetry
            .histogram("minaret_source_call_micros", &[("source", source_label)])
            .observe(clock.now_micros().saturating_sub(started));
        (result, attempts)
    }

    /// Runs `run` under single-flight coalescing: the first caller for a
    /// given `(source, key)` becomes the **leader** and computes the
    /// result; callers arriving while it is in flight become
    /// **followers**, wait on the leader's cell, and clone its result —
    /// no second source call, no second breaker/retry/budget charge. The
    /// cell is removed once the leader publishes, so later fan-outs (a
    /// cache-miss retry, a changed world) compute fresh.
    ///
    /// The leader publishes even if `run` panics (the panic is converted
    /// into the same per-source `Internal` error the fan-out job layer
    /// would report), so followers can never be stranded on a dead cell.
    fn coalesced_call<T: Clone + Send + 'static>(
        &self,
        key: (SourceKind, u64),
        source_label: &str,
        run: impl FnOnce() -> (Result<T, SourceError>, u32),
    ) -> (Result<T, SourceError>, u32) {
        struct Cell<T> {
            done: Mutex<Option<(Result<T, SourceError>, u32)>>,
            cv: Condvar,
        }
        // Leader election is the sharded map's exactly-one-winner
        // `get_or_insert_with`: the inserting caller leads, everyone
        // who found the cell follows. Keys on other shards elect their
        // leaders concurrently.
        let (cell, leader) = self.inflight.get_or_insert_with(key, || {
            Arc::new(Cell::<T> {
                done: Mutex::new(None),
                cv: Condvar::new(),
            })
        });
        let cell = cell
            .downcast::<Cell<T>>()
            .expect("one result type per coalescing key");
        if leader {
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(run));
            let result = match outcome {
                Ok(r) => r,
                Err(payload) => (Err(panic_to_error(key.0, payload)), 0),
            };
            *cell.done.lock() = Some(result.clone());
            cell.cv.notify_all();
            self.inflight.remove(&key);
            result
        } else {
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            self.telemetry
                .counter(
                    "minaret_fanout_coalesced_total",
                    &[("source", source_label)],
                )
                .inc();
            let mut done = cell.done.lock();
            while done.is_none() {
                cell.cv.wait(&mut done);
            }
            done.as_ref().expect("filled before notify").clone()
        }
    }

    /// One source's slice of a fan-out: the full resilience policy,
    /// optionally shared with concurrent identical fan-outs via
    /// single-flight coalescing (`coalesce` carries the fan-out key).
    fn policed_call<T: Clone + Send + 'static>(
        &self,
        entry: &SourceEntry,
        fanout_deadline: Option<u64>,
        coalesce: Option<u64>,
        call: &(dyn Fn(&dyn ScholarSource) -> Result<T, SourceError> + Send + Sync),
    ) -> (Result<T, SourceError>, u32) {
        match coalesce {
            None => self.call_with_policy(entry, fanout_deadline, || guarded_call(entry, call)),
            Some(key) => self.coalesced_call((entry.kind, key), entry.kind.prefix(), || {
                self.call_with_policy(entry, fanout_deadline, || guarded_call(entry, call))
            }),
        }
    }

    /// Builds (and counts) a budget-exhaustion error for `kind`.
    fn budget_exhausted(&self, source_label: &str, kind: SourceKind) -> SourceError {
        self.gave_up.fetch_add(1, Ordering::Relaxed);
        self.telemetry
            .counter(
                "minaret_source_budget_exhausted_total",
                &[("source", source_label)],
            )
            .inc();
        let err = SourceError::BudgetExhausted { source: kind };
        self.note_error(source_label, &err);
        err
    }

    /// Counts one error occurrence by class.
    fn note_error(&self, source_label: &str, error: &SourceError) {
        let class = match error {
            SourceError::Transient { .. } => "transient",
            SourceError::RateLimited { .. } => "rate_limited",
            SourceError::NotFound { .. } => "not_found",
            SourceError::Unsupported { .. } => "unsupported",
            SourceError::DeadlineExceeded { .. } => "deadline",
            SourceError::BudgetExhausted { .. } => "budget",
            SourceError::CircuitOpen { .. } => "circuit_open",
            SourceError::Internal { .. } => "internal",
        };
        self.telemetry
            .counter(
                "minaret_source_errors_total",
                &[("source", source_label), ("kind", class)],
            )
            .inc();
    }
}

/// The single-flight identity of a batched interest fan-out: an FNV-1a
/// hash of the **sorted, deduplicated, normalized** label set, so two
/// concurrent fan-outs asking the same question — regardless of label
/// order or raw spelling — share one in-flight computation per source.
fn batch_fanout_key<'a>(normalized: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut normalized: Vec<&str> = normalized.into_iter().collect();
    normalized.sort_unstable();
    normalized.dedup();
    let mut h: u64 = 0xcbf29ce484222325;
    for label in &normalized {
        for &b in label.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
        // Separator fold so ["ab","c"] and ["a","bc"] differ.
        h ^= 0x1f;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Converts a caught panic payload into a per-source error. The breaker
/// records the failure downstream in `call_with_policy` (an `Internal`
/// error is a service fault), so a source that keeps panicking trips its
/// breaker exactly like one that keeps erroring.
fn panic_to_error(kind: SourceKind, payload: Box<dyn std::any::Any + Send>) -> SourceError {
    let detail = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "source thread panicked".to_string());
    SourceError::Internal {
        source: kind,
        detail,
    }
}

/// Runs a source call with panic containment: a panicking source
/// implementation becomes a per-source [`SourceError::Internal`] and the
/// (persistent) worker thread survives to serve the next job.
fn guarded_call<T>(
    entry: &SourceEntry,
    call: &(dyn Fn(&dyn ScholarSource) -> Result<T, SourceError> + Send + Sync),
) -> Result<T, SourceError> {
    match std::panic::catch_unwind(AssertUnwindSafe(|| call(entry.source.as_ref()))) {
        Ok(result) => result,
        Err(payload) => Err(panic_to_error(entry.kind, payload)),
    }
}

/// A unit of fan-out work shipped to a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The per-fan-out source call, shared across every pool job it spawns.
type SharedCall<T> = Arc<dyn Fn(&dyn ScholarSource) -> Result<T, SourceError> + Send + Sync>;

/// How many shared overflow workers drain spill from busy per-source
/// workers. Bounds cross-fan-out parallelism at `sources + OVERFLOW`.
const OVERFLOW_WORKERS: usize = 4;

struct PoolWorker {
    tx: channel::Sender<Job>,
    /// 0 = idle; 1 = a job is queued or running on the affinity queue.
    busy: Arc<AtomicU64>,
}

/// The persistent worker pool: one long-lived thread per source known at
/// spawn time, plus [`OVERFLOW_WORKERS`] shared threads. Spawned lazily
/// on the first concurrent fan-out (sequential registries never pay for
/// threads) and shut down when the registry drops.
struct WorkerPool {
    workers: Vec<PoolWorker>,
    overflow_tx: Option<channel::Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(per_source: usize) -> Self {
        let mut workers = Vec::with_capacity(per_source);
        let mut handles = Vec::new();
        let run = |job: Job| {
            // Belt to `guarded_call`'s braces: nothing a job does may
            // kill its worker.
            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        };
        for i in 0..per_source {
            let (tx, rx) = channel::unbounded::<Job>();
            let busy = Arc::new(AtomicU64::new(0));
            let worker_busy = busy.clone();
            let handle = std::thread::Builder::new()
                .name(format!("minaret-source-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        run(job);
                        worker_busy.store(0, Ordering::Release);
                    }
                })
                .expect("spawn source worker");
            handles.push(handle);
            workers.push(PoolWorker { tx, busy });
        }
        let (overflow_tx, overflow_rx) = channel::unbounded::<Job>();
        for i in 0..OVERFLOW_WORKERS {
            let rx = overflow_rx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("minaret-overflow-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        run(job);
                    }
                })
                .expect("spawn overflow worker");
            handles.push(handle);
        }
        Self {
            workers,
            overflow_tx: Some(overflow_tx),
            handles,
        }
    }

    /// Routes a job: the source's own worker when idle, the shared
    /// overflow queue when busy (so one slow source never serializes
    /// unrelated fan-outs behind it), inline as a last resort during
    /// shutdown races.
    fn enqueue(&self, index: usize, job: Job) {
        if let Some(worker) = self.workers.get(index) {
            if worker
                .busy
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                match worker.tx.send(job) {
                    Ok(()) => return,
                    Err(channel::SendError(job)) => {
                        worker.busy.store(0, Ordering::Release);
                        return self.send_overflow(job);
                    }
                }
            }
        }
        self.send_overflow(job);
    }

    fn send_overflow(&self, job: Job) {
        let Some(tx) = &self.overflow_tx else {
            job();
            return;
        };
        // A disconnected overflow queue (pool mid-drop) degrades to
        // inline execution rather than losing the reply.
        if let Err(channel::SendError(job)) = tx.send(job) {
            job();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Dropping every sender disconnects the channels; workers drain
        // their queues and exit. Join for a clean shutdown.
        self.workers.clear();
        self.overflow_tx = None;
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One slot per source: `None` when `applies` skipped it, otherwise the
/// call result plus the attempt count.
type Slot<T> = Option<(Result<T, SourceError>, u32)>;

/// Folds one source's fan-out slot into its outcome line, handing a
/// successful answer to `accept`.
fn fold_slot<T>(kind: SourceKind, slot: Slot<T>, accept: impl FnOnce(T)) -> SourceOutcome {
    let (status, attempts) = match slot {
        None => (SourceStatus::Skipped, 0),
        Some((Ok(answer), attempts)) => {
            accept(answer);
            (SourceStatus::Ok, attempts)
        }
        Some((Err(e), attempts)) => (SourceStatus::Failed(e), attempts),
    };
    SourceOutcome {
        source: kind,
        status,
        attempts,
    }
}

/// The set of scholarly sources MINARET queries, with uniform fan-out.
///
/// The registry mirrors the paper's design: six sources today, but
/// "flexibly designed to include any further information from any
/// additional scholarly resource" — `register` accepts anything
/// implementing [`ScholarSource`].
pub struct SourceRegistry {
    shared: Arc<RegistryShared>,
    /// Absolute deadline (clock micros) bounding every fan-out issued
    /// through this handle, on top of the per-fan-out budget. Set by
    /// [`SourceRegistry::scoped_with_budget`]; `None` on the root handle.
    request_deadline_micros: Option<u64>,
}

impl std::fmt::Debug for SourceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceRegistry")
            .field("sources", &self.kinds())
            .finish()
    }
}

impl SourceRegistry {
    /// Creates an empty registry without telemetry.
    pub fn new(config: RegistryConfig) -> Self {
        Self::with_telemetry(config, Telemetry::disabled())
    }

    /// Creates an empty registry reporting per-source request, retry,
    /// error, timeout, short-circuit, breaker-state, pool-queue-depth,
    /// batch-size and latency series to `telemetry`.
    pub fn with_telemetry(config: RegistryConfig, telemetry: Telemetry) -> Self {
        Self {
            shared: Arc::new(RegistryShared {
                config,
                telemetry,
                clock: RwLock::new(Arc::new(SystemClock::new())),
                sources: RwLock::new(Vec::new()),
                calls: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                gave_up: AtomicU64::new(0),
                timed_out: AtomicU64::new(0),
                short_circuited: AtomicU64::new(0),
                queue_depth: AtomicU64::new(0),
                pool: OnceLock::new(),
                inflight: ShardedMap::new(),
                coalesced: AtomicU64::new(0),
            }),
            request_deadline_micros: None,
        }
    }

    /// A view of this registry whose fan-outs are additionally bounded
    /// by `budget_micros` from now — the serving layer's per-request
    /// deadline threaded down into source calls. The view shares
    /// everything (sources, breakers, counters, worker pool, coalescing)
    /// with the root handle; only the deadline differs. A fan-out issued
    /// through the view uses the **tighter** of the configured fan-out
    /// budget and the remaining request budget.
    pub fn scoped_with_budget(&self, budget_micros: u64) -> SourceRegistry {
        SourceRegistry {
            shared: Arc::clone(&self.shared),
            request_deadline_micros: Some(
                self.shared
                    .clock()
                    .now_micros()
                    .saturating_add(budget_micros),
            ),
        }
    }

    /// Replaces the clock used for deadlines, backoff pauses, and
    /// breaker cooldowns (share one [`crate::SimulatedClock`] with
    /// scripted sources for deterministic tests).
    pub fn with_clock(self, clock: Arc<dyn Clock>) -> Self {
        *self.shared.clock.write() = clock;
        self
    }

    /// Adds a source (and its circuit breaker). Sources registered after
    /// the first concurrent fan-out still work — their jobs run on the
    /// shared overflow workers instead of a dedicated thread.
    pub fn register(&mut self, source: Arc<dyn ScholarSource>) {
        let kind = source.kind();
        let breaker = Arc::new(CircuitBreaker::new(self.shared.config.resilience.breaker));
        self.shared
            .note_breaker_state(kind.prefix(), BreakerState::Closed);
        // Touch the coalescing counter so scrapes see the series (at 0)
        // from registration time, like the breaker gauge below.
        self.shared.telemetry.counter(
            "minaret_fanout_coalesced_total",
            &[("source", kind.prefix())],
        );
        self.shared.sources.write().push(SourceEntry {
            source,
            breaker,
            kind,
        });
    }

    /// The registered source kinds, in registration order.
    pub fn kinds(&self) -> Vec<SourceKind> {
        self.shared.sources.read().iter().map(|e| e.kind).collect()
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.shared.sources.read().len()
    }

    /// True when no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.shared.sources.read().is_empty()
    }

    /// Call counters so far.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            calls: self.shared.calls.load(Ordering::Relaxed),
            retries: self.shared.retries.load(Ordering::Relaxed),
            gave_up: self.shared.gave_up.load(Ordering::Relaxed),
            timed_out: self.shared.timed_out.load(Ordering::Relaxed),
            short_circuited: self.shared.short_circuited.load(Ordering::Relaxed),
        }
    }

    /// The current breaker state of `kind`'s source, or `None` when no
    /// such source is registered. Reading rolls open → half-open if the
    /// cooldown has elapsed.
    pub fn breaker_state(&self, kind: SourceKind) -> Option<BreakerState> {
        let sources = self.shared.sources.read();
        let entry = sources.iter().find(|e| e.kind == kind)?;
        Some(entry.breaker.state(self.shared.clock().now_micros()))
    }

    /// The worker pool, spawned on first use with one worker per source
    /// registered at that moment.
    fn pool(&self) -> &WorkerPool {
        self.shared
            .pool
            .get_or_init(|| WorkerPool::spawn(self.shared.sources.read().len()))
    }

    /// Fans a query out to every source and collects per-source slots in
    /// registration order. Sources for which `applies` is false are
    /// skipped without a call.
    ///
    /// Per-source failures (after retries) are per-source results, not
    /// fatal — a scraper that loses one site still recommends from the
    /// other five. That includes a source whose implementation panics:
    /// the panic is caught around the call and converted into a
    /// per-source [`SourceError::Internal`], so the siblings still merge
    /// and the pool worker survives.
    /// `coalesce` opts the fan-out into single-flight sharing: fan-outs
    /// carrying the same key that overlap in time charge each source one
    /// policed call and share the result (see
    /// [`RegistryShared::coalesced_call`]).
    fn fan_out<T, A, C>(
        &self,
        applies: A,
        call: C,
        coalesce: Option<u64>,
    ) -> Vec<(SourceKind, Slot<T>)>
    where
        T: Clone + Send + 'static,
        A: Fn(&dyn ScholarSource) -> bool,
        C: Fn(&dyn ScholarSource) -> Result<T, SourceError> + Send + Sync + 'static,
    {
        let shared = &self.shared;
        let budget = shared.config.resilience.fanout_budget_micros;
        let config_deadline =
            (budget > 0).then(|| shared.clock().now_micros().saturating_add(budget));
        // A scoped handle's request deadline clamps the fan-out budget:
        // whichever expires first governs the calls.
        let fanout_deadline = match (config_deadline, self.request_deadline_micros) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let entries: Vec<SourceEntry> = shared.sources.read().clone();
        let applicable: Vec<bool> = entries.iter().map(|e| applies(e.source.as_ref())).collect();
        let mut slots: Vec<(SourceKind, Slot<T>)> =
            entries.iter().map(|e| (e.kind, None)).collect();

        if !shared.config.concurrent {
            for (i, entry) in entries.iter().enumerate() {
                if applicable[i] {
                    slots[i].1 = Some(shared.policed_call(entry, fanout_deadline, coalesce, &call));
                }
            }
            return slots;
        }

        let pool = self.pool();
        let call: SharedCall<T> = Arc::new(call);
        let (reply_tx, reply_rx) = channel::unbounded::<(usize, (Result<T, SourceError>, u32))>();
        let mut expected = 0usize;
        for (i, entry) in entries.iter().enumerate() {
            if !applicable[i] {
                continue;
            }
            expected += 1;
            let shared = Arc::clone(shared);
            let entry = entry.clone();
            let call = Arc::clone(&call);
            let reply_tx = reply_tx.clone();
            shared.note_enqueue();
            pool.enqueue(
                i,
                Box::new(move || {
                    shared.note_dequeue();
                    let result =
                        shared.policed_call(&entry, fanout_deadline, coalesce, call.as_ref());
                    let _ = reply_tx.send((i, result));
                }),
            );
        }
        drop(reply_tx);
        let mut received = 0usize;
        while received < expected {
            match reply_rx.recv() {
                Ok((i, result)) => {
                    slots[i].1 = Some(result);
                    received += 1;
                }
                // All job-held senders dropped before every reply landed:
                // a job died without replying. Mark the stragglers failed
                // rather than hanging or mislabelling them as skipped.
                Err(_) => break,
            }
        }
        if received < expected {
            for (i, slot) in slots.iter_mut().enumerate() {
                if applicable[i] && slot.1.is_none() {
                    slot.1 = Some((
                        Err(SourceError::Internal {
                            source: slot.0,
                            detail: "source worker disappeared mid-fan-out".to_string(),
                        }),
                        0,
                    ));
                }
            }
        }
        slots
    }

    /// Searches all sources by scholar name, with per-source outcomes.
    pub fn search_by_name_report(&self, name: &str) -> FanOutReport {
        let clock = self.shared.clock();
        let started = clock.now_micros();
        let name = name.to_string();
        let mut profiles = Vec::new();
        let outcomes = self
            .fan_out(|_| true, move |s| s.search_by_name(&name), None)
            .into_iter()
            .map(|(kind, slot)| fold_slot(kind, slot, |mut found| profiles.append(&mut found)))
            .collect();
        self.shared
            .telemetry
            .histogram("minaret_fanout_micros", &[("query", "name")])
            .observe(clock.now_micros().saturating_sub(started));
        FanOutReport { profiles, outcomes }
    }

    /// Issues the whole label set as **one batched fan-out**: every
    /// interest-capable source receives one
    /// [`ScholarSource::search_by_interests`] call carrying all labels,
    /// under one application of the resilience policy (deadline, budget,
    /// breaker, retries). Incapable sources are marked
    /// [`SourceStatus::Skipped`] (their absence is expected, not an
    /// error condition). This is the retrieval path of every caller —
    /// one fan-out regardless of how many labels expansion produced,
    /// where a fan-out per label would pay `labels × sources` policed
    /// calls and as many fan-out latencies.
    pub fn search_by_interests_report(&self, labels: &[String]) -> BatchFanOutReport {
        let clock = self.shared.clock();
        let started = clock.now_micros();
        self.shared
            .telemetry
            .histogram("minaret_batch_labels", &[])
            .observe(labels.len() as u64);
        // Sources answer labels up to normalization, so each distinct
        // normalized label is asked once: `slots` maps every input
        // position to its distinct label, and `first` each distinct
        // label to the position that introduced it. The normalized forms
        // share one buffer.
        let normalized = NormalizedLabels::new(labels.iter().map(String::as_str));
        let mut slot_of: HashMap<&str, usize> = HashMap::with_capacity(labels.len());
        let mut first: Vec<usize> = Vec::with_capacity(labels.len());
        let slots: Vec<usize> = normalized
            .iter()
            .enumerate()
            .map(|(i, norm)| {
                *slot_of.entry(norm).or_insert_with(|| {
                    first.push(i);
                    first.len() - 1
                })
            })
            .collect();
        let query: Vec<Arc<str>> = first
            .iter()
            .map(|&i| Arc::from(labels[i].as_str()))
            .collect();
        let key = batch_fanout_key(slot_of.keys().copied());
        let mut by_label: Vec<(Arc<str>, Vec<Arc<SourceProfile>>)> = labels
            .iter()
            .zip(&slots)
            .map(|(label, &j)| {
                // An exact repeat shares the query's `Arc`.
                let label = if *query[j] == **label {
                    query[j].clone()
                } else {
                    Arc::from(label.as_str())
                };
                (label, Vec::new())
            })
            .collect();
        let answers = self.fan_out(
            |s| s.supports_interest_search(),
            move |s| s.search_by_interests(&query),
            Some(key),
        );
        // Echoes map back by normalized form: a coalesced follower
        // receives its leader's answer, whose spelling may differ.
        let mut echo = String::new();
        let outcomes = answers
            .into_iter()
            .map(|(kind, slot)| {
                fold_slot(kind, slot, |pairs| {
                    for (label, mut hits) in pairs {
                        echo.clear();
                        normalize_label_onto(&label, &mut echo);
                        if let Some(&j) = slot_of.get(echo.as_str()) {
                            by_label[first[j]].1.append(&mut hits);
                        }
                    }
                })
            })
            .collect();
        // A repeated label's later positions copy the hits of its first.
        for (i, &j) in slots.iter().enumerate() {
            if first[j] != i {
                by_label[i].1 = by_label[first[j]].1.clone();
            }
        }
        self.shared
            .telemetry
            .histogram("minaret_fanout_micros", &[("query", "interest_batch")])
            .observe(clock.now_micros().saturating_sub(started));
        BatchFanOutReport { by_label, outcomes }
    }

    /// Fan-out slices answered by coalescing onto another caller's
    /// in-flight identical fan-out (see `minaret_fanout_coalesced_total`).
    pub fn coalesced_count(&self) -> u64 {
        self.shared.coalesced.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimulatedClock;
    use crate::resilience::BreakerConfig;
    use crate::sim::{FaultSchedule, LabeledHits, SimulatedSource};
    use crate::spec::SourceSpec;
    use minaret_synth::{World, WorldConfig, WorldGenerator};

    fn world() -> Arc<World> {
        Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 150,
                ..Default::default()
            })
            .generate(),
        )
    }

    fn full_registry(world: &Arc<World>, concurrent: bool) -> SourceRegistry {
        let mut reg = SourceRegistry::new(RegistryConfig {
            concurrent,
            ..Default::default()
        });
        for spec in SourceSpec::all_defaults() {
            reg.register(Arc::new(SimulatedSource::new(spec, world.clone())));
        }
        reg
    }

    #[test]
    fn registry_lists_all_six_sources() {
        let w = world();
        let reg = full_registry(&w, true);
        assert_eq!(reg.len(), 6);
        assert_eq!(reg.kinds().len(), 6);
        assert!(!reg.is_empty());
    }

    #[test]
    fn name_fan_out_merges_sources() {
        let w = world();
        let reg = full_registry(&w, true);
        let name = w.scholars()[0].full_name();
        let report = reg.search_by_name_report(&name);
        assert!(report.errors().is_empty());
        // The scholar is covered by several sources, so multiple profiles
        // with the same truth id come back.
        let truth_hits = report
            .profiles
            .iter()
            .filter(|p| p.truth == w.scholars()[0].id)
            .count();
        assert!(
            truth_hits >= 2,
            "only {truth_hits} sources returned the scholar"
        );
    }

    #[test]
    fn concurrent_and_sequential_agree() {
        let w = world();
        let reg_c = full_registry(&w, true);
        let reg_s = full_registry(&w, false);
        let name = w.scholars()[5].full_name();
        let mut a = reg_c.search_by_name_report(&name).profiles;
        let mut b = reg_s.search_by_name_report(&name).profiles;
        let key = |p: &Arc<SourceProfile>| (p.source, p.key.clone());
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
    }

    #[test]
    fn interest_search_skips_unsupporting_sources() {
        let w = world();
        let reg = full_registry(&w, true);
        let label = w.ontology.label(w.scholars()[0].interests[0]).to_string();
        let report = reg.search_by_interests_report(&[label]);
        assert!(report.errors().is_empty());
        // Only GS and Publons support interest search.
        for p in &report.by_label[0].1 {
            assert!(matches!(
                p.source,
                SourceKind::GoogleScholar | SourceKind::Publons
            ));
        }
        // The incapable sources are marked skipped, not failed — being
        // asked a question you don't support is not ill health.
        for o in &report.outcomes {
            match o.source {
                SourceKind::GoogleScholar | SourceKind::Publons => {
                    assert_eq!(o.status, SourceStatus::Ok, "{:?}", o.source);
                    assert!(o.attempts >= 1);
                }
                _ => {
                    assert_eq!(o.status, SourceStatus::Skipped, "{:?}", o.source);
                    assert_eq!(o.attempts, 0);
                }
            }
        }
    }

    #[test]
    fn batched_interest_fanout_answers_every_label_in_order() {
        let w = world();
        let reg = full_registry(&w, true);
        let mut labels: Vec<String> = w
            .scholars()
            .iter()
            .take(5)
            .map(|s| w.ontology.label(s.interests[0]).to_string())
            .collect();
        labels.dedup();
        labels.push("no such research topic".to_string());
        let report = reg.search_by_interests_report(&labels);
        assert_eq!(report.by_label.len(), labels.len());
        for ((got, hits), want) in report.by_label.iter().zip(&labels) {
            assert_eq!(
                got.as_ref(),
                want.as_str(),
                "label order must match the input"
            );
            for p in hits {
                assert!(matches!(
                    p.source,
                    SourceKind::GoogleScholar | SourceKind::Publons
                ));
            }
        }
        assert!(report.by_label.last().unwrap().1.is_empty());
        // Each interest-capable source paid exactly one call for the
        // whole batch; the rest were skipped.
        for o in &report.outcomes {
            match o.source {
                SourceKind::GoogleScholar | SourceKind::Publons => {
                    assert_eq!(o.status, SourceStatus::Ok);
                    assert_eq!(
                        o.attempts, 1,
                        "{:?} must answer the batch in one call",
                        o.source
                    );
                }
                _ => assert_eq!(o.status, SourceStatus::Skipped),
            }
        }
        assert_eq!(reg.stats().calls, 2, "one call per capable source");
    }

    #[test]
    fn a_repeated_label_is_asked_once_and_answered_at_every_position() {
        let w = world();
        let label = w.ontology.label(w.scholars()[0].interests[0]).to_string();
        let want = full_registry(&w, true)
            .search_by_interests_report(std::slice::from_ref(&label))
            .by_label
            .remove(0)
            .1;
        assert!(!want.is_empty());
        let reg = full_registry(&w, true);
        let spellings = [label.clone(), label.to_uppercase(), label];
        let report = reg.search_by_interests_report(&spellings);
        assert_eq!(report.by_label.len(), spellings.len());
        for ((got, hits), sent) in report.by_label.iter().zip(&spellings) {
            assert_eq!(
                got.as_ref(),
                sent.as_str(),
                "each position echoes its input"
            );
            assert_eq!(hits, &want, "every position gets the label's own hits");
        }
        assert_eq!(reg.stats().calls, 2, "one call per capable source");
    }

    #[test]
    fn batched_fanout_fails_the_whole_batch_for_a_dead_source() {
        let w = world();
        let mut reg = SourceRegistry::new(RegistryConfig {
            max_retries: 1,
            ..Default::default()
        });
        let mut gs = SourceSpec::for_kind(SourceKind::GoogleScholar);
        gs.latency_micros = 0;
        reg.register(Arc::new(
            SimulatedSource::new(gs, w.clone()).with_fault(FaultSchedule::PermanentOutage),
        ));
        let mut pb = SourceSpec::for_kind(SourceKind::Publons);
        pb.latency_micros = 0;
        reg.register(Arc::new(SimulatedSource::new(pb, w.clone())));
        let labels: Vec<String> = (0..40).map(|i| format!("label {i}")).collect();
        let report = reg.search_by_interests_report(&labels);
        // One outcome per source — not one per label — so a dead source
        // produces exactly one error for the whole 40-label batch.
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.errors().len(), 1);
        assert!(matches!(
            report.outcomes[0].status,
            SourceStatus::Failed(SourceError::Transient { .. })
        ));
        assert_eq!(report.outcomes[1].status, SourceStatus::Ok);
    }

    #[test]
    fn pool_queue_depth_returns_to_zero_and_batch_size_is_observed() {
        let w = world();
        let telemetry = minaret_telemetry::Telemetry::new();
        let mut reg = SourceRegistry::with_telemetry(RegistryConfig::default(), telemetry.clone());
        for spec in SourceSpec::all_defaults() {
            reg.register(Arc::new(SimulatedSource::new(spec, w.clone())));
        }
        let labels: Vec<String> = (0..7).map(|i| format!("label {i}")).collect();
        let _ = reg.search_by_interests_report(&labels);
        let _ = reg.search_by_name_report(&w.scholars()[0].full_name());
        let text = telemetry.encode_prometheus();
        // Every enqueued job was dequeued before its reply landed, so
        // after the fan-outs the gauge is back at zero.
        assert!(
            text.contains("minaret_pool_queue_depth 0"),
            "queue depth must drain: {text}"
        );
        assert!(
            text.contains("minaret_batch_labels_count 1"),
            "batch size histogram must record the batched fan-out: {text}"
        );
        assert!(
            text.contains("minaret_fanout_micros_count{query=\"interest_batch\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn pool_workers_survive_a_panicking_source_across_fanouts() {
        struct PanickingSource;
        impl ScholarSource for PanickingSource {
            fn kind(&self) -> SourceKind {
                SourceKind::Orcid
            }
            fn supports_interest_search(&self) -> bool {
                false
            }
            fn search_by_name(&self, _name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
                panic!("scripted pool panic");
            }
            fn search_by_interests(
                &self,
                _labels: &[Arc<str>],
            ) -> Result<LabeledHits, SourceError> {
                Err(SourceError::Unsupported {
                    source: SourceKind::Orcid,
                    operation: "interest search",
                })
            }
        }
        let w = world();
        let mut reg = SourceRegistry::new(RegistryConfig::default());
        reg.register(Arc::new(SimulatedSource::new(
            SourceSpec::for_kind(SourceKind::Dblp),
            w.clone(),
        )));
        reg.register(Arc::new(PanickingSource));
        let name = w.scholars()[0].full_name();
        // The same long-lived worker serves every fan-out; three panics
        // in a row must each be contained and the healthy sibling must
        // keep answering.
        for round in 0..3 {
            let report = reg.search_by_name_report(&name);
            let dblp = report
                .outcomes
                .iter()
                .find(|o| o.source == SourceKind::Dblp)
                .unwrap();
            assert_eq!(dblp.status, SourceStatus::Ok, "round {round}");
            let dead = report
                .outcomes
                .iter()
                .find(|o| o.source == SourceKind::Orcid)
                .unwrap();
            match &dead.status {
                SourceStatus::Failed(SourceError::Internal { detail, .. }) => {
                    assert!(detail.contains("scripted pool panic"), "{detail}");
                }
                other => panic!("round {round}: expected internal error, got {other:?}"),
            }
        }
    }

    #[test]
    fn retries_absorb_transient_failures() {
        let w = world();
        let mut reg = SourceRegistry::new(RegistryConfig {
            max_retries: 6,
            concurrent: false,
            ..Default::default()
        });
        let mut spec = SourceSpec::for_kind(SourceKind::GoogleScholar);
        spec.failure_rate = 0.4;
        reg.register(Arc::new(SimulatedSource::new(spec, w.clone())));
        let mut failures = 0;
        for i in 0..30 {
            let name = w.scholars()[i].full_name();
            failures += reg.search_by_name_report(&name).errors().len();
        }
        // 0.4^7 per call chain — all calls should eventually succeed.
        assert_eq!(failures, 0);
        let stats = reg.stats();
        assert!(stats.retries > 0, "expected some retries to occur");
        assert!(stats.calls > 30);
    }

    #[test]
    fn telemetry_tracks_per_source_requests_and_retries() {
        let w = world();
        let telemetry = minaret_telemetry::Telemetry::new();
        let mut reg = SourceRegistry::with_telemetry(
            RegistryConfig {
                max_retries: 6,
                concurrent: false,
                ..Default::default()
            },
            telemetry.clone(),
        );
        let mut gs = SourceSpec::for_kind(SourceKind::GoogleScholar);
        gs.failure_rate = 0.4;
        reg.register(Arc::new(SimulatedSource::new(gs, w.clone())));
        reg.register(Arc::new(SimulatedSource::new(
            SourceSpec::for_kind(SourceKind::Dblp),
            w.clone(),
        )));
        for i in 0..20 {
            let _ = reg.search_by_name_report(&w.scholars()[i].full_name());
        }
        let stats = reg.stats();
        let text = telemetry.encode_prometheus();
        // Telemetry and legacy counters must agree.
        let gs_reqs = telemetry
            .counter("minaret_source_requests_total", &[("source", "gs")])
            .get();
        let dblp_reqs = telemetry
            .counter("minaret_source_requests_total", &[("source", "dblp")])
            .get();
        assert_eq!(gs_reqs + dblp_reqs, stats.calls);
        assert_eq!(dblp_reqs, 20, "DBLP never fails, one call per query");
        assert!(
            text.contains("minaret_source_retries_total{source=\"gs\"}"),
            "{text}"
        );
        assert!(
            text.contains("minaret_source_errors_total{kind=\"transient\",source=\"gs\"}"),
            "{text}"
        );
        assert!(
            text.contains("minaret_source_call_micros_count{source=\"dblp\"} 20"),
            "{text}"
        );
        assert!(
            text.contains("minaret_fanout_micros_count{query=\"name\"} 20"),
            "{text}"
        );
        // The breaker gauge is published from registration time so that
        // scrapes see every source even before any traffic.
        assert!(
            text.contains("minaret_breaker_state{source=\"dblp\"} 0"),
            "{text}"
        );
    }

    #[test]
    fn exhausted_retries_surface_as_errors() {
        let w = world();
        let mut reg = SourceRegistry::new(RegistryConfig {
            max_retries: 1,
            concurrent: false,
            ..Default::default()
        });
        let mut spec = SourceSpec::for_kind(SourceKind::GoogleScholar);
        spec.failure_rate = 1.0;
        reg.register(Arc::new(SimulatedSource::new(spec, w.clone())));
        let report = reg.search_by_name_report("anyone");
        assert!(report.profiles.is_empty());
        assert_eq!(report.errors().len(), 1);
        assert!(reg.stats().gave_up >= 1);
    }

    #[test]
    fn breaker_trips_and_short_circuits_a_dead_source() {
        let w = world();
        let clock = SimulatedClock::new();
        let mut spec = SourceSpec::for_kind(SourceKind::GoogleScholar);
        spec.latency_micros = 0;
        let mut reg = SourceRegistry::new(RegistryConfig {
            max_retries: 1,
            concurrent: false,
            resilience: ResilienceConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown_micros: 1_000_000,
                    probe_successes: 1,
                },
                ..ResilienceConfig::disabled()
            },
        })
        .with_clock(clock.clone());
        reg.register(Arc::new(
            SimulatedSource::new(spec, w.clone())
                .with_fault(FaultSchedule::PermanentOutage)
                .with_clock(clock.clone()),
        ));
        // Two fan-outs x two attempts = 4 consecutive failures >= 3.
        let _ = reg.search_by_name_report("a");
        let _ = reg.search_by_name_report("b");
        assert_eq!(
            reg.breaker_state(SourceKind::GoogleScholar),
            Some(BreakerState::Open)
        );
        // The third fan-out is rejected without touching the source.
        let calls_before = reg.stats().calls;
        let report = reg.search_by_name_report("c");
        assert_eq!(reg.stats().calls, calls_before);
        assert!(reg.stats().short_circuited >= 1);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(
            report.outcomes[0].status,
            SourceStatus::Failed(SourceError::CircuitOpen {
                source: SourceKind::GoogleScholar
            })
        );
        assert_eq!(report.outcomes[0].attempts, 0);
    }

    #[test]
    fn slow_source_times_out_against_call_deadline() {
        let w = world();
        let clock = SimulatedClock::new();
        let mut spec = SourceSpec::for_kind(SourceKind::Dblp);
        spec.latency_micros = 0;
        let mut reg = SourceRegistry::new(RegistryConfig {
            max_retries: 0,
            concurrent: false,
            resilience: ResilienceConfig {
                call_deadline_micros: 10_000,
                ..ResilienceConfig::disabled()
            },
        })
        .with_clock(clock.clone());
        reg.register(Arc::new(
            SimulatedSource::new(spec, w.clone())
                .with_fault(FaultSchedule::Slow {
                    latency_micros: 50_000,
                })
                .with_clock(clock.clone()),
        ));
        let report = reg.search_by_name_report(&w.scholars()[0].full_name());
        assert_eq!(
            report.outcomes[0].status,
            SourceStatus::Failed(SourceError::DeadlineExceeded {
                source: SourceKind::Dblp
            })
        );
        assert_eq!(reg.stats().timed_out, 1);
    }

    /// A source whose batched interest search blocks until released,
    /// making concurrent fan-outs overlap deterministically (no sleeps).
    struct GatedSource {
        inner: SimulatedSource,
        release: Arc<(Mutex<bool>, Condvar)>,
        inner_calls: Arc<AtomicU64>,
    }

    impl GatedSource {
        fn wait_for_release(&self) {
            let (flag, cv) = &*self.release;
            let mut open = flag.lock();
            while !*open {
                cv.wait(&mut open);
            }
        }
    }

    impl ScholarSource for GatedSource {
        fn kind(&self) -> SourceKind {
            self.inner.kind()
        }
        fn supports_interest_search(&self) -> bool {
            true
        }
        fn search_by_name(&self, name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
            self.inner.search_by_name(name)
        }
        fn search_by_interests(&self, labels: &[Arc<str>]) -> Result<LabeledHits, SourceError> {
            self.inner_calls.fetch_add(1, Ordering::Relaxed);
            self.wait_for_release();
            self.inner.search_by_interests(labels)
        }
    }

    fn open_gate(release: &Arc<(Mutex<bool>, Condvar)>) {
        let (flag, cv) = &**release;
        *flag.lock() = true;
        cv.notify_all();
    }

    #[test]
    fn concurrent_identical_fanouts_coalesce_onto_one_leader() {
        let w = world();
        let telemetry = Telemetry::new();
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let inner_calls = Arc::new(AtomicU64::new(0));
        let mut reg = SourceRegistry::with_telemetry(RegistryConfig::default(), telemetry.clone());
        reg.register(Arc::new(GatedSource {
            inner: SimulatedSource::new(SourceSpec::for_kind(SourceKind::GoogleScholar), w.clone()),
            release: release.clone(),
            inner_calls: inner_calls.clone(),
        }));
        let reg = Arc::new(reg);
        let labels: Vec<String> = w
            .scholars()
            .iter()
            .take(2)
            .map(|s| w.ontology.label(s.interests[0]).to_string())
            .collect();
        // 1 leader + 3 followers: followers park on overflow workers
        // while the leader holds the source's affinity worker.
        const N: usize = 4;
        let mut handles = Vec::new();
        for _ in 0..N {
            let reg = reg.clone();
            let labels = labels.clone();
            handles.push(std::thread::spawn(move || {
                reg.search_by_interests_report(&labels)
            }));
        }
        // The leader is parked on the gate; wait until every follower
        // has registered against its in-flight cell, then release.
        while reg.coalesced_count() < (N - 1) as u64 {
            std::thread::yield_now();
        }
        open_gate(&release);
        let reports: Vec<BatchFanOutReport> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The source answered exactly once for all N fan-outs, and the
        // policy layer charged exactly one call.
        assert_eq!(inner_calls.load(Ordering::Relaxed), 1);
        assert_eq!(reg.stats().calls, 1);
        assert_eq!(reg.coalesced_count(), (N - 1) as u64);
        // Followers received clones of the leader result: same labels,
        // same profiles, same outcomes.
        for r in &reports[1..] {
            assert_eq!(r.by_label, reports[0].by_label);
            assert_eq!(r.outcomes, reports[0].outcomes);
        }
        assert!(reports[0].by_label.iter().any(|(_, hits)| !hits.is_empty()));
        let text = telemetry.encode_prometheus();
        assert!(
            text.contains("minaret_fanout_coalesced_total{source=\"gs\"} 3"),
            "{text}"
        );
    }

    #[test]
    fn a_coalesced_failure_charges_the_breaker_once() {
        let w = world();
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let inner_calls = Arc::new(AtomicU64::new(0));
        // max_retries 1 → one failing policy run records 2 breaker
        // failures. Threshold 8 would trip only if all four fan-outs
        // each ran the policy (4 × 2 = 8); a coalesced run must not.
        let mut reg = SourceRegistry::new(RegistryConfig {
            max_retries: 1,
            resilience: ResilienceConfig {
                breaker: BreakerConfig {
                    failure_threshold: 8,
                    cooldown_micros: 60_000_000,
                    probe_successes: 1,
                },
                ..ResilienceConfig::disabled()
            },
            ..Default::default()
        });
        reg.register(Arc::new(GatedSource {
            inner: SimulatedSource::new(SourceSpec::for_kind(SourceKind::GoogleScholar), w.clone())
                .with_fault(FaultSchedule::PermanentOutage),
            release: release.clone(),
            inner_calls: inner_calls.clone(),
        }));
        let reg = Arc::new(reg);
        let labels = vec!["databases".to_string()];
        const N: usize = 4;
        let mut handles = Vec::new();
        for _ in 0..N {
            let reg = reg.clone();
            let labels = labels.clone();
            handles.push(std::thread::spawn(move || {
                reg.search_by_interests_report(&labels)
            }));
        }
        while reg.coalesced_count() < (N - 1) as u64 {
            std::thread::yield_now();
        }
        open_gate(&release);
        let reports: Vec<BatchFanOutReport> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // One policy run: 1 call + 1 retry, one give-up — shared by all.
        let stats = reg.stats();
        assert_eq!(stats.calls, 2);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.gave_up, 1);
        for r in &reports {
            assert!(matches!(r.outcomes[0].status, SourceStatus::Failed(_)));
        }
        // Two recorded failures, not eight: the breaker stays closed,
        // so the coalesced failure was charged exactly once.
        assert_eq!(
            reg.breaker_state(SourceKind::GoogleScholar),
            Some(BreakerState::Closed)
        );
    }

    #[test]
    fn scoped_budget_clamps_fanouts_to_the_request_deadline() {
        let w = world();
        let clock = SimulatedClock::new();
        let mut spec = SourceSpec::for_kind(SourceKind::Dblp);
        spec.latency_micros = 1_000;
        let mut reg = SourceRegistry::new(RegistryConfig {
            max_retries: 0,
            concurrent: false,
            resilience: ResilienceConfig::disabled(),
        })
        .with_clock(clock.clone());
        reg.register(Arc::new(
            SimulatedSource::new(spec, w.clone()).with_clock(clock.clone()),
        ));
        let name = w.scholars()[0].full_name();
        // Root handle: no request deadline, the call succeeds.
        let report = reg.search_by_name_report(&name);
        assert_eq!(report.outcomes[0].status, SourceStatus::Ok);
        // A scoped view whose budget is already exhausted rejects the
        // call before touching the source.
        let calls_before = reg.stats().calls;
        let scoped = reg.scoped_with_budget(0);
        let report = scoped.search_by_name_report(&name);
        assert_eq!(
            report.outcomes[0].status,
            SourceStatus::Failed(SourceError::BudgetExhausted {
                source: SourceKind::Dblp
            })
        );
        assert_eq!(reg.stats().calls, calls_before, "no source call issued");
        // The scoped run charged the shared stats ledger.
        assert!(reg.stats().gave_up >= 1);
        // A generous budget behaves like the root handle.
        let scoped = reg.scoped_with_budget(10_000_000);
        let report = scoped.search_by_name_report(&name);
        assert_eq!(report.outcomes[0].status, SourceStatus::Ok);
    }

    #[test]
    fn coalescing_counter_is_exported_at_zero_from_registration() {
        let w = world();
        let telemetry = Telemetry::new();
        let mut reg = SourceRegistry::with_telemetry(RegistryConfig::default(), telemetry.clone());
        reg.register(Arc::new(SimulatedSource::new(
            SourceSpec::for_kind(SourceKind::Dblp),
            w.clone(),
        )));
        // No fan-out has run, but scrapes must already see the series.
        let text = telemetry.encode_prometheus();
        assert!(
            text.contains("minaret_fanout_coalesced_total{source=\"dblp\"} 0"),
            "{text}"
        );
        assert_eq!(reg.coalesced_count(), 0);
    }

    /// A rendezvous barrier: every arriving call parks until `target`
    /// calls have arrived, then all proceed. Proves N calls were
    /// in-flight *simultaneously* — if anything serialized them, the
    /// earlier arrival would hold its lock forever waiting for the later
    /// one and the test would deadlock rather than flake.
    struct ArrivalGate {
        count: Mutex<usize>,
        cv: Condvar,
        target: usize,
    }

    impl ArrivalGate {
        fn new(target: usize) -> Self {
            Self {
                count: Mutex::new(0),
                cv: Condvar::new(),
                target,
            }
        }

        fn arrive_and_wait(&self) {
            let mut n = self.count.lock();
            *n += 1;
            self.cv.notify_all();
            while *n < self.target {
                self.cv.wait(&mut n);
            }
        }
    }

    /// A source whose batched interest search rendezvouses on an
    /// [`ArrivalGate`] before answering.
    struct RendezvousSource {
        inner: SimulatedSource,
        gate: Arc<ArrivalGate>,
        inner_calls: Arc<AtomicU64>,
    }

    impl ScholarSource for RendezvousSource {
        fn kind(&self) -> SourceKind {
            self.inner.kind()
        }
        fn supports_interest_search(&self) -> bool {
            true
        }
        fn search_by_name(&self, name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
            self.inner.search_by_name(name)
        }
        fn search_by_interests(&self, labels: &[Arc<str>]) -> Result<LabeledHits, SourceError> {
            self.inner_calls.fetch_add(1, Ordering::Relaxed);
            self.gate.arrive_and_wait();
            self.inner.search_by_interests(labels)
        }
    }

    /// Finds two single-label queries whose single-flight keys land on
    /// shards related by `pick` (same shard / different shards) of the
    /// registry's `inflight` map. Shard placement is a pure function of
    /// the key, so the search is deterministic.
    fn label_pair_by_shard(
        reg: &SourceRegistry,
        world: &World,
        pick: impl Fn(usize, usize) -> bool,
    ) -> (Vec<String>, Vec<String>) {
        let labels: Vec<String> = world.ontology.topics().map(|t| t.label.clone()).collect();
        let shard_of = |label: &String| {
            let key = (
                SourceKind::GoogleScholar,
                batch_fanout_key([minaret_ontology::normalize_label(label).as_str()]),
            );
            reg.shared.inflight.shard_index(&key)
        };
        for a in &labels {
            for b in &labels {
                if a != b && pick(shard_of(a), shard_of(b)) {
                    return (vec![a.clone()], vec![b.clone()]);
                }
            }
        }
        panic!("no label pair satisfies the shard relation");
    }

    fn rendezvous_registry(
        w: &Arc<World>,
        gate: &Arc<ArrivalGate>,
        inner_calls: &Arc<AtomicU64>,
    ) -> Arc<SourceRegistry> {
        let mut reg = SourceRegistry::new(RegistryConfig::default());
        reg.register(Arc::new(RendezvousSource {
            inner: SimulatedSource::new(SourceSpec::for_kind(SourceKind::GoogleScholar), w.clone()),
            gate: gate.clone(),
            inner_calls: inner_calls.clone(),
        }));
        Arc::new(reg)
    }

    #[test]
    fn fanouts_on_different_shards_run_concurrently() {
        let w = world();
        let gate = Arc::new(ArrivalGate::new(2));
        let inner_calls = Arc::new(AtomicU64::new(0));
        let reg = rendezvous_registry(&w, &gate, &inner_calls);
        let (la, lb) = label_pair_by_shard(&reg, &w, |a, b| a != b);
        let (ra, rb) = {
            let (reg_a, reg_b) = (reg.clone(), reg.clone());
            let ha = std::thread::spawn(move || reg_a.search_by_interests_report(&la));
            let hb = std::thread::spawn(move || reg_b.search_by_interests_report(&lb));
            (ha.join().unwrap(), hb.join().unwrap())
        };
        // Both leaders were inside the source at once (the rendezvous
        // requires it); neither coalesced onto the other.
        assert_eq!(inner_calls.load(Ordering::Relaxed), 2);
        assert_eq!(reg.coalesced_count(), 0);
        assert_eq!(ra.outcomes[0].status, SourceStatus::Ok);
        assert_eq!(rb.outcomes[0].status, SourceStatus::Ok);
    }

    #[test]
    fn same_shard_distinct_fanouts_run_concurrently_without_coalescing() {
        // Two *different* questions that happen to share an inflight
        // shard must each get their own leader — the shard lock guards
        // leader election only, never the in-flight source call.
        let w = world();
        let gate = Arc::new(ArrivalGate::new(2));
        let inner_calls = Arc::new(AtomicU64::new(0));
        let reg = rendezvous_registry(&w, &gate, &inner_calls);
        let (la, lb) = label_pair_by_shard(&reg, &w, |a, b| a == b);
        let (ra, rb) = {
            let (reg_a, reg_b) = (reg.clone(), reg.clone());
            let ha = std::thread::spawn(move || reg_a.search_by_interests_report(&la));
            let hb = std::thread::spawn(move || reg_b.search_by_interests_report(&lb));
            (ha.join().unwrap(), hb.join().unwrap())
        };
        assert_eq!(inner_calls.load(Ordering::Relaxed), 2);
        assert_eq!(reg.coalesced_count(), 0);
        assert_eq!(ra.outcomes[0].status, SourceStatus::Ok);
        assert_eq!(rb.outcomes[0].status, SourceStatus::Ok);
        assert!(
            reg.shared.inflight.is_empty(),
            "cells removed after publish"
        );
    }

    #[test]
    fn a_panicking_leader_coalesces_to_errors_and_leaves_the_map_usable() {
        // Regression for the poisoning hazard: the inflight map used to
        // live behind a `std::sync::Mutex`, so a panic at the wrong
        // moment could poison it and every later fan-out would die in
        // `expect("inflight map poisoned")`. With parking_lot sharding,
        // a leader that panics mid-call yields `Internal` errors for its
        // followers and the *next* fan-out computes fresh.
        struct PanicOnceSource {
            release: Arc<(Mutex<bool>, Condvar)>,
            calls: Arc<AtomicU64>,
            inner: SimulatedSource,
        }
        impl ScholarSource for PanicOnceSource {
            fn kind(&self) -> SourceKind {
                self.inner.kind()
            }
            fn supports_interest_search(&self) -> bool {
                true
            }
            fn search_by_name(&self, name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
                self.inner.search_by_name(name)
            }
            fn search_by_interests(&self, labels: &[Arc<str>]) -> Result<LabeledHits, SourceError> {
                if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
                    let (flag, cv) = &*self.release;
                    let mut open = flag.lock();
                    while !*open {
                        cv.wait(&mut open);
                    }
                    panic!("scripted leader panic");
                }
                self.inner.search_by_interests(labels)
            }
        }
        let w = world();
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let calls = Arc::new(AtomicU64::new(0));
        let mut reg = SourceRegistry::new(RegistryConfig {
            max_retries: 0,
            ..Default::default()
        });
        reg.register(Arc::new(PanicOnceSource {
            release: release.clone(),
            calls: calls.clone(),
            inner: SimulatedSource::new(SourceSpec::for_kind(SourceKind::GoogleScholar), w.clone()),
        }));
        let reg = Arc::new(reg);
        let labels = vec!["databases".to_string()];
        const N: usize = 3;
        let mut handles = Vec::new();
        for _ in 0..N {
            let reg = reg.clone();
            let labels = labels.clone();
            handles.push(std::thread::spawn(move || {
                reg.search_by_interests_report(&labels)
            }));
        }
        // Both followers are registered against the leader's cell before
        // the leader is allowed to panic.
        while reg.coalesced_count() < (N - 1) as u64 {
            std::thread::yield_now();
        }
        open_gate(&release);
        let reports: Vec<BatchFanOutReport> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &reports {
            match &r.outcomes[0].status {
                SourceStatus::Failed(SourceError::Internal { detail, .. }) => {
                    assert!(detail.contains("scripted leader panic"), "{detail}");
                }
                other => panic!("expected contained panic, got {other:?}"),
            }
        }
        // The cell was removed and the map is neither wedged nor
        // poisoned: a fresh fan-out elects a new leader and succeeds.
        assert!(reg.shared.inflight.is_empty());
        let retry = reg.search_by_interests_report(&labels);
        assert_eq!(retry.outcomes[0].status, SourceStatus::Ok);
        assert_eq!(calls.load(Ordering::Relaxed), 2, "one panic + one retry");
    }
}
