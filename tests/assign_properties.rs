//! Property tests over the batch-assignment solver, plus the
//! conference-scale acceptance pin.
//!
//! Invariants, for random worlds and specs: no reviewer ever exceeds
//! `max_load`; no (author, reviewer) COI pair is ever assigned; every
//! paper receives exactly `reviewers_per_paper` reviewers whenever the
//! batch is feasible (and infeasibility is an *explicit* error, never a
//! silently short paper); the flow refinement never totals below the
//! greedy seed. A golden-fingerprint test additionally pins the solved
//! assignment byte-identical across `with_parallelism` settings and
//! across eager vs. store-backed lazy worlds, and a call-counting
//! source pins the tentpole claim: one `POST /assign` for a batch of 50
//! manuscripts over a 10^4-scholar world performs exactly **one**
//! batched interest fan-out per source.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use minaret::assign::{manuscript_from_submission, AssignError, Assigner, AssignmentSpec};
use minaret::core::coi::check_coi;
use minaret::http::{Method, Request};
use minaret::json::Value;
use minaret::prelude::*;
use minaret::scholarly::{LabeledHits, ScholarSource, SourceError, SourceProfile};
use minaret_server::{build_router, AppState};
use minaret_synth::SubmissionGenerator;
use proptest::prelude::*;

type Shared = (
    Arc<World>,
    Arc<SourceRegistry>,
    Arc<minaret::ontology::Ontology>,
);

/// One shared 250-scholar world + registry for every proptest case.
fn shared() -> &'static Shared {
    static SHARED: OnceLock<Shared> = OnceLock::new();
    SHARED.get_or_init(|| {
        let world = Arc::new(WorldGenerator::new(WorldConfig::sized(250)).generate());
        let mut registry = SourceRegistry::new(RegistryConfig::default());
        for spec in SourceSpec::all_defaults() {
            registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
        }
        (
            world,
            Arc::new(registry),
            Arc::new(minaret::ontology::seed::curated_cs_ontology()),
        )
    })
}

/// A seeded batch of `n` submissions turned into manuscripts.
fn batch(world: &World, seed: u64, n: usize) -> Vec<ManuscriptDetails> {
    let mut generator = SubmissionGenerator::new(world, seed);
    generator
        .generate_many(n)
        .iter()
        .map(|sub| manuscript_from_submission(world, sub))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, .. ProptestConfig::default()
    })]

    #[test]
    fn solver_invariants_hold_for_random_batches(
        seed in 0u64..1000,
        n in 1usize..5,
        k in 1usize..4,
        max_load in 1usize..6,
        coauthorship in any::<bool>(),
    ) {
        let (world, registry, ontology) = shared();
        let manuscripts = batch(world, seed, n);
        let mut config = EditorConfig::default();
        config.coi.coauthorship = coauthorship;
        let spec = AssignmentSpec::new(k, max_load);
        let assigner = Assigner::new(Minaret::new(
            registry.clone(),
            ontology.clone(),
            config.clone(),
        ));
        match assigner.assign(&manuscripts, &spec) {
            Ok(solved) => {
                prop_assert_eq!(solved.papers.len(), n);
                let mut loads: HashMap<usize, usize> = HashMap::new();
                for paper in &solved.papers {
                    // Exactly k reviewers, all distinct.
                    prop_assert_eq!(paper.reviewers.len(), k);
                    let mut idxs: Vec<usize> =
                        paper.reviewers.iter().map(|r| r.pool_index).collect();
                    idxs.sort_unstable();
                    idxs.dedup();
                    prop_assert_eq!(idxs.len(), k);
                    for r in &paper.reviewers {
                        *loads.entry(r.pool_index).or_insert(0) += 1;
                    }
                }
                for load in loads.values() {
                    prop_assert!(*load <= max_load, "reviewer over max_load");
                }
                // The flow refinement never scores below the greedy seed.
                prop_assert!(
                    solved.total_score >= solved.greedy_total - 1e-9,
                    "flow {} < greedy {}",
                    solved.total_score,
                    solved.greedy_total
                );
                // No assigned pair conflicts: recompute the extraction
                // (deterministic) and re-run the COI check directly.
                let extraction = Minaret::new(
                    registry.clone(),
                    ontology.clone(),
                    config.clone(),
                )
                .extract_batch(&manuscripts)
                .expect("extraction already succeeded once");
                for (i, paper) in solved.papers.iter().enumerate() {
                    for r in &paper.reviewers {
                        let verdict = check_coi(
                            &extraction.pool[r.pool_index],
                            &extraction.papers[i].author_records,
                            &config.coi,
                        );
                        prop_assert!(
                            !verdict.conflicted(),
                            "paper {i} assigned conflicted reviewer {:?}: {:?}",
                            r.name,
                            verdict.reasons
                        );
                    }
                }
            }
            // A batch the spec cannot satisfy must say so explicitly —
            // never return short papers.
            Err(AssignError::Infeasible { assigned, required, .. }) => {
                prop_assert!(assigned < required);
            }
            Err(e) => prop_assert!(false, "unexpected solver error: {e}"),
        }
    }
}

/// Serializes everything identity-relevant about a solved batch, float
/// totals via `to_bits` so equality means *bitwise* equality.
fn assignment_fingerprint(a: &BatchAssignment) -> Vec<String> {
    let mut lines = vec![
        format!("pool={}", a.pool_size),
        format!("pairs={}", a.eligible_pairs),
        format!("greedy={:016x}", a.greedy_total.to_bits()),
        format!("total={:016x}", a.total_score.to_bits()),
    ];
    for paper in &a.papers {
        for r in &paper.reviewers {
            lines.push(format!(
                "pair {} -> {} score={:016x}",
                paper.title,
                r.name,
                r.score.to_bits()
            ));
        }
    }
    for l in &a.loads {
        lines.push(format!("load {} = {}", l.name, l.load));
    }
    lines
}

/// FNV-1a over fingerprint lines, folding a newline byte after each.
fn fnv64(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for line in lines {
        for b in line.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0x0a;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// True when the golden below is being re-captured rather than checked
/// (`MINARET_REBASELINE=1 cargo test --test assign_properties -- --nocapture golden`).
fn rebaseline() -> bool {
    std::env::var("MINARET_REBASELINE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// The pinned fingerprint of `golden_world` + `batch(seed 99, n 6)` +
/// `AssignmentSpec::new(2, 3)`. Re-capture only for a deliberate solver
/// or world-generation change.
const GOLDEN_ASSIGNMENT: u64 = 0x693d63425828d21b;

fn golden_world() -> Arc<World> {
    Arc::new(
        WorldGenerator::new(WorldConfig {
            seed: 0x5eed,
            ..WorldConfig::sized(600)
        })
        .generate(),
    )
}

fn eager_registry(world: &Arc<World>) -> Arc<SourceRegistry> {
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    Arc::new(registry)
}

fn solve_golden(registry: Arc<SourceRegistry>, parallelism: usize, world: &World) -> Vec<String> {
    let manuscripts = batch(world, 99, 6);
    let assigner = Assigner::new(
        Minaret::new(
            registry,
            Arc::new(minaret::ontology::seed::curated_cs_ontology()),
            EditorConfig::default(),
        )
        .with_parallelism(parallelism),
    );
    let solved = assigner
        .assign(&manuscripts, &AssignmentSpec::new(2, 3))
        .expect("golden batch is feasible");
    assignment_fingerprint(&solved)
}

#[test]
fn golden_assignment_is_identical_across_parallelism_and_world_backends() {
    let eager = golden_world();
    let baseline = solve_golden(eager_registry(&eager), 1, &eager);
    // Parallel filter/rank (auto and fixed width) must not move a
    // single pair or bit.
    for parallelism in [0usize, 4] {
        assert_eq!(
            baseline,
            solve_golden(eager_registry(&eager), parallelism, &eager),
            "parallelism {parallelism} diverged from the sequential solve"
        );
    }
    // A store-backed lazy world serving the same snapshot must solve
    // byte-identically to the eager world.
    let dir = std::env::temp_dir().join(format!("minaret-assign-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = minaret_synth::WorldConfig {
        seed: 0x5eed,
        ..minaret_synth::WorldConfig::sized(600)
    };
    let store =
        Arc::new(minaret_store::Store::open(&dir, minaret_store::StoreConfig::default()).unwrap());
    minaret_synth::stream_snapshot_world(
        &store,
        &minaret_synth::StreamingGenerator::new(cfg),
        |_| {},
    )
    .unwrap();
    let lazy = minaret_synth::LazyWorld::open(store)
        .unwrap()
        .expect("snapshot present");
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(SimulatedSource::lazy(spec, lazy.clone())));
    }
    let from_lazy = solve_golden(Arc::new(registry), 1, &eager);
    assert_eq!(
        baseline, from_lazy,
        "lazy-world solve diverged from the eager world"
    );
    drop(lazy);
    let _ = std::fs::remove_dir_all(&dir);

    let got = fnv64(&baseline);
    if rebaseline() {
        eprintln!("golden assignment: {got:#018x}");
        return;
    }
    assert_eq!(
        got, GOLDEN_ASSIGNMENT,
        "solved assignment diverged from the golden snapshot"
    );
}

/// Wraps a source and counts its batched interest queries.
struct CountingSource {
    inner: SimulatedSource,
    batched: AtomicUsize,
}

impl ScholarSource for CountingSource {
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
        self.batched.fetch_add(1, Ordering::Relaxed);
        self.inner.search_by_interests(labels)
    }
}

fn manuscript_json(m: &ManuscriptDetails) -> Value {
    Value::object()
        .set("title", m.title.as_str())
        .set(
            "keywords",
            m.keywords
                .iter()
                .map(|k| Value::from(k.as_str()))
                .collect::<Vec<_>>(),
        )
        .set(
            "authors",
            m.authors
                .iter()
                .map(|a| {
                    let mut o = Value::object().set("name", a.name.as_str());
                    if let Some(aff) = &a.affiliation {
                        o = o.set("affiliation", aff.as_str());
                    }
                    if let Some(c) = &a.country {
                        o = o.set("country", c.as_str());
                    }
                    o
                })
                .collect::<Vec<_>>(),
        )
        .set("target_venue", m.target_venue.as_str())
}

/// The tentpole acceptance pin: a conference-scale batch — 50
/// manuscripts over a 10^4-scholar world — completes one `POST /assign`
/// with exactly one batched interest fan-out per interest-capable
/// source.
#[test]
fn a_batch_of_fifty_is_one_fanout_per_source() {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(10_000)).generate());
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    let mut counters: Vec<Arc<CountingSource>> = Vec::new();
    for spec in SourceSpec::all_defaults() {
        let counting = Arc::new(CountingSource {
            inner: SimulatedSource::new(spec, world.clone()),
            batched: AtomicUsize::new(0),
        });
        counters.push(counting.clone());
        registry.register(counting);
    }
    let state = AppState::with_registry_and_cache(
        world.clone(),
        Arc::new(registry),
        minaret_telemetry::Telemetry::new(),
        None,
    );
    let router = build_router(state.clone());

    let manuscripts = batch(&world, 4242, 50);
    assert_eq!(manuscripts.len(), 50);
    let body = Value::object()
        .set(
            "manuscripts",
            manuscripts.iter().map(manuscript_json).collect::<Vec<_>>(),
        )
        .set(
            "spec",
            Value::object()
                .set("reviewers_per_paper", 3u64)
                .set("max_load", 8u64),
        )
        .to_string();
    let resp = router.dispatch(&Request {
        method: Method::Post,
        path: "/assign".into(),
        query: vec![],
        headers: vec![],
        body: body.into_bytes(),
        minor_version: 1,
        deadline: None,
    });
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let v = minaret::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(
        v.get("papers")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(50),
        "every paper came back assigned"
    );
    for source in &counters {
        let want = usize::from(source.supports_interest_search());
        assert_eq!(
            source.batched.load(Ordering::Relaxed),
            want,
            "{:?}: a 50-manuscript batch must cost exactly {want} fan-out(s)",
            source.kind()
        );
    }
}
