//! Equivalence guarantees for the batched + parallel pipeline.
//!
//! PR goals under test: (1) one `recommend()` call performs exactly one
//! registry fan-out regardless of how many labels keyword expansion
//! produced — counted through an instrumented source; (2) the concurrent
//! worker-pool registry plus parallel filter/rank produce **the same
//! report** as the fully sequential path — same rankings with bitwise-
//! equal scores, same filtered-out reasons, same degraded-source sets —
//! across seeded worlds and scripted fault schedules.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use minaret::prelude::*;
use minaret::scholarly::{ScholarSource, SourceError, SourceProfile};
use minaret_synth::SubmissionGenerator;

/// Wraps a source and counts its batched interest calls.
struct CountingSource {
    inner: SimulatedSource,
    batched: AtomicUsize,
}

impl CountingSource {
    fn new(inner: SimulatedSource) -> Self {
        Self {
            inner,
            batched: AtomicUsize::new(0),
        }
    }
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
    fn search_by_interests(
        &self,
        labels: &[Arc<str>],
    ) -> Result<minaret_scholarly::LabeledHits, SourceError> {
        self.batched.fetch_add(1, Ordering::Relaxed);
        self.inner.search_by_interests(labels)
    }
}

fn world(scholars: usize) -> Arc<World> {
    Arc::new(WorldGenerator::new(WorldConfig::sized(scholars)).generate())
}

fn manuscript(world: &World, seed: u64) -> ManuscriptDetails {
    let sub = SubmissionGenerator::new(world, seed).generate().unwrap();
    ManuscriptDetails {
        title: sub.title.clone(),
        keywords: sub.keywords.clone(),
        authors: sub
            .authors
            .iter()
            .map(|&id| AuthorInput::named(world.scholar(id).full_name()))
            .collect(),
        target_venue: world.venue(sub.target_venue).name.clone(),
    }
}

#[test]
fn one_recommend_is_exactly_one_fanout() {
    let world = world(250);
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    let mut counters: Vec<Arc<CountingSource>> = Vec::new();
    for spec in SourceSpec::all_defaults() {
        let counting = Arc::new(CountingSource::new(SimulatedSource::new(
            spec,
            world.clone(),
        )));
        counters.push(counting.clone());
        registry.register(counting);
    }
    let minaret = Minaret::new(
        Arc::new(registry),
        Arc::new(minaret_ontology::seed::curated_cs_ontology()),
        EditorConfig::default(),
    );
    let m = manuscript(&world, 23);
    assert!(
        m.keywords.len() >= 2,
        "want a multi-keyword manuscript so expansion yields many labels"
    );
    minaret.recommend(&m).expect("pipeline succeeds");
    for source in &counters {
        let batched = source.batched.load(Ordering::Relaxed);
        if source.supports_interest_search() {
            assert_eq!(
                batched,
                1,
                "{:?} must see exactly one batched fan-out per recommend()",
                source.kind()
            );
        } else {
            assert_eq!(
                batched,
                0,
                "{:?} does not support interest search",
                source.kind()
            );
        }
    }
    // A second recommendation pays exactly one more fan-out.
    minaret.recommend(&m).expect("pipeline succeeds");
    for source in counters.iter().filter(|s| s.supports_interest_search()) {
        assert_eq!(source.batched.load(Ordering::Relaxed), 2);
    }
}

/// Serializes everything ranking-relevant about a report, with float
/// scores rendered via `to_bits` so equality means *bitwise* equality.
fn fingerprint(report: &RecommendationReport) -> Vec<String> {
    let mut lines = vec![
        format!("retrieved={}", report.candidates_retrieved),
        format!("degraded={:?}", report.degraded_sources),
        format!("errors={:?}", report.source_errors),
    ];
    for rec in &report.recommendations {
        let b = &rec.breakdown;
        lines.push(format!(
            "rank {} {} total={:016x} cov={:016x} imp={:016x} rec={:016x} exp={:016x} fam={:016x} res={:016x}",
            rec.rank,
            rec.name,
            rec.total.to_bits(),
            b.coverage.to_bits(),
            b.impact.to_bits(),
            b.recency.to_bits(),
            b.experience.to_bits(),
            b.familiarity.to_bits(),
            b.responsiveness.to_bits(),
        ));
    }
    for (cand, reason) in &report.filtered_out {
        lines.push(format!(
            "filtered {} score={:016x} reason={:?}",
            cand.merged.display_name,
            cand.keyword_score.to_bits(),
            reason
        ));
    }
    lines
}

/// Builds a framework over all six sources with the given registry mode,
/// filter/rank parallelism, and scripted faults. Fault schedules are
/// stateful, so every variant gets its own freshly scripted registry.
fn build(
    world: &Arc<World>,
    concurrent: bool,
    parallelism: usize,
    faults: &[(SourceKind, FaultSchedule)],
) -> Minaret {
    let mut registry = SourceRegistry::new(RegistryConfig {
        concurrent,
        ..Default::default()
    });
    for spec in SourceSpec::all_defaults() {
        let kind = spec.kind;
        let mut source = SimulatedSource::new(spec, world.clone());
        if let Some((_, fault)) = faults.iter().find(|(k, _)| *k == kind) {
            source = source.with_fault(*fault);
        }
        registry.register(Arc::new(source));
    }
    Minaret::new(
        Arc::new(registry),
        Arc::new(minaret_ontology::seed::curated_cs_ontology()),
        EditorConfig::default(),
    )
    .with_parallelism(parallelism)
}

#[test]
fn parallel_report_is_byte_identical_to_sequential_across_seeds() {
    let world = world(300);
    for seed in [1u64, 7, 23, 42] {
        let m = manuscript(&world, seed);
        let parallel = build(&world, true, 0, &[])
            .recommend(&m)
            .expect("parallel run succeeds");
        let sequential = build(&world, false, 1, &[])
            .recommend(&m)
            .expect("sequential run succeeds");
        assert_eq!(
            fingerprint(&parallel),
            fingerprint(&sequential),
            "seed {seed}: worker-pool + parallel filter/rank diverged from the sequential path"
        );
    }
}

#[test]
fn parallel_report_is_byte_identical_under_scripted_faults() {
    let world = world(300);
    let scenarios: Vec<Vec<(SourceKind, FaultSchedule)>> = vec![
        // A transient wobble, fully absorbed by retries.
        vec![(
            SourceKind::GoogleScholar,
            FaultSchedule::FailThenRecover { failures: 2 },
        )],
        // A permanent outage: both variants must degrade identically.
        vec![(SourceKind::Publons, FaultSchedule::PermanentOutage)],
        // Mixed weather across several sources.
        vec![
            (
                SourceKind::Dblp,
                FaultSchedule::FailThenRecover { failures: 1 },
            ),
            (SourceKind::Publons, FaultSchedule::PermanentOutage),
            (
                SourceKind::Orcid,
                FaultSchedule::FailThenRecover { failures: 2 },
            ),
        ],
    ];
    for (i, faults) in scenarios.iter().enumerate() {
        let m = manuscript(&world, 17);
        let parallel = build(&world, true, 0, faults)
            .recommend(&m)
            .expect("parallel run succeeds");
        let sequential = build(&world, false, 1, faults)
            .recommend(&m)
            .expect("sequential run succeeds");
        assert_eq!(
            fingerprint(&parallel),
            fingerprint(&sequential),
            "fault scenario {i} diverged between parallel and sequential paths"
        );
        if faults
            .iter()
            .any(|(_, f)| matches!(f, FaultSchedule::PermanentOutage))
        {
            assert!(parallel.degraded, "scenario {i} should report degradation");
            assert!(!parallel.source_errors.is_empty());
        }
    }
}

/// FNV-1a over fingerprint lines, folding a newline byte after each —
/// the exact hash the goldens below were captured with.
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

/// True when the goldens are being re-captured rather than checked.
/// Run `MINARET_REBASELINE=1 cargo test --test batched_equivalence -- --nocapture golden`
/// and paste the printed hashes over the constants below. Only do this
/// for a *deliberate* behavior change (e.g. the world generator or the
/// ranking pipeline changed on purpose) — never to paper over a diff
/// you can't explain.
fn rebaseline() -> bool {
    std::env::var("MINARET_REBASELINE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Golden snapshots of the sequential parallelism-1 pipeline over
/// `world(300)`, pinning recommendations **byte-identical across
/// refactors** (zero-copy profiles, interning, lazy materialization —
/// none may shift a score or a rank). Last re-captured when world
/// generation moved to per-entity seed derivation (chunk-invariant
/// streaming), which changed the content every seed produces.
#[test]
fn zero_copy_pipeline_matches_pre_refactor_golden_snapshots() {
    let world = world(300);
    let golden = [
        (1u64, 0x5a38097eed2f051eu64),
        (7, 0x3a16ec6e4cd44adf),
        (23, 0x6b2669f56a4295b3),
        (42, 0x3d6f173c6e097f4c),
    ];
    for (seed, want) in golden {
        let m = manuscript(&world, seed);
        let report = build(&world, false, 1, &[])
            .recommend(&m)
            .expect("sequential run succeeds");
        let got = fnv64(&fingerprint(&report));
        if rebaseline() {
            eprintln!("golden seed {seed}: {got:#018x}");
            continue;
        }
        assert_eq!(
            got, want,
            "seed {seed}: recommendations diverged from the golden snapshot"
        );
    }
}

/// Same golden-snapshot guarantee under scripted fault schedules: the
/// degraded-mode output (outcomes, errors, surviving rankings) is
/// pinned byte-identical across refactors too.
#[test]
fn zero_copy_pipeline_matches_golden_snapshots_under_faults() {
    let world = world(300);
    let scenarios: Vec<(Vec<(SourceKind, FaultSchedule)>, u64)> = vec![
        (
            vec![(
                SourceKind::GoogleScholar,
                FaultSchedule::FailThenRecover { failures: 2 },
            )],
            0x92bba5c6e7c17da1,
        ),
        (
            vec![(SourceKind::Publons, FaultSchedule::PermanentOutage)],
            0x3aeb0c737d208620,
        ),
        (
            vec![
                (
                    SourceKind::Dblp,
                    FaultSchedule::FailThenRecover { failures: 1 },
                ),
                (SourceKind::Publons, FaultSchedule::PermanentOutage),
                (
                    SourceKind::Orcid,
                    FaultSchedule::FailThenRecover { failures: 2 },
                ),
            ],
            0x3aeb0c737d208620,
        ),
    ];
    for (i, (faults, want)) in scenarios.iter().enumerate() {
        let m = manuscript(&world, 17);
        let report = build(&world, false, 1, faults)
            .recommend(&m)
            .expect("sequential run succeeds");
        let got = fnv64(&fingerprint(&report));
        if rebaseline() {
            eprintln!("golden fault scenario {i}: {got:#018x}");
            continue;
        }
        assert_eq!(
            got, *want,
            "fault scenario {i} diverged from the golden snapshot"
        );
    }
}
