//! The pipeline under *scripted* source faults — the conditions real
//! on-the-fly scraping actually faces, replayed deterministically.
//!
//! Every test here drives failures through [`FaultSchedule`]s keyed off
//! each source's call counter, and time through a shared
//! [`SimulatedClock`] where deadlines matter. No dice, no wall-clock
//! sleeps: the same inputs produce the same outcomes on every run.

use std::sync::Arc;

use minaret::prelude::*;
use minaret::scholarly::{LabeledHits, ScholarSource, SourceError, SourceProfile, SourceStatus};
use minaret_synth::SubmissionGenerator;

fn world(scholars: usize) -> Arc<World> {
    Arc::new(WorldGenerator::new(WorldConfig::sized(scholars)).generate())
}

fn manuscript(world: &World) -> ManuscriptDetails {
    let sub = SubmissionGenerator::new(world, 17).generate().unwrap();
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

/// All six default sources, with scripted faults applied per kind.
fn registry_with_faults(
    world: &Arc<World>,
    config: RegistryConfig,
    faults: &[(SourceKind, FaultSchedule)],
) -> SourceRegistry {
    let mut registry = SourceRegistry::new(config);
    for spec in SourceSpec::all_defaults() {
        let kind = spec.kind;
        let mut source = SimulatedSource::new(spec, world.clone());
        if let Some((_, fault)) = faults.iter().find(|(k, _)| *k == kind) {
            source = source.with_fault(*fault);
        }
        registry.register(Arc::new(source) as Arc<dyn ScholarSource>);
    }
    registry
}

fn minaret_over(registry: Arc<SourceRegistry>) -> Minaret {
    Minaret::new(
        registry,
        Arc::new(minaret::ontology::seed::curated_cs_ontology()),
        EditorConfig::default(),
    )
}

#[test]
fn source_recovers_after_scripted_failures() {
    let w = world(300);
    let m = manuscript(&w);
    // Google Scholar fails its first two calls, then recovers. Three
    // retries absorb the outage exactly; nothing degrades.
    let registry = Arc::new(registry_with_faults(
        &w,
        RegistryConfig {
            max_retries: 3,
            ..Default::default()
        },
        &[(
            SourceKind::GoogleScholar,
            FaultSchedule::FailThenRecover { failures: 2 },
        )],
    ));
    let report = minaret_over(registry.clone())
        .recommend(&m)
        .expect("recovered source must not fail the run");
    assert!(!report.degraded, "recovery within retries is not degraded");
    assert!(
        report.source_errors.is_empty(),
        "{:?}",
        report.source_errors
    );
    assert!(!report.recommendations.is_empty());
    let stats = registry.stats();
    assert_eq!(stats.retries, 2, "exactly the two scripted failures retry");
    assert_eq!(stats.gave_up, 0);
}

#[test]
fn permanent_outage_trips_breaker_and_recommend_degrades() {
    let w = world(300);
    let m = manuscript(&w);
    let registry = Arc::new(registry_with_faults(
        &w,
        RegistryConfig {
            max_retries: 1,
            resilience: ResilienceConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown_micros: 60_000_000,
                    probe_successes: 1,
                },
                ..ResilienceConfig::disabled()
            },
            ..Default::default()
        },
        &[(SourceKind::Publons, FaultSchedule::PermanentOutage)],
    ));
    let report = minaret_over(registry.clone())
        .recommend(&m)
        .expect("five healthy sources still recommend");
    // Degraded-mode contract: ranked list present, flagged, dead source
    // named.
    assert!(!report.recommendations.is_empty());
    assert!(report.degraded);
    assert_eq!(report.degraded_sources, vec!["Publons".to_string()]);
    assert!(!report.source_errors.is_empty());
    // The breaker opened within the threshold and then short-circuited
    // the remaining fan-outs instead of hammering the dead source.
    assert_eq!(
        registry.breaker_state(SourceKind::Publons),
        Some(BreakerState::Open)
    );
    let stats = registry.stats();
    assert!(
        stats.short_circuited >= 1,
        "later fan-outs must be rejected fast: {stats:?}"
    );
}

#[test]
fn slow_source_exceeds_deadline_but_fanout_budget_holds() {
    let w = world(200);
    let clock = SimulatedClock::new();
    // DBLP answers instantly; Google Scholar takes 30ms against a 10ms
    // call deadline. The 100ms fan-out budget cuts its retries off.
    let mut registry = SourceRegistry::new(RegistryConfig {
        max_retries: 10,
        concurrent: false,
        resilience: ResilienceConfig {
            call_deadline_micros: 10_000,
            fanout_budget_micros: 100_000,
            backoff: BackoffConfig {
                base_micros: 1_000,
                max_micros: 8_000,
                jitter: 0.5,
                seed: 7,
            },
            ..ResilienceConfig::disabled()
        },
    })
    .with_clock(clock.clone());
    for kind in [SourceKind::Dblp, SourceKind::GoogleScholar] {
        let mut spec = SourceSpec::for_kind(kind);
        spec.latency_micros = 0;
        let mut source = SimulatedSource::new(spec, w.clone()).with_clock(clock.clone());
        if kind == SourceKind::GoogleScholar {
            source = source.with_fault(FaultSchedule::Slow {
                latency_micros: 30_000,
            });
        }
        registry.register(Arc::new(source) as Arc<dyn ScholarSource>);
    }
    let name = w.scholars()[0].full_name();
    let report = registry.search_by_name_report(&name);
    let outcome_of = |kind: SourceKind| {
        report
            .outcomes
            .iter()
            .find(|o| o.source == kind)
            .unwrap()
            .clone()
    };
    // The fast source is untouched by its sibling's slowness.
    assert_eq!(outcome_of(SourceKind::Dblp).status, SourceStatus::Ok);
    // The slow source times out per call, and the budget stops the retry
    // ladder long before max_retries would.
    let slow = outcome_of(SourceKind::GoogleScholar);
    match slow.status {
        SourceStatus::Failed(SourceError::DeadlineExceeded { .. })
        | SourceStatus::Failed(SourceError::BudgetExhausted { .. }) => {}
        other => panic!("expected a deadline/budget failure, got {other:?}"),
    }
    assert!(
        slow.attempts <= 4,
        "budget must cut retries short, used {} attempts",
        slow.attempts
    );
    let stats = registry.stats();
    assert!(stats.timed_out >= 1, "{stats:?}");
    // Whole fan-out bounded by budget + one in-flight call, not by
    // max_retries x latency (which would be 330ms here).
    assert!(
        clock.now_micros() <= 140_000,
        "fan-out ran {}us, budget did not hold",
        clock.now_micros()
    );
}

#[test]
fn rate_limit_bursts_are_absorbed_by_retries() {
    let w = world(200);
    let mut registry = SourceRegistry::new(RegistryConfig {
        max_retries: 2,
        concurrent: false,
        ..Default::default()
    });
    let mut spec = SourceSpec::for_kind(SourceKind::GoogleScholar);
    spec.latency_micros = 0;
    registry.register(Arc::new(SimulatedSource::new(spec, w.clone()).with_fault(
        FaultSchedule::RateLimitBursts {
            allowed: 2,
            limited: 1,
        },
    )) as Arc<dyn ScholarSource>);
    // Every third call is rate-limited; one retry always lands in the
    // next allowed window, so every query succeeds.
    for i in 0..10 {
        let errors = registry
            .search_by_name_report(&w.scholars()[i].full_name())
            .errors();
        assert!(errors.is_empty(), "query {i}: {errors:?}");
    }
    let stats = registry.stats();
    assert!(stats.retries >= 3, "scripted bursts must trigger retries");
    assert_eq!(stats.gave_up, 0);
}

/// A source whose worker thread panics mid-query.
#[derive(Debug)]
struct PanickingSource;

impl ScholarSource for PanickingSource {
    fn kind(&self) -> SourceKind {
        SourceKind::ResearcherId
    }
    fn supports_interest_search(&self) -> bool {
        false
    }
    fn search_by_name(&self, _name: &str) -> Result<Vec<Arc<SourceProfile>>, SourceError> {
        panic!("injected panic in source thread");
    }
    fn search_by_interests(&self, _labels: &[Arc<str>]) -> Result<LabeledHits, SourceError> {
        Err(SourceError::Unsupported {
            source: SourceKind::ResearcherId,
            operation: "interest search",
        })
    }
}

#[test]
fn panicking_source_becomes_a_per_source_error() {
    let w = world(200);
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    registry.register(Arc::new(SimulatedSource::new(
        SourceSpec::for_kind(SourceKind::Dblp),
        w.clone(),
    )) as Arc<dyn ScholarSource>);
    registry.register(Arc::new(PanickingSource) as Arc<dyn ScholarSource>);
    let name = w.scholars()[0].full_name();
    // The panic is contained: the healthy sibling's results still merge.
    let report = registry.search_by_name_report(&name);
    let dblp = report
        .outcomes
        .iter()
        .find(|o| o.source == SourceKind::Dblp)
        .unwrap();
    assert_eq!(dblp.status, SourceStatus::Ok);
    let dead = report
        .outcomes
        .iter()
        .find(|o| o.source == SourceKind::ResearcherId)
        .unwrap();
    match &dead.status {
        SourceStatus::Failed(SourceError::Internal { detail, .. }) => {
            assert!(detail.contains("injected panic"), "{detail}");
        }
        other => panic!("expected an internal error, got {other:?}"),
    }
}

#[test]
fn sequential_and_concurrent_fanout_agree_under_scripted_faults() {
    let w = world(200);
    let m = manuscript(&w);
    let make = |concurrent: bool| {
        let registry = registry_with_faults(
            &w,
            RegistryConfig {
                max_retries: 3,
                concurrent,
                ..Default::default()
            },
            &[(
                SourceKind::GoogleScholar,
                FaultSchedule::FailThenRecover { failures: 1 },
            )],
        );
        minaret_over(Arc::new(registry))
    };
    let a = make(true).recommend(&m).unwrap();
    let b = make(false).recommend(&m).unwrap();
    assert_eq!(a.candidates_retrieved, b.candidates_retrieved);
    assert_eq!(a.degraded, b.degraded);
}
