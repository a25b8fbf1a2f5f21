//! Every concrete claim and worked example in the paper, verified
//! against this implementation.

use std::sync::Arc;

use minaret::ontology::seed::curated_cs_ontology;
use minaret::ontology::KeywordExpander;
use minaret::prelude::*;
use minaret::synth::growth::{GrowthModel, RecordKind};

/// §2.1: "if one of the manuscript's keywords is 'RDF', the expansion
/// module would return 'Semantic Web', 'Linked Open Data', and 'SPARQL'
/// as semantically related keywords among its results", each with a
/// similarity score sc ∈ [0, 1].
#[test]
fn s2_1_rdf_expansion_example() {
    let ontology = curated_cs_ontology();
    let expander = KeywordExpander::with_defaults(&ontology);
    let expansion = expander.expand("RDF").unwrap();
    let labels: Vec<&str> = expansion.iter().map(|e| e.label.as_str()).collect();
    for expected in ["Semantic Web", "Linked Open Data", "SPARQL"] {
        assert!(labels.contains(&expected), "missing {expected}");
    }
    for e in &expansion {
        assert!((0.0..=1.0).contains(&e.score), "score out of [0,1]: {e:?}");
    }
}

/// §2.3: reviewer with interests {Semantic Web, Big Data} outranks one
/// with {Semantic Web, Ontologies, RDF} for a paper with keywords
/// {Semantic Web, Big Data} — "because the second reviewer covers more
/// topics/keywords of the paper".
#[test]
fn s2_3_topic_coverage_example() {
    let result = minaret::eval::experiments::run_e2();
    assert!(result.example_holds);
    assert!(result.coverage_b > result.coverage_a);
}

/// §1: "the global scientific output doubles every nine years" and the
/// DBLP figures ("over 3.8M publications", "about 120K [journal]
/// articles" in 2018) — the calibrated growth model reproduces them.
#[test]
fn s1_dblp_growth_calibration() {
    let model = GrowthModel::default();
    assert!((model.records_in_year(2018) / model.records_in_year(2009) - 2.0).abs() < 1e-9);
    let journal_2018 = model.records_of_kind(2018, RecordKind::JournalArticle);
    assert!((journal_2018 - 120_000.0).abs() < 1.0);
    assert!(model.cumulative_through(2018) > 3_800_000.0 * 0.8);
}

/// §2.2: "COI is determined … based on the existence of a previous
/// co-authorship … or the existence of any shared affiliations on the
/// level of the university or country, as configured by the editor."
#[test]
fn s2_2_coi_configurability() {
    use minaret::core::coi::{check_coi, AuthorRecord};
    use minaret::scholarly::{MergedCandidate, SourceMetrics};
    let candidate = MergedCandidate {
        display_name: "Reviewer X".into(),
        affiliation: Some("University of Tartu".into()),
        country: Some("Estonia".into()),
        affiliation_history: vec![],
        interests: vec![],
        publications: vec![],
        metrics: SourceMetrics::default(),
        reviews: vec![],
        sources: vec![],
        keys: vec![],
        truths: vec![],
    };
    let author = AuthorRecord::from_parts(
        "Author Y",
        Some("Tallinn University of Technology"),
        Some("Estonia"),
        None,
    );
    // University level: different universities, same country -> clean.
    let uni = CoiConfig {
        affiliation_level: AffiliationMatchLevel::University,
        ..Default::default()
    };
    assert!(!check_coi(&candidate, std::slice::from_ref(&author), &uni).conflicted());
    // Country level: conflicted.
    let country = CoiConfig {
        affiliation_level: AffiliationMatchLevel::Country,
        ..Default::default()
    };
    assert!(check_coi(&candidate, std::slice::from_ref(&author), &country).conflicted());
}

/// §2.3 / abstract: "MINARET allows the user to configure the weights of
/// the different components" — changing the weights actually changes the
/// ranking.
#[test]
fn s2_3_weights_are_configurable_and_effective() {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(400)).generate());
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    let registry = Arc::new(registry);
    let ontology = Arc::new(curated_cs_ontology());
    let lead = world
        .scholars()
        .iter()
        .find(|s| s.interests.len() >= 2 && !world.papers_of(s.id).is_empty())
        .unwrap();
    let m = ManuscriptDetails {
        title: "T".into(),
        keywords: lead
            .interests
            .iter()
            .take(3)
            .map(|&t| world.ontology.label(t).to_string())
            .collect(),
        authors: vec![AuthorInput::named(lead.full_name())],
        target_venue: world.venues()[0].name.clone(),
    };
    let run = |weights: RankingWeights| {
        Minaret::new(
            registry.clone(),
            ontology.clone(),
            EditorConfig {
                weights,
                max_recommendations: 50,
                ..Default::default()
            },
        )
        .recommend(&m)
        .unwrap()
        .recommendations
        .iter()
        .map(|r| r.name.clone())
        .collect::<Vec<_>>()
    };
    let coverage_only = run(RankingWeights {
        coverage: 1.0,
        impact: 0.0,
        recency: 0.0,
        experience: 0.0,
        familiarity: 0.0,
        responsiveness: 0.0,
    });
    let impact_only = run(RankingWeights {
        coverage: 0.0,
        impact: 1.0,
        recency: 0.0,
        experience: 0.0,
        familiarity: 0.0,
        responsiveness: 0.0,
    });
    assert_ne!(
        coverage_only, impact_only,
        "weight configuration had no effect on the ranking"
    );
}

/// §3: conference-mode integration — "only candidate reviewers who
/// belong to the programme committee are retained".
#[test]
fn s3_conference_mode_pc_restriction() {
    let result = minaret::eval::experiments::run_e8(300);
    assert!(result.pc_respected);
    assert!(result.rejected_not_on_pc > 0);
    assert!(result.conference_recommendations <= result.journal_recommendations);
}

/// §2.1: MINARET "is currently implemented to extract the information
/// from six main sources" — and stays extensible (the trait object
/// registry accepts any further source).
#[test]
fn s2_1_six_sources_and_extensibility() {
    use minaret::scholarly::{LabeledHits, ScholarSource, SourceError, SourceProfile};
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(100)).generate());
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    assert_eq!(registry.len(), 6);

    /// A seventh, user-supplied source: always empty, but demonstrates
    /// the extension seam.
    #[derive(Debug)]
    struct EmptySource;
    impl ScholarSource for EmptySource {
        fn kind(&self) -> SourceKind {
            SourceKind::ResearcherId
        }
        fn supports_interest_search(&self) -> bool {
            true
        }
        fn search_by_name(
            &self,
            _: &str,
        ) -> Result<Vec<std::sync::Arc<SourceProfile>>, SourceError> {
            Ok(vec![])
        }
        fn search_by_interests(&self, labels: &[Arc<str>]) -> Result<LabeledHits, SourceError> {
            Ok(labels.iter().map(|l| (l.clone(), vec![])).collect())
        }
    }
    registry.register(Arc::new(EmptySource));
    assert_eq!(registry.len(), 7);
    let report = registry.search_by_interests_report(&["databases".to_string()]);
    assert!(report.errors().is_empty());
}
