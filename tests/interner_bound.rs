//! The process-wide interner never evicts, so its vocabulary stays
//! bounded only while no string from a request reaches it. The per-request
//! structures of the filter and rank phases are built from exactly such
//! strings: typed keywords and their expanded labels, author names, the
//! conference-mode PC list and the target outlet. This pins that building
//! and using them interns none of them, and that a whole recommendation —
//! the name searches and the interest fan-out included — interns none of
//! them either.
//!
//! The suite is a single test on purpose: the interner is global, so a
//! second test running in parallel would move its length.

use std::collections::HashMap;
use std::sync::Arc;

use minaret::core::coi::{check_coi, AuthorRecord};
use minaret::core::filter::CandidateFilter;
use minaret::core::rank::CandidateScorer;
use minaret::core::{AffiliationMatchLevel, CoiConfig, EditorConfig, KeywordExpansionSet};
use minaret::prelude::*;
use minaret::scholarly::{
    intern, AffiliationRecord, MergedCandidate, SourceMetrics, SourcePublication, SourceReview,
};

const N: usize = 200;

fn candidate() -> MergedCandidate {
    MergedCandidate {
        display_name: "Reviewer Candidate".into(),
        affiliation: Some("University of Tartu".into()),
        country: Some("Estonia".into()),
        affiliation_history: vec![AffiliationRecord {
            institution: "University of Oslo".into(),
            country: "Norway".into(),
            from_year: 2005,
            to_year: 2010,
        }],
        interests: vec!["semantic web".into(), "big data".into()],
        publications: vec![Arc::new(SourcePublication {
            title: "Scalable SPARQL Processing".into(),
            year: 2016,
            venue_name: "Journal of Web Semantics".into(),
            coauthor_names: vec!["Ada Lovelace".into(), "Zhou, Lei".into()],
            keywords: vec!["RDF".into(), "Query Processing".into()],
            citations: Some(3),
        })],
        metrics: SourceMetrics {
            citations: Some(120),
            h_index: Some(6),
            i10_index: None,
        },
        reviews: vec![Arc::new(SourceReview {
            venue_name: "Journal of Web Semantics".into(),
            year: 2017,
            turnaround_days: 21,
            quality: Some(4),
        })],
        sources: vec![],
        keys: vec![],
        truths: vec![],
    }
}

fn expansions(tag: &str) -> Vec<KeywordExpansionSet> {
    (0..N)
        .map(|i| {
            let original = format!("unseen keyword {tag} {i}");
            let mut scores = HashMap::new();
            scores.insert(original.clone(), 1.0);
            scores.insert(format!("unseen expansion {tag} {i}"), 0.7);
            scores.insert("rdf".to_string(), 0.9);
            KeywordExpansionSet { original, scores }
        })
        .collect()
}

fn authors(tag: &str) -> Vec<AuthorRecord> {
    (0..N)
        .map(|i| {
            AuthorRecord::new(
                &format!("Unseen{i} Author{tag}"),
                &[format!("Unseen Institute {tag} {i}")],
                &[format!("Unseen Country {tag} {i}")],
                &[format!("Unseen Title {tag} {i}")],
                &[format!("Unseen{i} Coauthor{tag}")],
            )
        })
        .collect()
}

fn config(tag: &str) -> EditorConfig {
    EditorConfig {
        pc_members: Some((0..N).map(|i| format!("Unseen{i} Member{tag}")).collect()),
        coi: CoiConfig {
            affiliation_level: AffiliationMatchLevel::Country,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Scores the candidate and runs the PC and COI checks against
/// request-side inputs generated from `tag`.
fn serve(cand: &MergedCandidate, tag: &str) {
    let sets = expansions(tag);
    let authors = authors(tag);
    let config = config(tag);
    let venue = format!("Unseen Venue {tag}");
    let breakdown = CandidateScorer::new(&sets, &venue, &config).score(cand);
    assert!(breakdown.coverage > 0.0, "the shared label still matches");
    assert!(!CandidateFilter::new(&authors, &config)
        .decide(cand, 1.0)
        .kept());
    assert!(!check_coi(cand, &authors, &config.coi).conflicted());
}

/// One recommendation over the real sources: `N` unseen keywords beside
/// one world keyword (so candidates exist), unseen author names,
/// affiliations and countries, and an unseen outlet, all generated from
/// `tag`.
fn recommend(minaret: &Minaret, world_keyword: &str, tag: &str) {
    let mut keywords: Vec<String> = (0..N)
        .map(|i| format!("Unseen Keyword {tag} {i}"))
        .collect();
    keywords.push(world_keyword.to_string());
    let manuscript = ManuscriptDetails {
        title: format!("Unseen Title {tag}"),
        keywords,
        authors: (0..3)
            .map(|i| {
                AuthorInput::named(format!("Unseen{i} Author{tag}"))
                    .with_affiliation(format!("Unseen Institute {tag} {i}"))
                    .with_country(format!("Unseen Country {tag} {i}"))
            })
            .collect(),
        target_venue: format!("Unseen Venue {tag}"),
    };
    let report = minaret.recommend(&manuscript).expect("recommend succeeds");
    assert!(report.candidates_retrieved > 0, "the world keyword matches");
}

#[test]
fn request_strings_never_reach_the_global_interner() {
    let cand = candidate();
    // The candidate's own strings are world vocabulary; intern them first.
    serve(&cand, "warm-up");
    let before = intern::global().len();
    for round in 0..3 {
        serve(&cand, &format!("round-{round}"));
    }
    assert_eq!(
        intern::global().len(),
        before,
        "request keywords, author names or PC names were interned"
    );

    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(200)).generate());
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    let minaret = Minaret::new(
        Arc::new(registry),
        Arc::new(minaret::ontology::seed::curated_cs_ontology()),
        EditorConfig::default(),
    );
    let world_keyword = world.ontology.label(world.scholars()[0].interests[0]);
    // The retrieved candidates are world vocabulary too.
    recommend(&minaret, world_keyword, "warm-up");
    let before = intern::global().len();
    for round in 0..3 {
        recommend(&minaret, world_keyword, &format!("round-{round}"));
    }
    assert_eq!(
        intern::global().len(),
        before,
        "a recommendation interned request keywords or author names"
    );
}
