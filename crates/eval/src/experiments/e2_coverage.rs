//! E2 — the §2.3 topic-coverage example: with keywords
//! {Semantic Web, Big Data}, a reviewer covering both must outrank one
//! covering only Semantic Web (plus related topics).

use std::collections::HashMap;
use std::sync::Arc;

use minaret_core::{rank, EditorConfig, KeywordExpansionSet};
use minaret_ontology::normalize_label;
use minaret_scholarly::{Label, MergedCandidate, PersonName, SourceKind, SourceProfile};
use minaret_synth::ScholarId;

use crate::table::{f3, TextTable};

/// Result of experiment E2.
#[derive(Debug)]
pub struct E2Result {
    /// Coverage score of reviewer A ({Semantic Web, Ontologies, RDF}).
    pub coverage_a: f64,
    /// Coverage score of reviewer B ({Semantic Web, Big Data}).
    pub coverage_b: f64,
    /// True when B outranks A, as the paper requires.
    pub example_holds: bool,
    /// Rendered report.
    pub report: String,
}

fn reviewer(interests: &[&str]) -> MergedCandidate {
    let profile = SourceProfile::new(
        SourceKind::GoogleScholar,
        "gs:reviewer".into(),
        Arc::new(PersonName::new("reviewer")),
        None,
        None,
        interests.iter().map(|i| Arc::new(Label::new(i))).collect(),
        ScholarId(0),
    );
    MergedCandidate::from_profiles(vec![std::sync::Arc::new(profile)])
}

/// Replays the paper's worked example through the real coverage code.
pub fn run_e2() -> E2Result {
    let ontology = minaret_ontology::seed::curated_cs_ontology();
    let expander = minaret_ontology::KeywordExpander::with_defaults(&ontology);
    let expansions: Vec<KeywordExpansionSet> = ["Semantic Web", "Big Data"]
        .iter()
        .map(|kw| {
            let mut scores = HashMap::new();
            for e in expander.expand(kw).expect("curated topics") {
                scores.insert(normalize_label(&e.label), e.score);
            }
            scores.insert(normalize_label(kw), 1.0);
            KeywordExpansionSet {
                original: kw.to_string(),
                scores,
            }
        })
        .collect();
    let a = reviewer(&["Semantic Web", "Ontologies", "RDF"]);
    let b = reviewer(&["Semantic Web", "Big Data"]);
    let config = EditorConfig::default();
    let scorer = rank::CandidateScorer::new(&expansions, "", &config);
    let coverage_a = scorer.score(&a).coverage;
    let coverage_b = scorer.score(&b).coverage;
    let example_holds = coverage_b > coverage_a;
    let mut table = TextTable::new(&["reviewer", "interests", "coverage"]);
    table.row(&[
        "A".into(),
        "Semantic Web, Ontologies, RDF".into(),
        f3(coverage_a),
    ]);
    table.row(&["B".into(), "Semantic Web, Big Data".into(), f3(coverage_b)]);
    let report = format!(
        "E2  topic-coverage example from §2.3 — paper keywords {{Semantic Web, Big Data}}\n{}\
         B outranks A: {example_holds} (paper requires true)\n",
        table.render()
    );
    E2Result {
        coverage_a,
        coverage_b,
        example_holds,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_paper_example_holds() {
        let r = run_e2();
        assert!(r.example_holds, "report:\n{}", r.report);
        assert!(r.coverage_b > r.coverage_a);
        // B covers both keywords exactly.
        assert!((r.coverage_b - 1.0).abs() < 1e-9);
        // A still gets partial credit for Big Data via expansion — but
        // strictly less than full coverage.
        assert!(r.coverage_a < 1.0);
        assert!(r.coverage_a >= 0.5);
    }
}
