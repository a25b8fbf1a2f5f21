//! E9 — source ablation: how much does each of the six scholarly sources
//! contribute? The paper integrates all six; this measures what dropping
//! any one of them costs.

use std::sync::Arc;

use minaret_core::{EditorConfig, Minaret};
use minaret_ontology::seed::curated_cs_ontology;
use minaret_scholarly::{
    RegistryConfig, ScholarSource, SimulatedSource, SourceKind, SourceRegistry, SourceSpec,
};
use minaret_synth::{WorldConfig, WorldGenerator};

use crate::experiments::candidate_relevance;
use crate::metrics::{mean, ndcg_at_k};
use crate::table::{f3, TextTable};

/// Quality with one source removed.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceAblation {
    /// The source that was removed (`None` = full six-source baseline).
    pub removed: Option<SourceKind>,
    /// Mean candidates retrieved per manuscript.
    pub mean_candidates: f64,
    /// Mean nDCG@10 against ground truth.
    pub ndcg_at_10: f64,
}

/// Result of experiment E9.
#[derive(Debug)]
pub struct E9Result {
    /// Baseline + one row per removed source.
    pub rows: Vec<SourceAblation>,
    /// Rendered report.
    pub report: String,
}

/// Runs the leave-one-source-out sweep.
pub fn run_e9(scholars: usize, manuscripts: usize) -> E9Result {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(scholars)).generate());
    let ontology = Arc::new(curated_cs_ontology());
    let subs = minaret_synth::SubmissionGenerator::new(&world, 0xE9).generate_many(manuscripts);

    let mut rows = Vec::new();
    let mut configurations: Vec<Option<SourceKind>> = vec![None];
    configurations.extend(SourceKind::ALL.iter().copied().map(Some));
    for removed in configurations {
        let mut registry = SourceRegistry::new(RegistryConfig::default());
        for spec in SourceSpec::all_defaults() {
            if Some(spec.kind) == removed {
                continue;
            }
            registry.register(
                Arc::new(SimulatedSource::new(spec, world.clone())) as Arc<dyn ScholarSource>
            );
        }
        let minaret = Minaret::new(
            Arc::new(registry),
            ontology.clone(),
            EditorConfig::default(),
        );
        let mut candidates = Vec::new();
        let mut ndcgs = Vec::new();
        for sub in &subs {
            let m = minaret_core::ManuscriptDetails {
                title: sub.title.clone(),
                keywords: sub.keywords.clone(),
                authors: sub
                    .authors
                    .iter()
                    .map(|&id| {
                        let s = world.scholar(id);
                        let inst = world.institution(s.current_affiliation());
                        minaret_core::AuthorInput {
                            name: s.full_name(),
                            affiliation: Some(inst.name.clone()),
                            country: Some(inst.country.clone()),
                        }
                    })
                    .collect(),
                target_venue: world.venue(sub.target_venue).name.clone(),
            };
            let Ok(report) = minaret.recommend(&m) else {
                candidates.push(0.0);
                ndcgs.push(0.0);
                continue;
            };
            candidates.push(report.candidates_retrieved as f64);
            let rels: Vec<f64> = report
                .recommendations
                .iter()
                .map(|r| {
                    let truths: Vec<_> = r.candidate.truths().collect();
                    candidate_relevance(&world, sub, &truths)
                })
                .collect();
            let pool: Vec<f64> = world
                .scholars()
                .iter()
                .map(|s| minaret_synth::ground_truth_relevance(&world, sub, s.id))
                .collect();
            ndcgs.push(ndcg_at_k(&rels, &pool, 10));
        }
        rows.push(SourceAblation {
            removed,
            mean_candidates: mean(&candidates),
            ndcg_at_10: mean(&ndcgs),
        });
    }

    let mut table = TextTable::new(&["configuration", "candidates", "nDCG@10", "Δ nDCG"]);
    let baseline = rows[0].ndcg_at_10;
    for r in &rows {
        table.row(&[
            match r.removed {
                None => "all six sources".to_string(),
                Some(k) => format!("without {k}"),
            },
            format!("{:.1}", r.mean_candidates),
            f3(r.ndcg_at_10),
            format!("{:+.3}", r.ndcg_at_10 - baseline),
        ]);
    }
    let report = format!(
        "E9  leave-one-source-out ablation ({scholars} scholars, {manuscripts} manuscripts)\n{}",
        table.render()
    );
    E9Result { rows, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_runs_all_seven_configurations() {
        let r = run_e9(200, 4);
        assert_eq!(r.rows.len(), 7);
        assert!(r.rows[0].removed.is_none());
        // The baseline with all six sources retrieves at least as many
        // candidates as any ablated configuration.
        let base = r.rows[0].mean_candidates;
        for row in &r.rows[1..] {
            assert!(
                row.mean_candidates <= base + 1e-9,
                "removing {:?} increased candidates: {} > {}",
                row.removed,
                row.mean_candidates,
                base
            );
        }
        for row in &r.rows {
            assert!((0.0..=1.0 + 1e-9).contains(&row.ndcg_at_10));
        }
    }
}
