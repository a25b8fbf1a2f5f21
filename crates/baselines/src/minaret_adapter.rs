//! Adapts the full MINARET framework to the [`Recommender`] trait.

use minaret_core::{ManuscriptDetails, Minaret};

use crate::{RankedCandidate, Recommender};

/// The framework under evaluation, behind the common trait.
pub struct MinaretRecommender {
    inner: Minaret,
}

impl MinaretRecommender {
    /// Wraps a configured framework instance.
    pub fn new(inner: Minaret) -> Self {
        Self { inner }
    }
}

impl Recommender for MinaretRecommender {
    fn name(&self) -> &str {
        "minaret"
    }

    fn recommend(&self, manuscript: &ManuscriptDetails, k: usize) -> Vec<RankedCandidate> {
        match self.inner.recommend(manuscript) {
            Ok(report) => report
                .recommendations
                .into_iter()
                .take(k)
                .map(|r| RankedCandidate {
                    name: r.name,
                    score: r.total,
                    truths: r.candidate.truths().collect(),
                })
                .collect(),
            Err(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_core::{AuthorInput, EditorConfig};
    use minaret_scholarly::{RegistryConfig, SimulatedSource, SourceRegistry, SourceSpec};
    use minaret_synth::{WorldConfig, WorldGenerator};
    use std::sync::Arc;

    #[test]
    fn adapter_round_trips_the_pipeline() {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 200,
                ..Default::default()
            })
            .generate(),
        );
        let mut reg = SourceRegistry::new(RegistryConfig::default());
        for spec in SourceSpec::all_defaults() {
            reg.register(Arc::new(SimulatedSource::new(spec, world.clone())));
        }
        let minaret = Minaret::new(
            Arc::new(reg),
            Arc::new(minaret_ontology::seed::curated_cs_ontology()),
            EditorConfig::default(),
        );
        let rec = MinaretRecommender::new(minaret);
        assert_eq!(rec.name(), "minaret");
        let lead = world
            .scholars()
            .iter()
            .find(|s| s.interests.len() >= 2)
            .unwrap();
        let m = ManuscriptDetails {
            title: "T".into(),
            keywords: lead
                .interests
                .iter()
                .take(2)
                .map(|&t| world.ontology.label(t).to_string())
                .collect(),
            authors: vec![AuthorInput::named(lead.full_name())],
            target_venue: world.venues()[0].name.clone(),
        };
        let out = rec.recommend(&m, 5);
        assert!(!out.is_empty() && out.len() <= 5);
        for w in out.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // Errors become empty lists, not panics.
        let bad = ManuscriptDetails {
            title: "".into(),
            keywords: vec![],
            authors: vec![],
            target_venue: "".into(),
        };
        assert!(rec.recommend(&bad, 5).is_empty());
    }
}
