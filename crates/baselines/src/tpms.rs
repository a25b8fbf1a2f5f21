//! A TPMS-style content matcher.
//!
//! The Toronto Paper Matching System scores reviewer–paper affinity by
//! text similarity between the submission and the reviewer's publication
//! record. This baseline reproduces that shape: one TF-IDF document per
//! pooled reviewer (interests + publication titles + publication
//! keywords, with interests boosted), cosine-matched against the
//! manuscript's title + keywords.

use minaret_core::ManuscriptDetails;
use minaret_index::{IndexBuilder, InvertedIndex};
use minaret_ontology::normalize_label;
use minaret_scholarly::MergedCandidate;
use minaret_synth::ScholarId;

use crate::{RankedCandidate, Recommender};

/// The TPMS-style matcher over a pre-crawled reviewer pool.
#[derive(Debug)]
pub struct TpmsRecommender {
    index: InvertedIndex,
    names: Vec<String>,
    truths: Vec<Vec<ScholarId>>,
}

impl TpmsRecommender {
    /// Builds the matcher's index from a reviewer pool (see
    /// [`crate::crawl_pool`]).
    pub fn new(pool: &[MergedCandidate]) -> Self {
        let mut builder = IndexBuilder::new();
        let mut names = Vec::with_capacity(pool.len());
        let mut truths = Vec::with_capacity(pool.len());
        for cand in pool {
            let interests = cand
                .interests()
                .map(|i| i.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            let mut pub_text = String::new();
            for p in cand.publications() {
                pub_text.push_str(p.title());
                pub_text.push(' ');
                for k in p.keywords() {
                    pub_text.push_str(k.text());
                    pub_text.push(' ');
                }
            }
            builder.add_weighted_document(&[(interests.as_str(), 3), (pub_text.as_str(), 1)]);
            names.push(cand.display_name().to_string());
            truths.push(cand.truths().collect());
        }
        Self {
            index: builder.build(),
            names,
            truths,
        }
    }

    /// Size of the reviewer pool.
    pub fn pool_size(&self) -> usize {
        self.names.len()
    }
}

impl Recommender for TpmsRecommender {
    fn name(&self) -> &str {
        "tpms-style"
    }

    fn recommend(&self, manuscript: &ManuscriptDetails, k: usize) -> Vec<RankedCandidate> {
        let query = format!("{} {}", manuscript.title, manuscript.keywords.join(" "));
        let author_names: Vec<String> = manuscript
            .authors
            .iter()
            .map(|a| normalize_label(&a.name))
            .collect();
        // Over-fetch so author exclusion doesn't shrink the result below k.
        let hits = self.index.search(&query, k + manuscript.authors.len() + 4);
        hits.into_iter()
            .filter(|h| !author_names.contains(&normalize_label(&self.names[h.doc])))
            .take(k)
            .map(|h| RankedCandidate {
                name: self.names[h.doc].clone(),
                score: h.score as f64,
                truths: self.truths[h.doc].clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::crawl_pool;
    use minaret_core::AuthorInput;
    use minaret_scholarly::{RegistryConfig, SimulatedSource, SourceRegistry, SourceSpec};
    use minaret_synth::{World, WorldConfig, WorldGenerator};
    use std::sync::Arc;

    fn setup() -> (Arc<World>, TpmsRecommender) {
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
        let pool = crawl_pool(&reg, &world.ontology);
        (world, TpmsRecommender::new(&pool))
    }

    #[test]
    fn pool_is_indexed_and_searchable() {
        let (world, tpms) = setup();
        assert!(tpms.pool_size() > 50);
        let lead = world
            .scholars()
            .iter()
            .find(|s| s.interests.len() >= 2)
            .unwrap();
        let m = ManuscriptDetails {
            title: "A study".into(),
            keywords: lead
                .interests
                .iter()
                .take(3)
                .map(|&t| world.ontology.label(t).to_string())
                .collect(),
            authors: vec![AuthorInput::named("Nobody Inparticular")],
            target_venue: "J".into(),
        };
        let out = tpms.recommend(&m, 10);
        assert!(!out.is_empty());
        assert!(out.len() <= 10);
        for w in out.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn topically_relevant_candidates_rank_high() {
        let (world, tpms) = setup();
        let lead = world
            .scholars()
            .iter()
            .find(|s| s.interests.len() >= 2)
            .unwrap();
        let kw: Vec<String> = lead
            .interests
            .iter()
            .take(2)
            .map(|&t| world.ontology.label(t).to_string())
            .collect();
        let m = ManuscriptDetails {
            title: kw.join(" "),
            keywords: kw.clone(),
            authors: vec![AuthorInput::named("Nobody Inparticular")],
            target_venue: "J".into(),
        };
        let out = tpms.recommend(&m, 5);
        // The top hit's profile should actually mention the keywords.
        assert!(!out.is_empty());
        assert!(out[0].score > 0.1, "top score {}", out[0].score);
    }

    #[test]
    fn authors_are_excluded() {
        let (world, tpms) = setup();
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
                .map(|&t| world.ontology.label(t).to_string())
                .collect(),
            authors: vec![AuthorInput::named(lead.full_name())],
            target_venue: "J".into(),
        };
        for c in tpms.recommend(&m, 20) {
            assert_ne!(normalize_label(&c.name), normalize_label(&lead.full_name()));
        }
    }
}
