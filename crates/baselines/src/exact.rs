//! The expansion-off arm: literal keyword matching only.

use std::collections::HashMap;
use std::sync::Arc;

use minaret_core::ManuscriptDetails;
use minaret_ontology::normalize_label;
use minaret_scholarly::{merge_profiles, MergedCandidate, SourceKind, SourceRegistry};

use crate::{RankedCandidate, Recommender};

/// Retrieves reviewers by searching the sources for the manuscript's
/// keywords *verbatim* — no ontology, no expansion — and ranks them by
/// the fraction of keywords they registered. This is what MINARET would
/// be without §2.1's semantic expansion, and the "off" arm of the
/// expansion ablation (E4).
#[derive(Debug)]
pub struct ExactKeywordRecommender {
    registry: Arc<SourceRegistry>,
}

impl ExactKeywordRecommender {
    /// Creates the baseline over the given sources.
    pub fn new(registry: Arc<SourceRegistry>) -> Self {
        Self { registry }
    }
}

impl Recommender for ExactKeywordRecommender {
    fn name(&self) -> &str {
        "exact-keyword"
    }

    fn recommend(&self, manuscript: &ManuscriptDetails, k: usize) -> Vec<RankedCandidate> {
        let keywords: Vec<String> = manuscript
            .keywords
            .iter()
            .map(|kw| normalize_label(kw))
            .filter(|kw| !kw.is_empty())
            .collect();
        if keywords.is_empty() {
            return Vec::new();
        }
        let mut profiles = Vec::new();
        let mut matched: HashMap<(SourceKind, String), usize> = HashMap::new();
        // One batched fan-out; a hit counts once per keyword position.
        for (_, found) in self.registry.search_by_interests_report(&keywords).by_label {
            for p in found {
                *matched.entry((p.source, p.key.clone())).or_insert(0) += 1;
                profiles.push(p);
            }
        }
        profiles.sort_by(|a, b| (a.source, &a.key).cmp(&(b.source, &b.key)));
        profiles.dedup_by(|a, b| a.source == b.source && a.key == b.key);
        let merged = merge_profiles(profiles);
        let author_names: Vec<String> = manuscript
            .authors
            .iter()
            .map(|a| normalize_label(&a.name))
            .collect();
        let mut out: Vec<RankedCandidate> = merged
            .into_iter()
            .filter(|m| !author_names.contains(&normalize_label(m.display_name())))
            .map(|m| {
                let hits = keyword_hits(&m, &matched);
                RankedCandidate {
                    name: m.display_name().to_string(),
                    score: hits as f64 / keywords.len() as f64,
                    truths: m.truths().collect(),
                }
            })
            .collect();
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        out.truncate(k);
        out
    }
}

/// The most keyword positions any one of `m`'s profiles matched, each
/// profile looked up under its own source and key.
fn keyword_hits(m: &MergedCandidate, matched: &HashMap<(SourceKind, String), usize>) -> usize {
    m.profiles()
        .iter()
        .filter_map(|p| matched.get(&(p.source, p.key.clone())))
        .copied()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_core::AuthorInput;
    use minaret_scholarly::{
        PersonName, RegistryConfig, SimulatedSource, SourceProfile, SourceSpec,
    };
    use minaret_synth::{ScholarId, World, WorldConfig, WorldGenerator};

    fn setup() -> (Arc<World>, ExactKeywordRecommender) {
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
        (world.clone(), ExactKeywordRecommender::new(Arc::new(reg)))
    }

    fn manuscript(world: &World) -> ManuscriptDetails {
        let lead = world
            .scholars()
            .iter()
            .find(|s| s.interests.len() >= 2)
            .unwrap();
        ManuscriptDetails {
            title: "T".into(),
            keywords: lead
                .interests
                .iter()
                .take(2)
                .map(|&t| world.ontology.label(t).to_string())
                .collect(),
            authors: vec![AuthorInput::named(lead.full_name())],
            target_venue: "J".into(),
        }
    }

    #[test]
    fn returns_scored_sorted_candidates() {
        let (world, rec) = setup();
        let m = manuscript(&world);
        let out = rec.recommend(&m, 10);
        assert!(!out.is_empty());
        assert!(out.len() <= 10);
        for w in out.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for c in &out {
            assert!(c.score > 0.0 && c.score <= 1.0);
        }
    }

    #[test]
    fn excludes_authors_by_name() {
        let (world, rec) = setup();
        let m = manuscript(&world);
        for c in rec.recommend(&m, 50) {
            assert_ne!(
                normalize_label(&c.name),
                normalize_label(&m.authors[0].name)
            );
        }
    }

    #[test]
    fn a_repeated_keyword_counts_at_each_position() {
        let (world, rec) = setup();
        let mut m = manuscript(&world);
        m.keywords.truncate(1);
        m.keywords.push(m.keywords[0].to_uppercase());
        let out = rec.recommend(&m, 50);
        assert!(!out.is_empty());
        for c in &out {
            assert_eq!(c.score, 1.0, "{} matched one of two positions", c.name);
        }
    }

    /// A candidate that merges two profiles of one source lists that
    /// source once but both keys: each profile's hits are found under
    /// its own (source, key) pair.
    #[test]
    fn hits_are_looked_up_per_profile() {
        let profile = |source, key: &str| {
            Arc::new(SourceProfile::new(
                source,
                key.into(),
                Arc::new(PersonName::new("Ada Lovelace")),
                None,
                None,
                vec![],
                ScholarId(0),
            ))
        };
        let m = MergedCandidate::from_profiles(vec![
            profile(SourceKind::GoogleScholar, "gs:a"),
            profile(SourceKind::GoogleScholar, "gs:b"),
            profile(SourceKind::Dblp, "dblp:c"),
        ]);
        assert_eq!(m.sources().count(), 2);
        let matched = HashMap::from([((SourceKind::GoogleScholar, "gs:b".to_string()), 2)]);
        assert_eq!(keyword_hits(&m, &matched), 2);
        let matched = HashMap::from([((SourceKind::Dblp, "dblp:c".to_string()), 1)]);
        assert_eq!(keyword_hits(&m, &matched), 1);
    }

    #[test]
    fn empty_keywords_yield_nothing() {
        let (_, rec) = setup();
        let m = ManuscriptDetails {
            title: "T".into(),
            keywords: vec!["  ".into()],
            authors: vec![AuthorInput::named("A B")],
            target_venue: "J".into(),
        };
        assert!(rec.recommend(&m, 10).is_empty());
    }
}
