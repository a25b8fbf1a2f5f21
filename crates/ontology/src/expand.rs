//! Semantic keyword expansion (§2.1 of the paper).
//!
//! Given a manuscript keyword, the expander resolves it to an ontology
//! topic and walks outward over super-topic, sub-topic and
//! `related_equivalent` edges, assigning each reached topic a similarity
//! score `sc ∈ [0, 1]` relative to the original keyword. Candidates below
//! a configurable floor are discarded; results are returned best-first.

use std::collections::{BinaryHeap, HashMap};

use crate::error::OntologyError;
use crate::graph::Ontology;
use crate::topic::TopicId;

/// One expanded keyword: a topic plus its similarity to the original.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandedKeyword {
    /// The reached topic.
    pub topic: TopicId,
    /// Canonical label of the reached topic.
    pub label: String,
    /// Similarity score in `[0, 1]` relative to the original keyword.
    /// The original keyword itself is included with score `1.0`.
    pub score: f64,
    /// Number of ontology edges traversed from the original keyword.
    pub hops: u32,
}

/// Configuration for [`KeywordExpander`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpansionConfig {
    /// Maximum number of edges to traverse from the seed topic.
    pub max_hops: u32,
    /// Minimum similarity score for an expanded keyword to be kept.
    pub min_score: f64,
    /// Maximum number of expanded keywords returned per input keyword
    /// (the seed itself does not count against the limit).
    pub max_results: usize,
    /// Whether to traverse downward into sub-topics.
    pub include_descendants: bool,
    /// Whether to traverse upward into super-topics.
    pub include_ancestors: bool,
}

impl Default for ExpansionConfig {
    fn default() -> Self {
        Self {
            max_hops: 2,
            min_score: 0.5,
            max_results: 25,
            include_descendants: true,
            include_ancestors: true,
        }
    }
}

/// Expands free-text keywords into scored sets of related topics.
#[derive(Debug, Clone)]
pub struct KeywordExpander<'a> {
    ontology: &'a Ontology,
    config: ExpansionConfig,
}

/// Max-heap entry ordered by score (then by topic id for determinism).
#[derive(PartialEq)]
struct Frontier {
    score: f64,
    hops: u32,
    topic: TopicId,
}

impl Eq for Frontier {}
impl Ord for Frontier {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.topic.cmp(&self.topic))
    }
}
impl PartialOrd for Frontier {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a> KeywordExpander<'a> {
    /// Creates an expander over `ontology` with the given configuration.
    pub fn new(ontology: &'a Ontology, config: ExpansionConfig) -> Self {
        Self { ontology, config }
    }

    /// Creates an expander with [`ExpansionConfig::default`].
    pub fn with_defaults(ontology: &'a Ontology) -> Self {
        Self::new(ontology, ExpansionConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &ExpansionConfig {
        &self.config
    }

    /// Expands a single keyword.
    ///
    /// The result always starts with the seed topic itself at score `1.0`,
    /// followed by expanded topics sorted by descending score (ties broken
    /// by label). Fails with [`OntologyError::UnknownKeyword`] when the
    /// keyword resolves to no topic.
    pub fn expand(&self, keyword: &str) -> Result<Vec<ExpandedKeyword>, OntologyError> {
        let seed = self
            .ontology
            .resolve(keyword)
            .ok_or_else(|| OntologyError::UnknownKeyword(keyword.to_string()))?;
        Ok(self.expand_topic(seed))
    }

    /// Expands a keyword that is already resolved to a topic.
    pub fn expand_topic(&self, seed: TopicId) -> Vec<ExpandedKeyword> {
        // Best-first traversal: visit highest-similarity frontier entries
        // first so each topic is finalized at its best achievable score.
        let mut best: HashMap<TopicId, (f64, u32)> = HashMap::new();
        let mut heap = BinaryHeap::new();
        heap.push(Frontier {
            score: 1.0,
            hops: 0,
            topic: seed,
        });
        best.insert(seed, (1.0, 0));
        let mut settled: Vec<(TopicId, f64, u32)> = Vec::new();
        while let Some(Frontier { score, hops, topic }) = heap.pop() {
            match best.get(&topic) {
                Some(&(s, h)) if s > score || (s == score && h < hops) => continue,
                _ => {}
            }
            settled.push((topic, score, hops));
            if hops >= self.config.max_hops {
                continue;
            }
            for next in self.neighbours(topic) {
                // Score each reached topic directly against the *seed*, so
                // `sc` is always "similarity to the original keyword", not
                // a product of per-hop decays.
                let s = self.ontology.similarity(seed, next);
                if s < self.config.min_score {
                    continue;
                }
                let candidate = (s, hops + 1);
                let improved = match best.get(&next) {
                    None => true,
                    Some(&(bs, bh)) => s > bs || (s == bs && hops + 1 < bh),
                };
                if improved {
                    best.insert(next, candidate);
                    heap.push(Frontier {
                        score: s,
                        hops: hops + 1,
                        topic: next,
                    });
                }
            }
        }
        // Deduplicate (a topic may settle more than once if re-pushed at
        // equal score) keeping the first (= best) occurrence.
        let mut seen: HashMap<TopicId, ()> = HashMap::new();
        let mut out: Vec<ExpandedKeyword> = Vec::new();
        for (topic, score, hops) in settled {
            if seen.insert(topic, ()).is_some() {
                continue;
            }
            out.push(ExpandedKeyword {
                topic,
                label: self.ontology.label(topic).to_string(),
                score,
                hops,
            });
        }
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.label.cmp(&b.label))
        });
        out.truncate(self.config.max_results.saturating_add(1));
        out
    }

    fn neighbours(&self, t: TopicId) -> Vec<TopicId> {
        let mut out: Vec<TopicId> = self.ontology.related(t).to_vec();
        if self.config.include_ancestors {
            out.extend_from_slice(self.ontology.parents(t));
        }
        if self.config.include_descendants {
            out.extend_from_slice(self.ontology.children(t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OntologyBuilder;
    use crate::seed::curated_cs_ontology;

    fn fixture() -> Ontology {
        let mut b = OntologyBuilder::new();
        let cs = b.add_topic("cs", &[]).unwrap();
        let db = b.add_topic("db", &[]).unwrap();
        let rdf = b.add_topic("rdf", &[]).unwrap();
        let sparql = b.add_topic("sparql", &[]).unwrap();
        let ml = b.add_topic("ml", &[]).unwrap();
        b.add_super_topic(cs, db).unwrap();
        b.add_super_topic(db, rdf).unwrap();
        b.add_super_topic(db, sparql).unwrap();
        b.add_super_topic(cs, ml).unwrap();
        b.add_related(rdf, sparql).unwrap();
        b.build()
    }

    #[test]
    fn seed_comes_first_at_score_one() {
        let o = fixture();
        let ex = KeywordExpander::with_defaults(&o).expand("rdf").unwrap();
        assert_eq!(ex[0].label, "rdf");
        assert_eq!(ex[0].score, 1.0);
        assert_eq!(ex[0].hops, 0);
    }

    #[test]
    fn scores_sorted_descending_and_bounded() {
        let o = fixture();
        let ex = KeywordExpander::with_defaults(&o).expand("rdf").unwrap();
        for w in ex.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        for e in &ex {
            assert!((0.0..=1.0).contains(&e.score));
        }
    }

    #[test]
    fn min_score_filters() {
        let o = fixture();
        let cfg = ExpansionConfig {
            min_score: 0.95,
            ..Default::default()
        };
        let ex = KeywordExpander::new(&o, cfg).expand("rdf").unwrap();
        // Only the seed and its related_equivalent partner could pass if
        // >= .95; related scores 0.9 so only the seed remains.
        assert_eq!(ex.len(), 1);
    }

    #[test]
    fn unknown_keyword_errors() {
        let o = fixture();
        assert!(matches!(
            KeywordExpander::with_defaults(&o).expand("quantum basket weaving"),
            Err(OntologyError::UnknownKeyword(_))
        ));
    }

    #[test]
    fn max_hops_zero_returns_only_seed() {
        let o = fixture();
        let cfg = ExpansionConfig {
            max_hops: 0,
            ..Default::default()
        };
        let ex = KeywordExpander::new(&o, cfg).expand("rdf").unwrap();
        assert_eq!(ex.len(), 1);
    }

    #[test]
    fn paper_example_rdf_expands_to_semantic_web_family() {
        // §2.1: "RDF" must expand to "Semantic Web", "Linked Open Data"
        // and "SPARQL" among its results.
        let o = curated_cs_ontology();
        let ex = KeywordExpander::with_defaults(&o).expand("RDF").unwrap();
        let labels: Vec<&str> = ex.iter().map(|e| e.label.as_str()).collect();
        assert!(labels.contains(&"Semantic Web"), "got {labels:?}");
        assert!(labels.contains(&"Linked Open Data"), "got {labels:?}");
        assert!(labels.contains(&"SPARQL"), "got {labels:?}");
        for e in &ex {
            assert!((0.0..=1.0).contains(&e.score));
        }
    }

    #[test]
    fn max_results_truncates() {
        let o = curated_cs_ontology();
        let cfg = ExpansionConfig {
            max_results: 3,
            min_score: 0.0,
            ..Default::default()
        };
        let ex = KeywordExpander::new(&o, cfg).expand("RDF").unwrap();
        assert!(ex.len() <= 4); // seed + 3
    }
}
