//! The random baseline — the floor any real method must clear.

use minaret_core::ManuscriptDetails;
use minaret_ontology::normalize_label;
use minaret_scholarly::MergedCandidate;
use minaret_synth::ScholarId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::{RankedCandidate, Recommender};

/// Picks `k` reviewers uniformly at random from the crawled pool
/// (excluding authors by name). Deterministic per seed.
#[derive(Debug)]
pub struct RandomRecommender {
    pool: Vec<(String, Vec<ScholarId>)>,
    seed: u64,
}

impl RandomRecommender {
    /// Creates the baseline over a crawled pool.
    pub fn new(pool: &[MergedCandidate], seed: u64) -> Self {
        Self {
            pool: pool
                .iter()
                .map(|c| (c.display_name().to_string(), c.truths().collect()))
                .collect(),
            seed,
        }
    }
}

impl Recommender for RandomRecommender {
    fn name(&self) -> &str {
        "random"
    }

    fn recommend(&self, manuscript: &ManuscriptDetails, k: usize) -> Vec<RankedCandidate> {
        let author_names: Vec<String> = manuscript
            .authors
            .iter()
            .map(|a| normalize_label(&a.name))
            .collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut eligible: Vec<&(String, Vec<ScholarId>)> = self
            .pool
            .iter()
            .filter(|(name, _)| !author_names.contains(&normalize_label(name)))
            .collect();
        eligible.shuffle(&mut rng);
        eligible
            .into_iter()
            .take(k)
            .enumerate()
            .map(|(i, (name, truths))| RankedCandidate {
                name: name.clone(),
                score: 1.0 / (i + 1) as f64,
                truths: truths.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_core::AuthorInput;
    use minaret_scholarly::{PersonName, SourceKind, SourceProfile};
    use std::sync::Arc;

    fn pool(n: usize) -> Vec<MergedCandidate> {
        (0..n)
            .map(|i| {
                let profile = SourceProfile::new(
                    SourceKind::Dblp,
                    format!("dblp:{i}"),
                    Arc::new(PersonName::new(&format!("Scholar Number{i}"))),
                    None,
                    None,
                    vec![],
                    ScholarId(i as u32),
                );
                MergedCandidate::from_profiles(vec![Arc::new(profile)])
            })
            .collect()
    }

    fn manuscript() -> ManuscriptDetails {
        ManuscriptDetails {
            title: "T".into(),
            keywords: vec!["x".into()],
            authors: vec![AuthorInput::named("Scholar Number0")],
            target_venue: "J".into(),
        }
    }

    #[test]
    fn deterministic_per_seed_and_excludes_authors() {
        let p = pool(30);
        let a = RandomRecommender::new(&p, 7).recommend(&manuscript(), 10);
        let b = RandomRecommender::new(&p, 7).recommend(&manuscript(), 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        for c in &a {
            assert_ne!(c.name, "Scholar Number0");
        }
        let c = RandomRecommender::new(&p, 8).recommend(&manuscript(), 10);
        assert_ne!(a, c);
    }

    #[test]
    fn small_pools_return_what_they_have() {
        let p = pool(3);
        let out = RandomRecommender::new(&p, 1).recommend(&manuscript(), 10);
        assert_eq!(out.len(), 2); // 3 minus the author
    }
}
