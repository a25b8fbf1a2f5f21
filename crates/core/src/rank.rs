//! The ranking phase (§2.3 of the paper): a weighted sum of five
//! components, each in `[0, 1]`, with the weights configured by the
//! editor.

use std::collections::HashMap;
use std::ops::Range;

use minaret_scholarly::{text_key, MergedCandidate, NormalizedLabel};

use crate::config::{EditorConfig, ImpactMetric, RankingWeights};
use crate::keyed::KeyedTable;

/// Scale caps for log-normalized components. A candidate at or above the
/// cap scores 1.0. The caps are editorial conventions, not statistics of
/// the candidate pool, so that scores are stable run-to-run.
const CITATION_CAP: f64 = 20_000.0;
const H_INDEX_CAP: f64 = 60.0;
const REVIEW_CAP: f64 = 200.0;
const FAMILIARITY_CAP: f64 = 20.0;

/// The expansion of one original manuscript keyword: every reachable
/// topic label (normalized) with its similarity score to the original.
/// The original keyword itself is present with score 1.0.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordExpansionSet {
    /// The keyword as the author typed it.
    pub original: String,
    /// normalized expanded label -> similarity score in [0, 1].
    pub scores: HashMap<String, f64>,
}

/// Per-component scores for one candidate — the drill-down MINARET shows
/// when the editor clicks a total score (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ScoreBreakdown {
    /// Topic coverage of the manuscript's keywords.
    pub coverage: f64,
    /// Scientific impact (citations or h-index, per config).
    pub impact: f64,
    /// Recency of the candidate's work on the manuscript's topics.
    pub recency: f64,
    /// Review experience (total prior reviews, Publons-style).
    pub experience: f64,
    /// Familiarity with the target outlet.
    pub familiarity: f64,
    /// Responsiveness: turnaround speed + recent review activity (the
    /// §1 extension; weighted `0` by default).
    pub responsiveness: f64,
}

impl ScoreBreakdown {
    /// The fused total under the given weights, in `[0, 1]`.
    pub fn total(&self, w: &RankingWeights) -> f64 {
        let sum = w.total();
        if sum <= 0.0 {
            return 0.0;
        }
        (self.coverage * w.coverage
            + self.impact * w.impact
            + self.recency * w.recency
            + self.experience * w.experience
            + self.familiarity * w.familiarity
            + self.responsiveness * w.responsiveness)
            / sum
    }
}

fn log_norm(value: f64, cap: f64) -> f64 {
    if value <= 0.0 {
        0.0
    } else {
        ((1.0 + value).ln() / (1.0 + cap).ln()).min(1.0)
    }
}

/// Scientific impact from the candidate's best available metrics.
pub fn scientific_impact(candidate: &MergedCandidate, metric: ImpactMetric) -> f64 {
    match metric {
        ImpactMetric::Citations => log_norm(
            candidate.metrics().citations.unwrap_or(0) as f64,
            CITATION_CAP,
        ),
        ImpactMetric::HIndex => {
            (candidate.metrics().h_index.unwrap_or(0) as f64 / H_INDEX_CAP).min(1.0)
        }
    }
}

/// Review experience: log-scaled count of prior manuscript reviews
/// (obtained from the Publons-like profile data).
pub fn review_experience(candidate: &MergedCandidate) -> f64 {
    log_norm(candidate.review_count() as f64, REVIEW_CAP)
}

/// Turnaround faster than this many days scores full speed credit.
const TURNAROUND_FLOOR_DAYS: f64 = 7.0;
/// Turnaround slower than this many days scores zero speed credit.
const TURNAROUND_CEIL_DAYS: f64 = 90.0;

/// Responsiveness: §1 warns against "inviting a high-profile reviewer who
/// … might not reply to the invitation in a timely manner". With Publons
/// data we can estimate it from review behaviour: how fast past reviews
/// were returned, and how recently the candidate reviewed at all.
/// Candidates with no review history score `0` (unknown ≠ responsive).
pub fn responsiveness(candidate: &MergedCandidate, current_year: u32) -> f64 {
    let reviews = candidate.review_count();
    if reviews == 0 {
        return 0.0;
    }
    let mean_days = candidate
        .reviews()
        .map(|r| r.turnaround_days as f64)
        .sum::<f64>()
        / reviews as f64;
    let speed = 1.0
        - ((mean_days - TURNAROUND_FLOOR_DAYS) / (TURNAROUND_CEIL_DAYS - TURNAROUND_FLOOR_DAYS))
            .clamp(0.0, 1.0);
    let last_year = candidate
        .reviews()
        .map(|r| r.year)
        .max()
        .unwrap_or(current_year);
    let years_idle = (current_year as f64 - last_year as f64).max(0.0);
    let activity = 0.5f64.powf(years_idle / 3.0);
    0.6 * speed + 0.4 * activity
}

/// Keyword sets scored in one walk over a candidate: their per-set
/// maxima live on the stack, so scoring allocates nothing. A manuscript
/// with more keywords takes one walk per block of this many.
const SET_BLOCK: usize = 32;

/// Publication ages (in years) whose recency decay the scorer computes
/// once per request; an older publication computes its own.
const DECAY_AGES: usize = 64;

/// The manuscript side of §2.3 scoring, prepared once per request so
/// that scoring a candidate only reads the candidate.
///
/// Every expanded label maps to its similarity under each keyword set it
/// belongs to, in a table keyed by the label's [`text_key`], so a
/// candidate's label is looked up once, not once per set, and by an
/// integer. The candidate side needs no preparing: merged interests,
/// publication keywords and venue names carry their normalized forms and
/// keys.
pub struct CandidateScorer<'a> {
    config: &'a EditorConfig,
    /// Number of keyword sets.
    sets: usize,
    /// Every expanded label, keyed by its [`text_key`].
    labels: KeyedTable<'a, (usize, f64)>,
    /// The normalized target outlet name.
    target_venue: NormalizedLabel,
    /// `0.5^(age / half_life)` by integer age; empty when recency is
    /// off.
    decay: Vec<f64>,
}

impl<'a> CandidateScorer<'a> {
    /// Prepares scoring against `expansions` for a manuscript submitted
    /// to `target_venue`.
    pub fn new(
        expansions: &'a [KeywordExpansionSet],
        target_venue: &str,
        config: &'a EditorConfig,
    ) -> Self {
        let half_life = config.recency_half_life_years;
        let decay = if half_life > 0.0 {
            (0..DECAY_AGES)
                .map(|age| 0.5f64.powf(age as f64 / half_life))
                .collect()
        } else {
            Vec::new()
        };
        CandidateScorer {
            config,
            sets: expansions.len(),
            labels: label_table(expansions, text_key),
            target_venue: NormalizedLabel::new(target_venue),
            decay,
        }
    }

    /// Computes the full breakdown for one candidate.
    pub fn score(&self, candidate: &MergedCandidate) -> ScoreBreakdown {
        let topics = self.topic_scores(candidate);
        ScoreBreakdown {
            coverage: topics.coverage,
            impact: scientific_impact(candidate, self.config.impact_metric),
            recency: topics.recency,
            experience: review_experience(candidate),
            familiarity: self.outlet_familiarity(candidate, topics.in_target_venue),
            responsiveness: responsiveness(candidate, self.config.current_year),
        }
    }

    /// Topic coverage and recency, from one walk over the candidate's
    /// interests and publications, which also counts the publications in
    /// the target outlet.
    ///
    /// Coverage: how much of the manuscript's keyword set the candidate's
    /// registered interests (and publication keywords) cover. §2.3's
    /// example: with paper keywords {Semantic Web, Big Data}, a reviewer
    /// interested in {Semantic Web, Big Data} must outrank one interested
    /// in {Semantic Web, Ontologies, RDF} — coverage averages the best
    /// match *per manuscript keyword*, so covering more keywords wins.
    ///
    /// Recency: reviewers who *recently* published on the manuscript's
    /// topics rank above those whose related work is old (§2.3, citing
    /// \[5\]). For each manuscript keyword, the best
    /// `similarity × 2^(-age/half_life)` over the candidate's
    /// publications, where a publication's similarity is its best keyword
    /// match; averaged over keywords.
    fn topic_scores(&self, candidate: &MergedCandidate) -> TopicScores {
        let mut topics = TopicScores::default();
        let mut first = 0;
        loop {
            let sets = first..self.sets.min(first + SET_BLOCK);
            self.walk(candidate, sets.clone(), first == 0, &mut topics);
            if sets.end == self.sets {
                break;
            }
            first = sets.end;
        }
        if self.sets > 0 {
            topics.coverage /= self.sets as f64;
            topics.recency /= self.sets as f64;
        }
        topics
    }

    /// One walk over the candidate for the keyword sets in `sets`: adds
    /// their coverage and recency maxima to `topics`, in set order, and
    /// counts the publications in the target outlet when `count_venue`.
    fn walk(
        &self,
        candidate: &MergedCandidate,
        sets: Range<usize>,
        count_venue: bool,
        topics: &mut TopicScores,
    ) {
        let width = sets.len();
        let mut coverage = [0.0f64; SET_BLOCK];
        let mut recent = [0.0f64; SET_BLOCK];
        let mut similarity = [0.0f64; SET_BLOCK];
        // Each hit of a label in the table is one (set, similarity) pair;
        // this walk takes the pairs of its own sets. Coverage is a
        // maximum, so the walk reads the interests as the profiles
        // register them, not their sorted union.
        for label in candidate.interest_forms() {
            for &(set, score) in self.labels.get(label.key(), label) {
                if sets.contains(&set) {
                    let i = set - sets.start;
                    coverage[i] = coverage[i].max(score);
                }
            }
        }
        let count_venue = count_venue && !self.target_venue.is_empty();
        for p in candidate.publications() {
            if count_venue && *p.venue_name().normalized() == self.target_venue {
                topics.in_target_venue += 1;
            }
            if width == 0 {
                continue;
            }
            similarity[..width].fill(0.0);
            for label in p.keywords().iter().map(|k| k.normalized()) {
                for &(set, score) in self.labels.get(label.key(), label) {
                    if sets.contains(&set) {
                        let i = set - sets.start;
                        coverage[i] = coverage[i].max(score);
                        similarity[i] = similarity[i].max(score);
                    }
                }
            }
            if self.decay.is_empty() {
                continue;
            }
            let decay = self.decay(p.year);
            for (best, &sim) in recent[..width].iter_mut().zip(&similarity[..width]) {
                if sim > 0.0 {
                    *best = best.max(sim * decay);
                }
            }
        }
        for i in 0..width {
            topics.coverage += coverage[i];
            topics.recency += recent[i];
        }
    }

    /// The recency decay of a publication from `year`.
    fn decay(&self, year: u32) -> f64 {
        let age = self.config.current_year.saturating_sub(year) as usize;
        match self.decay.get(age) {
            Some(&decay) => decay,
            None => 0.5f64.powf(age as f64 / self.config.recency_half_life_years),
        }
    }

    /// Familiarity with the target outlet: reviews previously conducted
    /// for it plus papers published in it (§2.3's two sub-components),
    /// log-scaled together. The walk counted the papers.
    fn outlet_familiarity(&self, candidate: &MergedCandidate, pubs_in: usize) -> f64 {
        if self.target_venue.is_empty() {
            return 0.0;
        }
        let reviews_for = candidate
            .reviews()
            .filter(|r| *r.venue_name().normalized() == self.target_venue)
            .count();
        log_norm((reviews_for + pubs_in) as f64, FAMILIARITY_CAP)
    }
}

/// What a walk over a candidate's topics accumulates: sums of per-set
/// maxima (averages once every set is walked) and the publications in
/// the target outlet.
#[derive(Default)]
struct TopicScores {
    coverage: f64,
    recency: f64,
    in_target_venue: usize,
}

/// Every expanded label of the manuscript's keyword sets, keyed with
/// `key`, with the `(set index, similarity)` pair of each set holding it,
/// in set order.
fn label_table(
    expansions: &[KeywordExpansionSet],
    key: impl Fn(&str) -> u64,
) -> KeyedTable<'_, (usize, f64)> {
    KeyedTable::new(
        expansions
            .iter()
            .enumerate()
            .flat_map(|(set, e)| {
                e.scores
                    .iter()
                    .map(move |(label, &score)| (set, label, score))
            })
            .map(|(set, label, score)| (key(label), label.as_str(), (set, score)))
            .collect(),
    )
}

/// Scores every candidate, in parallel over contiguous chunks
/// (`parallelism` threads; `0` = all cores). Scoring is a pure function
/// of the candidate plus shared read-only inputs, so the returned
/// `(breakdown, total)` vector is element-for-element identical to a
/// sequential map — the caller's sort and tie-breaks then run
/// sequentially on the combined output, keeping the ranking byte-
/// identical to the single-threaded path.
pub fn score_candidates(
    candidates: &[crate::pipeline::CandidateProfile],
    expansions: &[KeywordExpansionSet],
    target_venue: &str,
    config: &EditorConfig,
    parallelism: usize,
) -> Vec<(ScoreBreakdown, f64)> {
    let scorer = CandidateScorer::new(expansions, target_venue, config);
    minaret_concurrent::chunked_map(candidates, parallelism, |cand| {
        let breakdown = scorer.score(&cand.merged);
        let total = breakdown.total(&config.weights);
        (breakdown, total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_ontology::normalize_label;
    use minaret_scholarly::{
        Label, PersonName, SourceKind, SourceMetrics, SourceProfile, SourcePublication,
        SourceReview,
    };
    use minaret_synth::ScholarId;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn publication(
        title: &str,
        year: u32,
        venue: &str,
        keywords: &[&str],
    ) -> Arc<SourcePublication> {
        Arc::new(SourcePublication::new(
            title.into(),
            year,
            Arc::new(Label::new(venue)),
            vec![],
            keywords.iter().map(|k| Arc::new(Label::new(k))).collect(),
            None,
        ))
    }

    fn review(
        venue: &str,
        year: u32,
        turnaround_days: u32,
        quality: Option<u8>,
    ) -> Arc<SourceReview> {
        Arc::new(SourceReview::new(
            Arc::new(Label::new(venue)),
            year,
            turnaround_days,
            quality,
        ))
    }

    fn topic_coverage(c: &MergedCandidate, expansions: &[KeywordExpansionSet]) -> f64 {
        CandidateScorer::new(expansions, "", &EditorConfig::default())
            .score(c)
            .coverage
    }

    fn recency(
        c: &MergedCandidate,
        expansions: &[KeywordExpansionSet],
        current_year: u32,
        recency_half_life_years: f64,
    ) -> f64 {
        let config = EditorConfig {
            current_year,
            recency_half_life_years,
            ..Default::default()
        };
        CandidateScorer::new(expansions, "", &config)
            .score(c)
            .recency
    }

    fn outlet_familiarity(c: &MergedCandidate, target_venue: &str) -> f64 {
        CandidateScorer::new(&[], target_venue, &EditorConfig::default())
            .score(c)
            .familiarity
    }

    fn expansion(original: &str, pairs: &[(&str, f64)]) -> KeywordExpansionSet {
        let mut scores: HashMap<String, f64> = pairs
            .iter()
            .map(|(l, s)| (normalize_label(l), *s))
            .collect();
        scores.insert(normalize_label(original), 1.0);
        KeywordExpansionSet {
            original: original.to_string(),
            scores,
        }
    }

    /// A candidate of one profile registering `interests`, with
    /// `metrics`, listing `publications` and `reviews`.
    fn candidate(
        interests: &[&str],
        metrics: SourceMetrics,
        publications: Vec<Arc<SourcePublication>>,
        reviews: Vec<Arc<SourceReview>>,
    ) -> MergedCandidate {
        let mut profile = SourceProfile::new(
            SourceKind::GoogleScholar,
            "gs:1".into(),
            Arc::new(PersonName::new("X")),
            None,
            None,
            interests.iter().map(|i| Arc::new(Label::new(i))).collect(),
            ScholarId(0),
        )
        .with_publications(publications)
        .with_reviews(reviews);
        profile.metrics = metrics;
        MergedCandidate::from_profiles(vec![Arc::new(profile)])
    }

    fn with_interests(interests: &[&str]) -> MergedCandidate {
        candidate(interests, SourceMetrics::default(), vec![], vec![])
    }

    fn listing(publications: Vec<Arc<SourcePublication>>) -> MergedCandidate {
        candidate(&[], SourceMetrics::default(), publications, vec![])
    }

    fn reviewing(reviews: Vec<Arc<SourceReview>>) -> MergedCandidate {
        candidate(&[], SourceMetrics::default(), vec![], reviews)
    }

    fn with_metrics(citations: Option<u64>, h_index: Option<u32>) -> MergedCandidate {
        let metrics = SourceMetrics {
            citations,
            h_index,
            i10_index: None,
        };
        candidate(&[], metrics, vec![], vec![])
    }

    /// §2.3's worked example: keywords {Semantic Web, Big Data}; reviewer
    /// B covering both outranks reviewer A covering only one (plus
    /// related topics).
    #[test]
    fn paper_topic_coverage_example() {
        let expansions = vec![
            expansion("Semantic Web", &[("Ontologies", 0.8), ("RDF", 0.9)]),
            expansion("Big Data", &[]),
        ];
        let a = with_interests(&["Semantic Web", "Ontologies", "RDF"]);
        let b = with_interests(&["Semantic Web", "Big Data"]);
        let ca = topic_coverage(&a, &expansions);
        let cb = topic_coverage(&b, &expansions);
        assert!(cb > ca, "B ({cb}) must outrank A ({ca})");
        assert!((cb - 1.0).abs() < 1e-9, "B covers everything");
        assert!((ca - 0.5).abs() < 1e-9, "A covers one of two keywords");
    }

    #[test]
    fn coverage_uses_expansion_scores_for_partial_matches() {
        let expansions = vec![expansion("RDF", &[("SPARQL", 0.9)])];
        let c = with_interests(&["SPARQL"]);
        assert!((topic_coverage(&c, &expansions) - 0.9).abs() < 1e-9);
    }

    #[test]
    fn coverage_counts_publication_keywords_too() {
        let expansions = vec![expansion("RDF", &[])];
        let c = listing(vec![publication("t", 2017, "J", &["RDF"])]);
        assert!((topic_coverage(&c, &expansions) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn impact_metric_switch() {
        let c = with_metrics(Some(1000), Some(30));
        let by_cites = scientific_impact(&c, ImpactMetric::Citations);
        let by_h = scientific_impact(&c, ImpactMetric::HIndex);
        assert!(by_cites > 0.0 && by_cites < 1.0);
        assert!((by_h - 0.5).abs() < 1e-9);
        // Missing metrics score zero.
        let empty = with_interests(&[]);
        assert_eq!(scientific_impact(&empty, ImpactMetric::Citations), 0.0);
        assert_eq!(scientific_impact(&empty, ImpactMetric::HIndex), 0.0);
    }

    #[test]
    fn impact_caps_at_one() {
        let c = with_metrics(Some(10_000_000), Some(500));
        assert_eq!(scientific_impact(&c, ImpactMetric::Citations), 1.0);
        assert_eq!(scientific_impact(&c, ImpactMetric::HIndex), 1.0);
    }

    #[test]
    fn recent_work_beats_old_work() {
        let expansions = vec![expansion("RDF", &[])];
        let fresh = listing(vec![publication("new", 2018, "J", &["rdf"])]);
        let stale = listing(vec![publication("new", 2005, "J", &["rdf"])]);
        let rf = recency(&fresh, &expansions, 2018, 5.0);
        let rs = recency(&stale, &expansions, 2018, 5.0);
        assert!(rf > rs);
        assert!((rf - 1.0).abs() < 1e-9, "current-year exact match = 1");
        // 13 years at half-life 5 => 2^-2.6
        assert!((rs - 0.5f64.powf(13.0 / 5.0)).abs() < 1e-9);
    }

    #[test]
    fn recency_zero_without_matching_publications() {
        let expansions = vec![expansion("RDF", &[])];
        let c = with_interests(&["rdf"]); // interests alone don't count
        assert_eq!(recency(&c, &expansions, 2018, 5.0), 0.0);
    }

    #[test]
    fn experience_grows_with_reviews() {
        let reviews = |n: usize| {
            (0..n)
                .map(|i| review(&format!("V{i}"), 2016, 20, Some(3)))
                .collect()
        };
        let a = reviewing(reviews(3));
        let b = reviewing(reviews(30));
        assert!(review_experience(&b) > review_experience(&a));
        assert!(review_experience(&a) > 0.0);
        assert_eq!(review_experience(&with_interests(&[])), 0.0);
    }

    #[test]
    fn familiarity_counts_reviews_and_pubs_for_target_only() {
        let c = candidate(
            &[],
            SourceMetrics::default(),
            vec![publication("t", 2015, "journal of x", &[])],
            vec![
                review("Journal of X", 2017, 15, Some(3)),
                review("Other Venue", 2017, 15, Some(3)),
            ],
        );
        let f = outlet_familiarity(&c, "Journal of X");
        assert!((f - log_norm(2.0, FAMILIARITY_CAP)).abs() < 1e-9);
        assert_eq!(outlet_familiarity(&c, "Nowhere"), 0.0);
        assert_eq!(outlet_familiarity(&c, ""), 0.0);
    }

    #[test]
    fn total_respects_weights() {
        let b = ScoreBreakdown {
            coverage: 1.0,
            impact: 0.0,
            recency: 0.0,
            experience: 0.0,
            familiarity: 0.0,
            responsiveness: 0.0,
        };
        let only_coverage = RankingWeights {
            coverage: 1.0,
            impact: 0.0,
            recency: 0.0,
            experience: 0.0,
            familiarity: 0.0,
            responsiveness: 0.0,
        };
        assert_eq!(b.total(&only_coverage), 1.0);
        let only_impact = RankingWeights {
            coverage: 0.0,
            impact: 1.0,
            recency: 0.0,
            experience: 0.0,
            familiarity: 0.0,
            responsiveness: 0.0,
        };
        assert_eq!(b.total(&only_impact), 0.0);
        let zero = RankingWeights {
            coverage: 0.0,
            impact: 0.0,
            recency: 0.0,
            experience: 0.0,
            familiarity: 0.0,
            responsiveness: 0.0,
        };
        assert_eq!(b.total(&zero), 0.0);
    }

    #[test]
    fn responsiveness_rewards_fast_recent_reviewers() {
        let fast = reviewing(vec![review("J", 2018, 7, Some(3))]);
        let slow = reviewing(vec![review("J", 2018, 90, Some(3))]);
        let rf = responsiveness(&fast, 2018);
        let rs = responsiveness(&slow, 2018);
        assert!(rf > rs, "fast {rf} vs slow {rs}");
        assert!((rf - 1.0).abs() < 1e-9, "7-day turnaround this year = 1.0");
        assert!(
            (rs - 0.4).abs() < 1e-9,
            "90-day turnaround keeps only activity credit"
        );
    }

    #[test]
    fn responsiveness_decays_with_idle_years() {
        let recent = reviewing(vec![review("J", 2018, 7, Some(3))]);
        let dormant = reviewing(vec![review("J", 2009, 7, Some(3))]);
        assert!(responsiveness(&recent, 2018) > responsiveness(&dormant, 2018));
    }

    #[test]
    fn responsiveness_unknown_without_reviews() {
        assert_eq!(responsiveness(&with_interests(&[]), 2018), 0.0);
    }

    #[test]
    fn default_weights_ignore_responsiveness() {
        // The default ranking is exactly the paper's five components.
        let a = ScoreBreakdown {
            coverage: 0.5,
            impact: 0.5,
            recency: 0.5,
            experience: 0.5,
            familiarity: 0.5,
            responsiveness: 0.0,
        };
        let b = ScoreBreakdown {
            responsiveness: 1.0,
            ..a
        };
        let w = RankingWeights::default();
        assert_eq!(a.total(&w), b.total(&w));
        // Opting in makes it count.
        let w2 = RankingWeights {
            responsiveness: 0.5,
            ..w
        };
        assert!(b.total(&w2) > a.total(&w2));
    }

    #[test]
    fn labels_sharing_a_key_are_told_apart_by_text() {
        // Two different labels filed under one key: each probe reaches
        // its own sets, never the other label's.
        let expansions = vec![
            expansion("RDF", &[("SPARQL", 0.9)]),
            expansion("Big Data", &[("SPARQL", 0.4)]),
        ];
        let table = label_table(&expansions, |_| 7);
        let get = |table: &KeyedTable<(usize, f64)>, key, label| {
            table.get(key, label).copied().collect::<Vec<_>>()
        };
        assert_eq!(get(&table, 7, "rdf"), vec![(0, 1.0)]);
        assert_eq!(get(&table, 7, "big data"), vec![(1, 1.0)]);
        assert_eq!(get(&table, 7, "sparql"), vec![(0, 0.9), (1, 0.4)]);
        assert_eq!(get(&table, 7, "ontologies"), vec![]);
        assert_eq!(get(&table, 8, "rdf"), vec![], "another key holds nothing");
        // The production table finds each label under its own key.
        let table = label_table(&expansions, text_key);
        assert_eq!(get(&table, text_key("rdf"), "rdf"), vec![(0, 1.0)]);
        assert_eq!(get(&table, text_key("rdf"), "big data"), vec![]);
    }

    #[test]
    fn decay_table_matches_the_expression_at_every_age() {
        let config = EditorConfig {
            current_year: 2018,
            recency_half_life_years: 3.7,
            ..Default::default()
        };
        let scorer = CandidateScorer::new(&[], "", &config);
        for year in (2018 - 2 * DECAY_AGES as u32)..2021 {
            let age = (2018.0 - year as f64).max(0.0);
            assert_eq!(
                scorer.decay(year).to_bits(),
                0.5f64.powf(age / 3.7).to_bits(),
                "{year}"
            );
        }
    }

    #[test]
    fn more_sets_than_a_block_score_like_one_pass() {
        // 70 keyword sets take three walks; the averages must equal the
        // per-set definition added in set order.
        let labels: Vec<String> = (0..70).map(|i| format!("topic {i}")).collect();
        let expansions: Vec<KeywordExpansionSet> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| expansion(l, &[("Shared", (i % 10) as f64 / 10.0)]))
            .collect();
        let c = candidate(
            &["topic 3", "topic 41"],
            SourceMetrics::default(),
            vec![publication("t", 2016, "J", &["Shared", "topic 69"])],
            vec![],
        );
        let config = EditorConfig {
            current_year: 2018,
            recency_half_life_years: 5.0,
            ..Default::default()
        };
        let got = CandidateScorer::new(&expansions, "", &config).score(&c);
        let decay = 0.5f64.powf(2.0 / 5.0);
        let (mut coverage, mut recency) = (0.0, 0.0);
        for i in 0..70 {
            let shared = (i % 10) as f64 / 10.0;
            let own = if [3, 41, 69].contains(&i) { 1.0 } else { 0.0 };
            coverage += f64::max(own, shared);
            let published = if i == 69 { 1.0 } else { shared };
            if published > 0.0 {
                recency += published * decay;
            }
        }
        assert_eq!(got.coverage.to_bits(), (coverage / 70.0).to_bits());
        assert_eq!(got.recency.to_bits(), (recency / 70.0).to_bits());
    }

    proptest! {
        #[test]
        fn totals_are_bounded(
            cov in 0.0f64..=1.0, imp in 0.0f64..=1.0, rec in 0.0f64..=1.0,
            exp in 0.0f64..=1.0, fam in 0.0f64..=1.0,
            wc in 0.0f64..=2.0, wi in 0.0f64..=2.0, wr in 0.0f64..=2.0,
            we in 0.0f64..=2.0, wf in 0.0f64..=2.0,
        ) {
            let b = ScoreBreakdown {
                coverage: cov, impact: imp, recency: rec,
                experience: exp, familiarity: fam, responsiveness: 0.0,
            };
            let w = RankingWeights {
                coverage: wc, impact: wi, recency: wr, experience: we,
                familiarity: wf, responsiveness: 0.0,
            };
            let t = b.total(&w);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&t));
        }

        #[test]
        fn coverage_monotone_in_added_interest(score in 0.0f64..=1.0) {
            // Adding an interest that matches an expanded keyword never
            // lowers coverage.
            let expansions = vec![expansion("RDF", &[("SPARQL", score)])];
            let before = with_interests(&[]);
            let after = with_interests(&["SPARQL"]);
            prop_assert!(
                topic_coverage(&after, &expansions)
                    >= topic_coverage(&before, &expansions)
            );
        }
    }
}
