//! The ranking phase (§2.3 of the paper): a weighted sum of five
//! components, each in `[0, 1]`, with the weights configured by the
//! editor.

use std::collections::HashMap;

use minaret_ontology::normalize_label;
use minaret_scholarly::intern;
use minaret_scholarly::MergedCandidate;

use crate::config::{EditorConfig, ImpactMetric, RankingWeights};

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
            candidate.metrics.citations.unwrap_or(0) as f64,
            CITATION_CAP,
        ),
        ImpactMetric::HIndex => {
            (candidate.metrics.h_index.unwrap_or(0) as f64 / H_INDEX_CAP).min(1.0)
        }
    }
}

/// Review experience: log-scaled count of prior manuscript reviews
/// (obtained from the Publons-like profile data).
pub fn review_experience(candidate: &MergedCandidate) -> f64 {
    log_norm(candidate.reviews.len() as f64, REVIEW_CAP)
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
    if candidate.reviews.is_empty() {
        return 0.0;
    }
    let mean_days = candidate
        .reviews
        .iter()
        .map(|r| r.turnaround_days as f64)
        .sum::<f64>()
        / candidate.reviews.len() as f64;
    let speed = 1.0
        - ((mean_days - TURNAROUND_FLOOR_DAYS) / (TURNAROUND_CEIL_DAYS - TURNAROUND_FLOOR_DAYS))
            .clamp(0.0, 1.0);
    let last_year = candidate
        .reviews
        .iter()
        .map(|r| r.year)
        .max()
        .unwrap_or(current_year);
    let years_idle = (current_year as f64 - last_year as f64).max(0.0);
    let activity = 0.5f64.powf(years_idle / 3.0);
    0.6 * speed + 0.4 * activity
}

/// The manuscript side of §2.3 scoring, prepared once per request so
/// that scoring a candidate only reads the candidate.
///
/// Every expanded label maps to its similarity under each keyword set it
/// belongs to, so a candidate's label is looked up once, not once per
/// set. Nothing here is interned: the labels, typed keywords and target
/// outlet come from the request, and the global interner never evicts.
pub struct CandidateScorer<'a> {
    config: &'a EditorConfig,
    /// Number of keyword sets.
    sets: usize,
    /// normalized label -> `(keyword set index, similarity)` for every
    /// set holding the label.
    labels: HashMap<&'a str, Vec<(usize, f64)>>,
    /// The normalized target outlet name.
    target_venue: String,
}

impl<'a> CandidateScorer<'a> {
    /// Prepares scoring against `expansions` for a manuscript submitted
    /// to `target_venue`.
    pub fn new(
        expansions: &'a [KeywordExpansionSet],
        target_venue: &str,
        config: &'a EditorConfig,
    ) -> Self {
        let mut labels: HashMap<&str, Vec<(usize, f64)>> = HashMap::new();
        for (set, e) in expansions.iter().enumerate() {
            for (label, &score) in &e.scores {
                labels.entry(label.as_str()).or_default().push((set, score));
            }
        }
        CandidateScorer {
            config,
            sets: expansions.len(),
            labels,
            target_venue: normalize_label(target_venue),
        }
    }

    /// Computes the full breakdown for one candidate.
    pub fn score(&self, candidate: &MergedCandidate) -> ScoreBreakdown {
        let (coverage, recency) = self.topic_scores(candidate);
        ScoreBreakdown {
            coverage,
            impact: scientific_impact(candidate, self.config.impact_metric),
            recency,
            experience: review_experience(candidate),
            familiarity: self.outlet_familiarity(candidate),
            responsiveness: responsiveness(candidate, self.config.current_year),
        }
    }

    /// Topic coverage and recency, from one pass over the candidate's
    /// normalized labels.
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
    fn topic_scores(&self, candidate: &MergedCandidate) -> (f64, f64) {
        if self.sets == 0 {
            return (0.0, 0.0);
        }
        // Interned + memoized normalization: the same interests and
        // keywords recur across every candidate of every recommendation.
        let lookup = |raw: &str| self.labels.get(intern::normalized(raw).as_ref());
        let mut coverage = vec![0.0f64; self.sets];
        for hits in candidate.interests.iter().filter_map(|i| lookup(i)) {
            for &(set, score) in hits {
                coverage[set] = coverage[set].max(score);
            }
        }
        let half_life = self.config.recency_half_life_years;
        let with_recency = half_life > 0.0;
        let mut recent = vec![0.0f64; self.sets];
        let mut similarity = vec![0.0f64; self.sets];
        for p in &candidate.publications {
            similarity.fill(0.0);
            for hits in p.keywords.iter().filter_map(|k| lookup(k)) {
                for &(set, score) in hits {
                    coverage[set] = coverage[set].max(score);
                    similarity[set] = similarity[set].max(score);
                }
            }
            if !with_recency {
                continue;
            }
            let age = (self.config.current_year as f64 - p.year as f64).max(0.0);
            let decay = 0.5f64.powf(age / half_life);
            for (best, &sim) in recent.iter_mut().zip(&similarity) {
                if sim > 0.0 {
                    *best = best.max(sim * decay);
                }
            }
        }
        let coverage = coverage.iter().copied().sum::<f64>() / self.sets as f64;
        if !with_recency {
            return (coverage, 0.0);
        }
        let mut total = 0.0;
        for best in recent {
            total += best;
        }
        (coverage, total / self.sets as f64)
    }

    /// Familiarity with the target outlet: reviews previously conducted
    /// for it plus papers published in it (§2.3's two sub-components),
    /// log-scaled together.
    fn outlet_familiarity(&self, candidate: &MergedCandidate) -> f64 {
        let target = self.target_venue.as_str();
        if target.is_empty() {
            return 0.0;
        }
        let reviews_for = candidate
            .reviews
            .iter()
            .filter(|r| intern::normalized(&r.venue_name).as_ref() == target)
            .count() as f64;
        let pubs_in = candidate
            .publications
            .iter()
            .filter(|p| intern::normalized(&p.venue_name).as_ref() == target)
            .count() as f64;
        log_norm(reviews_for + pubs_in, FAMILIARITY_CAP)
    }
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
    crate::par::chunked_map(candidates, parallelism, |cand| {
        let breakdown = scorer.score(&cand.merged);
        let total = breakdown.total(&config.weights);
        (breakdown, total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_scholarly::{SourceMetrics, SourcePublication, SourceReview};
    use proptest::prelude::*;
    use std::sync::Arc;

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

    fn with_interests(interests: &[&str]) -> MergedCandidate {
        MergedCandidate {
            display_name: "X".into(),
            affiliation: None,
            country: None,
            affiliation_history: vec![],
            interests: interests.iter().map(|s| normalize_label(s)).collect(),
            publications: vec![],
            metrics: SourceMetrics::default(),
            reviews: vec![],
            sources: vec![],
            keys: vec![],
            truths: vec![],
        }
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
        let mut c = with_interests(&[]);
        c.publications.push(Arc::new(SourcePublication {
            title: "t".into(),
            year: 2017,
            venue_name: "J".into(),
            coauthor_names: vec![],
            keywords: vec!["RDF".into()],
            citations: None,
        }));
        assert!((topic_coverage(&c, &expansions) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn impact_metric_switch() {
        let mut c = with_interests(&[]);
        c.metrics = SourceMetrics {
            citations: Some(1000),
            h_index: Some(30),
            i10_index: None,
        };
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
        let mut c = with_interests(&[]);
        c.metrics.citations = Some(10_000_000);
        c.metrics.h_index = Some(500);
        assert_eq!(scientific_impact(&c, ImpactMetric::Citations), 1.0);
        assert_eq!(scientific_impact(&c, ImpactMetric::HIndex), 1.0);
    }

    #[test]
    fn recent_work_beats_old_work() {
        let expansions = vec![expansion("RDF", &[])];
        let mut fresh = with_interests(&[]);
        fresh.publications.push(Arc::new(SourcePublication {
            title: "new".into(),
            year: 2018,
            venue_name: "J".into(),
            coauthor_names: vec![],
            keywords: vec!["rdf".into()],
            citations: None,
        }));
        let mut stale = fresh.clone();
        Arc::make_mut(&mut stale.publications[0]).year = 2005;
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
        let mut a = with_interests(&[]);
        let mut b = with_interests(&[]);
        for i in 0..3 {
            a.reviews.push(Arc::new(SourceReview {
                venue_name: format!("V{i}"),
                year: 2016,
                turnaround_days: 20,
                quality: Some(3),
            }));
        }
        for i in 0..30 {
            b.reviews.push(Arc::new(SourceReview {
                venue_name: format!("V{i}"),
                year: 2016,
                turnaround_days: 20,
                quality: Some(3),
            }));
        }
        assert!(review_experience(&b) > review_experience(&a));
        assert!(review_experience(&a) > 0.0);
        assert_eq!(review_experience(&with_interests(&[])), 0.0);
    }

    #[test]
    fn familiarity_counts_reviews_and_pubs_for_target_only() {
        let mut c = with_interests(&[]);
        c.reviews.push(Arc::new(SourceReview {
            venue_name: "Journal of X".into(),
            year: 2017,
            turnaround_days: 15,
            quality: Some(3),
        }));
        c.reviews.push(Arc::new(SourceReview {
            venue_name: "Other Venue".into(),
            year: 2017,
            turnaround_days: 15,
            quality: Some(3),
        }));
        c.publications.push(Arc::new(SourcePublication {
            title: "t".into(),
            year: 2015,
            venue_name: "journal of x".into(),
            coauthor_names: vec![],
            keywords: vec![],
            citations: None,
        }));
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
        let mut fast = with_interests(&[]);
        fast.reviews.push(Arc::new(SourceReview {
            venue_name: "J".into(),
            year: 2018,
            turnaround_days: 7,
            quality: Some(3),
        }));
        let mut slow = with_interests(&[]);
        slow.reviews.push(Arc::new(SourceReview {
            venue_name: "J".into(),
            year: 2018,
            turnaround_days: 90,
            quality: Some(3),
        }));
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
        let mut recent = with_interests(&[]);
        recent.reviews.push(Arc::new(SourceReview {
            venue_name: "J".into(),
            year: 2018,
            turnaround_days: 7,
            quality: Some(3),
        }));
        let mut dormant = recent.clone();
        Arc::make_mut(&mut dormant.reviews[0]).year = 2009;
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
