//! Evidence scoring for identity candidates.

use minaret_ontology::{normalize_label, tokenize};
use minaret_scholarly::MergedCandidate;

/// The individual evidence signals behind a candidate's score, so the
/// demo UI (Figure 4) can show *why* a profile was proposed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Evidence {
    /// Token overlap between the typed affiliation and the candidate's,
    /// in `[0, 1]`.
    pub affiliation: f64,
    /// `1.0` when countries match, `0.0` otherwise/unknown.
    pub country: f64,
    /// Fraction of context keywords found among the candidate's
    /// interests or publication keywords.
    pub topical: f64,
    /// Publication activity, log-scaled into `[0, 1]`.
    pub activity: f64,
}

/// Weights fusing [`Evidence`] into one score. Defaults favour the
/// affiliation — the one field the editor actually typed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvidenceWeights {
    /// Weight of the affiliation signal.
    pub affiliation: f64,
    /// Weight of the country signal.
    pub country: f64,
    /// Weight of the topical signal.
    pub topical: f64,
    /// Weight of the activity signal.
    pub activity: f64,
}

impl Default for EvidenceWeights {
    fn default() -> Self {
        Self {
            affiliation: 0.45,
            country: 0.10,
            topical: 0.30,
            activity: 0.15,
        }
    }
}

impl Evidence {
    /// Weighted score in `[0, 1]`.
    pub fn score(&self, w: &EvidenceWeights) -> f64 {
        let total = w.affiliation + w.country + w.topical + w.activity;
        if total <= 0.0 {
            return 0.0;
        }
        (self.affiliation * w.affiliation
            + self.country * w.country
            + self.topical * w.topical
            + self.activity * w.activity)
            / total
    }
}

/// Jaccard similarity of the token sets of two strings.
pub fn token_jaccard(a: &str, b: &str) -> f64 {
    TokenSet::new(a).jaccard(&TokenSet::new(b))
}

/// A string's normalized word tokens, sorted and deduplicated, so that
/// one side of many [`token_jaccard`] comparisons is tokenized once.
#[derive(Debug, Clone)]
pub struct TokenSet(Vec<String>);

impl TokenSet {
    /// Tokenizes `s`.
    pub fn new(s: &str) -> Self {
        let mut tokens = tokenize(s);
        tokens.sort_unstable();
        tokens.dedup();
        TokenSet(tokens)
    }

    /// Jaccard similarity of the two sets; `0.0` when both are empty.
    pub fn jaccard(&self, other: &TokenSet) -> f64 {
        let (a, b) = (&self.0, &other.0);
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let (mut i, mut j, mut inter) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter as f64 / (a.len() + b.len() - inter) as f64
    }
}

/// Collects the evidence for `candidate` given what the editor typed.
pub fn collect_evidence(
    candidate: &MergedCandidate,
    typed_affiliation: Option<&str>,
    typed_country: Option<&str>,
    context_keywords: &[String],
) -> Evidence {
    let affiliation = match (typed_affiliation, candidate.affiliation.as_deref()) {
        (Some(a), Some(b)) => token_jaccard(a, b),
        _ => 0.0,
    };
    let country = match (typed_country, candidate.country.as_deref()) {
        (Some(a), Some(b)) if normalize_label(a) == normalize_label(b) => 1.0,
        _ => 0.0,
    };
    let topical = if context_keywords.is_empty() {
        0.0
    } else {
        let mut hay: std::collections::HashSet<String> = candidate
            .interests
            .iter()
            .map(|i| normalize_label(i))
            .collect();
        for p in &candidate.publications {
            for k in &p.keywords {
                hay.insert(normalize_label(k));
            }
        }
        let hits = context_keywords
            .iter()
            .filter(|k| hay.contains(&normalize_label(k)))
            .count();
        hits as f64 / context_keywords.len() as f64
    };
    let pubs = candidate.publications.len() as f64;
    let activity = (1.0 + pubs).ln() / (1.0 + 100.0f64).ln();
    Evidence {
        affiliation,
        country,
        topical,
        activity: activity.min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_scholarly::SourceMetrics;

    fn candidate(aff: &str, country: &str, interests: &[&str], pubs: usize) -> MergedCandidate {
        MergedCandidate {
            display_name: "X Y".into(),
            affiliation: Some(aff.into()),
            country: Some(country.into()),
            affiliation_history: vec![],
            interests: interests.iter().map(|s| s.to_string()).collect(),
            publications: (0..pubs)
                .map(|i| {
                    std::sync::Arc::new(minaret_scholarly::SourcePublication {
                        title: format!("p{i}"),
                        year: 2015,
                        venue_name: "J".into(),
                        coauthor_names: vec![],
                        keywords: vec![],
                        citations: None,
                    })
                })
                .collect(),
            metrics: SourceMetrics::default(),
            reviews: vec![],
            sources: vec![],
            keys: vec![],
            truths: vec![],
        }
    }

    #[test]
    fn jaccard_basic_properties() {
        assert_eq!(
            token_jaccard("university of tartu", "University of Tartu"),
            1.0
        );
        assert_eq!(token_jaccard("a b", "c d"), 0.0);
        assert!(token_jaccard("university of tartu", "university of beijing") > 0.0);
        assert_eq!(token_jaccard("", ""), 0.0);
    }

    #[test]
    fn matching_affiliation_dominates() {
        let good = candidate("University of Tartu", "Estonia", &[], 5);
        let bad = candidate("University of Beijing", "China", &[], 5);
        let kw: Vec<String> = vec![];
        let w = EvidenceWeights::default();
        let eg = collect_evidence(&good, Some("University of Tartu"), Some("Estonia"), &kw);
        let eb = collect_evidence(&bad, Some("University of Tartu"), Some("Estonia"), &kw);
        assert!(eg.score(&w) > eb.score(&w));
        assert_eq!(eg.affiliation, 1.0);
        assert_eq!(eg.country, 1.0);
    }

    #[test]
    fn topical_overlap_counts_interests_and_pub_keywords() {
        let mut c = candidate("U", "X", &["semantic web"], 1);
        std::sync::Arc::make_mut(&mut c.publications[0]).keywords = vec!["Big Data".into()];
        let kw = vec![
            "Semantic Web".to_string(),
            "big-data".to_string(),
            "quantum".to_string(),
        ];
        let e = collect_evidence(&c, None, None, &kw);
        assert!((e.topical - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn activity_is_log_scaled_and_bounded() {
        let small = candidate("U", "X", &[], 1);
        let big = candidate("U", "X", &[], 500);
        let es = collect_evidence(&small, None, None, &[]);
        let eb = collect_evidence(&big, None, None, &[]);
        assert!(es.activity < eb.activity);
        assert!(eb.activity <= 1.0);
    }

    #[test]
    fn score_bounded_and_zero_weights_safe() {
        let c = candidate("U", "X", &[], 10);
        let e = collect_evidence(&c, Some("U"), Some("X"), &[]);
        assert!((0.0..=1.0).contains(&e.score(&EvidenceWeights::default())));
        let zero = EvidenceWeights {
            affiliation: 0.0,
            country: 0.0,
            topical: 0.0,
            activity: 0.0,
        };
        assert_eq!(e.score(&zero), 0.0);
    }
}
