//! The filter and rank phases derive their request-side data once per
//! request (parsed author and PC names, title sets, institution token
//! sets, a label → per-keyword-set similarity table). This suite pins
//! that the per-request forms decide and score exactly like the
//! per-candidate definitions they replaced.
//!
//! `reference` holds those definitions as they stood before the change:
//! the COI check, the PC membership check, topic coverage, recency and
//! outlet familiarity, with the name parser, tokenizer and label
//! normalizer they called. Random candidates and author records are
//! drawn from small vocabularies built to collide: full, abbreviated
//! ("L. Zhou"), comma-form ("Zhou, Lei") and unparseable names, shared
//! and almost-shared titles, fuzzy institution strings, and empty
//! affiliation histories. Every `AffiliationMatchLevel`, co-authorship on
//! and off, PC lists on and off, and keyword sets with labels no
//! candidate has are covered. Decisions must be equal, COI reasons and
//! institution strings included; scores must be bitwise equal.

use std::collections::HashMap;
use std::sync::Arc;

use minaret::core::coi::{check_coi, AuthorRecord, CoiReason};
use minaret::core::filter::{CandidateFilter, FilterDecision, FilterReason};
use minaret::core::rank::CandidateScorer;
use minaret::core::{
    AffiliationMatchLevel, CoiConfig, EditorConfig, ExpertiseConstraints, ImpactMetric,
    KeywordExpansionSet, ScoreBreakdown,
};
use minaret::scholarly::{
    AffiliationRecord, MergedCandidate, SourceMetrics, SourcePublication, SourceReview,
};
use proptest::prelude::*;

/// The per-candidate definitions as they were before request-side data
/// was derived once per request.
mod reference {
    use std::collections::HashSet;

    use minaret::core::coi::{CoiReason, CoiVerdict};
    use minaret::core::filter::{FilterDecision, FilterReason};
    use minaret::core::rank::{
        responsiveness, review_experience, scientific_impact, KeywordExpansionSet, ScoreBreakdown,
    };
    use minaret::core::{AffiliationMatchLevel, CoiConfig, EditorConfig};
    use minaret::scholarly::MergedCandidate;

    pub fn normalize_label(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut pending_space = false;
        for ch in s.chars() {
            if ch.is_alphanumeric() {
                if pending_space && !out.is_empty() {
                    out.push(' ');
                }
                pending_space = false;
                for lower in ch.to_lowercase() {
                    out.push(lower);
                }
            } else {
                pending_space = true;
            }
        }
        out
    }

    fn tokenize(s: &str) -> Vec<String> {
        normalize_label(s)
            .split(' ')
            .filter(|t| !t.is_empty())
            .map(|t| t.to_string())
            .collect()
    }

    fn token_jaccard(a: &str, b: &str) -> f64 {
        let ta: HashSet<String> = tokenize(a).into_iter().collect();
        let tb: HashSet<String> = tokenize(b).into_iter().collect();
        if ta.is_empty() && tb.is_empty() {
            return 0.0;
        }
        let inter = ta.intersection(&tb).count() as f64;
        let union = ta.union(&tb).count() as f64;
        inter / union
    }

    pub struct ParsedName {
        given: String,
        family: String,
    }

    pub fn parse_name(raw: &str) -> Option<ParsedName> {
        if let Some((family, given)) = raw.split_once(',') {
            let family = normalize_label(family);
            let given = normalize_label(given);
            if family.is_empty() || given.is_empty() {
                return None;
            }
            return Some(ParsedName { given, family });
        }
        let norm = normalize_label(raw);
        let mut parts: Vec<&str> = norm.split(' ').filter(|s| !s.is_empty()).collect();
        if parts.len() < 2 {
            return None;
        }
        let family = parts.pop().expect("len >= 2").to_string();
        Some(ParsedName {
            given: parts.join(" "),
            family,
        })
    }

    impl ParsedName {
        fn initial(&self) -> Option<char> {
            self.given.chars().next()
        }

        fn is_abbreviated(&self) -> bool {
            self.given.chars().count() == 1
        }

        fn compatible(&self, other: &ParsedName) -> bool {
            if self.family != other.family {
                return false;
            }
            if self.given == other.given {
                return true;
            }
            match (self.initial(), other.initial()) {
                (Some(a), Some(b)) if a == b => self.is_abbreviated() || other.is_abbreviated(),
                _ => false,
            }
        }
    }

    #[derive(Default)]
    pub struct AuthorRecord {
        name: String,
        institutions: Vec<String>,
        countries: Vec<String>,
        publication_titles: Vec<String>,
        coauthor_names: Vec<String>,
    }

    impl AuthorRecord {
        pub fn from_parts(
            name: &str,
            typed_affiliation: Option<&str>,
            typed_country: Option<&str>,
            profile: Option<&MergedCandidate>,
        ) -> Self {
            let mut rec = AuthorRecord {
                name: name.to_string(),
                ..Default::default()
            };
            if let Some(a) = typed_affiliation {
                rec.institutions.push(a.to_string());
            }
            if let Some(c) = typed_country {
                rec.countries.push(normalize_label(c));
            }
            if let Some(p) = profile {
                if let Some(a) = &p.affiliation {
                    rec.institutions.push(a.clone());
                }
                if let Some(c) = &p.country {
                    rec.countries.push(normalize_label(c));
                }
                for h in &p.affiliation_history {
                    rec.institutions.push(h.institution.clone());
                    rec.countries.push(normalize_label(&h.country));
                }
                for publ in &p.publications {
                    rec.publication_titles.push(normalize_label(&publ.title));
                    for co in &publ.coauthor_names {
                        rec.coauthor_names.push(co.clone());
                    }
                }
            }
            rec.countries.sort();
            rec.countries.dedup();
            rec
        }
    }

    pub fn check_coi(
        candidate: &MergedCandidate,
        authors: &[AuthorRecord],
        config: &CoiConfig,
    ) -> CoiVerdict {
        let mut reasons = Vec::new();
        let cand_name = parse_name(&candidate.display_name);
        let cand_titles: Vec<String> = candidate
            .publications
            .iter()
            .map(|p| normalize_label(&p.title))
            .collect();
        let cand_coauthors: Vec<_> = candidate
            .publications
            .iter()
            .flat_map(|p| p.coauthor_names.iter())
            .filter_map(|n| parse_name(n))
            .collect();
        let mut cand_institutions: Vec<String> = Vec::new();
        if let Some(a) = &candidate.affiliation {
            cand_institutions.push(a.clone());
        }
        for h in &candidate.affiliation_history {
            cand_institutions.push(h.institution.clone());
        }
        let mut cand_countries: Vec<String> = Vec::new();
        if let Some(c) = &candidate.country {
            cand_countries.push(normalize_label(c));
        }
        for h in &candidate.affiliation_history {
            cand_countries.push(normalize_label(&h.country));
        }
        cand_countries.sort();
        cand_countries.dedup();

        for author in authors {
            let author_name = parse_name(&author.name);
            let same_person = match (&cand_name, &author_name) {
                (Some(a), Some(b)) => a.compatible(b),
                _ => false,
            };

            if config.coauthorship {
                let name_link = same_person
                    || author_name
                        .as_ref()
                        .is_some_and(|an| cand_coauthors.iter().any(|cn| cn.compatible(an)))
                    || cand_name.as_ref().is_some_and(|cn| {
                        author
                            .coauthor_names
                            .iter()
                            .filter_map(|n| parse_name(n))
                            .any(|an| an.compatible(cn))
                    });
                let title_link = !author.publication_titles.is_empty()
                    && cand_titles.iter().any(|t| {
                        author
                            .publication_titles
                            .iter()
                            .any(|at| at.as_str() == t.as_str())
                    });
                if name_link || title_link {
                    reasons.push(CoiReason::CoAuthorship {
                        author: author.name.clone(),
                    });
                    continue;
                }
            }
            match config.affiliation_level {
                AffiliationMatchLevel::Off => {}
                AffiliationMatchLevel::University => {
                    if let Some(inst) = shared_institution(
                        &cand_institutions,
                        &author.institutions,
                        config.institution_similarity,
                    ) {
                        reasons.push(CoiReason::SharedInstitution {
                            author: author.name.clone(),
                            institution: inst,
                        });
                    }
                }
                AffiliationMatchLevel::Country => {
                    if let Some(inst) = shared_institution(
                        &cand_institutions,
                        &author.institutions,
                        config.institution_similarity,
                    ) {
                        reasons.push(CoiReason::SharedInstitution {
                            author: author.name.clone(),
                            institution: inst,
                        });
                    } else if let Some(country) = author
                        .countries
                        .iter()
                        .find(|c| cand_countries.iter().any(|cc| cc == *c))
                    {
                        reasons.push(CoiReason::SharedCountry {
                            author: author.name.clone(),
                            country: country.clone(),
                        });
                    }
                }
            }
        }
        CoiVerdict { reasons }
    }

    fn shared_institution(a: &[String], b: &[String], min_similarity: f64) -> Option<String> {
        for x in a {
            for y in b {
                if token_jaccard(x, y) >= min_similarity {
                    return Some(x.clone());
                }
            }
        }
        None
    }

    pub fn is_pc_member(candidate: &MergedCandidate, pc: &[String]) -> bool {
        let Some(cand) = parse_name(&candidate.display_name) else {
            return false;
        };
        pc.iter()
            .filter_map(|n| parse_name(n))
            .any(|member| member.compatible(&cand))
    }

    pub fn filter_candidate(
        candidate: &MergedCandidate,
        keyword_score: f64,
        authors: &[AuthorRecord],
        config: &EditorConfig,
    ) -> FilterDecision {
        if keyword_score < config.keyword_score_threshold {
            return FilterDecision::Removed(FilterReason::KeywordScoreBelowThreshold {
                score: keyword_score,
                threshold: config.keyword_score_threshold,
            });
        }
        if !config.expertise.admits(
            candidate.metrics.citations,
            candidate.metrics.h_index,
            candidate.reviews.len() as u32,
        ) {
            return FilterDecision::Removed(FilterReason::ExpertiseConstraint);
        }
        if let Some(pc) = &config.pc_members {
            if !is_pc_member(candidate, pc) {
                return FilterDecision::Removed(FilterReason::NotOnProgrammeCommittee);
            }
        }
        let verdict = check_coi(candidate, authors, &config.coi);
        if verdict.conflicted() {
            return FilterDecision::Removed(FilterReason::ConflictOfInterest(verdict));
        }
        FilterDecision::Kept
    }

    fn best_match(set: &KeywordExpansionSet, labels: impl Iterator<Item = impl AsRef<str>>) -> f64 {
        labels
            .filter_map(|l| set.scores.get(l.as_ref()).copied())
            .fold(0.0, f64::max)
    }

    pub fn topic_coverage(candidate: &MergedCandidate, expansions: &[KeywordExpansionSet]) -> f64 {
        if expansions.is_empty() {
            return 0.0;
        }
        let mut labels: Vec<String> = candidate
            .interests
            .iter()
            .map(|i| normalize_label(i))
            .collect();
        for p in &candidate.publications {
            for k in &p.keywords {
                labels.push(normalize_label(k));
            }
        }
        let total: f64 = expansions
            .iter()
            .map(|e| best_match(e, labels.iter()))
            .sum();
        total / expansions.len() as f64
    }

    pub fn recency(
        candidate: &MergedCandidate,
        expansions: &[KeywordExpansionSet],
        current_year: u32,
        half_life_years: f64,
    ) -> f64 {
        if expansions.is_empty() || half_life_years <= 0.0 {
            return 0.0;
        }
        let mut total = 0.0;
        for e in expansions {
            let mut best = 0.0f64;
            for p in &candidate.publications {
                let sim = best_match(e, p.keywords.iter().map(|k| normalize_label(k)));
                if sim <= 0.0 {
                    continue;
                }
                let age = (current_year as f64 - p.year as f64).max(0.0);
                best = best.max(sim * 0.5f64.powf(age / half_life_years));
            }
            total += best;
        }
        total / expansions.len() as f64
    }

    const FAMILIARITY_CAP: f64 = 20.0;

    fn log_norm(value: f64, cap: f64) -> f64 {
        if value <= 0.0 {
            0.0
        } else {
            ((1.0 + value).ln() / (1.0 + cap).ln()).min(1.0)
        }
    }

    pub fn outlet_familiarity(candidate: &MergedCandidate, target_venue: &str) -> f64 {
        let target = normalize_label(target_venue);
        if target.is_empty() {
            return 0.0;
        }
        let reviews_for = candidate
            .reviews
            .iter()
            .filter(|r| normalize_label(&r.venue_name) == target)
            .count() as f64;
        let pubs_in = candidate
            .publications
            .iter()
            .filter(|p| normalize_label(&p.venue_name) == target)
            .count() as f64;
        log_norm(reviews_for + pubs_in, FAMILIARITY_CAP)
    }

    pub fn score_candidate(
        candidate: &MergedCandidate,
        expansions: &[KeywordExpansionSet],
        target_venue: &str,
        config: &EditorConfig,
    ) -> ScoreBreakdown {
        ScoreBreakdown {
            coverage: topic_coverage(candidate, expansions),
            impact: scientific_impact(candidate, config.impact_metric),
            recency: recency(
                candidate,
                expansions,
                config.current_year,
                config.recency_half_life_years,
            ),
            experience: review_experience(candidate),
            familiarity: outlet_familiarity(candidate, target_venue),
            responsiveness: responsiveness(candidate, config.current_year),
        }
    }
}

/// SplitMix64: every draw of a case comes from its seed alone.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
        options[self.below(options.len())]
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn some<T>(&mut self, percent: u64, value: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.chance(percent).then(|| value(self))
    }

    fn many<T>(&mut self, max: usize, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.below(max + 1);
        (0..n).map(|_| item(self)).collect()
    }
}

const GIVEN: &[&str] = &[
    "Lei",
    "Li",
    "Ming",
    "Ada",
    "Grace",
    "Zoë",
    "İlker",
    "Mohamed R.",
];
const FAMILY: &[&str] = &["Zhou", "Wang", "Lovelace", "Hopper", "Müller", "O'Brien"];
const UNPARSEABLE: &[&str] = &["Cher", "", "??", ",", "Zhou,", ", Lei", "  -  "];
const TITLES: &[&str] = &[
    "Scalable SPARQL Processing",
    "Scalable SPARQL Processing.",
    "scalable  sparql PROCESSING",
    "Scalable SPARQL Processings",
    "Notes on the Analytical Engine",
    "Notes on the Analytic Engine",
    "Deep Learning for Graphs",
    "Déjà Vu in Query Optimization",
    "",
];
const INSTITUTIONS: &[&str] = &[
    "University of Tartu",
    "university of tartu",
    "Tartu University",
    "University of Tartu, Estonia",
    "Institute of Computer Science, University of Tartu",
    "Tallinn University of Technology",
    "University of Oslo",
    "Universität Zürich",
    "",
];
const COUNTRIES: &[&str] = &[
    "Estonia", "estonia", "ESTONIA ", "Norway", "Portugal", "Schweiz",
];
const LABELS: &[&str] = &[
    "Semantic Web",
    "semantic-web",
    "Big Data",
    "RDF",
    "SPARQL",
    "Ontologies",
    "Query Processing",
    "Graph Neural Networks",
    "Ünïcode Topics",
];
const VENUES: &[&str] = &["Journal of X", "journal of x", "VLDB", "Nowhere", ""];

fn name(d: &mut Draw) -> String {
    let given = d.pick(GIVEN);
    let family = d.pick(FAMILY);
    match d.below(6) {
        0 | 1 => format!("{given} {family}"),
        2 => format!("{}. {family}", given.chars().next().expect("non-empty")),
        3 => format!("{family}, {given}"),
        4 => format!("  {}  {}! ", given.to_uppercase(), family.to_lowercase()),
        _ => d.pick(UNPARSEABLE).to_string(),
    }
}

fn publication(d: &mut Draw) -> Arc<SourcePublication> {
    Arc::new(SourcePublication {
        title: d.pick(TITLES).to_string(),
        year: 2000 + d.below(21) as u32,
        venue_name: d.pick(VENUES).to_string(),
        coauthor_names: d.many(4, name),
        keywords: d.many(3, |d| d.pick(LABELS).to_string()),
        citations: d.some(50, |d| d.below(100) as u32),
    })
}

fn candidate(d: &mut Draw) -> MergedCandidate {
    MergedCandidate {
        display_name: name(d),
        affiliation: d.some(80, |d| d.pick(INSTITUTIONS).to_string()),
        country: d.some(70, |d| d.pick(COUNTRIES).to_string()),
        affiliation_history: d.many(2, |d| AffiliationRecord {
            institution: d.pick(INSTITUTIONS).to_string(),
            country: d.pick(COUNTRIES).to_string(),
            from_year: 2000,
            to_year: 2010,
        }),
        interests: d.many(4, |d| d.pick(LABELS).to_string()),
        publications: d.many(5, publication),
        metrics: SourceMetrics {
            citations: d.some(80, |d| d.below(5_000) as u64),
            h_index: d.some(80, |d| d.below(60) as u32),
            i10_index: None,
        },
        reviews: d.many(4, |d| {
            Arc::new(SourceReview {
                venue_name: d.pick(VENUES).to_string(),
                year: 2005 + d.below(15) as u32,
                turnaround_days: 5 + d.below(100) as u32,
                quality: d.some(50, |d| 1 + d.below(5) as u8),
            })
        }),
        sources: vec![],
        keys: vec![],
        truths: vec![],
    }
}

/// One manuscript author: typed fields plus an optional verified profile,
/// built both ways.
fn author(d: &mut Draw) -> (AuthorRecord, reference::AuthorRecord) {
    let name = name(d);
    let typed_affiliation = d.some(60, |d| d.pick(INSTITUTIONS).to_string());
    let typed_country = d.some(60, |d| d.pick(COUNTRIES).to_string());
    let profile = d.some(70, candidate);
    let parts = (
        name.as_str(),
        typed_affiliation.as_deref(),
        typed_country.as_deref(),
        profile.as_ref(),
    );
    (
        AuthorRecord::from_parts(parts.0, parts.1, parts.2, parts.3),
        reference::AuthorRecord::from_parts(parts.0, parts.1, parts.2, parts.3),
    )
}

fn expansion_sets(d: &mut Draw) -> Vec<KeywordExpansionSet> {
    d.many(4, |d| {
        let original = d.pick(LABELS).to_string();
        let mut scores: HashMap<String, f64> = HashMap::new();
        for _ in 0..d.below(5) {
            let label = if d.chance(30) {
                format!("unseen topic {}", d.below(3))
            } else {
                reference::normalize_label(d.pick(LABELS))
            };
            let score = match d.below(4) {
                0 => 0.0,
                1 => 1.0,
                _ => d.unit(),
            };
            scores.insert(label, score);
        }
        scores.insert(reference::normalize_label(&original), 1.0);
        KeywordExpansionSet { original, scores }
    })
}

fn config(d: &mut Draw) -> EditorConfig {
    EditorConfig {
        coi: CoiConfig {
            coauthorship: d.chance(70),
            affiliation_level: [
                AffiliationMatchLevel::Off,
                AffiliationMatchLevel::University,
                AffiliationMatchLevel::Country,
            ][d.below(3)],
            institution_similarity: [0.0, 0.3, 0.5, 0.8, 1.0][d.below(5)],
        },
        keyword_score_threshold: [0.0, 0.5, 0.9][d.below(3)],
        expertise: ExpertiseConstraints {
            min_h_index: d.some(20, |d| d.below(20) as u32),
            max_citations: d.some(20, |d| d.below(4_000) as u64),
            ..Default::default()
        },
        impact_metric: if d.chance(50) {
            ImpactMetric::Citations
        } else {
            ImpactMetric::HIndex
        },
        recency_half_life_years: [5.0, 2.5, 0.0, -1.0][d.below(4)],
        current_year: 2018 + d.below(2) as u32,
        pc_members: d.some(40, |d| d.many(5, name)),
        ..Default::default()
    }
}

fn bits(b: &ScoreBreakdown) -> [u64; 6] {
    [
        b.coverage.to_bits(),
        b.impact.to_bits(),
        b.recency.to_bits(),
        b.experience.to_bits(),
        b.familiarity.to_bits(),
        b.responsiveness.to_bits(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn filter_decisions_match_the_per_candidate_definition(seed in any::<u64>()) {
        let mut d = Draw(seed);
        let config = config(&mut d);
        let (authors, reference_authors): (Vec<_>, Vec<_>) =
            d.many(3, author).into_iter().unzip();
        let filter = CandidateFilter::new(&authors, &config);
        for _ in 0..12 {
            let cand = candidate(&mut d);
            let keyword_score = d.unit();
            prop_assert_eq!(
                check_coi(&cand, &authors, &config.coi),
                reference::check_coi(&cand, &reference_authors, &config.coi)
            );
            prop_assert_eq!(
                filter.decide(&cand, keyword_score),
                reference::filter_candidate(&cand, keyword_score, &reference_authors, &config)
            );
        }
    }

    #[test]
    fn candidates_who_are_the_authors_or_their_coauthors_agree(seed in any::<u64>()) {
        // Candidates built from the authors' own names, titles and
        // institutions, so that most checks find a conflict.
        let mut d = Draw(seed);
        let config = config(&mut d);
        let (authors, reference_authors): (Vec<_>, Vec<_>) =
            (0..1 + d.below(2)).map(|_| author(&mut d)).unzip();
        let filter = CandidateFilter::new(&authors, &config);
        for _ in 0..12 {
            let mut cand = candidate(&mut d);
            let pick = d.below(authors.len());
            match d.below(3) {
                0 => cand.display_name = authors[pick].name().to_string(),
                1 => {
                    let mut p = (*publication(&mut d)).clone();
                    p.coauthor_names.push(authors[pick].name().to_string());
                    cand.publications.push(Arc::new(p));
                }
                _ => cand.affiliation = Some(d.pick(INSTITUTIONS).to_string()),
            }
            prop_assert_eq!(
                filter.decide(&cand, 1.0),
                reference::filter_candidate(&cand, 1.0, &reference_authors, &config)
            );
        }
    }

    #[test]
    fn scores_are_bitwise_equal_to_the_per_candidate_definition(seed in any::<u64>()) {
        let mut d = Draw(seed);
        let config = config(&mut d);
        let sets = expansion_sets(&mut d);
        let venue = d.pick(VENUES);
        let scorer = CandidateScorer::new(&sets, venue, &config);
        for _ in 0..12 {
            let cand = candidate(&mut d);
            let got = scorer.score(&cand);
            let want = reference::score_candidate(&cand, &sets, venue, &config);
            prop_assert!(bits(&got) == bits(&want), "{:?} vs {:?}", got, want);
            prop_assert_eq!(
                got.total(&config.weights).to_bits(),
                want.total(&config.weights).to_bits()
            );
        }
    }
}

/// Every affiliation level and PC setting, on fixed inputs whose
/// verdicts are known, so a generator drift cannot hollow the suite out.
#[test]
fn every_level_and_pc_setting_is_exercised() {
    let mut d = Draw(7);
    let (authors, reference_authors): (Vec<_>, Vec<_>) = vec![(
        AuthorRecord::from_parts(
            "Lei Zhou",
            Some("University of Tartu"),
            Some("Estonia"),
            None,
        ),
        reference::AuthorRecord::from_parts(
            "Lei Zhou",
            Some("University of Tartu"),
            Some("Estonia"),
            None,
        ),
    )]
    .into_iter()
    .unzip();
    let mut outcomes = std::collections::BTreeSet::new();
    for level in [
        AffiliationMatchLevel::Off,
        AffiliationMatchLevel::University,
        AffiliationMatchLevel::Country,
    ] {
        for coauthorship in [false, true] {
            for pc in [
                None,
                Some(vec!["L. Zhou".to_string(), "Ada Lovelace".into()]),
            ] {
                let config = EditorConfig {
                    coi: CoiConfig {
                        coauthorship,
                        affiliation_level: level,
                        ..Default::default()
                    },
                    pc_members: pc,
                    ..Default::default()
                };
                let filter = CandidateFilter::new(&authors, &config);
                for _ in 0..64 {
                    let cand = candidate(&mut d);
                    let got = filter.decide(&cand, 1.0);
                    assert_eq!(
                        got,
                        reference::filter_candidate(&cand, 1.0, &reference_authors, &config)
                    );
                    outcomes.insert(match &got {
                        FilterDecision::Kept => "kept",
                        FilterDecision::Removed(FilterReason::NotOnProgrammeCommittee) => {
                            "not on PC"
                        }
                        FilterDecision::Removed(FilterReason::ConflictOfInterest(v)) => {
                            match v.reasons[0] {
                                CoiReason::CoAuthorship { .. } => "co-authorship",
                                CoiReason::SharedInstitution { .. } => "institution",
                                CoiReason::SharedCountry { .. } => "country",
                            }
                        }
                        FilterDecision::Removed(_) => "other",
                    });
                }
            }
        }
    }
    for outcome in [
        "kept",
        "not on PC",
        "co-authorship",
        "institution",
        "country",
    ] {
        assert!(
            outcomes.contains(outcome),
            "{outcome} never decided: {outcomes:?}"
        );
    }
}
