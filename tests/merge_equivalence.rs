//! Candidates are handles on their merge bucket's profiles: every merged
//! field is read from the profiles, and only the best metrics and, where
//! the dedupe drops a copy, the kept copies are stored. Retrieval keeps
//! each candidate's best label score and lists matched labels for the
//! ranked candidates only. This suite pins both against the code they
//! replaced.
//!
//! `reference` is the merge that copied every field into the candidate
//! (shared with the scholarly crate's unit tests, which add titles filed
//! under one key). Buckets are drawn from small vocabularies built to
//! collide: one person across sources, full, abbreviated and comma-form
//! names, titles equal only after normalization, a profile listing one
//! review twice by value, conflated truths, absent affiliations and
//! countries, and ORCID histories repeated across profiles. Every
//! accessor must equal the reference's field, element for element and
//! copy for copy, and the candidates must print and sort the same.
//!
//! `retrieval` is the candidate retrieval as it stood, which collected
//! every candidate's matched labels by key text. Over real fan-outs,
//! each candidate's keyword score must be bitwise equal to it, and every
//! ranked candidate's matched labels equal to its list.

use std::collections::HashMap;
use std::sync::Arc;

use minaret::core::{AuthorInput, EditorConfig, ManuscriptDetails, Minaret};
use minaret::ontology::{normalize_label, KeywordExpander, Ontology};
use minaret::scholarly::{
    merge_profiles, AffiliationRecord, Institution, Label, MergedCandidate, NormalizedLabel,
    PersonName, RegistryConfig, SimulatedSource, SourceKind, SourceMetrics, SourceProfile,
    SourcePublication, SourceRegistry, SourceReview, SourceSpec,
};
use minaret::synth::{ScholarId, SubmissionGenerator, World, WorldConfig, WorldGenerator};

#[path = "../crates/scholarly/tests/reference/merge.rs"]
mod reference;

/// The retrieval's bookkeeping as it stood before candidates kept their
/// profiles: hits sorted by key text, and every candidate's matched
/// labels collected by binary search on its keys.
mod retrieval {
    use std::sync::Arc;

    use minaret::scholarly::SourceProfile;

    use super::reference;

    /// A merged candidate with its matched labels and keyword score.
    pub struct Candidate {
        pub merged: reference::Candidate,
        pub matched_keywords: Vec<(String, f64)>,
        pub keyword_score: f64,
    }

    pub fn retrieve(
        sorted_labels: &[(String, f64)],
        by_label: &[(Arc<str>, Vec<Arc<SourceProfile>>)],
    ) -> Vec<Candidate> {
        let mut hits: Vec<(&Arc<SourceProfile>, usize)> = (0..)
            .zip(by_label)
            .flat_map(|(label, (_, profiles))| profiles.iter().map(move |p| (p, label)))
            .collect();
        hits.sort_unstable_by(|a, b| (&a.0.key, a.0.source, a.1).cmp(&(&b.0.key, b.0.source, b.1)));
        let mut profiles: Vec<Arc<SourceProfile>> = Vec::with_capacity(hits.len());
        for &(p, _) in &hits {
            if profiles
                .last()
                .is_none_or(|last| (&last.key, last.source) != (&p.key, p.source))
            {
                profiles.push(Arc::clone(p));
            }
        }

        let merged = reference::merge_profiles(profiles);
        let mut matched: Vec<usize> = Vec::new();
        merged
            .into_iter()
            .map(|m| {
                matched.clear();
                for key in &m.keys {
                    let first = hits.partition_point(|(p, _)| p.key < *key);
                    matched.extend(
                        hits[first..]
                            .iter()
                            .take_while(|(p, _)| p.key == *key)
                            .map(|&(_, label)| label),
                    );
                }
                matched.sort_unstable_by(|&a, &b| {
                    sorted_labels[b]
                        .1
                        .partial_cmp(&sorted_labels[a].1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                matched.dedup();
                let keyword_score = matched.first().map(|&l| sorted_labels[l].1).unwrap_or(0.0);
                let matched_keywords = matched.iter().map(|&l| sorted_labels[l].clone()).collect();
                Candidate {
                    merged: m,
                    matched_keywords,
                    keyword_score,
                }
            })
            .collect()
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

    fn some<T>(&mut self, percent: u64, value: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.chance(percent).then(|| value(self))
    }

    fn many<T>(&mut self, max: usize, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let n = self.below(max + 1);
        (0..n).map(|_| item(self)).collect()
    }
}

/// One person's name forms, another's sharing the key, and a name the
/// parser rejects.
const NAMES: &[&str] = &[
    "Lei Zhou",
    "L. Zhou",
    "Zhou, Lei",
    "Zhou, L.",
    "Li Zhou",
    "Ada Lovelace",
    "A. Lovelace",
    "Cher",
];
const INSTITUTIONS: &[&str] = &[
    "University of Tartu",
    "university of tartu",
    "University of Oslo",
];
const COUNTRIES: &[&str] = &["Estonia", "estonia", "Norway"];
/// Titles equal only after normalization, and near misses.
const TITLES: &[&str] = &[
    "Scalable SPARQL Processing",
    "scalable  sparql PROCESSING",
    "Scalable SPARQL Processing.",
    "Scalable SPARQL Processings",
    "Notes on the Analytical Engine",
    "Deep Learning for Graphs",
];
const LABELS: &[&str] = &["Semantic Web", "semantic-web", "Big Data", "RDF", "SPARQL"];
const VENUES: &[&str] = &["Journal of X", "journal of x", "VLDB"];

fn review(d: &mut Draw) -> Arc<SourceReview> {
    Arc::new(SourceReview::new(
        Arc::new(Label::new(d.pick(VENUES))),
        2016 + d.below(2) as u32,
        [10, 20][d.below(2)],
        d.some(70, |d| 3 + d.below(2) as u8),
    ))
}

/// A drawn profile, keyed `{prefix}:{index}` so that keys are unique.
fn profile(d: &mut Draw, index: usize) -> SourceProfile {
    let source = SourceKind::ALL[d.below(SourceKind::ALL.len())];
    let mut profile = SourceProfile::new(
        source,
        format!("{}:{index}", source.prefix()),
        Arc::new(PersonName::new(d.pick(NAMES))),
        d.some(80, |d| Arc::new(Institution::new(d.pick(INSTITUTIONS)))),
        d.some(70, |d| Arc::new(Label::new(d.pick(COUNTRIES)))),
        d.many(3, |d| Arc::new(Label::new(d.pick(LABELS)))),
        ScholarId(d.below(3) as u32),
    );
    let publications = d.many(6, |d| {
        Arc::new(SourcePublication::new(
            d.pick(TITLES).to_string(),
            2010 + d.below(8) as u32,
            Arc::new(Label::new(d.pick(VENUES))),
            vec![],
            d.many(2, |d| Arc::new(Label::new(d.pick(LABELS)))),
            d.some(50, |d| d.below(100) as u32),
        ))
    });
    let mut reviews = d.many(4, review);
    // The same review listed twice: a second record equal by value.
    if !reviews.is_empty() && d.chance(30) {
        let twin = reviews[d.below(reviews.len())].as_ref().clone();
        reviews.insert(d.below(reviews.len() + 1), Arc::new(twin));
    }
    profile = profile
        .with_publications(publications)
        .with_reviews(reviews);
    if source == SourceKind::Orcid || d.chance(10) {
        profile.affiliation_history = d.many(3, |d| {
            AffiliationRecord::new(
                Arc::new(Institution::new(d.pick(INSTITUTIONS))),
                Arc::new(Label::new(d.pick(COUNTRIES))),
                2005 + d.below(2) as u32,
                2010,
            )
        });
    }
    profile.metrics = SourceMetrics {
        citations: d.some(70, |d| d.below(5_000) as u64),
        h_index: d.some(70, |d| d.below(60) as u32),
        i10_index: d.some(50, |d| d.below(40) as u32),
    };
    profile
}

/// What the drawn buckets exercised, so that a generator drift cannot
/// hollow the suite out.
#[derive(Default, Debug)]
struct Seen {
    multi_source: usize,
    name_forms: usize,
    titles_dropped: usize,
    reviews_listed_twice: usize,
    conflated: usize,
    no_affiliation: usize,
    no_country: usize,
    histories_deduped: usize,
}

#[test]
fn every_accessor_reads_what_the_copying_merge_stored() {
    let mut seen = Seen::default();
    for seed in 0..1500 {
        let mut d = Draw(seed);
        let mut profiles: Vec<Arc<SourceProfile>> = (0..1 + d.below(8))
            .map(|i| Arc::new(profile(&mut d, i)))
            .collect();
        let rotation = d.below(profiles.len());
        profiles.rotate_left(rotation);

        let merged = merge_profiles(profiles.clone());
        let want = reference::merge_profiles(profiles.clone());
        reference::assert_same_merge(&merged, &want);
        for (cand, want) in merged.iter().zip(&want) {
            assert_eq!(
                &MergedCandidate::from_profiles(cand.profiles().to_vec()),
                cand,
                "seed {seed}"
            );
            let profiles = cand.profiles();
            seen.multi_source += usize::from(want.sources.len() > 1);
            seen.name_forms += usize::from(
                profiles
                    .iter()
                    .any(|p| p.display_name() != profiles[0].display_name()),
            );
            let listed: usize = profiles.iter().map(|p| p.publications().len()).sum();
            seen.titles_dropped += usize::from(want.publications.len() < listed);
            seen.reviews_listed_twice += profiles
                .iter()
                .filter(|p| {
                    let reviews = p.reviews();
                    (1..reviews.len()).any(|i| reviews[..i].contains(&reviews[i]))
                })
                .count();
            seen.conflated += usize::from(want.truths.len() > 1);
            seen.no_affiliation += usize::from(want.affiliation.is_none());
            seen.no_country += usize::from(want.country.is_none());
            let histories: usize = profiles.iter().map(|p| p.affiliation_history.len()).sum();
            seen.histories_deduped += usize::from(want.affiliation_history.len() < histories);
        }
    }
    let counts = [
        seen.multi_source,
        seen.name_forms,
        seen.titles_dropped,
        seen.reviews_listed_twice,
        seen.conflated,
        seen.no_affiliation,
        seen.no_country,
        seen.histories_deduped,
    ];
    assert!(counts.iter().all(|&n| n >= 50), "{seen:?}");
}

#[test]
fn candidates_print_and_order_like_the_copying_merge_under_any_input_order() {
    for seed in 0..200 {
        let mut d = Draw(seed + 10_000);
        let profiles: Vec<Arc<SourceProfile>> =
            (0..12).map(|i| Arc::new(profile(&mut d, i))).collect();
        let want: Vec<String> = reference::merge_profiles(profiles.clone())
            .iter()
            .map(|c| format!("{c:?}"))
            .collect();
        for rotation in [0, 5, 11] {
            let mut input = profiles.clone();
            input.rotate_left(rotation);
            input.reverse();
            let got: Vec<String> = merge_profiles(input)
                .iter()
                .map(|c| format!("{c:?}"))
                .collect();
            assert_eq!(got, want, "seed {seed}, rotation {rotation}");
        }
    }
}

/// The labels a `recommend` call searches, each with its best score:
/// the pipeline's expansion, repeated.
fn searched_labels(
    ontology: &Ontology,
    config: &EditorConfig,
    keywords: &[String],
) -> Vec<(String, f64)> {
    let expander = KeywordExpander::new(ontology, config.expansion);
    let mut labels: HashMap<String, f64> = HashMap::new();
    for kw in keywords.iter().filter(|k| !k.trim().is_empty()) {
        let mut scores: HashMap<String, f64> = HashMap::new();
        if let Ok(exps) = expander.expand(kw) {
            for e in &exps {
                scores
                    .entry(normalize_label(&e.label))
                    .and_modify(|s| *s = s.max(e.score))
                    .or_insert(e.score);
            }
        }
        scores.insert(normalize_label(kw), 1.0);
        for (label, score) in scores {
            labels
                .entry(label)
                .and_modify(|s| *s = s.max(score))
                .or_insert(score);
        }
    }
    let mut sorted: Vec<(String, f64)> = labels.into_iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    sorted
}

fn manuscript(world: &World, seed: u64) -> ManuscriptDetails {
    let sub = SubmissionGenerator::new(world, seed)
        .generate()
        .expect("the world yields submissions");
    ManuscriptDetails {
        title: sub.title.clone(),
        keywords: sub.keywords.clone(),
        authors: sub
            .authors
            .iter()
            .map(|&id| {
                let s = world.scholar(id);
                let inst = world.institution(s.current_affiliation());
                AuthorInput::named(s.full_name())
                    .with_affiliation(inst.name.clone())
                    .with_country(inst.country.clone())
            })
            .collect(),
        target_venue: world.venue(sub.target_venue).name.clone(),
    }
}

#[test]
fn keyword_scores_and_matched_labels_equal_the_key_text_retrieval() {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(1_500)).generate());
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    let registry = Arc::new(registry);
    let ontology = Arc::new(minaret::ontology::seed::curated_cs_ontology());
    let (mut compared, mut ranked) = (0, 0);
    for seed in 0..6 {
        let m = manuscript(&world, seed);
        // Every kept candidate is ranked, so every candidate shows its
        // score: a filtered one in its profile, a ranked one as its best
        // matched label.
        for max_recommendations in [20, usize::MAX] {
            let config = EditorConfig {
                max_recommendations,
                ..Default::default()
            };
            let minaret = Minaret::new(registry.clone(), ontology.clone(), config.clone());
            let Ok(report) = minaret.recommend(&m) else {
                continue;
            };
            let labels = searched_labels(&ontology, &config, &m.keywords);
            let names: Vec<String> = labels.iter().map(|(l, _)| l.clone()).collect();
            let fanout = registry.search_by_interests_report(&names);
            let want = retrieval::retrieve(&labels, &fanout.by_label);
            assert_eq!(report.candidates_retrieved, want.len(), "seed {seed}");
            let by_keys: HashMap<&[String], &retrieval::Candidate> =
                want.iter().map(|w| (w.merged.keys.as_slice(), w)).collect();
            let find = |cand: &MergedCandidate| {
                let keys: Vec<String> = cand.keys().map(str::to_string).collect();
                by_keys[keys.as_slice()]
            };
            for (cand, _) in &report.filtered_out {
                let w = find(&cand.merged);
                reference::assert_same(&cand.merged, &w.merged);
                assert_eq!(cand.keyword_score.to_bits(), w.keyword_score.to_bits());
                compared += 1;
            }
            for rec in &report.recommendations {
                let w = find(&rec.candidate);
                reference::assert_same(&rec.candidate, &w.merged);
                assert_eq!(rec.matched_keywords.len(), w.matched_keywords.len());
                for ((label, score), (want_label, want_score)) in
                    rec.matched_keywords.iter().zip(&w.matched_keywords)
                {
                    assert_eq!(label, want_label);
                    assert_eq!(score.to_bits(), want_score.to_bits());
                }
                compared += 1;
                ranked += 1;
            }
            if max_recommendations == usize::MAX {
                assert_eq!(
                    report.filtered_out.len() + report.recommendations.len(),
                    want.len(),
                    "seed {seed}: every candidate is compared"
                );
            }
        }
    }
    assert!(
        compared > 2_000 && ranked > 1_000,
        "{compared} compared, {ranked} ranked"
    );
}

#[test]
fn interest_forms_hold_the_sorted_union() {
    let with_interests = |key: &str, interests: &[&str]| {
        Arc::new(SourceProfile::new(
            SourceKind::GoogleScholar,
            key.into(),
            Arc::new(PersonName::new("Lei Zhou")),
            Some(Arc::new(Institution::new("U"))),
            None,
            interests.iter().map(|i| Arc::new(Label::new(i))).collect(),
            ScholarId(1),
        ))
    };
    let cand = MergedCandidate::from_profiles(vec![
        with_interests("gs:2", &["RDF", "Semantic Web", "rdf"]),
        with_interests("gs:1", &["semantic-web", "Big Data"]),
    ]);
    let mut forms: Vec<&NormalizedLabel> = cand.interest_forms().collect();
    assert_eq!(forms.len(), 5);
    forms.sort();
    forms.dedup();
    assert!(cand.interests().eq(forms));
    assert!(cand.interests().eq(["big data", "rdf", "semantic web"]));
}
