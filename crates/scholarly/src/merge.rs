//! Merging per-source profiles into candidate records.
//!
//! One person yields up to six profiles, each partial and differently
//! keyed. A scraper has no shared identifier, so profiles are merged by
//! *(normalized display name, affiliation)* — which means name collisions
//! can wrongly merge two people, exactly the failure mode §2.1's identity
//! verification exists to catch. The evaluation harness measures how often
//! that happens using the profiles' ground-truth labels.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use minaret_ontology::normalize_label;
use minaret_synth::ScholarId;

use crate::name::ParsedName;
use crate::record::{
    AffiliationRecord, SourceMetrics, SourceProfile, SourcePublication, SourceReview,
};
use crate::spec::SourceKind;
use crate::vocab::{Institution, NormalizedLabel, PersonName};

/// A candidate reviewer assembled from one or more source profiles.
///
/// Besides the merged data, a candidate carries the comparison forms of
/// its identity: the parsed display name, a token set per institution
/// and each country in normal form. [`merge_profiles`] takes them from
/// the profiles' shared entries; [`MergedCandidate::new`] builds them
/// from text. The text fields they come from (`display_name`,
/// `affiliation`, `country`, `affiliation_history`) are public to read;
/// a caller that wants other values builds another candidate.
#[derive(Clone, PartialEq)]
pub struct MergedCandidate {
    /// The best (longest) display name observed.
    pub display_name: String,
    /// Current affiliation, if any source provided one.
    pub affiliation: Option<String>,
    /// Country of the current affiliation, if known.
    pub country: Option<String>,
    /// Union of affiliation histories (ORCID usually the sole
    /// contributor).
    pub affiliation_history: Vec<AffiliationRecord>,
    /// Union of research interests across sources (normalized, deduped,
    /// sorted).
    pub interests: Vec<NormalizedLabel>,
    /// Union of publications, deduplicated by normalized title.
    /// `Arc`-shared with the source profiles that contributed them.
    pub publications: Vec<Arc<SourcePublication>>,
    /// Best available metrics (max across sources, since every source
    /// under-counts relative to the truth).
    pub metrics: SourceMetrics,
    /// Union of review records, `Arc`-shared like `publications`.
    pub reviews: Vec<Arc<SourceReview>>,
    /// Which sources contributed.
    pub sources: Vec<SourceKind>,
    /// Per-source profile keys that were merged.
    pub keys: Vec<String>,
    /// Ground-truth identities observed among merged profiles.
    ///
    /// **Evaluation-only** (never read by the framework). More than one
    /// entry means the name-based merge conflated distinct people.
    pub truths: Vec<ScholarId>,
    name: Arc<PersonName>,
    affiliation_entry: Option<Arc<Institution>>,
    country_entry: Option<NormalizedLabel>,
}

impl MergedCandidate {
    /// A candidate named `display_name` at `affiliation` in `country`,
    /// with `affiliation_history`. Interests, publications, metrics,
    /// reviews, sources, keys and truths start empty; they are plain
    /// data, set directly.
    pub fn new(
        display_name: &str,
        affiliation: Option<&str>,
        country: Option<&str>,
        affiliation_history: Vec<AffiliationRecord>,
    ) -> Self {
        MergedCandidate {
            display_name: display_name.to_string(),
            affiliation: affiliation.map(str::to_string),
            country: country.map(str::to_string),
            affiliation_history,
            interests: Vec::new(),
            publications: Vec::new(),
            metrics: SourceMetrics::default(),
            reviews: Vec::new(),
            sources: Vec::new(),
            keys: Vec::new(),
            truths: Vec::new(),
            name: Arc::new(PersonName::new(display_name)),
            affiliation_entry: affiliation.map(|a| Arc::new(Institution::new(a))),
            country_entry: country.map(NormalizedLabel::new),
        }
    }

    /// True when the merge conflated profiles of different real people.
    pub fn is_conflated(&self) -> bool {
        self.truths.len() > 1
    }

    /// The majority ground-truth identity (evaluation-only), i.e. the
    /// person most of the merged profiles belong to.
    pub fn dominant_truth(&self) -> Option<ScholarId> {
        self.truths.first().copied()
    }

    /// The parsed display name, when it parses.
    pub fn parsed_name(&self) -> Option<&ParsedName> {
        debug_assert_eq!(
            self.name.text(),
            self.display_name,
            "display_name changed after construction"
        );
        self.name.parsed()
    }

    /// The current affiliation, then every history entry's institution,
    /// each with its token set.
    pub fn institutions(&self) -> impl Iterator<Item = &Institution> {
        debug_assert_eq!(
            self.affiliation_entry.as_deref().map(Institution::text),
            self.affiliation.as_deref(),
            "affiliation changed after construction"
        );
        self.affiliation_entry.as_deref().into_iter().chain(
            self.affiliation_history
                .iter()
                .map(|h| &**h.institution_entry()),
        )
    }

    /// The current country, then every history entry's, in normal form.
    pub fn countries(&self) -> impl Iterator<Item = &NormalizedLabel> {
        debug_assert_eq!(
            self.country_entry.is_some(),
            self.country.is_some(),
            "country changed after construction"
        );
        self.country_entry.iter().chain(
            self.affiliation_history
                .iter()
                .map(|h| h.country_entry().normalized()),
        )
    }
}

/// Prints the merged data only; the comparison forms are functions of
/// it.
impl fmt::Debug for MergedCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MergedCandidate")
            .field("display_name", &self.display_name)
            .field("affiliation", &self.affiliation)
            .field("country", &self.country)
            .field("affiliation_history", &self.affiliation_history)
            .field("interests", &self.interests)
            .field("publications", &self.publications)
            .field("metrics", &self.metrics)
            .field("reviews", &self.reviews)
            .field("sources", &self.sources)
            .field("keys", &self.keys)
            .field("truths", &self.truths)
            .finish()
    }
}

/// The merge key of a profile: first initial of the given name, family
/// name and normalized affiliation, as `initial|family|affiliation`.
/// [`SourceProfile::new`] stores it on the profile.
///
/// Abbreviated display names ("L. Zhou") and comma forms ("Zhou, Lei")
/// land in the same bucket as "Lei Zhou" at the same institution, while
/// "Lei Zhou" at another university stays separate (until country-level
/// checks catch it later). A name [`crate::name::parse_name`] rejects
/// keys on its last normalized token, with initial `?`.
pub(crate) fn merge_key(display_name: &PersonName, affiliation: Option<&Institution>) -> String {
    let (initial, family) = match display_name.parsed() {
        Some(name) => (name.initial().unwrap_or('?'), name.family.clone()),
        None => {
            let norm = normalize_label(display_name.text());
            let last = norm.rsplit(' ').next().unwrap_or_default().to_string();
            ('?', last)
        }
    };
    let aff = affiliation.map(Institution::normalized).unwrap_or_default();
    format!("{initial}|{family}|{aff}")
}

/// Merges source profiles into candidates keyed by
/// (name-initial, family name, affiliation). Input profiles are
/// `Arc`-shared (the shape every source hands out) and carry their merge
/// key, so bucketing borrows; no key string is built per merge.
pub fn merge_profiles(profiles: Vec<Arc<SourceProfile>>) -> Vec<MergedCandidate> {
    let mut buckets: HashMap<&str, Vec<&SourceProfile>> = HashMap::with_capacity(profiles.len());
    for p in &profiles {
        buckets.entry(p.merge_key()).or_default().push(p);
    }
    let mut out: Vec<MergedCandidate> = buckets.into_values().map(merge_bucket).collect();
    // Deterministic order for downstream phases regardless of input
    // permutation. (display_name, keys, affiliation) almost always
    // suffices; for a pair that ties on all three, fall back to a total
    // structural order via the Debug rendering. That rendering spells out
    // every publication and review, so it is built only for such a pair,
    // never per candidate.
    out.sort_by(|a, b| {
        (&a.display_name, &a.keys, &a.affiliation)
            .cmp(&(&b.display_name, &b.keys, &b.affiliation))
            .then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
    });
    out
}

fn merge_bucket(mut profiles: Vec<&SourceProfile>) -> MergedCandidate {
    profiles.sort_by(|a, b| a.source.cmp(&b.source).then(a.key.cmp(&b.key)));
    // The longest display name wins (the last of equally long ones), and
    // its entry brings its parse.
    let name = profiles
        .iter()
        .max_by_key(|p| p.display_name().len())
        .expect("a bucket holds at least one profile")
        .display_name_entry()
        .clone();
    let affiliation = profiles.iter().find_map(|p| p.affiliation_entry());
    let country = profiles.iter().find_map(|p| p.country_entry());

    let mut affiliation_history = Vec::new();
    for p in &profiles {
        for a in &p.affiliation_history {
            if !affiliation_history.contains(a) {
                affiliation_history.push(a.clone());
            }
        }
    }

    // Interests union by their stored normal form, in text order;
    // cloning one shares its text.
    let mut interests: Vec<&NormalizedLabel> = profiles
        .iter()
        .flat_map(|p| p.interests())
        .map(|i| i.normalized())
        .collect();
    interests.sort_unstable();
    interests.dedup();

    // Publications dedupe by their stored title key, confirmed on the
    // normalized title; the first listed copy is kept. A bucket lists a
    // few hundred copies at most (221 in the 10^4-scholar benchmark
    // world), so each copy scans the kept keys, one array of integers,
    // instead of hashing into a per-bucket map.
    let listed: usize = profiles.iter().map(|p| p.publications.len()).sum();
    let mut kept_keys: Vec<u64> = Vec::with_capacity(listed);
    let mut publications: Vec<Arc<SourcePublication>> = Vec::with_capacity(listed);
    for publ in profiles.iter().flat_map(|p| &p.publications) {
        let (key, title) = (publ.title_key(), publ.normalized_title());
        let duplicate = kept_keys
            .iter()
            .zip(&publications)
            .any(|(&k, kept)| k == key && kept.normalized_title() == title);
        if !duplicate {
            kept_keys.push(key);
            publications.push(publ.clone());
        }
    }

    let metrics = SourceMetrics {
        citations: profiles.iter().filter_map(|p| p.metrics.citations).max(),
        h_index: profiles.iter().filter_map(|p| p.metrics.h_index).max(),
        i10_index: profiles.iter().filter_map(|p| p.metrics.i10_index).max(),
    };

    let mut reviews = Vec::new();
    for p in &profiles {
        for r in &p.reviews {
            if !reviews.contains(r) {
                reviews.push(r.clone());
            }
        }
    }

    let mut sources: Vec<SourceKind> = profiles.iter().map(|p| p.source).collect();
    sources.dedup();
    let keys = profiles.iter().map(|p| p.key.clone()).collect();

    // Truth labels ordered by frequency (majority first), then id. A
    // bucket holds a handful of profiles, so counting scans a list.
    let mut counts: Vec<(ScholarId, usize)> = Vec::with_capacity(profiles.len());
    for p in &profiles {
        match counts.iter_mut().find(|(id, _)| *id == p.truth) {
            Some((_, n)) => *n += 1,
            None => counts.push((p.truth, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let truths = counts.into_iter().map(|(id, _)| id).collect();

    MergedCandidate {
        display_name: name.text().to_string(),
        affiliation: affiliation.map(|a| a.text().to_string()),
        country: country.map(|c| c.text().to_string()),
        affiliation_history,
        interests: interests.into_iter().cloned().collect(),
        publications,
        metrics,
        reviews,
        sources,
        keys,
        truths,
        name,
        affiliation_entry: affiliation.cloned(),
        country_entry: country.map(|c| c.normalized().clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::Vocabulary;

    fn arcs(ps: Vec<SourceProfile>) -> Vec<Arc<SourceProfile>> {
        ps.into_iter().map(Arc::new).collect()
    }

    fn with_interests(
        source: SourceKind,
        name: &str,
        aff: &str,
        truth: u32,
        interests: &[&str],
    ) -> SourceProfile {
        let v = Vocabulary::new();
        SourceProfile::new(
            source,
            format!("{}:{truth}", source.prefix()),
            v.name(name),
            Some(v.institution(aff)),
            Some(v.label("Estonia")),
            interests.iter().map(|i| v.label(i)).collect(),
            ScholarId(truth),
        )
    }

    fn profile(source: SourceKind, name: &str, aff: &str, truth: u32) -> SourceProfile {
        with_interests(source, name, aff, truth, &[])
    }

    fn publication(title: &str, year: u32, citations: Option<u32>) -> Arc<SourcePublication> {
        Arc::new(SourcePublication::new(
            title.into(),
            year,
            Vocabulary::new().label("J"),
            vec![],
            vec![],
            citations,
        ))
    }

    #[test]
    fn same_person_across_sources_merges() {
        let a = profile(
            SourceKind::GoogleScholar,
            "Lei Zhou",
            "University of Tartu",
            1,
        );
        let b = profile(SourceKind::Dblp, "Lei Zhou", "University of Tartu", 1);
        let merged = merge_profiles(arcs(vec![a, b]));
        assert_eq!(merged.len(), 1);
        assert_eq!(
            merged[0].sources,
            vec![SourceKind::GoogleScholar, SourceKind::Dblp]
        );
        assert!(!merged[0].is_conflated());
        assert_eq!(merged[0].dominant_truth(), Some(ScholarId(1)));
    }

    #[test]
    fn abbreviated_names_merge_with_full_names() {
        let a = profile(
            SourceKind::GoogleScholar,
            "Lei Zhou",
            "University of Tartu",
            1,
        );
        let b = profile(SourceKind::AcmDl, "L. Zhou", "University of Tartu", 1);
        let merged = merge_profiles(arcs(vec![a, b]));
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].display_name, "Lei Zhou"); // longest wins
    }

    #[test]
    fn comma_form_names_merge_with_full_names() {
        let a = profile(
            SourceKind::GoogleScholar,
            "Lei Zhou",
            "University of Tartu",
            1,
        );
        let b = profile(SourceKind::Dblp, "Zhou, Lei", "University of Tartu", 1);
        let c = profile(SourceKind::AcmDl, "Zhou, L.", "University of Tartu", 1);
        let merged = merge_profiles(arcs(vec![a, b, c]));
        assert_eq!(merged.len(), 1, "{merged:?}");
        assert_eq!(
            merged[0].sources,
            vec![
                SourceKind::GoogleScholar,
                SourceKind::Dblp,
                SourceKind::AcmDl
            ]
        );
    }

    #[test]
    fn unparseable_names_key_on_their_last_token() {
        let merge_key = |name: &str, aff: Option<&str>| {
            merge_key(&PersonName::new(name), aff.map(Institution::new).as_ref())
        };
        assert_eq!(merge_key("Cher", Some("U Tartu")), "?|cher|u tartu");
        assert_eq!(merge_key("Zhou,", None), "?|zhou|");
        assert_eq!(merge_key("", None), "?||");
        // Names without a comma key as before: initial, last token.
        assert_eq!(merge_key("L. Zhou", Some("U")), "l|zhou|u");
        assert_eq!(merge_key("Mohamed R. Moawad", None), "m|moawad|");
    }

    #[test]
    fn same_name_different_affiliation_stays_separate() {
        let a = profile(
            SourceKind::GoogleScholar,
            "Lei Zhou",
            "University of Tartu",
            1,
        );
        let b = profile(
            SourceKind::GoogleScholar,
            "Lei Zhou",
            "University of Beijing",
            2,
        );
        let merged = merge_profiles(arcs(vec![a, b]));
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn collisions_at_same_affiliation_conflate_and_are_detectable() {
        let a = profile(
            SourceKind::GoogleScholar,
            "Lei Zhou",
            "University of Tartu",
            1,
        );
        let b = profile(SourceKind::Dblp, "Lei Zhou", "University of Tartu", 2);
        let merged = merge_profiles(arcs(vec![a, b]));
        assert_eq!(merged.len(), 1);
        assert!(merged[0].is_conflated());
        assert_eq!(merged[0].truths.len(), 2);
    }

    #[test]
    fn publications_dedupe_by_title_and_metrics_take_max() {
        let mut a = profile(SourceKind::GoogleScholar, "A B", "U", 1);
        a.publications
            .push(publication("Shared Result", 2015, Some(5)));
        a.metrics.citations = Some(100);
        a.metrics.h_index = Some(5);
        let mut b = profile(SourceKind::AcmDl, "A B", "U", 1);
        // Same title, different text.
        b.publications
            .push(publication("shared   result", 2015, Some(3)));
        b.publications
            .push(publication("Unique Result", 2016, None));
        b.metrics.citations = Some(80);
        b.metrics.h_index = Some(7);
        let merged = merge_profiles(arcs(vec![a, b]));
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].publications.len(), 2);
        assert_eq!(merged[0].metrics.citations, Some(100));
        assert_eq!(merged[0].metrics.h_index, Some(7));
    }

    #[test]
    fn titles_sharing_a_key_dedupe_by_text() {
        // Different titles filed under one key stay apart; a copy of
        // either, equal after normalization, merges into it.
        let keyed = |title: &str, year: u32| {
            let v = Vocabulary::new();
            let p = SourcePublication::new(title.into(), year, v.label("J"), vec![], vec![], None);
            Arc::new(p.rekeyed(7))
        };
        let mut a = profile(SourceKind::GoogleScholar, "A B", "U", 1);
        a.publications.push(keyed("Shared Result", 2015));
        a.publications.push(keyed("Other Result", 2016));
        let mut b = profile(SourceKind::AcmDl, "A B", "U", 1);
        b.publications.push(keyed("shared  result", 2015));
        b.publications.push(keyed("Other result!", 2016));
        b.publications.push(keyed("Third Result", 2017));
        let merged = merge_profiles(arcs(vec![a, b]));
        let titles: Vec<&str> = merged[0].publications.iter().map(|p| p.title()).collect();
        assert_eq!(
            titles,
            vec!["Shared Result", "Other Result", "Third Result"]
        );
    }

    #[test]
    fn interests_union_normalized() {
        let a = with_interests(
            SourceKind::GoogleScholar,
            "A B",
            "U",
            1,
            &["Semantic Web", "Big-Data"],
        );
        let b = with_interests(
            SourceKind::Publons,
            "A B",
            "U",
            1,
            &["semantic web", "Databases"],
        );
        let merged = merge_profiles(arcs(vec![a, b]));
        assert_eq!(
            merged[0].interests,
            vec!["big data", "databases", "semantic web"]
        );
    }

    #[test]
    fn merge_is_deterministic_regardless_of_input_order() {
        let a = profile(SourceKind::GoogleScholar, "A B", "U", 1);
        let b = profile(SourceKind::Dblp, "A B", "U", 1);
        let c = profile(SourceKind::Publons, "C D", "V", 2);
        let m1 = merge_profiles(arcs(vec![a.clone(), b.clone(), c.clone()]));
        let m2 = merge_profiles(arcs(vec![c, b, a]));
        assert_eq!(m1, m2);
    }

    #[test]
    fn empty_input_yields_no_candidates() {
        assert!(merge_profiles(vec![]).is_empty());
    }
}
