//! Merging per-source profiles into candidate records.
//!
//! One person yields up to six profiles, each partial and differently
//! keyed. A scraper has no shared identifier, so profiles are merged by
//! *(normalized display name, affiliation)* — which means name collisions
//! can wrongly merge two people, exactly the failure mode §2.1's identity
//! verification exists to catch. The evaluation harness measures how often
//! that happens using the profiles' ground-truth labels.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use minaret_concurrent::FnvBuildHasher;
use minaret_ontology::normalize_label;
use minaret_synth::ScholarId;

use crate::name::parse_name;
use crate::record::{AffiliationRecord, SourceMetrics, SourceProfile, SourceReview};
use crate::spec::SourceKind;
use crate::vocab::NormalizedLabel;

/// A candidate reviewer assembled from one or more source profiles.
#[derive(Debug, Clone, PartialEq)]
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
    pub publications: Vec<Arc<crate::record::SourcePublication>>,
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
}

impl MergedCandidate {
    /// True when the merge conflated profiles of different real people.
    pub fn is_conflated(&self) -> bool {
        self.truths.len() > 1
    }

    /// The majority ground-truth identity (evaluation-only), i.e. the
    /// person most of the merged profiles belong to.
    pub fn dominant_truth(&self) -> Option<ScholarId> {
        self.truths.first().copied()
    }
}

/// The merge key of a profile: first initial of the given name, family
/// name and normalized affiliation, as `initial|family|affiliation`.
/// [`SourceProfile::new`] stores it on the profile.
///
/// Abbreviated display names ("L. Zhou") and comma forms ("Zhou, Lei")
/// land in the same bucket as "Lei Zhou" at the same institution, while
/// "Lei Zhou" at another university stays separate (until country-level
/// checks catch it later). A name [`parse_name`] rejects keys on its
/// last normalized token, with initial `?`.
pub(crate) fn merge_key(display_name: &str, affiliation: Option<&str>) -> String {
    let (initial, family) = match parse_name(display_name) {
        Some(name) => (name.initial().unwrap_or('?'), name.family),
        None => {
            let norm = normalize_label(display_name);
            let last = norm.rsplit(' ').next().unwrap_or_default().to_string();
            ('?', last)
        }
    };
    let aff = affiliation.map(normalize_label).unwrap_or_default();
    format!("{initial}|{family}|{aff}")
}

/// Merges source profiles into candidates keyed by
/// (name-initial, family name, affiliation). Input profiles are
/// `Arc`-shared (the shape every source hands out) and carry their merge
/// key, so bucketing borrows; no key string is built per merge.
pub fn merge_profiles(profiles: Vec<Arc<SourceProfile>>) -> Vec<MergedCandidate> {
    let mut buckets: HashMap<&str, Vec<&SourceProfile>> = HashMap::new();
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
    let display_name = profiles
        .iter()
        .map(|p| p.display_name())
        .max_by_key(|n| n.len())
        .unwrap_or_default()
        .to_string();
    let affiliation = profiles
        .iter()
        .find_map(|p| p.affiliation())
        .map(str::to_string);
    let country = profiles.iter().find_map(|p| p.country.clone());

    let mut affiliation_history = Vec::new();
    for p in &profiles {
        for a in &p.affiliation_history {
            if !affiliation_history.contains(a) {
                affiliation_history.push(a.clone());
            }
        }
    }

    // Interests union by their stored normal form; cloning one shares
    // its text.
    let interests: BTreeSet<&NormalizedLabel> = profiles
        .iter()
        .flat_map(|p| p.interests())
        .map(|i| i.normalized())
        .collect();

    // Publications dedupe by their stored normalized title; the first
    // listed copy is kept. Titles are source data, not request input, so
    // the seen-set hashes with FNV, sized for every listed copy.
    let listed: usize = profiles.iter().map(|p| p.publications.len()).sum();
    let mut seen_titles: HashSet<&str, FnvBuildHasher> =
        HashSet::with_capacity_and_hasher(listed, FnvBuildHasher::default());
    let mut publications = Vec::with_capacity(listed);
    for publ in profiles.iter().flat_map(|p| &p.publications) {
        if seen_titles.insert(publ.normalized_title()) {
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

    // Truth labels ordered by frequency (majority first), then id.
    let mut counts: HashMap<ScholarId, usize> = HashMap::new();
    for p in &profiles {
        *counts.entry(p.truth).or_insert(0) += 1;
    }
    let mut truths: Vec<(ScholarId, usize)> = counts.into_iter().collect();
    truths.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let truths = truths.into_iter().map(|(id, _)| id).collect();

    MergedCandidate {
        display_name,
        affiliation,
        country,
        affiliation_history,
        interests: interests.into_iter().cloned().collect(),
        publications,
        metrics,
        reviews,
        sources,
        keys,
        truths,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SourcePublication;
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
        let mut p = SourceProfile::new(
            source,
            format!("{}:{truth}", source.prefix()),
            name.to_string(),
            Some(aff.to_string()),
            interests.iter().map(|i| v.label(i)).collect(),
            ScholarId(truth),
        );
        p.country = Some("Estonia".into());
        p
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
