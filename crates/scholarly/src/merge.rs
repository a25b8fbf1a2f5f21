//! Merging per-source profiles into candidate records.
//!
//! One person yields up to six profiles, each partial and differently
//! keyed. A scraper has no shared identifier, so profiles are merged by
//! *(normalized display name, affiliation)* — which means name collisions
//! can wrongly merge two people, exactly the failure mode §2.1's identity
//! verification exists to catch. The evaluation harness measures how often
//! that happens using the profiles' ground-truth labels.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use minaret_ontology::NormalizedLabels;
use minaret_synth::ScholarId;
use parking_lot::RwLock;

use crate::intern;
use crate::record::{
    AffiliationRecord, SourceMetrics, SourceProfile, SourcePublication, SourceReview,
};
use crate::spec::SourceKind;

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
    /// Union of research interests across sources (normalized, deduped).
    pub interests: Vec<String>,
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

/// Pointer-keyed memo for [`merge_key`]: interned `(name, affiliation)`
/// pairs map to their interned composite key. The global interner never
/// frees, so interned `Arc<str>` data addresses are stable and unique
/// per content — a `(usize, usize)` address pair identifies the inputs
/// without hashing their bytes, and a warm merge allocates nothing.
type MergeKeyMemo = HashMap<(usize, usize), Arc<str>>;
static MERGE_KEYS: OnceLock<RwLock<MergeKeyMemo>> = OnceLock::new();

fn merge_key(p: &SourceProfile) -> Arc<str> {
    // Family-name + first initial + affiliation: abbreviated display
    // names ("L. Zhou") must land in the same bucket as "Lei Zhou" at the
    // same institution, while "Lei Zhou" at another university stays
    // separate (until country-level checks catch it later).
    let name = intern::normalized(&p.display_name);
    let aff = match p.affiliation.as_deref() {
        Some(a) => intern::normalized(a),
        None => intern::intern(""),
    };
    let memo = MERGE_KEYS.get_or_init(|| RwLock::new(HashMap::new()));
    let addr = (
        name.as_ref().as_ptr() as usize,
        aff.as_ref().as_ptr() as usize,
    );
    if let Some(hit) = memo.read().get(&addr) {
        return hit.clone();
    }
    let mut parts: Vec<&str> = name.split(' ').filter(|s| !s.is_empty()).collect();
    let family = parts.pop().unwrap_or("");
    let initial = parts.first().and_then(|s| s.chars().next()).unwrap_or('?');
    let key = intern::intern(&format!("{initial}|{family}|{aff}"));
    memo.write().entry(addr).or_insert_with(|| key.clone());
    key
}

/// Merges source profiles into candidates keyed by
/// (name-initial, family name, affiliation). Input profiles are
/// `Arc`-shared (the shape every source hands out), so bucketing moves
/// pointers; the per-profile cost of a merge is two memoized interner
/// lookups, not a rebuilt key string.
pub fn merge_profiles(profiles: Vec<Arc<SourceProfile>>) -> Vec<MergedCandidate> {
    let mut buckets: HashMap<Arc<str>, Vec<Arc<SourceProfile>>> = HashMap::new();
    for p in profiles {
        buckets.entry(merge_key(&p)).or_default().push(p);
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

fn merge_bucket(mut profiles: Vec<Arc<SourceProfile>>) -> MergedCandidate {
    profiles.sort_by(|a, b| a.source.cmp(&b.source).then(a.key.cmp(&b.key)));
    let display_name = profiles
        .iter()
        .map(|p| &p.display_name)
        .max_by_key(|n| n.len())
        .cloned()
        .unwrap_or_default();
    let affiliation = profiles.iter().find_map(|p| p.affiliation.clone());
    let country = profiles.iter().find_map(|p| p.country.clone());

    let mut affiliation_history = Vec::new();
    for p in &profiles {
        for a in &p.affiliation_history {
            if !affiliation_history.contains(a) {
                affiliation_history.push(a.clone());
            }
        }
    }

    // Memoized normalization: this loop revisits the same interest
    // strings on every merge of every recommendation, so the warm path is
    // interner hits, not fresh normalize allocations.
    let mut interests: BTreeSet<Arc<str>> = BTreeSet::new();
    for p in &profiles {
        for i in &p.interests {
            interests.insert(intern::normalized(i));
        }
    }

    // Publications dedupe by normalized title. The titles are normalized
    // into one buffer first, so the seen-set can borrow them (and titles,
    // the largest vocabulary, stay out of the interner).
    let listed: Vec<&Arc<SourcePublication>> =
        profiles.iter().flat_map(|p| &p.publications).collect();
    let titles = NormalizedLabels::new(listed.iter().map(|p| &*p.title));
    let mut seen_titles: HashSet<&str> = HashSet::with_capacity(listed.len());
    let publications = listed
        .iter()
        .zip(titles.iter())
        .filter(|&(_, title)| seen_titles.insert(title))
        .map(|(&publ, _)| publ.clone())
        .collect();

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
        interests: interests.iter().map(|i| i.to_string()).collect(),
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

    fn arcs(ps: Vec<SourceProfile>) -> Vec<Arc<SourceProfile>> {
        ps.into_iter().map(Arc::new).collect()
    }

    fn profile(source: SourceKind, name: &str, aff: &str, truth: u32) -> SourceProfile {
        SourceProfile {
            source,
            key: format!("{}:{truth}", source.prefix()),
            display_name: name.to_string(),
            affiliation: Some(aff.to_string()),
            country: Some("Estonia".into()),
            affiliation_history: vec![],
            interests: vec![],
            publications: vec![],
            metrics: SourceMetrics::default(),
            reviews: vec![],
            truth: ScholarId(truth),
        }
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
        a.publications.push(Arc::new(SourcePublication {
            title: "Shared Result".into(),
            year: 2015,
            venue_name: "J".into(),
            coauthor_names: vec![],
            keywords: vec![],
            citations: Some(5),
        }));
        a.metrics.citations = Some(100);
        a.metrics.h_index = Some(5);
        let mut b = profile(SourceKind::AcmDl, "A B", "U", 1);
        b.publications.push(Arc::new(SourcePublication {
            title: "shared   result".into(), // same title, different text
            year: 2015,
            venue_name: "J".into(),
            coauthor_names: vec![],
            keywords: vec![],
            citations: Some(3),
        }));
        b.publications.push(Arc::new(SourcePublication {
            title: "Unique Result".into(),
            year: 2016,
            venue_name: "J".into(),
            coauthor_names: vec![],
            keywords: vec![],
            citations: None,
        }));
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
        let mut a = profile(SourceKind::GoogleScholar, "A B", "U", 1);
        a.interests = vec!["Semantic Web".into(), "Big-Data".into()];
        let mut b = profile(SourceKind::Publons, "A B", "U", 1);
        b.interests = vec!["semantic web".into(), "Databases".into()];
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
