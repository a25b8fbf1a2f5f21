//! The merge as it stood while candidates copied every merged field out
//! of their profiles, kept as the reference the handle-based merge must
//! match. Profiles are read through their public accessors; the logic
//! is unchanged.
//!
//! Included with `#[path]` by the crate's unit tests and by the
//! workspace's `merge_equivalence` suite, each of which brings the names
//! imported below into scope first.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use super::{
    normalize_label, AffiliationRecord, Institution, MergedCandidate, NormalizedLabel, PersonName,
    ScholarId, SourceKind, SourceMetrics, SourceProfile, SourcePublication, SourceReview,
};

/// A merged candidate with its fields copied out of the profiles.
#[derive(Clone, PartialEq)]
pub struct Candidate {
    pub display_name: String,
    pub affiliation: Option<String>,
    pub country: Option<String>,
    pub affiliation_history: Vec<AffiliationRecord>,
    pub interests: Vec<NormalizedLabel>,
    pub publications: Vec<SourcePublication>,
    pub metrics: SourceMetrics,
    pub reviews: Vec<Arc<SourceReview>>,
    pub sources: Vec<SourceKind>,
    pub keys: Vec<String>,
    pub truths: Vec<ScholarId>,
}

impl fmt::Debug for Candidate {
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

fn merge_key(display_name: &PersonName, affiliation: Option<&Institution>) -> String {
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

pub fn merge_profiles(profiles: Vec<Arc<SourceProfile>>) -> Vec<Candidate> {
    let merge_keys: Vec<String> = profiles
        .iter()
        .map(|p| {
            merge_key(
                &PersonName::new(p.display_name()),
                p.affiliation().map(Institution::new).as_ref(),
            )
        })
        .collect();
    let mut buckets: HashMap<&str, Vec<&SourceProfile>> = HashMap::with_capacity(profiles.len());
    for (p, key) in profiles.iter().zip(&merge_keys) {
        buckets.entry(key.as_str()).or_default().push(p);
    }
    let mut out: Vec<Candidate> = buckets.into_values().map(merge_bucket).collect();
    out.sort_by(|a, b| {
        (&a.display_name, &a.keys, &a.affiliation)
            .cmp(&(&b.display_name, &b.keys, &b.affiliation))
            .then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
    });
    out
}

fn merge_bucket(mut profiles: Vec<&SourceProfile>) -> Candidate {
    profiles.sort_by(|a, b| a.source.cmp(&b.source).then(a.key.cmp(&b.key)));
    let name = profiles
        .iter()
        .max_by_key(|p| p.display_name().len())
        .expect("a bucket holds at least one profile")
        .display_name();
    let affiliation = profiles.iter().find_map(|p| p.affiliation());
    let country = profiles.iter().find_map(|p| p.country());

    let mut affiliation_history = Vec::new();
    for p in &profiles {
        for a in &p.affiliation_history {
            if !affiliation_history.contains(a) {
                affiliation_history.push(a.clone());
            }
        }
    }

    let mut interests: Vec<&NormalizedLabel> = profiles
        .iter()
        .flat_map(|p| p.interests())
        .map(|i| i.normalized())
        .collect();
    interests.sort_unstable();
    interests.dedup();

    let listed: usize = profiles.iter().map(|p| p.publications().len()).sum();
    let mut kept_keys: Vec<u64> = Vec::with_capacity(listed);
    let mut publications: Vec<SourcePublication> = Vec::with_capacity(listed);
    for publ in profiles.iter().flat_map(|p| p.publications()) {
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
        for r in p.reviews() {
            if !reviews.contains(r) {
                reviews.push(r.clone());
            }
        }
    }

    let mut sources: Vec<SourceKind> = profiles.iter().map(|p| p.source).collect();
    sources.dedup();
    let keys = profiles.iter().map(|p| p.key.clone()).collect();

    let mut counts: Vec<(ScholarId, usize)> = Vec::with_capacity(profiles.len());
    for p in &profiles {
        match counts.iter_mut().find(|(id, _)| *id == p.truth) {
            Some((_, n)) => *n += 1,
            None => counts.push((p.truth, 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let truths = counts.into_iter().map(|(id, _)| id).collect();

    Candidate {
        display_name: name.to_string(),
        affiliation: affiliation.map(str::to_string),
        country: country.map(str::to_string),
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

/// Asserts that `candidate` exposes exactly `reference`'s fields,
/// element for element, keeps the same copy of every record, and
/// prints the same.
pub fn assert_same(candidate: &MergedCandidate, reference: &Candidate) {
    assert_eq!(candidate.display_name(), reference.display_name);
    assert_eq!(candidate.affiliation(), reference.affiliation.as_deref());
    assert_eq!(candidate.country(), reference.country.as_deref());
    assert!(candidate
        .affiliation_history()
        .eq(&reference.affiliation_history));
    assert!(candidate.interests().eq(&reference.interests));
    let publications: Vec<&SourcePublication> = candidate.publications().collect();
    assert!(same_listings(&publications, &reference.publications));
    assert_eq!(candidate.publication_count(), reference.publications.len());
    assert_eq!(*candidate.metrics(), reference.metrics);
    let reviews: Vec<&Arc<SourceReview>> = candidate.reviews().collect();
    assert!(same_copies(&reviews, &reference.reviews));
    assert_eq!(candidate.review_count(), reference.reviews.len());
    assert!(candidate.sources().eq(reference.sources.iter().copied()));
    assert!(candidate
        .keys()
        .eq(reference.keys.iter().map(String::as_str)));
    assert!(candidate.truths().eq(reference.truths.iter().copied()));
    assert_eq!(candidate.is_conflated(), reference.truths.len() > 1);
    assert_eq!(
        candidate.dominant_truth(),
        reference.truths.first().copied()
    );
    assert_eq!(format!("{candidate:?}"), format!("{reference:?}"));
    assert_eq!(format!("{candidate:#?}"), format!("{reference:#?}"));
}

fn same_copies<T>(a: &[&Arc<T>], b: &[Arc<T>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
}

/// Two listings are one copy when they are equal and show one page:
/// every listing these suites build has a page of its own.
fn same_listings(a: &[&SourcePublication], b: &[SourcePublication]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| Arc::ptr_eq(x.page(), y.page()) && *x == y)
}

/// Asserts that `merged` is `reference`, candidate for candidate, in
/// the same order.
pub fn assert_same_merge(merged: &[MergedCandidate], reference: &[Candidate]) {
    assert_eq!(merged.len(), reference.len());
    for (candidate, reference) in merged.iter().zip(reference) {
        assert_same(candidate, reference);
    }
}
