//! Merging per-source profiles into candidate records.
//!
//! One person yields up to six profiles, each partial and differently
//! keyed. A scraper has no shared identifier, so profiles are merged by
//! *(normalized display name, affiliation)* — which means name collisions
//! can wrongly merge two people, exactly the failure mode §2.1's identity
//! verification exists to catch. The evaluation harness measures how often
//! that happens using the profiles' ground-truth labels.

use std::cmp::{Ordering, Reverse};
use std::fmt;
use std::sync::Arc;

use minaret_ontology::normalize_label;
use minaret_synth::ScholarId;

use crate::name::ParsedName;
use crate::record::{
    AffiliationRecord, SourceMetrics, SourceProfile, SourcePublication, SourceReview,
};
use crate::spec::SourceKind;
use crate::vocab::{Institution, Label, NormalizedLabel, PersonName};

/// A candidate reviewer: a handle on the source profiles merged into it.
///
/// The candidate holds its merge bucket's profiles, `Arc`-shared and
/// sorted by source and key, and reads every merged field from them:
/// its name, affiliation and country, with their comparison forms, from
/// the profiles' shared entries; histories, interests, publications and
/// reviews from their records. It stores only what no single profile
/// says: which profile names it, the best metrics and, for a list whose
/// dedupe drops a copy, which copies it keeps. Building one copies no
/// text and no record: it allocates the profile list, plus one bit set
/// for each of the publication and review lists that loses a copy.
///
/// Candidates are built from profiles only, by [`merge_profiles`] or
/// [`MergedCandidate::from_profiles`]. Profiles behind an `Arc` do not
/// change, so a candidate cannot disagree with its profiles.
#[derive(Clone)]
pub struct MergedCandidate {
    /// The bucket's profiles, sorted by source and key.
    profiles: Box<[Arc<SourceProfile>]>,
    /// The profile whose display name the candidate carries.
    name: usize,
    /// Best available metrics (max across sources, since every source
    /// under-counts relative to the truth).
    metrics: SourceMetrics,
    /// The listed publications the dedupe keeps, one bit per copy in
    /// profile order; `None` when it keeps every copy.
    kept_publications: Option<Box<[u64]>>,
    /// The listed reviews the dedupe keeps, likewise.
    kept_reviews: Option<Box<[u64]>>,
}

impl MergedCandidate {
    /// One candidate merging all of `profiles`, whichever bucket
    /// [`merge_profiles`] would file each of them under.
    ///
    /// # Panics
    ///
    /// When `profiles` is empty: a candidate is at least one profile.
    pub fn from_profiles(mut profiles: Vec<Arc<SourceProfile>>) -> Self {
        profiles.sort_by(|a, b| by_source_and_key(a, b));
        Self::from_bucket(profiles.into_boxed_slice(), &mut Vec::new())
    }

    /// The candidate of one bucket, whose profiles are sorted by source
    /// and key. `kept` is the dedupe's scratch space.
    fn from_bucket(profiles: Box<[Arc<SourceProfile>]>, kept: &mut Vec<KeptCopy>) -> Self {
        // The longest display name wins (the last of equally long ones).
        let name = (0..profiles.len())
            .max_by_key(|&i| profiles[i].display_name().len())
            .expect("a candidate merges at least one profile");
        let metrics = SourceMetrics {
            citations: profiles.iter().filter_map(|p| p.metrics.citations).max(),
            h_index: profiles.iter().filter_map(|p| p.metrics.h_index).max(),
            i10_index: profiles.iter().filter_map(|p| p.metrics.i10_index).max(),
        };
        // Publications dedupe by their stored title key, confirmed by
        // a shared page or on the normalized title; reviews by value.
        // The first listed copy is kept.
        let kept_publications = kept_copies(
            &profiles,
            SourceProfile::publications,
            SourceProfile::titles_distinct,
            SourcePublication::title_key,
            |a, b| Arc::ptr_eq(a.page(), b.page()) || a.normalized_title() == b.normalized_title(),
            kept,
        );
        let kept_reviews = kept_copies(
            &profiles,
            SourceProfile::reviews,
            SourceProfile::reviews_distinct,
            |r| u64::from(r.year) << 32 | u64::from(r.turnaround_days),
            |a, b| a == b,
            kept,
        );
        MergedCandidate {
            profiles,
            name,
            metrics,
            kept_publications,
            kept_reviews,
        }
    }

    /// The merged profiles, sorted by source and key.
    pub fn profiles(&self) -> &[Arc<SourceProfile>] {
        &self.profiles
    }

    /// The best (longest) display name observed.
    pub fn display_name(&self) -> &str {
        self.profiles[self.name].display_name()
    }

    /// Current affiliation, if any source provided one.
    pub fn affiliation(&self) -> Option<&str> {
        self.affiliation_entry().map(|a| a.text())
    }

    /// Country of the current affiliation, if known.
    pub fn country(&self) -> Option<&str> {
        self.country_entry().map(|c| c.text())
    }

    /// Union of affiliation histories (ORCID usually the sole
    /// contributor), each entry once, in profile order.
    pub fn affiliation_history(&self) -> impl Iterator<Item = &AffiliationRecord> + Clone + '_ {
        let listed = self.profiles.iter().flat_map(|p| &p.affiliation_history);
        listed
            .clone()
            .enumerate()
            .filter(move |&(i, h)| !listed.clone().take(i).any(|e| e == h))
            .map(|(_, h)| h)
    }

    /// Union of research interests across sources: normalized, each
    /// once, sorted.
    pub fn interests(&self) -> impl Iterator<Item = &NormalizedLabel> + Clone + '_ {
        let forms = self.interest_forms();
        let mut last: Option<&NormalizedLabel> = None;
        std::iter::from_fn(move || {
            let next = forms
                .clone()
                .filter(|&form| last.is_none_or(|last| form > last))
                .min()?;
            last = Some(next);
            Some(next)
        })
    }

    /// Every profile's interests in normal form, as registered: the
    /// union [`Self::interests`] yields, unsorted and with repeats, for
    /// a reader that takes a maximum or a set of them.
    pub fn interest_forms(&self) -> impl Iterator<Item = &NormalizedLabel> + Clone + '_ {
        self.profiles
            .iter()
            .flat_map(|p| p.interests())
            .map(|i| i.normalized())
    }

    /// Union of publications, deduplicated by normalized title: the
    /// source profiles' own listings.
    pub fn publications(&self) -> impl Iterator<Item = &SourcePublication> + Clone + '_ {
        selected(
            self.profiles.iter().map(|p| p.publications()),
            self.kept_publications.as_deref(),
        )
    }

    /// The number of [`Self::publications`].
    pub fn publication_count(&self) -> usize {
        selected_count(
            self.profiles.iter().map(|p| p.publications().len()),
            self.kept_publications.as_deref(),
        )
    }

    /// Best available metrics (max across sources, since every source
    /// under-counts relative to the truth).
    pub fn metrics(&self) -> &SourceMetrics {
        &self.metrics
    }

    /// Union of review records, deduplicated by value. `Arc`-shared
    /// like the publications.
    pub fn reviews(&self) -> impl Iterator<Item = &Arc<SourceReview>> + Clone + '_ {
        selected(
            self.profiles.iter().map(|p| p.reviews()),
            self.kept_reviews.as_deref(),
        )
    }

    /// The number of [`Self::reviews`].
    pub fn review_count(&self) -> usize {
        selected_count(
            self.profiles.iter().map(|p| p.reviews().len()),
            self.kept_reviews.as_deref(),
        )
    }

    /// Which sources contributed, each once.
    pub fn sources(&self) -> impl Iterator<Item = SourceKind> + Clone + '_ {
        let profiles = &self.profiles;
        (0..profiles.len())
            .filter(move |&i| i == 0 || profiles[i - 1].source != profiles[i].source)
            .map(move |i| profiles[i].source)
    }

    /// Per-source profile keys that were merged.
    pub fn keys(&self) -> impl Iterator<Item = &str> + Clone + '_ {
        self.profiles.iter().map(|p| p.key.as_str())
    }

    /// Ground-truth identities observed among merged profiles, by
    /// frequency (majority first), then id.
    ///
    /// **Evaluation-only** (never read by the framework). More than one
    /// entry means the name-based merge conflated distinct people.
    pub fn truths(&self) -> impl Iterator<Item = ScholarId> + Clone + '_ {
        let profiles = &self.profiles;
        let rank = move |id: ScholarId| {
            let count = profiles.iter().filter(|p| p.truth == id).count();
            (Reverse(count), id)
        };
        let mut last = None;
        std::iter::from_fn(move || {
            let next = profiles
                .iter()
                .map(|p| rank(p.truth))
                .filter(|r| last.is_none_or(|last| *r > last))
                .min()?;
            last = Some(next);
            Some(next.1)
        })
    }

    /// True when the merge conflated profiles of different real people.
    pub fn is_conflated(&self) -> bool {
        let first = self.profiles[0].truth;
        self.profiles.iter().any(|p| p.truth != first)
    }

    /// The majority ground-truth identity (evaluation-only), i.e. the
    /// person most of the merged profiles belong to.
    pub fn dominant_truth(&self) -> Option<ScholarId> {
        self.truths().next()
    }

    /// The parsed display name, when it parses.
    pub fn parsed_name(&self) -> Option<&ParsedName> {
        self.profiles[self.name].display_name_entry().parsed()
    }

    /// The current affiliation, then every history entry's institution,
    /// each with its token set.
    pub fn institutions(&self) -> impl Iterator<Item = &Institution> {
        self.affiliation_entry()
            .map(|a| &**a)
            .into_iter()
            .chain(self.affiliation_history().map(|h| &**h.institution_entry()))
    }

    /// The current country, then every history entry's, in normal form.
    pub fn countries(&self) -> impl Iterator<Item = &NormalizedLabel> {
        self.country_entry()
            .map(|c| c.normalized())
            .into_iter()
            .chain(
                self.affiliation_history()
                    .map(|h| h.country_entry().normalized()),
            )
    }

    fn affiliation_entry(&self) -> Option<&Arc<Institution>> {
        self.profiles.iter().find_map(|p| p.affiliation_entry())
    }

    fn country_entry(&self) -> Option<&Arc<Label>> {
        self.profiles.iter().find_map(|p| p.country_entry())
    }
}

/// Equal when every merged field is.
impl PartialEq for MergedCandidate {
    fn eq(&self, other: &Self) -> bool {
        self.display_name() == other.display_name()
            && self.affiliation() == other.affiliation()
            && self.country() == other.country()
            && self.affiliation_history().eq(other.affiliation_history())
            && self.interests().eq(other.interests())
            && self.publications().eq(other.publications())
            && self.metrics == other.metrics
            && self.reviews().eq(other.reviews())
            && self.sources().eq(other.sources())
            && self.keys().eq(other.keys())
            && self.truths().eq(other.truths())
    }
}

/// Prints the merged fields, each list the way a `Vec` of it prints.
impl fmt::Debug for MergedCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MergedCandidate")
            .field("display_name", &self.display_name())
            .field("affiliation", &self.affiliation())
            .field("country", &self.country())
            .field("affiliation_history", &List(self.affiliation_history()))
            .field("interests", &List(self.interests()))
            .field("publications", &List(self.publications()))
            .field("metrics", &self.metrics)
            .field("reviews", &List(self.reviews()))
            .field("sources", &List(self.sources()))
            .field("keys", &List(self.keys()))
            .field("truths", &List(self.truths()))
            .finish()
    }
}

/// An iterator's items, printed as a list.
struct List<I>(I);

impl<I> fmt::Debug for List<I>
where
    I: Iterator + Clone,
    I::Item: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.clone()).finish()
    }
}

/// A listed copy in the dedupe's scratch space: its key, its index among
/// the bucket's copies in profile order, its profile's index in the
/// bucket and its index in that profile's list.
type KeptCopy = (u64, u32, u32, u32);

/// Which copies of the bucket's `list`s the dedupe keeps: the first
/// copy of each entry, where two copies are one entry when their `key`s
/// are equal and they are the `same`, an equivalence. Returns one bit
/// per listed copy, in profile order, or `None` when every copy is kept
/// — always so when at most one profile lists any and its list is
/// `distinct`. `kept` is scratch space.
///
/// The copies are sorted by key, then by listing order, so a copy is
/// compared only with the earlier copies that share its key: it is a
/// duplicate when one of them is the same.
fn kept_copies<T>(
    profiles: &[Arc<SourceProfile>],
    list: impl Fn(&SourceProfile) -> &[T],
    distinct: impl Fn(&SourceProfile) -> bool,
    key: impl Fn(&T) -> u64,
    same: impl Fn(&T, &T) -> bool,
    kept: &mut Vec<KeptCopy>,
) -> Option<Box<[u64]>> {
    let mut listing = profiles.iter().filter(|p| !list(p).is_empty());
    match (listing.next(), listing.next()) {
        (None, _) => return None,
        (Some(p), None) if distinct(p) => return None,
        _ => {}
    }
    kept.clear();
    for (i, p) in profiles.iter().enumerate() {
        for (j, copy) in list(p).iter().enumerate() {
            kept.push((key(copy), kept.len() as u32, i as u32, j as u32));
        }
    }
    let listed = kept.len();
    kept.sort_unstable();
    let copy = |&(_, _, i, j): &KeptCopy| &list(&profiles[i as usize])[j as usize];
    let mut bits: Option<Box<[u64]>> = None;
    for run in kept.chunk_by(|a, b| a.0 == b.0).filter(|run| run.len() > 1) {
        for (n, later) in run.iter().enumerate().skip(1) {
            if run[..n]
                .iter()
                .any(|earlier| same(copy(earlier), copy(later)))
            {
                let bits = bits.get_or_insert_with(|| every_copy(listed));
                let at = later.1 as usize;
                bits[at / 64] &= !(1 << (at % 64));
            }
        }
    }
    bits
}

/// A bit set keeping each of `listed` copies.
fn every_copy(listed: usize) -> Box<[u64]> {
    let mut bits = vec![u64::MAX; listed.div_ceil(64)].into_boxed_slice();
    if !listed.is_multiple_of(64) {
        bits[listed / 64] = (1 << (listed % 64)) - 1;
    }
    bits
}

/// The copies of `lists`, concatenated, that the bit set `kept` keeps;
/// every copy when there is none.
fn selected<'a, T: 'a>(
    lists: impl Iterator<Item = &'a [T]> + Clone,
    kept: Option<&'a [u64]>,
) -> impl Iterator<Item = &'a T> + Clone {
    lists
        .flatten()
        .enumerate()
        .filter(move |&(i, _)| kept.is_none_or(|bits| bits[i / 64] >> (i % 64) & 1 == 1))
        .map(|(_, copy)| copy)
}

/// The number of copies [`selected`] yields for lists of `lengths`.
fn selected_count(lengths: impl Iterator<Item = usize>, kept: Option<&[u64]>) -> usize {
    match kept {
        Some(bits) => bits.iter().map(|w| w.count_ones() as usize).sum(),
        None => lengths.sum(),
    }
}

fn by_source_and_key(a: &SourceProfile, b: &SourceProfile) -> Ordering {
    a.source.cmp(&b.source).then_with(|| a.key.cmp(&b.key))
}

/// The merge key of a profile: first initial of the given name, family
/// name and normalized affiliation, as `initial|family|affiliation`.
/// [`SourceProfile::new`] stores it on the profile, with its
/// [`crate::text_key`].
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
/// (name-initial, family name, affiliation).
///
/// Input profiles are `Arc`-shared (the shape every source hands out)
/// and carry their merge key with its hash. One sort groups them: by
/// hash, by key text to confirm a hash match, then by source and key
/// within a bucket; the input order breaks the remaining ties. Each
/// bucket's `Arc`s move into its candidate.
pub fn merge_profiles(mut profiles: Vec<Arc<SourceProfile>>) -> Vec<MergedCandidate> {
    profiles.sort_by(|a, b| {
        a.merge_key_hash()
            .cmp(&b.merge_key_hash())
            .then_with(|| a.merge_key().cmp(b.merge_key()))
            .then_with(|| by_source_and_key(a, b))
    });
    let same_bucket = |a: &SourceProfile, b: &SourceProfile| {
        a.merge_key_hash() == b.merge_key_hash() && a.merge_key() == b.merge_key()
    };
    // Size the output and the dedupe's scratch space once.
    let (mut buckets, mut most_listed) = (0, 0);
    for bucket in profiles.chunk_by(|a, b| same_bucket(a, b)) {
        buckets += 1;
        let listed = bucket
            .iter()
            .map(|p| p.publications().len().max(p.reviews().len()))
            .sum();
        most_listed = most_listed.max(listed);
    }
    let mut out = Vec::with_capacity(buckets);
    let mut kept = Vec::with_capacity(most_listed);
    let mut rest = profiles.into_iter();
    while let Some(first) = rest.as_slice().first() {
        let len = 1 + rest.as_slice()[1..]
            .iter()
            .take_while(|p| same_bucket(first, p))
            .count();
        let bucket: Box<[Arc<SourceProfile>]> = rest.by_ref().take(len).collect();
        out.push(MergedCandidate::from_bucket(bucket, &mut kept));
    }
    // Deterministic order for downstream phases regardless of input
    // permutation. (display_name, keys, affiliation) almost always
    // suffices; for a pair that ties on all three, fall back to a total
    // structural order via the Debug rendering. That rendering spells out
    // every publication and review, so it is built only for such a pair,
    // never per candidate.
    out.sort_unstable_by(|a, b| {
        a.display_name()
            .cmp(b.display_name())
            .then_with(|| a.keys().cmp(b.keys()))
            .then_with(|| a.affiliation().cmp(&b.affiliation()))
            .then_with(|| format!("{a:?}").cmp(&format!("{b:?}")))
    });
    out
}

#[cfg(test)]
#[path = "../tests/reference/merge.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::{Institution, Label, PersonName};

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
        SourceProfile::new(
            source,
            format!("{}:{truth}", source.prefix()),
            Arc::new(PersonName::new(name)),
            Some(Arc::new(Institution::new(aff))),
            Some(Arc::new(Label::new("Estonia"))),
            interests.iter().map(|i| Arc::new(Label::new(i))).collect(),
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
            Arc::new(Label::new("J")),
            vec![],
            vec![],
            citations,
        ))
    }

    fn review(venue: &str, year: u32) -> Arc<SourceReview> {
        Arc::new(SourceReview::new(
            Arc::new(Label::new(venue)),
            year,
            20,
            Some(3),
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
        assert!(merged[0]
            .sources()
            .eq([SourceKind::GoogleScholar, SourceKind::Dblp]));
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
        assert_eq!(merged[0].display_name(), "Lei Zhou"); // longest wins
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
        assert!(merged[0].sources().eq([
            SourceKind::GoogleScholar,
            SourceKind::Dblp,
            SourceKind::AcmDl
        ]));
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
        assert_eq!(merged[0].truths().count(), 2);
    }

    #[test]
    fn publications_dedupe_by_title_and_metrics_take_max() {
        let mut a = profile(SourceKind::GoogleScholar, "A B", "U", 1)
            .with_publications(vec![publication("Shared Result", 2015, Some(5))]);
        a.metrics.citations = Some(100);
        a.metrics.h_index = Some(5);
        // Same title, different text.
        let mut b = profile(SourceKind::AcmDl, "A B", "U", 1).with_publications(vec![
            publication("shared   result", 2015, Some(3)),
            publication("Unique Result", 2016, None),
        ]);
        b.metrics.citations = Some(80);
        b.metrics.h_index = Some(7);
        let merged = merge_profiles(arcs(vec![a, b]));
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].publications().count(), 2);
        assert_eq!(merged[0].publication_count(), 2);
        assert_eq!(merged[0].metrics().citations, Some(100));
        assert_eq!(merged[0].metrics().h_index, Some(7));
    }

    #[test]
    fn titles_sharing_a_key_dedupe_by_text() {
        // Different titles filed under one key stay apart; a copy of
        // either, equal after normalization, merges into it.
        let keyed = |title: &str, year: u32| {
            let p = SourcePublication::new(
                title.into(),
                year,
                Arc::new(Label::new("J")),
                vec![],
                vec![],
                None,
            );
            Arc::new(p.rekeyed(7))
        };
        let a = profile(SourceKind::GoogleScholar, "A B", "U", 1).with_publications(vec![
            keyed("Shared Result", 2015),
            keyed("Other Result", 2016),
        ]);
        let b = profile(SourceKind::AcmDl, "A B", "U", 1).with_publications(vec![
            keyed("shared  result", 2015),
            keyed("Other result!", 2016),
            keyed("Third Result", 2017),
        ]);
        let merged = merge_profiles(arcs(vec![a, b]));
        let titles: Vec<&str> = merged[0].publications().map(|p| p.title()).collect();
        assert_eq!(
            titles,
            vec!["Shared Result", "Other Result", "Third Result"]
        );
    }

    #[test]
    fn titles_sharing_a_key_merge_like_the_reference() {
        // Titles filed under a few keys, so that most key matches must
        // be told apart by text, listed by one or two profiles and
        // repeated within a profile: the merge keeps exactly the copies
        // the copying merge kept.
        const TITLES: &[&str] = &[
            "Shared Result",
            "shared  result",
            "Other Result",
            "Other result!",
            "Third Result",
        ];
        let keyed = |seed: usize, count: usize| -> Vec<Arc<SourcePublication>> {
            (0..count)
                .map(|i| {
                    let title = TITLES[(seed * 7 + i * 3) % TITLES.len()];
                    let p = SourcePublication::new(
                        title.into(),
                        2015,
                        Arc::new(Label::new("J")),
                        vec![],
                        vec![],
                        None,
                    );
                    Arc::new(p.rekeyed(((seed + i) % 3) as u64))
                })
                .collect()
        };
        for seed in 0..60 {
            let a = profile(SourceKind::GoogleScholar, "A B", "U", 1)
                .with_publications(keyed(seed, seed % 5));
            let b = profile(SourceKind::Dblp, "A. B", "U", 1)
                .with_publications(keyed(seed + 1, seed % 4));
            let profiles = if seed % 3 == 0 {
                arcs(vec![a])
            } else {
                arcs(vec![b, a])
            };
            let merged = merge_profiles(profiles.clone());
            reference::assert_same_merge(&merged, &reference::merge_profiles(profiles.clone()));
            assert_eq!(MergedCandidate::from_profiles(profiles), merged[0]);
        }
    }

    #[test]
    fn a_profile_alone_keeps_every_distinct_copy_without_a_selection() {
        let lone = merge_profiles(arcs(vec![profile(SourceKind::Publons, "A B", "U", 1)
            .with_publications(vec![
                publication("One", 2015, None),
                publication("Two", 2016, None),
            ])
            .with_reviews(vec![review("J", 2015), review("J", 2016)])]));
        assert!(lone[0].kept_publications.is_none() && lone[0].kept_reviews.is_none());
        assert_eq!(
            (lone[0].publication_count(), lone[0].review_count()),
            (2, 2)
        );
        // A profile listing one title twice, or one review twice by
        // value, keeps the first copy.
        let repeating = merge_profiles(arcs(vec![profile(SourceKind::Publons, "A B", "U", 1)
            .with_publications(vec![
                publication("One", 2015, None),
                publication("one", 2016, None),
            ])
            .with_reviews(vec![review("J", 2015), review("J", 2015)])]));
        assert!(repeating[0].kept_publications.is_some() && repeating[0].kept_reviews.is_some());
        assert_eq!(
            (
                repeating[0].publication_count(),
                repeating[0].review_count()
            ),
            (1, 1)
        );
        assert_eq!(repeating[0].publications().next().unwrap().year, 2015);
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
        assert!(merged[0]
            .interests()
            .eq(["big data", "databases", "semantic web"]));
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
