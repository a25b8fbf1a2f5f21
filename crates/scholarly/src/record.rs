//! The record shapes sources return — the "scraped page" equivalents.

use std::fmt;
use std::sync::Arc;

use minaret_ontology::normalize_label;
use minaret_synth::ScholarId;

use crate::merge::merge_key;
use crate::name::key_bits;
use crate::spec::SourceKind;
use crate::vocab::{text_key, Institution, Label, PersonName};

/// Citation metrics as exposed by metric-bearing sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SourceMetrics {
    /// Total citation count, if the source exposes it.
    pub citations: Option<u64>,
    /// h-index, if the source exposes it.
    pub h_index: Option<u32>,
    /// i10-index (papers with ≥ 10 citations), Google-Scholar-style.
    pub i10_index: Option<u32>,
}

/// The text every listing of one paper shows: its title, with the
/// normalized title and its [`text_key`], its venue, every author's name
/// in author order, and its topic keywords.
///
/// The sources of one world share one page per paper, built from the
/// world's text by their [`crate::Vocabulary`], and each profile that
/// lists the paper holds a [`SourcePublication`] that refers to it. So
/// a paper's text and its comparison forms exist once per world, however
/// many co-authors' profiles, on however many sources, list it.
/// Immutable, so no form can disagree with its text.
pub struct PublicationPage {
    title: Box<str>,
    normalized_title: Box<str>,
    title_key: u64,
    venue_name: Arc<Label>,
    authors: Box<[Arc<PersonName>]>,
    keywords: Arc<[Arc<Label>]>,
}

impl PublicationPage {
    /// The page of a paper titled `title`, in `venue_name`, by
    /// `authors` in author order, about `keywords`.
    pub(crate) fn new(
        title: &str,
        venue_name: Arc<Label>,
        authors: Box<[Arc<PersonName>]>,
        keywords: Arc<[Arc<Label>]>,
    ) -> Self {
        let normalized_title: Box<str> = normalize_label(title).into();
        PublicationPage {
            title_key: text_key(&normalized_title),
            normalized_title,
            title: title.into(),
            venue_name,
            authors,
            keywords,
        }
    }
}

/// One publication as listed on a profile page: a [`PublicationPage`]
/// seen from one of its authors, with what the listing source adds.
///
/// A listing refers to its page, notes which of the page's authors owns
/// the profile (the co-authors are the others), and carries the year and,
/// on metric-bearing sources, the citations. It also holds the page's
/// venue and keyword handles, which the filter and rank phases read for
/// every publication, and the co-author filter. Profiles store their
/// listings inline, so listing a paper allocates nothing.
///
/// Built through [`SourcePublication::new`], which builds a page of its
/// own with no owner, or by a source from its world's shared page. The
/// fields that carry text in comparison form are private, so no form can
/// disagree with its text; `year` and `citations` are plain data.
#[derive(Clone)]
pub struct SourcePublication {
    page: Arc<PublicationPage>,
    venue_name: Arc<Label>,
    keywords: Arc<[Arc<Label>]>,
    coauthor_filter: u64,
    /// Publication year.
    pub year: u32,
    /// The owner's position among the page's authors; [`NO_OWNER`] for a
    /// page of its own, whose authors are all co-authors.
    owner: u32,
    /// Citation count of this publication, when exposed.
    pub citations: Option<u32>,
}

/// The owner position of a listing whose page lists only co-authors.
const NO_OWNER: u32 = u32::MAX;

impl SourcePublication {
    /// A publication titled `title`, in the venue `venue_name`, with
    /// the co-authors and topic keywords the source prints for it. The
    /// listing has a page of its own.
    pub fn new(
        title: String,
        year: u32,
        venue_name: Arc<Label>,
        coauthor_names: Vec<Arc<PersonName>>,
        keywords: Vec<Arc<Label>>,
        citations: Option<u32>,
    ) -> Self {
        let page = PublicationPage::new(&title, venue_name, coauthor_names.into(), keywords.into());
        Self::listing(Arc::new(page), None, year, citations)
    }

    /// `page` as listed on the profile of its author at position
    /// `owner` (every author is a co-author when `None`).
    pub(crate) fn listing(
        page: Arc<PublicationPage>,
        owner: Option<usize>,
        year: u32,
        citations: Option<u32>,
    ) -> Self {
        let mut listing = SourcePublication {
            venue_name: page.venue_name.clone(),
            keywords: page.keywords.clone(),
            page,
            coauthor_filter: 0,
            year,
            owner: owner.map_or(NO_OWNER, |i| i as u32),
            citations,
        };
        listing.coauthor_filter = listing
            .coauthor_names()
            .filter_map(|n| n.parsed())
            .fold(0, |filter, n| filter | key_bits(n.key()));
        listing
    }

    /// The page this listing shows.
    pub fn page(&self) -> &Arc<PublicationPage> {
        &self.page
    }

    /// Title string.
    pub fn title(&self) -> &str {
        &self.page.title
    }

    /// The title in normal form: what deduplication and the shared-title
    /// COI signal compare.
    pub fn normalized_title(&self) -> &str {
        &self.page.normalized_title
    }

    /// The [`text_key`] of the normalized title: equal titles have equal
    /// keys, so a reader compares titles only when the keys match.
    pub fn title_key(&self) -> u64 {
        self.page.title_key
    }

    /// Venue name (not an id — sources expose text).
    pub fn venue_name(&self) -> &Arc<Label> {
        &self.venue_name
    }

    /// Co-author display names as printed on the page: the page's
    /// authors without the owner, in author order.
    pub fn coauthor_names(&self) -> impl Iterator<Item = &Arc<PersonName>> + Clone + '_ {
        let authors = &self.page.authors[..];
        let (before, after) = match authors.get(self.owner as usize) {
            Some(_) => (
                &authors[..self.owner as usize],
                &authors[self.owner as usize + 1..],
            ),
            None => (authors, &[][..]),
        };
        before.iter().chain(after)
    }

    /// The [`key_bits`] of every co-author's name key, ORed: a name key
    /// whose bits are not all set here belongs to no co-author, so a
    /// reader skips this publication's co-author list without touching
    /// it.
    pub fn coauthor_filter(&self) -> u64 {
        self.coauthor_filter
    }

    /// Topic keywords attached to the publication, when the source
    /// exposes them.
    pub fn keywords(&self) -> &[Arc<Label>] {
        &self.keywords
    }
}

/// Listings given `Arc`-wrapped, as profiles held them before they
/// stored listings inline, are moved out or cloned.
impl From<Arc<SourcePublication>> for SourcePublication {
    fn from(listing: Arc<SourcePublication>) -> Self {
        Arc::try_unwrap(listing).unwrap_or_else(|shared| (*shared).clone())
    }
}

/// Equal when every printed field and every comparison form is: two
/// listings of one page by one owner compare no text.
impl PartialEq for SourcePublication {
    fn eq(&self, other: &Self) -> bool {
        let same_text = || {
            let (a, b) = (&*self.page, &*other.page);
            a.title == b.title
                && a.normalized_title == b.normalized_title
                && a.title_key == b.title_key
                && self.venue_name == other.venue_name
                && self.coauthor_names().eq(other.coauthor_names())
                && self.keywords == other.keywords
        };
        let same_listing = Arc::ptr_eq(&self.page, &other.page) && self.owner == other.owner;
        self.year == other.year
            && self.citations == other.citations
            && self.coauthor_filter == other.coauthor_filter
            && (same_listing || same_text())
    }
}

impl Eq for SourcePublication {}

/// Prints the text fields only; the normalized title, its key and the
/// co-author filter are functions of them.
impl fmt::Debug for SourcePublication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Names<I>(I);
        impl<'a, I: Iterator<Item = &'a Arc<PersonName>> + Clone> fmt::Debug for Names<I> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.clone()).finish()
            }
        }
        f.debug_struct("SourcePublication")
            .field("title", &self.page.title)
            .field("year", &self.year)
            .field("venue_name", &self.venue_name)
            .field("coauthor_names", &Names(self.coauthor_names()))
            .field("keywords", &self.keywords)
            .field("citations", &self.citations)
            .finish()
    }
}

/// One review record (Publons-style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceReview {
    venue_name: Arc<Label>,
    /// Year of the review.
    pub year: u32,
    /// Days from invitation to submitted review.
    pub turnaround_days: u32,
    /// Review quality (1–5 stars), when the source exposes it (Publons).
    pub quality: Option<u8>,
}

impl SourceReview {
    /// A review for `venue_name`.
    pub fn new(
        venue_name: Arc<Label>,
        year: u32,
        turnaround_days: u32,
        quality: Option<u8>,
    ) -> Self {
        SourceReview {
            venue_name,
            year,
            turnaround_days,
            quality,
        }
    }

    /// Venue reviewed for, as text.
    pub fn venue_name(&self) -> &Arc<Label> {
        &self.venue_name
    }
}

/// One entry of an affiliation history (ORCID-style).
///
/// Built through [`AffiliationRecord::new`] from shared vocabulary
/// entries, so it carries the institution's token set and the country's
/// normal form; `institution` and `country` are the entries' texts.
#[derive(Clone, PartialEq, Eq)]
pub struct AffiliationRecord {
    /// Institution name as text.
    pub institution: String,
    /// Country of the institution.
    pub country: String,
    /// First year (inclusive).
    pub from_year: u32,
    /// Last year (inclusive).
    pub to_year: u32,
    institution_entry: Arc<Institution>,
    country_entry: Arc<Label>,
}

impl AffiliationRecord {
    /// An affiliation with `institution`, in `country`, from `from_year`
    /// to `to_year` inclusive.
    pub fn new(
        institution: Arc<Institution>,
        country: Arc<Label>,
        from_year: u32,
        to_year: u32,
    ) -> Self {
        AffiliationRecord {
            institution: institution.text().to_string(),
            country: country.text().to_string(),
            from_year,
            to_year,
            institution_entry: institution,
            country_entry: country,
        }
    }

    /// The institution's entry: its text and token set.
    pub(crate) fn institution_entry(&self) -> &Arc<Institution> {
        &self.institution_entry
    }

    /// The country's entry: its text and normal form.
    pub(crate) fn country_entry(&self) -> &Arc<Label> {
        &self.country_entry
    }
}

/// Prints the text fields only; the entries hold the same texts.
impl fmt::Debug for AffiliationRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AffiliationRecord")
            .field("institution", &self.institution)
            .field("country", &self.country)
            .field("from_year", &self.from_year)
            .field("to_year", &self.to_year)
            .finish()
    }
}

/// A scholar profile as returned by one source.
///
/// This is the unit the extraction phase works with: text fields, partial
/// lists, per-source keys — the shape of a scraped profile page.
///
/// Built through [`SourceProfile::new`], which also sets the merge key,
/// and [`SourceProfile::with_publications`] and
/// [`SourceProfile::with_reviews`], which also note whether the list
/// repeats an entry. The fields that feed a comparison form or such a
/// note are private and set only there; the rest are plain data, filled
/// in after construction.
#[derive(Clone, PartialEq)]
pub struct SourceProfile {
    /// Which source produced this profile.
    pub source: SourceKind,
    /// Opaque per-source profile key (e.g. `"gs:1f3a"`). Stable across
    /// calls; different sources use unrelated keys for the same person.
    pub key: String,
    display_name: Arc<PersonName>,
    affiliation: Option<Arc<Institution>>,
    merge_key: String,
    merge_key_hash: u64,
    country: Option<Arc<Label>>,
    /// Full affiliation history (ORCID exposes this; others leave it
    /// empty).
    pub affiliation_history: Vec<AffiliationRecord>,
    interests: Vec<Arc<Label>>,
    publications: Box<[SourcePublication]>,
    titles_distinct: bool,
    /// Citation metrics, when the source exposes them.
    pub metrics: SourceMetrics,
    reviews: Vec<Arc<SourceReview>>,
    reviews_distinct: bool,
    /// Ground-truth identity of the scholar this profile belongs to.
    ///
    /// **Evaluation-only.** The recommendation framework never reads this
    /// field; it exists so `minaret-eval` can score disambiguation and
    /// ranking decisions against the truth. Real scraped pages obviously
    /// have no such label.
    pub truth: ScholarId,
}

impl SourceProfile {
    /// A profile of `display_name` at `affiliation` in `country`,
    /// registering `interests`, with no history, publications, metrics
    /// or reviews yet.
    pub fn new(
        source: SourceKind,
        key: String,
        display_name: Arc<PersonName>,
        affiliation: Option<Arc<Institution>>,
        country: Option<Arc<Label>>,
        interests: Vec<Arc<Label>>,
        truth: ScholarId,
    ) -> Self {
        let merge_key = merge_key(&display_name, affiliation.as_deref());
        SourceProfile {
            source,
            key,
            merge_key_hash: text_key(&merge_key),
            merge_key,
            display_name,
            affiliation,
            country,
            affiliation_history: Vec::new(),
            interests,
            publications: Box::default(),
            titles_distinct: true,
            metrics: SourceMetrics::default(),
            reviews: Vec::new(),
            reviews_distinct: true,
            truth,
        }
    }

    /// The profile listing `publications` instead of its current ones,
    /// stored inline. `Arc`-wrapped listings are moved out of their
    /// `Arc`s; a `Vec` of listings whose capacity is its length becomes
    /// the profile's list without a copy.
    #[must_use]
    pub fn with_publications<P: Into<SourcePublication>>(mut self, publications: Vec<P>) -> Self {
        let publications: Box<[SourcePublication]> =
            publications.into_iter().map(Into::into).collect();
        let mut titles: Vec<(u64, &str)> = publications
            .iter()
            .map(|p| (p.title_key(), p.normalized_title()))
            .collect();
        titles.sort_unstable();
        self.titles_distinct = titles.windows(2).all(|w| w[0] != w[1]);
        self.publications = publications;
        self
    }

    /// The profile listing `reviews` instead of its current ones.
    #[must_use]
    pub fn with_reviews(mut self, reviews: Vec<Arc<SourceReview>>) -> Self {
        let mut values: Vec<(&str, u32, u32, Option<u8>)> = reviews
            .iter()
            .map(|r| (r.venue_name().text(), r.year, r.turnaround_days, r.quality))
            .collect();
        values.sort_unstable();
        self.reviews_distinct = values.windows(2).all(|w| w[0] != w[1]);
        self.reviews = reviews;
        self
    }

    /// Display name as rendered by the source — may be abbreviated
    /// ("L. Zhou") depending on the source's name noise.
    pub fn display_name(&self) -> &str {
        self.display_name.text()
    }

    /// The display name's entry: its text and parse.
    pub(crate) fn display_name_entry(&self) -> &Arc<PersonName> {
        &self.display_name
    }

    /// Current affiliation as text, when known.
    pub fn affiliation(&self) -> Option<&str> {
        self.affiliation.as_deref().map(Institution::text)
    }

    /// The current affiliation's entry: its text and token set.
    pub(crate) fn affiliation_entry(&self) -> Option<&Arc<Institution>> {
        self.affiliation.as_ref()
    }

    /// Country of the current affiliation, when known.
    pub fn country(&self) -> Option<&str> {
        self.country.as_deref().map(Label::text)
    }

    /// The country's entry: its text and normal form.
    pub(crate) fn country_entry(&self) -> Option<&Arc<Label>> {
        self.country.as_ref()
    }

    /// The bucket [`crate::merge_profiles`] files this profile under.
    pub(crate) fn merge_key(&self) -> &str {
        &self.merge_key
    }

    /// The [`text_key`] of [`Self::merge_key`].
    pub(crate) fn merge_key_hash(&self) -> u64 {
        self.merge_key_hash
    }

    /// Research-interest keywords registered on the profile.
    pub fn interests(&self) -> &[Arc<Label>] {
        &self.interests
    }

    /// Publications listed on the profile (subset of the truth), each a
    /// listing of a shared page: merged candidates read these records
    /// instead of deep-copying title/venue/keyword strings every
    /// recommendation.
    pub fn publications(&self) -> &[SourcePublication] {
        &self.publications
    }

    /// True when no two listed publications share a normalized title.
    pub(crate) fn titles_distinct(&self) -> bool {
        self.titles_distinct
    }

    /// Review records, when the source exposes them (Publons).
    /// `Arc`-shared, like the publications.
    pub fn reviews(&self) -> &[Arc<SourceReview>] {
        &self.reviews
    }

    /// True when no two listed reviews are equal.
    pub(crate) fn reviews_distinct(&self) -> bool {
        self.reviews_distinct
    }

    /// Number of review records on the profile.
    pub fn review_count(&self) -> u32 {
        self.reviews.len() as u32
    }
}

/// Prints the data only; the merge key's hash and the notes on repeated
/// entries are functions of it.
impl fmt::Debug for SourceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceProfile")
            .field("source", &self.source)
            .field("key", &self.key)
            .field("display_name", &self.display_name)
            .field("affiliation", &self.affiliation)
            .field("merge_key", &self.merge_key)
            .field("country", &self.country)
            .field("affiliation_history", &self.affiliation_history)
            .field("interests", &self.interests)
            .field("publications", &self.publications)
            .field("metrics", &self.metrics)
            .field("reviews", &self.reviews)
            .field("truth", &self.truth)
            .finish()
    }
}

#[cfg(test)]
impl PublicationPage {
    /// Title string.
    pub(crate) fn title(&self) -> &str {
        &self.title
    }

    /// Every author's name, in author order.
    pub(crate) fn authors(&self) -> &[Arc<PersonName>] {
        &self.authors
    }
}

#[cfg(test)]
impl SourcePublication {
    /// The same publication, on a page of its own, with its title filed
    /// under `key`.
    pub(crate) fn rekeyed(mut self, key: u64) -> Self {
        Arc::get_mut(&mut self.page)
            .expect("a listing built by `new` has a page of its own")
            .title_key = key;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::{Institution, Label, PersonName};

    fn profile() -> SourceProfile {
        SourceProfile::new(
            SourceKind::GoogleScholar,
            "gs:1".into(),
            Arc::new(PersonName::new("Ada Lovelace")),
            Some(Arc::new(Institution::new("University of Tartu"))),
            Some(Arc::new(Label::new("Estonia"))),
            vec![Arc::new(Label::new("databases"))],
            ScholarId(0),
        )
        .with_publications(vec![
            Arc::new(SourcePublication::new(
                "A".into(),
                2015,
                Arc::new(Label::new("J")),
                vec![],
                vec![],
                Some(4),
            )),
            Arc::new(SourcePublication::new(
                "B".into(),
                2017,
                Arc::new(Label::new("J")),
                vec![],
                vec![],
                None,
            )),
        ])
        .with_reviews(vec![Arc::new(SourceReview::new(
            Arc::new(Label::new("J")),
            2016,
            21,
            Some(4),
        ))])
    }

    #[test]
    fn helpers_summarize_profile() {
        let p = profile();
        assert_eq!(p.review_count(), 1);
    }
}
