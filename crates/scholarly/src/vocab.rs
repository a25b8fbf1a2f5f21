//! Shared vocabulary entries: candidate-side strings in comparison form.
//!
//! Merge, COI and ranking compare every retrieved candidate with the
//! manuscript, and the candidate side of those comparisons reads a few
//! small vocabularies over and over: venue names, topic labels
//! (publication keywords and profile interests), countries,
//! institutions and person names. Each of those is one immutable,
//! `Arc`-shared entry holding the printed text and its comparison form
//! — the normalized label, the token set or the parsed name — built
//! once, when a profile first needs it. Readers then only compare.
//!
//! The sources of one world share one [`Vocabulary`]: one slot per
//! world id the entries are printed from, and one publication page per
//! paper, so the world bounds its size, requests never grow it, and each
//! entry is built once however many sources print it.
//!
//! Every text in comparison form also carries a 64-bit key, the
//! [`text_key`] of that form, so a reader compares integers first.
//! Equal texts have equal keys, but two texts may share a key: a reader
//! that finds equal keys compares the texts before it counts a match.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use minaret_concurrent::stable_hash;
use minaret_ontology::{normalize_label, tokenize, TopicId};
use minaret_synth::{InstitutionId, Paper, ScholarId, VenueId, WorldHandle, WorldScope};

use crate::name::{parse_name, ParsedName};
use crate::record::PublicationPage;

/// The key stored with a text in comparison form: the deterministic
/// [`stable_hash`] of the form. Request-side tables key their entries
/// with it to meet the forms records carry.
pub fn text_key(form: &str) -> u64 {
    stable_hash(form)
}

/// A label in normal form ([`normalize_label`]) and its [`text_key`].
/// The only constructor normalizes, so a reader holding one never
/// normalizes or hashes it again. Cloning shares the text. Equality
/// compares keys, then texts; order is the order of the texts.
#[derive(Clone)]
pub struct NormalizedLabel {
    text: Arc<str>,
    key: u64,
}

impl NormalizedLabel {
    /// The normal form of `raw`.
    #[must_use]
    pub fn new(raw: &str) -> Self {
        let text: Arc<str> = normalize_label(raw).into();
        NormalizedLabel {
            key: text_key(&text),
            text,
        }
    }

    /// The normalized text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The [`text_key`] of the normalized text.
    pub fn key(&self) -> u64 {
        self.key
    }
}

impl Deref for NormalizedLabel {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl Borrow<str> for NormalizedLabel {
    fn borrow(&self) -> &str {
        &self.text
    }
}

impl PartialEq for NormalizedLabel {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.text == other.text
    }
}

impl Eq for NormalizedLabel {}

impl PartialOrd for NormalizedLabel {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for NormalizedLabel {
    fn cmp(&self, other: &Self) -> Ordering {
        self.text.cmp(&other.text)
    }
}

impl PartialEq<str> for NormalizedLabel {
    fn eq(&self, other: &str) -> bool {
        &*self.text == other
    }
}

impl PartialEq<&str> for NormalizedLabel {
    fn eq(&self, other: &&str) -> bool {
        &*self.text == *other
    }
}

impl PartialEq<String> for NormalizedLabel {
    fn eq(&self, other: &String) -> bool {
        *self.text == **other
    }
}

impl fmt::Debug for NormalizedLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text, f)
    }
}

impl fmt::Display for NormalizedLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.text, f)
    }
}

/// A string's normalized word tokens, each with its [`text_key`],
/// sorted by key and deduplicated: the form in which institution names
/// are compared ([`TokenSet::jaccard`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenSet(Vec<(u64, String)>);

impl TokenSet {
    /// Tokenizes `s`.
    pub fn new(s: &str) -> Self {
        let mut tokens: Vec<(u64, String)> =
            tokenize(s).into_iter().map(|t| (text_key(&t), t)).collect();
        tokens.sort_unstable();
        tokens.dedup();
        TokenSet(tokens)
    }

    /// Jaccard similarity of the two sets; `0.0` when both are empty.
    /// Tokens are compared by key, and by text only when the keys are
    /// equal.
    pub fn jaccard(&self, other: &TokenSet) -> f64 {
        let (a, b) = (&self.0, &other.0);
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let (mut i, mut j, mut inter) = (0, 0, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0).then_with(|| a[i].1.cmp(&b[j].1)) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter as f64 / (a.len() + b.len() - inter) as f64
    }
}

/// An institution name: the printed text, its normal form and its
/// token set. Immutable, so the three cannot disagree. `Debug` and
/// `Display` print the text exactly as a `String` holding it would.
#[derive(PartialEq, Eq)]
pub struct Institution {
    text: Box<str>,
    normalized: Box<str>,
    tokens: TokenSet,
}

impl Institution {
    /// The entry for `text`.
    #[must_use]
    pub fn new(text: &str) -> Self {
        Institution {
            text: text.into(),
            normalized: normalize_label(text).into(),
            tokens: TokenSet::new(text),
        }
    }

    /// The name as printed by the source.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The name in normal form ([`normalize_label`]).
    pub fn normalized(&self) -> &str {
        &self.normalized
    }

    /// The name's token set: what the shared-institution COI signal
    /// compares.
    pub fn tokens(&self) -> &TokenSet {
        &self.tokens
    }
}

impl fmt::Debug for Institution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text, f)
    }
}

impl fmt::Display for Institution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.text, f)
    }
}

/// A topic label, venue name or country: the printed text and its
/// normalized form. Immutable, so the two cannot disagree. `Debug` and
/// `Display` print the text exactly as a `String` holding it would.
#[derive(PartialEq, Eq)]
pub struct Label {
    text: Box<str>,
    normalized: NormalizedLabel,
}

impl Label {
    /// The entry for `text`.
    #[must_use]
    pub fn new(text: &str) -> Self {
        Label {
            text: text.into(),
            normalized: NormalizedLabel::new(text),
        }
    }

    /// The text as printed by the source.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The comparison form.
    pub fn normalized(&self) -> &NormalizedLabel {
        &self.normalized
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text, f)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.text, f)
    }
}

/// A person's name: the printed text and its parse ([`parse_name`];
/// `None` for a name the parser rejects). Immutable, so the two cannot
/// disagree. `Debug` and `Display` print the text exactly as a `String`
/// holding it would, and it dereferences to the text.
#[derive(PartialEq, Eq)]
pub struct PersonName {
    text: Box<str>,
    parsed: Option<ParsedName>,
}

impl PersonName {
    /// The entry for `text`.
    #[must_use]
    pub fn new(text: &str) -> Self {
        PersonName {
            text: text.into(),
            parsed: parse_name(text),
        }
    }

    /// The name as printed by the source.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The comparison form, when the name parses.
    pub fn parsed(&self) -> Option<&ParsedName> {
        self.parsed.as_ref()
    }
}

impl Deref for PersonName {
    type Target = str;

    fn deref(&self) -> &str {
        &self.text
    }
}

impl fmt::Debug for PersonName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text, f)
    }
}

impl fmt::Display for PersonName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.text, f)
    }
}

/// One world's shared entries, in slots indexed by world id: topic
/// labels by [`TopicId`], venue names by [`VenueId`], institutions and
/// their country labels by [`InstitutionId`], printed full names by
/// [`ScholarId`], and publication pages by [`minaret_synth::PaperId`].
/// A slot's entry is built from the world's text on first use, and every
/// profile, of every source sharing the table, that references the id
/// shares it. Thread-safe: profiles are built concurrently.
///
/// The bound: the slots are allocated for one world, which never
/// changes, so the table holds at most one entry per topic, venue,
/// scholar and paper and two per institution (its name and country),
/// however many sources print from it and whatever the requests. Only
/// profile construction fills it. An empty page slot costs 16 bytes.
pub struct Vocabulary {
    topics: Slots<Arc<Label>>,
    venues: Slots<Arc<Label>>,
    institutions: Slots<(Arc<Institution>, Arc<Label>)>,
    names: Slots<Arc<PersonName>>,
    pages: Slots<Arc<PublicationPage>>,
}

/// One entry slot per id, filled on first use.
type Slots<E> = Box<[OnceLock<E>]>;

fn slots<E>(n: usize) -> Slots<E> {
    (0..n).map(|_| OnceLock::new()).collect()
}

fn filled<E>(slots: &[OnceLock<E>]) -> usize {
    slots.iter().filter(|s| s.get().is_some()).count()
}

impl Vocabulary {
    /// An empty table with one slot per topic, venue, institution,
    /// scholar and paper of `world`.
    pub(crate) fn for_world(world: &WorldHandle) -> Self {
        Vocabulary {
            topics: slots(world.ontology().len()),
            venues: slots(world.venue_count()),
            institutions: slots(world.institution_count()),
            names: slots(world.scholar_count()),
            pages: slots(world.paper_count()),
        }
    }

    /// True when the table has one slot per id of `world`: the check a
    /// source makes before it prints from a table it did not build.
    pub(crate) fn fits(&self, world: &WorldHandle) -> bool {
        self.topics.len() == world.ontology().len()
            && self.venues.len() == world.venue_count()
            && self.institutions.len() == world.institution_count()
            && self.names.len() == world.scholar_count()
            && self.pages.len() == world.paper_count()
    }

    /// The entry for topic `id`'s label.
    pub(crate) fn topic(&self, w: &dyn WorldScope, id: TopicId) -> Arc<Label> {
        self.topics[id.index()]
            .get_or_init(|| Arc::new(Label::new(w.ontology().label(id))))
            .clone()
    }

    /// The entry for venue `id`'s name.
    pub(crate) fn venue(&self, w: &dyn WorldScope, id: VenueId) -> Arc<Label> {
        self.venues[id.index()]
            .get_or_init(|| Arc::new(Label::new(&w.venue(id).name)))
            .clone()
    }

    /// The entries for institution `id`'s name and its country.
    pub(crate) fn institution(
        &self,
        w: &dyn WorldScope,
        id: InstitutionId,
    ) -> (Arc<Institution>, Arc<Label>) {
        self.institutions[id.index()]
            .get_or_init(|| {
                let inst = w.institution(id);
                (
                    Arc::new(Institution::new(&inst.name)),
                    Arc::new(Label::new(&inst.country)),
                )
            })
            .clone()
    }

    /// The entry for scholar `id`'s full name, as
    /// [`minaret_synth::Scholar::full_name`] prints it.
    pub(crate) fn name(&self, w: &dyn WorldScope, id: ScholarId) -> Arc<PersonName> {
        self.names[id.index()]
            .get_or_init(|| Arc::new(PersonName::new(&w.scholar(id).full_name())))
            .clone()
    }

    /// The page of `paper`: its title, venue, authors' full names and
    /// topic labels, each author's and topic's entry shared with every
    /// other page and profile that prints it.
    pub(crate) fn page(&self, w: &dyn WorldScope, paper: &Paper) -> Arc<PublicationPage> {
        self.pages[paper.id.index()]
            .get_or_init(|| {
                Arc::new(PublicationPage::new(
                    &paper.title,
                    self.venue(w, paper.venue),
                    paper.authors.iter().map(|&a| self.name(w, a)).collect(),
                    paper.topics.iter().map(|&t| self.topic(w, t)).collect(),
                ))
            })
            .clone()
    }

    /// Number of entries built so far, pages included; an institution's
    /// slot holds two.
    pub fn len(&self) -> usize {
        filled(&self.topics)
            + filled(&self.venues)
            + 2 * filled(&self.institutions)
            + filled(&self.names)
            + self.pages()
    }

    /// Number of publication pages built so far.
    pub fn pages(&self) -> usize {
        filled(&self.pages)
    }

    /// True when no entry has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_id_has_one_entry() {
        let world = Arc::new(
            minaret_synth::WorldGenerator::new(minaret_synth::WorldConfig::sized(50)).generate(),
        );
        let v = Vocabulary::for_world(&WorldHandle::Eager(world.clone()));
        assert!(v.is_empty());
        let w: &dyn WorldScope = world.as_ref();
        let topic = TopicId::from_index(1);
        let a = v.topic(w, topic);
        assert!(Arc::ptr_eq(&a, &v.topic(w, topic)));
        assert_eq!(a.text(), w.ontology().label(topic));
        let n = v.name(w, ScholarId(3));
        assert!(Arc::ptr_eq(&n, &v.name(w, ScholarId(3))));
        assert_eq!(n.text(), w.scholar(ScholarId(3)).full_name());
        let (inst, country) = v.institution(w, InstitutionId(0));
        assert_eq!(inst.text(), w.institution(InstitutionId(0)).name);
        assert_eq!(country.text(), w.institution(InstitutionId(0)).country);
        assert_eq!(v.venue(w, VenueId(2)).text(), w.venue(VenueId(2)).name);
        assert_eq!(v.len(), 5);
        // A page shares its authors', venue's and topics' entries.
        let paper = &world.papers()[0];
        let page = v.page(w, paper);
        assert!(Arc::ptr_eq(&page, &v.page(w, paper)));
        assert_eq!(page.title(), paper.title);
        for (entry, &id) in page.authors().iter().zip(&paper.authors) {
            assert!(Arc::ptr_eq(entry, &v.name(w, id)));
        }
        assert_eq!(v.pages(), 1);
        let entries = v.len();
        assert!(entries >= 6 && entries <= 6 + paper.authors.len() + 1 + paper.topics.len());
    }

    #[test]
    fn entries_hold_their_forms() {
        let label = Label::new("Big-Data");
        assert_eq!(label.text(), "Big-Data");
        assert_eq!(label.normalized(), "big data");
        let name = PersonName::new("Zhou, Lei");
        let parsed = name.parsed().expect("comma form parses");
        assert_eq!(
            (parsed.given.as_str(), parsed.family.as_str()),
            ("lei", "zhou")
        );
        assert!(PersonName::new("Cher").parsed().is_none());
    }

    #[test]
    fn entries_print_as_their_text() {
        for text in ["Journal of X", "Zoë \"Q\" Müller", ""] {
            assert_eq!(format!("{:?}", Label::new(text)), format!("{text:?}"));
            assert_eq!(format!("{:?}", PersonName::new(text)), format!("{text:?}"));
            assert_eq!(Label::new(text).to_string(), text);
            assert_eq!(PersonName::new(text).to_string(), text);
        }
        assert_eq!(
            format!("{:?}", NormalizedLabel::new("Big Data")),
            format!("{:?}", "big data")
        );
    }
}
