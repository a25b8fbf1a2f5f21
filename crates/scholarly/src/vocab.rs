//! Shared vocabulary entries: candidate-side strings in comparison form.
//!
//! Merge, COI and ranking compare every retrieved candidate with the
//! manuscript, and the candidate side of those comparisons reads a few
//! small vocabularies over and over: venue names, topic labels
//! (publication keywords and profile interests) and co-author names.
//! Each distinct string of those is one immutable, `Arc`-shared entry
//! holding the printed text and its comparison form — the normalized
//! label or the parsed name — built once, when a profile is built.
//! Readers then only compare.
//!
//! Each source keeps one [`Vocabulary`] beside its profile store, and
//! only profile construction fills it: the world bounds its size,
//! requests never grow it.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use minaret_concurrent::{ConcurrentMap, ShardedMap};
use minaret_ontology::normalize_label;

use crate::name::{parse_name, ParsedName};

/// A label in normal form ([`normalize_label`]). The only constructor
/// normalizes, so a reader holding one never normalizes it again.
/// Cloning shares the text.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct NormalizedLabel(Arc<str>);

impl NormalizedLabel {
    /// The normal form of `raw`.
    #[must_use]
    pub fn new(raw: &str) -> Self {
        NormalizedLabel(normalize_label(raw).into())
    }

    /// The normalized text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for NormalizedLabel {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for NormalizedLabel {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq<str> for NormalizedLabel {
    fn eq(&self, other: &str) -> bool {
        &*self.0 == other
    }
}

impl PartialEq<&str> for NormalizedLabel {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

impl PartialEq<String> for NormalizedLabel {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl fmt::Debug for NormalizedLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for NormalizedLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&*self.0, f)
    }
}

/// A topic label or venue name: the printed text and its normalized
/// form. Immutable, so the two cannot disagree. `Debug` and `Display`
/// print the text exactly as a `String` holding it would.
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
/// holding it would.
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

/// One source's table from printed text to shared entry. Thread-safe:
/// profiles of one source are built concurrently.
///
/// Only profile construction calls [`Vocabulary::label`] and
/// [`Vocabulary::name`], so the table holds the source's world
/// vocabulary and nothing a request brought.
#[derive(Default)]
pub struct Vocabulary {
    labels: ShardedMap<Box<str>, Arc<Label>>,
    names: ShardedMap<Box<str>, Arc<PersonName>>,
}

impl Vocabulary {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared entry for a topic label or venue name printed as
    /// `text`, built on first sight.
    pub fn label(&self, text: &str) -> Arc<Label> {
        shared(&self.labels, text, Label::new)
    }

    /// The shared entry for a person's name printed as `text`, built on
    /// first sight.
    pub fn name(&self, text: &str) -> Arc<PersonName> {
        shared(&self.names, text, PersonName::new)
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.labels.len() + self.names.len()
    }

    /// True when no entry has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn shared<E: Send + Sync>(
    table: &ShardedMap<Box<str>, Arc<E>>,
    text: &str,
    make: impl FnOnce(&str) -> E,
) -> Arc<E> {
    if let Some(hit) = table.get(text) {
        return hit;
    }
    // Same-text racers converge on whichever entry won the insert.
    table
        .get_or_insert_with(text.into(), || Arc::new(make(text)))
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_texts_share_one_entry() {
        let v = Vocabulary::new();
        let a = v.label("Semantic Web");
        let b = v.label("Semantic Web");
        assert!(Arc::ptr_eq(&a, &b));
        // Another spelling is another entry with the same form.
        let c = v.label("semantic-web");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.normalized(), c.normalized());
        let n = v.name("Lei Zhou");
        assert!(Arc::ptr_eq(&n, &v.name("Lei Zhou")));
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
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
