//! Topic identifiers and topic records.

use std::fmt;

/// Dense identifier of a topic inside one [`crate::Ontology`].
///
/// Ids are assigned contiguously by [`crate::OntologyBuilder`] in insertion
/// order, so they double as indices into the ontology's internal tables.
/// A `TopicId` is only meaningful for the ontology that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicId(pub(crate) u32);

impl TopicId {
    /// Returns the raw index value.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `TopicId` from a raw index.
    ///
    /// Intended for tests and for substrates that persist ids; passing an
    /// index that does not exist in the target ontology will surface as
    /// [`crate::OntologyError::UnknownTopic`] at use sites.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        TopicId(index as u32)
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A single research topic in the ontology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topic {
    /// Identifier within the owning ontology.
    pub id: TopicId,
    /// Canonical human-readable label, e.g. `"Semantic Web"`.
    pub label: String,
    /// Normalized form of `label` used for lookups (see
    /// [`crate::normalize_label`]).
    pub normalized: String,
    /// Alternative surface forms that should resolve to this topic,
    /// already normalized (e.g. `"resource description framework"` for
    /// `"RDF"`).
    pub aliases: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_id_roundtrips_through_index() {
        let id = TopicId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "t42");
    }
}
