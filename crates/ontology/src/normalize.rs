//! Text normalization shared by topic lookup and keyword matching.
//!
//! Scholarly sources spell the same topic many ways (`"Semantic Web"`,
//! `"semantic-web"`, `" SEMANTIC  WEB "`). All lookups in this crate go
//! through [`normalize_label`] so that those variants collide.

/// Normalizes a topic label or keyword for lookup.
///
/// Lowercases, maps any run of non-alphanumeric characters to a single
/// space, and trims. The result is stable: normalizing twice is a no-op.
///
/// ```
/// use minaret_ontology::normalize_label;
/// assert_eq!(normalize_label("  Semantic--Web "), "semantic web");
/// assert_eq!(normalize_label("RDF"), "rdf");
/// ```
pub fn normalize_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    normalize_label_onto(s, &mut out);
    out
}

/// Appends [`normalize_label`]`(s)` to `out`, so a caller normalizing
/// many strings can reuse one buffer instead of allocating per string.
///
/// ```
/// use minaret_ontology::normalize_label_onto;
/// let mut buf = String::from("kept|");
/// normalize_label_onto(" Big--Data ", &mut buf);
/// assert_eq!(buf, "kept|big data");
/// ```
pub fn normalize_label_onto(s: &str, out: &mut String) {
    let start = out.len();
    let mut pending_space = false;
    for ch in s.chars() {
        if ch.is_alphanumeric() {
            if pending_space && out.len() > start {
                out.push(' ');
            }
            pending_space = false;
            for lower in ch.to_lowercase() {
                out.push(lower);
            }
        } else {
            pending_space = true;
        }
    }
}

/// Many strings normalized back to back into one buffer: normalizing a
/// list costs one growing allocation, not one per string.
///
/// ```
/// use minaret_ontology::NormalizedLabels;
/// let labels = NormalizedLabels::new(["Big-Data", " RDF "]);
/// assert_eq!(labels.iter().collect::<Vec<_>>(), vec!["big data", "rdf"]);
/// ```
#[derive(Debug, Default)]
pub struct NormalizedLabels {
    buf: String,
    ends: Vec<usize>,
}

impl NormalizedLabels {
    /// Normalizes every string of `raws`, in order.
    pub fn new<'a>(raws: impl IntoIterator<Item = &'a str>) -> Self {
        let mut labels = NormalizedLabels::default();
        for raw in raws {
            normalize_label_onto(raw, &mut labels.buf);
            labels.ends.push(labels.buf.len());
        }
        labels
    }

    /// The normalized strings, in input order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.buf[start..end])
    }
}

/// Splits a string into normalized word tokens.
///
/// ```
/// use minaret_ontology::tokenize;
/// assert_eq!(tokenize("Linked-Open Data!"), vec!["linked", "open", "data"]);
/// ```
pub fn tokenize(s: &str) -> Vec<String> {
    normalize_label(s)
        .split(' ')
        .filter(|t| !t.is_empty())
        .map(|t| t.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn collapses_punctuation_and_case() {
        assert_eq!(normalize_label("Big   Data!!"), "big data");
        assert_eq!(normalize_label("machine_learning"), "machine learning");
        assert_eq!(normalize_label(""), "");
        assert_eq!(normalize_label("---"), "");
    }

    #[test]
    fn keeps_unicode_letters() {
        assert_eq!(normalize_label("Müller"), "müller");
    }

    #[test]
    fn tokenize_drops_empties() {
        assert_eq!(tokenize(" , "), Vec::<String>::new());
        assert_eq!(tokenize("a,b"), vec!["a", "b"]);
    }

    proptest! {
        #[test]
        fn normalization_is_idempotent(s in ".{0,64}") {
            let once = normalize_label(&s);
            let twice = normalize_label(&once);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn normalized_output_has_no_double_spaces(s in ".{0,64}") {
            let n = normalize_label(&s);
            prop_assert!(!n.contains("  "));
            prop_assert!(!n.starts_with(' '));
            prop_assert!(!n.ends_with(' '));
        }

        #[test]
        fn tokens_join_to_normalized(s in ".{0,64}") {
            let n = normalize_label(&s);
            let joined = tokenize(&s).join(" ");
            prop_assert_eq!(n, joined);
        }
    }
}
