//! Name normalization, variants, and compatibility.

use minaret_ontology::normalize_label_onto;

/// A parsed personal name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedName {
    /// Given name(s), normalized; may be a single initial.
    pub given: String,
    /// Family name, normalized.
    pub family: String,
}

/// Parses `"Lei Zhou"`, `"L. Zhou"`, `"Zhou, Lei"` into parts.
///
/// Returns `None` for empty or single-token names without a comma.
pub fn parse_name(raw: &str) -> Option<ParsedName> {
    let mut buf = String::new();
    let (given, family) = parse_onto(raw, &mut buf)?;
    Some(ParsedName {
        given: buf[given.0..given.1].to_string(),
        family: buf[family.0..family.1].to_string(),
    })
}

/// Byte span `(start, end)` of one name part inside a buffer.
type Span = (usize, usize);

/// Parses `raw` the way [`parse_name`] does, normalizing onto the end of
/// `buf` and returning the spans of the given and family names. On
/// `None`, `buf` is left as it was.
fn parse_onto(raw: &str, buf: &mut String) -> Option<(Span, Span)> {
    let start = buf.len();
    if let Some((family, given)) = raw.split_once(',') {
        normalize_label_onto(given, buf);
        let mid = buf.len();
        normalize_label_onto(family, buf);
        if mid == start || buf.len() == mid {
            buf.truncate(start);
            return None;
        }
        return Some(((start, mid), (mid, buf.len())));
    }
    // Normalized text has single spaces between tokens and none at either
    // end, so the last space splits the family name from the given names.
    normalize_label_onto(raw, buf);
    match buf[start..].rfind(' ') {
        Some(i) => Some(((start, start + i), (start + i + 1, buf.len()))),
        None => {
            buf.truncate(start);
            None
        }
    }
}

/// True when `(given, family)` name pairs can denote the same person:
/// family names equal and given names equal, or one is the initial of
/// the other.
fn parts_compatible(a: (&str, &str), b: (&str, &str)) -> bool {
    if a.1 != b.1 {
        return false;
    }
    if a.0 == b.0 {
        return true;
    }
    let abbreviated = |given: &str| given.chars().count() == 1;
    match (a.0.chars().next(), b.0.chars().next()) {
        (Some(x), Some(y)) if x == y => abbreviated(a.0) || abbreviated(b.0),
        _ => false,
    }
}

impl ParsedName {
    /// First character of the given name.
    pub fn initial(&self) -> Option<char> {
        self.given.chars().next()
    }

    /// True when the given name is only an initial (optionally dotted in
    /// the raw form; normalization strips the dot).
    pub fn is_abbreviated(&self) -> bool {
        self.given.chars().count() == 1
    }

    /// The search variants a scraper would try: full form and
    /// initial-form.
    pub fn search_variants(&self) -> Vec<String> {
        let mut v = vec![format!("{} {}", self.given, self.family)];
        if let Some(i) = self.initial() {
            let abbrev = format!("{i} {}", self.family);
            if !v.contains(&abbrev) {
                v.push(abbrev);
            }
        }
        v
    }

    /// True when `self` and `other` can denote the same person: family
    /// names equal and given names equal, or one is the initial of the
    /// other.
    pub fn compatible(&self, other: &ParsedName) -> bool {
        parts_compatible(self.parts(), other.parts())
    }

    fn parts(&self) -> (&str, &str) {
        (&self.given, &self.family)
    }
}

/// Many parsed names stored back to back in one buffer: parsing a list
/// of names costs one growing allocation, not several per name.
/// Unparseable names are skipped, as `filter_map(parse_name)` would.
#[derive(Debug, Clone, Default)]
pub struct NameList {
    buf: String,
    names: Vec<(Span, Span)>,
}

impl NameList {
    /// Parses every name in `raws`.
    pub fn parse<'a>(raws: impl IntoIterator<Item = &'a str>) -> Self {
        let mut list = NameList::default();
        for raw in raws {
            list.names.extend(parse_onto(raw, &mut list.buf));
        }
        list
    }

    /// True when any listed name is [compatible](ParsedName::compatible)
    /// with `name`.
    pub fn any_compatible(&self, name: &ParsedName) -> bool {
        self.names.iter().any(|&(g, f)| {
            parts_compatible((&self.buf[g.0..g.1], &self.buf[f.0..f.1]), name.parts())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_given_family() {
        let n = parse_name("Lei Zhou").unwrap();
        assert_eq!(n.given, "lei");
        assert_eq!(n.family, "zhou");
        assert!(!n.is_abbreviated());
    }

    #[test]
    fn parses_comma_form() {
        let n = parse_name("Zhou, Lei").unwrap();
        assert_eq!(n.given, "lei");
        assert_eq!(n.family, "zhou");
    }

    #[test]
    fn parses_initial_form() {
        let n = parse_name("L. Zhou").unwrap();
        assert_eq!(n.given, "l");
        assert!(n.is_abbreviated());
    }

    #[test]
    fn parses_multi_given() {
        let n = parse_name("Mohamed R. Moawad").unwrap();
        assert_eq!(n.given, "mohamed r");
        assert_eq!(n.family, "moawad");
    }

    #[test]
    fn rejects_degenerate_names() {
        assert!(parse_name("").is_none());
        assert!(parse_name("Cher").is_none());
        assert!(parse_name(",").is_none());
    }

    #[test]
    fn variants_cover_full_and_initial() {
        let n = parse_name("Lei Zhou").unwrap();
        assert_eq!(n.search_variants(), vec!["lei zhou", "l zhou"]);
        let a = parse_name("L Zhou").unwrap();
        assert_eq!(a.search_variants(), vec!["l zhou"]);
    }

    #[test]
    fn compatibility_rules() {
        let full = parse_name("Lei Zhou").unwrap();
        let abbr = parse_name("L. Zhou").unwrap();
        let other = parse_name("Ming Zhou").unwrap();
        let other_family = parse_name("Lei Wang").unwrap();
        assert!(full.compatible(&abbr));
        assert!(abbr.compatible(&full));
        assert!(full.compatible(&full));
        assert!(!full.compatible(&other));
        assert!(!full.compatible(&other_family));
        // Two distinct full names sharing an initial are NOT compatible.
        let lin = parse_name("Li Zhou").unwrap();
        assert!(!full.compatible(&lin));
        // But two abbreviated forms with the same initial are.
        let abbr2 = parse_name("L Zhou").unwrap();
        assert!(abbr.compatible(&abbr2));
    }

    #[test]
    fn name_list_matches_one_by_one_parsing() {
        let raws = [
            "Lei Zhou",
            "Zhou, L.",
            "Cher",
            ", Lei",
            "Mohamed R. Moawad",
            "",
            "Ming  Zhou!",
        ];
        let list = NameList::parse(raws);
        let parsed: Vec<ParsedName> = raws.iter().filter_map(|r| parse_name(r)).collect();
        for probe in [
            "L. Zhou",
            "Lei Zhou",
            "Li Zhou",
            "M Moawad",
            "Ming Zhou",
            "Lei Cher",
        ] {
            let probe = parse_name(probe).unwrap();
            assert_eq!(
                list.any_compatible(&probe),
                parsed.iter().any(|p| p.compatible(&probe)),
                "{probe:?}"
            );
        }
    }
}
