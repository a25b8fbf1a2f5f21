//! Conflict-of-interest detection (§2.2 of the paper).
//!
//! "COI is determined by checking the extracted profile information for
//! both of the author list and candidate reviewers and based on the
//! existence of a previous co-authorship between the candidate reviewer
//! and one of \[the\] author list or the existence of any shared
//! affiliations on the level of the university or country, as configured
//! by the editor."

use std::collections::HashSet;

use minaret_disambig::evidence::TokenSet;
use minaret_ontology::normalize_label;
use minaret_scholarly::name::{parse_name, NameList, ParsedName};
use minaret_scholarly::MergedCandidate;

use crate::config::{AffiliationMatchLevel, CoiConfig};

/// Everything the COI check knows about one manuscript author: what the
/// editor typed plus whatever was extracted from the author's verified
/// profile.
///
/// A request checks every retrieved candidate against the same authors,
/// so the record holds the author side in comparison form, derived once
/// when it is built: the parsed name and co-author names, a set of
/// normalized publication titles, and each institution's token set.
#[derive(Debug, Clone)]
pub struct AuthorRecord {
    name: String,
    parsed_name: Option<ParsedName>,
    institutions: Vec<TokenSet>,
    countries: Vec<String>,
    publication_titles: HashSet<String>,
    coauthors: NameList,
}

impl AuthorRecord {
    /// Builds a record from raw fields: institution names, countries,
    /// publication titles (countries and titles are normalized here) and
    /// co-author display names.
    pub fn new<S: AsRef<str>>(
        name: &str,
        institutions: &[S],
        countries: &[S],
        publication_titles: &[S],
        coauthor_names: &[S],
    ) -> Self {
        let mut countries: Vec<String> = countries
            .iter()
            .map(|c| normalize_label(c.as_ref()))
            .collect();
        countries.sort();
        countries.dedup();
        AuthorRecord {
            name: name.to_string(),
            parsed_name: parse_name(name),
            institutions: institutions
                .iter()
                .map(|i| TokenSet::new(i.as_ref()))
                .collect(),
            countries,
            publication_titles: publication_titles
                .iter()
                .map(|t| normalize_label(t.as_ref()))
                .collect(),
            coauthors: NameList::parse(coauthor_names.iter().map(AsRef::as_ref)),
        }
    }

    /// Builds a record from the typed form fields plus an optional
    /// verified profile.
    pub fn from_parts(
        name: &str,
        typed_affiliation: Option<&str>,
        typed_country: Option<&str>,
        profile: Option<&MergedCandidate>,
    ) -> Self {
        let mut institutions: Vec<&str> = typed_affiliation.into_iter().collect();
        let mut countries: Vec<&str> = typed_country.into_iter().collect();
        let mut titles: Vec<&str> = Vec::new();
        let mut coauthors: Vec<&str> = Vec::new();
        if let Some(p) = profile {
            institutions.extend(p.affiliation.as_deref());
            countries.extend(p.country.as_deref());
            for h in &p.affiliation_history {
                institutions.push(&h.institution);
                countries.push(&h.country);
            }
            for publ in &p.publications {
                titles.push(publ.title());
                coauthors.extend(publ.coauthor_names().iter().map(|n| n.text()));
            }
        }
        Self::new(name, &institutions, &countries, &titles, &coauthors)
    }

    /// The author's name as typed.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Why a candidate was flagged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoiReason {
    /// The candidate co-authored with this manuscript author.
    CoAuthorship {
        /// The conflicting author's name (as typed).
        author: String,
    },
    /// The candidate shares a university-level affiliation with this
    /// author.
    SharedInstitution {
        /// The conflicting author's name.
        author: String,
        /// The institution both are associated with.
        institution: String,
    },
    /// The candidate shares a country with this author (only when the
    /// editor configured country-level matching).
    SharedCountry {
        /// The conflicting author's name.
        author: String,
        /// The shared country.
        country: String,
    },
}

/// Outcome of the COI check for one candidate.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CoiVerdict {
    /// All detected conflicts; empty means no conflict.
    pub reasons: Vec<CoiReason>,
}

impl CoiVerdict {
    /// True when any conflict was found.
    pub fn conflicted(&self) -> bool {
        !self.reasons.is_empty()
    }
}

/// Checks one candidate reviewer against all manuscript authors.
///
/// The candidate's publications carry their co-authors' parsed names and
/// their normalized titles, built once with the profile, so the
/// co-authorship signals only compare. They read the publications the
/// merge kept: a copy it dropped as a duplicate title contributes no
/// co-authors.
pub fn check_coi(
    candidate: &MergedCandidate,
    authors: &[AuthorRecord],
    config: &CoiConfig,
) -> CoiVerdict {
    let mut reasons = Vec::new();
    let cand_name = parse_name(&candidate.display_name);
    // The affiliation side is derived at most once per check, and only
    // when some author reaches the signal that reads it.
    let mut cand_institutions: Option<Vec<(&str, TokenSet)>> = None;
    let mut cand_countries: Option<Vec<String>> = None;

    for author in authors {
        // The candidate *is* the author: trivially conflicted, reported
        // as co-authorship (an author may appear in search results).
        let same_person = match (&cand_name, &author.parsed_name) {
            (Some(a), Some(b)) => a.compatible(b),
            _ => false,
        };

        if config.coauthorship {
            // Signal 1: the author appears among the candidate's listed
            // co-authors (or vice versa).
            let name_link = same_person
                || author.parsed_name.as_ref().is_some_and(|an| {
                    candidate
                        .publications
                        .iter()
                        .flat_map(|p| p.coauthor_names())
                        .filter_map(|n| n.parsed())
                        .any(|cn| cn.compatible(an))
                })
                || cand_name
                    .as_ref()
                    .is_some_and(|cn| author.coauthors.any_compatible(cn));
            // Signal 2, checked only when the names do not link: they
            // share a publication title — distinct sources may list the
            // same paper under each of them.
            let title_link = || {
                !author.publication_titles.is_empty()
                    && candidate
                        .publications
                        .iter()
                        .any(|p| author.publication_titles.contains(p.normalized_title()))
            };
            if name_link || title_link() {
                reasons.push(CoiReason::CoAuthorship {
                    author: author.name.clone(),
                });
                continue; // one reason per author is enough
            }
        }
        if config.affiliation_level == AffiliationMatchLevel::Off {
            continue;
        }
        let institutions = cand_institutions.get_or_insert_with(|| {
            candidate
                .affiliation
                .iter()
                .chain(candidate.affiliation_history.iter().map(|h| &h.institution))
                .map(|i| (i.as_str(), TokenSet::new(i)))
                .collect()
        });
        if let Some(inst) = shared_institution(
            institutions,
            &author.institutions,
            config.institution_similarity,
        ) {
            reasons.push(CoiReason::SharedInstitution {
                author: author.name.clone(),
                institution: inst.to_string(),
            });
        } else if config.affiliation_level == AffiliationMatchLevel::Country {
            let countries = cand_countries.get_or_insert_with(|| {
                candidate
                    .country
                    .iter()
                    .chain(candidate.affiliation_history.iter().map(|h| &h.country))
                    .map(|c| normalize_label(c))
                    .collect()
            });
            if let Some(country) = author.countries.iter().find(|c| countries.contains(c)) {
                reasons.push(CoiReason::SharedCountry {
                    author: author.name.clone(),
                    country: country.clone(),
                });
            }
        }
    }
    CoiVerdict { reasons }
}

/// The first candidate institution whose tokens overlap any of the
/// author's by at least `min_similarity`.
fn shared_institution<'c>(
    candidate: &[(&'c str, TokenSet)],
    author: &[TokenSet],
    min_similarity: f64,
) -> Option<&'c str> {
    candidate
        .iter()
        .find(|(_, x)| author.iter().any(|y| x.jaccard(y) >= min_similarity))
        .map(|&(name, _)| name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_scholarly::{
        merge_profiles, SourceKind, SourceMetrics, SourceProfile, SourcePublication, Vocabulary,
    };
    use minaret_synth::ScholarId;
    use std::sync::Arc;

    fn candidate(name: &str, aff: Option<&str>, country: Option<&str>) -> MergedCandidate {
        MergedCandidate {
            display_name: name.into(),
            affiliation: aff.map(String::from),
            country: country.map(String::from),
            affiliation_history: vec![],
            interests: vec![],
            publications: vec![],
            metrics: SourceMetrics::default(),
            reviews: vec![],
            sources: vec![],
            keys: vec![],
            truths: vec![],
        }
    }

    fn pub_with(title: &str, coauthors: &[&str]) -> Arc<SourcePublication> {
        let v = Vocabulary::new();
        Arc::new(SourcePublication::new(
            title.into(),
            2016,
            v.label("J"),
            coauthors.iter().map(|c| v.name(c)).collect(),
            vec![],
            None,
        ))
    }

    #[test]
    fn candidate_who_is_an_author_is_conflicted() {
        let cand = candidate("Lei Zhou", Some("U Tartu"), Some("Estonia"));
        let authors = vec![AuthorRecord::from_parts("Lei Zhou", None, None, None)];
        let v = check_coi(&cand, &authors, &CoiConfig::default());
        assert!(v.conflicted());
        assert!(matches!(v.reasons[0], CoiReason::CoAuthorship { .. }));
    }

    #[test]
    fn coauthorship_via_candidate_publication_list() {
        let mut cand = candidate("Ada Lovelace", None, None);
        cand.publications
            .push(pub_with("On engines", &["Charles Babbage"]));
        let authors = vec![AuthorRecord::from_parts(
            "Charles Babbage",
            None,
            None,
            None,
        )];
        let v = check_coi(&cand, &authors, &CoiConfig::default());
        assert!(v.conflicted());
    }

    #[test]
    fn coauthorship_via_shared_title() {
        let mut cand = candidate("Ada Lovelace", None, None);
        cand.publications
            .push(pub_with("Notes on the Analytical Engine", &[]));
        let author = AuthorRecord::new(
            "Luigi Menabrea",
            &[],
            &[],
            &["Notes on the Analytical Engine"],
            &[],
        );
        let v = check_coi(&cand, &[author], &CoiConfig::default());
        assert!(v.conflicted());
    }

    #[test]
    fn a_publication_the_merge_drops_contributes_no_coauthors() {
        // Two profiles of one person list one paper, under titles equal
        // after normalization but with different co-authors. The merge
        // keeps the first copy: Google Scholar sorts before DBLP.
        let profile = |source: SourceKind, title: &str, coauthor: &str| {
            let mut p = SourceProfile::new(
                source,
                format!("{}:1", source.prefix()),
                "Ada Lovelace".into(),
                Some("U Tartu".into()),
                vec![],
                ScholarId(1),
            );
            p.publications.push(pub_with(title, &[coauthor]));
            Arc::new(p)
        };
        let merged = merge_profiles(vec![
            profile(
                SourceKind::Dblp,
                "notes on the  analytical engine",
                "Grace Hopper",
            ),
            profile(
                SourceKind::GoogleScholar,
                "Notes on the Analytical Engine",
                "Charles Babbage",
            ),
        ]);
        assert_eq!(merged.len(), 1);
        let cand = &merged[0];
        assert_eq!(cand.publications.len(), 1);
        let check = |name: &str| {
            let authors = [AuthorRecord::from_parts(name, None, None, None)];
            check_coi(cand, &authors, &CoiConfig::default())
        };
        assert!(matches!(
            check("Charles Babbage").reasons[..],
            [CoiReason::CoAuthorship { .. }]
        ));
        assert!(
            !check("Grace Hopper").conflicted(),
            "a co-author of the dropped copy conflicts"
        );
    }

    #[test]
    fn shared_university_detected_with_fuzzy_names() {
        let cand = candidate("A B", Some("University of Tartu"), Some("Estonia"));
        let authors = vec![AuthorRecord::from_parts(
            "C D",
            Some("university of tartu"), // case/format noise
            None,
            None,
        )];
        let v = check_coi(&cand, &authors, &CoiConfig::default());
        assert!(v.conflicted());
        assert!(matches!(v.reasons[0], CoiReason::SharedInstitution { .. }));
    }

    #[test]
    fn different_universities_pass_at_university_level() {
        let cand = candidate("A B", Some("University of Tartu"), Some("Estonia"));
        let authors = vec![AuthorRecord::from_parts(
            "C D",
            Some("University of Lisbon"),
            Some("Portugal"),
            None,
        )];
        let v = check_coi(&cand, &authors, &CoiConfig::default());
        assert!(!v.conflicted());
    }

    #[test]
    fn country_level_catches_same_country_different_university() {
        let cand = candidate("A B", Some("University of Tartu"), Some("Estonia"));
        let authors = vec![AuthorRecord::from_parts(
            "C D",
            Some("Tallinn University of Technology"),
            Some("Estonia"),
            None,
        )];
        let strict = CoiConfig {
            affiliation_level: AffiliationMatchLevel::Country,
            ..Default::default()
        };
        let v = check_coi(&cand, &authors, &strict);
        assert!(v.conflicted());
        assert!(matches!(v.reasons[0], CoiReason::SharedCountry { .. }));
        // University level does not flag it.
        let v2 = check_coi(&cand, &authors, &CoiConfig::default());
        assert!(!v2.conflicted());
    }

    #[test]
    fn off_level_ignores_affiliations() {
        let cand = candidate("A B", Some("University of Tartu"), Some("Estonia"));
        let authors = vec![AuthorRecord::from_parts(
            "C D",
            Some("University of Tartu"),
            Some("Estonia"),
            None,
        )];
        let off = CoiConfig {
            affiliation_level: AffiliationMatchLevel::Off,
            ..Default::default()
        };
        assert!(!check_coi(&cand, &authors, &off).conflicted());
    }

    #[test]
    fn coauthorship_toggle_respected() {
        let cand = candidate("Lei Zhou", None, None);
        let authors = vec![AuthorRecord::from_parts("Lei Zhou", None, None, None)];
        let cfg = CoiConfig {
            coauthorship: false,
            affiliation_level: AffiliationMatchLevel::Off,
            ..Default::default()
        };
        assert!(!check_coi(&cand, &authors, &cfg).conflicted());
    }

    #[test]
    fn one_reason_per_author_for_coauthorship() {
        // An author who both co-authored and shares the institution yields
        // a single CoAuthorship reason (the `continue` path).
        let mut cand = candidate("Ada Lovelace", Some("U X"), None);
        cand.publications.push(pub_with("P", &["Grace Hopper"]));
        let authors = vec![AuthorRecord::from_parts(
            "Grace Hopper",
            Some("U X"),
            None,
            None,
        )];
        let v = check_coi(&cand, &authors, &CoiConfig::default());
        assert_eq!(v.reasons.len(), 1);
    }

    #[test]
    fn orcid_history_catches_past_colleagues() {
        // Candidate moved away years ago, so the *current* affiliations
        // differ — only the ORCID-style history exposes the old overlap.
        let mut cand = candidate("Past Colleague", Some("University of Oslo"), Some("Norway"));
        cand.affiliation_history
            .push(minaret_scholarly::AffiliationRecord {
                institution: "University of Tartu".into(),
                country: "Estonia".into(),
                from_year: 2005,
                to_year: 2010,
            });
        let author = AuthorRecord::new(
            "Author Y",
            &["University of Tartu", "University of Tartu"],
            &["Estonia"],
            &[],
            &[],
        );
        let v = check_coi(&cand, std::slice::from_ref(&author), &CoiConfig::default());
        assert!(v.conflicted(), "history-based overlap missed");
        assert!(matches!(v.reasons[0], CoiReason::SharedInstitution { .. }));
        // Without the history entry the same candidate is clean.
        let clean = candidate("Past Colleague", Some("University of Oslo"), Some("Norway"));
        assert!(
            !check_coi(&clean, std::slice::from_ref(&author), &CoiConfig::default()).conflicted()
        );
    }

    #[test]
    fn multiple_authors_accumulate_reasons() {
        let cand = candidate("A B", Some("U Shared"), None);
        let authors = vec![
            AuthorRecord::from_parts("C D", Some("U Shared"), None, None),
            AuthorRecord::from_parts("E F", Some("U Shared"), None, None),
        ];
        let v = check_coi(&cand, &authors, &CoiConfig::default());
        assert_eq!(v.reasons.len(), 2);
    }
}
