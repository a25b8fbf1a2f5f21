//! Conflict-of-interest detection (§2.2 of the paper).
//!
//! "COI is determined by checking the extracted profile information for
//! both of the author list and candidate reviewers and based on the
//! existence of a previous co-authorship between the candidate reviewer
//! and one of \[the\] author list or the existence of any shared
//! affiliations on the level of the university or country, as configured
//! by the editor."

use minaret_ontology::NormalizedLabels;
use minaret_scholarly::name::{key_bits, parse_name, NameList, ParsedName};
use minaret_scholarly::{text_key, Institution, MergedCandidate, NormalizedLabel, TokenSet};

use crate::config::{AffiliationMatchLevel, CoiConfig};
use crate::keyed::KeyedTable;

/// Everything the COI check knows about one manuscript author: what the
/// editor typed plus whatever was extracted from the author's verified
/// profile.
///
/// A request checks every retrieved candidate against the same authors,
/// so the record holds the author side in comparison form, derived once
/// when it is built: the parsed name and co-author names, the normalized
/// publication titles, each institution's token set and each country's
/// normal form.
#[derive(Debug, Clone)]
pub struct AuthorRecord {
    name: String,
    parsed_name: Option<ParsedName>,
    institutions: Vec<TokenSet>,
    countries: Vec<NormalizedLabel>,
    publication_titles: NormalizedLabels,
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
        let mut countries: Vec<NormalizedLabel> = countries
            .iter()
            .map(|c| NormalizedLabel::new(c.as_ref()))
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
            publication_titles: NormalizedLabels::new(publication_titles.iter().map(AsRef::as_ref)),
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
            institutions.extend(p.affiliation());
            countries.extend(p.country());
            for h in p.affiliation_history() {
                institutions.push(&h.institution);
                countries.push(&h.country);
            }
            for publ in p.publications() {
                titles.push(publ.title());
                coauthors.extend(publ.coauthor_names().map(|n| n.text()));
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
/// Prepares the authors' tables for this one check; a caller checking
/// many candidates against the same authors prepares a [`CoiCheck`]
/// once instead.
pub fn check_coi(
    candidate: &MergedCandidate,
    authors: &[AuthorRecord],
    config: &CoiConfig,
) -> CoiVerdict {
    CoiCheck::new(authors).check(candidate, config)
}

/// Authors linked per pass: one bit each in a `u64`.
const AUTHOR_BLOCK: usize = u64::BITS as usize;

/// The manuscript side of the COI check, prepared once per request.
///
/// Beside the authors' records it holds two tables:
/// - the keys of the authors' parsed names, in one array that a single
///   pass over a candidate's co-authors checks;
/// - every author's publication titles folded into one table sorted by
///   key, which each candidate publication probes once for all authors.
///
/// A key match is only a lead: names then go through
/// [`ParsedName::compatible`], titles through a text comparison.
pub struct CoiCheck<'a> {
    authors: &'a [AuthorRecord],
    /// `(name key, its key bits, author index)` for every author whose
    /// name parses, ascending by author index.
    names: Vec<(u64, u64, u32)>,
    /// Every author's normalized titles, each naming its author.
    titles: KeyedTable<'a, u32>,
}

impl<'a> CoiCheck<'a> {
    /// Prepares the check against `authors`.
    pub fn new(authors: &'a [AuthorRecord]) -> Self {
        Self::keyed(authors, text_key)
    }

    /// Prepares the check, filing each normalized title under
    /// `title_key`.
    fn keyed(authors: &'a [AuthorRecord], title_key: impl Fn(&str) -> u64) -> Self {
        let names = (0u32..)
            .zip(authors)
            .filter_map(|(i, a)| {
                let key = a.parsed_name.as_ref()?.key();
                Some((key, key_bits(key), i))
            })
            .collect();
        let titles = KeyedTable::new(
            (0u32..)
                .zip(authors)
                .flat_map(|(i, a)| {
                    let title_key = &title_key;
                    a.publication_titles
                        .iter()
                        .map(move |t| (title_key(t), t, i))
                })
                .collect(),
        );
        CoiCheck {
            authors,
            names,
            titles,
        }
    }

    /// Checks one candidate reviewer against all manuscript authors.
    ///
    /// The candidate carries its parsed name, institution token sets and
    /// normalized countries, and its publications carry their
    /// co-authors' parsed names and their normalized titles with keys,
    /// all built once with the profiles, so the check only compares. The
    /// co-authorship signals read the publications the merge kept: a
    /// copy it dropped as a duplicate title contributes no co-authors.
    pub fn check(&self, candidate: &MergedCandidate, config: &CoiConfig) -> CoiVerdict {
        let mut reasons = Vec::new();
        for (block, authors) in self.authors.chunks(AUTHOR_BLOCK).enumerate() {
            let first = (block * AUTHOR_BLOCK) as u32;
            let name_links = if config.coauthorship {
                self.name_links(candidate, first, authors)
            } else {
                0
            };
            // Title links are looked up only when some author's name
            // does not link.
            let mut title_links = None;
            for (bit, author) in authors.iter().enumerate() {
                if config.coauthorship {
                    // Signal 1: the candidate is the author (an author may
                    // appear in search results), or the two list each
                    // other as co-authors. Signal 2, read only when the
                    // names do not link: they share a publication title —
                    // distinct sources may list the same paper under each
                    // of them.
                    let linked = name_links >> bit & 1 == 1
                        || (!author.publication_titles.is_empty() && {
                            let links = *title_links
                                .get_or_insert_with(|| self.title_links(candidate, first, authors));
                            links >> bit & 1 == 1
                        });
                    if linked {
                        reasons.push(CoiReason::CoAuthorship {
                            author: author.name.clone(),
                        });
                        continue; // one reason per author is enough
                    }
                }
                if config.affiliation_level == AffiliationMatchLevel::Off {
                    continue;
                }
                if let Some(inst) = shared_institution(
                    candidate.institutions(),
                    &author.institutions,
                    config.institution_similarity,
                ) {
                    reasons.push(CoiReason::SharedInstitution {
                        author: author.name.clone(),
                        institution: inst.to_string(),
                    });
                } else if config.affiliation_level == AffiliationMatchLevel::Country {
                    let shared = |c: &&NormalizedLabel| candidate.countries().any(|cc| cc == *c);
                    if let Some(country) = author.countries.iter().find(shared) {
                        reasons.push(CoiReason::SharedCountry {
                            author: author.name.clone(),
                            country: country.to_string(),
                        });
                    }
                }
            }
        }
        CoiVerdict { reasons }
    }

    /// Bit `i` is set when the candidate's name links to author
    /// `first + i` of `authors`: the candidate is that author, lists the
    /// author among the co-authors of a kept publication, or is among
    /// the author's co-authors.
    fn name_links(&self, candidate: &MergedCandidate, first: u32, authors: &[AuthorRecord]) -> u64 {
        let mut links = 0u64;
        if let Some(cand) = candidate.parsed_name() {
            for (bit, author) in authors.iter().enumerate() {
                let same_person = author
                    .parsed_name
                    .as_ref()
                    .is_some_and(|a| a.compatible(cand));
                if same_person || author.coauthors.any_compatible(cand) {
                    links |= 1 << bit;
                }
            }
        }
        // One pass over the candidate's co-authors against the block's
        // name keys; the full rule runs only on a key match. A
        // publication whose co-author filter holds no unlinked author's
        // key bits is skipped unread.
        let lo = self.names.partition_point(|&(_, _, i)| i < first);
        let hi = self
            .names
            .partition_point(|&(_, _, i)| i < first + authors.len() as u32);
        let names = &self.names[lo..hi];
        let named = names
            .iter()
            .fold(0u64, |m, &(_, _, i)| m | 1 << (i - first));
        for p in candidate.publications() {
            if links & named == named {
                break;
            }
            let filter = p.coauthor_filter();
            let may_list_unlinked = names
                .iter()
                .any(|&(_, bits, i)| links & 1 << (i - first) == 0 && bits & !filter == 0);
            if !may_list_unlinked {
                continue;
            }
            for coauthor in p.coauthor_names().filter_map(|n| n.parsed()) {
                for &(key, _, i) in names {
                    let bit = 1 << (i - first);
                    if key == coauthor.key()
                        && links & bit == 0
                        && authors[(i - first) as usize]
                            .parsed_name
                            .as_ref()
                            .is_some_and(|a| coauthor.compatible(a))
                    {
                        links |= bit;
                    }
                }
            }
        }
        links
    }

    /// Bit `i` is set when a kept publication of the candidate bears a
    /// title author `first + i` lists. Each publication is probed once.
    fn title_links(
        &self,
        candidate: &MergedCandidate,
        first: u32,
        authors: &[AuthorRecord],
    ) -> u64 {
        let block = first..first + authors.len() as u32;
        let mut links = 0u64;
        for p in candidate.publications() {
            for &author in self.titles.get(p.title_key(), p.normalized_title()) {
                if block.contains(&author) {
                    links |= 1 << (author - first);
                }
            }
        }
        links
    }
}

/// The first candidate institution whose tokens overlap any of the
/// author's by at least `min_similarity`.
fn shared_institution<'c>(
    mut candidate: impl Iterator<Item = &'c Institution>,
    author: &[TokenSet],
    min_similarity: f64,
) -> Option<&'c str> {
    candidate
        .find(|x| {
            author
                .iter()
                .any(|y| x.tokens().jaccard(y) >= min_similarity)
        })
        .map(Institution::text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_scholarly::{
        merge_profiles, AffiliationRecord, Institution, Label, PersonName, SourceKind,
        SourceProfile, SourcePublication,
    };
    use minaret_synth::ScholarId;
    use std::sync::Arc;

    /// A candidate of one profile, with `history`, listing
    /// `publications`.
    fn profile_candidate(
        name: &str,
        aff: Option<&str>,
        country: Option<&str>,
        history: Vec<AffiliationRecord>,
        publications: Vec<Arc<SourcePublication>>,
    ) -> MergedCandidate {
        let mut profile = SourceProfile::new(
            SourceKind::GoogleScholar,
            "gs:1".into(),
            Arc::new(PersonName::new(name)),
            aff.map(|a| Arc::new(Institution::new(a))),
            country.map(|c| Arc::new(Label::new(c))),
            vec![],
            ScholarId(1),
        )
        .with_publications(publications);
        profile.affiliation_history = history;
        MergedCandidate::from_profiles(vec![Arc::new(profile)])
    }

    fn candidate(name: &str, aff: Option<&str>, country: Option<&str>) -> MergedCandidate {
        profile_candidate(name, aff, country, vec![], vec![])
    }

    fn listing(
        name: &str,
        aff: Option<&str>,
        publication: Arc<SourcePublication>,
    ) -> MergedCandidate {
        profile_candidate(name, aff, None, vec![], vec![publication])
    }

    fn pub_with(title: &str, coauthors: &[&str]) -> Arc<SourcePublication> {
        Arc::new(SourcePublication::new(
            title.into(),
            2016,
            Arc::new(Label::new("J")),
            coauthors
                .iter()
                .map(|c| Arc::new(PersonName::new(c)))
                .collect(),
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
        let cand = listing(
            "Ada Lovelace",
            None,
            pub_with("On engines", &["Charles Babbage"]),
        );
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
        let cand = listing(
            "Ada Lovelace",
            None,
            pub_with("Notes on the Analytical Engine", &[]),
        );
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
    fn titles_filed_under_one_key_link_only_their_own_authors() {
        // Both authors' titles filed under the key of the first one's: a
        // candidate listing that title links its author only, and one
        // listing the other title (whose key leads elsewhere) links none.
        let authors = [
            AuthorRecord::new(
                "Luigi Menabrea",
                &[],
                &[],
                &["Notes on the Analytical Engine"],
                &[],
            ),
            AuthorRecord::new("Grace Hopper", &[], &[], &["Deep Learning for Graphs"], &[]),
        ];
        let shared = text_key("notes on the analytical engine");
        let check = CoiCheck::keyed(&authors, |_| shared);
        let with_title = |title: &str| {
            let cand = listing("Ada Lovelace", None, pub_with(title, &[]));
            check.check(&cand, &CoiConfig::default()).reasons
        };
        assert_eq!(
            with_title("notes on the  analytical engine."),
            vec![CoiReason::CoAuthorship {
                author: "Luigi Menabrea".into()
            }]
        );
        assert_eq!(with_title("Deep Learning for Graphs"), vec![]);
        // Filed under their own keys, each title links its author.
        let check = CoiCheck::new(&authors);
        let cand = listing(
            "Ada Lovelace",
            None,
            pub_with("Deep learning for graphs", &[]),
        );
        assert_eq!(
            check.check(&cand, &CoiConfig::default()).reasons,
            vec![CoiReason::CoAuthorship {
                author: "Grace Hopper".into()
            }]
        );
    }

    #[test]
    fn a_publication_the_merge_drops_contributes_no_coauthors() {
        // Two profiles of one person list one paper, under titles equal
        // after normalization but with different co-authors. The merge
        // keeps the first copy: Google Scholar sorts before DBLP.
        let profile = |source: SourceKind, title: &str, coauthor: &str| {
            let p = SourceProfile::new(
                source,
                format!("{}:1", source.prefix()),
                Arc::new(PersonName::new("Ada Lovelace")),
                Some(Arc::new(Institution::new("U Tartu"))),
                None,
                vec![],
                ScholarId(1),
            )
            .with_publications(vec![pub_with(title, &[coauthor])]);
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
        assert_eq!(cand.publication_count(), 1);
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
        let cand = listing(
            "Ada Lovelace",
            Some("U X"),
            pub_with("P", &["Grace Hopper"]),
        );
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
        let cand = profile_candidate(
            "Past Colleague",
            Some("University of Oslo"),
            Some("Norway"),
            vec![AffiliationRecord::new(
                Arc::new(Institution::new("University of Tartu")),
                Arc::new(Label::new("Estonia")),
                2005,
                2010,
            )],
            vec![],
        );
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
