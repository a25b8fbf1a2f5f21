//! Entity records of the synthetic scholarly world.

use minaret_ontology::TopicId;

use crate::ids::{InstitutionId, PaperId, ScholarId, VenueId};

/// A university or research lab a scholar can be affiliated with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Institution {
    /// Identifier.
    pub id: InstitutionId,
    /// Display name, e.g. `"University of Tartu"`.
    pub name: String,
    /// Country the institution is located in (used for country-level
    /// conflict-of-interest checks, §2.2 of the paper).
    pub country: String,
}

/// Journal or conference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VenueKind {
    /// A journal — the open-reviewer-universe case MINARET targets.
    Journal,
    /// A conference — the closed PC-universe case (§3 integration mode).
    Conference,
}

/// A publication venue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Venue {
    /// Identifier.
    pub id: VenueId,
    /// Display name.
    pub name: String,
    /// Journal or conference.
    pub kind: VenueKind,
    /// Topical focus of the venue.
    pub topics: Vec<TopicId>,
}

/// One published paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Paper {
    /// Identifier.
    pub id: PaperId,
    /// Generated title.
    pub title: String,
    /// Publication year.
    pub year: u32,
    /// Venue it appeared in.
    pub venue: VenueId,
    /// Author list, in author order. Never empty.
    pub authors: Vec<ScholarId>,
    /// Topics the paper is about (ground truth; sources expose noisy
    /// keyword views of this).
    pub topics: Vec<TopicId>,
    /// Citation count accumulated by the paper.
    pub citations: u32,
}

/// A span of years a scholar spent at one institution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AffiliationSpan {
    /// Where.
    pub institution: InstitutionId,
    /// First year of the affiliation (inclusive).
    pub from_year: u32,
    /// Last year of the affiliation (inclusive).
    pub to_year: u32,
}

impl AffiliationSpan {
    /// True when the two spans share at least one year.
    pub fn overlaps(&self, other: &AffiliationSpan) -> bool {
        self.from_year <= other.to_year && other.from_year <= self.to_year
    }
}

/// A researcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scholar {
    /// Identifier — the *true* identity. Sources expose their own keys;
    /// mapping those back to this id is the disambiguation problem.
    pub id: ScholarId,
    /// Given name, e.g. `"Lei"`.
    pub given_name: String,
    /// Family name, e.g. `"Zhou"`.
    pub family_name: String,
    /// Affiliation history, ordered by `from_year`. Never empty.
    pub affiliations: Vec<AffiliationSpan>,
    /// Research interests (ground truth topics).
    pub interests: Vec<TopicId>,
    /// Year of first activity (proxy for career start).
    pub active_since: u32,
}

impl Scholar {
    /// `"Given Family"` display form.
    pub fn full_name(&self) -> String {
        let mut name = String::with_capacity(self.given_name.len() + 1 + self.family_name.len());
        name.push_str(&self.given_name);
        name.push(' ');
        name.push_str(&self.family_name);
        name
    }

    /// The scholar's latest affiliation.
    pub fn current_affiliation(&self) -> InstitutionId {
        self.affiliations
            .last()
            .expect("scholars always have at least one affiliation")
            .institution
    }
}

/// One completed manuscript review (the Publons-style record).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReviewRecord {
    /// Who reviewed.
    pub reviewer: ScholarId,
    /// For which venue.
    pub venue: VenueId,
    /// In which year.
    pub year: u32,
    /// Days the reviewer took to return the review — used by the
    /// "likelihood to accept and timely return" ranking aspect the paper
    /// lists in §1.
    pub turnaround_days: u32,
    /// Editor-assigned helpfulness of the review, 1–5 stars (Publons
    /// exposes review quality signals; §1 lists "the quality of the
    /// reviews" among the aspects an editor can consider).
    pub quality: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scholar() -> Scholar {
        Scholar {
            id: ScholarId(0),
            given_name: "Ada".into(),
            family_name: "Lovelace".into(),
            affiliations: vec![
                AffiliationSpan {
                    institution: InstitutionId(0),
                    from_year: 2000,
                    to_year: 2009,
                },
                AffiliationSpan {
                    institution: InstitutionId(1),
                    from_year: 2010,
                    to_year: 2018,
                },
            ],
            interests: vec![],
            active_since: 2000,
        }
    }

    #[test]
    fn full_name_joins_parts() {
        assert_eq!(scholar().full_name(), "Ada Lovelace");
    }

    #[test]
    fn current_affiliation_is_the_latest_span() {
        assert_eq!(scholar().current_affiliation(), InstitutionId(1));
    }

    #[test]
    fn span_overlap_is_symmetric_and_correct() {
        let a = AffiliationSpan {
            institution: InstitutionId(0),
            from_year: 2000,
            to_year: 2005,
        };
        let b = AffiliationSpan {
            institution: InstitutionId(1),
            from_year: 2005,
            to_year: 2010,
        };
        let c = AffiliationSpan {
            institution: InstitutionId(2),
            from_year: 2006,
            to_year: 2010,
        };
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
    }
}
