//! The generated world and its derived views.

use std::collections::HashMap;
use std::sync::OnceLock;

use minaret_ontology::{Ontology, TopicId};

use crate::ids::{InstitutionId, PaperId, ScholarId, VenueId};
use crate::model::{Institution, Paper, ReviewRecord, Scholar, Venue};

/// A complete synthetic scholarly world plus derived lookup tables.
///
/// The raw entity tables are the ground truth. Construction derives the
/// two views serving reads, papers-by-author and reviews-by-scholar.
/// The views only evaluation and ground truth read (co-author sets,
/// citation totals, h-indexes) are computed on first call, once each.
#[derive(Debug)]
pub struct World {
    /// The topic ontology the world was generated against.
    pub ontology: Ontology,
    /// Current year of the simulation ("now" for recency).
    pub current_year: u32,
    scholars: Vec<Scholar>,
    papers: Vec<Paper>,
    venues: Vec<Venue>,
    institutions: Vec<Institution>,
    reviews: Vec<ReviewRecord>,
    // Derived at construction:
    papers_by_author: Vec<Vec<PaperId>>,
    reviews_by_scholar: Vec<Vec<usize>>,
    // Derived on first call:
    coauthors: OnceLock<Vec<Vec<ScholarId>>>,
    citations: OnceLock<Vec<u64>>,
    h_index: OnceLock<Vec<u32>>,
}

impl World {
    /// Assembles a world from raw tables, deriving papers-by-author and
    /// reviews-by-scholar.
    pub fn assemble(
        ontology: Ontology,
        current_year: u32,
        scholars: Vec<Scholar>,
        papers: Vec<Paper>,
        venues: Vec<Venue>,
        institutions: Vec<Institution>,
        reviews: Vec<ReviewRecord>,
    ) -> Self {
        let n = scholars.len();
        let mut papers_by_author = vec![Vec::new(); n];
        for p in &papers {
            for &a in &p.authors {
                papers_by_author[a.index()].push(p.id);
            }
        }
        let mut reviews_by_scholar = vec![Vec::new(); n];
        for (ri, r) in reviews.iter().enumerate() {
            reviews_by_scholar[r.reviewer.index()].push(ri);
        }
        Self {
            ontology,
            current_year,
            scholars,
            papers,
            venues,
            institutions,
            reviews,
            papers_by_author,
            reviews_by_scholar,
            coauthors: OnceLock::new(),
            citations: OnceLock::new(),
            h_index: OnceLock::new(),
        }
    }

    /// All scholars.
    pub fn scholars(&self) -> &[Scholar] {
        &self.scholars
    }

    /// All papers.
    pub fn papers(&self) -> &[Paper] {
        &self.papers
    }

    /// All venues.
    pub fn venues(&self) -> &[Venue] {
        &self.venues
    }

    /// All institutions.
    pub fn institutions(&self) -> &[Institution] {
        &self.institutions
    }

    /// All review records.
    pub fn reviews(&self) -> &[ReviewRecord] {
        &self.reviews
    }

    /// Scholar by id.
    pub fn scholar(&self, id: ScholarId) -> &Scholar {
        &self.scholars[id.index()]
    }

    /// Paper by id.
    pub fn paper(&self, id: PaperId) -> &Paper {
        &self.papers[id.index()]
    }

    /// Venue by id.
    pub fn venue(&self, id: VenueId) -> &Venue {
        &self.venues[id.index()]
    }

    /// Institution by id.
    pub fn institution(&self, id: InstitutionId) -> &Institution {
        &self.institutions[id.index()]
    }

    /// Papers authored by `s`, in generation (≈ chronological) order.
    pub fn papers_of(&self, s: ScholarId) -> &[PaperId] {
        &self.papers_by_author[s.index()]
    }

    /// Distinct co-authors of `s` (ground-truth COI edges), in
    /// first-seen order: the papers of `s` in paper order, each paper's
    /// authors in byline order.
    pub fn coauthors_of(&self, s: ScholarId) -> &[ScholarId] {
        &self.coauthors.get_or_init(|| {
            // `seen[b] == a` marks `b` as already listed for `a`, so
            // each scholar's pass is linear in its bylines.
            let mut seen = vec![usize::MAX; self.scholars.len()];
            self.papers_by_author
                .iter()
                .enumerate()
                .map(|(a, pids)| {
                    let mut list = Vec::new();
                    for p in pids {
                        for &b in &self.papers[p.index()].authors {
                            if b.index() != a && seen[b.index()] != a {
                                seen[b.index()] = a;
                                list.push(b);
                            }
                        }
                    }
                    list
                })
                .collect()
        })[s.index()]
    }

    /// Total citations across the papers of `s`.
    pub fn citations_of(&self, s: ScholarId) -> u64 {
        self.citations.get_or_init(|| {
            self.papers_by_author
                .iter()
                .map(|pids| {
                    pids.iter()
                        .map(|p| self.papers[p.index()].citations as u64)
                        .sum()
                })
                .collect()
        })[s.index()]
    }

    /// h-index of `s`.
    pub fn h_index_of(&self, s: ScholarId) -> u32 {
        self.h_index.get_or_init(|| {
            self.papers_by_author
                .iter()
                .map(|pids| {
                    let mut cites: Vec<u32> = pids
                        .iter()
                        .map(|p| self.papers[p.index()].citations)
                        .collect();
                    cites.sort_unstable_by(|a, b| b.cmp(a));
                    cites
                        .iter()
                        .enumerate()
                        .take_while(|(rank, &c)| c as usize > *rank)
                        .count() as u32
                })
                .collect()
        })[s.index()]
    }

    /// Review records of `s`.
    pub fn reviews_of(&self, s: ScholarId) -> impl Iterator<Item = &ReviewRecord> {
        self.reviews_by_scholar[s.index()]
            .iter()
            .map(move |&i| &self.reviews[i])
    }

    /// Number of papers `s` published in `venue`.
    pub fn pubs_in_venue(&self, s: ScholarId, venue: VenueId) -> u32 {
        self.papers_of(s)
            .iter()
            .filter(|&&p| self.paper(p).venue == venue)
            .count() as u32
    }

    /// Most recent year `s` published on `topic` (exact topic match),
    /// ground truth for the recency ranking component.
    pub fn last_active_on(&self, s: ScholarId, topic: TopicId) -> Option<u32> {
        self.papers_of(s)
            .iter()
            .map(|&p| self.paper(p))
            .filter(|p| p.topics.contains(&topic))
            .map(|p| p.year)
            .max()
    }

    /// True when `a` and `b` ever co-authored (ground-truth COI edge).
    pub fn ever_coauthored(&self, a: ScholarId, b: ScholarId) -> bool {
        self.coauthors_of(a).contains(&b)
    }

    /// True when `a` and `b` were ever affiliated with the same
    /// institution during overlapping years (ground-truth COI edge).
    pub fn shared_affiliation(&self, a: ScholarId, b: ScholarId) -> bool {
        let sa = &self.scholars[a.index()].affiliations;
        let sb = &self.scholars[b.index()].affiliations;
        sa.iter().any(|x| {
            sb.iter()
                .any(|y| x.institution == y.institution && x.overlaps(y))
        })
    }

    /// Summary statistics used by experiment reports.
    pub fn stats(&self) -> WorldStats {
        let mut name_counts: HashMap<String, u32> = HashMap::new();
        for s in &self.scholars {
            *name_counts.entry(s.full_name()).or_insert(0) += 1;
        }
        let colliding_scholars = name_counts
            .values()
            .filter(|&&c| c > 1)
            .map(|&c| c as usize)
            .sum();
        WorldStats {
            scholars: self.scholars.len(),
            papers: self.papers.len(),
            venues: self.venues.len(),
            institutions: self.institutions.len(),
            reviews: self.reviews.len(),
            colliding_scholars,
            mean_papers_per_scholar: if self.scholars.is_empty() {
                0.0
            } else {
                self.papers_by_author.iter().map(Vec::len).sum::<usize>() as f64
                    / self.scholars.len() as f64
            },
        }
    }
}

/// Aggregate statistics about a generated world.
#[derive(Debug, Clone, PartialEq)]
pub struct WorldStats {
    /// Number of scholars.
    pub scholars: usize,
    /// Number of papers.
    pub papers: usize,
    /// Number of venues.
    pub venues: usize,
    /// Number of institutions.
    pub institutions: usize,
    /// Number of review records.
    pub reviews: usize,
    /// Number of scholars whose full name is shared with at least one
    /// other scholar.
    pub colliding_scholars: usize,
    /// Mean authored papers per scholar.
    pub mean_papers_per_scholar: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AffiliationSpan, VenueKind};
    use minaret_ontology::OntologyBuilder;

    fn tiny_world() -> World {
        let mut b = OntologyBuilder::new();
        let t0 = b.add_topic("cs", &[]).unwrap();
        let t1 = b.add_topic("db", &[]).unwrap();
        b.add_super_topic(t0, t1).unwrap();
        let ontology = b.build();
        let inst = vec![
            Institution {
                id: InstitutionId(0),
                name: "U0".into(),
                country: "X".into(),
            },
            Institution {
                id: InstitutionId(1),
                name: "U1".into(),
                country: "Y".into(),
            },
        ];
        let scholars = vec![
            Scholar {
                id: ScholarId(0),
                given_name: "A".into(),
                family_name: "One".into(),
                affiliations: vec![AffiliationSpan {
                    institution: InstitutionId(0),
                    from_year: 2000,
                    to_year: 2018,
                }],
                interests: vec![t1],
                active_since: 2000,
            },
            Scholar {
                id: ScholarId(1),
                given_name: "B".into(),
                family_name: "Two".into(),
                affiliations: vec![AffiliationSpan {
                    institution: InstitutionId(0),
                    from_year: 2010,
                    to_year: 2018,
                }],
                interests: vec![t1],
                active_since: 2010,
            },
            Scholar {
                id: ScholarId(2),
                given_name: "C".into(),
                family_name: "Three".into(),
                affiliations: vec![AffiliationSpan {
                    institution: InstitutionId(1),
                    from_year: 2000,
                    to_year: 2018,
                }],
                interests: vec![t0],
                active_since: 2000,
            },
        ];
        let venues = vec![Venue {
            id: VenueId(0),
            name: "J0".into(),
            kind: VenueKind::Journal,
            topics: vec![t1],
        }];
        let papers = vec![
            Paper {
                id: PaperId(0),
                title: "p0".into(),
                year: 2015,
                venue: VenueId(0),
                authors: vec![ScholarId(0), ScholarId(1)],
                topics: vec![t1],
                citations: 10,
            },
            Paper {
                id: PaperId(1),
                title: "p1".into(),
                year: 2017,
                venue: VenueId(0),
                authors: vec![ScholarId(0)],
                topics: vec![t1],
                citations: 1,
            },
        ];
        let reviews = vec![ReviewRecord {
            reviewer: ScholarId(2),
            venue: VenueId(0),
            year: 2016,
            turnaround_days: 30,
            quality: 4,
        }];
        World::assemble(ontology, 2018, scholars, papers, venues, inst, reviews)
    }

    #[test]
    fn derived_tables_are_correct() {
        let w = tiny_world();
        assert_eq!(w.papers_of(ScholarId(0)).len(), 2);
        assert_eq!(w.papers_of(ScholarId(2)).len(), 0);
        assert_eq!(w.citations_of(ScholarId(0)), 11);
        assert_eq!(w.citations_of(ScholarId(1)), 10);
        // h-index: citations [10, 1] -> h = 1? rank0: 10>0 yes; rank1: 1>1 no => 1.
        assert_eq!(w.h_index_of(ScholarId(0)), 1);
        assert_eq!(w.pubs_in_venue(ScholarId(0), VenueId(0)), 2);
    }

    /// `assemble` against the construction it replaced, kept here as the
    /// reference: co-author lists built by a `contains` scan over every
    /// paper's byline, and per-(scholar, venue) publication counts.
    #[test]
    fn derived_tables_match_the_reference_construction() {
        let w = crate::WorldGenerator::new(crate::WorldConfig {
            seed: 0x5eed,
            ..crate::WorldConfig::sized(2000)
        })
        .generate();
        let mut coauthors: Vec<Vec<ScholarId>> = vec![Vec::new(); w.scholars().len()];
        let mut pubs: HashMap<(ScholarId, VenueId), u32> = HashMap::new();
        for p in w.papers() {
            for &a in &p.authors {
                *pubs.entry((a, p.venue)).or_insert(0) += 1;
                for &b in &p.authors {
                    if a != b && !coauthors[a.index()].contains(&b) {
                        coauthors[a.index()].push(b);
                    }
                }
            }
        }
        assert!(
            coauthors.iter().any(|c| c.len() > 2),
            "world has co-authors"
        );
        assert!(pubs.values().any(|&n| n > 1), "some venue repeats");
        for s in w.scholars() {
            assert_eq!(
                w.coauthors_of(s.id),
                coauthors[s.id.index()].as_slice(),
                "co-authors of {:?}",
                s.id
            );
            for v in w.venues() {
                assert_eq!(
                    w.pubs_in_venue(s.id, v.id),
                    pubs.get(&(s.id, v.id)).copied().unwrap_or(0),
                    "papers of {:?} in {:?}",
                    s.id,
                    v.id
                );
            }
        }
    }

    #[test]
    fn coauthorship_and_affiliation_coi() {
        let w = tiny_world();
        assert!(w.ever_coauthored(ScholarId(0), ScholarId(1)));
        assert!(!w.ever_coauthored(ScholarId(0), ScholarId(2)));
        assert!(w.shared_affiliation(ScholarId(0), ScholarId(1)));
        assert!(!w.shared_affiliation(ScholarId(0), ScholarId(2)));
    }

    #[test]
    fn recency_ground_truth() {
        let w = tiny_world();
        let db = w.ontology.resolve("db").unwrap();
        assert_eq!(w.last_active_on(ScholarId(0), db), Some(2017));
        assert_eq!(w.last_active_on(ScholarId(2), db), None);
    }

    #[test]
    fn stats_summarize() {
        let w = tiny_world();
        let s = w.stats();
        assert_eq!(s.scholars, 3);
        assert_eq!(s.papers, 2);
        assert_eq!(s.colliding_scholars, 0);
        assert!((s.mean_papers_per_scholar - 1.0).abs() < 1e-9);
    }

    #[test]
    fn h_index_definition_matches_textbook() {
        // Citations [5,4,4,1]: h = 3 (three papers with >= 3 citations).
        let mut cites = [5u32, 4, 4, 1];
        cites.sort_unstable_by(|a, b| b.cmp(a));
        let h = cites
            .iter()
            .enumerate()
            .take_while(|(rank, &c)| c as usize > *rank)
            .count();
        assert_eq!(h, 3);
    }
}
