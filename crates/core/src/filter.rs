//! The filtering phase (§2.2): COI, keyword-score threshold, expertise
//! constraints, and the conference-mode PC filter (§3).

use minaret_disambig::name::{parse_name, NameList};
use minaret_scholarly::MergedCandidate;

use crate::coi::{check_coi, AuthorRecord, CoiVerdict};
use crate::config::EditorConfig;

/// Why a candidate was removed in the filtering phase.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterReason {
    /// Conflict of interest with the author list.
    ConflictOfInterest(CoiVerdict),
    /// Best keyword-matching score fell below the editor's threshold.
    KeywordScoreBelowThreshold {
        /// The candidate's best matching score.
        score: f64,
        /// The configured threshold.
        threshold: f64,
    },
    /// An expertise range constraint (citations / h-index / reviews)
    /// was violated.
    ExpertiseConstraint,
    /// Conference mode: the candidate is not on the programme committee.
    NotOnProgrammeCommittee,
}

/// The decision for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterDecision {
    /// The candidate proceeds to ranking.
    Kept,
    /// The candidate is removed, with the (first) reason.
    Removed(FilterReason),
}

impl FilterDecision {
    /// True when the candidate survived.
    pub fn kept(&self) -> bool {
        matches!(self, FilterDecision::Kept)
    }
}

/// The §2.2 filter chain prepared for one manuscript: its authors and
/// the editor configuration, with the conference-mode PC list parsed
/// once instead of once per candidate.
pub struct CandidateFilter<'a> {
    authors: &'a [AuthorRecord],
    config: &'a EditorConfig,
    pc_members: Option<NameList>,
}

impl<'a> CandidateFilter<'a> {
    /// Prepares the chain for candidates of a manuscript by `authors`.
    pub fn new(authors: &'a [AuthorRecord], config: &'a EditorConfig) -> Self {
        CandidateFilter {
            authors,
            config,
            pc_members: config
                .pc_members
                .as_ref()
                .map(|pc| NameList::parse(pc.iter().map(String::as_str))),
        }
    }

    /// Applies the chain to one candidate.
    ///
    /// `keyword_score` is the candidate's best similarity to any expanded
    /// manuscript keyword (1.0 when they registered an original keyword
    /// verbatim). Checks run cheapest-first; the first violation is
    /// returned.
    pub fn decide(&self, candidate: &MergedCandidate, keyword_score: f64) -> FilterDecision {
        let config = self.config;
        if keyword_score < config.keyword_score_threshold {
            return FilterDecision::Removed(FilterReason::KeywordScoreBelowThreshold {
                score: keyword_score,
                threshold: config.keyword_score_threshold,
            });
        }
        if !config.expertise.admits(
            candidate.metrics.citations,
            candidate.metrics.h_index,
            candidate.reviews.len() as u32,
        ) {
            return FilterDecision::Removed(FilterReason::ExpertiseConstraint);
        }
        if let Some(pc) = &self.pc_members {
            if !is_pc_member(candidate, pc) {
                return FilterDecision::Removed(FilterReason::NotOnProgrammeCommittee);
            }
        }
        let verdict = check_coi(candidate, self.authors, &config.coi);
        if verdict.conflicted() {
            return FilterDecision::Removed(FilterReason::ConflictOfInterest(verdict));
        }
        FilterDecision::Kept
    }
}

/// Applies the filter chain to every candidate, in parallel over
/// contiguous chunks (`parallelism` threads; `0` = all cores). Each
/// decision is a pure function of its candidate, so the output vector is
/// element-for-element identical to a sequential loop — callers
/// partition kept/removed afterwards, preserving order and tie-breaks.
pub fn filter_decisions(
    candidates: &[crate::pipeline::CandidateProfile],
    authors: &[AuthorRecord],
    config: &EditorConfig,
    parallelism: usize,
) -> Vec<FilterDecision> {
    let filter = CandidateFilter::new(authors, config);
    crate::par::chunked_map(candidates, parallelism, |cand| {
        filter.decide(&cand.merged, cand.keyword_score)
    })
}

/// Conference mode (§3): "only candidate reviewers who belong to the
/// programme committee are retained". Matching is by name compatibility
/// so "L. Zhou" on the PC list matches candidate "Lei Zhou".
fn is_pc_member(candidate: &MergedCandidate, pc: &NameList) -> bool {
    parse_name(&candidate.display_name).is_some_and(|cand| pc.any_compatible(&cand))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExpertiseConstraints;
    use minaret_scholarly::{SourceMetrics, SourceReview};
    use std::sync::Arc;

    fn candidate(name: &str) -> MergedCandidate {
        MergedCandidate {
            display_name: name.into(),
            affiliation: None,
            country: None,
            affiliation_history: vec![],
            interests: vec![],
            publications: vec![],
            metrics: SourceMetrics {
                citations: Some(500),
                h_index: Some(12),
                i10_index: None,
            },
            reviews: vec![Arc::new(SourceReview {
                venue_name: "J".into(),
                year: 2017,
                turnaround_days: 20,
                quality: Some(3),
            })],
            sources: vec![],
            keys: vec![],
            truths: vec![],
        }
    }

    fn filter_candidate(
        candidate: &MergedCandidate,
        keyword_score: f64,
        authors: &[AuthorRecord],
        config: &EditorConfig,
    ) -> FilterDecision {
        CandidateFilter::new(authors, config).decide(candidate, keyword_score)
    }

    #[test]
    fn clean_candidate_is_kept() {
        let d = filter_candidate(&candidate("A B"), 0.9, &[], &EditorConfig::default());
        assert!(d.kept());
    }

    #[test]
    fn low_keyword_score_removed_first() {
        let d = filter_candidate(&candidate("A B"), 0.3, &[], &EditorConfig::default());
        match d {
            FilterDecision::Removed(FilterReason::KeywordScoreBelowThreshold {
                score,
                threshold,
            }) => {
                assert_eq!(score, 0.3);
                assert_eq!(threshold, 0.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expertise_constraints_enforced() {
        let cfg = EditorConfig {
            expertise: ExpertiseConstraints {
                min_citations: Some(1000),
                ..Default::default()
            },
            ..Default::default()
        };
        let d = filter_candidate(&candidate("A B"), 0.9, &[], &cfg);
        assert_eq!(
            d,
            FilterDecision::Removed(FilterReason::ExpertiseConstraint)
        );
    }

    #[test]
    fn coi_with_author_removes() {
        let authors = vec![AuthorRecord::from_parts("A B", None, None, None)];
        let d = filter_candidate(&candidate("A B"), 0.9, &authors, &EditorConfig::default());
        assert!(matches!(
            d,
            FilterDecision::Removed(FilterReason::ConflictOfInterest(_))
        ));
    }

    #[test]
    fn pc_filter_in_conference_mode() {
        let cfg = EditorConfig {
            pc_members: Some(vec!["Lei Zhou".into(), "Ada Lovelace".into()]),
            ..Default::default()
        };
        assert!(filter_candidate(&candidate("Lei Zhou"), 0.9, &[], &cfg).kept());
        // Abbreviated candidate matches full PC entry.
        assert!(filter_candidate(&candidate("L. Zhou"), 0.9, &[], &cfg).kept());
        assert_eq!(
            filter_candidate(&candidate("Grace Hopper"), 0.9, &[], &cfg),
            FilterDecision::Removed(FilterReason::NotOnProgrammeCommittee)
        );
    }

    #[test]
    fn journal_mode_has_no_pc_filter() {
        let d = filter_candidate(
            &candidate("Grace Hopper"),
            0.9,
            &[],
            &EditorConfig::default(),
        );
        assert!(d.kept());
    }

    #[test]
    fn pc_matching_handles_unparseable_names() {
        let pc = NameList::parse(["Lei Zhou", "Cher"]);
        assert!(!is_pc_member(&candidate("??"), &pc));
        assert!(!is_pc_member(&candidate("Cher"), &pc));
        assert!(is_pc_member(&candidate("L Zhou"), &pc));
    }
}
