//! The MINARET reviewer-recommendation framework.
//!
//! This crate implements the paper's primary contribution: given a
//! manuscript's details (keywords, author list with affiliations, target
//! journal) and an editor's configuration, it runs the three-phase
//! workflow of Figure 2 —
//!
//! 1. **Information extraction** (`pipeline`): author identity
//!    verification (via `minaret-disambig`), author track-record
//!    extraction, semantic keyword expansion (via `minaret-ontology`),
//!    and candidate retrieval across all scholarly sources (via
//!    `minaret-scholarly`).
//! 2. **Filtering** ([`coi`], [`filter`]): conflict-of-interest removal
//!    (co-authorship and shared affiliations at university or country
//!    level), keyword-matching-score thresholding, and editor-defined
//!    expertise constraints (citations, h-index, review count, PC
//!    membership in conference mode).
//! 3. **Ranking** ([`rank`]): a weighted sum of five components — topic
//!    coverage, scientific impact, recency, review experience, and
//!    familiarity with the target outlet — with editor-configurable
//!    weights and a per-candidate score breakdown (the Figure 5 drill-
//!    down).
//!
//! Entry point: [`Minaret`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use minaret_concurrent as concurrent;

pub mod coi;
mod config;
mod error;
pub mod filter;
mod keyed;
mod manuscript;
mod pipeline;
pub mod rank;

pub use config::{
    AffiliationMatchLevel, CoiConfig, EditorConfig, ExpertiseConstraints, ImpactMetric,
    RankingWeights,
};
pub use error::MinaretError;
pub use manuscript::{AuthorInput, ManuscriptDetails};
pub use pipeline::{
    BatchExtraction, CandidateProfile, ExpansionSummary, Minaret, PaperCandidate, PaperExtraction,
    PhaseTimings, Recommendation, RecommendationReport,
};
pub use rank::{KeywordExpansionSet, ScoreBreakdown};
