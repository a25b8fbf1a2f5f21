//! # MINARET — a recommendation framework for scientific reviewers
//!
//! A from-scratch Rust reproduction of *MINARET: A Recommendation
//! Framework for Scientific Reviewers* (Moawad, Maher, Awad, Sakr —
//! EDBT 2019). Given a manuscript's details — keywords, author list with
//! affiliations, target journal — and an editor's configuration, the
//! framework:
//!
//! 1. verifies author identities and extracts their track records,
//!    semantically expands the keywords against a CS topic ontology, and
//!    retrieves candidate reviewers from six (simulated) scholarly
//!    sources;
//! 2. filters candidates with conflicts of interest (co-authorship,
//!    shared affiliations at university or country level), insufficient
//!    keyword-matching scores, or out-of-range expertise;
//! 3. ranks the survivors by a weighted sum of topic coverage,
//!    scientific impact, recency, review experience, and familiarity
//!    with the target outlet.
//!
//! ## Quickstart
//!
//! ```
//! use minaret::prelude::*;
//! use std::sync::Arc;
//!
//! // A seeded synthetic scholarly world stands in for the live web.
//! let world = Arc::new(WorldGenerator::new(WorldConfig::sized(400)).generate());
//! let mut registry = SourceRegistry::new(RegistryConfig::default());
//! for spec in SourceSpec::all_defaults() {
//!     registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
//! }
//! let minaret = Minaret::new(
//!     Arc::new(registry),
//!     Arc::new(minaret::ontology::seed::curated_cs_ontology()),
//!     EditorConfig::default(),
//! );
//!
//! // Keywords drawn from a real scholar's interests, as an editor would.
//! let lead = &world.scholars()[0];
//! let manuscript = ManuscriptDetails {
//!     title: "Scalable SPARQL over RDF stores".into(),
//!     keywords: lead
//!         .interests
//!         .iter()
//!         .map(|&t| world.ontology.label(t).to_string())
//!         .collect(),
//!     authors: vec![AuthorInput::named(lead.full_name())],
//!     target_venue: world.venues()[0].name.clone(),
//! };
//! let report = minaret.recommend(&manuscript).unwrap();
//! println!("{}", report.render_table());
//! ```
//!
//! The individual subsystems are re-exported as modules: [`ontology`],
//! [`synth`], [`scholarly`], [`disambig`], [`index`], [`core`],
//! [`assign`], [`baselines`], [`eval`], [`json`], [`http`], [`store`],
//! [`concurrent`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use minaret_assign as assign;
pub use minaret_baselines as baselines;
pub use minaret_concurrent as concurrent;
pub use minaret_core as core;
pub use minaret_disambig as disambig;
pub use minaret_eval as eval;
pub use minaret_http as http;
pub use minaret_index as index;
pub use minaret_json as json;
pub use minaret_ontology as ontology;
pub use minaret_scholarly as scholarly;
pub use minaret_store as store;
pub use minaret_synth as synth;

/// The most common imports in one place.
pub mod prelude {
    pub use minaret_assign::{Assigner, AssignmentSpec, BatchAssignment};
    pub use minaret_core::{
        AffiliationMatchLevel, AuthorInput, CoiConfig, EditorConfig, ExpertiseConstraints,
        ImpactMetric, ManuscriptDetails, Minaret, RankingWeights, Recommendation,
        RecommendationReport,
    };
    pub use minaret_disambig::{AuthorQuery, IdentityResolver, ResolutionPolicy};
    pub use minaret_ontology::{ExpansionConfig, KeywordExpander, Ontology};
    pub use minaret_scholarly::{
        BackoffConfig, BreakerConfig, BreakerState, Clock, FaultSchedule, RegistryConfig,
        ResilienceConfig, ScholarSource, SimulatedClock, SimulatedSource, SourceKind,
        SourceRegistry, SourceSpec,
    };
    pub use minaret_synth::{ScholarId, World, WorldConfig, WorldGenerator};
}
