//! Synthetic scholarly-world generator for the MINARET reproduction.
//!
//! MINARET's prototype scrapes live scholarly websites. Those cannot be
//! reached here, so this crate generates a *coherent* synthetic world —
//! scholars, institutions, venues, papers, co-authorship, citations and
//! review histories — that the simulated sources in `minaret-scholarly`
//! each expose a partial, noisy view of.
//!
//! Because the world is generated, it comes with ground truth the real
//! web never offers: true author identities (including deliberate name
//! collisions for the disambiguation experiments), true conflict-of-
//! interest edges, and true topical expertise — which makes the accuracy
//! experiments in `minaret-eval` measurable.
//!
//! Entry points:
//!
//! * [`WorldConfig`] / [`WorldGenerator`] — configure and generate a
//!   [`World`].
//! * [`growth::GrowthModel`] — the DBLP-style records-per-year model
//!   behind Figure 1 of the paper.
//! * [`SubmissionSpec`] — synthetic manuscript submissions with graded
//!   ground-truth reviewer relevance.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod generator;
pub mod growth;
mod ids;
mod lazy;
mod model;
mod names;
pub mod persist;
mod stream;
mod submissions;
mod view;
mod world;

pub use config::WorldConfig;
pub use generator::WorldGenerator;
pub use ids::{InstitutionId, PaperId, ScholarId, VenueId};
pub use lazy::{LazyWorld, WorldBlock};
pub use model::{AffiliationSpan, Institution, Paper, ReviewRecord, Scholar, Venue, VenueKind};
pub use persist::{
    stream_snapshot_world, world_fingerprint, SnapshotMeta, StreamProgress, StreamTotals,
};
pub use stream::{derive_seed, ChunkIter, StreamingGenerator, WorldChunk, COMMUNITY_BLOCK};
pub use submissions::{
    ground_truth_relevance, ground_truth_relevance_all, SubmissionGenerator, SubmissionSpec,
};
pub use view::{WorldHandle, WorldScope};
pub use world::{World, WorldStats};
