//! Simulated scholarly data sources for the MINARET reproduction.
//!
//! MINARET extracts reviewer information *on-the-fly* from six scholarly
//! websites: Google Scholar, DBLP, Publons, ACM DL, ORCID and
//! ResearcherID (§2.1). This crate simulates all six as in-process
//! services over one shared [`minaret_synth::World`]. Each source exposes
//! a *partial, noisy, differently-shaped* view — Google Scholar has
//! interests and citation metrics, DBLP has complete publication lists but
//! no interests, Publons has review histories, ORCID has affiliation
//! history, and so on — so the framework still faces the real integration
//! problems: fan-out, heterogeneous records, merging, failures.
//!
//! Key pieces:
//!
//! * [`ScholarSource`] — the trait the framework queries; the paper notes
//!   the framework is "flexibly designed to include any further
//!   information from any additional scholarly resource", which this trait
//!   is the seam for.
//! * [`SimulatedSource`] / [`SourceSpec`] — the six built-in simulations.
//! * [`SourceRegistry`] — concurrent fan-out with retry over all sources,
//!   running on a persistent worker pool (one long-lived worker per
//!   source plus a shared overflow crew) and hardened by a resilience
//!   layer: per-call deadlines, a whole-fan-out budget, seeded
//!   exponential backoff, and a per-source [`CircuitBreaker`] — so one
//!   dead website degrades coverage instead of taking the recommendation
//!   down. [`SourceRegistry::search_by_interests_report`] issues a whole
//!   label set as one batched fan-out ([`BatchFanOutReport`]), paying the
//!   resilience policy once per source instead of once per label.
//! * [`Clock`] / [`SimulatedClock`] — injectable time, so every deadline,
//!   backoff pause, and breaker cooldown is deterministic under test.
//! * [`FaultSchedule`] — scripted failures for [`SimulatedSource`]
//!   (fail-N-then-recover, permanent outage, fixed slowness, rate-limit
//!   bursts), replacing dice with exact, reproducible fault timelines.
//! * [`merge_profiles`] — merges per-source profiles into candidate
//!   records by (normalized name, affiliation), the way a scraper must.
//! * [`Vocabulary`] — one world's table of shared vocabulary entries
//!   (venue names, topic labels, countries, institutions, person names
//!   and one [`PublicationPage`] per paper), each holding its printed
//!   text and comparison form, shared by the world's sources
//!   ([`SimulatedSource::family`]), so merge, COI and ranking compare
//!   forms built once per world instead of re-deriving them per
//!   request. Forms carry a 64-bit key
//!   ([`text_key`], [`name::ParsedName::key`]) that readers compare
//!   first, confirming every key match on the text. Names parse through
//!   [`name`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod clock;
mod error;
mod merge;
pub mod name;
mod record;
mod registry;
mod resilience;
mod sim;
mod spec;
mod vocab;

pub use clock::{Clock, SimulatedClock, SystemClock};
pub use error::SourceError;
pub use merge::{merge_profiles, MergedCandidate};
pub use record::{
    AffiliationRecord, PublicationPage, SourceMetrics, SourceProfile, SourcePublication,
    SourceReview,
};
pub use registry::{
    BatchFanOutReport, FanOutReport, RegistryConfig, RegistryStats, SourceOutcome, SourceRegistry,
    SourceStatus,
};
pub use resilience::{
    BackoffConfig, BreakerConfig, BreakerState, CircuitBreaker, ResilienceConfig,
};
pub use sim::{FaultSchedule, LabeledHits, ScholarSource, SimulatedSource};
pub use spec::{SourceKind, SourceSpec};
pub use vocab::{text_key, Institution, Label, NormalizedLabel, PersonName, TokenSet, Vocabulary};
