//! Topic-ontology substrate for the MINARET reviewer-recommendation framework.
//!
//! The paper relies on the Computer Science Ontology (CSO) to semantically
//! expand manuscript keywords: each expanded keyword carries a similarity
//! score in `[0, 1]` describing how related it is to the original keyword
//! (§2.1 of the paper, e.g. `"RDF"` expands to `"Semantic Web"`,
//! `"Linked Open Data"` and `"SPARQL"`).
//!
//! This crate provides:
//!
//! * [`Ontology`] — an immutable topic DAG with `super_topic_of` edges and
//!   undirected `related_equivalent` edges, built through
//!   [`OntologyBuilder`] which validates acyclicity and label uniqueness.
//! * [`Ontology::similarity`] — Wu–Palmer-style semantic similarity between
//!   any two topics, blended with a bonus for `related_equivalent` pairs.
//! * [`KeywordExpander`] — the expansion engine that turns a free-text
//!   keyword into a scored set of related topics.
//! * [`seed::curated_cs_ontology`] — a hand-curated computer-science
//!   ontology standing in for CSO (which cannot be downloaded here); it
//!   contains the paper's own worked example.
//! * [`gen::OntologyGenerator`] — a deterministic synthetic-ontology
//!   generator used by the scalability benchmarks.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod error;
mod expand;
pub mod gen;
mod graph;
pub mod io;
mod normalize;
pub mod seed;
mod similarity;
mod topic;

pub use error::OntologyError;
pub use expand::{ExpandedKeyword, ExpansionConfig, KeywordExpander};
pub use graph::{Ontology, OntologyBuilder, OntologyStats, OntologyTables, TopicRow};
pub use normalize::{normalize_label, normalize_label_onto, tokenize, NormalizedLabels};
pub use topic::{Topic, TopicId};
