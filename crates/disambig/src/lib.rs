//! Author identity verification for MINARET.
//!
//! §2.1 of the paper: "This step is concerned with the disambiguation of
//! authors' names … The identification of the correct author profile is
//! crucial as it influences the accuracy of the collected information …
//! In case of multiple matches, the user has to manually identify the
//! correct profiles."
//!
//! This crate resolves a manuscript author (name + affiliation as typed
//! into the details form) against the scholarly sources:
//!
//! 1. name variants are generated ([`minaret_scholarly::name`]) and
//!    searched across sources;
//! 2. per-source profiles are merged into candidates;
//! 3. each candidate is scored on evidence — affiliation match, country
//!    match, topical overlap with the manuscript keywords, publication
//!    activity ([`evidence`]);
//! 4. a [`ResolutionPolicy`] picks the profile: automatically when the
//!    evidence is decisive, or via an injected chooser standing in for
//!    the human in the demo's Figure 4 dialog.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod evidence;
mod resolver;

pub use resolver::{
    AuthorQuery, IdentityMatch, IdentityResolver, ManualChooser, ResolutionOutcome,
    ResolutionPolicy, VerifiedAuthor,
};
