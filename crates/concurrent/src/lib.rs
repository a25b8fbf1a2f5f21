//! Order-preserving parallel maps and a deterministic hash for
//! MINARET's shared hot paths.
//!
//! [`chunked_map`] maps a slice split into contiguous chunks across
//! threads and concatenates the results in chunk order, so its output
//! is element-for-element the sequential one. Filter, rank, assignment
//! scoring and a source's profile builds run on it.
//!
//! [`stable_hash`] is a fixed-seed 64-bit hash, the same in every
//! process and run: the vocabulary's text keys and the name keys are
//! built from it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod hash;
mod par;

pub use hash::stable_hash;
pub use par::{chunked_map, MIN_PARALLEL_ITEMS};
