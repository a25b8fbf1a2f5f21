//! One runner per experiment in `DESIGN.md`'s experiment index.
//!
//! Every runner returns a result struct carrying both the structured
//! numbers and a rendered plain-text `report`. The `experiments` example
//! binary prints the reports; `EXPERIMENTS.md` records them against the
//! paper's claims.

mod e10_policies;
mod e1_expansion;
mod e2_coverage;
mod e3_coi;
mod e4_quality;
mod e5_weights;
mod e6_extraction;
mod e7_scalability;
mod e8_conference;
mod e9_sources;
mod fig1_growth;
mod fig2_phases;
mod fig3_form;
mod fig4_disambig;
mod fig5_ranking;

pub use e10_policies::{run_e10, E10Result, PolicyPoint};
pub use e1_expansion::{run_e1, E1Result};
pub use e2_coverage::{run_e2, E2Result};
pub use e3_coi::{run_e3, E3Result};
pub use e4_quality::{run_e4, E4Config, E4Result, MethodQuality};
pub use e5_weights::{run_e5, E5Result};
pub use e6_extraction::{run_e6, E6Result, E6Run};
pub use e7_scalability::{
    run_e7, run_e7_addendum, E7AddendumResult, E7Result, LabelSweepPoint, ParallelismPoint,
    ScalePoint, E7_LABEL_SIZES, E7_PARALLELISM,
};
pub use e8_conference::{run_e8, E8Result};
pub use e9_sources::{run_e9, E9Result, SourceAblation};
pub use fig1_growth::{run_f1, F1Result};
pub use fig2_phases::{run_f2, F2Result};
pub use fig3_form::{run_f3, F3Result};
pub use fig4_disambig::{run_f4, CollisionPoint, F4Result};
pub use fig5_ranking::{run_f5, F5Result};

use minaret_synth::{ground_truth_relevance, SubmissionSpec, World};

use crate::harness::EvalContext;

/// Ground-truth relevance of a ranked candidate: the relevance of the
/// person the record (dominantly) belongs to; `0` when the record has no
/// truth label.
pub(crate) fn candidate_relevance(
    world: &World,
    sub: &SubmissionSpec,
    truths: &[minaret_synth::ScholarId],
) -> f64 {
    truths
        .first()
        .map(|&id| ground_truth_relevance(world, sub, id))
        .unwrap_or(0.0)
}

/// Relevance of every scholar in the world to `sub` — the ideal pool for
/// nDCG and the denominator pool for recall.
pub(crate) fn relevance_pool(ctx: &EvalContext, sub: &SubmissionSpec) -> Vec<f64> {
    ctx.world
        .scholars()
        .iter()
        .map(|s| ground_truth_relevance(&ctx.world, sub, s.id))
        .collect()
}
