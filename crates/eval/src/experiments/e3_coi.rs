//! E3 — COI filtering effectiveness against ground-truth conflict edges,
//! at university-level vs. country-level affiliation matching.

use minaret_core::filter::FilterReason;
use minaret_core::{AffiliationMatchLevel, CoiConfig, EditorConfig};
use minaret_synth::{ScholarId, SubmissionSpec};

use crate::harness::{EvalContext, ScenarioConfig};
use crate::table::{f3, TextTable};

/// COI detection quality at one affiliation-match level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoiQuality {
    /// Fraction of ground-truth-conflicted retrieved candidates that the
    /// filter removed (higher is better).
    pub recall: f64,
    /// Fraction of removed-for-COI candidates that were truly conflicted
    /// (higher is better; < 1 means over-blocking).
    pub precision: f64,
    /// Mean candidates removed for COI per manuscript.
    pub mean_removed: f64,
}

/// Result of experiment E3.
#[derive(Debug)]
pub struct E3Result {
    /// Quality with university-level matching (the default).
    pub university: CoiQuality,
    /// Quality with country-level matching (stricter).
    pub country: CoiQuality,
    /// Rendered report.
    pub report: String,
}

fn truly_conflicted(ctx: &EvalContext, sub: &SubmissionSpec, truth: ScholarId) -> bool {
    sub.authors.iter().any(|&a| {
        a == truth || ctx.world.ever_coauthored(a, truth) || ctx.world.shared_affiliation(a, truth)
    })
}

fn measure(level: AffiliationMatchLevel, scholars: usize, runs: usize) -> CoiQuality {
    let ctx = EvalContext::build(ScenarioConfig {
        world: minaret_synth::WorldConfig::sized(scholars),
        editor: EditorConfig {
            coi: CoiConfig {
                affiliation_level: level,
                ..Default::default()
            },
            // Keep everything else permissive so COI is the only filter
            // beyond the keyword threshold.
            keyword_score_threshold: 0.0,
            ..Default::default()
        },
        ..Default::default()
    });
    let subs = ctx.submissions(runs, 0xE3);
    let mut true_positive = 0usize;
    let mut false_positive = 0usize;
    let mut false_negative = 0usize;
    let mut removed_total = 0usize;
    let mut completed = 0usize;
    for sub in &subs {
        let m = ctx.manuscript_for(sub);
        let Ok(report) = ctx.minaret.recommend(&m) else {
            continue;
        };
        completed += 1;
        for (cand, reason) in &report.filtered_out {
            if !matches!(reason, FilterReason::ConflictOfInterest(_)) {
                continue;
            }
            removed_total += 1;
            let Some(truth) = cand.merged.dominant_truth() else {
                continue;
            };
            if truly_conflicted(&ctx, sub, truth) {
                true_positive += 1;
            } else {
                false_positive += 1;
            }
        }
        for rec in &report.recommendations {
            let Some(truth) = rec.candidate.dominant_truth() else {
                continue;
            };
            if truly_conflicted(&ctx, sub, truth) {
                false_negative += 1;
            }
        }
    }
    let recall = if true_positive + false_negative == 0 {
        1.0
    } else {
        true_positive as f64 / (true_positive + false_negative) as f64
    };
    let precision = if true_positive + false_positive == 0 {
        1.0
    } else {
        true_positive as f64 / (true_positive + false_positive) as f64
    };
    CoiQuality {
        recall,
        precision,
        mean_removed: removed_total as f64 / completed.max(1) as f64,
    }
}

/// Measures COI filtering at both affiliation granularities.
pub fn run_e3(scholars: usize, runs: usize) -> E3Result {
    let university = measure(AffiliationMatchLevel::University, scholars, runs);
    let country = measure(AffiliationMatchLevel::Country, scholars, runs);
    let mut table = TextTable::new(&["affiliation level", "recall", "precision", "removed/ms"]);
    for (name, q) in [("university", university), ("country", country)] {
        table.row(&[
            name.into(),
            f3(q.recall),
            f3(q.precision),
            format!("{:.1}", q.mean_removed),
        ]);
    }
    let report = format!(
        "E3  COI filter vs. ground-truth conflicts ({scholars} scholars, {runs} manuscripts)\n{}\
         country-level matching removes more candidates (recall ≥ university) at the cost of precision\n",
        table.render()
    );
    E3Result {
        university,
        country,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_coi_catches_most_true_conflicts() {
        let r = run_e3(250, 6);
        assert!(
            r.university.recall > 0.7,
            "university-level recall too low: {:?}",
            r.university
        );
        // Country level can only remove more (or the same).
        assert!(r.country.mean_removed >= r.university.mean_removed);
    }
}
