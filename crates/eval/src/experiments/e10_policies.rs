//! E10 — identity-resolution policy trade-off: automatic top-1 vs. the
//! confidence-gated policy that defers to a human (the Figure 4 dialog).
//!
//! F4 showed top-1 accuracy; this experiment shows the *coverage vs.
//! correctness* trade-off an editor actually tunes: a stricter
//! confidence threshold resolves fewer authors automatically but is
//! wrong less often on the ones it does resolve.

use minaret_disambig::{AuthorQuery, IdentityResolver, ResolutionOutcome, ResolutionPolicy};
use minaret_synth::WorldConfig;

use crate::harness::{EvalContext, ScenarioConfig};
use crate::table::{f3, TextTable};

/// One policy's measured behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyPoint {
    /// Policy label.
    pub policy: String,
    /// Fraction of authors resolved automatically (not deferred).
    pub auto_resolved: f64,
    /// Accuracy among the automatically resolved.
    pub accuracy_when_resolved: f64,
    /// Fraction deferred to the human (ambiguous).
    pub deferred: f64,
}

/// Result of experiment E10.
#[derive(Debug)]
pub struct E10Result {
    /// One row per policy.
    pub points: Vec<PolicyPoint>,
    /// Rendered report.
    pub report: String,
}

/// Runs the policy comparison in a high-collision world.
pub fn run_e10(scholars: usize, authors: usize) -> E10Result {
    let ctx = EvalContext::build(ScenarioConfig {
        world: WorldConfig {
            name_collision_rate: 0.4,
            ..WorldConfig::sized(scholars)
        },
        ..Default::default()
    });
    let resolver = IdentityResolver::new(&ctx.registry);
    let policies: Vec<(String, ResolutionPolicy)> = vec![
        ("auto top-1".into(), ResolutionPolicy::AutoTop1),
        (
            "confident (t=0.3, m=0.05)".into(),
            ResolutionPolicy::Confident {
                threshold: 0.3,
                margin: 0.05,
            },
        ),
        (
            "confident (t=0.5, m=0.15)".into(),
            ResolutionPolicy::Confident {
                threshold: 0.5,
                margin: 0.15,
            },
        ),
        (
            "confident (t=0.7, m=0.30)".into(),
            ResolutionPolicy::Confident {
                threshold: 0.7,
                margin: 0.30,
            },
        ),
    ];

    let sample: Vec<_> = ctx
        .world
        .scholars()
        .iter()
        .filter(|s| !ctx.world.papers_of(s.id).is_empty())
        .take(authors)
        .collect();

    let mut points = Vec::new();
    let mut table = TextTable::new(&["policy", "auto-resolved", "accuracy", "deferred"]);
    for (label, policy) in &policies {
        let mut resolved = 0usize;
        let mut correct = 0usize;
        let mut deferred = 0usize;
        for s in &sample {
            let inst = ctx.world.institution(s.current_affiliation());
            let v = resolver.resolve(
                AuthorQuery {
                    name: s.full_name(),
                    affiliation: Some(inst.name.clone()),
                    country: Some(inst.country.clone()),
                    context_keywords: s
                        .interests
                        .iter()
                        .map(|&t| ctx.world.ontology.label(t).to_string())
                        .collect(),
                },
                policy,
            );
            match v.outcome {
                ResolutionOutcome::Resolved => {
                    resolved += 1;
                    if v.chosen
                        .as_ref()
                        .is_some_and(|m| m.candidate.truths().any(|t| t == s.id))
                    {
                        correct += 1;
                    }
                }
                ResolutionOutcome::Ambiguous => deferred += 1,
                ResolutionOutcome::NotFound => {}
            }
        }
        let n = sample.len().max(1) as f64;
        let point = PolicyPoint {
            policy: label.clone(),
            auto_resolved: resolved as f64 / n,
            accuracy_when_resolved: if resolved == 0 {
                1.0
            } else {
                correct as f64 / resolved as f64
            },
            deferred: deferred as f64 / n,
        };
        table.row(&[
            point.policy.clone(),
            f3(point.auto_resolved),
            f3(point.accuracy_when_resolved),
            f3(point.deferred),
        ]);
        points.push(point);
    }
    let report = format!(
        "E10  identity-resolution policies under 40% name collisions \
         ({scholars} scholars, {} authors)\n{}",
        sample.len(),
        table.render()
    );
    E10Result { points, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e10_stricter_policies_defer_more_and_stay_accurate() {
        let r = run_e10(250, 40);
        assert_eq!(r.points.len(), 4);
        let auto = &r.points[0];
        let strictest = &r.points[3];
        assert!(auto.auto_resolved >= strictest.auto_resolved);
        assert!(strictest.deferred >= auto.deferred);
        // Accuracy among auto-resolved never degrades with strictness.
        assert!(
            strictest.accuracy_when_resolved >= auto.accuracy_when_resolved - 1e-9,
            "strict policy less accurate: {:?} vs {:?}",
            strictest,
            auto
        );
        for p in &r.points {
            assert!((0.0..=1.0).contains(&p.auto_resolved));
            assert!((0.0..=1.0).contains(&p.accuracy_when_resolved));
            assert!((0.0..=1.0).contains(&p.deferred));
        }
    }
}
