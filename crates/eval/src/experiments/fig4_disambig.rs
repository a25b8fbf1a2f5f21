//! F4 — Figure 4: author identity verification, measured as a
//! disambiguation-accuracy sweep over the name-collision rate.

use minaret_disambig::{AuthorQuery, IdentityResolver, ResolutionPolicy};
use minaret_synth::WorldConfig;

use crate::harness::{EvalContext, ScenarioConfig};
use crate::table::{f3, TextTable};

/// One point of the collision sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionPoint {
    /// The forced name-collision rate of the generated world.
    pub collision_rate: f64,
    /// Fraction of scholars whose name is shared in that world.
    pub colliding_fraction: f64,
    /// Top-1 accuracy of automatic resolution.
    pub top1_accuracy: f64,
    /// Mean number of identity candidates returned per author.
    pub mean_candidates: f64,
    /// Fraction of authors resolved at all (profile found on ≥1 source).
    pub resolved_fraction: f64,
}

/// Result of experiment F4.
#[derive(Debug)]
pub struct F4Result {
    /// The sweep, one point per collision rate.
    pub points: Vec<CollisionPoint>,
    /// Rendered report.
    pub report: String,
}

/// Sweeps the name-collision rate and measures automatic disambiguation.
pub fn run_f4(scholars: usize, rates: &[f64], authors_per_rate: usize) -> F4Result {
    let mut points = Vec::new();
    let mut table = TextTable::new(&[
        "collision rate",
        "colliding scholars",
        "top-1 accuracy",
        "mean candidates",
        "resolved",
    ]);
    for &rate in rates {
        let ctx = EvalContext::build(ScenarioConfig {
            world: WorldConfig {
                name_collision_rate: rate,
                ..WorldConfig::sized(scholars)
            },
            ..Default::default()
        });
        let resolver = IdentityResolver::new(&ctx.registry);
        let mut correct = 0usize;
        let mut resolved = 0usize;
        let mut tried = 0usize;
        let mut total_candidates = 0usize;
        for s in ctx.world.scholars() {
            if ctx.world.papers_of(s.id).is_empty() {
                continue;
            }
            if tried >= authors_per_rate {
                break;
            }
            tried += 1;
            let inst = ctx.world.institution(s.current_affiliation());
            let query = AuthorQuery {
                name: s.full_name(),
                affiliation: Some(inst.name.clone()),
                country: Some(inst.country.clone()),
                context_keywords: s
                    .interests
                    .iter()
                    .map(|&t| ctx.world.ontology.label(t).to_string())
                    .collect(),
            };
            let v = resolver.resolve(query, &ResolutionPolicy::AutoTop1);
            total_candidates += v.alternatives.len();
            if let Some(chosen) = v.chosen {
                resolved += 1;
                if chosen.candidate.truths().any(|t| t == s.id) {
                    correct += 1;
                }
            }
        }
        let stats = ctx.world.stats();
        let point = CollisionPoint {
            collision_rate: rate,
            colliding_fraction: stats.colliding_scholars as f64 / stats.scholars.max(1) as f64,
            top1_accuracy: if resolved == 0 {
                0.0
            } else {
                correct as f64 / resolved as f64
            },
            mean_candidates: if tried == 0 {
                0.0
            } else {
                total_candidates as f64 / tried as f64
            },
            resolved_fraction: if tried == 0 {
                0.0
            } else {
                resolved as f64 / tried as f64
            },
        };
        table.row(&[
            f3(point.collision_rate),
            f3(point.colliding_fraction),
            f3(point.top1_accuracy),
            f3(point.mean_candidates),
            f3(point.resolved_fraction),
        ]);
        points.push(point);
    }
    let report = format!(
        "F4  author identity verification vs. name-collision rate \
         ({scholars} scholars, {authors_per_rate} authors sampled per rate)\n{}",
        table.render()
    );
    F4Result { points, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f4_accuracy_degrades_with_collisions() {
        let r = run_f4(250, &[0.0, 0.5], 30);
        assert_eq!(r.points.len(), 2);
        let clean = &r.points[0];
        let noisy = &r.points[1];
        assert!(
            clean.top1_accuracy > 0.85,
            "clean accuracy {}",
            clean.top1_accuracy
        );
        assert!(
            noisy.colliding_fraction > clean.colliding_fraction,
            "collision knob has no effect"
        );
        // More collisions -> more (or equal) candidates per author.
        assert!(noisy.mean_candidates >= clean.mean_candidates);
    }
}
