//! The identity resolver: search → merge → score → resolve.

use minaret_scholarly::name::parse_name;
use minaret_scholarly::{merge_profiles, MergedCandidate, SourceRegistry};
use minaret_telemetry::Telemetry;

use crate::evidence::{collect_evidence, Evidence, EvidenceWeights};

/// What the editor typed about one author in the manuscript form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthorQuery {
    /// Author name as typed (any of "Lei Zhou", "L. Zhou", "Zhou, Lei").
    pub name: String,
    /// Current affiliation as typed, if provided.
    pub affiliation: Option<String>,
    /// Country, if provided.
    pub country: Option<String>,
    /// Manuscript keywords, used as topical context.
    pub context_keywords: Vec<String>,
}

/// One scored identity candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentityMatch {
    /// The merged multi-source candidate.
    pub candidate: MergedCandidate,
    /// The evidence behind the score.
    pub evidence: Evidence,
    /// Fused evidence score in `[0, 1]`.
    pub score: f64,
}

/// The callback type behind [`ResolutionPolicy::Manual`].
pub type ManualChooser = Box<dyn Fn(&[IdentityMatch]) -> Option<usize> + Send + Sync>;

/// How to pick among multiple matches.
///
/// The paper's prototype asks the user ("the user has to manually
/// identify the correct profiles … among the returned matches"); the
/// policies make that decision point explicit and testable.
pub enum ResolutionPolicy {
    /// Always take the highest-scoring candidate (fully automatic).
    AutoTop1,
    /// Take the top candidate only when its score is at least the
    /// threshold *and* it beats the runner-up by the margin; otherwise
    /// report ambiguity.
    Confident {
        /// Minimum top score.
        threshold: f64,
        /// Required score gap to the runner-up.
        margin: f64,
    },
    /// Delegate to a chooser — the stand-in for the human in Figure 4.
    /// Receives the ranked matches, returns the chosen index (or `None`
    /// to reject all).
    Manual(ManualChooser),
}

impl ResolutionPolicy {
    /// Stable label for metrics (`policy="auto_top1"`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            ResolutionPolicy::AutoTop1 => "auto_top1",
            ResolutionPolicy::Confident { .. } => "confident",
            ResolutionPolicy::Manual(_) => "manual",
        }
    }
}

impl std::fmt::Debug for ResolutionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolutionPolicy::AutoTop1 => f.write_str("AutoTop1"),
            ResolutionPolicy::Confident { threshold, margin } => f
                .debug_struct("Confident")
                .field("threshold", threshold)
                .field("margin", margin)
                .finish(),
            ResolutionPolicy::Manual(_) => f.write_str("Manual(..)"),
        }
    }
}

/// How the resolution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolutionOutcome {
    /// A profile was selected automatically.
    Resolved,
    /// Multiple plausible profiles; a human decision is needed (and the
    /// policy declined to guess).
    Ambiguous,
    /// No profile found on any source.
    NotFound,
}

impl ResolutionOutcome {
    /// Stable label for metrics (`outcome="resolved"`, ...).
    pub fn label(self) -> &'static str {
        match self {
            ResolutionOutcome::Resolved => "resolved",
            ResolutionOutcome::Ambiguous => "ambiguous",
            ResolutionOutcome::NotFound => "not_found",
        }
    }
}

/// The verification result for one author.
#[derive(Debug)]
pub struct VerifiedAuthor {
    /// The original query.
    pub query: AuthorQuery,
    /// Chosen profile, when resolution succeeded.
    pub chosen: Option<IdentityMatch>,
    /// All candidates, best first (including the chosen one).
    pub alternatives: Vec<IdentityMatch>,
    /// How the resolution ended.
    pub outcome: ResolutionOutcome,
}

/// Resolves author identities against the registered sources.
pub struct IdentityResolver<'r> {
    registry: &'r SourceRegistry,
    weights: EvidenceWeights,
    telemetry: Telemetry,
}

impl<'r> IdentityResolver<'r> {
    /// Creates a resolver with default evidence weights and no
    /// telemetry.
    pub fn new(registry: &'r SourceRegistry) -> Self {
        Self {
            registry,
            weights: EvidenceWeights::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Reports `minaret_resolution_outcomes_total{policy,outcome}` and
    /// candidate-count histograms to `telemetry`.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Ranks identity candidates for `query` without resolving.
    pub fn candidates(&self, query: &AuthorQuery) -> Vec<IdentityMatch> {
        let Some(parsed) = parse_name(&query.name) else {
            return Vec::new();
        };
        let mut profiles = Vec::new();
        for variant in parsed.search_variants() {
            profiles.append(&mut self.registry.search_by_name_report(&variant).profiles);
        }
        // The same profile may return under several variants; dedupe by
        // (source, key) before merging.
        profiles.sort_by(|a, b| (a.source, &a.key).cmp(&(b.source, &b.key)));
        profiles.dedup_by(|a, b| a.source == b.source && a.key == b.key);
        // Keep only name-compatible profiles (an initial search can pull
        // in other scholars sharing the initial).
        profiles.retain(|p| {
            parse_name(p.display_name())
                .map(|n| n.compatible(&parsed))
                .unwrap_or(false)
        });
        let merged = merge_profiles(profiles);
        let mut matches: Vec<IdentityMatch> = merged
            .into_iter()
            .map(|candidate| {
                let evidence = collect_evidence(
                    &candidate,
                    query.affiliation.as_deref(),
                    query.country.as_deref(),
                    &query.context_keywords,
                );
                let score = evidence.score(&self.weights);
                IdentityMatch {
                    candidate,
                    evidence,
                    score,
                }
            })
            .collect();
        matches.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.candidate.keys().cmp(b.candidate.keys()))
        });
        matches
    }

    /// Counts one resolution by policy and outcome.
    fn note_outcome(&self, policy: &ResolutionPolicy, outcome: ResolutionOutcome) {
        self.telemetry
            .counter(
                "minaret_resolution_outcomes_total",
                &[("policy", policy.label()), ("outcome", outcome.label())],
            )
            .inc();
    }

    /// Resolves one author with the given policy.
    pub fn resolve(&self, query: AuthorQuery, policy: &ResolutionPolicy) -> VerifiedAuthor {
        let alternatives = self.candidates(&query);
        self.telemetry
            .histogram("minaret_resolution_candidates", &[])
            .observe(alternatives.len() as u64);
        if alternatives.is_empty() {
            self.note_outcome(policy, ResolutionOutcome::NotFound);
            return VerifiedAuthor {
                query,
                chosen: None,
                alternatives,
                outcome: ResolutionOutcome::NotFound,
            };
        }
        let chosen_idx = match policy {
            ResolutionPolicy::AutoTop1 => Some(0),
            ResolutionPolicy::Confident { threshold, margin } => {
                let top = alternatives[0].score;
                let runner_up = alternatives.get(1).map(|m| m.score).unwrap_or(0.0);
                if top >= *threshold && top - runner_up >= *margin {
                    Some(0)
                } else {
                    None
                }
            }
            ResolutionPolicy::Manual(choose) => choose(&alternatives),
        };
        match chosen_idx {
            Some(i) if i < alternatives.len() => {
                self.note_outcome(policy, ResolutionOutcome::Resolved);
                VerifiedAuthor {
                    query,
                    chosen: Some(alternatives[i].clone()),
                    alternatives,
                    outcome: ResolutionOutcome::Resolved,
                }
            }
            _ => {
                self.note_outcome(policy, ResolutionOutcome::Ambiguous);
                VerifiedAuthor {
                    query,
                    chosen: None,
                    alternatives,
                    outcome: ResolutionOutcome::Ambiguous,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_scholarly::{RegistryConfig, SimulatedSource, SourceSpec};
    use minaret_synth::{World, WorldConfig, WorldGenerator};
    use std::sync::Arc;

    fn setup(collision_rate: f64) -> (Arc<World>, SourceRegistry) {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 250,
                name_collision_rate: collision_rate,
                ..Default::default()
            })
            .generate(),
        );
        let mut reg = SourceRegistry::new(RegistryConfig::default());
        for spec in SourceSpec::all_defaults() {
            reg.register(Arc::new(SimulatedSource::new(spec, world.clone())));
        }
        (world, reg)
    }

    fn query_for(world: &World, id: minaret_synth::ScholarId) -> AuthorQuery {
        let s = world.scholar(id);
        let inst = world.institution(s.current_affiliation());
        AuthorQuery {
            name: s.full_name(),
            affiliation: Some(inst.name.clone()),
            country: Some(inst.country.clone()),
            context_keywords: s
                .interests
                .iter()
                .map(|&t| world.ontology.label(t).to_string())
                .collect(),
        }
    }

    #[test]
    fn unambiguous_author_resolves_to_truth() {
        let (world, reg) = setup(0.0);
        let resolver = IdentityResolver::new(&reg);
        // Find a scholar with a unique name in the world.
        let mut counts = std::collections::HashMap::new();
        for s in world.scholars() {
            *counts.entry(s.full_name()).or_insert(0) += 1;
        }
        let unique = world
            .scholars()
            .iter()
            .find(|s| counts[&s.full_name()] == 1 && !world.papers_of(s.id).is_empty())
            .unwrap();
        let v = resolver.resolve(query_for(&world, unique.id), &ResolutionPolicy::AutoTop1);
        assert_eq!(v.outcome, ResolutionOutcome::Resolved);
        let chosen = v.chosen.unwrap();
        assert_eq!(chosen.candidate.dominant_truth(), Some(unique.id));
    }

    #[test]
    fn collisions_yield_multiple_candidates() {
        let (world, reg) = setup(0.5);
        let resolver = IdentityResolver::new(&reg);
        let mut counts = std::collections::HashMap::new();
        for s in world.scholars() {
            *counts.entry(s.full_name()).or_insert(0) += 1;
        }
        let collided = world
            .scholars()
            .iter()
            .find(|s| counts[&s.full_name()] >= 3)
            .expect("0.5 collision rate produces shared names");
        let cands = resolver.candidates(&query_for(&world, collided.id));
        assert!(
            cands.len() >= 2,
            "expected multiple identity candidates, got {}",
            cands.len()
        );
    }

    #[test]
    fn affiliation_evidence_ranks_the_right_person_first() {
        let (world, reg) = setup(0.5);
        let resolver = IdentityResolver::new(&reg);
        let mut counts = std::collections::HashMap::new();
        for s in world.scholars() {
            *counts.entry(s.full_name()).or_insert(0) += 1;
        }
        // For colliding scholars at *different* institutions, the typed
        // affiliation should pick the right one most of the time.
        let mut checked = 0;
        let mut correct = 0;
        for s in world.scholars() {
            if counts[&s.full_name()] < 2 || world.papers_of(s.id).is_empty() {
                continue;
            }
            let v = resolver.resolve(query_for(&world, s.id), &ResolutionPolicy::AutoTop1);
            if let Some(chosen) = v.chosen {
                checked += 1;
                if chosen.candidate.truths().any(|t| t == s.id) {
                    correct += 1;
                }
            }
            if checked >= 30 {
                break;
            }
        }
        assert!(checked >= 10, "not enough collision cases");
        assert!(
            correct as f64 / checked as f64 > 0.6,
            "disambiguation accuracy too low: {correct}/{checked}"
        );
    }

    #[test]
    fn confident_policy_reports_ambiguity() {
        let (world, reg) = setup(0.5);
        let resolver = IdentityResolver::new(&reg);
        let policy = ResolutionPolicy::Confident {
            threshold: 0.99,
            margin: 0.5,
        };
        // With an impossible threshold everything with candidates is
        // ambiguous.
        let s = world
            .scholars()
            .iter()
            .find(|s| !world.papers_of(s.id).is_empty())
            .unwrap();
        let v = resolver.resolve(query_for(&world, s.id), &policy);
        assert_eq!(v.outcome, ResolutionOutcome::Ambiguous);
        assert!(v.chosen.is_none());
        assert!(!v.alternatives.is_empty());
    }

    #[test]
    fn manual_policy_gets_the_ranked_list() {
        let (world, reg) = setup(0.0);
        let resolver = IdentityResolver::new(&reg);
        let s = &world.scholars()[0];
        let picked = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(usize::MAX));
        let picked2 = picked.clone();
        let policy = ResolutionPolicy::Manual(Box::new(move |ms| {
            picked2.store(ms.len(), std::sync::atomic::Ordering::SeqCst);
            Some(0)
        }));
        let v = resolver.resolve(query_for(&world, s.id), &policy);
        assert_eq!(v.outcome, ResolutionOutcome::Resolved);
        assert!(picked.load(std::sync::atomic::Ordering::SeqCst) >= 1);
    }

    #[test]
    fn unknown_names_are_not_found() {
        let (_, reg) = setup(0.0);
        let resolver = IdentityResolver::new(&reg);
        let v = resolver.resolve(
            AuthorQuery {
                name: "Zaphod Beeblebrox".into(),
                affiliation: None,
                country: None,
                context_keywords: vec![],
            },
            &ResolutionPolicy::AutoTop1,
        );
        assert_eq!(v.outcome, ResolutionOutcome::NotFound);
    }

    #[test]
    fn telemetry_counts_outcomes_by_policy() {
        let (world, reg) = setup(0.0);
        let telemetry = minaret_telemetry::Telemetry::new();
        let resolver = IdentityResolver::new(&reg).with_telemetry(telemetry.clone());
        let s = world
            .scholars()
            .iter()
            .find(|s| !world.papers_of(s.id).is_empty())
            .unwrap();
        resolver.resolve(query_for(&world, s.id), &ResolutionPolicy::AutoTop1);
        resolver.resolve(
            query_for(&world, s.id),
            &ResolutionPolicy::Confident {
                threshold: 0.99,
                margin: 0.5,
            },
        );
        resolver.resolve(
            AuthorQuery {
                name: "Zaphod Beeblebrox".into(),
                affiliation: None,
                country: None,
                context_keywords: vec![],
            },
            &ResolutionPolicy::AutoTop1,
        );
        let text = telemetry.encode_prometheus();
        assert!(
            text.contains(
                "minaret_resolution_outcomes_total{outcome=\"resolved\",policy=\"auto_top1\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "minaret_resolution_outcomes_total{outcome=\"ambiguous\",policy=\"confident\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "minaret_resolution_outcomes_total{outcome=\"not_found\",policy=\"auto_top1\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains("minaret_resolution_candidates_count 3"),
            "{text}"
        );
    }

    #[test]
    fn garbage_name_yields_not_found() {
        let (_, reg) = setup(0.0);
        let resolver = IdentityResolver::new(&reg);
        let v = resolver.resolve(
            AuthorQuery {
                name: "???".into(),
                affiliation: None,
                country: None,
                context_keywords: vec![],
            },
            &ResolutionPolicy::AutoTop1,
        );
        assert_eq!(v.outcome, ResolutionOutcome::NotFound);
    }
}
