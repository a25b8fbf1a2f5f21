//! Shared experiment setup: world + sources + framework in one call.

use std::sync::Arc;

use minaret_core::{EditorConfig, Minaret};
use minaret_ontology::{seed::curated_cs_ontology, Ontology};
use minaret_scholarly::{
    FaultSchedule, RegistryConfig, ScholarSource, SimulatedSource, SourceKind, SourceRegistry,
    SourceSpec,
};
use minaret_synth::{
    SubmissionGenerator, SubmissionSpec, World, WorldConfig, WorldGenerator, WorldHandle,
};

/// Scenario parameters for one experiment context.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// World-generation parameters.
    pub world: WorldConfig,
    /// Editor configuration for the framework.
    pub editor: EditorConfig,
    /// Per-source latency in microseconds (0 = instant, for pure
    /// algorithmic experiments; E6 raises it to scraping scale).
    pub source_latency_micros: u64,
    /// Per-call transient failure probability injected into each source.
    pub source_failure_rate: f64,
    /// Registry behaviour: retries, concurrency, and the resilience
    /// policy (deadlines, backoff, circuit breakers).
    pub registry: RegistryConfig,
    /// Sources scripted as permanently dead (degraded-mode scenarios).
    pub dead_sources: Vec<SourceKind>,
    /// Worker threads for the pipeline's filter/rank phases (`0` = all
    /// cores, `1` = sequential). Output is identical either way; the E7
    /// addendum sweeps this to measure phase-level scaling.
    pub pipeline_parallelism: usize,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            world: WorldConfig::default(),
            editor: EditorConfig::default(),
            source_latency_micros: 0,
            source_failure_rate: 0.0,
            registry: RegistryConfig::default(),
            dead_sources: Vec::new(),
            pipeline_parallelism: 0,
        }
    }
}

impl ScenarioConfig {
    /// A scenario over a world with `scholars` scholars.
    pub fn sized(scholars: usize) -> Self {
        Self {
            world: WorldConfig::sized(scholars),
            ..Default::default()
        }
    }
}

/// A fully wired experiment context.
pub struct EvalContext {
    /// The ground-truth world.
    pub world: Arc<World>,
    /// The source registry the framework queries.
    pub registry: Arc<SourceRegistry>,
    /// The six sources the registry queries, in registration order.
    pub sources: Vec<Arc<SimulatedSource>>,
    /// The ontology used for expansion.
    pub ontology: Arc<Ontology>,
    /// The framework under test.
    pub minaret: Minaret,
    /// The scenario this context was built from.
    pub scenario: ScenarioConfig,
}

impl EvalContext {
    /// Builds the context: generates the world, instantiates the six
    /// sources (optionally latency/failure-injected), and wires the
    /// framework.
    pub fn build(scenario: ScenarioConfig) -> Self {
        let world = Arc::new(WorldGenerator::new(scenario.world.clone()).generate());
        let ontology = Arc::new(curated_cs_ontology());
        let mut registry = SourceRegistry::new(scenario.registry);
        let specs = SourceSpec::all_defaults().into_iter().map(|mut spec| {
            spec.latency_micros = scenario.source_latency_micros;
            spec.failure_rate = scenario.source_failure_rate;
            spec
        });
        let mut sources = Vec::new();
        for mut sim in SimulatedSource::family(specs, WorldHandle::Eager(world.clone())) {
            if scenario.dead_sources.contains(&sim.kind()) {
                sim = sim.with_fault(FaultSchedule::PermanentOutage);
            }
            let sim = Arc::new(sim);
            sources.push(sim.clone());
            registry.register(sim);
        }
        let registry = Arc::new(registry);
        let minaret = Minaret::new(registry.clone(), ontology.clone(), scenario.editor.clone())
            .with_parallelism(scenario.pipeline_parallelism);
        Self {
            world,
            registry,
            sources,
            ontology,
            minaret,
            scenario,
        }
    }

    /// Generates `n` ground-truthed submissions from the world.
    pub fn submissions(&self, n: usize, seed: u64) -> Vec<SubmissionSpec> {
        SubmissionGenerator::new(&self.world, seed).generate_many(n)
    }

    /// Converts a synthetic submission into the editor's form input.
    pub fn manuscript_for(&self, sub: &SubmissionSpec) -> minaret_core::ManuscriptDetails {
        minaret_core::ManuscriptDetails {
            title: sub.title.clone(),
            keywords: sub.keywords.clone(),
            authors: sub
                .authors
                .iter()
                .map(|&id| {
                    let s = self.world.scholar(id);
                    let inst = self.world.institution(s.current_affiliation());
                    minaret_core::AuthorInput {
                        name: s.full_name(),
                        affiliation: Some(inst.name.clone()),
                        country: Some(inst.country.clone()),
                    }
                })
                .collect(),
            target_venue: self.world.venue(sub.target_venue).name.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_and_recommends() {
        let ctx = EvalContext::build(ScenarioConfig::sized(200));
        assert_eq!(ctx.registry.len(), 6);
        let subs = ctx.submissions(3, 1);
        assert_eq!(subs.len(), 3);
        let m = ctx.manuscript_for(&subs[0]);
        assert!(m.validate().is_ok());
        let report = ctx.minaret.recommend(&m).unwrap();
        assert!(!report.recommendations.is_empty());
    }
}
