//! Bench E6: extraction fan-out under simulated scraping latency —
//! cold vs. cached, sequential vs. concurrent, and degraded (one dead
//! source behind an open circuit breaker).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use minaret_scholarly::{
    BreakerConfig, CachingSource, FaultSchedule, RegistryConfig, ResilienceConfig, ScholarSource,
    SimulatedSource, SourceKind, SourceRegistry, SourceSpec,
};
use minaret_synth::{WorldConfig, WorldGenerator};

const LATENCY_MICROS: u64 = 200;

fn registry(
    concurrent: bool,
    cached: bool,
    dead: bool,
) -> (Arc<minaret_synth::World>, SourceRegistry) {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(300)).generate());
    let resilience = if dead {
        ResilienceConfig {
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_micros: 60_000_000,
                probe_successes: 1,
            },
            ..ResilienceConfig::disabled()
        }
    } else {
        ResilienceConfig::disabled()
    };
    let mut reg = SourceRegistry::new(RegistryConfig {
        concurrent,
        resilience,
        ..Default::default()
    });
    for mut spec in SourceSpec::all_defaults() {
        spec.latency_micros = LATENCY_MICROS;
        let kind = spec.kind;
        let mut sim = SimulatedSource::new(spec, world.clone());
        if dead && kind == SourceKind::Publons {
            sim = sim.with_fault(FaultSchedule::PermanentOutage);
        }
        let src: Arc<dyn ScholarSource> = Arc::new(sim);
        if cached {
            reg.register(Arc::new(CachingSource::new(src)));
        } else {
            reg.register(src);
        }
    }
    (world, reg)
}

fn bench_e6(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_extraction");
    group.sample_size(20);
    for (label, concurrent, cached, dead) in [
        ("sequential_cold", false, false, false),
        ("concurrent_cold", true, false, false),
        ("concurrent_cached", true, true, false),
        ("concurrent_circuit_open", true, false, true),
    ] {
        let (world, reg) = registry(concurrent, cached, dead);
        let name = world.scholars()[0].full_name();
        if dead {
            // Trip the breaker before timing: the steady state under a
            // permanent outage is the open breaker short-circuiting.
            let _ = reg.search_by_name_report(&name);
        }
        group.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(reg.search_by_name_report(&name)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_e6);
criterion_main!(benches);
