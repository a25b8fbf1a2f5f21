//! Bench F2: the three-phase workflow end to end (Figure 2), plus the
//! extraction phase in isolation.
//!
//! The `_telemetry` variant runs the identical workload with metrics and
//! tracing enabled end to end; compare it against the plain variant to
//! measure instrumentation overhead (budget: <3%, see EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, Criterion};
use minaret_bench::{stack, telemetry_stack};
use minaret_telemetry::Telemetry;

fn bench_f2(c: &mut Criterion) {
    let s = stack(500);
    let t = telemetry_stack(500, Telemetry::new());
    let mut group = c.benchmark_group("f2_pipeline");
    group.sample_size(20);
    group.bench_function("recommend_end_to_end_500", |b| {
        b.iter(|| std::hint::black_box(s.minaret.recommend(&s.manuscript).unwrap()))
    });
    group.bench_function("recommend_end_to_end_500_telemetry", |b| {
        b.iter(|| std::hint::black_box(t.minaret.recommend(&t.manuscript).unwrap()))
    });
    group.bench_function("interest_search_fanout", |b| {
        b.iter(|| {
            std::hint::black_box(
                s.registry
                    .search_by_interests_report(&s.manuscript.keywords[..1]),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_f2);
criterion_main!(benches);
