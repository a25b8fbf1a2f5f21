//! Bench E7: end-to-end recommendation latency vs. world size, batch
//! throughput vs. worker count, and batched vs. per-label retrieval as
//! the label set grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use minaret_bench::{latency_stack, manuscript_from, stack};

fn bench_e7(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_scalability");
    group.sample_size(10);
    for scholars in [250usize, 500, 1000, 2000] {
        let s = stack(scholars);
        group.bench_with_input(BenchmarkId::from_parameter(scholars), &scholars, |b, _| {
            b.iter(|| std::hint::black_box(s.minaret.recommend(&s.manuscript).unwrap()))
        });
    }
    group.finish();

    // Batch mode: 8 manuscripts through 1/2/4 workers.
    let s = stack(500);
    let manuscripts: Vec<_> = (0..8u64)
        .map(|i| manuscript_from(&s.world, 0xBA7C + i))
        .collect();
    let mut batch = c.benchmark_group("e7_scalability/batch_8_manuscripts");
    batch.sample_size(10);
    for workers in [1usize, 2, 4] {
        batch.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| std::hint::black_box(s.minaret.recommend_batch(&manuscripts, w)))
        });
    }
    batch.finish();

    // Label-set sweep: the same labels retrieved as one batched fan-out
    // vs. one single-label fan-out per label (the pre-batching
    // pipeline's cost model).
    // Sources carry scraping-scale latency — per-label retrieval pays
    // one policed round trip per label, batched pays one per batch.
    let s = latency_stack(500, 500);
    let mut labels: Vec<String> = s
        .ontology
        .topics()
        .map(|t| t.label.clone())
        .take(80)
        .collect();
    let mut filler = 0usize;
    while labels.len() < 80 {
        // Unknown labels still pay the fan-out; cost is what's measured.
        labels.push(format!("synthetic topic {filler}"));
        filler += 1;
    }
    let mut sweep = c.benchmark_group("e7_scalability/label_sweep");
    sweep.sample_size(10);
    for n in [5usize, 20, 80] {
        let set: Vec<String> = labels[..n].to_vec();
        sweep.bench_with_input(BenchmarkId::new("batched", n), &set, |b, set| {
            b.iter(|| std::hint::black_box(s.registry.search_by_interests_report(set)))
        });
        sweep.bench_with_input(BenchmarkId::new("per_label", n), &set, |b, set| {
            b.iter(|| {
                for label in set {
                    std::hint::black_box(
                        s.registry
                            .search_by_interests_report(std::slice::from_ref(label)),
                    );
                }
            })
        });
    }
    sweep.finish();
}

criterion_group!(benches, bench_e7);
criterion_main!(benches);
