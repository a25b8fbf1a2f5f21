//! Micro-benchmarks of the substrate crates: JSON codec, inverted index,
//! profile merging, text normalization, ontology similarity.

use criterion::{criterion_group, criterion_main, Criterion};
use minaret_bench::stack;
use minaret_index::IndexBuilder;
use minaret_json::{parse, Value};
use minaret_ontology::{normalize_label, seed::curated_cs_ontology};
use minaret_scholarly::merge_profiles;

fn bench_json(c: &mut Criterion) {
    // A recommendation-response-shaped document.
    let mut recs = Vec::new();
    for i in 0..50 {
        recs.push(
            Value::object()
                .set("rank", i + 1usize)
                .set("name", format!("Reviewer Number{i}"))
                .set("total_score", 0.5 + i as f64 / 100.0)
                .set(
                    "score_details",
                    Value::object()
                        .set("topic_coverage", 0.9)
                        .set("scientific_impact", 0.4)
                        .set("recency", 0.7),
                ),
        );
    }
    let doc = Value::object().set("recommendations", recs);
    let text = doc.to_string();
    c.bench_function("substrates/json_serialize_50_recs", |b| {
        b.iter(|| std::hint::black_box(doc.to_string()))
    });
    c.bench_function("substrates/json_parse_50_recs", |b| {
        b.iter(|| std::hint::black_box(parse(&text).unwrap()))
    });
}

fn bench_index(c: &mut Criterion) {
    let mut builder = IndexBuilder::new();
    let topics = curated_cs_ontology();
    let labels: Vec<&str> = topics.topics().map(|t| t.label.as_str()).collect();
    for i in 0..2000 {
        let text = format!(
            "{} {} {} study analysis",
            labels[i % labels.len()],
            labels[(i * 7) % labels.len()],
            labels[(i * 13) % labels.len()]
        );
        builder.add_document(&text);
    }
    let index = builder.build();
    c.bench_function("substrates/index_search_2000_docs", |b| {
        b.iter(|| std::hint::black_box(index.search("semantic web big data processing", 10)))
    });
}

fn bench_merge_and_normalize(c: &mut Criterion) {
    let s = stack(300);
    let label = s.world.ontology.label(s.world.scholars()[0].interests[0]);
    let (_, profiles) = s
        .registry
        .search_by_interests_report(&[label.to_string()])
        .by_label
        .remove(0);
    c.bench_function("substrates/merge_profiles", |b| {
        b.iter(|| std::hint::black_box(merge_profiles(profiles.clone())))
    });
    c.bench_function("substrates/normalize_label", |b| {
        b.iter(|| std::hint::black_box(normalize_label("  Large-Scale  SEMANTIC Web!! ")))
    });
}

fn bench_similarity(c: &mut Criterion) {
    let o = curated_cs_ontology();
    let ids: Vec<_> = o.topics().map(|t| t.id).collect();
    c.bench_function("substrates/ontology_similarity_all_pairs_sample", |b| {
        b.iter(|| {
            let mut total = 0.0f64;
            for i in (0..ids.len()).step_by(7) {
                for j in (0..ids.len()).step_by(13) {
                    total += o.similarity(ids[i], ids[j]);
                }
            }
            std::hint::black_box(total)
        })
    });
}

criterion_group!(
    benches,
    bench_json,
    bench_index,
    bench_merge_and_normalize,
    bench_similarity
);
criterion_main!(benches);
