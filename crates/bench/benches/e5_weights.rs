//! Bench E5: the ranking phase in isolation — scoring a candidate pool
//! under the five-component weighted sum.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, Criterion};
use minaret_bench::stack;
use minaret_core::rank::{CandidateScorer, KeywordExpansionSet};
use minaret_core::EditorConfig;
use minaret_ontology::{normalize_label, KeywordExpander};
use minaret_scholarly::merge_profiles;

fn bench_e5(c: &mut Criterion) {
    let s = stack(400);
    let expander = KeywordExpander::with_defaults(&s.ontology);
    let expansions: Vec<KeywordExpansionSet> = s
        .manuscript
        .keywords
        .iter()
        .map(|kw| {
            let mut scores = HashMap::new();
            if let Ok(exps) = expander.expand(kw) {
                for e in exps {
                    scores.insert(normalize_label(&e.label), e.score);
                }
            }
            scores.insert(normalize_label(kw), 1.0);
            KeywordExpansionSet {
                original: kw.clone(),
                scores,
            }
        })
        .collect();
    let (_, profiles) = s
        .registry
        .search_by_interests_report(&s.manuscript.keywords[..1])
        .by_label
        .remove(0);
    let candidates = merge_profiles(profiles);
    assert!(!candidates.is_empty());
    let config = EditorConfig::default();

    c.bench_function("e5_weights/score_candidate_pool", |b| {
        b.iter(|| {
            let scorer = CandidateScorer::new(&expansions, &s.manuscript.target_venue, &config);
            let mut total = 0.0f64;
            for cand in &candidates {
                total += scorer.score(cand).total(&config.weights);
            }
            std::hint::black_box(total)
        })
    });
}

criterion_group!(benches, bench_e5);
criterion_main!(benches);
