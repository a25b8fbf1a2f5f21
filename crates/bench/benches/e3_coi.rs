//! Bench E3: conflict-of-interest checking at both affiliation
//! granularities.

use criterion::{criterion_group, criterion_main, Criterion};
use minaret_bench::stack;
use minaret_core::coi::{check_coi, AuthorRecord};
use minaret_core::{AffiliationMatchLevel, CoiConfig};
use minaret_scholarly::merge_profiles;

fn bench_e3(c: &mut Criterion) {
    let s = stack(400);
    // Build a realistic author record (with track record) and a candidate
    // pool out of the sources.
    let author_scholar = s
        .world
        .scholars()
        .iter()
        .find(|sc| s.world.papers_of(sc.id).len() >= 3)
        .unwrap();
    let profiles = s
        .registry
        .search_by_name_report(&author_scholar.full_name())
        .profiles;
    let author_profile = merge_profiles(profiles).into_iter().next();
    let inst = s.world.institution(author_scholar.current_affiliation());
    let author = AuthorRecord::from_parts(
        &author_scholar.full_name(),
        Some(&inst.name),
        Some(&inst.country),
        author_profile.as_ref(),
    );
    let authors = vec![author];

    // Candidates: crawl one interest.
    let label = s.world.ontology.label(author_scholar.interests[0]);
    let (_, found) = s
        .registry
        .search_by_interests_report(&[label.to_string()])
        .by_label
        .remove(0);
    let candidates = merge_profiles(found);
    assert!(!candidates.is_empty());

    let mut group = c.benchmark_group("e3_coi");
    for (name, level) in [
        ("university_level", AffiliationMatchLevel::University),
        ("country_level", AffiliationMatchLevel::Country),
    ] {
        let cfg = CoiConfig {
            affiliation_level: level,
            ..Default::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut conflicted = 0usize;
                for cand in &candidates {
                    if check_coi(cand, &authors, &cfg).conflicted() {
                        conflicted += 1;
                    }
                }
                std::hint::black_box(conflicted)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_e3);
criterion_main!(benches);
