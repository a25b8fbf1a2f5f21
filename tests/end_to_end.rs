//! Cross-crate integration: world → sources → framework → ground truth.

use std::sync::Arc;

use minaret::prelude::*;
use minaret::synth::ground_truth_relevance;
use minaret_synth::SubmissionGenerator;

fn build(scholars: usize, seed: u64) -> (Arc<World>, Arc<SourceRegistry>, Minaret) {
    let world = Arc::new(
        WorldGenerator::new(WorldConfig {
            seed,
            ..WorldConfig::sized(scholars)
        })
        .generate(),
    );
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    let registry = Arc::new(registry);
    let minaret = Minaret::new(
        registry.clone(),
        Arc::new(minaret::ontology::seed::curated_cs_ontology()),
        EditorConfig::default(),
    );
    (world, registry, minaret)
}

fn manuscript(world: &World, seed: u64) -> ManuscriptDetails {
    let sub = SubmissionGenerator::new(world, seed).generate().unwrap();
    ManuscriptDetails {
        title: sub.title.clone(),
        keywords: sub.keywords.clone(),
        authors: sub
            .authors
            .iter()
            .map(|&id| {
                let s = world.scholar(id);
                let inst = world.institution(s.current_affiliation());
                AuthorInput::named(s.full_name())
                    .with_affiliation(inst.name.clone())
                    .with_country(inst.country.clone())
            })
            .collect(),
        target_venue: world.venue(sub.target_venue).name.clone(),
    }
}

#[test]
fn pipeline_is_deterministic_across_instances() {
    let (world_a, _, minaret_a) = build(300, 11);
    let (_world_b, _, minaret_b) = build(300, 11);
    let m = manuscript(&world_a, 5);
    let a = minaret_a.recommend(&m).unwrap();
    let b = minaret_b.recommend(&m).unwrap();
    let names_a: Vec<_> = a.recommendations.iter().map(|r| &r.name).collect();
    let names_b: Vec<_> = b.recommendations.iter().map(|r| &r.name).collect();
    assert_eq!(names_a, names_b);
    assert_eq!(a.candidates_retrieved, b.candidates_retrieved);
}

#[test]
fn different_world_seeds_give_different_worlds() {
    let (wa, ..) = build(300, 1);
    let (wb, ..) = build(300, 2);
    assert_ne!(wa.stats(), wb.stats());
}

#[test]
fn recommendations_have_real_topical_relevance() {
    // Pool over several worlds *and* several submissions: the
    // gap-closed statistic for a single (world, manuscript) draw ranges
    // roughly 0.3–0.65, so any one seed is a lottery. Pooled over three
    // worlds it sits near 0.5; random top-5 picks would close ~0.
    let (mut top_sum, mut top_n) = (0.0f64, 0usize);
    let (mut world_sum, mut world_n) = (0.0f64, 0usize);
    for world_seed in [11, 21, 31] {
        let (world, _, minaret) = build(500, world_seed);
        for sub_seed in 0..5 {
            let sub = SubmissionGenerator::new(&world, sub_seed)
                .generate()
                .unwrap();
            let m = ManuscriptDetails {
                title: sub.title.clone(),
                keywords: sub.keywords.clone(),
                authors: sub
                    .authors
                    .iter()
                    .map(|&id| {
                        let s = world.scholar(id);
                        let inst = world.institution(s.current_affiliation());
                        AuthorInput::named(s.full_name()).with_affiliation(inst.name.clone())
                    })
                    .collect(),
                target_venue: world.venue(sub.target_venue).name.clone(),
            };
            let report = minaret.recommend(&m).unwrap();
            assert!(report.recommendations.len() >= 5);
            // Mean ground-truth relevance of the top 5 must beat the world
            // mean — the recommender is doing real work, not returning
            // arbitrary people.
            for r in report.recommendations.iter().take(5) {
                if let Some(id) = r.candidate.dominant_truth() {
                    top_sum += ground_truth_relevance(&world, &sub, id);
                    top_n += 1;
                }
            }
            for s in world.scholars() {
                world_sum += ground_truth_relevance(&world, &sub, s.id);
                world_n += 1;
            }
        }
    }
    let top_mean = top_sum / top_n as f64;
    let world_mean = world_sum / world_n as f64;
    // Scale-invariant margin: the top 5 must close a decisive share of
    // the gap between the world mean and perfect relevance (1.0). A
    // plain ratio test breaks down when the world mean itself is high,
    // and the bar sits below the pooled statistic's observed range so
    // the test checks "real work", not the luck of three seeds.
    let gap_closed = (top_mean - world_mean) / (1.0 - world_mean);
    assert!(
        gap_closed > 0.4,
        "top-5 mean relevance {top_mean:.3} closes only {:.0}% of the gap \
         over world mean {world_mean:.3}",
        gap_closed * 100.0
    );
}

#[test]
fn no_recommended_reviewer_has_ground_truth_coi() {
    let (world, _, minaret) = build(400, 31);
    for seed in 0..4 {
        let sub = SubmissionGenerator::new(&world, seed).generate().unwrap();
        let m = ManuscriptDetails {
            title: sub.title.clone(),
            keywords: sub.keywords.clone(),
            authors: sub
                .authors
                .iter()
                .map(|&id| {
                    let s = world.scholar(id);
                    let inst = world.institution(s.current_affiliation());
                    AuthorInput::named(s.full_name())
                        .with_affiliation(inst.name.clone())
                        .with_country(inst.country.clone())
                })
                .collect(),
            target_venue: world.venue(sub.target_venue).name.clone(),
        };
        let Ok(report) = minaret.recommend(&m) else {
            continue;
        };
        for rec in &report.recommendations {
            // Skip conflated records (several people behind one name) —
            // those are a disambiguation failure measured separately.
            if rec.candidate.is_conflated() {
                continue;
            }
            let truth = rec
                .candidate
                .dominant_truth()
                .expect("a candidate has a truth");
            for &a in &sub.authors {
                assert_ne!(truth, a, "author recommended as reviewer");
                assert!(
                    !world.ever_coauthored(a, truth),
                    "co-author {} recommended (seed {seed})",
                    rec.name
                );
            }
        }
    }
}

#[test]
fn stricter_threshold_never_increases_survivors() {
    let (world, registry, _) = build(300, 41);
    let m = manuscript(&world, 3);
    let ontology = Arc::new(minaret::ontology::seed::curated_cs_ontology());
    let mut previous_kept = usize::MAX;
    for threshold in [0.0, 0.5, 0.8, 0.95] {
        let minaret = Minaret::new(
            registry.clone(),
            ontology.clone(),
            EditorConfig {
                keyword_score_threshold: threshold,
                max_recommendations: usize::MAX,
                ..Default::default()
            },
        );
        let Ok(report) = minaret.recommend(&m) else {
            previous_kept = 0;
            continue;
        };
        let kept = report.recommendations.len();
        assert!(
            kept <= previous_kept,
            "threshold {threshold} kept {kept} > previous {previous_kept}"
        );
        previous_kept = kept;
    }
}

#[test]
fn missing_sources_degrade_gracefully() {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(300)).generate());
    // Only DBLP + Google Scholar — Publons (reviews) missing entirely.
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for kind in [SourceKind::Dblp, SourceKind::GoogleScholar] {
        registry.register(Arc::new(SimulatedSource::new(
            SourceSpec::for_kind(kind),
            world.clone(),
        )));
    }
    let minaret = Minaret::new(
        Arc::new(registry),
        Arc::new(minaret::ontology::seed::curated_cs_ontology()),
        EditorConfig::default(),
    );
    let m = manuscript(&world, 8);
    let report = minaret.recommend(&m).unwrap();
    assert!(!report.recommendations.is_empty());
    // Without Publons no one has review records, so the experience
    // component is zero across the board.
    for r in &report.recommendations {
        assert_eq!(r.breakdown.experience, 0.0);
    }
}
