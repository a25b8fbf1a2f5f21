//! Lazy profile materialization equivalence.
//!
//! A [`SimulatedSource`] over a store-backed [`LazyWorld`] must be
//! observationally identical to one over the eager [`World`]: the same
//! search indexes, the same coverage, and byte-identical profiles —
//! for every source kind, over randomly sampled scholars. This is the
//! contract that lets a million-scholar server skip materializing
//! profiles at startup without changing a single served byte. A batch
//! whose unbuilt hits build on several threads must serve the same
//! hits as a source that built them one at a time.

use std::collections::BTreeSet;
use std::sync::Arc;

use minaret_scholarly::{ScholarSource, SimulatedSource, SourceKind, SourceSpec};
use minaret_synth::{
    stream_snapshot_world, LazyWorld, ScholarId, StreamingGenerator, World, WorldConfig,
    WorldGenerator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn worlds(tag: &str) -> (Arc<World>, Arc<LazyWorld>, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("minaret-streameq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // 1500 scholars: two community blocks, so lazy reads cross blocks.
    let cfg = WorldConfig {
        seed: 0x1a2b,
        ..WorldConfig::sized(1500)
    };
    let eager = Arc::new(WorldGenerator::new(cfg.clone()).generate());
    let store =
        Arc::new(minaret_store::Store::open(&dir, minaret_store::StoreConfig::default()).unwrap());
    stream_snapshot_world(&store, &StreamingGenerator::new(cfg), |_| {}).unwrap();
    let lazy = LazyWorld::open(store).unwrap().expect("snapshot present");
    (eager, lazy, dir)
}

#[test]
fn lazy_profiles_are_byte_identical_to_eager_for_every_source_kind() {
    let (eager_world, lazy_world, dir) = worlds("profiles");
    let mut rng = StdRng::seed_from_u64(7);
    for kind in SourceKind::ALL {
        let spec = SourceSpec::for_kind(kind);
        let eager = SimulatedSource::new(spec.clone(), eager_world.clone());
        let lazy = SimulatedSource::lazy(spec, lazy_world.clone());
        assert_eq!(eager.covered_count(), lazy.covered_count(), "{kind}");
        for _ in 0..40 {
            let id = ScholarId(rng.gen_range(0..1500) as u32);
            let key = eager.key_for(id);
            assert_eq!(key, lazy.key_for(id), "{kind}: keys diverge");
            match (eager.fetch_profile(&key), lazy.fetch_profile(&key)) {
                (Ok(a), Ok(b)) => assert_eq!(*a, *b, "{kind}: profile diverges for {key}"),
                (Err(_), Err(_)) => {} // both uncovered — same verdict
                (a, b) => panic!("{kind}: coverage diverges for {key}: {a:?} vs {b:?}"),
            }
        }
    }
    drop(lazy_world);
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn lazy_search_results_match_eager_for_names_and_interests() {
    let (eager_world, lazy_world, dir) = worlds("search");
    let mut rng = StdRng::seed_from_u64(11);
    for kind in [SourceKind::GoogleScholar, SourceKind::Publons] {
        let spec = SourceSpec::for_kind(kind);
        let eager = SimulatedSource::new(spec.clone(), eager_world.clone());
        let lazy = SimulatedSource::lazy(spec, lazy_world.clone());
        for _ in 0..15 {
            let s = &eager_world.scholars()[rng.gen_range(0..1500)];
            assert_eq!(
                eager.search_by_name(&s.full_name()).unwrap(),
                lazy.search_by_name(&s.full_name()).unwrap(),
                "{kind}: name search diverges for {}",
                s.full_name()
            );
            let label = eager_world.ontology.label(s.interests[0]);
            let one_label = [Arc::from(label)];
            assert_eq!(
                eager.search_by_interests(&one_label).unwrap(),
                lazy.search_by_interests(&one_label).unwrap(),
                "{kind}: interest search diverges for {label}"
            );
        }
    }
    drop(lazy_world);
    std::fs::remove_dir_all(dir).unwrap();
}

/// The parallel build path: a fresh source asked one batch with at
/// least 64 unbuilt hits builds them on two workers (forced, so the
/// path runs on a one-core host too), and every label's hits — order
/// and `Debug` text included — equal those of a fresh source that
/// built the same profiles one id at a time before the batch.
#[test]
fn a_batch_of_unbuilt_hits_builds_in_parallel_identically_on_both_worlds() {
    let (eager_world, lazy_world, dir) = worlds("parallel");
    let mut labels: Vec<Arc<str>> = Vec::new();
    for s in eager_world.scholars().iter().take(40) {
        let label: Arc<str> = Arc::from(eager_world.ontology.label(s.interests[0]));
        if !labels.contains(&label) {
            labels.push(label);
        }
    }
    for kind in [SourceKind::GoogleScholar, SourceKind::Publons] {
        let spec = SourceSpec::for_kind(kind);
        let make = |lazy: bool| {
            if lazy {
                SimulatedSource::lazy(spec.clone(), lazy_world.clone())
            } else {
                SimulatedSource::new(spec.clone(), eager_world.clone())
            }
        };
        for lazy in [false, true] {
            let what = if lazy { "lazy" } else { "eager" };
            let batched = make(lazy).with_build_workers(2);
            let hits = batched.search_by_interests(&labels).unwrap();
            let ids: BTreeSet<ScholarId> = hits
                .iter()
                .flat_map(|(_, page)| page.iter().map(|p| p.truth))
                .collect();
            assert!(
                ids.len() >= 64,
                "{kind} {what}: the batch must leave at least 64 profiles unbuilt, found {}",
                ids.len()
            );
            assert_eq!(batched.built_profiles(), ids.len(), "{kind} {what}");

            let warmed = make(lazy);
            for &id in &ids {
                warmed.fetch_profile(&warmed.key_for(id)).unwrap();
            }
            assert_eq!(warmed.built_profiles(), ids.len(), "{kind} {what}");
            let reference = warmed.search_by_interests(&labels).unwrap();
            assert_eq!(hits.len(), reference.len(), "{kind} {what}");
            for ((label, got), (want_label, want)) in hits.iter().zip(&reference) {
                assert_eq!(label, want_label, "{kind} {what}: labels echo in order");
                assert_eq!(got, want, "{kind} {what}: hits diverge for {label}");
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{kind} {what}: hits print differently for {label}"
                );
            }
        }
    }
    drop(lazy_world);
    std::fs::remove_dir_all(dir).unwrap();
}
