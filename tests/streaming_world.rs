//! Lazy profile materialization equivalence.
//!
//! A [`SimulatedSource`] over a store-backed [`LazyWorld`] must be
//! observationally identical to one over the eager [`World`]: the same
//! search indexes, the same coverage, and byte-identical profiles —
//! for every source kind, over randomly sampled scholars. This is the
//! contract that lets a million-scholar server skip materializing
//! profiles at startup without changing a single served byte.

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
