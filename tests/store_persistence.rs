//! Persistence guarantees for the embedded store (`minaret-store`).
//!
//! PR goals under test: (1) a store-backed server (`--data-dir`) emits
//! **byte-identical recommendations** to the historical pure-RAM path —
//! same rankings with bitwise-equal scores, same filtered-out reasons —
//! so persistence is invisible to editors; (2) a restart over the same
//! data directory serves the snapshotted world without regeneration,
//! again byte-identically; (3) serving writes nothing: the data dir
//! holds the world snapshot only, and profiles are built from the
//! resident world as in RAM mode; (4) a data dir in the format that
//! preceded the one-table snapshot is regenerated once and left holding
//! the snapshot alone.

use std::path::PathBuf;
use std::sync::Arc;

use minaret::prelude::*;
use minaret::store::SNAPSHOT_FILE;
use minaret_server::AppState;
use minaret_synth::SubmissionGenerator;
use minaret_telemetry::{SnapshotValue, Telemetry};

const SCHOLARS: usize = 260;
const WORLD_SEED: u64 = 42;
const SUBMISSION_SEEDS: [u64; 4] = [1, 7, 23, 42];

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("minaret-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ram_state() -> Arc<AppState> {
    AppState::demo_with_data_dir(SCHOLARS, WORLD_SEED, Telemetry::disabled(), 0, None)
        .expect("pure-RAM state")
}

fn store_state(dir: &std::path::Path) -> Arc<AppState> {
    AppState::demo_with_data_dir(SCHOLARS, WORLD_SEED, Telemetry::disabled(), 0, Some(dir))
        .expect("store-backed state")
}

fn manuscript(world: &World, seed: u64) -> ManuscriptDetails {
    let sub = SubmissionGenerator::new(world, seed).generate().unwrap();
    ManuscriptDetails {
        title: sub.title.clone(),
        keywords: sub.keywords.clone(),
        authors: sub
            .authors
            .iter()
            .map(|&id| AuthorInput::named(world.scholar(id).full_name()))
            .collect(),
        target_venue: world.venue(sub.target_venue).name.clone(),
    }
}

/// Serializes everything ranking-relevant about a report, with float
/// scores rendered via `to_bits` so equality means *bitwise* equality.
fn fingerprint(report: &RecommendationReport) -> Vec<String> {
    let mut lines = vec![
        format!("retrieved={}", report.candidates_retrieved),
        format!("degraded={:?}", report.degraded_sources),
        format!("errors={:?}", report.source_errors),
    ];
    for rec in &report.recommendations {
        let b = &rec.breakdown;
        lines.push(format!(
            "rank {} {} total={:016x} cov={:016x} imp={:016x} rec={:016x} exp={:016x} fam={:016x} res={:016x}",
            rec.rank,
            rec.name,
            rec.total.to_bits(),
            b.coverage.to_bits(),
            b.impact.to_bits(),
            b.recency.to_bits(),
            b.experience.to_bits(),
            b.familiarity.to_bits(),
            b.responsiveness.to_bits(),
        ));
    }
    for (cand, reason) in &report.filtered_out {
        lines.push(format!(
            "filtered {} score={:016x} reason={:?}",
            cand.merged.display_name(),
            cand.keyword_score.to_bits(),
            reason
        ));
    }
    lines
}

/// Every file in `dir` with its bytes, by name.
fn dir_listing(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Fingerprints one recommendation per submission seed on `state`.
fn golden_fingerprints(state: &AppState) -> Vec<Vec<String>> {
    SUBMISSION_SEEDS
        .iter()
        .map(|&seed| {
            let m = manuscript(&state.world, seed);
            fingerprint(&state.minaret.recommend(&m).expect("pipeline succeeds"))
        })
        .collect()
}

#[test]
fn store_backed_recommendations_are_byte_identical_to_ram() {
    let dir = tmp_dir("golden");
    let ram = golden_fingerprints(&ram_state());
    let stored = golden_fingerprints(&store_state(&dir));
    for (i, (want, got)) in ram.iter().zip(&stored).enumerate() {
        assert_eq!(
            want, got,
            "submission seed {}: store-backed recommendations diverged from pure RAM",
            SUBMISSION_SEEDS[i]
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn restart_over_snapshot_serves_identical_recommendations() {
    let dir = tmp_dir("restart");

    // First boot: generates and snapshots the world, then serves.
    let first = store_state(&dir);
    let booted = dir_listing(&dir);
    let goldens = golden_fingerprints(&first);
    let scholars = first.world.scholars().to_vec();
    // Serving the goldens wrote nothing to the data dir.
    assert!(dir_listing(&dir) == booted, "serving changed the data dir");
    drop(first);

    // Second boot: the world must come from the snapshot, and every
    // recommendation byte must match the first boot's.
    let second = store_state(&dir);
    assert_eq!(
        second.world.scholars(),
        scholars.as_slice(),
        "restart must reload the snapshotted world exactly"
    );
    assert_eq!(
        golden_fingerprints(&second),
        goldens,
        "recommendations diverged across a restart over the same data dir"
    );
    // A boot that loads the snapshot, then serves, writes nothing.
    assert!(
        dir_listing(&dir) == booted,
        "restart plus serving changed the data dir"
    );
    drop(second);
    std::fs::remove_dir_all(dir).unwrap();
}

/// A data dir written before snapshots were one table holds a WAL and
/// numbered tables, which the store does not read: the boot finds no
/// snapshot, regenerates the world, serves it byte-identically, and
/// leaves the new snapshot as the dir's only file.
#[test]
fn an_old_format_data_dir_is_regenerated_once() {
    let dir = tmp_dir("old-format");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal-0000000001.log"), [0u8; 64]).unwrap();
    std::fs::write(dir.join("table-0000000002.sst"), [0xA5, 0x54, 1]).unwrap();
    let telemetry = Telemetry::new();
    let state =
        AppState::demo_with_data_dir(SCHOLARS, WORLD_SEED, telemetry.clone(), 0, Some(&dir))
            .expect("boot over an old-format data dir");
    let chunk_writes = telemetry
        .snapshot()
        .into_iter()
        .find(|m| m.name == "minaret_world_chunk_writes_total")
        .map(|m| m.value);
    assert!(
        matches!(chunk_writes, Some(SnapshotValue::Counter(n)) if n > 0),
        "the boot did not regenerate: {chunk_writes:?}"
    );
    assert_eq!(
        golden_fingerprints(&state),
        golden_fingerprints(&ram_state()),
        "a regenerated old-format dir diverged from pure RAM"
    );
    let names: Vec<String> = dir_listing(&dir).into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, [SNAPSHOT_FILE]);
    drop(state);
    std::fs::remove_dir_all(dir).unwrap();
}
