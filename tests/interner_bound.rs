//! The tables the sources keep for the life of the process must be
//! bounded by the world, not by the requests they serve. Each source
//! keeps its profile store, and the sources of one world share one
//! vocabulary table of venue names, topic labels, institutions,
//! co-author names and publication pages in comparison form. Only
//! building profiles fills them. This pins that a whole recommendation
//! with request strings the world has never seen — the name searches,
//! the interest fan-out, merge, filter and rank — grows none of them.

use std::sync::Arc;

use minaret::prelude::*;
use minaret::synth::WorldHandle;

const N: usize = 200;

/// One recommendation over the real sources: `N` unseen keywords beside
/// one world keyword (so candidates exist), unseen author names,
/// affiliations and countries, and an unseen outlet, all generated from
/// `tag`.
fn recommend(minaret: &Minaret, world_keyword: &str, tag: &str) {
    let mut keywords: Vec<String> = (0..N)
        .map(|i| format!("Unseen Keyword {tag} {i}"))
        .collect();
    keywords.push(world_keyword.to_string());
    let manuscript = ManuscriptDetails {
        title: format!("Unseen Title {tag}"),
        keywords,
        authors: (0..3)
            .map(|i| {
                AuthorInput::named(format!("Unseen{i} Author{tag}"))
                    .with_affiliation(format!("Unseen Institute {tag} {i}"))
                    .with_country(format!("Unseen Country {tag} {i}"))
            })
            .collect(),
        target_venue: format!("Unseen Venue {tag}"),
    };
    let report = minaret.recommend(&manuscript).expect("recommend succeeds");
    assert!(report.candidates_retrieved > 0, "the world keyword matches");
}

/// The world's vocabulary table's size, and each source's
/// built-profile count.
fn resident(sources: &[Arc<SimulatedSource>]) -> (usize, Vec<usize>) {
    let built = sources.iter().map(|s| s.built_profiles()).collect();
    (sources[0].vocabulary().len(), built)
}

#[test]
fn request_strings_never_grow_the_resident_tables() {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(200)).generate());
    let sources: Vec<Arc<SimulatedSource>> = SimulatedSource::family(
        SourceSpec::all_defaults(),
        WorldHandle::Eager(world.clone()),
    )
    .into_iter()
    .map(Arc::new)
    .collect();
    for source in &sources {
        assert!(
            std::ptr::eq(source.vocabulary(), sources[0].vocabulary()),
            "the world's sources share one vocabulary"
        );
    }
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for source in &sources {
        registry.register(source.clone());
    }
    let minaret = Minaret::new(
        Arc::new(registry),
        Arc::new(minaret::ontology::seed::curated_cs_ontology()),
        EditorConfig::default(),
    );
    let world_keyword = world.ontology.label(world.scholars()[0].interests[0]);
    // The retrieved candidates' profiles, and their entries, are world
    // data.
    recommend(&minaret, world_keyword, "warm-up");
    let before = resident(&sources);
    assert!(
        before.0 > 0 && before.1.iter().any(|&built| built > 0),
        "the warm-up built no profile: {before:?}"
    );
    for round in 0..3 {
        recommend(&minaret, world_keyword, &format!("round-{round}"));
        assert_eq!(
            resident(&sources),
            before,
            "round {round}: a recommendation grew the world's vocabulary table or a profile store"
        );
    }
}
