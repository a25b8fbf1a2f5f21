//! The tables a source keeps for the life of the process must be bounded
//! by the world, not by the requests it serves. Each source keeps two:
//! its profile store, and beside it its vocabulary table of shared venue
//! names, topic labels and co-author names in comparison form. Only
//! building and decoding profiles fill them. This pins that a whole
//! recommendation with request strings the world has never seen — the
//! name searches, the interest fan-out, merge, filter and rank — grows
//! neither.

use std::sync::Arc;

use minaret::prelude::*;

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

/// Per source: its vocabulary table's size and its built-profile count.
fn resident(sources: &[Arc<SimulatedSource>]) -> Vec<(usize, usize)> {
    sources
        .iter()
        .map(|s| (s.vocabulary().len(), s.built_profiles()))
        .collect()
}

#[test]
fn request_strings_never_grow_the_resident_tables() {
    let world = Arc::new(WorldGenerator::new(WorldConfig::sized(200)).generate());
    let sources: Vec<Arc<SimulatedSource>> = SourceSpec::all_defaults()
        .into_iter()
        .map(|spec| Arc::new(SimulatedSource::new(spec, world.clone())))
        .collect();
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
        before
            .iter()
            .any(|&(entries, built)| entries > 0 && built > 0),
        "the warm-up built no profile: {before:?}"
    );
    for round in 0..3 {
        recommend(&minaret, world_keyword, &format!("round-{round}"));
        assert_eq!(
            resident(&sources),
            before,
            "round {round}: a recommendation grew a source's vocabulary table or profile store"
        );
    }
}
