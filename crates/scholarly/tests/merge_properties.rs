//! Property-based tests for profile merging: the merge must behave like
//! a set union keyed by identity, whatever the sources return.

use minaret_scholarly::{
    merge_profiles, Institution, Label, PersonName, SourceKind, SourceMetrics, SourceProfile,
    SourcePublication,
};
use minaret_synth::ScholarId;
use proptest::prelude::*;
use std::sync::Arc;

fn arcs(ps: Vec<SourceProfile>) -> Vec<Arc<SourceProfile>> {
    ps.into_iter().map(Arc::new).collect()
}

fn arb_kind() -> impl Strategy<Value = SourceKind> {
    proptest::sample::select(SourceKind::ALL.to_vec())
}

fn arb_profile() -> impl Strategy<Value = SourceProfile> {
    (
        arb_kind(),
        0u32..6, // person pool
        proptest::sample::select(vec!["Lei Zhou", "L. Zhou", "Wei Wang", "Ada Lovelace"]),
        proptest::option::of(proptest::sample::select(vec!["U Tartu", "U Lisbon"])),
        proptest::collection::vec("[a-z]{3,8}", 0..4), // interests
        0usize..4,                                     // publication count
        proptest::option::of(0u64..10_000),            // citations
    )
        .prop_map(|(source, person, name, aff, interests, pubs, citations)| {
            let mut p = SourceProfile::new(
                source,
                format!("{}:{person}", source.prefix()),
                Arc::new(PersonName::new(name)),
                aff.map(|a| Arc::new(Institution::new(a))),
                None,
                interests.iter().map(|i| Arc::new(Label::new(i))).collect(),
                ScholarId(person),
            )
            .with_publications(
                (0..pubs)
                    .map(|i| {
                        Arc::new(SourcePublication::new(
                            format!("paper {i} by person {person}"),
                            2010 + i as u32,
                            Arc::new(Label::new("J")),
                            vec![],
                            vec![],
                            None,
                        ))
                    })
                    .collect(),
            );
            p.metrics = SourceMetrics {
                citations,
                h_index: None,
                i10_index: None,
            };
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn merge_is_permutation_invariant(mut profiles in proptest::collection::vec(arb_profile(), 0..12), rotate in 0usize..12) {
        let a = merge_profiles(arcs(profiles.clone()));
        let len = profiles.len();
        if len > 0 {
            profiles.rotate_left(rotate % len);
        }
        let b = merge_profiles(arcs(profiles));
        prop_assert_eq!(a, b);
    }

    #[test]
    fn merge_is_idempotent_on_duplicated_input(profiles in proptest::collection::vec(arb_profile(), 0..8)) {
        let once = merge_profiles(arcs(profiles.clone()));
        let mut doubled = profiles.clone();
        doubled.extend(profiles);
        let twice = merge_profiles(arcs(doubled));
        // Duplicating inputs may duplicate keys inside a candidate but
        // must not change the number of candidates or their identities.
        prop_assert_eq!(once.len(), twice.len());
        let names_a: Vec<_> = once.iter().map(|c| c.display_name()).collect();
        let names_b: Vec<_> = twice.iter().map(|c| c.display_name()).collect();
        prop_assert_eq!(names_a, names_b);
    }

    #[test]
    fn every_input_profile_lands_in_exactly_one_candidate(mut profiles in proptest::collection::vec(arb_profile(), 0..12)) {
        // The merge contract assumes per-source keys are unique (the
        // pipeline dedups by (source, key) before merging); make the
        // generated keys unique so the accounting below is well-defined.
        for (i, p) in profiles.iter_mut().enumerate() {
            p.key = format!("{}#{i}", p.key);
        }
        let merged = merge_profiles(arcs(profiles.clone()));
        let total_keys: usize = merged.iter().map(|c| c.keys().count()).sum();
        prop_assert_eq!(total_keys, profiles.len());
        // Metrics are maxima over contributing profiles, so never less
        // than any input's.
        for cand in &merged {
            for p in &profiles {
                if cand.keys().any(|k| k == p.key) && cand.sources().any(|s| s == p.source) {
                    if let (Some(cm), Some(pm)) = (cand.metrics().citations, p.metrics.citations) {
                        prop_assert!(cm >= pm);
                    }
                }
            }
        }
    }

    #[test]
    fn merged_interests_are_normalized_and_sorted(profiles in proptest::collection::vec(arb_profile(), 0..10)) {
        for cand in merge_profiles(arcs(profiles)) {
            let interests: Vec<_> = cand.interests().collect();
            let mut sorted = interests.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(&sorted, &interests);
            for i in interests {
                prop_assert_eq!(i.clone(), minaret_ontology::normalize_label(i));
            }
        }
    }
}
