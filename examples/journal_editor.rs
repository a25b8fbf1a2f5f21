//! The full demo scenario of §3, as a journal editor would drive it:
//! enter manuscript details → verify author identities (Figure 4) →
//! extract → filter (with COI explanations) → rank with a custom weight
//! profile → inspect the score breakdown (Figure 5).
//!
//! ```text
//! cargo run --release --example journal_editor
//! ```

use std::sync::Arc;

use minaret::core::filter::FilterReason;
use minaret::prelude::*;

fn main() {
    let world = Arc::new(
        WorldGenerator::new(WorldConfig {
            name_collision_rate: 0.15, // make identity verification earn its keep
            ..WorldConfig::sized(1500)
        })
        .generate(),
    );
    let mut registry = SourceRegistry::new(RegistryConfig::default());
    for spec in SourceSpec::all_defaults() {
        registry.register(Arc::new(SimulatedSource::new(spec, world.clone())));
    }
    let registry = Arc::new(registry);

    // An editor who cares most about topical fit and recent activity,
    // wants experienced reviewers, and excludes superstars who won't
    // answer (citation cap) — §1's "quite busy" high-profile reviewer.
    let config = EditorConfig {
        weights: RankingWeights {
            coverage: 0.40,
            impact: 0.10,
            recency: 0.25,
            experience: 0.15,
            familiarity: 0.10,
            responsiveness: 0.0,
        },
        expertise: ExpertiseConstraints {
            min_reviews: Some(2),
            max_citations: Some(15_000),
            ..Default::default()
        },
        coi: CoiConfig {
            affiliation_level: AffiliationMatchLevel::University,
            ..Default::default()
        },
        max_recommendations: 10,
        ..Default::default()
    };
    let minaret = Minaret::new(
        registry.clone(),
        Arc::new(minaret::ontology::seed::curated_cs_ontology()),
        config,
    );

    // The manuscript: two authors from the same lab.
    let lead = world
        .scholars()
        .iter()
        .find(|s| world.papers_of(s.id).len() >= 3)
        .expect("prolific scholar exists");
    let coauthor_id = world.coauthors_of(lead.id).first().copied();
    let inst = world.institution(lead.current_affiliation());
    let mut authors = vec![AuthorInput::named(lead.full_name())
        .with_affiliation(inst.name.clone())
        .with_country(inst.country.clone())];
    if let Some(co) = coauthor_id {
        let c = world.scholar(co);
        let ci = world.institution(c.current_affiliation());
        authors.push(
            AuthorInput::named(c.full_name())
                .with_affiliation(ci.name.clone())
                .with_country(ci.country.clone()),
        );
    }
    let manuscript = ManuscriptDetails {
        title: "Adaptive Techniques for Large-Scale Scholarly Data".into(),
        keywords: lead
            .interests
            .iter()
            .take(3)
            .map(|&t| world.ontology.label(t).to_string())
            .collect(),
        authors,
        target_venue: world.venues()[0].name.clone(),
    };

    println!("=== Step 1: manuscript details (Figure 3) ===");
    println!("title:    {}", manuscript.title);
    println!("keywords: {}", manuscript.keywords.join(", "));
    for a in &manuscript.authors {
        println!(
            "author:   {} — {}",
            a.name,
            a.affiliation.as_deref().unwrap_or("-")
        );
    }
    println!("target:   {}\n", manuscript.target_venue);

    println!("=== Step 2: author identity verification (Figure 4) ===");
    let resolver = IdentityResolver::new(&registry);
    for a in &manuscript.authors {
        let candidates = resolver.candidates(&AuthorQuery {
            name: a.name.clone(),
            affiliation: a.affiliation.clone(),
            country: a.country.clone(),
            context_keywords: manuscript.keywords.clone(),
        });
        println!("{} -> {} candidate profile(s)", a.name, candidates.len());
        for (i, m) in candidates.iter().take(3).enumerate() {
            println!(
                "   {}. {} @ {} [score {:.2}, sources: {}]",
                i + 1,
                m.candidate.display_name(),
                m.candidate.affiliation().unwrap_or("?"),
                m.score,
                m.candidate
                    .sources()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            );
        }
    }

    println!("\n=== Step 3: extraction, filtering, ranking ===");
    let report = minaret.recommend(&manuscript).expect("pipeline succeeds");
    println!(
        "retrieved {} candidates; removed {}:",
        report.candidates_retrieved,
        report.filtered_out.len()
    );
    let mut coi = 0;
    let mut threshold = 0;
    let mut expertise = 0;
    for (_, reason) in &report.filtered_out {
        match reason {
            FilterReason::ConflictOfInterest(_) => coi += 1,
            FilterReason::KeywordScoreBelowThreshold { .. } => threshold += 1,
            FilterReason::ExpertiseConstraint => expertise += 1,
            FilterReason::NotOnProgrammeCommittee => {}
        }
    }
    println!("  - conflict of interest: {coi}");
    println!("  - keyword score below threshold: {threshold}");
    println!("  - expertise constraints: {expertise}");
    // Show a concrete COI explanation, the way the demo UI would.
    if let Some((cand, FilterReason::ConflictOfInterest(verdict))) = report
        .filtered_out
        .iter()
        .find(|(_, r)| matches!(r, FilterReason::ConflictOfInterest(_)))
    {
        println!(
            "  e.g. {} removed because {:?}",
            cand.merged.display_name(),
            verdict.reasons[0]
        );
    }

    println!("\n=== Step 4: ranked recommendations (Figure 5) ===");
    println!("{}", report.render_table());
    if let Some(top) = report.recommendations.first() {
        println!("score drill-down for #1 {}:", top.name);
        println!(
            "  coverage {:.3} | impact {:.3} | recency {:.3} | experience {:.3} | familiarity {:.3}",
            top.breakdown.coverage,
            top.breakdown.impact,
            top.breakdown.recency,
            top.breakdown.experience,
            top.breakdown.familiarity
        );
        println!(
            "  matched: {}",
            top.matched_keywords
                .iter()
                .map(|(k, s)| format!("{k} ({s:.2})"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}
