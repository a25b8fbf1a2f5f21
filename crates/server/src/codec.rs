//! JSON ↔ domain-type mapping.

use minaret_assign::{AssignmentSpec, BatchAssignment};
use minaret_core::{
    AffiliationMatchLevel, AuthorInput, EditorConfig, ManuscriptDetails, RecommendationReport,
};
use minaret_json::Value;

/// Parses the `/recommend` request body: the manuscript plus optional
/// editor-configuration overrides under `"config"`.
///
/// Expected shape (config entirely optional):
/// ```json
/// {
///   "title": "...", "keywords": ["RDF"],
///   "authors": [{"name": "...", "affiliation": "...", "country": "..."}],
///   "target_venue": "...",
///   "config": {
///     "keyword_score_threshold": 0.6,
///     "max_recommendations": 10,
///     "coi_affiliation_level": "university" | "country" | "off",
///     "weights": {"coverage": 0.4, "impact": 0.2, "recency": 0.2,
///                  "experience": 0.1, "familiarity": 0.1},
///     "min_sources": 2,
///     "min_citations": 100, "max_citations": 50000,
///     "min_h_index": 5, "max_h_index": 60,
///     "min_reviews": 1, "max_reviews": 500,
///     "pc_members": ["Name One", "Name Two"]
///   }
/// }
/// ```
pub fn manuscript_from_json(
    body: &Value,
    base: &EditorConfig,
) -> Result<(ManuscriptDetails, EditorConfig), String> {
    let title = body
        .get("title")
        .and_then(Value::as_str)
        .ok_or("missing string field \"title\"")?
        .to_string();
    let keywords = body
        .get("keywords")
        .and_then(Value::as_array)
        .ok_or("missing array field \"keywords\"")?
        .iter()
        .map(|k| {
            k.as_str()
                .map(str::to_string)
                .ok_or("keywords must be strings".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let authors = body
        .get("authors")
        .and_then(Value::as_array)
        .ok_or("missing array field \"authors\"")?
        .iter()
        .map(|a| {
            let name = a
                .get("name")
                .and_then(Value::as_str)
                .ok_or("author entries need a \"name\"")?
                .to_string();
            Ok(AuthorInput {
                name,
                affiliation: a
                    .get("affiliation")
                    .and_then(Value::as_str)
                    .map(str::to_string),
                country: a.get("country").and_then(Value::as_str).map(str::to_string),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let target_venue = body
        .get("target_venue")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    let manuscript = ManuscriptDetails {
        title,
        keywords,
        authors,
        target_venue,
    };

    let mut config = base.clone();
    if let Some(cfg) = body.get("config") {
        apply_config_overrides(cfg, &mut config)?;
    }
    Ok((manuscript, config))
}

fn apply_config_overrides(cfg: &Value, config: &mut EditorConfig) -> Result<(), String> {
    if let Some(t) = cfg.get("keyword_score_threshold").and_then(Value::as_f64) {
        if !(0.0..=1.0).contains(&t) {
            return Err("keyword_score_threshold must be in [0, 1]".into());
        }
        config.keyword_score_threshold = t;
    }
    if let Some(m) = cfg.get("max_recommendations").and_then(Value::as_u64) {
        config.max_recommendations = m as usize;
    }
    if let Some(m) = cfg.get("min_sources").and_then(Value::as_u64) {
        config.min_sources = m as usize;
    }
    if let Some(level) = cfg.get("coi_affiliation_level").and_then(Value::as_str) {
        config.coi.affiliation_level = match level {
            "university" => AffiliationMatchLevel::University,
            "country" => AffiliationMatchLevel::Country,
            "off" => AffiliationMatchLevel::Off,
            other => return Err(format!("unknown coi_affiliation_level {other:?}")),
        };
    }
    if let Some(w) = cfg.get("weights") {
        let read = |key: &str, current: f64| -> Result<f64, String> {
            match w.get(key) {
                None => Ok(current),
                Some(v) => {
                    let x = v
                        .as_f64()
                        .ok_or_else(|| format!("weight {key:?} must be a number"))?;
                    if x < 0.0 {
                        return Err(format!("weight {key:?} must be non-negative"));
                    }
                    Ok(x)
                }
            }
        };
        config.weights.coverage = read("coverage", config.weights.coverage)?;
        config.weights.impact = read("impact", config.weights.impact)?;
        config.weights.recency = read("recency", config.weights.recency)?;
        config.weights.experience = read("experience", config.weights.experience)?;
        config.weights.familiarity = read("familiarity", config.weights.familiarity)?;
        config.weights.responsiveness = read("responsiveness", config.weights.responsiveness)?;
    }
    // Expertise bounds are non-negative integers that fit their field; a
    // value that does not is rejected, never truncated or ignored. `null`
    // leaves the bound as it is, like an absent key. JSON numbers are
    // exact integers only up to 2^53, the ceiling of the u64 fields.
    let bound = |key: &str, max: u64| -> Result<Option<u64>, String> {
        match cfg.get(key) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => v
                .as_u64()
                .filter(|&n| n <= max)
                .map(Some)
                .ok_or_else(|| format!("{key} must be an integer in [0, {max}]")),
        }
    };
    let bound_u32 = |key: &str| -> Result<Option<u32>, String> {
        Ok(bound(key, u32::MAX.into())?.map(|n| n as u32))
    };
    let e = &mut config.expertise;
    e.min_citations = bound("min_citations", 1 << 53)?.or(e.min_citations);
    e.max_citations = bound("max_citations", 1 << 53)?.or(e.max_citations);
    e.min_h_index = bound_u32("min_h_index")?.or(e.min_h_index);
    e.max_h_index = bound_u32("max_h_index")?.or(e.max_h_index);
    e.min_reviews = bound_u32("min_reviews")?.or(e.min_reviews);
    e.max_reviews = bound_u32("max_reviews")?.or(e.max_reviews);
    if let Some(pc) = cfg.get("pc_members").and_then(Value::as_array) {
        let members = pc
            .iter()
            .map(|m| {
                m.as_str()
                    .map(str::to_string)
                    .ok_or("pc_members must be strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        config.pc_members = Some(members);
    }
    Ok(())
}

/// Parses the `/assign` request body: a manuscript batch, the
/// assignment spec, and optional editor-configuration overrides shared
/// by every paper.
///
/// Expected shape (spec and config optional):
/// ```json
/// {
///   "manuscripts": [{"title": "...", "keywords": [...],
///                     "authors": [...], "target_venue": "..."}, ...],
///   "spec": {
///     "reviewers_per_paper": 3,
///     "max_load": 5,
///     "coi": {"coauthorship": true,
///              "affiliation_level": "university" | "country" | "off"}
///   },
///   "config": { ...same overrides as /recommend... }
/// }
/// ```
pub fn assign_request_from_json(
    body: &Value,
    base: &EditorConfig,
) -> Result<(Vec<ManuscriptDetails>, AssignmentSpec, EditorConfig), String> {
    let mut config = base.clone();
    if let Some(cfg) = body.get("config") {
        apply_config_overrides(cfg, &mut config)?;
    }
    let manuscripts = body
        .get("manuscripts")
        .and_then(Value::as_array)
        .ok_or("missing array field \"manuscripts\"")?
        .iter()
        .map(|item| manuscript_from_json(item, &config).map(|(m, _)| m))
        .collect::<Result<Vec<_>, _>>()?;

    let mut spec = AssignmentSpec::new(3, 5);
    if let Some(s) = body.get("spec") {
        if let Some(k) = s.get("reviewers_per_paper").and_then(Value::as_u64) {
            spec.reviewers_per_paper = k as usize;
        }
        if let Some(l) = s.get("max_load").and_then(Value::as_u64) {
            spec.max_load = l as usize;
        }
        if let Some(cap) = s.get("max_candidates_per_paper").and_then(Value::as_u64) {
            spec.max_candidates_per_paper = cap as usize;
        }
        if let Some(coi) = s.get("coi") {
            let mut policy = config.coi;
            if let Some(c) = coi.get("coauthorship").and_then(Value::as_bool) {
                policy.coauthorship = c;
            }
            if let Some(level) = coi.get("affiliation_level").and_then(Value::as_str) {
                policy.affiliation_level = match level {
                    "university" => AffiliationMatchLevel::University,
                    "country" => AffiliationMatchLevel::Country,
                    "off" => AffiliationMatchLevel::Off,
                    other => return Err(format!("unknown coi affiliation_level {other:?}")),
                };
            }
            spec = spec.with_coi(policy);
        }
    }
    Ok((manuscripts, spec, config))
}

/// Serializes a solved batch assignment for the API.
pub fn assignment_to_json(assignment: &BatchAssignment) -> Value {
    let papers: Vec<Value> = assignment
        .papers
        .iter()
        .map(|p| {
            Value::object().set("title", p.title.as_str()).set(
                "reviewers",
                p.reviewers
                    .iter()
                    .map(|r| {
                        Value::object()
                            .set("name", r.name.as_str())
                            .set("affiliation", r.affiliation.clone())
                            .set("score", r.score)
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let loads: Vec<Value> = assignment
        .loads
        .iter()
        .map(|l| {
            Value::object()
                .set("name", l.name.as_str())
                .set("load", l.load)
        })
        .collect();
    let mut quality = Value::object()
        .set("mean_relevance", assignment.quality.mean_relevance)
        .set("load_gini", assignment.quality.load_gini);
    if let Some(cov) = assignment.quality.coverage_at_k {
        quality = quality.set("coverage_at_k", cov);
    }
    Value::object()
        .set("papers", papers)
        .set("loads", loads)
        .set("pool_size", assignment.pool_size)
        .set("eligible_pairs", assignment.eligible_pairs)
        .set("greedy_total", assignment.greedy_total)
        .set("total_score", assignment.total_score)
        .set(
            "refinement_improvement",
            assignment.refinement_improvement(),
        )
        .set("augmentations", assignment.augmentations)
        .set("quality", quality)
}

/// Serializes a recommendation report for the API.
pub fn report_to_json(report: &RecommendationReport) -> Value {
    let recommendations: Vec<Value> = report
        .recommendations
        .iter()
        .map(|r| {
            Value::object()
                .set("rank", r.rank)
                .set("name", r.name.as_str())
                .set("affiliation", r.affiliation.clone())
                .set(
                    "sources",
                    r.sources
                        .iter()
                        .map(|s| Value::from(s.to_string()))
                        .collect::<Vec<_>>(),
                )
                .set(
                    "matched_keywords",
                    r.matched_keywords
                        .iter()
                        .map(|(k, s)| Value::object().set("keyword", k.as_str()).set("score", *s))
                        .collect::<Vec<_>>(),
                )
                .set("total_score", r.total)
                .set(
                    "score_details",
                    Value::object()
                        .set("topic_coverage", r.breakdown.coverage)
                        .set("scientific_impact", r.breakdown.impact)
                        .set("recency", r.breakdown.recency)
                        .set("review_experience", r.breakdown.experience)
                        .set("outlet_familiarity", r.breakdown.familiarity)
                        .set("responsiveness", r.breakdown.responsiveness),
                )
        })
        .collect();
    let expansions: Vec<Value> = report
        .expansions
        .iter()
        .map(|e| {
            Value::object().set("keyword", e.original.as_str()).set(
                "expanded",
                e.expanded
                    .iter()
                    .map(|(label, score)| {
                        Value::object()
                            .set("keyword", label.as_str())
                            .set("score", *score)
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    Value::object()
        .set("title", report.manuscript.title.as_str())
        .set("recommendations", recommendations)
        .set("expansions", expansions)
        .set(
            "unknown_keywords",
            report
                .unknown_keywords
                .iter()
                .map(|k| Value::from(k.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("candidates_retrieved", report.candidates_retrieved)
        .set("filtered_out", report.filtered_out.len())
        .set("degraded", report.degraded)
        .set(
            "degraded_sources",
            report
                .degraded_sources
                .iter()
                .map(|s| Value::from(s.as_str()))
                .collect::<Vec<_>>(),
        )
        .set(
            "source_errors",
            report
                .source_errors
                .iter()
                .map(|s| Value::from(s.as_str()))
                .collect::<Vec<_>>(),
        )
        .set(
            "timings_ms",
            Value::object()
                .set("extraction", report.timings.extraction.as_secs_f64() * 1e3)
                .set("filtering", report.timings.filtering.as_secs_f64() * 1e3)
                .set("ranking", report.timings.ranking.as_secs_f64() * 1e3),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_json::parse;

    fn base() -> EditorConfig {
        EditorConfig::default()
    }

    #[test]
    fn parses_minimal_manuscript() {
        let body = parse(
            r#"{"title":"T","keywords":["RDF"],
                "authors":[{"name":"A B"}],"target_venue":"J"}"#,
        )
        .unwrap();
        let (m, cfg) = manuscript_from_json(&body, &base()).unwrap();
        assert_eq!(m.title, "T");
        assert_eq!(m.keywords, vec!["RDF"]);
        assert_eq!(m.authors[0].name, "A B");
        assert!(m.authors[0].affiliation.is_none());
        assert_eq!(cfg, base());
    }

    #[test]
    fn applies_config_overrides() {
        let body = parse(
            r#"{"title":"T","keywords":["RDF"],"authors":[{"name":"A B"}],
                "target_venue":"J",
                "config":{"keyword_score_threshold":0.7,
                          "max_recommendations":5,
                          "min_sources":2,
                          "coi_affiliation_level":"country",
                          "weights":{"coverage":1.0,"impact":0.0},
                          "min_citations":10,
                          "pc_members":["X Y"]}}"#,
        )
        .unwrap();
        let (_, cfg) = manuscript_from_json(&body, &base()).unwrap();
        assert_eq!(cfg.keyword_score_threshold, 0.7);
        assert_eq!(cfg.max_recommendations, 5);
        assert_eq!(cfg.min_sources, 2);
        assert_eq!(cfg.coi.affiliation_level, AffiliationMatchLevel::Country);
        assert_eq!(cfg.weights.coverage, 1.0);
        assert_eq!(cfg.weights.impact, 0.0);
        assert_eq!(cfg.weights.recency, base().weights.recency);
        assert_eq!(cfg.expertise.min_citations, Some(10));
        assert_eq!(cfg.pc_members, Some(vec!["X Y".to_string()]));
    }

    #[test]
    fn rejects_bad_payloads() {
        for bad in [
            r#"{"keywords":[],"authors":[],"target_venue":""}"#,
            r#"{"title":"T","keywords":[1],"authors":[],"target_venue":""}"#,
            r#"{"title":"T","keywords":["k"],"authors":[{}],"target_venue":""}"#,
            r#"{"title":"T","keywords":["k"],"authors":[{"name":"A"}],
                "config":{"keyword_score_threshold":7}}"#,
            r#"{"title":"T","keywords":["k"],"authors":[{"name":"A"}],
                "config":{"coi_affiliation_level":"galaxy"}}"#,
            r#"{"title":"T","keywords":["k"],"authors":[{"name":"A"}],
                "config":{"weights":{"coverage":-1}}}"#,
        ] {
            let body = parse(bad).unwrap();
            assert!(
                manuscript_from_json(&body, &base()).is_err(),
                "accepted bad payload {bad}"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_expertise_bounds() {
        let with = |field: &str, value: &str| {
            parse(&format!(
                r#"{{"title":"T","keywords":["k"],"authors":[{{"name":"A"}}],
                    "target_venue":"J","config":{{"{field}":{value}}}}}"#
            ))
            .unwrap()
        };
        for field in ["min_h_index", "max_h_index", "min_reviews", "max_reviews"] {
            // 2^32 used to wrap to 0; -1 and 1.5 used to be ignored.
            for value in ["4294967296", "-1", "1.5", "\"7\""] {
                let err = manuscript_from_json(&with(field, value), &base())
                    .expect_err(&format!("accepted {field}: {value}"));
                assert!(err.contains(field), "{err}");
            }
            let (_, cfg) = manuscript_from_json(&with(field, "4294967295"), &base()).unwrap();
            assert_ne!(cfg, base(), "{field} at u32::MAX applies");
        }
        for field in ["min_citations", "max_citations"] {
            let err = manuscript_from_json(&with(field, "-1"), &base()).unwrap_err();
            assert!(err.contains("[0, 9007199254740992]"), "{err}");
            let (_, cfg) = manuscript_from_json(&with(field, "9007199254740992"), &base()).unwrap();
            assert_ne!(cfg, base(), "{field} at 2^53 applies");
        }
        // `null` keeps the configured bound, as an absent key does.
        let (_, cfg) = manuscript_from_json(&with("max_h_index", "null"), &base()).unwrap();
        assert_eq!(cfg, base());
        let (_, cfg) = manuscript_from_json(&with("max_h_index", "60"), &base()).unwrap();
        assert_eq!(cfg.expertise.max_h_index, Some(60));
        let batch = parse(
            r#"{"manuscripts":[{"title":"T","keywords":["k"],
                "authors":[{"name":"A B"}],"target_venue":"J"}],
                "config":{"max_h_index":4294967296}}"#,
        )
        .unwrap();
        assert!(assign_request_from_json(&batch, &base()).is_err());
    }
}
