//! JSON ↔ domain-type mapping.

use std::fmt::Display;

use minaret_assign::{AssignmentSpec, BatchAssignment};
use minaret_core::{
    AffiliationMatchLevel, AuthorInput, EditorConfig, ManuscriptDetails, RecommendationReport,
};
use minaret_json::Value;

/// Parses the `/recommend` request body: the manuscript plus optional
/// editor-configuration overrides under `"config"`.
///
/// Expected shape (config entirely optional; a key not shown here, or
/// one given twice in the same object, is an error):
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
///                  "experience": 0.1, "familiarity": 0.1,
///                  "responsiveness": 0.0},
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
    let manuscript = manuscript_details(body, "the manuscript")?;
    let mut config = base.clone();
    if let Some(cfg) = field(body, "config", "an object", object)? {
        apply_config_overrides(cfg, &mut config)?;
    }
    Ok((manuscript, config))
}

/// Parses one manuscript's own fields, everything but `"config"`, from
/// the object that `name` names in errors.
fn manuscript_details(body: &Value, name: impl Display) -> Result<ManuscriptDetails, String> {
    // The caller reads `"config"`.
    check_keys(
        body,
        name,
        &["title", "keywords", "authors", "target_venue", "config"],
    )?;
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
        .enumerate()
        .map(|(i, a)| {
            check_keys(
                a,
                format_args!("authors[{i}]"),
                &["name", "affiliation", "country"],
            )?;
            let name = a
                .get("name")
                .and_then(Value::as_str)
                .ok_or("author entries need a \"name\"")?
                .to_string();
            let text = |key| {
                field(a, key, "a string", Value::as_str)
                    .map(|v| v.map(str::to_string))
                    .map_err(|e| format!("authors[{i}].{e}"))
            };
            Ok(AuthorInput {
                name,
                affiliation: text("affiliation")?,
                country: text("country")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let target_venue = field(body, "target_venue", "a string", Value::as_str)?
        .unwrap_or("")
        .to_string();
    Ok(ManuscriptDetails {
        title,
        keywords,
        authors,
        target_venue,
    })
}

/// Rejects a key of `obj` that is not one of `known`, or that `obj`
/// holds twice, with an error naming the key and `object`: a misspelled
/// override is never dropped in favour of its default, and a repeated
/// one is never resolved by position. Compares `&str`s and allocates
/// nothing unless it fails. A non-object passes; its reader rejects it.
fn check_keys(obj: &Value, object: impl Display, known: &[&str]) -> Result<(), String> {
    let Value::Object(fields) = obj else {
        return Ok(());
    };
    for (i, (key, _)) in fields.iter().enumerate() {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown key \"{key}\" in {object}"));
        }
        // Every earlier key is known and distinct, so this scans at
        // most `known.len()` keys.
        if fields[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("repeated key \"{key}\" in {object}"));
        }
    }
    Ok(())
}

/// Largest integer a JSON number holds exactly (2^53), the ceiling of
/// every integer override.
const MAX_JSON_INT: u64 = 1 << 53;

/// Reads an optional override from an object. An absent key and `null`
/// both keep the configured value (`Ok(None)`). Any other value must
/// pass `read`; one of the wrong type or outside its range is an error
/// naming the field, never truncated or ignored.
fn field<'a, T>(
    obj: &'a Value,
    key: &str,
    must_be: impl std::fmt::Display,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<Option<T>, String> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => read(v)
            .map(Some)
            .ok_or_else(|| format!("{key} must be {must_be}")),
    }
}

/// An integer override in `[0, max]`, converted to its field's type.
fn integer<T: TryFrom<u64>>(obj: &Value, key: &str, max: u64) -> Result<Option<T>, String> {
    field(obj, key, format_args!("an integer in [0, {max}]"), |v| {
        v.as_u64()
            .filter(|&n| n <= max)
            .and_then(|n| T::try_from(n).ok())
    })
}

fn object(v: &Value) -> Option<&Value> {
    matches!(v, Value::Object(_)).then_some(v)
}

const AFFILIATION_LEVELS: &str = r#"one of "university", "country", "off""#;

fn affiliation_level(v: &Value) -> Option<AffiliationMatchLevel> {
    match v.as_str()? {
        "university" => Some(AffiliationMatchLevel::University),
        "country" => Some(AffiliationMatchLevel::Country),
        "off" => Some(AffiliationMatchLevel::Off),
        _ => None,
    }
}

fn apply_config_overrides(cfg: &Value, config: &mut EditorConfig) -> Result<(), String> {
    check_keys(
        cfg,
        "config",
        &[
            "keyword_score_threshold",
            "max_recommendations",
            "min_sources",
            "coi_affiliation_level",
            "weights",
            "min_citations",
            "max_citations",
            "min_h_index",
            "max_h_index",
            "min_reviews",
            "max_reviews",
            "pc_members",
        ],
    )?;
    if let Some(t) = field(cfg, "keyword_score_threshold", "a number in [0, 1]", |v| {
        v.as_f64().filter(|t| (0.0..=1.0).contains(t))
    })? {
        config.keyword_score_threshold = t;
    }
    for (key, slot) in [
        ("max_recommendations", &mut config.max_recommendations),
        ("min_sources", &mut config.min_sources),
    ] {
        *slot = integer(cfg, key, MAX_JSON_INT)?.unwrap_or(*slot);
    }
    if let Some(level) = field(
        cfg,
        "coi_affiliation_level",
        AFFILIATION_LEVELS,
        affiliation_level,
    )? {
        config.coi.affiliation_level = level;
    }
    if let Some(w) = field(cfg, "weights", "an object", object)? {
        check_keys(
            w,
            "config.weights",
            &[
                "coverage",
                "impact",
                "recency",
                "experience",
                "familiarity",
                "responsiveness",
            ],
        )?;
        let weights = &mut config.weights;
        for (key, slot) in [
            ("coverage", &mut weights.coverage),
            ("impact", &mut weights.impact),
            ("recency", &mut weights.recency),
            ("experience", &mut weights.experience),
            ("familiarity", &mut weights.familiarity),
            ("responsiveness", &mut weights.responsiveness),
        ] {
            *slot = field(w, key, "a non-negative number", |v| {
                v.as_f64().filter(|&x| x >= 0.0)
            })
            .map_err(|e| format!("weights.{e}"))?
            .unwrap_or(*slot);
        }
    }
    let e = &mut config.expertise;
    e.min_citations = integer(cfg, "min_citations", MAX_JSON_INT)?.or(e.min_citations);
    e.max_citations = integer(cfg, "max_citations", MAX_JSON_INT)?.or(e.max_citations);
    for (key, bound) in [
        ("min_h_index", &mut e.min_h_index),
        ("max_h_index", &mut e.max_h_index),
        ("min_reviews", &mut e.min_reviews),
        ("max_reviews", &mut e.max_reviews),
    ] {
        *bound = integer(cfg, key, u32::MAX.into())?.or(*bound);
    }
    if let Some(members) = field(cfg, "pc_members", "an array of strings", |v| {
        v.as_array()?
            .iter()
            .map(|m| m.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
    })? {
        config.pc_members = Some(members);
    }
    Ok(())
}

/// Parses the `/assign` request body: a manuscript batch, the
/// assignment spec, and optional editor-configuration overrides shared
/// by every paper. The batch is solved under one config, so a
/// `"config"` inside a manuscript is rejected, not ignored.
///
/// Expected shape (spec and config optional; a key not shown here, or
/// one given twice in the same object, is an error):
/// ```json
/// {
///   "manuscripts": [{"title": "...", "keywords": [...],
///                     "authors": [...], "target_venue": "..."}, ...],
///   "spec": {
///     "reviewers_per_paper": 3,
///     "max_load": 5,
///     "max_candidates_per_paper": 400,
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
    check_keys(body, "the batch", &["manuscripts", "spec", "config"])?;
    let mut config = base.clone();
    if let Some(cfg) = field(body, "config", "an object", object)? {
        apply_config_overrides(cfg, &mut config)?;
    }
    let manuscripts = body
        .get("manuscripts")
        .and_then(Value::as_array)
        .ok_or("missing array field \"manuscripts\"")?
        .iter()
        .enumerate()
        .map(|(i, item)| {
            if !matches!(item.get("config"), None | Some(Value::Null)) {
                return Err(format!(
                    "manuscripts[{i}].config is not accepted: a batch takes one \
                     \"config\", at the top level"
                ));
            }
            manuscript_details(item, format_args!("manuscripts[{i}]"))
        })
        .collect::<Result<Vec<_>, _>>()?;

    let mut spec = AssignmentSpec::new(3, 5);
    if let Some(s) = field(body, "spec", "an object", object)? {
        check_keys(
            s,
            "spec",
            &[
                "reviewers_per_paper",
                "max_load",
                "max_candidates_per_paper",
                "coi",
            ],
        )?;
        // Zero passes here; `AssignmentSpec::validate` rejects a zero
        // `reviewers_per_paper` or `max_load` with its own message.
        for (key, slot) in [
            ("reviewers_per_paper", &mut spec.reviewers_per_paper),
            ("max_load", &mut spec.max_load),
            (
                "max_candidates_per_paper",
                &mut spec.max_candidates_per_paper,
            ),
        ] {
            *slot = integer(s, key, MAX_JSON_INT)?.unwrap_or(*slot);
        }
        if let Some(coi) = field(s, "coi", "an object", object)? {
            check_keys(coi, "spec.coi", &["coauthorship", "affiliation_level"])?;
            let mut policy = config.coi;
            let prefixed = |e: String| format!("coi.{e}");
            if let Some(c) =
                field(coi, "coauthorship", "a boolean", Value::as_bool).map_err(prefixed)?
            {
                policy.coauthorship = c;
            }
            if let Some(level) = field(
                coi,
                "affiliation_level",
                AFFILIATION_LEVELS,
                affiliation_level,
            )
            .map_err(prefixed)?
            {
                policy.affiliation_level = level;
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
    let quality = Value::object()
        .set("mean_relevance", assignment.quality.mean_relevance)
        .set("load_gini", assignment.quality.load_gini);
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

    #[test]
    fn rejects_overrides_of_the_wrong_type() {
        // Each of these used to be dropped silently, keeping the default.
        let recommend = |config: &str| {
            parse(&format!(
                r#"{{"title":"T","keywords":["k"],"authors":[{{"name":"A"}}],
                    "target_venue":"J","config":{config}}}"#
            ))
            .unwrap()
        };
        for (config, field) in [
            (r#"{"max_recommendations":"3"}"#, "max_recommendations"),
            (r#"{"max_recommendations":2.5}"#, "max_recommendations"),
            (r#"{"min_sources":"9"}"#, "min_sources"),
            (r#"{"min_sources":-1}"#, "min_sources"),
            (r#"{"min_sources":1e16}"#, "min_sources"),
            (
                r#"{"keyword_score_threshold":"0.5"}"#,
                "keyword_score_threshold",
            ),
            (r#"{"coi_affiliation_level":1}"#, "coi_affiliation_level"),
            (r#"{"weights":[1]}"#, "weights"),
            (r#"{"weights":{"impact":"0.5"}}"#, "weights.impact"),
            (r#"{"pc_members":"Lei Zhou"}"#, "pc_members"),
            (r#"{"pc_members":[1]}"#, "pc_members"),
            ("5", "config"),
            (r#""x""#, "config"),
        ] {
            let err = manuscript_from_json(&recommend(config), &base())
                .expect_err(&format!("accepted config {config}"));
            assert!(err.contains(field), "{config}: {err}");
        }
        // The manuscript's own optional fields follow the same rule.
        let manuscript =
            |fields: &str| parse(&format!(r#"{{"title":"T","keywords":["k"],{fields}}}"#)).unwrap();
        for (fields, field) in [
            (
                r#""authors":[{"name":"A"}],"target_venue":5"#,
                "target_venue",
            ),
            (
                r#""authors":[{"name":"A"},{"name":"B","affiliation":7}]"#,
                "authors[1].affiliation",
            ),
            (
                r#""authors":[{"name":"A","country":true}]"#,
                "authors[0].country",
            ),
        ] {
            let err = manuscript_from_json(&manuscript(fields), &base())
                .expect_err(&format!("accepted {fields}"));
            assert!(err.contains(field), "{fields}: {err}");
        }
        let (m, _) = manuscript_from_json(
            &manuscript(
                r#""authors":[{"name":"A","affiliation":null,"country":null}],
                    "target_venue":null"#,
            ),
            &base(),
        )
        .unwrap();
        assert_eq!(m.target_venue, "");
        assert!(m.authors[0].affiliation.is_none() && m.authors[0].country.is_none());
        // `null` keeps the default, as an absent key does.
        for config in [
            "null",
            r#"{"max_recommendations":null,"min_sources":null,"pc_members":null,
                "keyword_score_threshold":null,"coi_affiliation_level":null,
                "weights":null}"#,
            r#"{"weights":{"impact":null}}"#,
        ] {
            let (_, cfg) = manuscript_from_json(&recommend(config), &base()).unwrap();
            assert_eq!(cfg, base(), "{config}");
        }

        let assign = |fields: &str| {
            parse(&format!(
                r#"{{"manuscripts":[{{"title":"T","keywords":["k"],
                    "authors":[{{"name":"A B"}}],"target_venue":"J"}}],{fields}}}"#
            ))
            .unwrap()
        };
        for (fields, field) in [
            (r#""spec":{"max_load":"1"}"#, "max_load"),
            (
                r#""spec":{"reviewers_per_paper":"2"}"#,
                "reviewers_per_paper",
            ),
            (
                r#""spec":{"reviewers_per_paper":2.5}"#,
                "reviewers_per_paper",
            ),
            (
                r#""spec":{"reviewers_per_paper":-1}"#,
                "reviewers_per_paper",
            ),
            (r#""spec":{"max_load":1e16}"#, "max_load"),
            (
                r#""spec":{"max_candidates_per_paper":true}"#,
                "max_candidates_per_paper",
            ),
            (r#""spec":5"#, "spec"),
            (r#""spec":{"coi":true}"#, "coi"),
            (
                r#""spec":{"coi":{"coauthorship":"yes"}}"#,
                "coi.coauthorship",
            ),
            (
                r#""spec":{"coi":{"affiliation_level":"galaxy"}}"#,
                "coi.affiliation_level",
            ),
            (r#""config":[]"#, "config"),
            (r#""config":{"min_sources":"9"}"#, "min_sources"),
        ] {
            let err = assign_request_from_json(&assign(fields), &base())
                .expect_err(&format!("accepted {fields}"));
            assert!(err.contains(field), "{fields}: {err}");
        }
        // One config serves the whole batch: a manuscript's own is
        // rejected, not ignored. `null` is accepted, as an absent key.
        let batch = |config: &str| {
            parse(&format!(
                r#"{{"manuscripts":[{{"title":"T","keywords":["k"],
                    "authors":[{{"name":"A B"}}],"target_venue":"J"}},
                    {{"title":"U","keywords":["k"],"authors":[{{"name":"C D"}}],
                    "target_venue":"J","config":{config}}}]}}"#
            ))
            .unwrap()
        };
        for config in [r#"{"max_h_index":0}"#, "{}", "5"] {
            let err = assign_request_from_json(&batch(config), &base())
                .expect_err(&format!("accepted a manuscript config {config}"));
            assert!(err.contains("manuscripts[1].config"), "{config}: {err}");
        }
        let (manuscripts, _, cfg) = assign_request_from_json(&batch("null"), &base()).unwrap();
        assert_eq!((manuscripts.len(), cfg), (2, base()));
        let (_, spec, cfg) = assign_request_from_json(
            &assign(
                r#""config":null,"spec":{"reviewers_per_paper":null,"max_load":null,
                    "max_candidates_per_paper":null,"coi":null}"#,
            ),
            &base(),
        )
        .unwrap();
        assert_eq!((spec, cfg), (AssignmentSpec::new(3, 5), base()));
        // Integers up to 2^53 apply; a zero is left to
        // `AssignmentSpec::validate`, which rejects it with its own 422.
        let (_, spec, _) = assign_request_from_json(
            &assign(r#""spec":{"reviewers_per_paper":0,"max_load":9007199254740992}"#),
            &base(),
        )
        .unwrap();
        assert_eq!((spec.reviewers_per_paper, spec.max_load), (0, 1 << 53));
    }

    #[test]
    fn rejects_unknown_and_repeated_keys_in_every_object() {
        type Decode = fn(&str) -> Result<(), String>;
        let recommend: Decode =
            |body| manuscript_from_json(&parse(body).unwrap(), &base()).map(drop);
        let assign: Decode =
            |body| assign_request_from_json(&parse(body).unwrap(), &base()).map(drop);
        // Every key each object reads is accepted.
        recommend(
            r#"{"title":"T","keywords":["k"],
                "authors":[{"name":"A","affiliation":"U","country":"C"}],"target_venue":"J",
                "config":{"keyword_score_threshold":0.5,"max_recommendations":3,"min_sources":1,
                    "coi_affiliation_level":"off",
                    "weights":{"coverage":1,"impact":1,"recency":1,"experience":1,
                        "familiarity":1,"responsiveness":1},
                    "min_citations":1,"max_citations":2,"min_h_index":1,"max_h_index":2,
                    "min_reviews":1,"max_reviews":2,"pc_members":[]}}"#,
        )
        .unwrap();
        assign(
            r#"{"manuscripts":[{"title":"T","keywords":[],"authors":[],"target_venue":"J",
                    "config":null}],
                "spec":{"reviewers_per_paper":1,"max_load":1,"max_candidates_per_paper":1,
                    "coi":{"coauthorship":true,"affiliation_level":"off"}},
                "config":{}}"#,
        )
        .unwrap();
        // Each misspelled key used to be dropped, keeping its default, and
        // each repeated key was read at its first occurrence. `@` marks
        // where the object takes one more key: a misspelled one, then
        // one it already holds.
        for (decode, body, object, misspelled, held, value) in [
            (
                recommend,
                r#"{"title":"T","keywords":["k"],"authors":[{"name":"A"}]@}"#,
                "the manuscript",
                "confg",
                "title",
                r#""T""#,
            ),
            (
                recommend,
                r#"{"title":"T","keywords":["k"],"authors":[{"name":"A"},{"name":"B"@}]}"#,
                "authors[1]",
                "afiliation",
                "name",
                r#""B""#,
            ),
            (
                recommend,
                r#"{"title":"T","keywords":["k"],"authors":[],"config":{"max_recommendations":3@}}"#,
                "config",
                "max_recomendations",
                "max_recommendations",
                "3",
            ),
            (
                recommend,
                r#"{"title":"T","keywords":["k"],"authors":[],"config":{"weights":{"impact":0.5@}}}"#,
                "config.weights",
                "impcat",
                "impact",
                "0.5",
            ),
            (
                assign,
                r#"{"manuscripts":[]@}"#,
                "the batch",
                "manuscript",
                "manuscripts",
                "[]",
            ),
            (
                assign,
                r#"{"manuscripts":[],"config":{"min_sources":1@}}"#,
                "config",
                "min_source",
                "min_sources",
                "1",
            ),
            (
                assign,
                r#"{"manuscripts":[{"title":"T","keywords":[],"authors":[]},
                    {"title":"U","keywords":[],"authors":[]@}]}"#,
                "manuscripts[1]",
                "tilte",
                "title",
                r#""U""#,
            ),
            (
                assign,
                r#"{"manuscripts":[],"spec":{"reviewers_per_paper":2,"max_load":1@}}"#,
                "spec",
                "max_laod",
                "max_load",
                "1",
            ),
            (
                assign,
                r#"{"manuscripts":[],"spec":{"coi":{"coauthorship":true@}}}"#,
                "spec.coi",
                "coauthor",
                "coauthorship",
                "true",
            ),
        ] {
            decode(&body.replace('@', "")).unwrap();
            for (key, problem) in [(misspelled, "unknown"), (held, "repeated")] {
                let with_key = body.replace('@', &format!(r#","{key}":{value}"#));
                let err = decode(&with_key).expect_err(&with_key);
                assert_eq!(err, format!(r#"{problem} key "{key}" in {object}"#));
            }
        }
    }
}
