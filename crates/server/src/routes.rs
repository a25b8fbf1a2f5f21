//! Route handlers.

use std::sync::Arc;
use std::time::Instant;

use minaret_assign::{coverage_against_world, AssignError, Assigner};
use minaret_core::{Minaret, MinaretError};
use minaret_disambig::{AuthorQuery, IdentityResolver};
use minaret_http::{Params, Request, Response, Router};
use minaret_json::Value;
use minaret_ontology::{ExpansionConfig, KeywordExpander};
use minaret_scholarly::SourceRegistry;
use minaret_telemetry::Telemetry;

use crate::cache::ResultCache;
use crate::codec::{
    assign_request_from_json, assignment_to_json, manuscript_from_json, report_to_json,
};
use crate::state::AppState;

/// The registry view for this request. When the admission layer stamped
/// a deadline on the request, every fan-out this handler performs is
/// clamped to the *remaining* budget; a request whose budget is already
/// spent is refused here (503 + `Retry-After`) instead of fanning out
/// to sources that cannot possibly answer in time.
fn scoped_registry(
    registry: &Arc<SourceRegistry>,
    req: &Request,
) -> Result<Arc<SourceRegistry>, Response> {
    let Some(deadline) = req.deadline else {
        return Ok(registry.clone());
    };
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(
            Response::error(503, "request deadline exhausted before dispatch")
                .with_header("Retry-After", "1"),
        );
    }
    Ok(Arc::new(
        registry.scoped_with_budget(remaining.as_micros() as u64),
    ))
}

/// Wraps a handler with per-route telemetry: a latency histogram
/// (`minaret_http_request_micros{route}`) and a status-code counter
/// (`minaret_http_requests_total{route,status}`).
fn instrumented(
    telemetry: Telemetry,
    route: &'static str,
    handler: impl Fn(&Request, &Params) -> Response + Send + Sync + 'static,
) -> impl Fn(&Request, &Params) -> Response + Send + Sync + 'static {
    move |req, params| {
        let start = Instant::now();
        let resp = handler(req, params);
        let status = resp.status.to_string();
        telemetry
            .counter(
                "minaret_http_requests_total",
                &[("route", route), ("status", &status)],
            )
            .inc();
        telemetry
            .histogram("minaret_http_request_micros", &[("route", route)])
            .observe_duration(start.elapsed());
        resp
    }
}

/// Builds the full API router over the given state.
pub fn build_router(state: Arc<AppState>) -> Router {
    let mut router = Router::new();
    let t = |route| (state.telemetry.clone(), route);

    let s = state.clone();
    let (tel, route) = t("/health");
    router.get(
        route,
        instrumented(tel, route, move |_, _| {
            let stats = s.world.stats();
            Response::json(
                200,
                &Value::object()
                    .set("status", "ok")
                    .set(
                        "world",
                        Value::object()
                            .set("scholars", stats.scholars)
                            .set("papers", stats.papers)
                            .set("venues", stats.venues)
                            .set("reviews", stats.reviews),
                    )
                    .set("sources", s.registry.len()),
            )
        }),
    );

    let s = state.clone();
    let (tel, route) = t("/sources");
    router.get(
        route,
        instrumented(tel, route, move |_, _| {
            let kinds: Vec<Value> = s
                .registry
                .kinds()
                .iter()
                .map(|k| Value::from(k.to_string()))
                .collect();
            Response::json(200, &Value::object().set("sources", kinds))
        }),
    );

    let s = state.clone();
    let (tel, route) = t("/expand");
    router.get(
        route,
        instrumented(tel, route, move |req, _| {
            let Some(keyword) = req.query_param("keyword") else {
                return Response::error(400, "missing query parameter \"keyword\"");
            };
            let min_score = req
                .query_param("min_score")
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(ExpansionConfig::default().min_score);
            let cfg = ExpansionConfig {
                min_score,
                ..Default::default()
            };
            let expander = KeywordExpander::new(&s.ontology, cfg);
            match expander.expand(keyword) {
                Ok(expanded) => {
                    let items: Vec<Value> = expanded
                        .iter()
                        .map(|e| {
                            Value::object()
                                .set("keyword", e.label.as_str())
                                .set("score", e.score)
                                .set("hops", e.hops)
                        })
                        .collect();
                    Response::json(
                        200,
                        &Value::object()
                            .set("keyword", keyword)
                            .set("expanded", items),
                    )
                }
                Err(e) => Response::error(404, &e.to_string()),
            }
        }),
    );

    let s = state.clone();
    let (tel, route) = t("/verify-authors");
    router.post(
        route,
        instrumented(tel, route, move |req, _| {
            let body = match req.json_body() {
                Ok(b) => b,
                Err(e) => return Response::error(400, &e.to_string()),
            };
            let Some(authors) = body.get("authors").and_then(Value::as_array) else {
                return Response::error(400, "missing array field \"authors\"");
            };
            let keywords: Vec<String> = body
                .get("keywords")
                .and_then(Value::as_array)
                .map(|ks| {
                    ks.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default();
            let registry = match scoped_registry(&s.registry, req) {
                Ok(r) => r,
                Err(resp) => return resp,
            };
            let resolver = IdentityResolver::new(&registry).with_telemetry(s.telemetry.clone());
            let mut results = Vec::new();
            for a in authors {
                let Some(name) = a.get("name").and_then(Value::as_str) else {
                    return Response::error(400, "author entries need a \"name\"");
                };
                let query = AuthorQuery {
                    name: name.to_string(),
                    affiliation: a
                        .get("affiliation")
                        .and_then(Value::as_str)
                        .map(str::to_string),
                    country: a.get("country").and_then(Value::as_str).map(str::to_string),
                    context_keywords: keywords.clone(),
                };
                let candidates = resolver.candidates(&query);
                let matches: Vec<Value> = candidates
                    .iter()
                    .map(|m| {
                        Value::object()
                            .set("display_name", m.candidate.display_name.as_str())
                            .set("affiliation", m.candidate.affiliation.clone())
                            .set("score", m.score)
                            .set(
                                "sources",
                                m.candidate
                                    .sources
                                    .iter()
                                    .map(|k| Value::from(k.to_string()))
                                    .collect::<Vec<_>>(),
                            )
                            .set("publications", m.candidate.publications.len())
                    })
                    .collect();
                results.push(Value::object().set("name", name).set("matches", matches));
            }
            Response::json(200, &Value::object().set("authors", results))
        }),
    );

    let s = state.clone();
    let (tel, route) = t("/recommend");
    router.post(
        route,
        instrumented(tel, route, move |req, _| {
            let body = match req.json_body() {
                Ok(b) => b,
                Err(e) => return Response::error(400, &e.to_string()),
            };
            let (manuscript, config) = match manuscript_from_json(&body, s.minaret.config()) {
                Ok(x) => x,
                Err(e) => return Response::error(422, &e),
            };
            // Cache lookup before any pipeline work: identical
            // (manuscript, config) questions are answered from the
            // stored bytes, so the hit path is byte-identical to the
            // miss that populated it.
            let cached = s
                .result_cache
                .as_ref()
                .map(|c| (c, ResultCache::fingerprint(&manuscript, &config)));
            if let Some((cache, key)) = &cached {
                if let Some(body) = cache.get(*key) {
                    return Response::json_bytes(200, body.as_ref().clone());
                }
            }
            let registry = match scoped_registry(&s.registry, req) {
                Ok(r) => r,
                Err(resp) => return resp,
            };
            // Per-request configuration: a fresh framework view over the same
            // shared registry/ontology (both Arc-shared, so this is cheap).
            let minaret = Minaret::new(registry, s.ontology.clone(), config)
                .with_telemetry(s.telemetry.clone());
            match minaret.recommend(&manuscript) {
                Ok(report) => {
                    let body = report_to_json(&report).to_string().into_bytes();
                    // Degraded answers are deliberately not cached: the
                    // next identical request should retry the full
                    // fan-out rather than pin a partial answer for a TTL.
                    if !report.degraded {
                        if let Some((cache, key)) = &cached {
                            cache.insert(*key, body.clone());
                        }
                    }
                    Response::json_bytes(200, body)
                }
                Err(MinaretError::InvalidManuscript(m)) => Response::error(422, &m),
                Err(MinaretError::NoCandidates) => Response::json(
                    200,
                    &report_empty(&manuscript.title, "no candidate reviewers found"),
                ),
                // Too few sources answered to trust a result: the
                // service is temporarily degraded below the floor.
                Err(e @ MinaretError::SourcesUnavailable { .. }) => {
                    Response::error(503, &e.to_string())
                }
                Err(e) => Response::error(500, &e.to_string()),
            }
        }),
    );

    let s = state.clone();
    let (tel, route) = t("/assign");
    router.post(
        route,
        instrumented(tel, route, move |req, _| {
            let body = match req.json_body() {
                Ok(b) => b,
                Err(e) => return Response::error(400, &e.to_string()),
            };
            let (manuscripts, spec, config) =
                match assign_request_from_json(&body, s.minaret.config()) {
                    Ok(x) => x,
                    Err(e) => return Response::error(422, &e),
                };
            let registry = match scoped_registry(&s.registry, req) {
                Ok(r) => r,
                Err(resp) => return resp,
            };
            let assigner = Assigner::new(
                Minaret::new(registry, s.ontology.clone(), config)
                    .with_telemetry(s.telemetry.clone()),
            )
            .with_telemetry(s.telemetry.clone());
            match assigner.assign(&manuscripts, &spec) {
                Ok(mut solved) => {
                    // Ground-truth coverage is a synthetic-world luxury;
                    // the server always has the world on hand.
                    solved.quality.coverage_at_k =
                        coverage_against_world(&s.world, &manuscripts, &solved);
                    Response::json(200, &assignment_to_json(&solved))
                }
                Err(AssignError::InvalidSpec(m)) => Response::error(422, &m),
                Err(AssignError::Pipeline(MinaretError::InvalidManuscript(m))) => {
                    Response::error(422, &m)
                }
                // A batch with no satisfying assignment is a conflict
                // between the spec and the pool, not a server fault.
                Err(e @ AssignError::Infeasible { .. }) => Response::error(409, &e.to_string()),
                Err(AssignError::Pipeline(MinaretError::NoCandidates)) => {
                    Response::error(409, "no candidate reviewers found for the batch")
                }
                Err(AssignError::Pipeline(e @ MinaretError::SourcesUnavailable { .. })) => {
                    Response::error(503, &e.to_string())
                }
                Err(e) => Response::error(500, &e.to_string()),
            }
        }),
    );

    let s = state.clone();
    let (tel, route) = t("/cache/invalidate");
    router.post(
        route,
        instrumented(tel, route, move |req, _| {
            // No body: drop everything (the world-changed hook). With a
            // manuscript body: drop only that (manuscript, config)
            // fingerprint — the editor edited one submission and wants
            // exactly its cached answer retired.
            if req.body.is_empty() {
                let dropped = s.invalidate_result_cache();
                return Response::json(
                    200,
                    &Value::object()
                        .set("invalidated", dropped as u64)
                        .set("scope", "all"),
                );
            }
            let body = match req.json_body() {
                Ok(b) => b,
                Err(e) => return Response::error(400, &e.to_string()),
            };
            let (manuscript, config) = match manuscript_from_json(&body, s.minaret.config()) {
                Ok(x) => x,
                Err(e) => return Response::error(422, &e),
            };
            let key = ResultCache::fingerprint(&manuscript, &config);
            let dropped = s
                .result_cache
                .as_ref()
                .is_some_and(|cache| cache.invalidate(key));
            Response::json(
                200,
                &Value::object()
                    .set("invalidated", dropped as u64)
                    .set("scope", "single"),
            )
        }),
    );

    let s = state.clone();
    let (tel, route) = t("/metrics");
    router.get(
        route,
        instrumented(tel, route, move |_, _| {
            Response::text(200, s.telemetry.encode_prometheus())
        }),
    );

    let s = state.clone();
    let (tel, route) = t("/traces/recent");
    router.get(
        route,
        instrumented(tel, route, move |_, _| {
            let traces: Vec<Value> = s
                .telemetry
                .recent_traces()
                .iter()
                .map(|trace| {
                    let spans: Vec<Value> = trace
                        .spans
                        .iter()
                        .map(|span| {
                            Value::object()
                                .set("name", span.name.as_str())
                                .set("depth", span.depth as u64)
                                .set("start_micros", span.start_micros)
                                .set("duration_micros", span.duration_micros)
                        })
                        .collect();
                    Value::object()
                        .set("name", trace.name.as_str())
                        .set("started_unix_ms", trace.started_unix_ms)
                        .set("total_micros", trace.total_micros)
                        .set("spans", spans)
                })
                .collect();
            Response::json(200, &Value::object().set("traces", traces))
        }),
    );

    router
}

fn report_empty(title: &str, note: &str) -> Value {
    Value::object()
        .set("title", title)
        .set("recommendations", Vec::<Value>::new())
        .set("note", note)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_http::{Method, Request};

    fn request(method: Method, path: &str, query: &[(&str, &str)], body: &str) -> Request {
        Request {
            method,
            path: path.into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
            minor_version: 1,
            deadline: None,
        }
    }

    fn router() -> (Arc<AppState>, Router) {
        let state = AppState::demo(150, 42);
        let router = build_router(state.clone());
        (state, router)
    }

    #[test]
    fn health_reports_world_stats() {
        let (_, router) = router();
        let resp = router.dispatch(&request(Method::Get, "/health", &[], ""));
        assert_eq!(resp.status, 200);
        let v = minaret_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(v.get("sources").and_then(Value::as_u64), Some(6));
    }

    #[test]
    fn expand_returns_scored_neighbours() {
        let (_, router) = router();
        let resp = router.dispatch(&request(Method::Get, "/expand", &[("keyword", "RDF")], ""));
        assert_eq!(resp.status, 200);
        let v = minaret_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let expanded = v.get("expanded").and_then(Value::as_array).unwrap();
        let labels: Vec<&str> = expanded
            .iter()
            .filter_map(|e| e.get("keyword").and_then(Value::as_str))
            .collect();
        assert!(labels.contains(&"Semantic Web"));
        // Unknown keyword -> 404, missing param -> 400.
        let resp = router.dispatch(&request(
            Method::Get,
            "/expand",
            &[("keyword", "flower arranging")],
            "",
        ));
        assert_eq!(resp.status, 404);
        let resp = router.dispatch(&request(Method::Get, "/expand", &[], ""));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn verify_authors_returns_matches() {
        let (state, router) = router();
        let scholar = &state.world.scholars()[0];
        let body = Value::object()
            .set(
                "authors",
                vec![Value::object().set("name", scholar.full_name().as_str())],
            )
            .set("keywords", Vec::<Value>::new())
            .to_string();
        let resp = router.dispatch(&request(Method::Post, "/verify-authors", &[], &body));
        assert_eq!(resp.status, 200);
        let v = minaret_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let authors = v.get("authors").and_then(Value::as_array).unwrap();
        assert_eq!(authors.len(), 1);
        assert!(
            !authors[0]
                .get("matches")
                .and_then(Value::as_array)
                .unwrap()
                .is_empty(),
            "expected at least one identity match"
        );
    }

    #[test]
    fn recommend_end_to_end() {
        let (state, router) = router();
        let lead = state
            .world
            .scholars()
            .iter()
            .find(|s| !state.world.papers_of(s.id).is_empty())
            .unwrap();
        let keywords: Vec<Value> = lead
            .interests
            .iter()
            .take(2)
            .map(|&t| Value::from(state.world.ontology.label(t)))
            .collect();
        let body = Value::object()
            .set("title", "An HTTP-submitted manuscript")
            .set("keywords", keywords)
            .set(
                "authors",
                vec![Value::object().set("name", lead.full_name().as_str())],
            )
            .set("target_venue", state.world.venues()[0].name.as_str())
            .set("config", Value::object().set("max_recommendations", 5u32))
            .to_string();
        let resp = router.dispatch(&request(Method::Post, "/recommend", &[], &body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = minaret_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let recs = v.get("recommendations").and_then(Value::as_array).unwrap();
        assert!(!recs.is_empty() && recs.len() <= 5);
        assert!(recs[0].get("score_details").is_some());
        assert!(v.get("timings_ms").is_some());
        assert_eq!(v.get("degraded").and_then(Value::as_bool), Some(false));
        assert!(v
            .get("degraded_sources")
            .and_then(Value::as_array)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (_, router) = router();
        router.dispatch(&request(Method::Get, "/health", &[], ""));
        let resp = router.dispatch(&request(Method::Get, "/metrics", &[], ""));
        assert_eq!(resp.status, 200);
        assert!(resp
            .headers
            .iter()
            .any(|(k, v)| k == "Content-Type" && v.starts_with("text/plain")));
        let text = String::from_utf8(resp.body).unwrap();
        assert!(
            text.contains("minaret_http_requests_total{route=\"/health\",status=\"200\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("minaret_http_request_micros_count{route=\"/health\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn traces_endpoint_reports_pipeline_spans() {
        let (state, router) = router();
        let lead = state
            .world
            .scholars()
            .iter()
            .find(|s| !state.world.papers_of(s.id).is_empty())
            .unwrap();
        let keywords: Vec<Value> = lead
            .interests
            .iter()
            .take(2)
            .map(|&t| Value::from(state.world.ontology.label(t)))
            .collect();
        let body = Value::object()
            .set("title", "Traced manuscript")
            .set("keywords", keywords)
            .set(
                "authors",
                vec![Value::object().set("name", lead.full_name().as_str())],
            )
            .set("target_venue", state.world.venues()[0].name.as_str())
            .to_string();
        let resp = router.dispatch(&request(Method::Post, "/recommend", &[], &body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));

        let resp = router.dispatch(&request(Method::Get, "/traces/recent", &[], ""));
        assert_eq!(resp.status, 200);
        let v = minaret_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let traces = v.get("traces").and_then(Value::as_array).unwrap();
        assert_eq!(traces.len(), 1);
        assert_eq!(
            traces[0].get("name").and_then(Value::as_str),
            Some("recommend")
        );
        let spans = traces[0].get("spans").and_then(Value::as_array).unwrap();
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(names, ["extraction", "filtering", "ranking"]);
    }

    #[test]
    fn recommend_repeats_are_served_from_cache_and_invalidatable() {
        let (state, router) = router();
        let lead = state
            .world
            .scholars()
            .iter()
            .find(|s| !state.world.papers_of(s.id).is_empty())
            .unwrap();
        let keywords: Vec<Value> = lead
            .interests
            .iter()
            .take(2)
            .map(|&t| Value::from(state.world.ontology.label(t)))
            .collect();
        let body = Value::object()
            .set("title", "A cached manuscript")
            .set("keywords", keywords)
            .set(
                "authors",
                vec![Value::object().set("name", lead.full_name().as_str())],
            )
            .set("target_venue", state.world.venues()[0].name.as_str())
            .to_string();
        let first = router.dispatch(&request(Method::Post, "/recommend", &[], &body));
        assert_eq!(
            first.status,
            200,
            "{}",
            String::from_utf8_lossy(&first.body)
        );
        let second = router.dispatch(&request(Method::Post, "/recommend", &[], &body));
        assert_eq!(second.status, 200);
        assert_eq!(first.body, second.body, "cache hit must be byte-identical");
        assert_eq!(
            state
                .telemetry
                .counter("minaret_result_cache_hits_total", &[])
                .get(),
            1
        );
        let resp = router.dispatch(&request(Method::Post, "/cache/invalidate", &[], ""));
        assert_eq!(resp.status, 200);
        let v = minaret_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("invalidated").and_then(Value::as_u64), Some(1));
        assert!(state.result_cache.as_ref().unwrap().is_empty());
    }

    #[test]
    fn scoped_invalidation_drops_only_the_fingerprinted_entry() {
        let (state, router) = router();
        let lead = state
            .world
            .scholars()
            .iter()
            .find(|s| !state.world.papers_of(s.id).is_empty())
            .unwrap();
        let keywords: Vec<Value> = lead
            .interests
            .iter()
            .take(2)
            .map(|&t| Value::from(state.world.ontology.label(t)))
            .collect();
        let make_body = |title: &str| {
            Value::object()
                .set("title", title)
                .set("keywords", keywords.clone())
                .set(
                    "authors",
                    vec![Value::object().set("name", lead.full_name().as_str())],
                )
                .set("target_venue", state.world.venues()[0].name.as_str())
                .to_string()
        };
        let body_a = make_body("Submission A");
        let body_b = make_body("Submission B");
        assert_eq!(
            router
                .dispatch(&request(Method::Post, "/recommend", &[], &body_a))
                .status,
            200
        );
        assert_eq!(
            router
                .dispatch(&request(Method::Post, "/recommend", &[], &body_b))
                .status,
            200
        );
        assert_eq!(state.result_cache.as_ref().unwrap().len(), 2);

        // Scoped invalidation of A: only A's entry goes.
        let resp = router.dispatch(&request(Method::Post, "/cache/invalidate", &[], &body_a));
        assert_eq!(resp.status, 200);
        let v = minaret_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("invalidated").and_then(Value::as_u64), Some(1));
        assert_eq!(v.get("scope").and_then(Value::as_str), Some("single"));
        assert_eq!(state.result_cache.as_ref().unwrap().len(), 1);

        // Invalidating it again is a counted miss, not an error.
        let resp = router.dispatch(&request(Method::Post, "/cache/invalidate", &[], &body_a));
        let v = minaret_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("invalidated").and_then(Value::as_u64), Some(0));
        let miss = state.telemetry.counter(
            "minaret_result_cache_invalidations_total",
            &[("scope", "single"), ("outcome", "miss")],
        );
        assert_eq!(miss.get(), 1);

        // Malformed scoped bodies are rejected, not treated as "all".
        let resp = router.dispatch(&request(
            Method::Post,
            "/cache/invalidate",
            &[],
            "{not json",
        ));
        assert_eq!(resp.status, 400);
        let resp = router.dispatch(&request(
            Method::Post,
            "/cache/invalidate",
            &[],
            r#"{"keywords":[]}"#,
        ));
        assert_eq!(resp.status, 422);
        assert_eq!(state.result_cache.as_ref().unwrap().len(), 1, "B survives");

        // Empty body still clears everything.
        let resp = router.dispatch(&request(Method::Post, "/cache/invalidate", &[], ""));
        let v = minaret_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        assert_eq!(v.get("scope").and_then(Value::as_str), Some("all"));
        assert_eq!(v.get("invalidated").and_then(Value::as_u64), Some(1));
        assert!(state.result_cache.as_ref().unwrap().is_empty());
    }

    fn assign_body(state: &AppState, papers: usize, k: u64, max_load: u64) -> String {
        let manuscripts: Vec<Value> = state
            .world
            .scholars()
            .iter()
            .filter(|s| !state.world.papers_of(s.id).is_empty())
            .take(papers)
            .map(|lead| {
                let keywords: Vec<Value> = lead
                    .interests
                    .iter()
                    .take(2)
                    .map(|&t| Value::from(state.world.ontology.label(t)))
                    .collect();
                Value::object()
                    .set("title", format!("Batch paper by {}", lead.full_name()))
                    .set("keywords", keywords)
                    .set(
                        "authors",
                        vec![Value::object().set("name", lead.full_name().as_str())],
                    )
                    .set("target_venue", state.world.venues()[0].name.as_str())
            })
            .collect();
        Value::object()
            .set("manuscripts", manuscripts)
            .set(
                "spec",
                Value::object()
                    .set("reviewers_per_paper", k)
                    .set("max_load", max_load),
            )
            .to_string()
    }

    #[test]
    fn assign_end_to_end() {
        let (state, router) = router();
        let body = assign_body(&state, 3, 2, 4);
        let resp = router.dispatch(&request(Method::Post, "/assign", &[], &body));
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let v = minaret_json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
        let papers = v.get("papers").and_then(Value::as_array).unwrap();
        assert_eq!(papers.len(), 3);
        for p in papers {
            let reviewers = p.get("reviewers").and_then(Value::as_array).unwrap();
            assert_eq!(reviewers.len(), 2, "exactly k reviewers per paper");
        }
        let loads = v.get("loads").and_then(Value::as_array).unwrap();
        assert!(!loads.is_empty());
        for l in loads {
            assert!(l.get("load").and_then(Value::as_u64).unwrap() <= 4);
        }
        let total = v.get("total_score").and_then(Value::as_f64).unwrap();
        let greedy = v.get("greedy_total").and_then(Value::as_f64).unwrap();
        assert!(
            total >= greedy - 1e-9,
            "flow below greedy: {total} < {greedy}"
        );
        let quality = v.get("quality").unwrap();
        assert!(
            quality
                .get("mean_relevance")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(quality
            .get("coverage_at_k")
            .and_then(Value::as_f64)
            .is_some());
        assert_eq!(
            state
                .telemetry
                .counter("minaret_assign_total", &[("result", "ok")])
                .get(),
            1
        );
    }

    #[test]
    fn assign_infeasible_spec_is_a_409() {
        let (state, router) = router();
        let body = assign_body(&state, 3, 400, 1);
        let resp = router.dispatch(&request(Method::Post, "/assign", &[], &body));
        assert_eq!(resp.status, 409, "{}", String::from_utf8_lossy(&resp.body));
        assert!(String::from_utf8_lossy(&resp.body).contains("infeasible"));
    }

    #[test]
    fn assign_rejects_bad_bodies() {
        let (state, router) = router();
        let resp = router.dispatch(&request(Method::Post, "/assign", &[], "{not json"));
        assert_eq!(resp.status, 400);
        let resp = router.dispatch(&request(Method::Post, "/assign", &[], r#"{"spec":{}}"#));
        assert_eq!(resp.status, 422, "missing manuscripts array");
        // A zero spec field is rejected before any fan-out.
        let mut body = assign_body(&state, 1, 2, 3);
        body = body.replace("\"reviewers_per_paper\":2", "\"reviewers_per_paper\":0");
        let resp = router.dispatch(&request(Method::Post, "/assign", &[], &body));
        assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));
        // Expertise bounds outside u32 are rejected on both routes, not
        // wrapped (2^32 would become 0 and drop every cited candidate).
        let config = r#""config":{"max_h_index":4294967296}"#;
        let body = assign_body(&state, 1, 2, 3);
        let body = format!("{},{config}}}", body.strip_suffix('}').unwrap());
        let resp = router.dispatch(&request(Method::Post, "/assign", &[], &body));
        assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));
        let body = format!(
            r#"{{"title":"T","keywords":["RDF"],"authors":[{{"name":"A B"}}],
                "target_venue":"J",{config}}}"#
        );
        let resp = router.dispatch(&request(Method::Post, "/recommend", &[], &body));
        assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));
    }

    #[test]
    fn assign_respects_exhausted_deadlines() {
        let (state, router) = router();
        let body = assign_body(&state, 2, 2, 3);
        let mut req = request(Method::Post, "/assign", &[], &body);
        req.deadline = Some(Instant::now());
        let resp = router.dispatch(&req);
        assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
        assert!(resp
            .headers
            .iter()
            .any(|(k, v)| k == "Retry-After" && v == "1"));
    }

    #[test]
    fn expired_deadline_is_shed_before_fan_out() {
        let (_, router) = router();
        let body =
            r#"{"title":"T","keywords":["RDF"],"authors":[{"name":"A B"}],"target_venue":"J"}"#;
        let mut req = request(Method::Post, "/recommend", &[], body);
        // A deadline of "now" is already exhausted by dispatch time.
        req.deadline = Some(Instant::now());
        let resp = router.dispatch(&req);
        assert_eq!(resp.status, 503, "{}", String::from_utf8_lossy(&resp.body));
        assert!(
            resp.headers
                .iter()
                .any(|(k, v)| k == "Retry-After" && v == "1"),
            "shed responses carry Retry-After"
        );
    }

    #[test]
    fn recommend_rejects_bad_bodies() {
        let (_, router) = router();
        let resp = router.dispatch(&request(Method::Post, "/recommend", &[], "{not json"));
        assert_eq!(resp.status, 400);
        let resp = router.dispatch(&request(
            Method::Post,
            "/recommend",
            &[],
            r#"{"keywords":[],"authors":[]}"#,
        ));
        assert_eq!(resp.status, 422);
        // Valid shape but empty title -> validation error.
        let resp = router.dispatch(&request(
            Method::Post,
            "/recommend",
            &[],
            r#"{"title":"","keywords":["RDF"],"authors":[{"name":"A B"}],"target_venue":"J"}"#,
        ));
        assert_eq!(resp.status, 422);
    }
}
