//! The three-phase recommendation pipeline (Figure 2 of the paper).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use minaret_disambig::{AuthorQuery, IdentityResolver, ResolutionPolicy, VerifiedAuthor};
use minaret_ontology::{normalize_label, KeywordExpander, Ontology};
use minaret_scholarly::{
    merge_profiles, MergedCandidate, SourceKind, SourceRegistry, SourceStatus,
};
use minaret_telemetry::Telemetry;

use crate::coi::AuthorRecord;
use crate::config::EditorConfig;
use crate::error::MinaretError;
use crate::filter::{filter_decisions, FilterDecision, FilterReason};
use crate::manuscript::ManuscriptDetails;
use crate::rank::{score_candidates, KeywordExpansionSet, ScoreBreakdown};

/// Wall-clock cost of each workflow phase — experiment F2 prints these as
/// the per-phase breakdown of Figure 2's workflow.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Phase 1: identity verification + track-record extraction +
    /// expansion + candidate retrieval.
    pub extraction: Duration,
    /// Phase 2: COI + threshold + expertise (+ PC) filtering.
    pub filtering: Duration,
    /// Phase 3: scoring and sorting.
    pub ranking: Duration,
}

impl PhaseTimings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.extraction + self.filtering + self.ranking
    }
}

/// A candidate reviewer after retrieval, before filtering.
#[derive(Debug, Clone)]
pub struct CandidateProfile {
    /// The merged multi-source record.
    pub merged: MergedCandidate,
    /// Expanded keywords this candidate matched, with their similarity
    /// scores (best score per label).
    pub matched_keywords: Vec<(String, f64)>,
    /// The candidate's best keyword-matching score — what §2.2's
    /// threshold filter reads.
    pub keyword_score: f64,
}

/// One ranked recommendation (a row of Figure 5).
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// 1-based rank.
    pub rank: usize,
    /// Candidate display name.
    pub name: String,
    /// Current affiliation, when known.
    pub affiliation: Option<String>,
    /// Sources that contributed to the record.
    pub sources: Vec<SourceKind>,
    /// Expanded keywords the candidate matched.
    pub matched_keywords: Vec<(String, f64)>,
    /// The per-component score drill-down.
    pub breakdown: ScoreBreakdown,
    /// The fused total score in `[0, 1]`.
    pub total: f64,
    /// The full merged record (for follow-up inspection).
    pub candidate: MergedCandidate,
}

impl Recommendation {
    /// A human-readable justification of this recommendation — the prose
    /// version of Figure 5's score drill-down, suitable for an invitation
    /// email draft or the demo UI's detail pane.
    pub fn explain(&self, weights: &crate::config::RankingWeights) -> String {
        let mut parts: Vec<String> = Vec::new();
        let mut push = |weight: f64, score: f64, text: String| {
            if weight > 0.0 && score > 0.0 {
                parts.push(text);
            }
        };
        if let Some((kw, sc)) = self.matched_keywords.first() {
            push(
                weights.coverage,
                self.breakdown.coverage,
                format!(
                    "covers {:.0}% of the manuscript's topics (best match: {kw}, similarity {sc:.2})",
                    self.breakdown.coverage * 100.0
                ),
            );
        }
        if let Some(citations) = self.candidate.metrics.citations {
            push(
                weights.impact,
                self.breakdown.impact,
                format!("has {citations} citations"),
            );
        } else if let Some(h) = self.candidate.metrics.h_index {
            push(
                weights.impact,
                self.breakdown.impact,
                format!("has an h-index of {h}"),
            );
        }
        if let Some(year) = self.candidate.publications.iter().map(|p| p.year).max() {
            push(
                weights.recency,
                self.breakdown.recency,
                format!("published on related topics as recently as {year}"),
            );
        }
        if !self.candidate.reviews.is_empty() {
            // §1 lists "the quality of the reviews" among the aspects the
            // editor considers; Publons-style ratings surface here.
            let rated: Vec<u8> = self
                .candidate
                .reviews
                .iter()
                .filter_map(|r| r.quality)
                .collect();
            let quality_note = if rated.is_empty() {
                String::new()
            } else {
                format!(
                    " (mean review quality {:.1}/5)",
                    rated.iter().map(|&q| q as f64).sum::<f64>() / rated.len() as f64
                )
            };
            push(
                weights.experience,
                self.breakdown.experience,
                format!(
                    "completed {} manuscript reviews{quality_note}",
                    self.candidate.reviews.len()
                ),
            );
        }
        push(
            weights.familiarity,
            self.breakdown.familiarity,
            "has prior history with the target outlet".to_string(),
        );
        push(
            weights.responsiveness,
            self.breakdown.responsiveness,
            "returns reviews promptly".to_string(),
        );
        let evidence = if parts.is_empty() {
            "matched the manuscript's expanded keywords".to_string()
        } else {
            parts.join("; ")
        };
        format!(
            "#{} {} (total score {:.3}, via {}): {}.",
            self.rank,
            self.name,
            self.total,
            self.sources
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            evidence
        )
    }
}

/// Summary of one keyword's semantic expansion, for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionSummary {
    /// The keyword as typed.
    pub original: String,
    /// Expanded labels with scores, best first (excludes the original).
    pub expanded: Vec<(String, f64)>,
}

/// Everything a recommendation run produced — enough to drive the demo
/// scenario end to end (Figures 3–5).
#[derive(Debug)]
pub struct RecommendationReport {
    /// The manuscript the run was for.
    pub manuscript: ManuscriptDetails,
    /// Identity-verification results, one per author.
    pub verified_authors: Vec<VerifiedAuthor>,
    /// Keyword expansions.
    pub expansions: Vec<ExpansionSummary>,
    /// Keywords that resolved to no ontology topic (searched literally).
    pub unknown_keywords: Vec<String>,
    /// Number of merged candidates retrieved before filtering.
    pub candidates_retrieved: usize,
    /// Candidates removed by the filtering phase, with reasons.
    pub filtered_out: Vec<(CandidateProfile, FilterReason)>,
    /// The final ranked list.
    pub recommendations: Vec<Recommendation>,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// Source errors survived during extraction (failed sources are
    /// skipped, not fatal).
    pub source_errors: Vec<String>,
    /// True when candidate retrieval ran with partial source coverage:
    /// at least one source that should have answered failed (outage,
    /// deadline, open breaker). The ranked list is still valid but was
    /// built from fewer views than configured.
    pub degraded: bool,
    /// Names of the sources missing from a degraded run, sorted.
    pub degraded_sources: Vec<String>,
}

impl RecommendationReport {
    /// Renders the ranked list as a plain-text table, the way the demo's
    /// final screen (Figure 5) presents it.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<4} {:<28} {:<30} {:>6} {:>6} {:>6} {:>6} {:>6} {:>7}\n",
            "#", "Reviewer", "Affiliation", "cover", "impact", "recent", "exper", "famil", "TOTAL"
        ));
        for r in &self.recommendations {
            out.push_str(&format!(
                "{:<4} {:<28} {:<30} {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>7.4}\n",
                r.rank,
                truncate(&r.name, 28),
                truncate(r.affiliation.as_deref().unwrap_or("-"), 30),
                r.breakdown.coverage,
                r.breakdown.impact,
                r.breakdown.recency,
                r.breakdown.experience,
                r.breakdown.familiarity,
                r.total,
            ));
        }
        out
    }
}

/// One manuscript's slice of a [`Minaret::extract_batch`] run: the
/// phase-1 artifacts needed to filter and score that paper against the
/// shared candidate pool.
#[derive(Debug)]
pub struct PaperExtraction {
    /// COI records for the manuscript's authors (identity-verified).
    pub author_records: Vec<AuthorRecord>,
    /// The manuscript's expanded keyword sets (drive coverage scoring).
    pub expansion_sets: Vec<KeywordExpansionSet>,
    /// Keywords that resolved to no ontology topic (searched literally).
    pub unknown_keywords: Vec<String>,
    /// Pool candidates matched by at least one of this manuscript's
    /// expanded labels, ascending by pool index.
    pub matches: Vec<PaperCandidate>,
}

/// A shared-pool candidate's match against one manuscript of a batch.
#[derive(Debug, Clone)]
pub struct PaperCandidate {
    /// Index into [`BatchExtraction::pool`].
    pub pool_index: usize,
    /// This manuscript's expanded labels the candidate matched, with
    /// similarity scores (best score per label, best first).
    pub matched_keywords: Vec<(String, f64)>,
    /// The candidate's best matched-label score for this manuscript —
    /// what the threshold filter reads.
    pub keyword_score: f64,
}

/// The result of batched extraction over a whole submission batch: one
/// merged candidate pool retrieved by a **single** interest fan-out
/// over the union of every manuscript's expanded labels, plus
/// per-manuscript match slices into that pool.
#[derive(Debug)]
pub struct BatchExtraction {
    /// The shared candidate pool, merged and deterministically ordered.
    pub pool: Vec<MergedCandidate>,
    /// Per-manuscript slices, index-aligned with the input batch.
    pub papers: Vec<PaperExtraction>,
    /// Number of distinct normalized labels in the union fan-out.
    pub union_labels: usize,
    /// Aggregated per-source errors survived during the fan-out.
    pub source_errors: Vec<String>,
    /// Names of the sources missing from a degraded fan-out, sorted.
    pub degraded_sources: Vec<String>,
}

fn truncate(s: &str, n: usize) -> String {
    if s.chars().count() <= n {
        s.to_string()
    } else {
        let cut: String = s.chars().take(n.saturating_sub(1)).collect();
        format!("{cut}…")
    }
}

/// The MINARET framework: sources + ontology + editor configuration.
pub struct Minaret {
    registry: Arc<SourceRegistry>,
    ontology: Arc<Ontology>,
    config: EditorConfig,
    resolution: ResolutionPolicy,
    telemetry: Telemetry,
    parallelism: usize,
}

impl Minaret {
    /// Creates a framework instance with the given sources, ontology and
    /// editor configuration. Author ambiguity defaults to automatic
    /// top-candidate resolution; see
    /// [`with_resolution_policy`](Self::with_resolution_policy).
    pub fn new(
        registry: Arc<SourceRegistry>,
        ontology: Arc<Ontology>,
        config: EditorConfig,
    ) -> Self {
        Self {
            registry,
            ontology,
            config,
            resolution: ResolutionPolicy::AutoTop1,
            telemetry: Telemetry::disabled(),
            parallelism: 0,
        }
    }

    /// Caps the worker threads the filter and rank phases may use per
    /// `recommend` call (`0`, the default, means all available cores;
    /// `1` forces the sequential path). Parallel output is byte-identical
    /// to sequential — this knob only trades latency against CPU.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Overrides how ambiguous author identities are resolved (the
    /// Figure 4 decision point).
    pub fn with_resolution_policy(mut self, policy: ResolutionPolicy) -> Self {
        self.resolution = policy;
        self
    }

    /// Reports per-phase spans, durations, and candidate-flow gauges to
    /// `telemetry`; each [`recommend`](Self::recommend) call also lands
    /// one trace in the recent-traces ring.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The active editor configuration.
    pub fn config(&self) -> &EditorConfig {
        &self.config
    }

    /// Replaces the editor configuration (weights, thresholds, COI level
    /// are all re-configurable between runs, per the paper).
    pub fn set_config(&mut self, config: EditorConfig) {
        self.config = config;
    }

    /// Records one phase's duration histogram and candidate in/out
    /// gauges.
    fn note_phase(&self, phase: &str, took: std::time::Duration, cand_in: usize, cand_out: usize) {
        self.telemetry
            .histogram("minaret_phase_micros", &[("phase", phase)])
            .observe_duration(took);
        self.telemetry
            .gauge(
                "minaret_phase_candidates",
                &[("phase", phase), ("direction", "in")],
            )
            .set(cand_in as i64);
        self.telemetry
            .gauge(
                "minaret_phase_candidates",
                &[("phase", phase), ("direction", "out")],
            )
            .set(cand_out as i64);
    }

    /// Runs the full three-phase workflow for one manuscript.
    pub fn recommend(
        &self,
        manuscript: &ManuscriptDetails,
    ) -> Result<RecommendationReport, MinaretError> {
        let trace = self.telemetry.trace("recommend");
        if let Err(e) = manuscript.validate() {
            self.telemetry
                .counter("minaret_recommend_total", &[("result", "invalid")])
                .inc();
            return Err(e);
        }
        let mut source_errors = Vec::new();

        // ---- Phase 1: information extraction --------------------------
        let phase_span = trace.span("extraction");
        let t0 = Instant::now();
        let verified_authors = self.verify_authors(manuscript);
        let author_records: Vec<AuthorRecord> = manuscript
            .authors
            .iter()
            .zip(&verified_authors)
            .map(|(input, verified)| {
                AuthorRecord::from_parts(
                    &input.name,
                    input.affiliation.as_deref(),
                    input.country.as_deref(),
                    verified.chosen.as_ref().map(|m| &m.candidate),
                )
            })
            .collect();

        let (expansion_sets, expansions, unknown_keywords) =
            self.expand_keywords(&manuscript.keywords);

        let (candidates, coverage) = self.retrieve_candidates(&expansion_sets, &mut source_errors);
        let candidates_retrieved = candidates.len();
        let extraction = t0.elapsed();
        drop(phase_span);
        self.note_phase(
            "extraction",
            extraction,
            manuscript.keywords.len(),
            candidates_retrieved,
        );
        let degraded_sources: Vec<String> =
            coverage.degraded.iter().map(|k| k.to_string()).collect();
        let degraded = !degraded_sources.is_empty();
        if coverage.responded.len() < self.config.min_sources {
            self.telemetry
                .counter(
                    "minaret_recommend_total",
                    &[("result", "sources_unavailable")],
                )
                .inc();
            return Err(MinaretError::SourcesUnavailable {
                responded: coverage.responded.len(),
                required: self.config.min_sources,
                degraded: degraded_sources,
            });
        }
        if candidates_retrieved == 0 {
            self.telemetry
                .counter("minaret_recommend_total", &[("result", "no_candidates")])
                .inc();
            return Err(MinaretError::NoCandidates);
        }

        // ---- Phase 2: filtering ---------------------------------------
        let phase_span = trace.span("filtering");
        let t1 = Instant::now();
        // Decisions are computed as a parallel order-preserving map; the
        // partition below runs sequentially on the combined output, so
        // kept/filtered orders match the single-threaded path exactly.
        let decisions =
            filter_decisions(&candidates, &author_records, &self.config, self.parallelism);
        let mut kept = Vec::new();
        let mut filtered_out = Vec::new();
        for (cand, decision) in candidates.into_iter().zip(decisions) {
            match decision {
                FilterDecision::Kept => kept.push(cand),
                FilterDecision::Removed(reason) => filtered_out.push((cand, reason)),
            }
        }
        let filtering = t1.elapsed();
        drop(phase_span);
        self.note_phase("filtering", filtering, candidates_retrieved, kept.len());

        // ---- Phase 3: ranking -----------------------------------------
        let phase_span = trace.span("ranking");
        let ranking_in = kept.len();
        let t2 = Instant::now();
        // Scoring parallelizes the same way; sort + truncate stay
        // sequential so ties break identically to the sequential path.
        let scores = score_candidates(
            &kept,
            &expansion_sets,
            &manuscript.target_venue,
            &self.config,
            self.parallelism,
        );
        let mut scored: Vec<(CandidateProfile, ScoreBreakdown, f64)> = kept
            .into_iter()
            .zip(scores)
            .map(|(cand, (breakdown, total))| (cand, breakdown, total))
            .collect();
        scored.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.merged.display_name.cmp(&b.0.merged.display_name))
        });
        scored.truncate(self.config.max_recommendations);
        let recommendations: Vec<Recommendation> = scored
            .into_iter()
            .enumerate()
            .map(|(i, (cand, breakdown, total))| Recommendation {
                rank: i + 1,
                name: cand.merged.display_name.clone(),
                affiliation: cand.merged.affiliation.clone(),
                sources: cand.merged.sources.clone(),
                matched_keywords: cand.matched_keywords,
                breakdown,
                total,
                candidate: cand.merged,
            })
            .collect();
        let ranking = t2.elapsed();
        drop(phase_span);
        self.note_phase("ranking", ranking, ranking_in, recommendations.len());
        self.telemetry
            .counter("minaret_recommend_total", &[("result", "ok")])
            .inc();
        if degraded {
            self.telemetry
                .counter("minaret_recommend_degraded_total", &[])
                .inc();
        }

        Ok(RecommendationReport {
            manuscript: manuscript.clone(),
            verified_authors,
            expansions,
            unknown_keywords,
            candidates_retrieved,
            filtered_out,
            recommendations,
            timings: PhaseTimings {
                extraction,
                filtering,
                ranking,
            },
            source_errors,
            degraded,
            degraded_sources,
        })
    }

    /// Runs the pipeline for several manuscripts concurrently, using up
    /// to `parallelism` worker threads (an editor clearing a submission
    /// queue). Results are returned in input order. The sources are
    /// already `Sync`, so the workers share the registry directly.
    pub fn recommend_batch(
        &self,
        manuscripts: &[ManuscriptDetails],
        parallelism: usize,
    ) -> Vec<Result<RecommendationReport, MinaretError>> {
        let parallelism = parallelism.max(1);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<RecommendationReport, MinaretError>>> =
            (0..manuscripts.len()).map(|_| None).collect();
        let slot_cells: Vec<std::sync::Mutex<&mut Option<_>>> =
            slots.iter_mut().map(std::sync::Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..parallelism.min(manuscripts.len().max(1)) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= manuscripts.len() {
                        break;
                    }
                    let result = self.recommend(&manuscripts[i]);
                    **slot_cells[i].lock().expect("slot lock never poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled by a worker"))
            .collect()
    }

    /// The worker-thread cap configured via
    /// [`with_parallelism`](Self::with_parallelism) (`0` = all cores).
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Runs phase 1 (identity verification, keyword expansion, candidate
    /// retrieval) for a whole submission batch with **one** batched
    /// interest fan-out over the union of every manuscript's expanded
    /// labels — the entire batch costs roughly one policy-governed call
    /// per interest-capable source. Returns the shared merged candidate
    /// pool plus per-manuscript match slices into it; filtering and
    /// scoring remain per-paper concerns for the caller (the batch
    /// assignment solver scores each paper against its slice).
    ///
    /// Errors mirror [`recommend`](Self::recommend): an invalid
    /// manuscript (or empty batch) fails fast, too few responding
    /// sources is [`MinaretError::SourcesUnavailable`], and an empty
    /// pool is [`MinaretError::NoCandidates`].
    pub fn extract_batch(
        &self,
        manuscripts: &[ManuscriptDetails],
    ) -> Result<BatchExtraction, MinaretError> {
        if manuscripts.is_empty() {
            return Err(MinaretError::InvalidManuscript(
                "the submission batch is empty".into(),
            ));
        }
        for m in manuscripts {
            m.validate()?;
        }

        // Per-paper preparation: author verification + keyword expansion.
        // Each paper keeps its own label → best-score map, because the
        // same label can expand with different similarity from different
        // typed keywords.
        struct Prep {
            author_records: Vec<AuthorRecord>,
            expansion_sets: Vec<KeywordExpansionSet>,
            unknown_keywords: Vec<String>,
            labels: HashMap<String, f64>,
        }
        let mut preps: Vec<Prep> = Vec::with_capacity(manuscripts.len());
        for m in manuscripts {
            let verified = self.verify_authors(m);
            let author_records: Vec<AuthorRecord> = m
                .authors
                .iter()
                .zip(&verified)
                .map(|(input, verified)| {
                    AuthorRecord::from_parts(
                        &input.name,
                        input.affiliation.as_deref(),
                        input.country.as_deref(),
                        verified.chosen.as_ref().map(|c| &c.candidate),
                    )
                })
                .collect();
            let (expansion_sets, _summaries, unknown_keywords) = self.expand_keywords(&m.keywords);
            let mut labels: HashMap<String, f64> = HashMap::new();
            for set in &expansion_sets {
                for (label, &score) in &set.scores {
                    labels
                        .entry(label.clone())
                        .and_modify(|s| *s = s.max(score))
                        .or_insert(score);
                }
            }
            preps.push(Prep {
                author_records,
                expansion_sets,
                unknown_keywords,
                labels,
            });
        }

        // The union label set, sorted for a deterministic single fan-out.
        let union: std::collections::BTreeSet<&str> = preps
            .iter()
            .flat_map(|p| p.labels.keys().map(String::as_str))
            .collect();
        let sorted_labels: Vec<String> = union.into_iter().map(str::to_string).collect();

        let mut source_errors = Vec::new();
        let mut coverage = SourceCoverage::default();
        // label → hits from the one fan-out; each paper re-reads only the
        // labels it expanded.
        let mut by_label: HashMap<String, Vec<Arc<minaret_scholarly::SourceProfile>>> =
            HashMap::new();
        if !sorted_labels.is_empty() {
            let report = self.registry.search_by_interests_report(&sorted_labels);
            for outcome in &report.outcomes {
                match &outcome.status {
                    SourceStatus::Ok => {
                        coverage.responded.insert(outcome.source);
                    }
                    SourceStatus::Failed(e) => {
                        coverage.degraded.insert(outcome.source);
                        source_errors
                            .push(format!("{e} ({} labels affected)", sorted_labels.len()));
                    }
                    SourceStatus::Skipped => {}
                }
            }
            for (label, (_, hits)) in sorted_labels.iter().zip(report.by_label) {
                by_label.insert(label.clone(), hits);
            }
        }
        let degraded_sources: Vec<String> =
            coverage.degraded.iter().map(|k| k.to_string()).collect();
        if coverage.responded.len() < self.config.min_sources {
            return Err(MinaretError::SourcesUnavailable {
                responded: coverage.responded.len(),
                required: self.config.min_sources,
                degraded: degraded_sources,
            });
        }

        // One global pool: every profile any label returned, deduped and
        // merged exactly the way the single-manuscript path does it.
        let mut profiles: Vec<Arc<minaret_scholarly::SourceProfile>> = Vec::new();
        for label in &sorted_labels {
            if let Some(hits) = by_label.get(label) {
                profiles.extend(hits.iter().cloned());
            }
        }
        profiles.sort_by(|a, b| (a.source, &a.key).cmp(&(b.source, &b.key)));
        profiles.dedup_by(|a, b| a.source == b.source && a.key == b.key);
        if profiles.is_empty() {
            return Err(MinaretError::NoCandidates);
        }
        let pool = merge_profiles(profiles);
        // Profile keys are globally unique, so each key lands in exactly
        // one pool entry.
        let mut key_to_pool: HashMap<&str, usize> = HashMap::new();
        for (i, cand) in pool.iter().enumerate() {
            for key in &cand.keys {
                key_to_pool.insert(key.as_str(), i);
            }
        }

        // Per-paper slices: walk the paper's own labels over the shared
        // hits, scoring with the paper's own expansion scores.
        let papers: Vec<PaperExtraction> = preps
            .into_iter()
            .map(|prep| {
                let mut per_pool: HashMap<usize, HashMap<&str, f64>> = HashMap::new();
                for (label, &score) in &prep.labels {
                    let Some(hits) = by_label.get(label.as_str()) else {
                        continue;
                    };
                    for p in hits {
                        let idx = key_to_pool[p.key.as_str()];
                        per_pool
                            .entry(idx)
                            .or_default()
                            .entry(label.as_str())
                            .and_modify(|s| *s = s.max(score))
                            .or_insert(score);
                    }
                }
                let mut matches: Vec<PaperCandidate> = per_pool
                    .into_iter()
                    .map(|(pool_index, label_scores)| {
                        let mut matched_keywords: Vec<(String, f64)> = label_scores
                            .into_iter()
                            .map(|(l, s)| (l.to_string(), s))
                            .collect();
                        matched_keywords.sort_by(|a, b| {
                            b.1.partial_cmp(&a.1)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then_with(|| a.0.cmp(&b.0))
                        });
                        let keyword_score =
                            matched_keywords.first().map(|(_, s)| *s).unwrap_or(0.0);
                        PaperCandidate {
                            pool_index,
                            matched_keywords,
                            keyword_score,
                        }
                    })
                    .collect();
                matches.sort_by_key(|c| c.pool_index);
                PaperExtraction {
                    author_records: prep.author_records,
                    expansion_sets: prep.expansion_sets,
                    unknown_keywords: prep.unknown_keywords,
                    matches,
                }
            })
            .collect();

        Ok(BatchExtraction {
            pool,
            papers,
            union_labels: sorted_labels.len(),
            source_errors,
            degraded_sources,
        })
    }

    /// Phase-1 step: verify each author's identity and pull their track
    /// record (the chosen candidate carries publications, co-authors and
    /// affiliation history used by the COI check).
    fn verify_authors(&self, manuscript: &ManuscriptDetails) -> Vec<VerifiedAuthor> {
        let resolver = IdentityResolver::new(&self.registry).with_telemetry(self.telemetry.clone());
        manuscript
            .authors
            .iter()
            .map(|a| {
                resolver.resolve(
                    AuthorQuery {
                        name: a.name.clone(),
                        affiliation: a.affiliation.clone(),
                        country: a.country.clone(),
                        context_keywords: manuscript.keywords.clone(),
                    },
                    &self.resolution,
                )
            })
            .collect()
    }

    /// Phase-1 step: semantic keyword expansion. Keywords unknown to the
    /// ontology are kept literally (score 1.0) so they still drive a
    /// search, and reported in the third return value.
    fn expand_keywords(
        &self,
        keywords: &[String],
    ) -> (Vec<KeywordExpansionSet>, Vec<ExpansionSummary>, Vec<String>) {
        let expander = KeywordExpander::new(&self.ontology, self.config.expansion);
        let mut sets = Vec::new();
        let mut summaries = Vec::new();
        let mut unknown = Vec::new();
        for kw in keywords {
            if kw.trim().is_empty() {
                continue;
            }
            match expander.expand(kw) {
                Ok(exps) => {
                    let mut scores = HashMap::new();
                    let mut expanded = Vec::new();
                    for e in &exps {
                        let norm = normalize_label(&e.label);
                        scores
                            .entry(norm)
                            .and_modify(|s: &mut f64| *s = s.max(e.score))
                            .or_insert(e.score);
                        if e.hops > 0 {
                            expanded.push((e.label.clone(), e.score));
                        }
                    }
                    // The typed keyword always matches itself.
                    scores.insert(normalize_label(kw), 1.0);
                    sets.push(KeywordExpansionSet {
                        original: kw.clone(),
                        scores,
                    });
                    summaries.push(ExpansionSummary {
                        original: kw.clone(),
                        expanded,
                    });
                }
                Err(_) => {
                    let mut scores = HashMap::new();
                    scores.insert(normalize_label(kw), 1.0);
                    sets.push(KeywordExpansionSet {
                        original: kw.clone(),
                        scores,
                    });
                    summaries.push(ExpansionSummary {
                        original: kw.clone(),
                        expanded: Vec::new(),
                    });
                    unknown.push(kw.clone());
                }
            }
        }
        (sets, summaries, unknown)
    }

    /// Phase-1 step: retrieve candidate reviewers by issuing the whole
    /// expanded label set as **one batched fan-out** — every
    /// interest-capable source answers all labels in a single
    /// policy-governed call — then merging per-source profiles into
    /// candidates. The second return value is the per-source health
    /// ledger of that fan-out, which drives the degraded-mode decision.
    fn retrieve_candidates(
        &self,
        expansion_sets: &[KeywordExpansionSet],
        source_errors: &mut Vec<String>,
    ) -> (Vec<CandidateProfile>, SourceCoverage) {
        // Collect the distinct labels to search, with their best score.
        let mut labels: HashMap<String, f64> = HashMap::new();
        for set in expansion_sets {
            for (label, &score) in &set.scores {
                labels
                    .entry(label.clone())
                    .and_modify(|s| *s = s.max(score))
                    .or_insert(score);
            }
        }
        let mut sorted_labels: Vec<(String, f64)> = labels.into_iter().collect();
        sorted_labels.sort_by(|a, b| a.0.cmp(&b.0));

        let mut profiles = Vec::new();
        // profile key -> matched labels. Keys are globally unique (each
        // embeds its source's prefix), and keying by the key alone keeps
        // every merged profile's matches even when a name collision
        // conflates two same-source profiles into one candidate.
        let mut matched: HashMap<String, Vec<(&str, f64)>> = HashMap::new();
        let mut coverage = SourceCoverage::default();
        if !sorted_labels.is_empty() {
            let label_names: Vec<String> = sorted_labels
                .iter()
                .map(|(label, _)| label.clone())
                .collect();
            let report = self.registry.search_by_interests_report(&label_names);
            for outcome in &report.outcomes {
                match &outcome.status {
                    SourceStatus::Ok => {
                        coverage.responded.insert(outcome.source);
                    }
                    SourceStatus::Failed(e) => {
                        coverage.degraded.insert(outcome.source);
                        // One aggregated entry per failed source — a dead
                        // source fails the whole batch once, not once per
                        // label.
                        source_errors.push(format!("{e} ({} labels affected)", label_names.len()));
                    }
                    // Skipped sources neither responded nor degrade the
                    // run — they were never expected to answer.
                    SourceStatus::Skipped => {}
                }
            }
            // Per-label hits come back in input order, and within one
            // label in source-registration order — the same profile
            // stream the per-label fan-out loop used to produce.
            for ((label, score), (_, hits)) in sorted_labels.iter().zip(report.by_label) {
                for p in hits {
                    matched
                        .entry(p.key.clone())
                        .or_default()
                        .push((label.as_str(), *score));
                    profiles.push(p);
                }
            }
        }
        // Dedupe profiles found under several labels.
        profiles.sort_by(|a, b| (a.source, &a.key).cmp(&(b.source, &b.key)));
        profiles.dedup_by(|a, b| a.source == b.source && a.key == b.key);

        let merged = merge_profiles(profiles);
        let candidates = merged
            .into_iter()
            .map(|m| {
                let mut label_scores: HashMap<&str, f64> = HashMap::new();
                for key in &m.keys {
                    if let Some(ls) = matched.get(key) {
                        for &(l, s) in ls {
                            label_scores
                                .entry(l)
                                .and_modify(|cur| *cur = cur.max(s))
                                .or_insert(s);
                        }
                    }
                }
                let mut matched_keywords: Vec<(&str, f64)> = label_scores.into_iter().collect();
                matched_keywords.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.0.cmp(b.0))
                });
                let keyword_score = matched_keywords.first().map(|(_, s)| *s).unwrap_or(0.0);
                let matched_keywords = matched_keywords
                    .into_iter()
                    .map(|(l, s)| (l.to_string(), s))
                    .collect();
                CandidateProfile {
                    merged: m,
                    matched_keywords,
                    keyword_score,
                }
            })
            .collect();
        (candidates, coverage)
    }
}

/// Which sources answered (vs. failed) the run's batched retrieval
/// fan-out. With batching a source answers or fails the whole label set
/// in one call, so each source lands in exactly one bucket (or neither,
/// when it was skipped as interest-incapable).
#[derive(Debug, Default)]
struct SourceCoverage {
    responded: std::collections::BTreeSet<SourceKind>,
    degraded: std::collections::BTreeSet<SourceKind>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manuscript::AuthorInput;
    use minaret_scholarly::{FaultSchedule, RegistryConfig, SimulatedSource, SourceSpec};
    use minaret_synth::{World, WorldConfig, WorldGenerator};

    fn setup() -> (Arc<World>, Minaret) {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 300,
                ..Default::default()
            })
            .generate(),
        );
        let mut reg = SourceRegistry::new(RegistryConfig::default());
        for spec in SourceSpec::all_defaults() {
            reg.register(Arc::new(SimulatedSource::new(spec, world.clone())));
        }
        let minaret = Minaret::new(
            Arc::new(reg),
            Arc::new(minaret_ontology::seed::curated_cs_ontology()),
            EditorConfig::default(),
        );
        (world, minaret)
    }

    fn manuscript_from_world(world: &World) -> ManuscriptDetails {
        // Use a real scholar's interests as keywords so candidates exist.
        let lead = world
            .scholars()
            .iter()
            .find(|s| !world.papers_of(s.id).is_empty())
            .unwrap();
        let inst = world.institution(lead.current_affiliation());
        ManuscriptDetails {
            title: "A synthetic manuscript".into(),
            keywords: lead
                .interests
                .iter()
                .take(3)
                .map(|&t| world.ontology.label(t).to_string())
                .collect(),
            authors: vec![AuthorInput::named(lead.full_name())
                .with_affiliation(inst.name.clone())
                .with_country(inst.country.clone())],
            target_venue: world.venues()[0].name.clone(),
        }
    }

    #[test]
    fn end_to_end_recommendation_produces_ranked_list() {
        let (world, minaret) = setup();
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).expect("pipeline succeeds");
        assert!(!report.recommendations.is_empty());
        assert!(report.candidates_retrieved >= report.recommendations.len());
        // Ranked descending, ranks contiguous from 1.
        for (i, r) in report.recommendations.iter().enumerate() {
            assert_eq!(r.rank, i + 1);
            assert!((0.0..=1.0).contains(&r.total));
        }
        for w in report.recommendations.windows(2) {
            assert!(w[0].total >= w[1].total);
        }
    }

    #[test]
    fn authors_never_appear_in_recommendations() {
        let (world, minaret) = setup();
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).unwrap();
        let author_names: Vec<String> =
            m.authors.iter().map(|a| normalize_label(&a.name)).collect();
        for r in &report.recommendations {
            assert!(
                !author_names.contains(&normalize_label(&r.name)),
                "author {} leaked into recommendations",
                r.name
            );
        }
    }

    #[test]
    fn coi_filtering_removes_coauthors_of_the_author() {
        let (world, minaret) = setup();
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).unwrap();
        // Ground truth: no recommended candidate ever co-authored with
        // the (single) author. We check via the truth labels.
        let author = world
            .scholars()
            .iter()
            .find(|s| s.full_name() == m.authors[0].name)
            .unwrap();
        for r in &report.recommendations {
            for truth in &r.candidate.truths {
                assert!(
                    !world.ever_coauthored(author.id, *truth),
                    "recommended {} co-authored with the author",
                    r.name
                );
            }
        }
    }

    #[test]
    fn invalid_manuscript_is_rejected() {
        let (_, minaret) = setup();
        let m = ManuscriptDetails {
            title: "".into(),
            keywords: vec!["RDF".into()],
            authors: vec![AuthorInput::named("A B")],
            target_venue: "J".into(),
        };
        assert!(matches!(
            minaret.recommend(&m),
            Err(MinaretError::InvalidManuscript(_))
        ));
    }

    #[test]
    fn unknown_keywords_reported_and_nocandidates_error() {
        let (_, minaret) = setup();
        let m = ManuscriptDetails {
            title: "T".into(),
            keywords: vec!["transcendental numerology".into()],
            authors: vec![AuthorInput::named("A B")],
            target_venue: "J".into(),
        };
        match minaret.recommend(&m) {
            Err(MinaretError::NoCandidates) => {}
            other => panic!("expected NoCandidates, got {other:?}"),
        }
    }

    /// Builds a Minaret over all six default sources, with `dead` sources
    /// scripted as permanently down.
    fn minaret_with_outages(world: &Arc<World>, dead: &[SourceKind]) -> Minaret {
        let mut reg = SourceRegistry::new(RegistryConfig {
            max_retries: 1,
            ..Default::default()
        });
        for spec in SourceSpec::all_defaults() {
            let kind = spec.kind;
            let mut source = SimulatedSource::new(spec, world.clone());
            if dead.contains(&kind) {
                source = source.with_fault(FaultSchedule::PermanentOutage);
            }
            reg.register(Arc::new(source));
        }
        Minaret::new(
            Arc::new(reg),
            Arc::new(minaret_ontology::seed::curated_cs_ontology()),
            EditorConfig::default(),
        )
    }

    #[test]
    fn dead_source_degrades_but_still_recommends() {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 300,
                ..Default::default()
            })
            .generate(),
        );
        let minaret = minaret_with_outages(&world, &[SourceKind::Publons]);
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).expect("degraded run still succeeds");
        assert!(!report.recommendations.is_empty());
        assert!(report.degraded, "a dead source must flag the report");
        assert_eq!(report.degraded_sources, vec!["Publons".to_string()]);
        assert!(!report.source_errors.is_empty());
        // The surviving sources never include the dead one.
        for r in &report.recommendations {
            assert!(!r.sources.contains(&SourceKind::Publons));
        }
    }

    #[test]
    fn dead_source_reports_one_aggregated_error_not_one_per_label() {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 300,
                ..Default::default()
            })
            .generate(),
        );
        let minaret = minaret_with_outages(&world, &[SourceKind::Publons]);
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).unwrap();
        // The expanded label set is much larger than one, yet the dead
        // source contributes exactly one aggregated error entry carrying
        // the affected-label count.
        assert_eq!(
            report.source_errors.len(),
            1,
            "one entry per failed source: {:?}",
            report.source_errors
        );
        assert!(
            report.source_errors[0].contains("labels affected"),
            "{:?}",
            report.source_errors
        );
    }

    #[test]
    fn forced_sequential_parallelism_matches_default() {
        let (world, minaret) = setup();
        let m = manuscript_from_world(&world);
        let parallel = minaret.recommend(&m).unwrap();
        let (world2, _) = setup();
        drop(world2);
        let sequential_minaret = {
            let mut reg = SourceRegistry::new(RegistryConfig::default());
            for spec in SourceSpec::all_defaults() {
                reg.register(Arc::new(SimulatedSource::new(spec, world.clone())));
            }
            Minaret::new(
                Arc::new(reg),
                Arc::new(minaret_ontology::seed::curated_cs_ontology()),
                EditorConfig::default(),
            )
            .with_parallelism(1)
        };
        let sequential = sequential_minaret.recommend(&m).unwrap();
        assert_eq!(
            parallel.recommendations.len(),
            sequential.recommendations.len()
        );
        for (p, s) in parallel
            .recommendations
            .iter()
            .zip(&sequential.recommendations)
        {
            assert_eq!(p.name, s.name);
            assert_eq!(
                p.total.to_bits(),
                s.total.to_bits(),
                "scores must be bitwise equal"
            );
        }
    }

    #[test]
    fn too_few_sources_fails_with_sources_unavailable() {
        let world = Arc::new(
            WorldGenerator::new(WorldConfig {
                scholars: 300,
                ..Default::default()
            })
            .generate(),
        );
        // Both interest-capable sources down: 0 responders < min_sources.
        let minaret =
            minaret_with_outages(&world, &[SourceKind::GoogleScholar, SourceKind::Publons]);
        let m = manuscript_from_world(&world);
        match minaret.recommend(&m) {
            Err(MinaretError::SourcesUnavailable {
                responded,
                required,
                degraded,
            }) => {
                assert_eq!(responded, 0);
                assert_eq!(required, 1);
                assert!(
                    degraded.contains(&"Google Scholar".to_string()),
                    "{degraded:?}"
                );
                assert!(degraded.contains(&"Publons".to_string()), "{degraded:?}");
            }
            other => panic!("expected SourcesUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn healthy_run_is_not_degraded() {
        let (world, minaret) = setup();
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).unwrap();
        assert!(!report.degraded);
        assert!(report.degraded_sources.is_empty());
    }

    #[test]
    fn expansion_summaries_cover_all_keywords() {
        let (world, minaret) = setup();
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).unwrap();
        assert_eq!(report.expansions.len(), m.keywords.len());
        for (summary, kw) in report.expansions.iter().zip(&m.keywords) {
            assert_eq!(&summary.original, kw);
        }
        assert!(report.unknown_keywords.is_empty());
    }

    #[test]
    fn max_recommendations_is_respected() {
        let (world, _) = setup();
        let mut reg = SourceRegistry::new(RegistryConfig::default());
        for spec in SourceSpec::all_defaults() {
            reg.register(Arc::new(SimulatedSource::new(spec, world.clone())));
        }
        let minaret = Minaret::new(
            Arc::new(reg),
            Arc::new(minaret_ontology::seed::curated_cs_ontology()),
            EditorConfig {
                max_recommendations: 3,
                ..Default::default()
            },
        );
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).unwrap();
        assert!(report.recommendations.len() <= 3);
    }

    #[test]
    fn phase_timings_are_recorded() {
        let (world, minaret) = setup();
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).unwrap();
        assert!(report.timings.extraction > Duration::ZERO);
        assert_eq!(
            report.timings.total(),
            report.timings.extraction + report.timings.filtering + report.timings.ranking
        );
    }

    #[test]
    fn telemetry_records_phase_metrics_and_a_trace() {
        let (world, minaret) = setup();
        let telemetry = minaret_telemetry::Telemetry::new();
        let minaret = minaret.with_telemetry(telemetry.clone());
        let m = manuscript_from_world(&world);
        minaret.recommend(&m).unwrap();

        let text = telemetry.encode_prometheus();
        for phase in ["extraction", "filtering", "ranking"] {
            assert!(
                text.contains(&format!(
                    "minaret_phase_micros_count{{phase=\"{phase}\"}} 1"
                )),
                "missing phase histogram for {phase}:\n{text}"
            );
            for direction in ["in", "out"] {
                assert!(
                    text.contains(&format!(
                        "minaret_phase_candidates{{direction=\"{direction}\",phase=\"{phase}\"}}"
                    )),
                    "missing {phase}/{direction} gauge:\n{text}"
                );
            }
        }
        assert!(
            text.contains("minaret_recommend_total{result=\"ok\"} 1"),
            "{text}"
        );

        let traces = telemetry.recent_traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].name, "recommend");
        let span_names: Vec<&str> = traces[0].spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(span_names, ["extraction", "filtering", "ranking"]);
        assert!(traces[0].spans.iter().all(|s| s.depth == 0));
    }

    #[test]
    fn telemetry_counts_rejected_manuscripts() {
        let (_, minaret) = setup();
        let telemetry = minaret_telemetry::Telemetry::new();
        let minaret = minaret.with_telemetry(telemetry.clone());
        let m = ManuscriptDetails {
            title: "".into(),
            keywords: vec!["RDF".into()],
            authors: vec![AuthorInput::named("A B")],
            target_venue: "J".into(),
        };
        assert!(minaret.recommend(&m).is_err());
        let text = telemetry.encode_prometheus();
        assert!(
            text.contains("minaret_recommend_total{result=\"invalid\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn render_table_lists_every_recommendation() {
        let (world, minaret) = setup();
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).unwrap();
        let table = report.render_table();
        assert!(table.contains("TOTAL"));
        assert_eq!(
            table.lines().count(),
            report.recommendations.len() + 1 // header
        );
    }

    #[test]
    fn explanations_name_the_candidate_and_evidence() {
        let (world, minaret) = setup();
        let m = manuscript_from_world(&world);
        let report = minaret.recommend(&m).unwrap();
        let top = &report.recommendations[0];
        let text = top.explain(&minaret.config().weights);
        assert!(text.contains(&top.name));
        assert!(text.starts_with("#1 "));
        assert!(text.contains("total score"));
        // Evidence sentences only mention weighted, non-zero components.
        if top.breakdown.coverage > 0.0 {
            assert!(text.contains("covers"));
        }
    }

    #[test]
    fn batch_recommendation_matches_sequential_and_keeps_order() {
        let (world, minaret) = setup();
        let mut manuscripts = Vec::new();
        for s in world
            .scholars()
            .iter()
            .filter(|s| !world.papers_of(s.id).is_empty())
            .take(4)
        {
            let inst = world.institution(s.current_affiliation());
            manuscripts.push(ManuscriptDetails {
                title: format!("Batch manuscript by {}", s.full_name()),
                keywords: s
                    .interests
                    .iter()
                    .take(2)
                    .map(|&t| world.ontology.label(t).to_string())
                    .collect(),
                authors: vec![AuthorInput::named(s.full_name())
                    .with_affiliation(inst.name.clone())],
                target_venue: world.venues()[0].name.clone(),
            });
        }
        let batch = minaret.recommend_batch(&manuscripts, 3);
        assert_eq!(batch.len(), manuscripts.len());
        for (m, result) in manuscripts.iter().zip(&batch) {
            let sequential = minaret.recommend(m);
            match (result, sequential) {
                (Ok(b), Ok(s)) => {
                    let names = |r: &RecommendationReport| {
                        r.recommendations
                            .iter()
                            .map(|x| x.name.clone())
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(names(b), names(&s), "batch diverged for {}", m.title);
                }
                (Err(a), Err(b)) => assert_eq!(format!("{a}"), format!("{b}")),
                (a, b) => panic!("batch {a:?} vs sequential {b:?}"),
            }
        }
    }

    #[test]
    fn batch_with_zero_parallelism_still_works() {
        let (world, minaret) = setup();
        let m = manuscript_from_world(&world);
        let results = minaret.recommend_batch(std::slice::from_ref(&m), 0);
        assert_eq!(results.len(), 1);
        assert!(results[0].is_ok());
        assert!(minaret.recommend_batch(&[], 4).is_empty());
    }

    #[test]
    fn conference_mode_restricts_to_pc() {
        let (world, _) = setup();
        let mut reg = SourceRegistry::new(RegistryConfig::default());
        for spec in SourceSpec::all_defaults() {
            reg.register(Arc::new(SimulatedSource::new(spec, world.clone())));
        }
        // First run journal mode to learn who the top candidates are.
        let journal = Minaret::new(
            Arc::new(SourceRegistry::new(RegistryConfig::default())),
            Arc::new(minaret_ontology::seed::curated_cs_ontology()),
            EditorConfig::default(),
        );
        drop(journal);
        let m = manuscript_from_world(&world);
        let base = Minaret::new(
            Arc::new({
                let mut r = SourceRegistry::new(RegistryConfig::default());
                for spec in SourceSpec::all_defaults() {
                    r.register(Arc::new(SimulatedSource::new(spec, world.clone())));
                }
                r
            }),
            Arc::new(minaret_ontology::seed::curated_cs_ontology()),
            EditorConfig::default(),
        );
        let open = base.recommend(&m).unwrap();
        assert!(open.recommendations.len() >= 2);
        let pc: Vec<String> = open
            .recommendations
            .iter()
            .take(2)
            .map(|r| r.name.clone())
            .collect();
        let conf = Minaret::new(
            Arc::new(reg),
            Arc::new(minaret_ontology::seed::curated_cs_ontology()),
            EditorConfig {
                pc_members: Some(pc.clone()),
                ..Default::default()
            },
        );
        let restricted = conf.recommend(&m).unwrap();
        assert!(!restricted.recommendations.is_empty());
        for r in &restricted.recommendations {
            assert!(
                pc.iter()
                    .any(|p| normalize_label(p) == normalize_label(&r.name)),
                "{} is not on the PC",
                r.name
            );
        }
        assert!(restricted
            .filtered_out
            .iter()
            .any(|(_, reason)| matches!(reason, FilterReason::NotOnProgrammeCommittee)));
    }
}
