//! The three-phase recommendation pipeline (Figure 2 of the paper).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minaret_disambig::{AuthorQuery, IdentityResolver, ResolutionPolicy, VerifiedAuthor};
use minaret_ontology::{normalize_label, KeywordExpander, Ontology};
use minaret_scholarly::{
    merge_profiles, MergedCandidate, SourceKind, SourceProfile, SourceRegistry, SourceStatus,
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
///
/// The labels the candidate matched are listed for the ranked
/// candidates only, in [`Recommendation::matched_keywords`].
#[derive(Debug, Clone)]
pub struct CandidateProfile {
    /// The merged multi-source record.
    pub merged: MergedCandidate,
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
        if let Some(citations) = self.candidate.metrics().citations {
            push(
                weights.impact,
                self.breakdown.impact,
                format!("has {citations} citations"),
            );
        } else if let Some(h) = self.candidate.metrics().h_index {
            push(
                weights.impact,
                self.breakdown.impact,
                format!("has an h-index of {h}"),
            );
        }
        if let Some(year) = self.candidate.publications().map(|p| p.year).max() {
            push(
                weights.recency,
                self.breakdown.recency,
                format!("published on related topics as recently as {year}"),
            );
        }
        let reviews = self.candidate.review_count();
        if reviews > 0 {
            // §1 lists "the quality of the reviews" among the aspects the
            // editor considers; Publons-style ratings surface here.
            let rated: Vec<u8> = self.candidate.reviews().filter_map(|r| r.quality).collect();
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
                format!("completed {reviews} manuscript reviews{quality_note}"),
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
    /// Identity-verification results, one per author.
    pub verified_authors: Vec<VerifiedAuthor>,
    /// COI records for the manuscript's authors (identity-verified).
    pub author_records: Vec<AuthorRecord>,
    /// The manuscript's expanded keyword sets (drive coverage scoring).
    pub expansion_sets: Vec<KeywordExpansionSet>,
    /// Keyword expansions, for the report.
    pub expansions: Vec<ExpansionSummary>,
    /// Keywords that resolved to no ontology topic (searched literally).
    pub unknown_keywords: Vec<String>,
    /// Pool candidates matched by at least one of this manuscript's
    /// expanded labels, ascending by pool index. In a one-paper batch
    /// every pool entry is matched, so entry `i` is pool entry `i`.
    pub matches: Vec<PaperCandidate>,
}

/// A shared-pool candidate's match against one manuscript of a batch.
#[derive(Debug, Clone)]
pub struct PaperCandidate {
    /// Index into [`BatchExtraction::pool`].
    pub pool_index: usize,
    /// The candidate's best matched-label score for this manuscript —
    /// what the threshold filter and the slice cap read.
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
    /// Aggregated per-source errors survived during the fan-out.
    pub source_errors: Vec<String>,
    /// Names of the sources missing from a degraded fan-out, sorted.
    pub degraded_sources: Vec<String>,
    /// How many sources answered the fan-out.
    responded: usize,
}

impl BatchExtraction {
    /// Whether the extraction can be ranked: too few sources answering
    /// fails first, then an empty pool.
    fn usable(&self, min_sources: usize) -> Result<(), MinaretError> {
        if self.responded < min_sources {
            return Err(MinaretError::SourcesUnavailable {
                responded: self.responded,
                required: min_sources,
                degraded: self.degraded_sources.clone(),
            });
        }
        if self.pool.is_empty() {
            return Err(MinaretError::NoCandidates);
        }
        Ok(())
    }
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

        // ---- Phase 1: information extraction, as a one-paper batch ----
        let phase_span = trace.span("extraction");
        let t0 = Instant::now();
        let (batch, label_hits) = self.extract(std::slice::from_ref(manuscript));
        let usable = batch.usable(self.config.min_sources);
        let BatchExtraction {
            pool,
            papers,
            source_errors,
            degraded_sources,
            ..
        } = batch;
        let paper = papers
            .into_iter()
            .next()
            .expect("one manuscript, one paper");
        // Every pool entry matches the one paper, with the best score
        // any of its profiles has.
        let candidates: Vec<CandidateProfile> = pool
            .into_iter()
            .map(|merged| CandidateProfile {
                keyword_score: label_hits
                    .scores(&merged)
                    .fold(f64::NEG_INFINITY, |best, (_, score)| best.max(score)),
                merged,
            })
            .collect();
        let candidates_retrieved = candidates.len();
        let extraction = t0.elapsed();
        drop(phase_span);
        self.note_phase(
            "extraction",
            extraction,
            manuscript.keywords.len(),
            candidates_retrieved,
        );
        if let Err(e) = usable {
            let result = match e {
                MinaretError::NoCandidates => "no_candidates",
                _ => "sources_unavailable",
            };
            self.telemetry
                .counter("minaret_recommend_total", &[("result", result)])
                .inc();
            return Err(e);
        }
        let degraded = !degraded_sources.is_empty();
        let PaperExtraction {
            verified_authors,
            author_records,
            expansion_sets,
            expansions,
            unknown_keywords,
            ..
        } = paper;

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
        // The sort orders indices, so no candidate record moves until the
        // chosen few leave their slots.
        let mut order: Vec<usize> = (0..kept.len()).collect();
        order.sort_by(|&a, &b| {
            scores[b]
                .1
                .partial_cmp(&scores[a].1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| {
                    kept[a]
                        .merged
                        .display_name()
                        .cmp(kept[b].merged.display_name())
                })
        });
        order.truncate(self.config.max_recommendations);
        let mut slots: Vec<Option<CandidateProfile>> = kept.into_iter().map(Some).collect();
        let recommendations: Vec<Recommendation> = order
            .into_iter()
            .map(|i| {
                let cand = slots[i].take().expect("each index is chosen once");
                let (breakdown, total) = scores[i];
                (cand, breakdown, total)
            })
            .enumerate()
            .map(|(i, (cand, breakdown, total))| Recommendation {
                rank: i + 1,
                name: cand.merged.display_name().to_string(),
                affiliation: cand.merged.affiliation().map(str::to_string),
                sources: cand.merged.sources().collect(),
                matched_keywords: label_hits.matched_keywords(&cand.merged, 0),
                breakdown,
                total,
                candidate: cand.merged,
            })
            .collect();
        // Free the candidates not chosen inside the phase, so that the
        // ranking time includes releasing them.
        drop(slots);
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
    /// [`recommend`](Self::recommend) runs the same extraction on a
    /// one-paper batch, and errors mirror it: an invalid manuscript (or
    /// empty batch) fails fast, too few responding sources is
    /// [`MinaretError::SourcesUnavailable`], and an empty pool is
    /// [`MinaretError::NoCandidates`].
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
        let (mut batch, label_hits) = self.extract(manuscripts);
        batch.usable(self.config.min_sources)?;
        // A candidate's scores arrive per profile, so a paper's best is
        // kept in its last match; walking the pool in order keeps each
        // paper's matches ascending by pool index.
        for (pool_index, candidate) in batch.pool.iter().enumerate() {
            for (paper, score) in label_hits.scores(candidate) {
                let matches = &mut batch.papers[paper].matches;
                match matches.last_mut() {
                    Some(m) if m.pool_index == pool_index => {
                        m.keyword_score = m.keyword_score.max(score);
                    }
                    _ => matches.push(PaperCandidate {
                        pool_index,
                        keyword_score: score,
                    }),
                }
            }
        }
        Ok(batch)
    }

    /// Phase 1 for validated manuscripts, behind both routes. Each
    /// paper's authors are verified and its keywords expanded, in batch
    /// order; then the sorted union of the papers' labels goes out as
    /// **one** batched fan-out, so every interest-capable source answers
    /// all labels in a single policy-governed call, and the profiles
    /// found merge into one pool. A candidate matches a paper when one of
    /// its profiles was found under one of the paper's labels, with the
    /// best such label's score: the returned hits give each candidate's
    /// scores and list a ranked candidate's matched labels. The papers'
    /// match lists are left to the caller.
    fn extract(&self, manuscripts: &[ManuscriptDetails]) -> (BatchExtraction, LabelHits) {
        let papers: Vec<PaperExtraction> = manuscripts
            .iter()
            .map(|m| {
                let verified_authors = self.verify_authors(m);
                let author_records = m
                    .authors
                    .iter()
                    .zip(&verified_authors)
                    .map(|(input, verified)| {
                        AuthorRecord::from_parts(
                            &input.name,
                            input.affiliation.as_deref(),
                            input.country.as_deref(),
                            verified.chosen.as_ref().map(|c| &c.candidate),
                        )
                    })
                    .collect();
                let (expansion_sets, expansions, unknown_keywords) =
                    self.expand_keywords(&m.keywords);
                PaperExtraction {
                    verified_authors,
                    author_records,
                    expansion_sets,
                    expansions,
                    unknown_keywords,
                    matches: Vec::new(),
                }
            })
            .collect();

        // Every paper's labels as (label, paper, score), sorted. The same
        // label can expand with different similarity from different typed
        // keywords, so each paper keeps its own best.
        let sets = papers
            .iter()
            .enumerate()
            .flat_map(|(paper, p)| p.expansion_sets.iter().map(move |set| (paper, set)));
        let mut entries: Vec<(&str, usize, f64)> =
            Vec::with_capacity(sets.clone().map(|(_, set)| set.scores.len()).sum());
        for (paper, set) in sets {
            entries.extend(
                set.scores
                    .iter()
                    .map(|(label, &score)| (label.as_str(), paper, score)),
            );
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0).then(a.1.cmp(&b.1)));
        entries.dedup_by(|later, first| {
            let same = later.0 == first.0 && later.1 == first.1;
            if same {
                first.2 = first.2.max(later.2);
            }
            same
        });
        let mut labels: Vec<String> = Vec::with_capacity(entries.len());
        let mut scores: Vec<(usize, f64)> = Vec::with_capacity(entries.len());
        let mut starts: Vec<usize> = Vec::with_capacity(entries.len() + 1);
        starts.push(0);
        for run in entries.chunk_by(|a, b| a.0 == b.0) {
            labels.push(run[0].0.to_string());
            scores.extend(run.iter().map(|&(_, paper, score)| (paper, score)));
            starts.push(scores.len());
        }

        let mut responded = BTreeSet::new();
        let mut degraded = BTreeSet::new();
        let mut source_errors = Vec::new();
        let mut by_label = Vec::new();
        if !labels.is_empty() {
            let report = self.registry.search_by_interests_report(&labels);
            for outcome in &report.outcomes {
                match &outcome.status {
                    SourceStatus::Ok => {
                        responded.insert(outcome.source);
                    }
                    SourceStatus::Failed(e) => {
                        degraded.insert(outcome.source);
                        // One aggregated entry per failed source — a dead
                        // source fails the whole batch once, not once per
                        // label.
                        source_errors.push(format!("{e} ({} labels affected)", labels.len()));
                    }
                    // Skipped sources neither responded nor degrade the
                    // run — they were never expected to answer.
                    SourceStatus::Skipped => {}
                }
            }
            by_label = report.by_label;
        }
        // Every hit as (profile identity, label index). Labels are
        // sorted, so an index orders like its text.
        let mut hits: Vec<(usize, usize)> = (0..)
            .zip(&by_label)
            .flat_map(|(label, (_, profiles))| profiles.iter().map(move |p| (identity(p), label)))
            .collect();
        hits.sort_unstable();
        // Each profile found under several labels merges once.
        let mut profiles: Vec<Arc<SourceProfile>> = by_label
            .into_iter()
            .flat_map(|(_, profiles)| profiles)
            .collect();
        profiles.sort_unstable_by_key(identity);
        profiles.dedup_by(|a, b| Arc::ptr_eq(a, b));
        let label_hits = LabelHits::new(labels, scores, starts, hits);
        let pool = merge_profiles(profiles);
        let batch = BatchExtraction {
            pool,
            papers,
            source_errors,
            degraded_sources: degraded.iter().map(|k| k.to_string()).collect(),
            responded: responded.len(),
        };
        (batch, label_hits)
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
}

/// The identity of a profile: its allocation. A source hands out one
/// `Arc` per profile, so two hits on one profile share it.
fn identity(profile: &Arc<SourceProfile>) -> usize {
    Arc::as_ptr(profile) as usize
}

/// A retrieval's searched labels and hits: what scores a candidate for
/// each paper, and what lists a ranked candidate's matched labels.
struct LabelHits {
    /// The searched labels, sorted: the union of every paper's.
    labels: Vec<String>,
    /// Each label's papers as (paper, best score), ascending by paper;
    /// label `l`'s are `scores[starts[l]..starts[l + 1]]`.
    scores: Vec<(usize, f64)>,
    starts: Vec<usize>,
    /// Every hit as (profile identity, label index), sorted.
    hits: Vec<(usize, usize)>,
    /// Each profile's best score for each paper it matched, as (profile
    /// identity, paper, score), sorted.
    best: Vec<(usize, usize, f64)>,
}

impl LabelHits {
    /// Folds each profile's run of the sorted hits into its best score
    /// per paper. `extract` builds this before the merge, while the hits
    /// are still in cache.
    fn new(
        labels: Vec<String>,
        scores: Vec<(usize, f64)>,
        starts: Vec<usize>,
        hits: Vec<(usize, usize)>,
    ) -> Self {
        let mut best = Vec::with_capacity(hits.len());
        let mut run_scores: Vec<(usize, f64)> = Vec::new();
        for run in hits.chunk_by(|a, b| a.0 == b.0) {
            run_scores.clear();
            for &(_, label) in run {
                run_scores.extend_from_slice(&scores[starts[label]..starts[label + 1]]);
            }
            run_scores.sort_unstable_by_key(|&(paper, _)| paper);
            run_scores.dedup_by(|later, first| {
                let same = later.0 == first.0;
                if same {
                    first.1 = first.1.max(later.1);
                }
                same
            });
            let id = run[0].0;
            best.extend(run_scores.iter().map(|&(paper, score)| (id, paper, score)));
        }
        Self {
            labels,
            scores,
            starts,
            hits,
            best,
        }
    }

    /// The labels `profile` was found under, ascending.
    fn labels_of(&self, profile: &Arc<SourceProfile>) -> impl Iterator<Item = usize> + '_ {
        let id = identity(profile);
        let first = self.hits.partition_point(|&(other, _)| other < id);
        self.hits[first..]
            .iter()
            .take_while(move |&&(other, _)| other == id)
            .map(|&(_, label)| label)
    }

    /// The papers that expanded `label`, each with its best score.
    fn papers_of(&self, label: usize) -> &[(usize, f64)] {
        &self.scores[self.starts[label]..self.starts[label + 1]]
    }

    /// `candidate`'s scores as (paper, score): each of its profiles'
    /// best score for each paper that profile matched.
    fn scores<'a>(
        &'a self,
        candidate: &'a MergedCandidate,
    ) -> impl Iterator<Item = (usize, f64)> + 'a {
        candidate.profiles().iter().flat_map(move |profile| {
            let id = identity(profile);
            let first = self.best.partition_point(|&(other, _, _)| other < id);
            self.best[first..]
                .iter()
                .take_while(move |&&(other, _, _)| other == id)
                .map(|&(_, paper, score)| (paper, score))
        })
    }

    /// The labels of `paper` that `candidate`'s profiles were found
    /// under, each once with the paper's score, best first, then by
    /// label text.
    fn matched_keywords(&self, candidate: &MergedCandidate, paper: usize) -> Vec<(String, f64)> {
        let mut matched: Vec<(usize, f64)> = Vec::new();
        for profile in candidate.profiles() {
            for label in self.labels_of(profile) {
                let papers = self.papers_of(label);
                if let Some(&(_, score)) = papers.iter().find(|&&(other, _)| other == paper) {
                    matched.push((label, score));
                }
            }
        }
        matched.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        matched.dedup_by_key(|&mut (label, _)| label);
        matched
            .into_iter()
            .map(|(label, score)| (self.labels[label].clone(), score))
            .collect()
    }
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
            for truth in r.candidate.truths() {
                assert!(
                    !world.ever_coauthored(author.id, truth),
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
