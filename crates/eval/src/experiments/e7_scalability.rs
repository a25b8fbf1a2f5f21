//! E7 — end-to-end latency vs. world size and keyword count.

use std::time::Duration;

use crate::harness::{EvalContext, ScenarioConfig};
use crate::table::TextTable;

/// One point of the scalability sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// World size (scholars).
    pub scholars: usize,
    /// Mean end-to-end pipeline latency.
    pub mean_latency: Duration,
    /// Mean candidates retrieved before filtering.
    pub mean_candidates: f64,
    /// Mean recommendations returned.
    pub mean_recommendations: f64,
}

/// Result of experiment E7.
#[derive(Debug)]
pub struct E7Result {
    /// The world-size sweep.
    pub points: Vec<ScalePoint>,
    /// `(keyword count, mean latency)` sweep at the largest world size.
    pub keyword_sweep: Vec<(usize, Duration)>,
    /// Rendered report.
    pub report: String,
}

/// Runs the scalability sweeps.
pub fn run_e7(sizes: &[usize], runs_per_size: usize) -> E7Result {
    let mut points = Vec::new();
    let mut table = TextTable::new(&["scholars", "mean latency", "candidates", "recommended"]);
    let mut last_ctx: Option<EvalContext> = None;
    for &scholars in sizes {
        let ctx = EvalContext::build(ScenarioConfig::sized(scholars));
        let subs = ctx.submissions(runs_per_size, 0xE7);
        let mut total = Duration::ZERO;
        let mut candidates = 0usize;
        let mut recs = 0usize;
        let mut completed = 0usize;
        for sub in &subs {
            let m = ctx.manuscript_for(sub);
            let t = std::time::Instant::now();
            if let Ok(report) = ctx.minaret.recommend(&m) {
                total += t.elapsed();
                candidates += report.candidates_retrieved;
                recs += report.recommendations.len();
                completed += 1;
            }
        }
        let n = completed.max(1);
        let point = ScalePoint {
            scholars,
            mean_latency: total / n as u32,
            mean_candidates: candidates as f64 / n as f64,
            mean_recommendations: recs as f64 / n as f64,
        };
        table.row(&[
            scholars.to_string(),
            format!("{:.1} ms", point.mean_latency.as_secs_f64() * 1e3),
            format!("{:.1}", point.mean_candidates),
            format!("{:.1}", point.mean_recommendations),
        ]);
        points.push(point);
        last_ctx = Some(ctx);
    }

    // Keyword-count sweep on the largest world.
    let mut keyword_sweep = Vec::new();
    let mut kw_table = TextTable::new(&["keywords", "mean latency"]);
    if let Some(ctx) = &last_ctx {
        let sub = ctx.submissions(1, 0xE7).pop().expect("submission");
        let base = ctx.manuscript_for(&sub);
        // Grow the keyword list by drawing more of the lead author's
        // world-level interests plus curated extras.
        let extras = [
            "Machine Learning",
            "Databases",
            "Cloud Computing",
            "Cryptography",
            "Information Retrieval",
            "Computer Vision",
            "Compilers",
        ];
        for n_kw in [1usize, 2, 4, 6, 8] {
            let mut m = base.clone();
            m.keywords = base.keywords.clone();
            let mut i = 0;
            while m.keywords.len() < n_kw && i < extras.len() {
                if !m.keywords.iter().any(|k| k == extras[i]) {
                    m.keywords.push(extras[i].to_string());
                }
                i += 1;
            }
            m.keywords.truncate(n_kw);
            let t = std::time::Instant::now();
            let _ = ctx.minaret.recommend(&m);
            let d = t.elapsed();
            kw_table.row(&[n_kw.to_string(), format!("{:.1} ms", d.as_secs_f64() * 1e3)]);
            keyword_sweep.push((n_kw, d));
        }
    }

    let report = format!(
        "E7  scalability: end-to-end latency vs. world size ({runs_per_size} manuscripts per size)\n{}\n\
         latency vs. keyword count (largest world)\n{}",
        table.render(),
        kw_table.render()
    );
    E7Result {
        points,
        keyword_sweep,
        report,
    }
}

/// One row of the batched-vs-per-label extraction sweep (E7 addendum):
/// the same label set retrieved as N per-label fan-outs vs. one batched
/// fan-out, against latency-injected sources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelSweepPoint {
    /// Number of labels in the set.
    pub labels: usize,
    /// Mean retrieval time with one fan-out per label (the pre-batching
    /// pipeline's behaviour).
    pub per_label: Duration,
    /// Mean retrieval time with the whole set in one batched fan-out.
    pub batched: Duration,
    /// `per_label / batched`.
    pub speedup: f64,
}

/// One row of the filter/rank parallelism sweep (E7 addendum): per-phase
/// mean timings at a fixed pipeline parallelism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParallelismPoint {
    /// The pipeline's filter/rank worker cap.
    pub parallelism: usize,
    /// Mean Phase-1 (extraction) time.
    pub extraction: Duration,
    /// Mean Phase-2 (filtering) time.
    pub filtering: Duration,
    /// Mean Phase-3 (ranking) time.
    pub ranking: Duration,
}

/// Result of the E7 addendum (batched retrieval + parallel phases).
#[derive(Debug)]
pub struct E7AddendumResult {
    /// Batched-vs-per-label retrieval at 5/20/80 labels.
    pub label_sweep: Vec<LabelSweepPoint>,
    /// Phase timings at 1/2/4/8 filter/rank workers.
    pub parallelism_sweep: Vec<ParallelismPoint>,
    /// Rendered report.
    pub report: String,
}

/// Label-set sizes the addendum sweeps.
pub const E7_LABEL_SIZES: [usize; 3] = [5, 20, 80];

/// Worker counts the addendum sweeps.
pub const E7_PARALLELISM: [usize; 4] = [1, 2, 4, 8];

/// Runs the E7 addendum: (a) batched vs. per-label retrieval cost over
/// growing label sets against latency-injected sources — the win the
/// batched `search_by_interests` fan-out exists for — and (b) per-phase
/// pipeline timings as the filter/rank worker cap grows.
pub fn run_e7_addendum(scholars: usize, runs: usize) -> E7AddendumResult {
    let runs = runs.max(1);

    // (a) Batched vs. per-label retrieval. Inject scraping-scale latency
    // so the cost model matches the paper's on-the-fly design: each
    // policed source call pays a round trip, and the per-label path (one
    // single-label fan-out per label) pays `labels` round trips where the
    // batched path pays one.
    let mut scenario = ScenarioConfig::sized(scholars);
    scenario.source_latency_micros = 200;
    let ctx = EvalContext::build(scenario);
    let mut labels: Vec<String> = ctx
        .ontology
        .topics()
        .map(|t| t.label.clone())
        .take(*E7_LABEL_SIZES.last().expect("non-empty"))
        .collect();
    let mut filler = 0usize;
    while labels.len() < *E7_LABEL_SIZES.last().expect("non-empty") {
        // Unknown labels still pay the fan-out; cost is what's measured.
        labels.push(format!("synthetic topic {filler}"));
        filler += 1;
    }
    let mut label_sweep = Vec::new();
    let mut sweep_table = TextTable::new(&["labels", "per-label", "batched", "speedup"]);
    for &n in &E7_LABEL_SIZES {
        let set = &labels[..n];
        let mut per_label_total = Duration::ZERO;
        let mut batched_total = Duration::ZERO;
        for _ in 0..runs {
            let t = std::time::Instant::now();
            for label in set {
                let _ = ctx
                    .registry
                    .search_by_interests_report(std::slice::from_ref(label));
            }
            per_label_total += t.elapsed();
            let t = std::time::Instant::now();
            let _ = ctx.registry.search_by_interests_report(set);
            batched_total += t.elapsed();
        }
        let per_label = per_label_total / runs as u32;
        let batched = batched_total / runs as u32;
        let speedup = per_label.as_secs_f64() / batched.as_secs_f64().max(1e-9);
        sweep_table.row(&[
            n.to_string(),
            format!("{:.2} ms", per_label.as_secs_f64() * 1e3),
            format!("{:.2} ms", batched.as_secs_f64() * 1e3),
            format!("{speedup:.1}x"),
        ]);
        label_sweep.push(LabelSweepPoint {
            labels: n,
            per_label,
            batched,
            speedup,
        });
    }

    // (b) Filter/rank parallelism sweep over full pipeline runs.
    let mut parallelism_sweep = Vec::new();
    let mut par_table = TextTable::new(&["workers", "extraction", "filtering", "ranking"]);
    for &p in &E7_PARALLELISM {
        let mut scenario = ScenarioConfig::sized(scholars);
        scenario.pipeline_parallelism = p;
        let ctx = EvalContext::build(scenario);
        let subs = ctx.submissions(runs, 0xE7);
        let mut extraction = Duration::ZERO;
        let mut filtering = Duration::ZERO;
        let mut ranking = Duration::ZERO;
        let mut completed = 0usize;
        for sub in &subs {
            let m = ctx.manuscript_for(sub);
            if let Ok(report) = ctx.minaret.recommend(&m) {
                extraction += report.timings.extraction;
                filtering += report.timings.filtering;
                ranking += report.timings.ranking;
                completed += 1;
            }
        }
        let n = completed.max(1) as u32;
        let point = ParallelismPoint {
            parallelism: p,
            extraction: extraction / n,
            filtering: filtering / n,
            ranking: ranking / n,
        };
        par_table.row(&[
            p.to_string(),
            format!("{:.2} ms", point.extraction.as_secs_f64() * 1e3),
            format!("{:.3} ms", point.filtering.as_secs_f64() * 1e3),
            format!("{:.3} ms", point.ranking.as_secs_f64() * 1e3),
        ]);
        parallelism_sweep.push(point);
    }

    let report = format!(
        "E7a batched vs. per-label retrieval ({runs} runs, 200us source latency)\n{}\n\
         phase timings vs. filter/rank workers ({runs} manuscripts each)\n{}",
        sweep_table.render(),
        par_table.render()
    );
    E7AddendumResult {
        label_sweep,
        parallelism_sweep,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_sweeps_complete() {
        let r = run_e7(&[100, 300], 2);
        assert_eq!(r.points.len(), 2);
        assert!(r.points[1].mean_candidates >= r.points[0].mean_candidates);
        assert_eq!(r.keyword_sweep.len(), 5);
        assert!(r.report.contains("scalability"));
    }

    #[test]
    fn e7_addendum_shows_the_batching_win() {
        let r = run_e7_addendum(120, 2);
        assert_eq!(r.label_sweep.len(), E7_LABEL_SIZES.len());
        assert_eq!(r.parallelism_sweep.len(), E7_PARALLELISM.len());
        // One batched call replaces N per-label fan-outs, so batched
        // retrieval must win at every set size, and by at least 1.5x at
        // the largest. The margin is profile-dependent: debug builds are
        // CPU-bound on profile assembly, so the 200us round trips matter
        // less than in release.
        for point in &r.label_sweep {
            assert!(
                point.batched < point.per_label,
                "batched retrieval slower at {} labels: {:?} vs {:?}",
                point.labels,
                point.batched,
                point.per_label
            );
        }
        assert!(
            r.label_sweep.last().expect("non-empty").speedup >= 1.5,
            "no batching win at the largest label set: {:?}",
            r.label_sweep
        );
        assert!(r.report.contains("batched vs. per-label"));
    }
}
