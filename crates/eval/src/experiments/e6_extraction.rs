//! E6 — what on-the-fly extraction costs under web-scraping-scale
//! latency and transient failures, and what each source's profile memo
//! saves when the same manuscript is asked again.

use std::time::{Duration, Instant};

use minaret_core::{ManuscriptDetails, MinaretError, RecommendationReport};
use minaret_scholarly::{BreakerConfig, RegistryConfig, ResilienceConfig, SourceKind};
use minaret_synth::WorldConfig;

use crate::harness::{EvalContext, ScenarioConfig};
use crate::table::TextTable;

/// What one recommendation run cost.
#[derive(Debug, Clone, Copy)]
pub struct E6Run {
    /// Wall clock of the run.
    pub wall: Duration,
    /// Source calls the registry issued during the run, retries included.
    pub calls: u64,
    /// Profiles the sources built during the run (first requests of
    /// their profile memos).
    pub built: usize,
}

/// Result of experiment E6.
#[derive(Debug)]
pub struct E6Result {
    /// The first run, over sources that have built no profile.
    pub cold: E6Run,
    /// The same manuscript again: every source is asked afresh, and
    /// every profile it returns is already built.
    pub warm: E6Run,
    /// Retries absorbed (injected transient failures) across both runs.
    pub retries: u64,
    /// The cold run with Publons scripted permanently dead.
    pub degraded_cold: E6Run,
    /// The degraded run again, with the breaker open.
    pub degraded_warm: E6Run,
    /// Calls the open breaker rejected across both degraded runs.
    pub short_circuited: u64,
    /// Rendered report.
    pub report: String,
}

/// Recommends `m` once and measures the run.
fn run_once(
    ctx: &EvalContext,
    m: &ManuscriptDetails,
) -> (Result<RecommendationReport, MinaretError>, E6Run) {
    let built = || -> usize { ctx.sources.iter().map(|s| s.built_profiles()).sum() };
    let (calls_before, built_before) = (ctx.registry.stats().calls, built());
    let t = Instant::now();
    let result = ctx.minaret.recommend(m);
    let wall = t.elapsed();
    let run = E6Run {
        wall,
        calls: ctx.registry.stats().calls - calls_before,
        built: built() - built_before,
    };
    (result, run)
}

/// Runs the cold/warm extraction comparison.
///
/// `latency_micros` is the simulated per-call source latency; real
/// scraping sits at 10⁵–10⁶ µs, unit tests pass 0–500.
pub fn run_e6(scholars: usize, latency_micros: u64, failure_rate: f64) -> E6Result {
    let ctx = EvalContext::build(ScenarioConfig {
        world: WorldConfig::sized(scholars),
        source_latency_micros: latency_micros,
        source_failure_rate: failure_rate,
        ..Default::default()
    });
    let sub = ctx.submissions(1, 0xE6).pop().expect("submission");
    let m = ctx.manuscript_for(&sub);

    let (first, cold) = run_once(&ctx, &m);
    let (second, warm) = run_once(&ctx, &m);
    assert!(
        first.is_ok() && second.is_ok(),
        "pipeline failed under injection"
    );
    let stats = ctx.registry.stats();

    // Same scenario, but Publons is scripted permanently dead and the
    // registry runs with a breaker: the cost of degraded-mode service.
    // No dice here — the scripted outage is the only fault, so the
    // degraded numbers are attributable to it alone.
    let dead_ctx = EvalContext::build(ScenarioConfig {
        world: WorldConfig::sized(scholars),
        source_latency_micros: latency_micros,
        source_failure_rate: 0.0,
        registry: RegistryConfig {
            resilience: ResilienceConfig {
                breaker: BreakerConfig {
                    failure_threshold: 3,
                    cooldown_micros: 60_000_000,
                    probe_successes: 1,
                },
                ..ResilienceConfig::disabled()
            },
            ..Default::default()
        },
        dead_sources: vec![SourceKind::Publons],
        ..Default::default()
    });
    let dead_sub = dead_ctx.submissions(1, 0xE6).pop().expect("submission");
    let dm = dead_ctx.manuscript_for(&dead_sub);
    let (degraded_run, degraded_cold) = run_once(&dead_ctx, &dm);
    let degraded_run = degraded_run.expect("five healthy sources still recommend");
    let (again, degraded_warm) = run_once(&dead_ctx, &dm);
    again.expect("warm degraded run");
    assert!(
        degraded_run.degraded
            && degraded_run
                .degraded_sources
                .contains(&"Publons".to_string()),
        "the dead source must be named: {:?}",
        degraded_run.degraded_sources
    );
    let dead_stats = dead_ctx.registry.stats();

    let mut table = TextTable::new(&["run", "wall clock", "source calls", "profiles built"]);
    for (name, run) in [
        ("cold (no profile built)", cold),
        ("warm (profiles built)", warm),
        ("degraded cold (Publons dead)", degraded_cold),
        ("degraded warm (breaker open)", degraded_warm),
    ] {
        table.row(&[
            name.into(),
            format!("{:.1} ms", run.wall.as_secs_f64() * 1e3),
            run.calls.to_string(),
            run.built.to_string(),
        ]);
    }
    let report = format!(
        "E6  on-the-fly extraction cost ({scholars} scholars, {latency_micros} µs/call, \
         {failure_rate} failure rate)\n{}\
         retries {}, gave up {}\n\
         speedup warm/cold: {:.1}x (the warm run asks every source again; only the \
         profile builds are saved)\n\
         degraded runs: flagged degraded, missing {:?}; breaker short-circuited {} calls\n",
        table.render(),
        stats.retries,
        stats.gave_up,
        if warm.wall.as_secs_f64() > 0.0 {
            cold.wall.as_secs_f64() / warm.wall.as_secs_f64()
        } else {
            f64::INFINITY
        },
        degraded_run.degraded_sources,
        dead_stats.short_circuited,
    );
    E6Result {
        cold,
        warm,
        retries: stats.retries,
        degraded_cold,
        degraded_warm,
        short_circuited: dead_stats.short_circuited,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e6_warm_runs_ask_every_source_again_and_build_nothing() {
        let r = run_e6(150, 200, 0.0);
        assert!(r.cold.calls > 0, "{r:?}");
        assert_eq!(r.warm.calls, r.cold.calls, "{r:?}");
        assert!(r.cold.built > 0, "{r:?}");
        assert_eq!(r.warm.built, 0, "{r:?}");
    }

    #[test]
    fn e6_survives_failure_injection() {
        let r = run_e6(100, 0, 0.3);
        assert!(r.retries > 0, "expected retries under 30% failure rate");
    }

    #[test]
    fn e6_degraded_runs_short_circuit_the_dead_source() {
        let r = run_e6(120, 0, 0.0);
        assert!(r.short_circuited >= 1, "{r:?}");
        assert!(r.report.contains("Publons"), "{}", r.report);
    }
}
