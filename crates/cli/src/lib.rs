//! The `minaret` command-line front end.
//!
//! The paper demos MINARET as a web application; this is the same
//! workflow for a terminal. The binary (`src/main.rs`) is a thin shell
//! over [`run`], which is also driven directly by the integration tests.
//!
//! ```text
//! minaret expand RDF [--min-score 0.6]
//! minaret verify "Lei Zhou" [--affiliation "University of Tartu"]
//! minaret recommend manuscript.json [--top 10] [--explain]
//! minaret assign batch.json [--reviewers-per-paper 3] [--max-load 5]
//! minaret assign --demo-batch 8    # assign a generated submission batch
//! minaret synth --scholars 100000 --data-dir world/  # stream-generate a snapshot
//! minaret demo                      # end-to-end walkthrough
//! minaret stats                     # demo run + telemetry table
//! ```
//!
//! `recommend` reads the same JSON document the REST API's `/recommend`
//! accepts (see `minaret-server`), including the `"config"` overrides.
//! The scholarly world is synthetic and seeded; `--scholars` / `--seed`
//! control it, and `--data-dir` persists it: the first run snapshots
//! the generated world into an embedded store there, and later runs
//! with the same size/seed load the snapshot instead of regenerating.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use minaret_disambig::{AuthorQuery, IdentityResolver};
use minaret_json::Value;
use minaret_ontology::{ExpansionConfig, KeywordExpander};
use minaret_server::{manuscript_from_json, AppState};

/// Exit status of a CLI run.
pub type CliResult = Result<(), String>;

/// Common world options parsed from `--scholars` / `--seed` /
/// `--data-dir`.
#[derive(Debug, Clone)]
struct WorldOpts {
    scholars: usize,
    seed: u64,
    data_dir: Option<String>,
}

impl Default for WorldOpts {
    fn default() -> Self {
        Self {
            scholars: 1000,
            seed: 42,
            data_dir: None,
        }
    }
}

/// Builds the app state for a command, honouring `--data-dir`: with a
/// data directory the world loads from its snapshot when one matches
/// `(--scholars, --seed)` — skipping regeneration — and is snapshotted
/// there after generation otherwise. Without one this is exactly the
/// historical in-RAM [`AppState::demo`] path. The CLI never consults
/// the `/recommend` result cache, so it is disabled here.
fn build_state(world: &WorldOpts) -> Result<std::sync::Arc<AppState>, String> {
    AppState::demo_with_data_dir(
        world.scholars,
        world.seed,
        minaret_telemetry::Telemetry::new(),
        0,
        world.data_dir.as_deref().map(std::path::Path::new),
    )
    .map_err(|e| format!("cannot open --data-dir: {e}"))
}

const USAGE: &str = "\
minaret — reviewer recommendation (EDBT 2019 reproduction)

USAGE:
  minaret expand <KEYWORD> [--min-score X]
  minaret verify <NAME> [--affiliation A] [--country C] [--keywords k1,k2]
  minaret recommend <manuscript.json> [--top N] [--explain]
  minaret assign <batch.json | --demo-batch N> [--reviewers-per-paper K]
                 [--max-load L]
  minaret synth --data-dir P [--scholars N] [--seed N]
  minaret demo
  minaret stats

WORLD OPTIONS (all commands):
  --scholars N    size of the synthetic scholarly world (default 1000)
  --seed N        world seed (default 42)
  --data-dir P    embedded-store directory; the generated world is
                  snapshotted there and later runs with the same
                  --scholars/--seed load the snapshot instead of
                  regenerating (default: in-RAM, nothing on disk)

`synth` stream-generates the world straight into --data-dir, one
community block at a time, without booting a server — peak memory is
one chunk regardless of --scholars. A later `demo`/`stats`/server run
over the same --data-dir/--scholars/--seed serves that snapshot.
";

/// Runs the CLI with the given arguments (without the program name),
/// writing human-readable output to `out`.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> CliResult {
    let write =
        |out: &mut dyn std::io::Write, s: &str| writeln!(out, "{s}").map_err(|e| e.to_string());
    let Some(command) = args.first() else {
        write(out, USAGE)?;
        return Err("missing command".into());
    };
    // Split world options out of the remainder.
    let mut world = WorldOpts::default();
    let mut rest: Vec<String> = Vec::new();
    let mut it = args[1..].iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scholars" => {
                world.scholars = next_value(&mut it, "--scholars")?
                    .parse()
                    .map_err(|_| "--scholars must be an integer".to_string())?;
            }
            "--seed" => {
                world.seed = next_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed must be an integer".to_string())?;
            }
            "--data-dir" => {
                let dir = next_value(&mut it, "--data-dir")?;
                if dir.is_empty() {
                    return Err("--data-dir needs a non-empty path".into());
                }
                world.data_dir = Some(dir.clone());
            }
            _ => rest.push(a.clone()),
        }
    }
    match command.as_str() {
        "expand" => cmd_expand(&rest, out),
        "verify" => cmd_verify(&rest, world, out),
        "recommend" => cmd_recommend(&rest, world, out),
        "assign" => cmd_assign(&rest, world, out),
        "synth" => no_extra_args(&rest).and_then(|()| cmd_synth(world, out)),
        "demo" => no_extra_args(&rest).and_then(|()| cmd_demo(world, out)),
        "stats" => no_extra_args(&rest).and_then(|()| cmd_stats(world, out)),
        "help" | "--help" | "-h" => write(out, USAGE),
        other => Err(format!("unknown command {other:?}; try `minaret help`")),
    }
}

fn no_extra_args(rest: &[String]) -> CliResult {
    match rest.first() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected argument {extra:?}")),
    }
}

fn next_value<'a>(
    it: &mut std::iter::Peekable<std::slice::Iter<'a, String>>,
    flag: &str,
) -> Result<&'a String, String> {
    it.next()
        .ok_or_else(|| format!("flag {flag} needs a value"))
}

fn cmd_expand(args: &[String], out: &mut dyn std::io::Write) -> CliResult {
    let mut keyword = None;
    let mut min_score = ExpansionConfig::default().min_score;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--min-score" => {
                min_score = next_value(&mut it, "--min-score")?
                    .parse()
                    .map_err(|_| "--min-score must be a number".to_string())?;
            }
            k if keyword.is_none() => keyword = Some(k.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    let keyword = keyword.ok_or("expand needs a keyword")?;
    let ontology = minaret_ontology::seed::curated_cs_ontology();
    let expander = KeywordExpander::new(
        &ontology,
        ExpansionConfig {
            min_score,
            ..Default::default()
        },
    );
    let expanded = expander.expand(&keyword).map_err(|e| e.to_string())?;
    writeln!(out, "{:<28} {:>6}  hops", "expanded keyword", "score").map_err(|e| e.to_string())?;
    for e in expanded {
        writeln!(out, "{:<28} {:>6.3}  {}", e.label, e.score, e.hops).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_verify(args: &[String], world: WorldOpts, out: &mut dyn std::io::Write) -> CliResult {
    let mut name = None;
    let mut affiliation = None;
    let mut country = None;
    let mut keywords: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--affiliation" => affiliation = Some(next_value(&mut it, "--affiliation")?.clone()),
            "--country" => country = Some(next_value(&mut it, "--country")?.clone()),
            "--keywords" => {
                keywords = next_value(&mut it, "--keywords")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect();
            }
            n if name.is_none() => name = Some(n.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    let name = name.ok_or("verify needs an author name")?;
    let state = build_state(&world)?;
    let resolver = IdentityResolver::new(&state.registry);
    let candidates = resolver.candidates(&AuthorQuery {
        name: name.clone(),
        affiliation,
        country,
        context_keywords: keywords,
    });
    if candidates.is_empty() {
        writeln!(out, "no profiles found for {name:?}").map_err(|e| e.to_string())?;
        return Ok(());
    }
    writeln!(
        out,
        "{} candidate profile(s) for {name:?}:",
        candidates.len()
    )
    .map_err(|e| e.to_string())?;
    for (i, m) in candidates.iter().enumerate() {
        writeln!(
            out,
            "{:>3}. {:<24} {:<30} score {:.2}  [{}]",
            i + 1,
            m.candidate.display_name(),
            m.candidate.affiliation().unwrap_or("-"),
            m.score,
            m.candidate
                .sources()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("+"),
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn cmd_recommend(args: &[String], world: WorldOpts, out: &mut dyn std::io::Write) -> CliResult {
    let mut path = None;
    let mut top: Option<usize> = None;
    let mut explain = false;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => {
                top = Some(
                    next_value(&mut it, "--top")?
                        .parse()
                        .map_err(|_| "--top must be an integer".to_string())?,
                )
            }
            "--explain" => explain = true,
            p if path.is_none() => path = Some(p.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    let path = path.ok_or("recommend needs a manuscript JSON file")?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let body: Value = minaret_json::parse(&text).map_err(|e| e.to_string())?;

    let state = build_state(&world)?;
    let (manuscript, mut config) =
        manuscript_from_json(&body, state.minaret.config()).map_err(|e| e.to_string())?;
    if let Some(n) = top {
        config.max_recommendations = n;
    }
    let minaret = minaret_core::Minaret::new(
        state.registry.clone(),
        state.ontology.clone(),
        config.clone(),
    );
    let report = minaret.recommend(&manuscript).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "manuscript: {}\nkeywords:   {}\nretrieved {} candidates, filtered {}, recommending {}:\n",
        manuscript.title,
        manuscript.keywords.join(", "),
        report.candidates_retrieved,
        report.filtered_out.len(),
        report.recommendations.len()
    )
    .map_err(|e| e.to_string())?;
    write_degraded_warning(&report, out)?;
    write!(out, "{}", report.render_table()).map_err(|e| e.to_string())?;
    if explain {
        writeln!(out).map_err(|e| e.to_string())?;
        for r in &report.recommendations {
            writeln!(out, "{}", r.explain(&config.weights)).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn cmd_assign(args: &[String], world: WorldOpts, out: &mut dyn std::io::Write) -> CliResult {
    let mut path = None;
    let mut demo_batch: Option<usize> = None;
    let mut reviewers_per_paper: Option<u64> = None;
    let mut max_load: Option<u64> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--demo-batch" => {
                demo_batch = Some(
                    next_value(&mut it, "--demo-batch")?
                        .parse()
                        .map_err(|_| "--demo-batch must be an integer".to_string())?,
                )
            }
            "--reviewers-per-paper" => {
                reviewers_per_paper = Some(
                    next_value(&mut it, "--reviewers-per-paper")?
                        .parse()
                        .map_err(|_| "--reviewers-per-paper must be an integer".to_string())?,
                )
            }
            "--max-load" => {
                max_load = Some(
                    next_value(&mut it, "--max-load")?
                        .parse()
                        .map_err(|_| "--max-load must be an integer".to_string())?,
                )
            }
            p if path.is_none() && demo_batch.is_none() => path = Some(p.to_string()),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    let state = build_state(&world)?;
    let (manuscripts, mut spec, config) = if let Some(n) = demo_batch {
        if n == 0 {
            return Err("--demo-batch needs at least one submission".into());
        }
        // A seeded batch of synthetic submissions over the same world
        // the sources serve — every paper has in-world reviewers.
        let mut generator = minaret_synth::SubmissionGenerator::new(&state.world, world.seed);
        let manuscripts: Vec<minaret_core::ManuscriptDetails> = generator
            .generate_many(n)
            .iter()
            .map(|sub| minaret_assign::manuscript_from_submission(&state.world, sub))
            .collect();
        (
            manuscripts,
            minaret_assign::AssignmentSpec::new(3, 5),
            state.minaret.config().clone(),
        )
    } else {
        let path = path.ok_or("assign needs a batch JSON file or --demo-batch N")?;
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let body: Value = minaret_json::parse(&text).map_err(|e| e.to_string())?;
        minaret_server::assign_request_from_json(&body, state.minaret.config())?
    };
    if let Some(k) = reviewers_per_paper {
        spec.reviewers_per_paper = k as usize;
    }
    if let Some(l) = max_load {
        spec.max_load = l as usize;
    }
    let assigner = minaret_assign::Assigner::new(minaret_core::Minaret::new(
        state.registry.clone(),
        state.ontology.clone(),
        config,
    ))
    .with_telemetry(state.telemetry.clone());
    let solved = assigner
        .assign(&manuscripts, &spec)
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "assigning {} manuscripts: {} reviewers/paper, max load {} \
         (pool {}, eligible pairs {})\n",
        manuscripts.len(),
        spec.reviewers_per_paper,
        spec.max_load,
        solved.pool_size,
        solved.eligible_pairs
    )
    .map_err(|e| e.to_string())?;
    write!(out, "{}", solved.render_table()).map_err(|e| e.to_string())?;
    // The CLI serves a synthetic world, so it can grade the batch against
    // that world's ground truth; the server never does.
    if let Some(coverage) =
        minaret_assign::coverage_against_world(&state.world, &manuscripts, &solved)
    {
        writeln!(out, "coverage@k {coverage:.4}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Prints the degraded-coverage banner when sources were missing from a
/// run — the editor should know the list was built from a thinner view.
fn write_degraded_warning(
    report: &minaret_core::RecommendationReport,
    out: &mut dyn std::io::Write,
) -> CliResult {
    if report.degraded {
        writeln!(
            out,
            "WARNING: degraded results — source(s) unavailable: {}\n",
            report.degraded_sources.join(", ")
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// A manuscript authored by the first published scholar in the world,
/// using their own interests as keywords — guaranteed to have candidates.
fn demo_manuscript(state: &AppState) -> Result<minaret_core::ManuscriptDetails, String> {
    let lead = state
        .world
        .scholars()
        .iter()
        .find(|s| !state.world.papers_of(s.id).is_empty())
        .ok_or("degenerate world: nobody published")?;
    let inst = state.world.institution(lead.current_affiliation());
    Ok(minaret_core::ManuscriptDetails {
        title: "A demonstration manuscript".into(),
        keywords: lead
            .interests
            .iter()
            .take(3)
            .map(|&t| state.world.ontology.label(t).to_string())
            .collect(),
        authors: vec![minaret_core::AuthorInput {
            name: lead.full_name(),
            affiliation: Some(inst.name.clone()),
            country: Some(inst.country.clone()),
        }],
        target_venue: state.world.venues()[0].name.clone(),
    })
}

fn cmd_synth(world: WorldOpts, out: &mut dyn std::io::Write) -> CliResult {
    let dir = world
        .data_dir
        .as_deref()
        .ok_or("synth needs --data-dir: it exists to write a world snapshot")?;
    let store = minaret_store::Store::open(
        std::path::Path::new(dir),
        minaret_store::StoreConfig::default(),
    )
    .map_err(|e| format!("cannot open --data-dir: {e}"))?;
    let config = minaret_synth::WorldConfig {
        seed: world.seed,
        ..minaret_synth::WorldConfig::sized(world.scholars)
    };
    let generator = minaret_synth::StreamingGenerator::new(config);
    writeln!(
        out,
        "streaming {} scholars (seed {}) into {dir} ...",
        world.scholars, world.seed
    )
    .map_err(|e| e.to_string())?;
    let mut io_err = None;
    let totals = minaret_synth::stream_snapshot_world(&store, &generator, |p| {
        if let Err(e) = writeln!(
            out,
            "  chunk {:>4}/{}: {:>8} scholars done, {} papers, {} reviews, {} KiB",
            p.chunk + 1,
            p.chunks_total,
            p.scholars_done,
            p.papers,
            p.reviews,
            p.bytes / 1024
        ) {
            io_err.get_or_insert(e.to_string());
        }
    })
    .map_err(|e| format!("streaming snapshot failed: {e}"))?;
    if let Some(e) = io_err {
        return Err(e);
    }
    let stats = totals.stats();
    writeln!(
        out,
        "snapshot complete: {} scholars, {} papers, {} reviews, {} venues, \
         {} institutions, {} colliding names, {:.2} mean papers/scholar \
         ({} chunks, {} KiB total, peak chunk {} KiB)",
        stats.scholars,
        stats.papers,
        stats.reviews,
        stats.venues,
        stats.institutions,
        stats.colliding_scholars,
        stats.mean_papers_per_scholar,
        totals.chunks,
        totals.bytes / 1024,
        totals.peak_chunk_bytes / 1024
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

fn cmd_demo(world: WorldOpts, out: &mut dyn std::io::Write) -> CliResult {
    let state = build_state(&world)?;
    let manuscript = demo_manuscript(&state)?;
    writeln!(
        out,
        "demo manuscript by {} — keywords: {}",
        manuscript.authors[0].name,
        manuscript.keywords.join(", ")
    )
    .map_err(|e| e.to_string())?;
    let report = state
        .minaret
        .recommend(&manuscript)
        .map_err(|e| e.to_string())?;
    write_degraded_warning(&report, out)?;
    write!(out, "{}", report.render_table()).map_err(|e| e.to_string())?;
    Ok(())
}

fn cmd_stats(world: WorldOpts, out: &mut dyn std::io::Write) -> CliResult {
    let state = build_state(&world)?;
    let manuscript = demo_manuscript(&state)?;
    state
        .minaret
        .recommend(&manuscript)
        .map_err(|e| e.to_string())?;
    writeln!(
        out,
        "telemetry after one demo recommendation ({} scholars, seed {}):\n",
        world.scholars, world.seed
    )
    .map_err(|e| e.to_string())?;
    write!(out, "{}", state.telemetry.render_table()).map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(args: &[&str]) -> (CliResult, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let result = run(&args, &mut buf);
        (result, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn expand_prints_scored_table() {
        let (res, output) = run_capture(&["expand", "RDF"]);
        assert!(res.is_ok(), "{res:?}");
        assert!(output.contains("Semantic Web"));
        assert!(output.contains("SPARQL"));
    }

    #[test]
    fn expand_respects_min_score() {
        let (res, output) = run_capture(&["expand", "RDF", "--min-score", "0.99"]);
        assert!(res.is_ok());
        // Only the seed keyword remains.
        assert_eq!(output.lines().count(), 2);
    }

    #[test]
    fn unknown_command_and_missing_args_error() {
        assert!(run_capture(&["frobnicate"]).0.is_err());
        assert!(run_capture(&[]).0.is_err());
        assert!(run_capture(&["expand"]).0.is_err());
        assert!(run_capture(&["recommend"]).0.is_err());
        assert!(run_capture(&["expand", "RDF", "--min-score", "lots"])
            .0
            .is_err());
    }

    #[test]
    fn help_prints_usage() {
        let (res, output) = run_capture(&["help"]);
        assert!(res.is_ok());
        assert!(output.contains("USAGE"));
    }

    #[test]
    fn verify_finds_profiles_in_small_world() {
        // Use a small world for speed; find a real scholar's name first.
        let state = AppState::demo(120, 5);
        let name = state.world.scholars()[0].full_name();
        let (res, output) = run_capture(&["verify", &name, "--scholars", "120", "--seed", "5"]);
        assert!(res.is_ok(), "{res:?}");
        assert!(output.contains("candidate profile(s)"), "{output}");
    }

    #[test]
    fn demo_runs_end_to_end() {
        let (res, output) = run_capture(&["demo", "--scholars", "150", "--seed", "3"]);
        assert!(res.is_ok(), "{res:?}");
        assert!(output.contains("TOTAL"));
    }

    #[test]
    fn stats_renders_telemetry_table() {
        let (res, output) = run_capture(&["stats", "--scholars", "150", "--seed", "3"]);
        assert!(res.is_ok(), "{res:?}");
        assert!(output.contains("minaret_phase_micros"), "{output}");
        assert!(output.contains("minaret_source_requests_total"), "{output}");
        assert!(output.contains("minaret_recommend_total"), "{output}");
        // The resilience layer's breaker gauge is registered per source
        // from startup, so the stats table lists it even when healthy.
        assert!(output.contains("minaret_breaker_state"), "{output}");
    }

    #[test]
    fn stats_and_demo_reject_unknown_flags() {
        assert!(run_capture(&["stats", "--frobnicate"]).0.is_err());
        assert!(run_capture(&["demo", "extra"]).0.is_err());
    }

    #[test]
    fn recommend_reads_manuscript_file() {
        let state = AppState::demo(150, 3);
        let lead = state
            .world
            .scholars()
            .iter()
            .find(|s| !state.world.papers_of(s.id).is_empty())
            .unwrap();
        let keywords: Vec<minaret_json::Value> = lead
            .interests
            .iter()
            .take(2)
            .map(|&t| minaret_json::Value::from(state.world.ontology.label(t)))
            .collect();
        let doc = minaret_json::Value::object()
            .set("title", "File-driven manuscript")
            .set("keywords", keywords)
            .set(
                "authors",
                vec![minaret_json::Value::object().set("name", lead.full_name().as_str())],
            )
            .set("target_venue", state.world.venues()[0].name.as_str());
        let dir = std::env::temp_dir().join("minaret-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("manuscript.json");
        std::fs::write(&path, doc.to_string()).unwrap();
        let (res, output) = run_capture(&[
            "recommend",
            path.to_str().unwrap(),
            "--top",
            "5",
            "--explain",
            "--scholars",
            "150",
            "--seed",
            "3",
        ]);
        assert!(res.is_ok(), "{res:?}");
        assert!(output.contains("File-driven manuscript"));
        assert!(output.contains("TOTAL"));
        assert!(
            output.contains("total score"),
            "explanations missing: {output}"
        );
        let rec_lines = output.lines().filter(|l| l.starts_with('#')).count();
        assert!(rec_lines >= 1);
    }

    #[test]
    fn assign_demo_batch_end_to_end() {
        let (res, output) = run_capture(&[
            "assign",
            "--demo-batch",
            "3",
            "--reviewers-per-paper",
            "2",
            "--max-load",
            "4",
            "--scholars",
            "150",
            "--seed",
            "3",
        ]);
        assert!(res.is_ok(), "{res:?}");
        assert!(
            output.contains("assigning 3 manuscripts: 2 reviewers/paper, max load 4"),
            "{output}"
        );
        assert!(output.contains("mean relevance"), "{output}");
        assert!(output.contains("coverage@k"), "{output}");
    }

    #[test]
    fn assign_reads_batch_file() {
        let state = AppState::demo(150, 3);
        let papers: Vec<minaret_json::Value> = state
            .world
            .scholars()
            .iter()
            .filter(|s| !state.world.papers_of(s.id).is_empty())
            .take(2)
            .enumerate()
            .map(|(i, lead)| {
                let keywords: Vec<minaret_json::Value> = lead
                    .interests
                    .iter()
                    .take(2)
                    .map(|&t| minaret_json::Value::from(state.world.ontology.label(t)))
                    .collect();
                minaret_json::Value::object()
                    .set("title", format!("Batch paper {i}").as_str())
                    .set("keywords", keywords)
                    .set(
                        "authors",
                        vec![minaret_json::Value::object().set("name", lead.full_name().as_str())],
                    )
                    .set("target_venue", state.world.venues()[0].name.as_str())
            })
            .collect();
        let doc = minaret_json::Value::object()
            .set("manuscripts", papers)
            .set(
                "spec",
                minaret_json::Value::object()
                    .set("reviewers_per_paper", 2u64)
                    .set("max_load", 4u64),
            );
        let dir = std::env::temp_dir().join("minaret-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("batch.json");
        std::fs::write(&path, doc.to_string()).unwrap();
        let (res, output) = run_capture(&[
            "assign",
            path.to_str().unwrap(),
            "--scholars",
            "150",
            "--seed",
            "3",
        ]);
        assert!(res.is_ok(), "{res:?}");
        assert!(output.contains("assigning 2 manuscripts"), "{output}");
        assert!(output.contains("Batch paper 0"), "{output}");
    }

    #[test]
    fn assign_rejects_bad_inputs() {
        assert!(run_capture(&["assign"]).0.is_err());
        assert!(run_capture(&["assign", "--demo-batch", "0"]).0.is_err());
        assert!(run_capture(&["assign", "/nonexistent/batch.json"])
            .0
            .is_err());
        // An unsatisfiable spec is an explicit infeasibility error.
        let (res, _) = run_capture(&[
            "assign",
            "--demo-batch",
            "3",
            "--reviewers-per-paper",
            "400",
            "--max-load",
            "1",
            "--scholars",
            "150",
            "--seed",
            "3",
        ]);
        assert!(res.unwrap_err().contains("infeasible"));
    }

    #[test]
    fn data_dir_snapshots_then_reloads_identically() {
        let dir = std::env::temp_dir().join(format!("minaret-cli-dd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().unwrap();
        let args = [
            "demo",
            "--scholars",
            "150",
            "--seed",
            "3",
            "--data-dir",
            dir_str,
        ];
        let (res, first) = run_capture(&args);
        assert!(res.is_ok(), "{res:?}");
        assert!(
            std::fs::read_dir(&dir).unwrap().count() > 0,
            "snapshot written to the data dir"
        );
        // Second run loads the snapshot; output must be byte-identical,
        // and identical to a pure-RAM run of the same world.
        let (res, second) = run_capture(&args);
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(first, second);
        let (res, in_ram) = run_capture(&["demo", "--scholars", "150", "--seed", "3"]);
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(first, in_ram);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn data_dir_rejects_empty_path() {
        assert!(run_capture(&["demo", "--data-dir", ""]).0.is_err());
    }

    #[test]
    fn synth_requires_a_data_dir() {
        let (res, _) = run_capture(&["synth", "--scholars", "100"]);
        assert!(res.unwrap_err().contains("--data-dir"));
    }

    #[test]
    fn synth_streams_a_snapshot_that_later_runs_serve() {
        let dir = std::env::temp_dir().join(format!("minaret-cli-synth-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_str().unwrap().to_string();
        let (res, output) = run_capture(&[
            "synth",
            "--scholars",
            "150",
            "--seed",
            "3",
            "--data-dir",
            &dir_str,
        ]);
        assert!(res.is_ok(), "{res:?}");
        assert!(output.contains("chunk    1/1"), "{output}");
        assert!(
            output.contains("snapshot complete: 150 scholars"),
            "{output}"
        );
        // A demo over that data dir serves the streamed snapshot and is
        // byte-identical to a pure-RAM run of the same world.
        let (res, from_snapshot) = run_capture(&[
            "demo",
            "--scholars",
            "150",
            "--seed",
            "3",
            "--data-dir",
            &dir_str,
        ]);
        assert!(res.is_ok(), "{res:?}");
        let (res, in_ram) = run_capture(&["demo", "--scholars", "150", "--seed", "3"]);
        assert!(res.is_ok(), "{res:?}");
        assert_eq!(from_snapshot, in_ram);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recommend_rejects_missing_or_invalid_files() {
        let (res, _) = run_capture(&["recommend", "/nonexistent/m.json"]);
        assert!(res.unwrap_err().contains("cannot read"));
        let dir = std::env::temp_dir().join("minaret-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.json");
        std::fs::write(&path, "{not json").unwrap();
        let (res, _) = run_capture(&["recommend", path.to_str().unwrap()]);
        assert!(res.is_err());
    }
}
