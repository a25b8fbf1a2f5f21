//! `minaret-perfbench`: drives the release `minaret-server` through one
//! workload and prints its end-to-end metrics (or, traced, its
//! per-layer table). See `perfbench/README.md`.
//!
//! ```text
//! minaret-perfbench --server <minaret-server> --workload <name> --seed <n>
//!     --seconds <n> --trace <0|1> [--repeat <k>] [--work-dir <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod check;
mod client;
mod inputs;
mod server;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use workloads::{Ctx, Replay, Run};

/// End-to-end metrics, with their units.
const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Set-ups in a timed run; `setup_s` is their median. A traced run sets
/// up once per pass.
const TIMED_SETUPS: usize = 3;

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    work_dir: PathBuf,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut repeat = 1;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| -> Result<u64, String> {
            v.parse()
                .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            "--repeat" => repeat = num(&value)?.max(1) as usize,
            "--work-dir" => work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            workloads::NAMES
        ));
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        repeat,
        work_dir,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("error: {}: {e}", args.work_dir.display());
        std::process::exit(2);
    }
    let generated = Instant::now();
    let world = Arc::new(inputs::world());
    let generate_ms = generated.elapsed().as_secs_f64() * 1e3;
    let ctx = |seed: u64, setups: usize, replay: Option<Replay>| Ctx {
        launch: server::Launch {
            binary: args.server.clone(),
            scholars: inputs::SCHOLARS,
            world_seed: inputs::WORLD_SEED,
            flags: Vec::new(),
        },
        seed,
        seconds: args.seconds,
        setups,
        work_dir: args.work_dir.clone(),
        world: world.clone(),
        replay,
    };
    let result = if args.trace {
        traced(
            &args,
            &ctx(args.seed, 1, None),
            &ctx(args.seed, 1, Some(Replay::new())),
            generate_ms,
        )
    } else if args.repeat > 1 {
        repeat(&args, || ctx(args.seed, TIMED_SETUPS, None))
    } else {
        timed(&args, &ctx(args.seed, TIMED_SETUPS, None))
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// The end-to-end metrics of one run.
fn e2e(run: &Run) -> Vec<(&'static str, &'static str, f64)> {
    let s = run.summary();
    let values = [
        s.setup_s,
        s.p50_ms,
        s.tail.value,
        s.throughput_rps,
        s.peak_rss_mb,
    ];
    E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

fn print_run(args: &Args, ctx: &Ctx, run: &Run) {
    let s = run.summary();
    let rounds = if s.rounds > 1 {
        format!("median of {} rounds of {}, ", s.rounds, s.tail.samples)
    } else {
        String::new()
    };
    println!(
        "{} seed={} seconds={} trace={}: {} ops attempted, {} failed (failed_share {}), closed loop",
        args.workload,
        ctx.seed,
        args.seconds,
        u8::from(ctx.replay.is_some()),
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64,
    );
    for (name, unit, value) in e2e(run) {
        let note = match name {
            "setup_s" => format!("median of {} set-ups {:?}", run.setup_s.len(), run.setup_s),
            "latency_p50_ms" => format!("{rounds}{} samples", s.tail.samples),
            "latency_tail_ms" => {
                format!(
                    "{rounds}p{:.3} of {} samples",
                    s.tail.percentile, s.tail.samples
                )
            }
            "throughput_rps" => format!(
                "{rounds}{} ops in {:.3} s",
                run.attempted - run.failed,
                run.wall_s
            ),
            _ => String::new(),
        };
        println!("  {name:<16} {value:>14.4} {unit:<4} {note}");
    }
    println!("  fingerprint      {:016x}", run.fingerprint);
    for g in &run.guards {
        println!(
            "  guard {:<40} {} ({})",
            g.name,
            if g.ok { "ok" } else { "BROKEN: run invalid" },
            g.detail
        );
    }
    for f in &run.failures {
        println!("  failure: {f}");
    }
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            // Adding 0 turns -0 into 0.
            let v = if v.is_finite() { *v + 0.0 } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        attempted.max(1),
        json_metrics(metrics)
    )
}

fn timed(args: &Args, ctx: &Ctx) -> Result<(), String> {
    let run = workloads::run(&args.workload, ctx)?;
    print_run(args, ctx, &run);
    println!(
        "{}",
        result_line(run.correct(), run.attempted, run.failed, &e2e(&run))
    );
    Ok(())
}

/// Runs the workload untraced, then traced with in-process replays, and
/// prints the per-layer table and metrics. Values read from outside the
/// server (`/proc`, `/metrics`) come from the untraced pass, which the
/// replays do not slow; span values come from the traced pass.
fn traced(args: &Args, plain: &Ctx, with_replay: &Ctx, generate_ms: f64) -> Result<(), String> {
    let untraced = workloads::run(&args.workload, plain)?;
    print_run(args, plain, &untraced);
    let mut run = workloads::run(&args.workload, with_replay)?;
    print_run(args, with_replay, &run);
    run.layers.extend(untraced.layers.clone());
    let p50 = |r: &Run| r.summary().p50_ms;
    run.layers
        .insert("trace.overhead_share", p50(&run) / p50(&untraced) - 1.0);
    // The benchmark generates the served world itself, as the server
    // does at boot in RAM mode; cold-start loads a snapshot instead.
    run.layers.insert("synth.generate_ms", generate_ms);
    if args.workload == "cold-start" {
        run.probed.push("synth.generate_ms");
    }
    if let Some(table) = &run.table {
        println!(
            "per-layer table ({} requests, self time per request):",
            run.attempted
        );
        print!("{table}");
    }
    let metrics: Vec<(&str, &str, f64)> = trace::LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, unit, run.layers.get(name).copied().unwrap_or(0.0)))
        .collect();
    for (name, unit, v) in &metrics {
        let probe = if run.probed.contains(name) {
            "probe"
        } else {
            ""
        };
        println!("  {name:<32} {v:>14.4} {unit:<6} {probe}");
    }
    let correct = run.correct() && untraced.correct() && run.fingerprint == untraced.fingerprint;
    if run.fingerprint != untraced.fingerprint {
        println!("  fingerprints of the two passes differ");
    }
    println!(
        "{}",
        result_line(
            correct,
            run.attempted + untraced.attempted,
            run.failed + untraced.failed,
            &metrics
        )
    );
    Ok(())
}

/// Runs the workload `k` times at one seed and prints each end-to-end
/// metric's median, quartiles and (max − min) / median. The runs must
/// also agree on the response fingerprint.
fn repeat(args: &Args, ctx: impl Fn() -> Ctx) -> Result<(), String> {
    let mut runs = Vec::with_capacity(args.repeat);
    for _ in 0..args.repeat {
        let ctx = ctx();
        let run = workloads::run(&args.workload, &ctx)?;
        print_run(args, &ctx, &run);
        runs.push(run);
    }
    let same_fingerprint = runs.iter().all(|r| r.fingerprint == runs[0].fingerprint);
    println!(
        "{} runs of {}: fingerprints {}",
        runs.len(),
        args.workload,
        if same_fingerprint {
            "all equal"
        } else {
            "DIFFER"
        }
    );
    println!(
        "  {:<16} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "metric", "q1", "median", "q3", "(q3-q1)/med", "range/med", "unit"
    );
    let mut medians = Vec::new();
    for (m, &(name, unit)) in E2E_METRICS.iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| e2e(r)[m].2).collect();
        let med = stats::median(&values);
        let [q1, _, q3] = stats::quartiles(&values).unwrap_or([med; 3]);
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        println!(
            "  {name:<16} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>12.4} {:>10.4} {unit:>10}",
            (q3 - q1) / med,
            (max - min) / med
        );
        medians.push((name, unit, med));
    }
    let correct = runs.iter().all(Run::correct) && same_fingerprint;
    println!(
        "{}",
        result_line(
            correct,
            runs.iter().map(|r| r.attempted).sum(),
            runs.iter().map(|r| r.failed).sum(),
            &medians
        )
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use minaret_json::Value;

    /// The workloads and metric lists here are the ones `BENCHMARK.json`
    /// declares, in order and with the same units.
    #[test]
    fn lists_match_the_benchmark_file() {
        let file = minaret_json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = |key: &str, field: &str| -> Vec<String> {
            let entries = file.get(key).and_then(Value::as_array).unwrap();
            entries
                .iter()
                .map(|e| e.get(field).and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let column = |list: &[(&str, &str)], unit: bool| -> Vec<String> {
            list.iter()
                .map(|&(name, u)| if unit { u } else { name }.to_string())
                .collect()
        };
        assert_eq!(declared("workloads", "name"), workloads::NAMES);
        for (key, list) in [
            ("end_to_end", E2E_METRICS),
            ("per_layer", trace::LAYER_METRICS),
        ] {
            assert_eq!(declared(key, "name"), column(list, false), "{key}");
            assert_eq!(declared(key, "unit"), column(list, true), "{key}");
        }
    }
}
