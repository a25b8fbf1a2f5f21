//! The `minaret-server` binary: generates a synthetic scholarly world,
//! wires the six simulated sources, and serves the REST API behind the
//! admission-controlled serving layer (bounded queue, load shedding,
//! keep-alive, result cache).
//!
//! Run `minaret-server --help` for the full flag reference.

use std::sync::Arc;
use std::time::Duration;

use minaret_http::{KeepAliveConfig, Server, ServerConfig};
use minaret_server::{build_router, AppState};
use minaret_telemetry::Telemetry;

const USAGE: &str = "\
minaret-server — MINARET reviewer-recommendation REST API

USAGE:
    minaret-server [FLAGS]

WORLD:
    --addr <host:port>            Bind address          [default: 127.0.0.1:8080]
    --scholars <n>                Synthetic scholars, n >= 1 [default: 2000]
    --seed <n>                    World generator seed  [default: 42]
    --data-dir <path>             Embedded-store directory. On first boot the
                                  generated world is snapshotted there; later
                                  boots with the same --scholars/--seed load
                                  the snapshot instead of regenerating. The
                                  dir holds the snapshot only: requests build
                                  source profiles from the loaded world and
                                  write nothing. Omit for pure-RAM mode
                                  (identical recommendation bytes, nothing on
                                  disk)

SERVING LAYER:
    --workers <n>                 Worker threads, n >= 1      [default: 8]
    --io-threads <n>              Event-loop (reactor) threads multiplexing
                                  connections, 1 <= n <= 1024; total serving
                                  threads = io-threads + workers [default: 1]
    --queue-depth <n>             Admission queue slots, n >= 1; connections
                                  beyond this are shed with 503 [default: 128]
    --request-timeout-ms <ms>     Per-request budget (read + handle + write);
                                  0 disables                  [default: 10000]
    --keepalive-max-requests <n>  Requests per connection before the server
                                  closes it; 1 disables keep-alive [default: 100]
    --idle-timeout-ms <ms>        Keep-alive idle limit; 0 waits forever
                                  [default: 5000]
    --cache-ttl-ms <ms>           /recommend result-cache TTL; 0 disables
                                  caching                     [default: 30000]

    -h, --help                    Print this help and exit
";

#[derive(Debug)]
struct Flags {
    addr: String,
    scholars: usize,
    seed: u64,
    workers: usize,
    io_threads: usize,
    queue_depth: usize,
    request_timeout_ms: u64,
    keepalive_max_requests: usize,
    idle_timeout_ms: u64,
    cache_ttl_ms: u64,
    data_dir: Option<String>,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            addr: "127.0.0.1:8080".into(),
            scholars: 2000,
            seed: 42,
            workers: 8,
            io_threads: 1,
            queue_depth: 128,
            request_timeout_ms: 10_000,
            keepalive_max_requests: 100,
            idle_timeout_ms: 5_000,
            cache_ttl_ms: 30_000,
            data_dir: None,
        }
    }
}

/// Parses and validates flags. `Ok(None)` means `--help` was requested.
fn parse_flags(mut args: impl Iterator<Item = String>) -> Result<Option<Flags>, String> {
    let mut flags = Flags::default();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("{flag} must be a non-negative integer, got {value:?}"))
        }
        match flag.as_str() {
            "--addr" => flags.addr = value,
            "--scholars" => {
                flags.scholars = num(&flag, &value)?;
                if flags.scholars == 0 {
                    return Err("--scholars must be at least 1".into());
                }
            }
            "--seed" => flags.seed = num(&flag, &value)?,
            "--workers" => {
                flags.workers = num(&flag, &value)?;
                if flags.workers == 0 {
                    return Err("--workers must be at least 1 (the server cannot serve requests with zero workers)".into());
                }
            }
            "--io-threads" => {
                flags.io_threads = num(&flag, &value)?;
                if flags.io_threads == 0 {
                    return Err(
                        "--io-threads must be at least 1 (someone has to run the event loop)"
                            .into(),
                    );
                }
                if flags.io_threads > 1024 {
                    return Err(format!(
                        "--io-threads must be at most 1024, got {} (each reactor costs an epoll instance and a wake pipe; more event loops than that serves nothing)",
                        flags.io_threads
                    ));
                }
            }
            "--queue-depth" => {
                flags.queue_depth = num(&flag, &value)?;
                if flags.queue_depth == 0 {
                    return Err("--queue-depth must be at least 1 (a zero-slot queue would shed every request)".into());
                }
            }
            "--request-timeout-ms" => flags.request_timeout_ms = num(&flag, &value)?,
            "--keepalive-max-requests" => {
                flags.keepalive_max_requests = num(&flag, &value)?;
                if flags.keepalive_max_requests == 0 {
                    return Err(
                        "--keepalive-max-requests must be at least 1 (use 1 to disable keep-alive)"
                            .into(),
                    );
                }
            }
            "--idle-timeout-ms" => flags.idle_timeout_ms = num(&flag, &value)?,
            "--cache-ttl-ms" => flags.cache_ttl_ms = num(&flag, &value)?,
            "--data-dir" => {
                if value.is_empty() {
                    return Err("--data-dir needs a non-empty path".into());
                }
                flags.data_dir = Some(value);
            }
            other => return Err(format!("unknown flag {other}; try --help")),
        }
    }
    Ok(Some(flags))
}

fn main() {
    let flags = match parse_flags(std::env::args().skip(1)) {
        Ok(Some(flags)) => flags,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run minaret-server --help for the flag reference");
            std::process::exit(2);
        }
    };

    match &flags.data_dir {
        Some(dir) => eprintln!(
            "opening scholarly world ({} scholars, seed {}) from data dir {dir}…",
            flags.scholars, flags.seed
        ),
        None => eprintln!(
            "generating synthetic scholarly world ({} scholars, seed {})…",
            flags.scholars, flags.seed
        ),
    }
    let telemetry = Telemetry::new();
    let state: Arc<AppState> = match AppState::demo_with_data_dir(
        flags.scholars,
        flags.seed,
        telemetry.clone(),
        flags.cache_ttl_ms.saturating_mul(1_000),
        flags.data_dir.as_deref().map(std::path::Path::new),
    ) {
        Ok(state) => state,
        Err(e) => {
            eprintln!("error: failed to open data dir: {e}");
            std::process::exit(2);
        }
    };
    let w = &state.world;
    eprintln!(
        "world ready: {} scholars, {} papers, {} venues, {} review records",
        w.scholars().len(),
        w.papers().len(),
        w.venues().len(),
        w.reviews().len()
    );
    let router = build_router(state);
    let config = ServerConfig {
        workers: flags.workers,
        io_threads: flags.io_threads,
        queue_depth: flags.queue_depth,
        request_timeout: (flags.request_timeout_ms > 0)
            .then(|| Duration::from_millis(flags.request_timeout_ms)),
        keep_alive: KeepAliveConfig {
            max_requests: flags.keepalive_max_requests,
            idle_timeout: (flags.idle_timeout_ms > 0)
                .then(|| Duration::from_millis(flags.idle_timeout_ms)),
        },
        telemetry,
        ..ServerConfig::default()
    };
    let server = match Server::bind_with(&flags.addr, router, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: failed to bind {}: {e}", flags.addr);
            std::process::exit(2);
        }
    };
    eprintln!("MINARET API listening on http://{}", server.local_addr());
    eprintln!("  GET  /health     GET /sources     GET /expand?keyword=RDF");
    eprintln!("  POST /verify-authors               POST /recommend");
    eprintln!("  POST /cache/invalidate             GET /metrics");
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Flags>, String> {
        parse_flags(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_parse() {
        let flags = parse(&[]).unwrap().unwrap();
        assert_eq!(flags.workers, 8);
        assert_eq!(flags.io_threads, 1);
        assert_eq!(flags.queue_depth, 128);
        assert_eq!(flags.cache_ttl_ms, 30_000);
    }

    #[test]
    fn help_short_circuits() {
        assert!(parse(&["--help"]).unwrap().is_none());
        assert!(parse(&["-h", "--workers", "0"]).unwrap().is_none());
    }

    #[test]
    fn all_flags_round_trip() {
        let flags = parse(&[
            "--addr",
            "0.0.0.0:9999",
            "--scholars",
            "500",
            "--seed",
            "7",
            "--workers",
            "3",
            "--io-threads",
            "2",
            "--queue-depth",
            "16",
            "--request-timeout-ms",
            "0",
            "--keepalive-max-requests",
            "1",
            "--idle-timeout-ms",
            "250",
            "--cache-ttl-ms",
            "0",
            "--data-dir",
            "/tmp/minaret-data",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(flags.addr, "0.0.0.0:9999");
        assert_eq!(flags.scholars, 500);
        assert_eq!(flags.seed, 7);
        assert_eq!(flags.workers, 3);
        assert_eq!(flags.io_threads, 2);
        assert_eq!(flags.queue_depth, 16);
        assert_eq!(flags.request_timeout_ms, 0);
        assert_eq!(flags.keepalive_max_requests, 1);
        assert_eq!(flags.idle_timeout_ms, 250);
        assert_eq!(flags.cache_ttl_ms, 0);
        assert_eq!(flags.data_dir.as_deref(), Some("/tmp/minaret-data"));
    }

    #[test]
    fn data_dir_defaults_to_ram_mode_and_rejects_empty_paths() {
        assert!(parse(&[]).unwrap().unwrap().data_dir.is_none());
        assert!(parse(&["--data-dir", ""])
            .unwrap_err()
            .contains("--data-dir"));
    }

    #[test]
    fn nonsense_values_are_rejected_with_clear_errors() {
        assert!(parse(&["--workers", "0"])
            .unwrap_err()
            .contains("--workers"));
        assert!(parse(&["--queue-depth", "0"])
            .unwrap_err()
            .contains("--queue-depth"));
        assert!(parse(&["--io-threads", "0"])
            .unwrap_err()
            .contains("--io-threads"));
        assert!(parse(&["--io-threads", "4097"])
            .unwrap_err()
            .contains("at most 1024"));
        assert!(parse(&["--io-threads", "-1"])
            .unwrap_err()
            .contains("non-negative integer"));
        assert!(parse(&["--keepalive-max-requests", "0"])
            .unwrap_err()
            .contains("--keepalive-max-requests"));
        assert!(parse(&["--scholars", "0"])
            .unwrap_err()
            .contains("--scholars"));
        assert!(parse(&["--workers", "many"])
            .unwrap_err()
            .contains("non-negative integer"));
        assert!(parse(&["--workers"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--bogus", "1"]).unwrap_err().contains("--bogus"));
    }
}
