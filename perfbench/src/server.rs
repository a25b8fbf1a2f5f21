//! Spawning and stopping `minaret-server`, and reading it from outside:
//! `/metrics` counters, `/proc/<pid>` CPU time and peak memory.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::{self, Conn};

/// Linux reports `/proc/<pid>/stat` CPU times in ticks of `USER_HZ`,
/// which is 100 on every mainstream architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// How long a boot may take before the run gives up.
const BOOT_LIMIT: Duration = Duration::from_secs(60);

/// A running server process, killed and reaped on drop.
pub struct Server {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
    /// Spawn to the "listening" line on its stderr.
    pub boot: Duration,
    stderr: Option<JoinHandle<()>>,
}

/// How to start a server.
#[derive(Clone, Debug)]
pub struct Launch {
    /// The `minaret-server` binary.
    pub binary: PathBuf,
    /// Synthetic scholars.
    pub scholars: usize,
    /// World seed.
    pub world_seed: u64,
    /// Extra flags (`--cache-ttl-ms`, `--data-dir`).
    pub flags: Vec<String>,
}

impl Server {
    /// Spawns the server on an ephemeral port and waits until it
    /// listens. The port comes from the line the server prints once
    /// bound, so concurrent runs never collide.
    pub fn start(launch: &Launch) -> io::Result<Server> {
        let started = Instant::now();
        let mut child = Command::new(&launch.binary)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--scholars",
                &launch.scholars.to_string(),
                "--seed",
                &launch.world_seed.to_string(),
            ])
            .args(&launch.flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = std::sync::mpsc::channel();
        // Reads the boot log for the bound address, then keeps draining
        // so the server never blocks on a full pipe.
        let reader = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.split("listening on http://").nth(1) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr.trim().to_string());
                    }
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            boot: Duration::ZERO,
            stderr: Some(reader),
        };
        let addr = rx.recv_timeout(BOOT_LIMIT).map_err(|_| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "server exited or did not listen in time",
            )
        })?;
        server.boot = started.elapsed();
        server.addr = addr
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, addr))?;
        Ok(server)
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Scrapes `/metrics`.
    pub fn metrics(&self) -> io::Result<Metrics> {
        let resp = Conn::new(self.addr).send(&client::get("/metrics"))?;
        if resp.status != 200 {
            return Err(io::Error::other(format!(
                "/metrics answered {}",
                resp.status
            )));
        }
        Ok(Metrics::parse(&String::from_utf8_lossy(&resp.body)))
    }

    /// CPU time (user + system) the process has used so far.
    pub fn cpu_time(&self) -> io::Result<Duration> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("unparsable /proc stat"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("unparsable /proc stat field"))
        };
        // `rest` starts at field 3 (state), so field k is rest[k - 3].
        let total = ticks(11)? + ticks(12)?;
        Ok(Duration::from_secs_f64(total / TICKS_PER_SECOND))
    }

    /// Peak resident memory (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stderr.take() {
            let _ = reader.join();
        }
    }
}

/// One `/metrics` scrape: series (name plus label block) to value.
/// Histograms appear as their `_sum` and `_count` series.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Parses the Prometheus text format, skipping comments and buckets.
    pub fn parse(text: &str) -> Metrics {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            if line.starts_with('#') || line.contains("_bucket") {
                continue;
            }
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(series.to_string(), v);
                }
            }
        }
        Metrics(map)
    }

    /// The value of one series; an absent series reads 0, as a counter
    /// never incremented is not exported.
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// The sum over every series of the family `name`, whatever labels.
    pub fn sum(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(series, _)| {
                series
                    .strip_prefix(name)
                    .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .fold(0.0, |acc, (_, v)| acc + v)
    }

    /// The series-wise sum of several scrapes.
    pub fn total<'a>(scrapes: impl IntoIterator<Item = &'a Metrics>) -> Metrics {
        let mut sum = BTreeMap::new();
        for m in scrapes {
            for (series, v) in &m.0 {
                *sum.entry(series.clone()).or_insert(0.0) += v;
            }
        }
        Metrics(sum)
    }

    /// `self - before` for every series in `self`.
    pub fn delta(&self, before: &Metrics) -> Metrics {
        Metrics(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Copies the directory tree `from` to `to`, which must not exist.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_parse_sum_and_delta() {
        let before = Metrics::parse(
            "# TYPE minaret_http_shed_total counter\n\
             minaret_result_cache_hits_total 4\n\
             minaret_http_request_micros_bucket{route=\"/recommend\",le=\"10\"} 1\n\
             minaret_http_request_micros_sum{route=\"/recommend\"} 100\n",
        );
        let after = Metrics::parse(
            "minaret_result_cache_hits_total 10\n\
             minaret_http_request_micros_sum{route=\"/recommend\"} 250\n\
             minaret_http_request_micros_sum{route=\"/assign\"} 7\n\
             minaret_http_request_micros_sum_other 1\n",
        );
        let d = after.delta(&before);
        assert_eq!(d.get("minaret_result_cache_hits_total"), 6.0);
        let t = Metrics::total([&before, &after]);
        assert_eq!(t.get("minaret_result_cache_hits_total"), 14.0);
        assert_eq!(
            t.get("minaret_http_request_micros_sum{route=\"/assign\"}"),
            7.0
        );
        assert_eq!(
            d.get("minaret_http_request_micros_sum{route=\"/recommend\"}"),
            150.0
        );
        assert_eq!(d.sum("minaret_http_request_micros_sum"), 157.0);
        assert_eq!(d.get("minaret_http_shed_total"), 0.0);
    }
}
