//! The traced run's spans and per-layer table.
//!
//! Each request gets a root span (client send to last byte) keyed by
//! its index in the run. Under it sit child spans for the layer calls,
//! replayed in the benchmark's own process on that request's inputs,
//! and the phase timings the response itself carries. Spans stay in
//! memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The root span's name.
pub const ROOT: &str = "request";

/// Per-layer metrics the traced run reports, with their units. A layer
/// a workload bypasses reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("process.cpu_cores", "cores"),
    ("process.cpu_ms_per_req", "ms"),
    ("http.outside_handler_us", "us"),
    ("http.queue_wait_us", "us"),
    ("http.reactor_dispatch_us", "us"),
    ("http.wakeups_per_req", "count"),
    ("http.conn_closes_per_kreq", "count"),
    ("server.handler_ms", "ms"),
    ("server.decode_us", "us"),
    ("server.fingerprint_us", "us"),
    ("server.cache_get_us", "us"),
    ("server.cache_hit_share", "share"),
    ("server.response_kb", "KB"),
    ("server.encode_ms", "ms"),
    ("server.coverage_ms", "ms"),
    ("server.assign_encode_ms", "ms"),
    ("core.extraction_ms", "ms"),
    ("core.filtering_ms", "ms"),
    ("core.ranking_ms", "ms"),
    ("core.candidates", "count"),
    ("core.kept_share", "share"),
    ("core.unaccounted_ms", "ms"),
    ("ontology.expand_us", "us"),
    ("ontology.labels_per_req", "count"),
    ("disambig.resolve_ms", "ms"),
    ("scholarly.fanout_ms", "ms"),
    ("scholarly.hits_per_req", "count"),
    ("scholarly.unique_share", "share"),
    ("scholarly.merge_ms", "ms"),
    ("scholarly.source_calls_per_req", "count"),
    ("scholarly.lazy_builds_per_req", "count"),
    ("assign.extract_ms", "ms"),
    ("assign.solve_ms", "ms"),
    ("assign.pool_size", "count"),
    ("assign.eligible_pairs", "count"),
    ("assign.augmentations", "count"),
    ("assign.refinement_gain", "score"),
    ("synth.generate_ms", "ms"),
    ("synth.snapshot_write_ms", "ms"),
    ("synth.snapshot_load_ms", "ms"),
    ("store.recovery_ms", "ms"),
    ("store.wal_appends_per_op", "count"),
    ("store.dir_mb", "MB"),
    ("trace.layers_ms", "ms"),
    ("trace.e2e_ms", "ms"),
    ("trace.unaccounted_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The request it belongs to (its index in the run).
    pub request: usize,
    /// Layer call name, e.g. `scholarly.fanout`.
    pub name: &'static str,
    /// The enclosing span's name; empty for the root.
    pub parent: &'static str,
    /// Duration in milliseconds.
    pub ms: f64,
}

/// An in-memory span store shared by the client threads.
#[derive(Debug, Default)]
pub struct Spans(Mutex<Vec<Span>>);

impl Spans {
    /// Records a span measured elsewhere.
    pub fn record(&self, request: usize, name: &'static str, parent: &'static str, ms: f64) {
        self.0.lock().expect("span store poisoned").push(Span {
            request,
            name,
            parent,
            ms,
        });
    }

    /// Runs `f` as the span `name` under `parent`.
    pub fn time<T>(
        &self,
        request: usize,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let started = Instant::now();
        let out = f();
        self.record(request, name, parent, started.elapsed().as_secs_f64() * 1e3);
        out
    }

    /// Every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.0.lock().expect("span store poisoned"))
    }
}

/// One row of the per-layer table: a span name's mean duration and
/// mean self time (duration minus its children's), per request.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// Parent span name.
    pub parent: &'static str,
    /// Mean duration per request, ms.
    pub total_ms: f64,
    /// Mean self time per request, ms.
    pub self_ms: f64,
}

/// Aggregates spans into rows, averaged over `requests`. The root's
/// self time is the unaccounted remainder: end-to-end time no layer
/// span covers.
pub fn rows(spans: &[Span], requests: usize) -> Vec<Row> {
    let n = requests.max(1) as f64;
    let mut total: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    let mut children: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        total.entry(s.name).or_insert((0.0, s.parent)).0 += s.ms;
        if !s.parent.is_empty() {
            *children.entry(s.parent).or_default() += s.ms;
        }
    }
    total
        .into_iter()
        .map(|(name, (sum, parent))| Row {
            name,
            parent,
            total_ms: sum / n,
            self_ms: (sum - children.get(name).copied().unwrap_or(0.0)) / n,
        })
        .collect()
}

/// Mean duration of the span `name` per request, ms (0 when absent).
pub fn mean_ms(rows: &[Row], name: &str) -> f64 {
    rows.iter()
        .find(|r| r.name == name)
        .map_or(0.0, |r| r.total_ms)
}

/// Renders the table: layers by self time, their sum against the
/// end-to-end time, and the unaccounted remainder as its own row.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let e2e = mean_ms(rows, ROOT);
    let mut layers: Vec<&Row> = rows.iter().filter(|r| r.name != ROOT).collect();
    layers.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
    out.push_str(&format!(
        "  {:<26} {:<18} {:>12} {:>12} {:>7}\n",
        "layer span", "parent", "total ms", "self ms", "share"
    ));
    let mut sum = 0.0;
    for r in &layers {
        sum += r.self_ms;
        out.push_str(&format!(
            "  {:<26} {:<18} {:>12.4} {:>12.4} {:>6.1}%\n",
            r.name,
            r.parent,
            r.total_ms,
            r.self_ms,
            share(r.self_ms, e2e)
        ));
    }
    let unaccounted = rows
        .iter()
        .find(|r| r.name == ROOT)
        .map_or(0.0, |r| r.self_ms);
    out.push_str(&format!(
        "  {:<26} {:<18} {:>12} {:>12.4} {:>6.1}%\n",
        "(unaccounted)",
        ROOT,
        "",
        unaccounted,
        share(unaccounted, e2e)
    ));
    out.push_str(&format!(
        "  {:<26} {:<18} {:>12} {:>12.4} {:>6.1}%   end-to-end {e2e:.4} ms\n",
        "sum of layer self times",
        "",
        "",
        sum,
        share(sum, e2e)
    ));
    out
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Writes spans as JSON lines, one span per line.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"request\":{},\"name\":\"{}\",\"parent\":\"{}\",\"ms\":{}}}",
            s.request, s.name, s.parent, s.ms
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_root_keeps_the_remainder() {
        let spans = Spans::default();
        for request in 0..2 {
            spans.record(request, ROOT, "", 10.0);
            spans.record(request, "core.extraction", ROOT, 6.0);
            spans.record(request, "scholarly.fanout", "core.extraction", 4.0);
            spans.record(request, "server.decode", ROOT, 1.0);
        }
        let rows = rows(&spans.take(), 2);
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get(ROOT).self_ms, 3.0);
        assert_eq!(get("core.extraction").self_ms, 2.0);
        assert_eq!(get("scholarly.fanout").self_ms, 4.0);
        assert_eq!(mean_ms(&rows, ROOT), 10.0);
        let table = render(&rows);
        assert!(table.contains("(unaccounted)"), "{table}");
        assert!(table.contains("end-to-end 10.0000 ms"), "{table}");
    }
}
