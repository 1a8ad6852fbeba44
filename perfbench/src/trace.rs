//! Traced runs: per-rank span recorders, per-layer self times, and the
//! Chrome trace export.
//!
//! The benchmark opens one telemetry span per call into a layer, named
//! after the layer metric it feeds (`forest.balance_s`, ...), inside a
//! root span per op (`amr3d.cycle`, ...). The program's own spans
//! (`balance`, `pde.step`, ...) are recorded too and appear in the
//! Chrome trace, but self times are computed over the benchmark's spans
//! only, so each layer's time is charged to the call that caused it.

use crate::metrics::PER_LAYER;
use crate::{Config, Measured, WORKLOADS};
use quadforest_core::wire::{WireError, WireReader};
use quadforest_core::Wire;
use quadforest_telemetry::{self as telemetry, MetricKind, MetricsSnapshot, RankReport, SpanEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Per-layer names of the `simd::kernel_invocations` tiers, in order.
pub const INVOCATIONS: [&str; 3] = [
    "core.kernel_invocations.scalar",
    "core.kernel_invocations.avx2",
    "core.kernel_invocations.bmi2",
];

/// Dispatched batch-kernel calls so far, in [`INVOCATIONS`] order.
pub fn invocations() -> [u64; 3] {
    quadforest_core::simd::kernel_invocations().map(|(_, n)| n)
}

/// Span ring capacity per rank: large enough that no traced run of the
/// default length overwrites a span.
const RING_CAPACITY: usize = 1 << 21;

/// Everything one rank recorded while traced, plus the traced window on
/// the rank's telemetry clock.
#[derive(Clone, Debug, Default)]
pub struct RankTrace {
    /// Spans and the rank's metric registry.
    pub report: RankReport,
    /// Telemetry clock when the recorder was installed.
    pub start_ns: u64,
    /// Telemetry clock when it was removed.
    pub end_ns: u64,
}

/// Install a recorder on the calling thread; returns the window start.
pub fn begin(rank: usize) -> u64 {
    telemetry::begin_rank_with_capacity(rank, RING_CAPACITY);
    telemetry::now_ns()
}

/// Remove the calling thread's recorder and package what it recorded.
pub fn end(start_ns: u64) -> RankTrace {
    let end_ns = telemetry::now_ns();
    RankTrace {
        report: telemetry::finish_rank().unwrap_or_default(),
        start_ns,
        end_ns,
    }
}

impl RankTrace {
    /// Total duration of spans named `name`, seconds.
    pub fn span_s(&self, name: &str) -> f64 {
        self.report.phase_total_ns(name) as f64 * 1e-9
    }

    /// A counter's value, or a histogram's sum of samples.
    pub fn metric(&self, name: &str) -> f64 {
        let m = &self.report.metrics;
        if let Some(e) = m.get(name, MetricKind::Counter) {
            return e.scalar() as f64;
        }
        m.get(name, MetricKind::Histogram)
            .map_or(0.0, |e| e.values[telemetry::HISTOGRAM_BUCKETS + 1] as f64)
    }
}

/// Largest per-rank total of span `name`, seconds.
pub fn slowest_s(traces: &[RankTrace], name: &str) -> f64 {
    traces.iter().map(|t| t.span_s(name)).fold(0.0, f64::max)
}

/// Sum over ranks of counter (or histogram sum) `name`.
pub fn summed(traces: &[RankTrace], name: &str) -> f64 {
    traces.iter().map(|t| t.metric(name)).sum()
}

/// Largest per-rank value of counter (or histogram sum) `name`.
pub fn slowest_metric(traces: &[RankTrace], name: &str) -> f64 {
    traces.iter().map(|t| t.metric(name)).fold(0.0, f64::max)
}

/// True for the spans around the benchmark's output checks.
fn is_check(name: &str) -> bool {
    name.ends_with(".check")
}

/// True for spans the benchmark opens: layer metrics, op roots and
/// output checks.
fn is_ours(name: &str) -> bool {
    is_layer(name)
        || WORKLOADS
            .iter()
            .any(|w| name.strip_prefix(w).is_some_and(|r| r.starts_with('.')))
}

/// The benchmark's spans of one rank, sorted by start (outermost first
/// on ties), each with the op id of its root, its self time, and
/// whether it is a root (no enclosing benchmark span).
fn attributed(report: &RankReport) -> Vec<(SpanEvent, u64, u64, bool)> {
    let mut spans: Vec<SpanEvent> = report
        .spans
        .iter()
        .copied()
        .filter(|s| is_ours(s.name))
        .collect();
    spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
    let mut out: Vec<(SpanEvent, u64, u64, bool)> = Vec::with_capacity(spans.len());
    let mut stack: Vec<usize> = Vec::new();
    let mut op = 0u64;
    for s in spans {
        while let Some(&top) = stack.last() {
            let t = &out[top].0;
            if s.start_ns >= t.start_ns + t.dur_ns {
                stack.pop();
            } else {
                break;
            }
        }
        let id = match stack.last() {
            Some(&parent) => {
                out[parent].2 = out[parent].2.saturating_sub(s.dur_ns);
                out[parent].1
            }
            None => {
                op += 1;
                op
            }
        };
        let root = stack.is_empty();
        stack.push(out.len());
        out.push((s, id, s.dur_ns, root));
    }
    out
}

/// Self time per benchmark span name on one rank: `(calls, total ns,
/// self ns)`.
fn self_times(report: &RankReport) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, _, self_ns, _) in attributed(report) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns;
        e.2 += self_ns;
    }
    by_name
}

/// The per-layer self-time table of one rank and its unattributed share
/// of the traced wall time: self time of the op roots (work between
/// layer calls) plus time outside every benchmark span. Output checks
/// are the benchmark's own work and are listed apart.
pub fn self_time_table(t: &RankTrace) -> (String, f64) {
    let wall_ns = t.end_ns.saturating_sub(t.start_ns).max(1);
    let pct = |ns: u64| 100.0 * ns as f64 / wall_ns as f64;
    let times = self_times(&t.report);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "self time, rank {} (traced wall {:.1} ms)\n| span | calls | total ms | self ms | self % of wall |\n|---|---|---|---|---|",
        t.report.rank,
        wall_ns as f64 * 1e-6
    );
    let (mut layer_self, mut check_self, mut root_self) = (0u64, 0u64, 0u64);
    for (name, (calls, total, own)) in &times {
        let _ = writeln!(
            out,
            "| {name} | {calls} | {:.3} | {:.3} | {:.2} |",
            *total as f64 * 1e-6,
            *own as f64 * 1e-6,
            pct(*own)
        );
        if is_layer(name) {
            layer_self += own;
        } else if is_check(name) {
            check_self += own;
        } else {
            root_self += own;
        }
    }
    let covered: u64 = attributed(&t.report)
        .iter()
        .filter(|(_, _, _, root)| *root)
        .map(|(s, _, _, _)| s.dur_ns)
        .sum();
    let outside = wall_ns.saturating_sub(covered);
    let unattributed = root_self + outside;
    let _ = writeln!(
        out,
        "| (layer spans, self) | | | {:.3} | {:.2} |\n| (output checks, self) | | | {:.3} | {:.2} |\n| (op roots, self) | | | {:.3} | {:.2} |\n| (outside every span) | | | {:.3} | {:.2} |\n| unattributed = roots + outside | | | {:.3} | {:.2} |",
        layer_self as f64 * 1e-6,
        pct(layer_self),
        check_self as f64 * 1e-6,
        pct(check_self),
        root_self as f64 * 1e-6,
        pct(root_self),
        outside as f64 * 1e-6,
        pct(outside),
        unattributed as f64 * 1e-6,
        pct(unattributed)
    );
    (out, unattributed as f64 / wall_ns as f64)
}

fn is_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|(n, _)| *n == name)
}

/// Write every rank's spans as a Chrome trace (one track per rank);
/// each benchmark span carries the id of the op it belongs to.
pub fn write_chrome(path: &Path, traces: &[RankTrace]) -> std::io::Result<()> {
    let reports: Vec<RankReport> = traces.iter().map(|t| t.report.clone()).collect();
    let json = telemetry::chrome_trace(&reports);
    // chrome_trace emits each track's events sorted by (start, -dur);
    // replay that order to attach op ids to the benchmark's spans
    let mut ids: BTreeMap<usize, std::collections::VecDeque<Option<u64>>> = BTreeMap::new();
    for r in &reports {
        let mut spans = r.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
        let ours: BTreeMap<(u64, u64, &str), u64> = attributed(r)
            .into_iter()
            .map(|(s, id, _, _)| ((s.start_ns, s.dur_ns, s.name), id))
            .collect();
        ids.insert(
            r.rank,
            spans
                .iter()
                .map(|s| ours.get(&(s.start_ns, s.dur_ns, s.name)).copied())
                .collect(),
        );
    }
    let mut out = String::with_capacity(json.len() + json.len() / 8);
    for line in json.split_inclusive('\n') {
        let tid = line
            .strip_prefix("{\"ph\":\"X\",\"pid\":0,\"tid\":")
            .and_then(|rest| rest.split(',').next())
            .and_then(|t| t.parse::<usize>().ok());
        match tid
            .and_then(|t| ids.get_mut(&t))
            .and_then(|q| q.pop_front())
        {
            Some(Some(id)) => {
                out.push_str(&line.replacen("\"args\":{", &format!("\"args\":{{\"op\":{id},"), 1))
            }
            _ => out.push_str(line),
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

impl Wire for RankTrace {
    fn encode(&self, out: &mut Vec<u8>) {
        let r = &self.report;
        (r.rank as u64).encode(out);
        let spans: Vec<(String, u64, u64, u16)> = r
            .spans
            .iter()
            .map(|s| (s.name.to_string(), s.start_ns, s.dur_ns, s.depth))
            .collect();
        spans.encode(out);
        r.metrics.encode(out);
        (
            r.dropped_spans,
            r.nesting_errors,
            self.start_ns,
            self.end_ns,
        )
            .encode(out);
    }

    fn decode(rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rank = u64::decode(rd)? as usize;
        let spans = Vec::<(String, u64, u64, u16)>::decode(rd)?
            .into_iter()
            .map(|(name, start_ns, dur_ns, depth)| SpanEvent {
                name: telemetry::intern_name(&name),
                start_ns,
                dur_ns,
                depth,
            })
            .collect();
        let metrics = MetricsSnapshot::decode(rd)?;
        let (dropped_spans, nesting_errors, start_ns, end_ns) = <(u64, u64, u64, u64)>::decode(rd)?;
        Ok(RankTrace {
            report: RankReport {
                rank,
                spans,
                metrics,
                dropped_spans,
                nesting_errors,
            },
            start_ns,
            end_ns,
        })
    }
}

/// Append every rank's self-time table, record the worst unattributed
/// share, and write the Chrome trace.
pub fn finish(m: &mut Measured, cfg: &Config, workload: &str, traces: &[RankTrace]) {
    let mut worst = 0.0f64;
    for t in traces {
        let (table, unattributed) = self_time_table(t);
        m.lines.push(table);
        worst = worst.max(unattributed);
    }
    m.layers.insert("trace.unattributed_frac", worst);
    let path = cfg
        .out_dir
        .join(format!("trace-{workload}-seed{}.json", cfg.seed));
    match write_chrome(&path, traces) {
        Ok(()) => m.lines.push(format!("chrome trace: {}", path.display())),
        Err(e) => m.lines.push(format!("chrome trace not written: {e}")),
    }
}
