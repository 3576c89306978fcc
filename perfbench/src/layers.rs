//! The per-layer metrics of a traced run, and the deterministic work
//! counters that must repeat exactly for every job of one shape.

use crate::measure::{mean, Metric};
use fractal::runtime::{EventKind, JobReport};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Every per-layer metric, with its unit, in output order. Layers off a
/// workload's path report 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_ms", "ms"),
    ("kernels.calls", "count"),
    ("kernels.scanned", "count"),
    ("kernels.bitset_share", "ratio"),
    ("kernels.scanned_per_busy_us", "1/us"),
    ("enum.ec", "count"),
    ("enum.units", "count"),
    ("enum.results_per_kec", "ratio"),
    ("enum.arena_peak_kb", "KiB"),
    ("pattern.plan_compile_ms", "ms"),
    ("pattern.subpatterns", "count"),
    ("pattern.ie_terms", "count"),
    ("core.agg_keys", "count"),
    ("core.peak_state_kb", "KiB"),
    ("runtime.busy_ms", "ms"),
    ("runtime.idle_ms", "ms"),
    ("runtime.steal_ms", "ms"),
    ("runtime.utilization", "ratio"),
    ("runtime.imbalance", "ratio"),
    ("runtime.internal_steals", "count"),
    ("runtime.failed_steal_rounds", "count"),
    ("runtime.unit_p50_us", "us"),
    ("runtime.unit_max_us", "us"),
    ("net.job_blob_kb", "KiB"),
    ("net.encode_job_ms", "ms"),
    ("net.decode_job_ms", "ms"),
    ("net.external_steals", "count"),
    ("net.net_units", "count"),
    ("net.steal_bytes_kb", "KiB"),
    ("serve.admit_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.snapshot_warm_ms", "ms"),
    ("serve.rejected", "count"),
    ("journal.append_us", "us"),
    ("journal.bytes_per_job", "B"),
    ("client.reconnects", "count"),
    ("trace.overhead", "ratio"),
    ("span.bench.self_ms", "ms"),
    ("span.core.self_ms", "ms"),
    ("span.serve.self_ms", "ms"),
    ("span.net.self_ms", "ms"),
    ("counters.drift", "count"),
];

/// The per-layer metric carrying a span layer's self time per job.
pub fn self_metric(layer: &str) -> Option<&'static str> {
    match layer {
        "bench" => Some("span.bench.self_ms"),
        "core" => Some("span.core.self_ms"),
        "serve" => Some("span.serve.self_ms"),
        "net" => Some("span.net.self_ms"),
        _ => None,
    }
}

/// Per-job samples of each per-layer metric; the record reports their
/// mean (every job of a shape does the same work, so the mean is the
/// per-job value, and over a mix it is the per-job average).
#[derive(Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.samples.entry(name).or_default().push(value);
    }

    pub fn finish(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.samples.get(name).map_or(0.0, |v| mean(v)),
                unit,
            })
            .collect()
    }

    /// Counters every job report carries: kernels, enumerator, runtime
    /// and the cross-process steal path. `results` is the job's useful
    /// output (cliques counted, embeddings aggregated).
    pub fn push_report(&mut self, r: &JobReport, results: u64) {
        let (merge, gallop, bitset, scanned) = r.kernel_totals();
        let calls = merge + gallop + bitset;
        let busy_ns: u64 = r.cores.iter().map(|(_, c)| c.busy_ns).sum();
        let steal_ns: u64 = r.cores.iter().map(|(_, c)| c.steal_ns).sum();
        let sum = |f: fn(&fractal::runtime::CoreStats) -> u64| -> f64 {
            r.cores.iter().map(|(_, c)| f(c)).sum::<u64>() as f64
        };
        let ec = r.total_ec();
        let wall_ns = r.elapsed.as_nanos() as f64 * r.cores.len() as f64;
        self.push("kernels.calls", calls as f64);
        self.push("kernels.scanned", scanned as f64);
        self.push("kernels.bitset_share", ratio(bitset as f64, calls as f64));
        self.push(
            "kernels.scanned_per_busy_us",
            ratio(scanned as f64, busy_ns as f64 / 1e3),
        );
        self.push("enum.ec", ec as f64);
        self.push("enum.units", sum(|c| c.units));
        self.push(
            "enum.results_per_kec",
            ratio(results as f64 * 1e3, ec as f64),
        );
        self.push("enum.arena_peak_kb", r.arena_peak_bytes() as f64 / 1024.0);
        self.push(
            "core.peak_state_kb",
            r.worker_state_bytes().into_iter().max().unwrap_or(0) as f64 / 1024.0,
        );
        self.push("runtime.busy_ms", busy_ns as f64 / 1e6);
        self.push(
            "runtime.idle_ms",
            (wall_ns - busy_ns as f64 - steal_ns as f64).max(0.0) / 1e6,
        );
        self.push("runtime.steal_ms", steal_ns as f64 / 1e6);
        self.push("runtime.utilization", r.utilization());
        self.push("runtime.imbalance", r.imbalance());
        self.push("runtime.internal_steals", sum(|c| c.internal_steals));
        self.push(
            "runtime.failed_steal_rounds",
            sum(|c| c.failed_steal_rounds),
        );
        self.push("net.external_steals", sum(|c| c.external_steals));
        self.push("net.net_units", sum(|c| c.net_units));
        self.push("net.steal_bytes_kb", sum(|c| c.bytes_received) / 1024.0);
    }

    /// Per-unit service times, which only the flight recorder sees.
    pub fn push_trace(&mut self, r: &JobReport) {
        let Some(trace) = &r.trace else { return };
        let units_ns: Vec<f64> = trace
            .cores
            .iter()
            .flat_map(|core| &core.events)
            .filter(|e| e.kind == EventKind::UnitDone)
            .map(|e| e.b as f64)
            .collect();
        if !units_ns.is_empty() {
            let max = units_ns.iter().copied().fold(0.0, f64::max);
            self.push(
                "runtime.unit_p50_us",
                crate::measure::median(&units_ns) / 1e3,
            );
            self.push("runtime.unit_max_us", max / 1e3);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The work counters that depend only on the code and the input:
/// extension cost, kernel calls, elements scanned and the planner's
/// shape. Scheduling moves units between cores, never these totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCounters {
    pub ec: u64,
    pub kernel_calls: u64,
    pub kernel_scanned: u64,
    pub planner: (u64, u64, u64),
}

impl WorkCounters {
    pub fn of(r: &JobReport) -> WorkCounters {
        let (m, g, b, s) = r.kernel_totals();
        WorkCounters {
            ec: r.total_ec(),
            kernel_calls: m + g + b,
            kernel_scanned: s,
            planner: (
                r.planner.plans_compiled,
                r.planner.subpatterns_counted,
                r.planner.ie_terms,
            ),
        }
    }
}

/// Flags job shapes whose work counters differ between jobs of one run.
#[derive(Default)]
pub struct DriftCheck {
    first: HashMap<String, WorkCounters>,
    drifted: BTreeSet<String>,
}

impl DriftCheck {
    pub fn observe(&mut self, shape: &str, c: WorkCounters) {
        match self.first.get(shape) {
            None => {
                self.first.insert(shape.to_string(), c);
            }
            Some(first) if *first != c => {
                if self.drifted.insert(shape.to_string()) {
                    eprintln!("perfbench: work counters drifted on {shape}: {first:?} then {c:?}");
                }
            }
            Some(_) => {}
        }
    }

    pub fn drifted(&self) -> usize {
        self.drifted.len()
    }

    /// One line per shape: its counters, for splitting a later time
    /// change into "more work" and "slower work".
    pub fn summary(&self) -> Vec<String> {
        let mut shapes: Vec<_> = self.first.iter().collect();
        shapes.sort_by(|a, b| a.0.cmp(b.0));
        shapes
            .into_iter()
            .map(|(shape, c)| {
                format!(
                    "counters {shape}: ec={} kernel_calls={} kernel_scanned={} planner={:?}{}",
                    c.ec,
                    c.kernel_calls,
                    c.kernel_scanned,
                    c.planner,
                    if self.drifted.contains(shape) {
                        " DRIFTED"
                    } else {
                        ""
                    }
                )
            })
            .collect()
    }
}
