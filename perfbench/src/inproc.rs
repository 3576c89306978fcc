//! The in-process workloads: one caller runs jobs back to back through the
//! library API on a local cluster of one worker with two cores and
//! default work stealing.
//!
//! * `kclist-orkut`: KClist k=6 clique counting on Orkut-like graphs.
//! * `motifs-mico`: the unlabeled induced 4-motif census on Mico-like
//!   graphs, on the enumerate path (what `--plan enumerate` runs).
//!
//! Each run loads `GRAPHS` graphs made from the seed and cycles the jobs
//! over them, so one unusually cheap or dear instance moves the run's
//! figures less.

use crate::layers::{DriftCheck, Layers, WorkCounters};
use crate::measure::{self, median};
use crate::spans::Spans;
use crate::{end_to_end, oracle, save_spans, trace_overhead, Outcome, RunArgs, Tally};
use fractal::apps::{cliques, motifs};
use fractal::core::ExecutionReport;
use fractal::graph::Graph;
use fractal::pattern::CanonicalCode;
use fractal::prelude::{ClusterConfig, FractalContext, FractalGraph, TraceConfig};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Kclist,
    Motifs,
}

const GRAPHS: usize = 8;
const ORKUT_N: usize = 20_000;
const CLIQUE_K: usize = 6;
const MICO_N: usize = 200;
const MICO_LABELS: u32 = 4;
const MOTIF_K: usize = 4;

enum Reference {
    Count(u64),
    Hist(oracle::Histogram),
}

enum JobResult {
    Count(u64),
    Hist(oracle::Histogram),
}

impl JobResult {
    fn matches(&self, r: &Reference) -> bool {
        match (self, r) {
            (JobResult::Count(a), Reference::Count(b)) => a == b,
            (JobResult::Hist(a), Reference::Hist(b)) => a == b,
            _ => false,
        }
    }

    /// Useful results: cliques counted or embeddings aggregated.
    fn results(&self) -> u64 {
        match self {
            JobResult::Count(n) => *n,
            JobResult::Hist(h) => h.values().sum(),
        }
    }
}

/// The system state one set-up produces.
struct Loaded {
    plain: Vec<FractalGraph>,
    /// The same graphs behind a context with the flight recorder on
    /// (traced runs only).
    traced: Vec<FractalGraph>,
}

fn generate(kind: Kind, seed: u64) -> Graph {
    match kind {
        Kind::Kclist => fractal::graph::gen::orkut_like(ORKUT_N, seed),
        Kind::Motifs => fractal::graph::gen::mico_like(MICO_N, MICO_LABELS, seed),
    }
}

/// Runs one job and returns its result and report.
fn run_job(
    kind: Kind,
    fg: &FractalGraph,
    spans: &mut Spans,
    parent: usize,
    job: u64,
) -> (JobResult, ExecutionReport) {
    match kind {
        Kind::Kclist => {
            let (n, report) = spans.time("cliques.count_kclist", "core", Some(parent), job, || {
                cliques::count_kclist_with_report(fg, CLIQUE_K)
            });
            (JobResult::Count(n), report)
        }
        Kind::Motifs => {
            let fractoid = motifs::motifs_fractoid(fg, MOTIF_K, false);
            let report = spans.time("fractoid.execute", "core", Some(parent), job, || {
                fractoid.execute()
            });
            let hist = spans.time("fractoid.aggregation", "core", Some(parent), job, || {
                fractoid.aggregation::<CanonicalCode, u64>("motifs")
            });
            (JobResult::Hist(hist), report)
        }
    }
}

/// Generates the graphs, loads them and runs one warm-up job (on the
/// first graph: the job shape is the same on all of them).
fn set_up(
    kind: Kind,
    seeds: &[u64],
    refs: &[Reference],
    trace: bool,
    spans: &mut Spans,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Loaded {
    let plain_ctx = FractalContext::new(ClusterConfig::local(1, 2));
    let traced_ctx =
        FractalContext::new(ClusterConfig::local(1, 2).with_trace(TraceConfig::enabled()));
    let mut loaded = Loaded {
        plain: Vec::new(),
        traced: Vec::new(),
    };
    for &seed in seeds {
        let t = Instant::now();
        let g = Arc::new(spans.time("gen", "graph", None, 0, || generate(kind, seed)));
        layers.push("graph.build_ms", t.elapsed().as_secs_f64() * 1e3);
        if trace {
            loaded
                .traced
                .push(traced_ctx.fractal_graph_shared(Arc::clone(&g)));
        }
        loaded.plain.push(plain_ctx.fractal_graph_shared(g));
    }
    let root = spans.open("warm-up", "bench", None, 0);
    for fg in std::iter::once(&loaded.plain[0]).chain(loaded.traced.first()) {
        let (result, _) = run_job(kind, fg, spans, root, 0);
        tally.record(Some(result.matches(&refs[0])));
    }
    spans.close(root);
    loaded
}

pub fn run(args: &RunArgs, kind: Kind) -> Result<Outcome, String> {
    let seeds = crate::graph_seeds(args.seed, GRAPHS);

    // The oracle, before any timing and before the memory reset.
    let mut refs: Vec<Reference> = {
        let graphs: Vec<Graph> = match kind {
            Kind::Kclist => oracle::orkut_graphs(&seeds, ORKUT_N),
            Kind::Motifs => oracle::mico_graphs(&seeds, MICO_N, MICO_LABELS),
        };
        match kind {
            Kind::Kclist => oracle::cliques(&graphs, CLIQUE_K)
                .into_iter()
                .map(Reference::Count)
                .collect(),
            Kind::Motifs => oracle::motifs(&graphs, MOTIF_K)
                .into_iter()
                .map(Reference::Hist)
                .collect(),
        }
    };
    if args.plant_mismatch {
        match &mut refs[0] {
            Reference::Count(n) => *n += 1,
            Reference::Hist(h) => {
                if let Some(v) = h.values_mut().next() {
                    *v += 1;
                }
            }
        }
    }
    if !measure::reset_hwm() {
        eprintln!("perfbench: cannot reset VmHWM; peak_rss_mb includes the oracle");
    }

    let origin = Instant::now();
    let mut spans = Spans::new(args.trace, origin, 0);
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(crate::SETUP_REPS);
    let mut loaded = None;
    for _ in 0..crate::SETUP_REPS {
        drop(loaded.take());
        let t = Instant::now();
        loaded = Some(set_up(
            kind,
            &seeds,
            &refs,
            args.trace,
            &mut spans,
            &mut layers,
            &mut tally,
        ));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let loaded = loaded.expect("SETUP_REPS > 0");

    // The timed window. A traced run alternates traced and untraced jobs
    // over the same graphs, so the two halves see the same inputs.
    let mut lat_plain = Vec::new();
    let mut lat_traced = Vec::new();
    let mut drift = DriftCheck::default();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed() < args.window {
        let traced = args.trace && i % 2 == 1;
        let g = if args.trace {
            (i / 2) % GRAPHS
        } else {
            i % GRAPHS
        };
        let fg = if traced {
            &loaded.traced[g]
        } else {
            &loaded.plain[g]
        };
        let job = i as u64 + 1;
        spans.set_enabled(traced);
        let root = spans.open("job", "bench", None, job);
        let t = Instant::now();
        let (result, report) = run_job(kind, fg, &mut spans, root, job);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ok = spans.time("verify", "bench", Some(root), job, || {
            result.matches(&refs[g])
        });
        spans.close(root);
        tally.record(Some(ok));
        let step = &report.steps[0];
        drift.observe(&format!("graph{g}"), WorkCounters::of(step));
        if traced {
            lat_traced.push(ms);
            layers.push_report(step, result.results());
            layers.push_trace(step);
            if let JobResult::Hist(h) = &result {
                layers.push("core.agg_keys", h.len() as f64);
            }
        } else {
            lat_plain.push(ms);
        }
        i += 1;
    }
    let window_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = measure::vm_hwm_kb(None).unwrap_or(0) as f64 / 1024.0;
    spans.set_enabled(args.trace);

    let mut notes = drift.summary();
    notes.push(format!("jobs over {GRAPHS} graphs, seeds {seeds:?}"));
    let metrics = if args.trace {
        let traced_jobs = lat_traced.len().max(1) as f64;
        for (layer, ms) in spans.job_self_ms() {
            if let Some(name) = crate::layers::self_metric(layer) {
                layers.push(name, ms / traced_jobs);
            }
        }
        layers.push("counters.drift", drift.drifted() as f64);
        layers.push("trace.overhead", trace_overhead(&lat_traced, &lat_plain));
        save_spans(&spans, args);
        notes.push(format!(
            "traced p50 {:.3} ms over {} jobs, untraced p50 {:.3} ms over {} jobs",
            median(&lat_traced),
            lat_traced.len(),
            median(&lat_plain),
            lat_plain.len()
        ));
        layers.finish()
    } else {
        end_to_end(
            &setup_s,
            &lat_plain,
            lat_plain.len() as u64,
            window_s,
            peak_rss_mb,
            tally,
            &mut notes,
        )
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        wrong: tally.wrong,
        metrics,
        notes,
    })
}
