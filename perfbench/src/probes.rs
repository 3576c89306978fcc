//! Direct timings of single layer entry points, made in the traced run
//! outside the timed window: plan compilation, the job-blob codec and the
//! journal's durable append.

use crate::layers::Layers;
use crate::measure::median;
use fractal::graph::Graph;
use fractal::net::journal::Record;
use fractal::net::{blob, AppSpec, Journal};
use fractal::pattern::{CountingPlan, GraphStats};
use std::path::Path;
use std::time::Instant;

const REPS: usize = 5;

/// Times `CountingPlan::plan_motifs` for the serve mix's decomposed shape
/// (unlabeled 5-motifs) against `g`'s statistics, and records the plan's
/// shape.
pub fn plan_compile(g: &Graph, layers: &mut Layers) {
    let stats = GraphStats::of(g);
    let mut ms = Vec::with_capacity(REPS);
    let mut plan = None;
    for _ in 0..REPS {
        let t = Instant::now();
        plan = Some(std::hint::black_box(CountingPlan::plan_motifs(5, stats)));
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let c = plan.expect("REPS > 0").counters();
    layers.push("pattern.plan_compile_ms", median(&ms));
    layers.push("pattern.subpatterns", c.subpatterns_counted as f64);
    layers.push("pattern.ie_terms", c.ie_terms as f64);
}

/// Times the job-spec codec a cluster driver runs per snapshot: the blob
/// size and the encode and decode times of `app` over `g`.
pub fn job_blob(app: &AppSpec, g: &Graph, layers: &mut Layers) -> Result<(), String> {
    let mut enc = Vec::with_capacity(REPS);
    let mut dec = Vec::with_capacity(REPS);
    let mut len = 0;
    for _ in 0..REPS {
        let t = Instant::now();
        let bytes = std::hint::black_box(blob::encode_job(app, g));
        enc.push(t.elapsed().as_secs_f64() * 1e3);
        len = bytes.len();
        let t = Instant::now();
        let (app2, g2) = blob::decode_job(&bytes).map_err(|e| format!("decode_job: {e}"))?;
        dec.push(t.elapsed().as_secs_f64() * 1e3);
        if app2 != *app || g2.num_edges() != g.num_edges() {
            return Err("decode_job did not round-trip".into());
        }
    }
    layers.push("net.job_blob_kb", len as f64 / 1024.0);
    layers.push("net.encode_job_ms", median(&enc));
    layers.push("net.decode_job_ms", median(&dec));
    Ok(())
}

/// Times `Journal::append` (one fsynced record) on a fresh journal in
/// `dir`, over the record kinds a job writes.
pub fn journal_append(dir: &Path, layers: &mut Layers) -> Result<(), String> {
    let (mut journal, _) = Journal::open(dir).map_err(|e| format!("journal open: {e}"))?;
    let app = blob::encode_app_spec(&AppSpec::Kclist { k: 4 });
    let mut us = Vec::new();
    for job in 1..=4u64 {
        let records = [
            Record::JobAdmitted {
                job,
                token: format!("probe-{job}"),
                tenant: "probe".into(),
                priority: 0,
                submit_seq: job,
                snapshot: "gen:mico:700:1".into(),
                app: app.clone(),
            },
            Record::JobStarted { job },
            Record::WordSetCommitted {
                job,
                rounds_done: 1,
                count: 1,
                agg: vec![0; 256],
            },
            Record::JobFinished {
                job,
                count: 1,
                agg: vec![0; 256],
                report: vec![0; 1024],
            },
        ];
        for rec in &records {
            let t = Instant::now();
            journal
                .append(rec)
                .map_err(|e| format!("journal append: {e}"))?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    layers.push("journal.append_us", median(&us));
    Ok(())
}
