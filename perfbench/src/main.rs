//! The repository benchmark: end-to-end job latency, throughput, set-up
//! time and memory of fractal GPM jobs, plus a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kclist-orkut|motifs-mico|serve-mix> --seed <n> \
//!     --seconds <s> --trace <0|1> [--plant-mismatch]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run it from the repository root. Every workload is a closed loop: the
//! next job is sent only after the previous one completed. Every job's
//! result is compared with a reference the single-thread baselines compute
//! before timing starts. The last line of standard output is one JSON
//! record; with `--trace 0` it carries the end-to-end metrics, with
//! `--trace 1` the per-layer metrics. A job that fails, is rejected,
//! times out or returns a wrong result makes the record say
//! `"correct": false` and the command exit with code 1. `README.md` in this
//! directory lists the workloads, the metrics and which layer metric is
//! expected to move which end-to-end metric.

mod inproc;
mod layers;
mod measure;
mod oracle;
mod probes;
mod serve_mix;
mod spans;

use measure::{median, tail, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// Set-ups per run; the record reports their median.
pub const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    KclistOrkut,
    MotifsMico,
    ServeMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "kclist-orkut" => Some(Workload::KclistOrkut),
            "motifs-mico" => Some(Workload::MotifsMico),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::KclistOrkut => "kclist-orkut",
            Workload::MotifsMico => "motifs-mico",
            Workload::ServeMix => "serve-mix",
        }
    }
}

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Corrupt one expected value, to prove mismatches are caught.
    pub plant_mismatch: bool,
    /// Scratch directory of this run inside the checkout.
    pub run_dir: PathBuf,
}

/// What a workload hands back for the record.
pub struct Outcome {
    pub attempted: u64,
    /// Jobs failed, rejected, timed out or wrong.
    pub failed: u64,
    /// Jobs whose result differed from the reference.
    pub wrong: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the record.
    pub notes: Vec<String>,
}

/// Job accounting shared by the workloads.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    /// Counts one job; `ok` is `Some(correct)` when it produced a result.
    pub fn record(&mut self, ok: Option<bool>) {
        self.attempted += 1;
        match ok {
            Some(true) => {}
            Some(false) => {
                self.failed += 1;
                self.wrong += 1;
            }
            None => self.failed += 1,
        }
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(
    setup_s: &[f64],
    latencies_ms: &[f64],
    completed: u64,
    window_s: f64,
    peak_rss_mb: f64,
    tally: Tally,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let t = tail(latencies_ms);
    notes.push(format!(
        "job_tail_ms is p{:.1} of {} timed jobs ({} beyond it); setup_s is the median of {:.3?} s",
        t.percentile, t.samples, t.beyond, setup_s
    ));
    notes.push(format!(
        "failed_share {:.6} ({} of {} jobs failed, rejected, timed out or wrong)",
        if tally.attempted > 0 {
            tally.failed as f64 / tally.attempted as f64
        } else {
            0.0
        },
        tally.failed,
        tally.attempted
    ));
    vec![
        Metric {
            name: "setup_s",
            value: median(setup_s),
            unit: "s",
        },
        Metric {
            name: "job_p50_ms",
            value: median(latencies_ms),
            unit: "ms",
        },
        Metric {
            name: "job_tail_ms",
            value: t.value,
            unit: "ms",
        },
        Metric {
            name: "jobs_per_s",
            value: if window_s > 0.0 {
                completed as f64 / window_s
            } else {
                0.0
            },
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
        },
    ]
}

/// `trace.overhead`: traced median latency over untraced, minus one.
pub fn trace_overhead(traced_ms: &[f64], untraced_ms: &[f64]) -> f64 {
    let base = median(untraced_ms);
    if base > 0.0 {
        median(traced_ms) / base - 1.0
    } else {
        0.0
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <kclist-orkut|motifs-mico|serve-mix> --seed <n> \
         --seconds <s> --trace <0|1> [--plant-mismatch]\n       perfbench --self-test"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(serve_mix::WORKER_ARG) => return serve_mix::worker_main(),
        Some(serve_mix::SETUP_ARG) => return serve_mix::setup_main(&args[1..]),
        _ => {}
    }
    if args.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut plant_mismatch = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        match flag.as_str() {
            "--workload" => workload = value().and_then(Workload::parse),
            "--seed" => seed = value().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = value().and_then(|v| v.parse::<u64>().ok()),
            "--trace" => {
                trace = match value() {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                }
            }
            "--plant-mismatch" => plant_mismatch = true,
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    if seconds == 0 {
        return usage();
    }
    let root = std::env::current_dir().expect("current directory is readable");
    let run_dir =
        root.join(".perfbench-run")
            .join(format!("{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let run = RunArgs {
        workload,
        seed,
        window: Duration::from_secs(seconds),
        trace,
        plant_mismatch,
        run_dir,
    };
    let result = match workload {
        Workload::KclistOrkut => inproc::run(&run, inproc::Kind::Kclist),
        Workload::MotifsMico => inproc::run(&run, inproc::Kind::Motifs),
        Workload::ServeMix => serve_mix::run(&run),
    };
    let _ = std::fs::remove_dir_all(&run.run_dir);
    if let Some(parent) = run.run_dir.parent() {
        // Succeeds only when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let outcome = match result {
        Ok(o) if o.attempted > 0 => o,
        Ok(_) => {
            eprintln!("perfbench: {}: no job was attempted", workload.name());
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!("perfbench stamp {}", measure::stamp(&root));
    println!(
        "perfbench workload {} seed {seed} seconds {seconds} trace {}",
        workload.name(),
        u8::from(trace)
    );
    for note in &outcome.notes {
        println!("perfbench {note}");
    }
    // Any job that failed, was rejected, timed out or was wrong fails
    // the run: such jobs leave the latency samples, so letting them pass
    // would let a change that breaks jobs look like a speed-up.
    let correct = outcome.failed == 0;
    println!(
        "{}",
        measure::result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} job(s) failed, were rejected or timed out, and {} differed \
             from the reference",
            outcome.failed - outcome.wrong,
            outcome.attempted,
            outcome.wrong
        );
        ExitCode::FAILURE
    }
}

/// Runs every workload briefly with one planted wrong expected value and
/// checks that each run reports the mismatch and exits non-zero.
fn self_test() -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in ["kclist-orkut", "motifs-mico", "serve-mix"] {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                w,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--plant-mismatch",
            ])
            .stderr(std::process::Stdio::null())
            .output();
        let caught = match &out {
            Ok(o) => {
                let stdout = String::from_utf8_lossy(&o.stdout);
                let last = stdout.lines().last().unwrap_or("");
                !o.status.success()
                    && last.contains("\"correct\": false")
                    && !last.contains("\"failed\": 0,")
            }
            Err(_) => false,
        };
        println!(
            "self-test {w}: planted mismatch {}",
            if caught { "reported" } else { "NOT reported" }
        );
        ok &= caught;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Derives the seeds of a workload's input graphs from the run seed.
pub fn graph_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = measure::Rng::new(seed ^ 0x6772_6170_6873);
    (0..n).map(|_| rng.next_u64() >> 16).collect()
}

/// Writes the span log of a traced run where it survives the run.
pub fn save_spans(spans: &spans::Spans, run: &RunArgs) {
    let dir = run
        .run_dir
        .parent()
        .and_then(Path::parent)
        .map(|root| root.join(".perfbench-out"));
    if let Some(dir) = dir {
        let path = dir.join(format!("spans-{}-{}.jsonl", run.workload.name(), run.seed));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| spans.write_jsonl(&path)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}
