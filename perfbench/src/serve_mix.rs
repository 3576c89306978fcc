//! The `serve-mix` workload: an in-process `fractal serve` daemon with
//! its journal on, driving two local worker processes of one core each,
//! loaded by two client connections (one per tenant) that each run a
//! closed loop over a seeded, fixed-weight job mix.
//!
//! Workers are this binary re-executed in worker mode, which runs the same
//! `fractal::net::serve` loop as `fractal worker`. Each worker exits when
//! its stdin closes, so it cannot outlive the benchmark on any exit path,
//! panics and signals included; the benchmark also shuts the workers down,
//! kills stragglers and waits for each of them before it returns.

use crate::layers::{DriftCheck, Layers, WorkCounters};
use crate::measure::{self, median, Rng};
use crate::oracle::{self, MixRefs};
use crate::spans::Spans;
use crate::{end_to_end, probes, save_spans, trace_overhead, Outcome, RunArgs, Tally};
use fractal::graph::Graph;
use fractal::net::serve::shutdown_workers;
use fractal::net::{blob, load_snapshot, AppSpec, Client, JobTerminal, ReconnectPolicy};
use fractal::net::{EventKind, ServeConfig, Server};
use fractal::runtime::JobReport;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// First argument that switches this binary into worker mode.
pub const WORKER_ARG: &str = "__worker";
/// First argument that switches this binary into set-up mode.
pub const SETUP_ARG: &str = "__setup";

const WORKERS: usize = 2;
const WORKER_CORES: usize = 1;
const CLIENTS: usize = 2;
const FSM_SUPPORT: u64 = 100;
/// Two edges, not three: whether a third round has work depends on
/// whether any 2-edge pattern clears the support, which jumps between
/// graph instances (one seed's eight snapshots cost twice another's).
const FSM_EDGES: u32 = 2;
const MICO_N: usize = 700;
/// Mico-like snapshots per seed. FSM cost jumps with the seed (which
/// patterns clear the support threshold), so FSM and KClist k=4 jobs cycle
/// over several snapshots and the run sees their average.
const MICO_VARIANTS: usize = 8;
const PATENTS_N: usize = 100;
/// Patents-like snapshots per seed, cycled by the 5-motif jobs, whose
/// latency the mix's median falls on.
const PATENTS_VARIANTS: usize = 4;
const ORKUT_N: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    /// KClist k=4 on the Mico-like snapshot: tiny compute, substrate-bound.
    Kclist4,
    /// FSM on the same snapshots: one driver round per pattern size, FSM
    /// map blobs and a journal commit per round.
    Fsm,
    /// Decomposed 5-motifs on the Patents-like snapshot: plan compile and
    /// the plan-totals codec on the workers.
    Motifs5,
    /// KClist k=5 on the Orkut-like snapshot: the heaviest job, with
    /// cross-process steal relays.
    Kclist5,
}

/// Jobs of each shape in every block of the seeded schedule. Sorted by
/// latency the shapes form separate modes; these weights put the median
/// inside the 5-motif mode and the tail inside the KClist k=5 mode, away
/// from the edges between modes, where a small shift in the mix would
/// move the percentile a long way.
const MIX: [(Shape, usize); 4] = [
    (Shape::Kclist4, 2),
    (Shape::Fsm, 1),
    (Shape::Motifs5, 4),
    (Shape::Kclist5, 2),
];

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Kclist4 => "kclist4-mico",
            Shape::Fsm => "fsm-mico",
            Shape::Motifs5 => "motifs5-patents",
            Shape::Kclist5 => "kclist5-orkut",
        }
    }

    fn app(self) -> AppSpec {
        match self {
            Shape::Kclist4 => AppSpec::Kclist { k: 4 },
            Shape::Fsm => AppSpec::Fsm {
                min_support: FSM_SUPPORT,
                max_edges: FSM_EDGES,
            },
            Shape::Motifs5 => AppSpec::Motifs {
                k: 5,
                use_labels: false,
                decomposed: true,
            },
            Shape::Kclist5 => AppSpec::Kclist { k: 5 },
        }
    }

    /// Snapshots the shape cycles over.
    fn variants(self) -> usize {
        match self {
            Shape::Kclist4 | Shape::Fsm => MICO_VARIANTS,
            Shape::Motifs5 => PATENTS_VARIANTS,
            Shape::Kclist5 => 1,
        }
    }

    fn snapshot(self, seed: u64, variant: usize) -> String {
        let s = seed.wrapping_mul(self.variants() as u64) + variant as u64;
        match self {
            Shape::Kclist4 | Shape::Fsm => format!("gen:mico:{MICO_N}:{s}"),
            Shape::Motifs5 => format!("gen:patents:{PATENTS_N}:{s}"),
            Shape::Kclist5 => format!("gen:orkut:{ORKUT_N}:{s}"),
        }
    }
}

/// The first shape on each snapshot: its warm-up job loads the snapshot.
const FIRST_TOUCH: [Shape; 3] = [Shape::Kclist4, Shape::Motifs5, Shape::Kclist5];

/// `trace.overhead` over the mix: each shape's traced over untraced
/// median latency, minus one, weighted by the shape's share of the mix
/// (shapes differ in latency by two orders of magnitude, so one pooled
/// median would compare different shapes).
fn mix_overhead(by_shape: &HashMap<(Shape, bool), Vec<f64>>) -> f64 {
    let mut sum = 0.0;
    let mut weight = 0.0;
    for &(shape, w) in &MIX {
        if let (Some(t), Some(u)) = (by_shape.get(&(shape, true)), by_shape.get(&(shape, false))) {
            sum += w as f64 * trace_overhead(t, u);
            weight += w as f64;
        }
    }
    if weight > 0.0 {
        sum / weight
    } else {
        0.0
    }
}

// ---- worker processes ----

/// Exits the process once its stdin closes. The parent holds a child's
/// stdin open for as long as it wants the child; EOF means the parent is
/// gone or done, so the child leaves even if its work hangs.
fn exit_on_stdin_eof() {
    std::thread::spawn(|| {
        let _ = io::copy(&mut io::stdin(), &mut io::sink());
        std::process::exit(0);
    });
}

/// Worker mode: `perfbench __worker`. Prints `LISTENING <addr>`, serves
/// one daemon connection, and exits when its stdin closes.
pub fn worker_main() -> ExitCode {
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench worker: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("LISTENING {addr}");
    let _ = io::stdout().flush();
    exit_on_stdin_eof();
    match fractal::net::serve(&listener, WORKER_CORES) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker: session failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Worker and set-up processes of this binary that are still alive.
fn stray_workers(exe: &Path) -> Vec<u32> {
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| pid != me)
        .filter(|pid| {
            let Ok(cmdline) = std::fs::read(format!("/proc/{pid}/cmdline")) else {
                return false;
            };
            let mut argv = cmdline.split(|&b| b == 0);
            argv.next() == Some(exe.as_os_str().as_encoded_bytes())
                && matches!(argv.next(), Some(a) if a == WORKER_ARG.as_bytes() || a == SETUP_ARG.as_bytes())
        })
        .collect()
}

/// A child process of this binary, in worker or set-up mode, with its
/// stdin held open and its stdout piped.
struct Subprocess {
    child: Child,
    /// Kept open (a worker's is never read past the banner) so the child
    /// never sees a closed stdout.
    stdout: BufReader<ChildStdout>,
}

impl Subprocess {
    fn spawn(exe: &Path, args: &[&str]) -> io::Result<Subprocess> {
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Subprocess { child, stdout })
    }
}

impl Drop for Subprocess {
    /// Kills the child if it is still running and always reaps it, so no
    /// path out of set-up or teardown leaves a child behind.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_worker(exe: &Path) -> io::Result<(Subprocess, SocketAddr)> {
    let mut worker = Subprocess::spawn(exe, &[WORKER_ARG])?;
    let mut line = String::new();
    worker.stdout.read_line(&mut line)?;
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| io::Error::other(format!("worker banner {line:?}")))?;
    Ok((worker, addr))
}

// ---- the daemon ----

/// A running daemon with its workers. Dropping it shuts everything down
/// and waits for it, on success, error and unwinding alike.
struct Daemon {
    server: Arc<Server>,
    workers: Vec<Subprocess>,
    addr: SocketAddr,
    /// A second handle on the client listener, used to stop the accept
    /// loop.
    waker: TcpListener,
    accept: Option<JoinHandle<io::Result<()>>>,
    journal_dir: PathBuf,
}

impl Daemon {
    fn start(exe: &Path, journal_dir: PathBuf) -> io::Result<Daemon> {
        let mut workers = Vec::with_capacity(WORKERS);
        let mut streams = Vec::with_capacity(WORKERS);
        for i in 0..WORKERS {
            let (w, addr) = spawn_worker(exe)?;
            workers.push(w);
            streams.push((TcpStream::connect(addr)?, format!("local{i}")));
        }
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let waker = listener.try_clone()?;
        let config = ServeConfig {
            journal_dir: Some(journal_dir.clone()),
            ..ServeConfig::default()
        };
        let server = Arc::new(Server::bind(listener, streams, config)?);
        let addr = server.local_addr()?;
        let runner = Arc::clone(&server);
        let accept = Some(std::thread::spawn(move || runner.run()));
        Ok(Daemon {
            server,
            workers,
            addr,
            waker,
            accept,
            journal_dir,
        })
    }

    /// Summed `VmHWM` of the worker processes, in KiB.
    fn workers_hwm_kb(&self) -> u64 {
        self.workers
            .iter()
            .filter_map(|w| measure::vm_hwm_kb(Some(w.child.id())))
            .sum()
    }

    fn journal_bytes(&self) -> u64 {
        std::fs::read_dir(&self.journal_dir)
            .map(|d| {
                d.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        shutdown_workers(&self.server);
        let deadline = Instant::now() + Duration::from_secs(2);
        for w in &mut self.workers {
            while matches!(w.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        self.workers.clear();
        // `Server::run` returns when accept fails: make the shared socket
        // non-blocking, then wake the blocked accept with one connection.
        // The next accept reports WouldBlock and the loop ends.
        if self.waker.set_nonblocking(true).is_ok() {
            drop(TcpStream::connect(self.addr));
            if let Some(h) = self.accept.take() {
                let deadline = Instant::now() + Duration::from_secs(2);
                while !h.is_finished() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(5));
                }
                if h.is_finished() {
                    let _ = h.join();
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.journal_dir);
    }
}

// ---- jobs ----

/// What one client observed for one job.
struct JobRecord {
    shape: Shape,
    variant: usize,
    /// `Some(correct)` when the job produced a result.
    ok: Option<bool>,
    rejected: bool,
    latency_ms: f64,
    admit_ms: f64,
    queue_ms: f64,
    run_ms: f64,
    result_ms: f64,
    report: Option<JobReport>,
    results: u64,
    agg_keys: usize,
    /// Count and aggregation blob of a job that finished but was not
    /// checked here (set-ups in a child process); the parent checks them.
    raw: Option<(u64, Vec<u8>)>,
}

fn elapsed_ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

fn check(
    shape: Shape,
    variant: usize,
    count: u64,
    agg: &[u8],
    refs: &MixRefs,
) -> Result<(bool, u64, usize), String> {
    Ok(match shape {
        Shape::Kclist4 => (count == refs.kclist4[variant], count, 0),
        Shape::Kclist5 => (count == refs.kclist5, count, 0),
        Shape::Motifs5 => {
            let h = blob::decode_motifs_map(agg).map_err(|e| format!("motifs blob: {e}"))?;
            (h == refs.motifs5[variant], h.values().sum(), h.len())
        }
        Shape::Fsm => {
            let rounds = blob::decode_fsm_seeds(agg).map_err(|e| format!("fsm blob: {e}"))?;
            let got: oracle::Histogram = rounds
                .iter()
                .flat_map(|m| m.iter().map(|(c, s)| (c.clone(), s.support())))
                .collect();
            (got == refs.fsm[variant], count, got.len())
        }
    })
}

/// The run's inputs every job needs: the seed its snapshots come from and
/// the references its results are checked against (none in a set-up
/// child, which hands its results to the parent instead).
struct Mix<'a> {
    seed: u64,
    refs: Option<&'a MixRefs>,
}

/// One submission.
struct JobSpec<'a> {
    shape: Shape,
    variant: usize,
    tenant: &'a str,
    /// Idempotency token, unique per daemon.
    token: String,
    /// Span job id (0 for set-up work).
    job: u64,
}

/// Submits one job and follows it to its result, timing the client-side
/// spans Accepted → Running → Done and the result fetch.
fn run_job(
    client: &mut Client,
    mix: &Mix,
    spec: &JobSpec,
    spans: &mut Spans,
) -> io::Result<JobRecord> {
    let JobSpec {
        shape,
        variant,
        tenant,
        ref token,
        job,
    } = *spec;
    let policy = ReconnectPolicy {
        read_timeout: Duration::from_secs(60),
        max_attempts: 5,
        ..ReconnectPolicy::default()
    };
    let mut rec = JobRecord {
        shape,
        variant,
        ok: None,
        rejected: false,
        latency_ms: 0.0,
        admit_ms: 0.0,
        queue_ms: 0.0,
        run_ms: 0.0,
        result_ms: 0.0,
        report: None,
        results: 0,
        agg_keys: 0,
        raw: None,
    };
    let root = spans.open(shape.name(), "bench", None, job);
    let t_submit = Instant::now();
    let submitted = spans.time("client.submit", "serve", Some(root), job, || {
        client.submit(
            tenant,
            0,
            &shape.snapshot(mix.seed, variant),
            &shape.app(),
            token,
        )
    });
    let t_accepted = Instant::now();
    rec.admit_ms = elapsed_ms(t_submit, t_accepted);
    let id = match submitted {
        Ok(id) => id,
        Err(e) if e.kind() == io::ErrorKind::Other => {
            // The daemon answered with a rejection event.
            rec.rejected = true;
            spans.close(root);
            return Ok(rec);
        }
        Err(e) => return Err(e),
    };
    let mut t_running = None;
    let terminal = spans.time("client.wait", "serve", Some(root), job, || {
        client.wait_resumable(id, &policy, |kind, _, _| {
            if kind == EventKind::Running && t_running.is_none() {
                t_running = Some(Instant::now());
            }
        })
    })?;
    let t_done = Instant::now();
    let t_running = t_running.unwrap_or(t_accepted);
    rec.latency_ms = elapsed_ms(t_submit, t_done);
    rec.queue_ms = elapsed_ms(t_accepted, t_running);
    rec.run_ms = elapsed_ms(t_running, t_done);
    if !matches!(terminal, JobTerminal::Done { .. }) {
        eprintln!("perfbench: job {id} ({}) ended {terminal:?}", shape.name());
        spans.close(root);
        return Ok(rec);
    }
    let (count, agg, report) =
        spans.time("client.fetch_result", "serve", Some(root), job, || {
            client.fetch_result(id)
        })?;
    rec.result_ms = elapsed_ms(t_done, Instant::now());
    if let Some(refs) = mix.refs {
        let checked = spans.time("decode+verify", "net", Some(root), job, || {
            check(shape, variant, count, &agg, refs)
        });
        match checked {
            Ok((ok, results, keys)) => {
                rec.ok = Some(ok);
                rec.results = results;
                rec.agg_keys = keys;
            }
            Err(e) => {
                eprintln!("perfbench: job {id}: {e}");
                rec.ok = Some(false);
            }
        }
    } else {
        rec.raw = Some((count, agg));
    }
    rec.report = spans.time("blob.decode_report", "net", Some(root), job, || {
        blob::decode_report(&report).ok()
    });
    spans.close(root);
    Ok(rec)
}

/// The seeded schedule of one client: blocks holding each shape its fixed
/// number of times, each block shuffled.
fn schedule(seed: u64, client: usize, len: usize) -> Vec<Shape> {
    let mut rng = Rng::new(seed ^ (0x636c_6965_6e74 + client as u64));
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut block: Vec<Shape> = MIX
            .iter()
            .flat_map(|&(s, n)| std::iter::repeat_n(s, n))
            .collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out.truncate(len);
    out
}

/// One client's share of the timed window.
struct ClientRun {
    jobs: Vec<(JobRecord, bool)>,
    reconnects: u64,
    spans: Spans,
    error: Option<String>,
}

fn client_loop(
    mut client: Client,
    index: usize,
    mix: &Mix,
    trace: bool,
    start: Instant,
    window: Duration,
) -> ClientRun {
    let tenant = format!("tenant{index}");
    let mut run = ClientRun {
        jobs: Vec::new(),
        reconnects: 0,
        spans: Spans::new(false, start, index),
        error: None,
    };
    // A traced run traces every other job of each shape, so traced and
    // untraced jobs see the same mix. Each shape walks its snapshots
    // round robin, the clients starting half-way apart, so a run touches
    // every snapshot about equally.
    let mut seen: HashMap<Shape, usize> = HashMap::new();
    // Far more entries than a window can use; the loop stops on time.
    for (i, shape) in schedule(mix.seed, index, 100_000).into_iter().enumerate() {
        if start.elapsed() >= window {
            break;
        }
        let nth = seen.entry(shape).or_insert(0);
        let traced = trace && *nth % 2 == 1;
        let step = if trace { *nth / 2 } else { *nth };
        let variant = (step + index * shape.variants() / CLIENTS) % shape.variants();
        *nth += 1;
        run.spans.set_enabled(traced);
        let spec = JobSpec {
            shape,
            variant,
            tenant: &tenant,
            token: format!("perfbench-{}-{index}-{i}", mix.seed),
            job: ((index as u64) << 32) | (i as u64 + 1),
        };
        match run_job(&mut client, mix, &spec, &mut run.spans) {
            Ok(rec) => run.jobs.push((rec, traced)),
            Err(e) => {
                run.error = Some(format!("client {index}: {e}"));
                break;
            }
        }
    }
    run.reconnects = client.reconnects();
    run
}

/// One set-up: workers, daemon, client connections, and one warm-up job
/// per shape, whose first touch of each snapshot loads it.
struct Ready {
    daemon: Daemon,
    clients: Vec<Client>,
    /// The warm-up jobs, one per shape in `MIX` order.
    warm: Vec<JobRecord>,
}

fn set_up(exe: &Path, journal_dir: PathBuf, mix: &Mix) -> Result<Ready, String> {
    let daemon = Daemon::start(exe, journal_dir).map_err(|e| format!("daemon start: {e}"))?;
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(daemon.addr))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("client connect: {e}"))?;
    let mut ready = Ready {
        daemon,
        clients,
        warm: Vec::with_capacity(MIX.len()),
    };
    let mut spans = Spans::new(false, Instant::now(), 0);
    for (i, &(shape, _)) in MIX.iter().enumerate() {
        let c = i % CLIENTS;
        let tenant = format!("tenant{c}");
        let spec = JobSpec {
            shape,
            variant: 0,
            tenant: &tenant,
            token: format!("perfbench-warm-{}-{i}", mix.seed),
            job: 0,
        };
        let rec = run_job(&mut ready.clients[c], mix, &spec, &mut spans)
            .map_err(|e| format!("warm-up {}: {e}", shape.name()))?;
        ready.warm.push(rec);
    }
    Ok(ready)
}

/// Set-up mode: `perfbench __setup <seed> <journal-dir>`. Makes one
/// `serve-mix` set-up in a process of its own and prints `SETUP <s>`,
/// then one `WARM <shape> <variant> <count> <hex blob>` line per warm-up
/// job (`WARM <shape> <variant> failed` for a job without a result), for
/// the parent to check. The daemon of a set-up cannot be freed in its
/// process (the scheduler thread keeps it alive), so the set-ups that are
/// only timed run here and leave the measured process's memory alone.
pub fn setup_main(args: &[String]) -> ExitCode {
    let (Some(seed), Some(dir)) = (args.first().and_then(|s| s.parse().ok()), args.get(1)) else {
        eprintln!("usage: perfbench {SETUP_ARG} <seed> <journal-dir>");
        return ExitCode::from(2);
    };
    exit_on_stdin_eof();
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench set-up: own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mix = Mix { seed, refs: None };
    let t = Instant::now();
    let ready = match set_up(&exe, PathBuf::from(dir), &mix) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench set-up: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("SETUP {}", t.elapsed().as_secs_f64());
    for rec in &ready.warm {
        match &rec.raw {
            Some((count, agg)) => {
                let hex: String = agg.iter().map(|b| format!("{b:02x}")).collect();
                println!("WARM {} {} {count} {hex}", rec.shape.name(), rec.variant);
            }
            None => println!("WARM {} {} failed", rec.shape.name(), rec.variant),
        }
    }
    let _ = io::stdout().flush();
    ExitCode::SUCCESS
}

/// Runs one set-up in a child process (see `setup_main`) and returns its
/// time and, for each warm-up job, `Some(correct)` or `None` when the job
/// had no result.
fn set_up_in_child(
    exe: &Path,
    seed: u64,
    journal_dir: &Path,
    refs: &MixRefs,
) -> Result<(f64, Vec<Option<bool>>), String> {
    let dir = journal_dir.to_string_lossy();
    let mut child = Subprocess::spawn(exe, &[SETUP_ARG, &seed.to_string(), &dir])
        .map_err(|e| format!("set-up child: {e}"))?;
    let mut out = String::new();
    child
        .stdout
        .read_to_string(&mut out)
        .map_err(|e| format!("set-up child: {e}"))?;
    let status = child
        .child
        .wait()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !status.success() {
        return Err(format!("set-up child exited with {status}"));
    }
    let mut secs = None;
    let mut warm = Vec::new();
    for line in out.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            ["SETUP", s] => secs = s.parse().ok(),
            ["WARM", _, _, "failed"] => warm.push(None),
            ["WARM", name, variant, count, hex] => {
                let shape = MIX.iter().map(|&(s, _)| s).find(|s| s.name() == *name);
                let parsed = (shape, variant.parse().ok(), count.parse().ok(), unhex(hex));
                let (Some(shape), Some(variant), Some(count), Some(agg)) = parsed else {
                    return Err(format!("set-up child: bad line {line:?}"));
                };
                let ok = match check(shape, variant, count, &agg, refs) {
                    Ok((ok, _, _)) => ok,
                    Err(e) => {
                        eprintln!("perfbench: set-up warm-up {name}: {e}");
                        false
                    }
                };
                warm.push(Some(ok));
            }
            _ => return Err(format!("set-up child: bad line {line:?}")),
        }
    }
    match secs {
        Some(s) if warm.len() == MIX.len() => Ok((s, warm)),
        _ => Err(format!("set-up child: incomplete output {out:?}")),
    }
}

/// Decodes a hex string; an odd length leaves a short last pair and fails.
fn unhex(s: &str) -> Option<Vec<u8>> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(s.get(i..i + 2)?, 16).ok())
        .collect()
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let strays = stray_workers(&exe);
    if !strays.is_empty() {
        return Err(format!(
            "refusing to start: child processes of an earlier run are alive: {strays:?}"
        ));
    }
    let seed = args.seed;

    // The oracle, on graphs loaded from the same specs the daemon gets.
    let load = |shape: Shape, variant: usize| -> Result<Graph, String> {
        load_snapshot(&shape.snapshot(seed, variant)).map_err(|e| e.to_string())
    };
    let mut refs = {
        let micos = (0..MICO_VARIANTS)
            .map(|v| load(Shape::Fsm, v))
            .collect::<Result<Vec<_>, _>>()?;
        let patents = (0..PATENTS_VARIANTS)
            .map(|v| load(Shape::Motifs5, v))
            .collect::<Result<Vec<_>, _>>()?;
        let orkut = load(Shape::Kclist5, 0)?;
        oracle::serve_mix(&micos, &patents, &orkut, FSM_SUPPORT, FSM_EDGES as usize)?
    };
    if args.plant_mismatch {
        refs.kclist4[0] += 1;
    }
    let mix = Mix {
        seed,
        refs: Some(&refs),
    };
    if !measure::reset_hwm() {
        eprintln!("perfbench: cannot reset VmHWM; peak_rss_mb includes the oracle");
    }

    // All set-ups but the last run in child processes; the last one is
    // the daemon the timed window uses.
    let mut tally = Tally::default();
    let mut setup_s = Vec::with_capacity(crate::SETUP_REPS);
    for rep in 1..crate::SETUP_REPS {
        let journal_dir = args.run_dir.join(format!("journal-{rep}"));
        let (secs, warm) = set_up_in_child(&exe, seed, &journal_dir, &refs)?;
        setup_s.push(secs);
        for ok in warm {
            tally.record(ok);
        }
    }
    let t = Instant::now();
    let Ready {
        daemon,
        mut clients,
        warm,
    } = set_up(&exe, args.run_dir.join("journal-0"), &mix)?;
    setup_s.push(t.elapsed().as_secs_f64());
    let mut cold_run_ms = HashMap::new();
    for rec in &warm {
        tally.record(rec.ok);
        cold_run_ms.insert(rec.shape, rec.run_ms);
    }
    let mut warm_jobs = MIX.len() as u64;

    // Traced runs: the first-touch shapes once more on the warm cache,
    // alone, so cold minus warm is the client-visible snapshot load.
    let mut snapshot_warm_ms = 0.0;
    if args.trace {
        let mut spans = Spans::new(false, Instant::now(), 0);
        for (i, shape) in FIRST_TOUCH.into_iter().enumerate() {
            let spec = JobSpec {
                shape,
                variant: 0,
                tenant: "tenant0",
                token: format!("perfbench-rewarm-{seed}-{i}"),
                job: 0,
            };
            let rec = run_job(&mut clients[0], &mix, &spec, &mut spans)
                .map_err(|e| format!("re-warm {}: {e}", shape.name()))?;
            tally.record(rec.ok);
            warm_jobs += 1;
            snapshot_warm_ms +=
                (cold_run_ms.get(&shape).copied().unwrap_or(0.0) - rec.run_ms).max(0.0);
        }
    }

    // The timed window: every client runs its closed loop on its own
    // thread until the window closes.
    let start = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let mix = &mix;
                s.spawn(move || client_loop(c, i, mix, args.trace, start, args.window))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let (daemon_kb, workers_kb) = (
        measure::vm_hwm_kb(None).unwrap_or(0),
        daemon.workers_hwm_kb(),
    );
    let journal_bytes = daemon.journal_bytes();
    drop(daemon);

    let mut notes = Vec::new();
    notes.push(format!(
        "peak RSS: daemon and clients {} KiB, workers {} KiB",
        daemon_kb, workers_kb
    ));
    let mut lat_plain = Vec::new();
    let mut lat_traced = Vec::new();
    let mut by_shape: HashMap<(Shape, bool), Vec<f64>> = HashMap::new();
    let mut layers = Layers::default();
    let mut drift = DriftCheck::default();
    let mut spans = Spans::new(args.trace, start, 0);
    let mut reconnects = 0;
    let mut rejected = 0u64;
    let mut timed_jobs = 0u64;
    for run in runs {
        if let Some(e) = &run.error {
            eprintln!("perfbench: {e}");
            tally.record(None);
        }
        reconnects += run.reconnects;
        spans.absorb(run.spans);
        for (rec, traced) in run.jobs {
            tally.record(if rec.rejected { None } else { rec.ok });
            timed_jobs += 1;
            if rec.rejected {
                rejected += 1;
                continue;
            }
            if let Some(report) = &rec.report {
                let key = format!("{}#{}", rec.shape.name(), rec.variant);
                drift.observe(&key, WorkCounters::of(report));
            }
            if rec.ok != Some(true) {
                continue;
            }
            by_shape
                .entry((rec.shape, traced))
                .or_default()
                .push(rec.latency_ms);
            if traced {
                lat_traced.push(rec.latency_ms);
                layers.push("serve.admit_ms", rec.admit_ms);
                layers.push("serve.queue_ms", rec.queue_ms);
                layers.push("serve.run_ms", rec.run_ms);
                layers.push("serve.result_ms", rec.result_ms);
                layers.push("core.agg_keys", rec.agg_keys as f64);
                if let Some(report) = &rec.report {
                    layers.push_report(report, rec.results);
                }
            } else {
                lat_plain.push(rec.latency_ms);
            }
        }
    }
    notes.extend(drift.summary());
    for &(shape, _) in &MIX {
        let lat = by_shape.get(&(shape, false)).cloned().unwrap_or_default();
        notes.push(format!(
            "{}: untraced p50 {:.3} ms over {} jobs",
            shape.name(),
            median(&lat),
            lat.len()
        ));
    }
    let mix: Vec<String> = MIX
        .iter()
        .map(|(s, n)| format!("{}x{n}", s.name()))
        .collect();
    notes.push(format!(
        "mix per block: {}; {CLIENTS} clients, {WORKERS} workers x {WORKER_CORES} core",
        mix.join(" ")
    ));

    let metrics = if args.trace {
        layers.push("serve.snapshot_warm_ms", snapshot_warm_ms);
        layers.push(
            "journal.bytes_per_job",
            journal_bytes as f64 / (timed_jobs + warm_jobs).max(1) as f64,
        );
        layers.push("client.reconnects", reconnects as f64);
        layers.push("serve.rejected", rejected as f64);
        for shape in FIRST_TOUCH {
            let t = Instant::now();
            let g = load(shape, 0)?;
            layers.push("graph.build_ms", t.elapsed().as_secs_f64() * 1e3);
            probes::job_blob(&shape.app(), &g, &mut layers)?;
            if shape == Shape::Motifs5 {
                probes::plan_compile(&g, &mut layers);
            }
        }
        probes::journal_append(&args.run_dir.join("journal-probe"), &mut layers)?;
        let traced_jobs = lat_traced.len().max(1) as f64;
        for (layer, ms) in spans.job_self_ms() {
            if let Some(name) = crate::layers::self_metric(layer) {
                layers.push(name, ms / traced_jobs);
            }
        }
        layers.push("counters.drift", drift.drifted() as f64);
        layers.push("trace.overhead", mix_overhead(&by_shape));
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
            (daemon_kb + workers_kb) as f64 / 1024.0,
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
