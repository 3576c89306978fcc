//! The independent correctness oracle: reference results computed once per
//! seed, before any timing, by the single-thread baselines. They share no
//! execution code with the system under test (no runtime, engine or
//! substrate), only the graph generators and pattern canonicalization.

use fractal::baselines::single_thread as st;
use fractal::graph::{gen, Graph};
use fractal::pattern::CanonicalCode;
use fractal::prelude::{ClusterConfig, FractalContext};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub type Histogram = HashMap<CanonicalCode, u64>;

/// Runs `f` over `items` on two threads pulling from a shared queue (the
/// host has two cores and nothing else runs while the oracle does), and
/// returns the results in item order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let work = || loop {
        // ordering: Relaxed — the counter only hands out distinct indices;
        // results are published through the mutex.
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let r = f(item);
        out.lock()
            .expect("no oracle task panicked holding the lock")[i] = Some(r);
    };
    std::thread::scope(|s| {
        s.spawn(work);
        work();
    });
    out.into_inner()
        .expect("no oracle task panicked holding the lock")
        .into_iter()
        .map(|r| r.expect("every task ran"))
        .collect()
}

/// k-clique counts by the KClist baseline, one per graph.
pub fn cliques(graphs: &[Graph], k: usize) -> Vec<u64> {
    par_map(graphs, |g| st::kclist_cliques(g, k))
}

/// Unlabeled induced k-motif histograms by the G-Tries-like baseline.
pub fn motifs(graphs: &[Graph], k: usize) -> Vec<Histogram> {
    par_map(graphs, |g| st::gtries_motifs(g, k))
}

/// References for the serve mix, one per snapshot.
pub struct MixRefs {
    pub kclist4: Vec<u64>,
    pub fsm: Vec<Histogram>,
    pub motifs5: Vec<Histogram>,
    pub kclist5: u64,
}

/// Computes the serve-mix references. Each 5-motif reference is computed
/// twice, by the baseline and by the in-process enumerator, and the two
/// must agree: decomposed-plan jobs are then checked against both
/// strategies at once.
pub fn serve_mix(
    micos: &[Graph],
    patents: &[Graph],
    orkut: &Graph,
    fsm_support: u64,
    fsm_edges: usize,
) -> Result<MixRefs, String> {
    enum Task<'a> {
        Gtries5(&'a Graph),
        Enum5(&'a Graph),
        Cliques(&'a Graph, usize),
        Fsm(&'a Graph),
    }
    enum Out {
        Hist(Histogram),
        Count(u64),
    }
    // The dearest tasks first, so neither thread is left with a long one
    // at the end.
    let mut tasks: Vec<Task> = Vec::new();
    for g in patents {
        tasks.push(Task::Gtries5(g));
        tasks.push(Task::Enum5(g));
    }
    tasks.extend(micos.iter().map(Task::Fsm));
    tasks.push(Task::Cliques(orkut, 5));
    tasks.extend(micos.iter().map(|g| Task::Cliques(g, 4)));
    let outs = par_map(&tasks, |t| match t {
        Task::Gtries5(g) => Out::Hist(st::gtries_motifs(g, 5)),
        Task::Enum5(g) => {
            let fg = FractalContext::new(ClusterConfig::local(1, 1)).fractal_graph((*g).clone());
            Out::Hist(fractal::apps::motifs::motifs(&fg, 5))
        }
        Task::Cliques(g, k) => Out::Count(st::kclist_cliques(g, *k)),
        Task::Fsm(g) => Out::Hist(
            st::grami_fsm(g, fsm_support, fsm_edges)
                .into_iter()
                .collect(),
        ),
    });
    let mut hists = Vec::new();
    let mut counts = Vec::new();
    for out in outs {
        match out {
            Out::Hist(h) => hists.push(h),
            Out::Count(n) => counts.push(n),
        }
    }
    // Outputs follow task order: per patents graph (baseline, enumerator),
    // then one FSM map per Mico graph; counts: k=5 on Orkut, then k=4 per
    // Mico graph.
    let mut hists = hists.into_iter();
    let mut motifs5 = Vec::with_capacity(patents.len());
    for _ in patents {
        let (gtries, enumerated) = (hists.next(), hists.next());
        if gtries != enumerated {
            return Err("oracle: baseline and enumerator 5-motif histograms differ".into());
        }
        motifs5.push(gtries.expect("one histogram per task"));
    }
    let fsm = hists.collect();
    let mut counts = counts.into_iter();
    let kclist5 = counts.next().expect("one count per task");
    Ok(MixRefs {
        kclist4: counts.collect(),
        fsm,
        motifs5,
        kclist5,
    })
}

/// Regenerates the graphs the in-process workloads use.
pub fn orkut_graphs(seeds: &[u64], n: usize) -> Vec<Graph> {
    par_map(seeds, |&s| gen::orkut_like(n, s))
}

pub fn mico_graphs(seeds: &[u64], n: usize, labels: u32) -> Vec<Graph> {
    par_map(seeds, |&s| gen::mico_like(n, labels, s))
}
