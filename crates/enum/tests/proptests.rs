//! Property tests: enumeration strategies vs brute-force oracles on random
//! graphs.

use fractal_enum::enumerator::{
    EdgeInducedEnumerator, PatternEnumerator, SubgraphEnumerator, VertexInducedEnumerator,
};
use fractal_enum::kclist::CliqueDag;
use fractal_enum::{KClistEnumerator, Subgraph};
use fractal_graph::builder::unlabeled_from_edges;
use fractal_graph::{Graph, GraphBuilder, Label, VertexId};
use fractal_pattern::{ExplorationPlan, Pattern};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..16, 0u64..1000).prop_map(|(n, seed)| {
        // Density high enough to create triangles regularly.
        fractal_graph::gen::erdos_renyi(n, n * 2, 2, seed)
    })
}

/// Drives any enumerator to `depth`, returning all snapshots.
fn run(g: &Graph, mut en: Box<dyn SubgraphEnumerator>, depth: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
    fn rec(
        g: &Graph,
        en: &mut Box<dyn SubgraphEnumerator>,
        sg: &mut Subgraph,
        depth: usize,
        out: &mut Vec<(Vec<u32>, Vec<u32>)>,
    ) {
        if depth == 0 {
            out.push(sg.snapshot());
            return;
        }
        let mut exts = Vec::new();
        en.compute_extensions(g, sg, &mut exts);
        for w in exts {
            en.extend(g, sg, w);
            rec(g, en, sg, depth - 1, out);
            en.retract(g, sg);
        }
    }
    let mut sg = Subgraph::new(g);
    let mut out = Vec::new();
    rec(g, &mut en, &mut sg, depth, &mut out);
    out
}

/// Brute force: connected induced k-vertex subgraphs as vertex sets.
fn oracle_connected_vertex_sets(g: &Graph, k: usize) -> BTreeSet<BTreeSet<u32>> {
    fn connected(g: &Graph, vs: &[u32]) -> bool {
        let mut seen = vec![vs[0]];
        let mut stack = vec![vs[0]];
        while let Some(v) = stack.pop() {
            for &u in g.neighbors(VertexId(v)) {
                if vs.contains(&u) && !seen.contains(&u) {
                    seen.push(u);
                    stack.push(u);
                }
            }
        }
        seen.len() == vs.len()
    }
    let mut out = BTreeSet::new();
    let n = g.num_vertices() as u32;
    let mut subset: Vec<u32> = Vec::new();
    fn rec(
        g: &Graph,
        k: usize,
        start: u32,
        n: u32,
        subset: &mut Vec<u32>,
        out: &mut BTreeSet<BTreeSet<u32>>,
        connected: &dyn Fn(&Graph, &[u32]) -> bool,
    ) {
        if subset.len() == k {
            if connected(g, subset) {
                out.insert(subset.iter().copied().collect());
            }
            return;
        }
        for v in start..n {
            subset.push(v);
            rec(g, k, v + 1, n, subset, out, connected);
            subset.pop();
        }
    }
    rec(g, k, 0, n, &mut subset, &mut out, &connected);
    out
}

/// Listing 2's generic clique search: vertex-induced growth that only
/// keeps a prefix whose newest vertex is adjacent to all earlier ones.
/// Returns the number of `k`-cliques for every `k` in `1..=kmax`
/// (index `k - 1`).
fn generic_clique_counts(g: &Graph, kmax: usize) -> Vec<usize> {
    fn rec(g: &Graph, en: &mut VertexInducedEnumerator, sg: &mut Subgraph, counts: &mut [usize]) {
        if sg.last_level_edge_count() + 1 != sg.num_vertices() {
            return;
        }
        counts[sg.num_vertices() - 1] += 1;
        if sg.num_vertices() == counts.len() {
            return;
        }
        let mut exts = Vec::new();
        en.compute_extensions(g, sg, &mut exts);
        for w in exts {
            en.extend(g, sg, w);
            rec(g, en, sg, counts);
            en.retract(g, sg);
        }
    }
    let mut counts = vec![0; kmax];
    let mut en = VertexInducedEnumerator::new();
    let mut sg = Subgraph::new(g);
    let mut exts = Vec::new();
    en.compute_extensions(g, &sg, &mut exts);
    for w in exts {
        en.extend(g, &mut sg, w);
        rec(g, &mut en, &mut sg, &mut counts);
        en.retract(g, &mut sg);
    }
    counts
}

/// Counts KClist's `k`-cliques the way the engine's count mode does: the
/// last level's extensions are tallied, not applied.
fn kclist_count(g: &Graph, en: &mut KClistEnumerator, sg: &mut Subgraph, k: usize) -> u64 {
    let mut exts = Vec::new();
    en.compute_extensions(g, sg, &mut exts);
    if k == 1 {
        return exts.len() as u64;
    }
    let mut n = 0;
    for w in exts {
        en.extend(g, sg, w);
        n += kclist_count(g, en, sg, k - 1);
        en.retract(g, sg);
    }
    n
}

/// A graph whose DAG has a vertex with out-degree `width`: a root `0`
/// adjacent to `width` members, each member with `width` private leaves
/// (so every member outranks the root in degree order), and `4·width`
/// random member–member edges that make triangles and 4-cliques through
/// the root.
fn wide_dag_graph(width: usize, seed: u64) -> Graph {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m
    };
    let w = width as u32;
    let mut edges = BTreeSet::new();
    for m in 1..=w {
        edges.insert((0, m));
        let leaves = w + 1 + (m - 1) * w;
        for leaf in leaves..leaves + w {
            edges.insert((m, leaf));
        }
    }
    for _ in 0..4 * width {
        let (a, b) = (1 + next(width) as u32, 1 + next(width) as u32);
        if a != b {
            edges.insert((a.min(b), a.max(b)));
        }
    }
    let edges: Vec<(u32, u32)> = edges.into_iter().collect();
    unlabeled_from_edges(1 + width + width * width, &edges)
}

/// The subgraph vertex-induced growth builds from the same vertex order.
fn vertex_induced_snapshot(g: &Graph, vertices: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut sg = Subgraph::new(g);
    for &v in vertices {
        sg.push_vertex_induced(g, v);
    }
    sg.snapshot()
}

/// The widest local row set any root of `dag` needs.
fn max_out_degree(g: &Graph, dag: &CliqueDag) -> usize {
    (0..g.num_vertices() as u32)
        .map(|v| dag.out(v).len())
        .max()
        .unwrap_or(0)
}

fn binomial(n: u64, k: u64) -> u64 {
    (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Vertex-induced enumeration produces every connected induced
    /// subgraph exactly once.
    #[test]
    fn vertex_induced_complete_and_unique(g in arb_graph(), k in 2usize..5) {
        let subs = run(&g, Box::new(VertexInducedEnumerator::new()), k);
        let sets: Vec<BTreeSet<u32>> =
            subs.iter().map(|(vs, _)| vs.iter().copied().collect()).collect();
        let unique: BTreeSet<BTreeSet<u32>> = sets.iter().cloned().collect();
        prop_assert_eq!(unique.len(), sets.len(), "duplicate enumeration");
        prop_assert_eq!(unique, oracle_connected_vertex_sets(&g, k));
    }

    /// Edge-induced enumeration is unique and every result is connected
    /// with exactly k edges.
    #[test]
    fn edge_induced_unique(g in arb_graph(), k in 1usize..4) {
        let subs = run(&g, Box::new(EdgeInducedEnumerator::new()), k);
        let sets: Vec<BTreeSet<u32>> =
            subs.iter().map(|(_, es)| es.iter().copied().collect()).collect();
        let unique: BTreeSet<BTreeSet<u32>> = sets.iter().cloned().collect();
        prop_assert_eq!(unique.len(), sets.len(), "duplicate enumeration");
        for (_, es) in &subs {
            prop_assert_eq!(es.len(), k);
        }
    }

    /// KClist lists exactly the k-cliques found by filtering the generic
    /// vertex-induced enumeration.
    #[test]
    fn kclist_agrees_with_generic(g in arb_graph(), k in 2usize..5) {
        let kclist = run(&g, Box::new(KClistEnumerator::new(&g)), k);
        let generic: Vec<_> = run(&g, Box::new(VertexInducedEnumerator::new()), k)
            .into_iter()
            .filter(|(_, es)| es.len() == k * (k - 1) / 2)
            .collect();
        prop_assert_eq!(kclist.len(), generic.len());
        let a: BTreeSet<BTreeSet<u32>> =
            kclist.iter().map(|(vs, _)| vs.iter().copied().collect()).collect();
        let b: BTreeSet<BTreeSet<u32>> =
            generic.iter().map(|(vs, _)| vs.iter().copied().collect()).collect();
        prop_assert_eq!(a, b);
    }


    /// KClist's subgraph state is byte-identical to vertex-induced growth
    /// after every extend, and a thief that rebuilds any visited prefix
    /// reaches the same state and the same extensions.
    #[test]
    fn kclist_state_matches_vertex_induced(g in arb_graph()) {
        fn rec(
            g: &Graph,
            en: &mut KClistEnumerator,
            sg: &mut Subgraph,
            depth: usize,
        ) -> Result<(), TestCaseError> {
            let mut exts = Vec::new();
            en.compute_extensions(g, sg, &mut exts);
            if sg.num_vertices() > 0 {
                let prefix: Vec<u64> = sg.vertices().iter().map(|&v| v as u64).collect();
                let mut thief = KClistEnumerator::with_dag(en.dag());
                let mut sg2 = Subgraph::new(g);
                thief.rebuild(g, &mut sg2, &prefix);
                prop_assert_eq!(sg2.snapshot(), sg.snapshot());
                let mut exts2 = Vec::new();
                thief.compute_extensions(g, &sg2, &mut exts2);
                prop_assert_eq!(&exts2, &exts);
            }
            if depth == 0 {
                return Ok(());
            }
            for w in exts {
                en.extend(g, sg, w);
                prop_assert_eq!(sg.snapshot(), vertex_induced_snapshot(g, sg.vertices()));
                rec(g, en, sg, depth - 1)?;
                en.retract(g, sg);
            }
            Ok(())
        }
        let mut en = KClistEnumerator::new(&g);
        let mut sg = Subgraph::new(&g);
        rec(&g, &mut en, &mut sg, 4)?;
        prop_assert!(sg.is_empty());
    }

    /// Pattern-induced triangle matching agrees with clique filtering, and
    /// each triangle is matched exactly once.
    #[test]
    fn pattern_triangles_agree(g in arb_graph()) {
        let plan = Arc::new(ExplorationPlan::new(&Pattern::clique(3)));
        let matches = run(&g, Box::new(PatternEnumerator::new(plan, false, false)), 3);
        let sets: BTreeSet<BTreeSet<u32>> =
            matches.iter().map(|(vs, _)| vs.iter().copied().collect()).collect();
        prop_assert_eq!(sets.len(), matches.len(), "duplicate matches");
        let cliques: BTreeSet<BTreeSet<u32>> = run(&g, Box::new(VertexInducedEnumerator::new()), 3)
            .into_iter()
            .filter(|(_, es)| es.len() == 3)
            .map(|(vs, _)| vs.into_iter().collect())
            .collect();
        prop_assert_eq!(sets, cliques);
    }

    /// Pattern matching without symmetry breaking overcounts by exactly
    /// |Aut(P)| per match.
    #[test]
    fn symmetry_breaking_factor(g in arb_graph()) {
        let p = Pattern::clique(3);
        let with = run(
            &g,
            Box::new(PatternEnumerator::new(Arc::new(ExplorationPlan::new(&p)), false, false)),
            3,
        )
        .len();
        let without = run(
            &g,
            Box::new(PatternEnumerator::new(
                Arc::new(ExplorationPlan::without_symmetry(&p)),
                false,
                false,
            )),
            3,
        )
        .len();
        prop_assert_eq!(without, with * 6);
    }

    /// Stolen-prefix rebuild: continuing enumeration from a rebuilt state
    /// yields the same completions as continuing in place.
    #[test]
    fn rebuild_equivalence(g in arb_graph()) {
        let mut en: Box<dyn SubgraphEnumerator> = Box::new(VertexInducedEnumerator::new());
        let mut sg = Subgraph::new(&g);
        let mut exts = Vec::new();
        en.compute_extensions(&g, &sg, &mut exts);
        if exts.is_empty() { return Ok(()); }
        en.extend(&g, &mut sg, exts[exts.len() / 2]);
        let prefix = sg.vertices().iter().map(|&v| v as u64).collect::<Vec<u64>>();

        // Continue in place.
        let mut in_place = Vec::new();
        let mut exts2 = Vec::new();
        en.compute_extensions(&g, &sg, &mut exts2);
        for w in exts2 {
            en.extend(&g, &mut sg, w);
            in_place.push(sg.snapshot());
            en.retract(&g, &mut sg);
        }

        // Rebuild on a fresh enumerator (thief side).
        let mut en2: Box<dyn SubgraphEnumerator> = Box::new(VertexInducedEnumerator::new());
        let mut sg2 = Subgraph::new(&g);
        en2.rebuild(&g, &mut sg2, &prefix);
        let mut stolen = Vec::new();
        let mut exts3 = Vec::new();
        en2.compute_extensions(&g, &sg2, &mut exts3);
        for w in exts3 {
            en2.extend(&g, &mut sg2, w);
            stolen.push(sg2.snapshot());
            en2.retract(&g, &mut sg2);
        }
        prop_assert_eq!(in_place, stolen);
    }

    /// Push/pop round trips leave the subgraph in its prior state for all
    /// three growth modes.
    #[test]
    fn push_pop_roundtrip(g in arb_graph()) {
        let mut sg = Subgraph::new(&g);
        if g.num_edges() == 0 { return Ok(()); }
        sg.push_edge(&g, 0);
        let snap = sg.snapshot();
        if g.num_edges() > 1 {
            sg.push_edge(&g, 1);
            sg.pop_edge();
        }
        prop_assert_eq!(sg.snapshot(), snap);
    }
}

/// Labeled pattern matching against an oracle that checks all injective
/// assignments.
#[test]
fn labeled_pattern_matching_oracle() {
    // Build a labeled graph and a labeled path query; compare against a
    // brute-force matcher.
    let mut b = GraphBuilder::new();
    for l in [0u32, 1, 0, 1, 0] {
        b.add_vertex(Label(l));
    }
    for &(u, v, l) in &[
        (0u32, 1u32, 0u32),
        (1, 2, 1),
        (2, 3, 0),
        (3, 4, 1),
        (0, 4, 0),
        (1, 3, 0),
    ] {
        b.add_edge(VertexId(u), VertexId(v), Label(l)).unwrap();
    }
    let g = b.build();
    // Query: path 0 -1- 1 with vertex labels [0, 1] and edge label 0.
    let q = Pattern::new(vec![0, 1], vec![(0, 1, 0)]);
    let plan = Arc::new(ExplorationPlan::new(&q));
    let matches = run(&g, Box::new(PatternEnumerator::new(plan, true, true)), 2);
    // Oracle: ordered pairs (a, b) with labels (0, 1), adjacent with edge
    // label 0 — symmetry breaking on an asymmetric (labeled) pattern keeps
    // all distinct assignments, but pattern vertices are distinguishable so
    // each edge maps once.
    let mut expect = 0;
    for a in g.vertices() {
        for bb in g.vertices() {
            if a == bb {
                continue;
            }
            if g.vertex_label(a) == Label(0) && g.vertex_label(bb) == Label(1) {
                if let Some(e) = g.edge_between(a, bb) {
                    if g.edge_label(e) == Label(0) {
                        expect += 1;
                    }
                }
            }
        }
    }
    assert_eq!(matches.len(), expect);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Multi-word local rows (a root with more than 64 DAG out-neighbors)
    /// count exactly the cliques of the generic clique filter, and the
    /// subgraph state stays byte-identical to vertex-induced growth.
    #[test]
    fn kclist_two_word_rows_agree_with_generic(width in 65usize..80, seed in 0u64..1000) {
        let g = wide_dag_graph(width, seed);
        let dag = Arc::new(CliqueDag::build(&g));
        prop_assert!(max_out_degree(&g, &dag) > 64);
        let generic = generic_clique_counts(&g, 4);
        prop_assert!(generic[3] > 0, "no 4-cliques to compare");
        let mut en = KClistEnumerator::with_dag(dag.clone());
        let mut sg = Subgraph::new(&g);
        for k in 1..=4 {
            let got = kclist_count(&g, &mut en, &mut sg, k);
            prop_assert_eq!(got as usize, generic[k - 1], "k {}", k);
        }
        for (vs, es) in run(&g, Box::new(KClistEnumerator::with_dag(dag)), 3) {
            prop_assert_eq!((vs.clone(), es), vertex_induced_snapshot(&g, &vs));
        }
    }

    /// Rows of three words and more (out-degree above 128).
    #[test]
    fn kclist_three_word_rows_agree_with_generic(width in 129usize..140, seed in 0u64..1000) {
        let g = wide_dag_graph(width, seed);
        let dag = Arc::new(CliqueDag::build(&g));
        prop_assert!(max_out_degree(&g, &dag) > 128);
        let generic = generic_clique_counts(&g, 4);
        prop_assert!(generic[3] > 0, "no 4-cliques to compare");
        let mut en = KClistEnumerator::with_dag(dag.clone());
        let mut sg = Subgraph::new(&g);
        for k in 1..=4 {
            let got = kclist_count(&g, &mut en, &mut sg, k);
            prop_assert_eq!(got as usize, generic[k - 1], "k {}", k);
        }
    }
}

/// `complete(70)`: every vertex's DAG out-list spans up to 69 vertices
/// (two-word rows) and every subset is a clique, so the counts are the
/// binomials C(70, k).
#[test]
fn kclist_complete_70_binomials() {
    let g = fractal_graph::gen::complete(70);
    let mut en = KClistEnumerator::new(&g);
    assert_eq!(max_out_degree(&g, &en.dag()), 69);
    let mut sg = Subgraph::new(&g);
    for k in 1..=5u64 {
        assert_eq!(
            kclist_count(&g, &mut en, &mut sg, k as usize),
            binomial(70, k),
            "k {k}"
        );
        assert!(sg.is_empty());
    }
}
