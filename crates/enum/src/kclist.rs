//! The custom KClist clique enumerator of Appendix B.
//!
//! KClist [12] lists k-cliques by orienting the graph into a DAG (edges
//! point from lower to higher degree, ties by id) and intersecting
//! out-neighborhoods: the candidate set after matching a clique prefix is
//! the intersection of the out-neighborhoods of all its vertices, so every
//! clique is produced exactly once in DAG order and the search space never
//! leaves clique territory. The per-level candidate sets are the custom
//! enumerator state of Listing 6; when work is stolen the state is rebuilt
//! from the prefix (Listing 6's `extend` chain replayed from scratch).
//!
//! This implementation is kClist's *local sub-DAG* variant. Every
//! candidate below a root `r` lies in `r`'s sorted out-list `out(r)`, so
//! after the root the enumerator works on local indices `j` into
//! `out(r)`:
//!
//! - the second extend of a root builds `d × ⌈d/64⌉` bit rows, row `i`
//!   marking which `out(r)[j]` lie in `out(out(r)[i])` (one scan of each
//!   member's out-list; [`ExtensionKernels::build_rows`]). The rows stay
//!   cached until another root needs them, so `k ≤ 2` count jobs never
//!   build any;
//! - each deeper extend pushes `parent & row[j]` onto the per-core word
//!   stack ([`ExtensionKernels::push_row_level`]);
//! - `compute_extensions` walks the set bits in ascending `j`. `out(r)` is
//!   sorted by id, so words come out in ascending global id: extension
//!   order, extension cost (`ec`, the candidate count) and work units
//!   match a plain sorted-list intersection exactly;
//! - a candidate is adjacent to every clique member, and each member
//!   precedes it in DAG order, so each induced edge id is one binary
//!   search of the candidate in that member's (short) DAG out-list. The
//!   edges are pushed in ascending member id, the order
//!   [`Subgraph::push_vertex_induced`] emits, so the subgraph state is
//!   byte-identical to vertex-induced growth.
//!
//! Kernel counters follow the row conventions in [`fractal_graph::kernels`]:
//! every intersection is a bitset call, and the edge lookups are not
//! counted (vertex-induced edge collection never was).

use crate::enumerator::SubgraphEnumerator;
use crate::subgraph::Subgraph;
use fractal_graph::{ExtensionKernels, Graph, KernelCounters, VertexId};
use std::sync::Arc;

/// Degree-ordered DAG view of a graph, shared immutably among cores.
///
/// One flat CSR: `targets[offsets[v]..offsets[v + 1]]` are `v`'s
/// out-neighbors (higher in degree order), sorted by id, and `edges` holds
/// the graph edge id of each entry at the same position.
#[derive(Debug)]
pub struct CliqueDag {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    edges: Vec<u32>,
}

impl CliqueDag {
    /// Orients `g`: `u → v` iff `(deg(u), u) < (deg(v), v)`.
    pub fn build(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(g.num_edges());
        let mut edges = Vec::with_capacity(g.num_edges());
        offsets.push(0);
        for v in 0..n as u32 {
            let dv = g.degree(VertexId(v));
            let nbrs = g.neighbors(VertexId(v));
            let eids = g.incident_edges(VertexId(v));
            for (&u, &e) in nbrs.iter().zip(eids) {
                if (dv, v) < (g.degree(VertexId(u)), u) {
                    targets.push(u);
                    edges.push(e);
                }
            }
            // CSR neighbors are sorted by id already, and the filter
            // preserves order.
            offsets.push(targets.len() as u32);
        }
        CliqueDag {
            offsets,
            targets,
            edges,
        }
    }

    #[inline]
    fn span(&self, v: u32) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Out-neighbors of `v`, sorted by id.
    #[inline]
    pub fn out(&self, v: u32) -> &[u32] {
        &self.targets[self.span(v)]
    }

    /// Graph edge ids of `v`'s out-edges, parallel to [`out`](Self::out).
    #[inline]
    fn out_edges(&self, v: u32) -> &[u32] {
        &self.edges[self.span(v)]
    }

    /// Position of `v` in `u`'s out-list. `v` must be an out-neighbor of
    /// `u`: KClist only asks for candidates, which are adjacent to every
    /// clique member and later than each in DAG order.
    #[inline]
    fn position(&self, u: u32, v: u32) -> usize {
        // panic-ok: every candidate lies in each member's out-list (the
        // candidate set is their intersection); a miss is an enumerator bug
        // that must abort the count.
        self.out(u)
            .binary_search(&v)
            .expect("candidate outside a member's DAG out-list")
    }
}

/// Custom enumerator listing cliques via local-bitset candidate sets
/// (Listing 6/7; see the module docs).
///
/// The rows and the per-level word stack live in [`ExtensionKernels`] and
/// are per-core scratch; a stolen unit rebuilds them by replaying the
/// prefix ([`SubgraphEnumerator::rebuild`]).
pub struct KClistEnumerator {
    dag: Arc<CliqueDag>,
    /// Local rows + word-level candidate stack.
    kernels: ExtensionKernels,
    /// The root whose rows `kernels` currently holds (`u32::MAX` = none).
    rows_root: u32,
    /// `(member, edge id)` scratch for one extend's induced edges.
    member_edges: Vec<(u32, u32)>,
    /// The same edge ids in member-id order, for `push_matched`.
    edge_ids: Vec<u32>,
}

impl KClistEnumerator {
    /// Builds the enumerator (and its DAG) for `g`.
    pub fn new(g: &Graph) -> Self {
        Self::with_dag(Arc::new(CliqueDag::build(g)))
    }

    /// Builds from an existing shared DAG.
    pub fn with_dag(dag: Arc<CliqueDag>) -> Self {
        KClistEnumerator {
            dag,
            kernels: ExtensionKernels::new(),
            rows_root: u32::MAX,
            member_edges: Vec::new(),
            edge_ids: Vec::new(),
        }
    }

    /// The shared DAG (for cloning onto other cores cheaply).
    pub fn dag(&self) -> Arc<CliqueDag> {
        self.dag.clone()
    }
}

impl SubgraphEnumerator for KClistEnumerator {
    fn compute_extensions(&mut self, g: &Graph, sg: &Subgraph, out: &mut Vec<u64>) -> u64 {
        out.clear();
        let Some(&root) = sg.vertices().first() else {
            out.extend(0..g.num_vertices() as u64);
            return g.num_vertices() as u64;
        };
        let cands = self.dag.out(root);
        if sg.num_vertices() == 1 {
            out.extend(cands.iter().map(|&v| v as u64));
            return cands.len() as u64;
        }
        debug_assert_eq!(self.rows_root, root);
        for (wi, &word) in self.kernels.top_level().iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(cands[wi * 64 + bits.trailing_zeros() as usize] as u64);
                bits &= bits - 1;
            }
        }
        out.len() as u64
    }

    fn extend(&mut self, _g: &Graph, sg: &mut Subgraph, word: u64) {
        let v = word as u32;
        let Some(&root) = sg.vertices().first() else {
            sg.push_matched(v, &[]);
            return;
        };
        let dag = &*self.dag;
        let j = dag.position(root, v);
        if sg.num_vertices() == 1 && self.rows_root != root {
            self.kernels.build_rows(dag.out(root), |u| dag.out(u));
            self.rows_root = root;
        }
        self.kernels.push_row_level(j);
        // Induced edges in ascending member id, as vertex-induced growth
        // emits them (its scan follows v's id-sorted adjacency).
        self.member_edges.clear();
        self.member_edges.push((root, dag.out_edges(root)[j]));
        for &m in &sg.vertices()[1..] {
            self.member_edges
                .push((m, dag.out_edges(m)[dag.position(m, v)]));
        }
        self.member_edges.sort_unstable();
        self.edge_ids.clear();
        self.edge_ids
            .extend(self.member_edges.iter().map(|&(_, e)| e));
        sg.push_matched(v, &self.edge_ids);
    }

    fn retract(&mut self, _g: &Graph, sg: &mut Subgraph) {
        if sg.num_vertices() >= 2 {
            self.kernels.pop_row_level();
        }
        sg.pop_matched();
    }

    fn reset_state(&mut self, _g: &Graph) {
        self.kernels.clear_row_levels();
    }

    fn take_kernel_counters(&mut self) -> KernelCounters {
        self.kernels.take_counters()
    }

    fn clone_boxed(&self) -> Box<dyn SubgraphEnumerator> {
        Box::new(KClistEnumerator::with_dag(self.dag.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerator::tests::run_to_depth;
    use fractal_graph::builder::unlabeled_from_edges;
    use fractal_graph::gen;

    fn count_cliques_kclist(g: &Graph, k: usize) -> usize {
        run_to_depth(g, Box::new(KClistEnumerator::new(g)), k).len()
    }

    #[test]
    fn complete_graph_counts() {
        // K5 has C(5,k) k-cliques.
        let g = gen::complete(5);
        assert_eq!(count_cliques_kclist(&g, 1), 5);
        assert_eq!(count_cliques_kclist(&g, 2), 10);
        assert_eq!(count_cliques_kclist(&g, 3), 10);
        assert_eq!(count_cliques_kclist(&g, 4), 5);
        assert_eq!(count_cliques_kclist(&g, 5), 1);
    }

    #[test]
    fn triangle_with_tail() {
        let g = unlabeled_from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert_eq!(count_cliques_kclist(&g, 3), 1);
        assert_eq!(count_cliques_kclist(&g, 4), 0);
    }

    #[test]
    fn cycle_has_no_triangles() {
        assert_eq!(count_cliques_kclist(&gen::cycle(6), 3), 0);
    }

    #[test]
    fn every_listed_subgraph_is_a_clique() {
        let g = gen::erdos_renyi(40, 160, 1, 3);
        for (vs, es) in run_to_depth(&g, Box::new(KClistEnumerator::new(&g)), 3) {
            assert_eq!(vs.len(), 3);
            assert_eq!(es.len(), 3, "not a clique: {vs:?}");
        }
    }

    #[test]
    fn agrees_with_generic_enumerator_on_random_graphs() {
        use crate::enumerator::VertexInducedEnumerator;
        for seed in 0..3 {
            let g = gen::erdos_renyi(25, 80, 1, seed);
            for k in 2..=4 {
                let generic = run_to_depth(&g, Box::new(VertexInducedEnumerator::new()), k)
                    .into_iter()
                    .filter(|(_, es)| es.len() == k * (k - 1) / 2)
                    .count();
                assert_eq!(count_cliques_kclist(&g, k), generic, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn rebuild_restores_candidate_stack() {
        let g = gen::complete(5);
        let mut en = KClistEnumerator::new(&g);
        let mut sg = Subgraph::new(&g);
        en.extend(&g, &mut sg, 0);
        en.extend(&g, &mut sg, 1);
        let mut exts = Vec::new();
        en.compute_extensions(&g, &sg, &mut exts);
        // Rebuild on a second instance.
        let mut en2 = KClistEnumerator::with_dag(en.dag());
        let mut sg2 = Subgraph::new(&g);
        en2.rebuild(&g, &mut sg2, &[0, 1]);
        let mut exts2 = Vec::new();
        en2.compute_extensions(&g, &sg2, &mut exts2);
        assert_eq!(exts, exts2);
        assert_eq!(sg.snapshot(), sg2.snapshot());
    }
}
