//! Extension hot-path intersection kernels.
//!
//! Fractal's DFS spends nearly all of its time intersecting sorted
//! adjacency lists to compute valid extensions (§3, Fig. 7; the KClist
//! enumerator of Appendix B is repeated candidate-set intersection). This
//! module concentrates those inner loops into one tuned layer:
//!
//! - **sorted-merge** — the classic two-pointer merge, best when the two
//!   lists have comparable lengths;
//! - **galloping** — exponential search of each element of the smaller
//!   list inside the larger one, best when the lengths are skewed
//!   (`|large| / |small| ≥` [`GALLOP_RATIO`]): cost is
//!   `O(|small| · log |large|)` instead of `O(|small| + |large|)`;
//! - **bitset** — mark the smaller list in a word-level bitset over the
//!   vertex universe, probe the larger list branch-free, then clear only
//!   the marked words. Engages for long, similar-length lists
//!   (`|small| ≥` [`BITSET_MIN`]) where the merge loop's compare branches
//!   mispredict; requires per-core scratch and therefore lives on
//!   [`ExtensionKernels`].
//!
//! The crossover between the three paths is decided per call from the
//! relative set sizes; every invocation is tallied into [`KernelCounters`]
//! (per-path call counts, elements scanned, scratch high-water mark) so the
//! heuristic stays observable through the flight recorder and the CI perf
//! gate.
//!
//! Intersection-with-filter variants ([`intersect_above`],
//! [`ExtensionKernels::intersect_above_into`]) push symmetry-breaking
//! lower bounds *into* the kernel: both inputs are first advanced past the
//! bound with a binary search, so candidates ruled out by a
//! `must_be_greater_than` constraint are never scanned at all.
//!
//! **Local bit rows** serve the KClist enumerator (Appendix B). Once a
//! clique root `r` is fixed, every later candidate lies in the root's
//! sorted DAG out-list `out(r)` of length `d`, so candidate sets become
//! `⌈d/64⌉`-word bitsets over local indices into `out(r)`.
//! [`ExtensionKernels::build_rows`] scans each member's out-list once into
//! row `i` = "which `out(r)[j]` lie in `out(out(r)[i])`"; each deeper level
//! is then `parent & row[j]`, pushed onto a per-core word stack
//! ([`ExtensionKernels::push_row_level`]). Push and pop are a word copy and
//! a truncation, with no per-extension allocation. Counter conventions: the
//! build itself tallies nothing; opening the first level from row `j`
//! tallies one bitset call scanning that row's build cost (the member's
//! out-list plus its two map touches), and every `AND` level tallies one
//! bitset call scanning `⌈d/64⌉` words. Counts are thus a function of the
//! extends performed (a thief's prefix replay included, as for every
//! enumerator), not of which core built or reused the rows. The rows and
//! levels are worker-local scratch only: a stolen task re-derives them from
//! the from-scratch prefix (`SubgraphEnumerator::rebuild`), so they never
//! travel in steal messages, and `arena_high_water_bytes` reports their
//! peak capacity together with the other scratch buffers.

/// Size ratio at which the galloping path takes over from sorted-merge.
pub const GALLOP_RATIO: usize = 16;

/// Minimum smaller-list length for the bitset path (below it, marking
/// overhead dominates).
pub const BITSET_MIN: usize = 64;

/// Counters describing kernel-path activity since the last drain.
///
/// `elements_scanned` counts every element the kernels looked at (merge
/// pointer advances, gallop probes, bitset marks + probes) — the
/// deterministic work metric the CI perf gate compares across commits.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounters {
    /// Sorted-merge intersections performed.
    pub merge_calls: u64,
    /// Galloping intersections performed.
    pub gallop_calls: u64,
    /// Bitset (mark/probe) intersections performed.
    pub bitset_calls: u64,
    /// Total elements scanned across all kernel invocations.
    pub elements_scanned: u64,
    /// Peak resident bytes of the per-core scratch (rows, levels, bitset
    /// and union buffers).
    pub arena_high_water_bytes: u64,
}

impl KernelCounters {
    /// Total kernel invocations across the three paths.
    pub fn calls(&self) -> u64 {
        self.merge_calls + self.gallop_calls + self.bitset_calls
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.calls() == 0 && self.elements_scanned == 0 && self.arena_high_water_bytes == 0
    }

    /// Folds `other` into `self` (counts add, high-water maxes).
    pub fn absorb(&mut self, other: &KernelCounters) {
        self.merge_calls += other.merge_calls;
        self.gallop_calls += other.gallop_calls;
        self.bitset_calls += other.bitset_calls;
        self.elements_scanned += other.elements_scanned;
        self.arena_high_water_bytes = self
            .arena_high_water_bytes
            .max(other.arena_high_water_bytes);
    }

    /// Drains the counters: returns the current values and zeroes `self`.
    pub fn take(&mut self) -> KernelCounters {
        std::mem::take(self)
    }
}

/// The subslice of a sorted list whose elements are strictly greater than
/// `lo` — the degenerate (single-list) lower-bound filter, used when a
/// symmetry-breaking bound applies but there is nothing to intersect with.
#[inline]
pub fn seek_above(list: &[u32], lo: u32) -> &[u32] {
    &list[list.partition_point(|&x| x <= lo)..]
}

/// The subslice of a sorted list whose elements are strictly smaller than
/// `hi` — the upper-bound counterpart of [`seek_above`], used by the
/// decomposed-counting executor for `must_be_less_than` symmetry bounds.
#[inline]
pub fn seek_below(list: &[u32], hi: u32) -> &[u32] {
    &list[..list.partition_point(|&x| x < hi)]
}

/// Adaptive sorted-set intersection of `a` and `b` into `out` (cleared
/// first). Picks merge or gallop from the length ratio; the bitset path
/// needs scratch and is only reachable through [`ExtensionKernels`].
pub fn intersect(a: &[u32], b: &[u32], out: &mut Vec<u32>, c: &mut KernelCounters) {
    out.clear();
    let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if s.is_empty() {
        return;
    }
    if l.len() / s.len() >= GALLOP_RATIO {
        gallop_into(s, l, out, c);
    } else {
        merge_into(s, l, out, c);
    }
}

/// Adaptive intersection keeping only elements strictly greater than `lo`
/// (the symmetry-breaking lower-bound filter variant). Both inputs are
/// advanced past the bound before any scanning happens.
pub fn intersect_above(a: &[u32], b: &[u32], lo: u32, out: &mut Vec<u32>, c: &mut KernelCounters) {
    intersect(seek_above(a, lo), seek_above(b, lo), out, c);
}

/// Two-pointer sorted-merge intersection (exposed for tests/benches; use
/// [`intersect`] for the adaptive entry point).
pub fn merge_into(a: &[u32], b: &[u32], out: &mut Vec<u32>, c: &mut KernelCounters) {
    c.merge_calls += 1;
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    c.elements_scanned += (i + j) as u64;
}

/// Galloping intersection: for each element of `small`, exponential +
/// binary search inside `large`, resuming where the previous search ended
/// (exposed for tests/benches; use [`intersect`] for the adaptive entry
/// point).
pub fn gallop_into(small: &[u32], large: &[u32], out: &mut Vec<u32>, c: &mut KernelCounters) {
    c.gallop_calls += 1;
    let mut from = 0usize;
    let mut probes = 0u64;
    for &x in small {
        // Exponential probe: find a window [from+step/2, from+step] whose
        // upper end reaches x.
        let mut step = 1usize;
        while from + step < large.len() && large[from + step] < x {
            step <<= 1;
            probes += 1;
        }
        let hi = (from + step + 1).min(large.len());
        // Binary search for the first element >= x inside the window.
        let idx = from + large[from..hi].partition_point(|&y| y < x);
        probes += (hi - from).max(1).ilog2() as u64 + 1;
        if idx < large.len() && large[idx] == x {
            out.push(x);
            from = idx + 1;
        } else {
            from = idx;
        }
        if from >= large.len() {
            break;
        }
    }
    c.elements_scanned += small.len() as u64 + probes;
}

/// Streams one sorted adjacency slice (`nbrs` with parallel edge ids
/// `eids`) through vertex/edge renumbering maps, keeping pairs whose
/// mapped ids are live (`!= u32::MAX`). This is the map-probe kernel the
/// graph-reduction pass (§4.3) builds its compact CSR with: both
/// renumberings are monotone, so the output stays sorted and no
/// per-neighborhood permutation sort is needed.
pub fn retain_mapped(
    nbrs: &[u32],
    eids: &[u32],
    vmap: &[u32],
    emap: &[u32],
    out_v: &mut Vec<u32>,
    out_e: &mut Vec<u32>,
    c: &mut KernelCounters,
) {
    debug_assert_eq!(nbrs.len(), eids.len());
    c.bitset_calls += 1;
    c.elements_scanned += nbrs.len() as u64;
    for (&u, &e) in nbrs.iter().zip(eids.iter()) {
        let nv = vmap[u as usize];
        let ne = emap[e as usize];
        if nv != u32::MAX && ne != u32::MAX {
            out_v.push(nv);
            out_e.push(ne);
        }
    }
}

/// Upper bound on the member-set size for the probe path of
/// [`collect_induced_edges`] (hits are staged in a stack buffer).
pub const PROBE_MAX_MEMBERS: usize = 16;

/// Collects the edges connecting a new vertex (sorted adjacency `nbrs`
/// with parallel edge ids `eids`) to the current subgraph `members` —
/// the inner loop of vertex-induced growth (`Subgraph::push_vertex_induced`).
///
/// Hybrid on relative sizes, mirroring the merge/gallop crossover: when
/// the member set is small against `deg(v)`, each member is binary-probed
/// into the adjacency (`O(k log d)`); otherwise the adjacency is scanned
/// once through the `is_member` filter (`O(d)`). Both paths emit edge ids
/// in ascending adjacency position, so growth/rollback bookkeeping is
/// byte-identical regardless of the path taken. Returns the number of
/// edges emitted.
pub fn collect_induced_edges(
    nbrs: &[u32],
    eids: &[u32],
    members: &[u32],
    is_member: impl Fn(u32) -> bool,
    mut emit: impl FnMut(u32),
) -> u32 {
    debug_assert_eq!(nbrs.len(), eids.len());
    let d = nbrs.len();
    let k = members.len();
    // Cost of one binary probe (~log2 d), with a 2x fudge for the probe
    // path's branchier access pattern vs the linear scan.
    let probe_cost = (usize::BITS - d.leading_zeros() + 1) as usize;
    if k <= PROBE_MAX_MEMBERS && 2 * k * probe_cost < d {
        let mut hits = [(0u32, 0u32); PROBE_MAX_MEMBERS];
        let mut nh = 0;
        for &u in members {
            if let Ok(pos) = nbrs.binary_search(&u) {
                hits[nh] = (pos as u32, eids[pos]);
                nh += 1;
            }
        }
        hits[..nh].sort_unstable();
        for &(_, e) in &hits[..nh] {
            emit(e);
        }
        nh as u32
    } else {
        let mut added = 0;
        for (i, &u) in nbrs.iter().enumerate() {
            if is_member(u) {
                emit(eids[i]);
                added += 1;
            }
        }
        added
    }
}

/// Per-core kernel state: the bitset scratch for the mark/probe path, the
/// local bit rows and word-level candidate stack of the KClist
/// enumerator, the union scratch, and the accumulated counters.
///
/// One instance lives inside each enumerator clone (one per core); it is
/// **never** shipped with stolen work — a thief rebuilds its own rows and
/// levels by replaying the stolen prefix, and
/// [`clear_row_levels`](Self::clear_row_levels) keeps the allocations warm
/// across units.
#[derive(Debug, Default, Clone)]
pub struct ExtensionKernels {
    /// Accumulated path counters, drained by the runtime per work unit.
    counters: KernelCounters,
    /// Vertex-universe size the bitset scratch covers (0 = path disabled).
    universe: usize,
    /// Bitset scratch words (`universe / 64` once sized).
    bits: Vec<u64>,
    /// Id → local-index map used while building rows (`u32::MAX` = absent).
    local: Vec<u32>,
    /// Local adjacency bit rows, `row_words` words each.
    rows: Vec<u64>,
    /// Elements each row's build scanned, charged when a level opens on it.
    row_cost: Vec<u32>,
    /// Words per row and per level.
    row_words: usize,
    /// Live candidate levels, `row_words` words each, deepest last.
    levels: Vec<u64>,
    /// Double-buffer scratch for multi-way unions.
    scratch_a: Vec<u32>,
    scratch_b: Vec<u32>,
    /// Per-list cursor scratch for the anchored k-way union.
    cursors: Vec<usize>,
}

impl ExtensionKernels {
    /// Fresh state with the bitset path disabled until
    /// [`ensure_universe`](Self::ensure_universe) is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the bitset scratch to cover ids `0..n`. Idempotent and cheap
    /// when already large enough.
    pub fn ensure_universe(&mut self, n: usize) {
        if n > self.universe {
            self.universe = n;
            self.bits.resize(n.div_ceil(64), 0);
        }
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &KernelCounters {
        &self.counters
    }

    /// Drains the counters (stamping the current high-water mark; buffer
    /// capacities never shrink, so stamping here misses no peak).
    pub fn take_counters(&mut self) -> KernelCounters {
        self.note_high_water();
        self.counters.take()
    }

    /// Resident bytes of the rows, levels and scratch buffers.
    pub fn resident_bytes(&self) -> usize {
        (self.local.capacity()
            + self.row_cost.capacity()
            + self.scratch_a.capacity()
            + self.scratch_b.capacity())
            * 4
            + (self.bits.capacity() + self.rows.capacity() + self.levels.capacity()) * 8
    }

    fn note_high_water(&mut self) {
        let bytes = self.resident_bytes() as u64;
        if bytes > self.counters.arena_high_water_bytes {
            self.counters.arena_high_water_bytes = bytes;
        }
    }

    // ---- local bit rows + word-level candidate stack ----

    /// Builds the local adjacency rows of `set` (sorted, distinct ids):
    /// row `i` has bit `j` set iff `set[j] ∈ adj(set[i])`. Rows are
    /// `⌈|set|/64⌉` words wide (at least one), so any `|set|` fits.
    /// Drops every live level (they index the previous rows).
    ///
    /// Each row is one scan of `adj(set[i])` through a per-core
    /// id → local-index map. Nothing is tallied here: row `i`'s cost,
    /// `|adj(set[i])|` plus its map mark and clear, is charged when a
    /// level is opened from it ([`push_row_level`](Self::push_row_level)).
    pub fn build_rows<'a>(&mut self, set: &[u32], adj: impl Fn(u32) -> &'a [u32]) {
        debug_assert!(set.windows(2).all(|w| w[0] < w[1]));
        let words = set.len().div_ceil(64).max(1);
        self.row_words = words;
        self.levels.clear();
        self.rows.clear();
        self.rows.resize(set.len() * words, 0);
        self.row_cost.clear();
        // Sized exactly (no amortized doubling): the map is the largest
        // per-core buffer, up to one entry per vertex.
        let need = set.last().map_or(0, |&max| max as usize + 1);
        if self.local.len() < need {
            self.local.reserve_exact(need - self.local.len());
            self.local.resize(need, u32::MAX);
        }
        for (j, &u) in set.iter().enumerate() {
            self.local[u as usize] = j as u32;
        }
        for (i, &u) in set.iter().enumerate() {
            let row = &mut self.rows[i * words..(i + 1) * words];
            let nbrs = adj(u);
            self.row_cost.push(nbrs.len() as u32 + 2);
            for &x in nbrs {
                let j = self.local.get(x as usize).copied().unwrap_or(u32::MAX);
                if j != u32::MAX {
                    row[(j >> 6) as usize] |= 1 << (j & 63);
                }
            }
        }
        for &u in set {
            self.local[u as usize] = u32::MAX;
        }
    }

    /// Opens a level: a copy of row `j` when no level is live (one bitset
    /// call charged with the row's build cost), otherwise `top & row(j)`
    /// (one bitset call scanning `row_words` words).
    pub fn push_row_level(&mut self, j: usize) {
        let w = self.row_words;
        let lo = self.levels.len();
        self.counters.bitset_calls += 1;
        if lo == 0 {
            self.levels
                .extend_from_slice(&self.rows[j * w..(j + 1) * w]);
            self.counters.elements_scanned += self.row_cost[j] as u64;
        } else {
            for t in 0..w {
                let x = self.levels[lo - w + t] & self.rows[j * w + t];
                self.levels.push(x);
            }
            self.counters.elements_scanned += w as u64;
        }
    }

    /// The deepest live level (empty when none is live).
    #[inline]
    pub fn top_level(&self) -> &[u64] {
        &self.levels[self.levels.len().saturating_sub(self.row_words)..]
    }

    /// Closes the deepest level.
    #[inline]
    pub fn pop_row_level(&mut self) {
        debug_assert!(self.levels.len() >= self.row_words);
        self.levels.truncate(self.levels.len() - self.row_words);
    }

    /// Drops every live level, keeping the rows and all capacity warm.
    /// Called before a stolen unit's prefix is replayed from scratch.
    pub fn clear_row_levels(&mut self) {
        self.levels.clear();
    }
    // ---- flat intersections with bitset support ----

    /// Hybrid intersection into a caller buffer, with the bitset path
    /// available (unlike the free [`intersect`]).
    pub fn intersect_into(&mut self, a: &[u32], b: &[u32], out: &mut Vec<u32>) {
        out.clear();
        let (s, l) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if s.is_empty() {
            return;
        }
        if l.len() / s.len() >= GALLOP_RATIO {
            gallop_into(s, l, out, &mut self.counters);
        } else if s.len() >= BITSET_MIN && self.slices_fit_universe(s, l) {
            self.bitset_into(s, l, out);
        } else {
            merge_into(s, l, out, &mut self.counters);
        }
    }

    /// Hybrid intersection keeping only elements strictly above `lo` — the
    /// stateful counterpart of [`intersect_above`].
    pub fn intersect_above_into(&mut self, a: &[u32], b: &[u32], lo: u32, out: &mut Vec<u32>) {
        let a = seek_above(a, lo);
        let b = seek_above(b, lo);
        self.intersect_into(a, b, out);
    }

    fn slices_fit_universe(&self, a: &[u32], b: &[u32]) -> bool {
        if self.universe == 0 {
            return false;
        }
        let amax = a.last().copied().unwrap_or(0);
        let bmax = b.last().copied().unwrap_or(0);
        (amax.max(bmax) as usize) < self.universe
    }

    /// Bitset intersection of two flat slices (`s` marked, `l` probed);
    /// exposed for direct testing of the path.
    pub fn bitset_into(&mut self, s: &[u32], l: &[u32], out: &mut Vec<u32>) {
        assert!(
            self.slices_fit_universe(s, l),
            "bitset path requires ensure_universe over all ids"
        );
        self.counters.bitset_calls += 1;
        for &v in s {
            self.bits[(v as usize) >> 6] |= 1 << (v & 63);
        }
        for &u in l {
            if self.bits[(u as usize) >> 6] >> (u & 63) & 1 == 1 {
                out.push(u);
            }
        }
        for &v in s {
            self.bits[(v as usize) >> 6] &= !(1 << (v & 63));
        }
        self.counters.elements_scanned += (2 * s.len() + l.len()) as u64;
    }

    // ---- multi-way sorted union ----

    /// Sorted, deduplicated union of `lists` into `out` (cleared first):
    /// pairwise merges through the reusable double-buffer scratch, folding
    /// shorter lists first. Replaces the gather + `sort_unstable` + `dedup`
    /// pattern of the generic enumerators — the inputs are already-sorted
    /// CSR slices, so merging is `O(total · log k)` with no allocation.
    pub fn union_sorted_into(&mut self, lists: &[&[u32]], out: &mut Vec<u32>) {
        out.clear();
        match lists.len() {
            0 => return,
            1 => {
                out.extend_from_slice(lists[0]);
                return;
            }
            _ => {}
        }
        // Fold in ascending length order so early merges stay small.
        let mut order: Vec<usize> = (0..lists.len()).collect();
        order.sort_unstable_by_key(|&i| lists[i].len());
        let mut acc = std::mem::take(&mut self.scratch_a);
        let mut next = std::mem::take(&mut self.scratch_b);
        acc.clear();
        acc.extend_from_slice(lists[order[0]]);
        for &i in &order[1..] {
            next.clear();
            Self::union_pair(&acc, lists[i], &mut next, &mut self.counters);
            std::mem::swap(&mut acc, &mut next);
        }
        out.extend_from_slice(&acc);
        self.scratch_a = acc;
        self.scratch_b = next;
        self.note_high_water();
    }

    /// Sorted, deduplicated k-way union that also reports, for every output
    /// element, the **smallest list index containing it** (`anchors`, same
    /// length as `out`). For the growth-sequence canonicality rule the
    /// anchor of a candidate is exactly the earliest prefix position it is
    /// adjacent to, so tracking it during the union removes every
    /// per-candidate adjacency probe from the extension filter.
    ///
    /// Uses a direct k-way head scan (not the pairwise fold, which reorders
    /// lists and loses source indices); `k` is the prefix length, which is
    /// small, so the `O(out · k)` head comparisons stay cheap.
    pub fn union_sorted_anchored_into(
        &mut self,
        lists: &[&[u32]],
        out: &mut Vec<u32>,
        anchors: &mut Vec<u32>,
    ) {
        out.clear();
        anchors.clear();
        let k = lists.len();
        if k == 0 {
            return;
        }
        self.counters.merge_calls += 1;
        let cursors = &mut self.cursors;
        cursors.clear();
        cursors.resize(k, 0);
        loop {
            let mut min = 0u32;
            let mut src = u32::MAX;
            for i in 0..k {
                if cursors[i] < lists[i].len() {
                    let v = lists[i][cursors[i]];
                    if src == u32::MAX || v < min {
                        min = v;
                        src = i as u32;
                    }
                }
            }
            if src == u32::MAX {
                break;
            }
            out.push(min);
            anchors.push(src);
            for i in 0..k {
                if cursors[i] < lists[i].len() && lists[i][cursors[i]] == min {
                    cursors[i] += 1;
                }
            }
        }
        self.counters.elements_scanned += lists.iter().map(|l| l.len() as u64).sum::<u64>();
    }

    /// Deduplicating merge-union of two sorted lists.
    fn union_pair(a: &[u32], b: &[u32], out: &mut Vec<u32>, c: &mut KernelCounters) {
        c.merge_calls += 1;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        c.elements_scanned += (a.len() + b.len()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter()
            .copied()
            .filter(|x| b.binary_search(x).is_ok())
            .collect()
    }

    fn sets() -> Vec<(Vec<u32>, Vec<u32>)> {
        vec![
            (vec![], vec![]),
            (vec![1], vec![]),
            (vec![1, 5, 9], vec![5]),
            (vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7, 9]),
            (vec![0, 1, 2, 3], vec![0, 1, 2, 3]),
            ((0..200).collect(), (0..400).step_by(3).collect()),
            (vec![7, 700], (0..1000).collect()),
        ]
    }

    #[test]
    fn all_paths_agree_with_naive() {
        let mut out = Vec::new();
        let mut c = KernelCounters::default();
        let mut k = ExtensionKernels::new();
        k.ensure_universe(1024);
        for (a, b) in sets() {
            let want = naive(&a, &b);
            intersect(&a, &b, &mut out, &mut c);
            assert_eq!(out, want, "adaptive {a:?} {b:?}");
            out.clear();
            merge_into(&a, &b, &mut out, &mut c);
            assert_eq!(out, want, "merge {a:?} {b:?}");
            out.clear();
            if a.len() <= b.len() {
                gallop_into(&a, &b, &mut out, &mut c);
            } else {
                gallop_into(&b, &a, &mut out, &mut c);
            }
            assert_eq!(out, want, "gallop {a:?} {b:?}");
            out.clear();
            if a.len() <= b.len() {
                k.bitset_into(&a, &b, &mut out);
            } else {
                k.bitset_into(&b, &a, &mut out);
            }
            assert_eq!(out, want, "bitset {a:?} {b:?}");
            k.intersect_into(&a, &b, &mut out);
            assert_eq!(out, want, "stateful {a:?} {b:?}");
        }
        assert!(c.calls() > 0 && c.elements_scanned > 0);
    }

    #[test]
    fn lower_bound_variant_filters() {
        let a: Vec<u32> = (0..100).collect();
        let b: Vec<u32> = (0..100).step_by(2).collect();
        let mut out = Vec::new();
        let mut c = KernelCounters::default();
        intersect_above(&a, &b, 50, &mut out, &mut c);
        let want: Vec<u32> = (52..100).step_by(2).collect();
        assert_eq!(out, want);
        let mut k = ExtensionKernels::new();
        k.intersect_above_into(&a, &b, 50, &mut out);
        assert_eq!(out, want);
        assert_eq!(seek_above(&a, 97), &[98, 99]);
        assert!(seek_above(&a, 99).is_empty());
    }

    #[test]
    fn seek_below_truncates_at_bound() {
        let a: Vec<u32> = vec![2, 5, 8, 11];
        assert_eq!(seek_below(&a, 8), &[2, 5]);
        assert_eq!(seek_below(&a, 9), &[2, 5, 8]);
        assert_eq!(seek_below(&a, 100), &a[..]);
        assert!(seek_below(&a, 2).is_empty());
        assert!(seek_below(&a, 0).is_empty());
        // Above + below compose into an open interval.
        assert_eq!(seek_below(seek_above(&a, 2), 11), &[5, 8]);
    }

    /// Progressive intersection over local indices, the reference the
    /// row levels must reproduce.
    fn naive_rows(set: &[u32], adj: &[Vec<u32>], path: &[usize]) -> Vec<usize> {
        (0..set.len())
            .filter(|&j| path.iter().all(|&i| adj[i].binary_search(&set[j]).is_ok()))
            .collect()
    }

    fn bits_of(words: &[u64]) -> Vec<usize> {
        (0..words.len() * 64)
            .filter(|&j| words[j / 64] >> (j % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn row_levels_nest_and_clear() {
        // set = [2, 5, 9]; adj lists over global ids.
        let set = [2u32, 5, 9];
        let adj = [vec![1, 5, 9], vec![9, 11], vec![]];
        let mut k = ExtensionKernels::new();
        k.build_rows(
            &set,
            |u| &adj[set.iter().position(|&x| x == u).unwrap()][..],
        );
        assert!(k.top_level().is_empty());
        for (j, want) in [vec![1, 2], vec![2], vec![]].into_iter().enumerate() {
            k.push_row_level(j);
            assert_eq!(k.top_level().len(), 1);
            assert_eq!(bits_of(k.top_level()), want);
            k.pop_row_level();
        }
        k.take_counters();
        k.push_row_level(0);
        assert_eq!(bits_of(k.top_level()), vec![1, 2]);
        k.push_row_level(1);
        assert_eq!(bits_of(k.top_level()), vec![2]);
        k.pop_row_level();
        assert_eq!(bits_of(k.top_level()), vec![1, 2]);
        k.clear_row_levels();
        assert!(k.top_level().is_empty());
        let c = k.take_counters();
        // Two levels: row 0 (3 adjacency entries + 2 map touches), then
        // one AND over one word. The unused rows cost nothing.
        assert_eq!((c.bitset_calls, c.elements_scanned), (2, 6));
        assert!(c.arena_high_water_bytes > 0);
        assert!(k.counters().is_empty());
    }

    #[test]
    fn multi_word_rows_match_naive_on_random_chains() {
        // Pseudo-random sets (up to 300 members, so up to five words per
        // row) via a fixed LCG; compare every level against naive
        // progressive intersection.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move |m: u32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as u32) % m
        };
        let mut k = ExtensionKernels::new();
        for trial in 0..50 {
            let mut mk = |len: u32| {
                let len = next(len) as usize;
                let mut v: Vec<u32> = (0..len).map(|_| next(2048)).collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let set = mk(300);
            let adj: Vec<Vec<u32>> = set.iter().map(|_| mk(600)).collect();
            k.build_rows(&set, |u| &adj[set.binary_search(&u).unwrap()][..]);
            if set.is_empty() {
                continue;
            }
            let mut path = Vec::new();
            for _ in 0..4 {
                let j = next(set.len() as u32) as usize;
                path.push(j);
                k.push_row_level(j);
                assert_eq!(
                    bits_of(k.top_level()),
                    naive_rows(&set, &adj, &path),
                    "trial {trial}"
                );
            }
            path.pop();
            k.pop_row_level();
            assert_eq!(
                bits_of(k.top_level()),
                naive_rows(&set, &adj, &path),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn union_matches_sort_dedup() {
        let mut k = ExtensionKernels::new();
        let lists: Vec<Vec<u32>> = vec![
            vec![5, 9, 40],
            vec![],
            (0..50).step_by(5).collect(),
            vec![9, 10, 11],
        ];
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let mut out = Vec::new();
        k.union_sorted_into(&refs, &mut out);
        let mut want: Vec<u32> = lists.iter().flatten().copied().collect();
        want.sort_unstable();
        want.dedup();
        assert_eq!(out, want);
        // Single and empty inputs.
        k.union_sorted_into(&[&[1, 2][..]], &mut out);
        assert_eq!(out, vec![1, 2]);
        k.union_sorted_into(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn retain_mapped_keeps_live_pairs_sorted() {
        // vmap keeps vertices 2,4,6 -> 0,1,2; emap keeps edges 1,3 -> 0,1.
        let mut vmap = vec![u32::MAX; 8];
        vmap[2] = 0;
        vmap[4] = 1;
        vmap[6] = 2;
        let mut emap = vec![u32::MAX; 5];
        emap[1] = 0;
        emap[3] = 1;
        let nbrs = [1, 2, 4, 6];
        let eids = [0, 1, 3, 4];
        let (mut ov, mut oe) = (Vec::new(), Vec::new());
        let mut c = KernelCounters::default();
        retain_mapped(&nbrs, &eids, &vmap, &emap, &mut ov, &mut oe, &mut c);
        assert_eq!(ov, vec![0, 1]);
        assert_eq!(oe, vec![0, 1]);
        assert_eq!(c.elements_scanned, 4);
        assert_eq!(c.bitset_calls, 1);
    }

    #[test]
    fn counters_absorb_and_take() {
        let mut a = KernelCounters {
            merge_calls: 1,
            gallop_calls: 2,
            bitset_calls: 3,
            elements_scanned: 10,
            arena_high_water_bytes: 100,
        };
        let b = KernelCounters {
            merge_calls: 1,
            arena_high_water_bytes: 50,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.merge_calls, 2);
        assert_eq!(a.calls(), 7);
        assert_eq!(a.arena_high_water_bytes, 100);
        let taken = a.take();
        assert_eq!(taken.calls(), 7);
        assert!(a.is_empty());
    }
}
