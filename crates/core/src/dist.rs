//! The distributed MST algorithms of the paper: the scalable Borůvka
//! algorithm (Algorithm 1) and Filter-Borůvka (Algorithm 2).
//!
//! Algorithm 1 repeats four bulk-synchronous stages on the 1D-partitioned
//! edge list until the remaining contracted graph fits the replicated base
//! case (Sec. IV):
//!
//! 1. [`min_edges`] — per-vertex lightest incident edge, with the
//!    allgather-merge for vertices whose edge range spans PE boundaries;
//! 2. [`contract_components`] — hooking along the selected edges, 2-cycle
//!    root election and distributed pointer doubling over the vertex-home
//!    partition (Sec. IV-B), emitting the round's MST edge ids;
//! 3. [`exchange_labels`] + [`relabel`] — the pull-based ghost-label
//!    protocol and endpoint rewriting (Sec. IV-C);
//! 4. [`redistribute`] — parallel-edge elimination (local prefilter or
//!    pure sorting, Sec. VI-B), distributed sorting, and re-establishing
//!    the distributed graph structure.
//!
//! An optional [`local_contract`] pass (Sec. IV-A) contracts purely local
//! subtrees before the first communication round. Its gate runs the pass
//! machine-wide iff at least a quarter of all edges join two unshared
//! vertices of one PE. High-locality families (grids, RGGs) pass it at
//! every p. Block-distributed GNM keeps about 1/p of its edges inside a
//! PE: it passes at p = 2 and 3 (at p = 2 the pass runs and removes only
//! ~5 % of the edges), sits right at the threshold at p = 4 and skips
//! above.
//!
//! Algorithm 2 ([`filter_mst`]) partitions edges by the unique-weight
//! total order around sampled pivots, recursing on the light half first
//! and filtering heavy edges through the block-distributed representative
//! array [`DistArray`] before recursing on the survivors (Sec. V) — the
//! distributed analogue of Filter-Kruskal.

use crate::instrument::{Phase, PhaseTimes, Phased};
use crate::seq::UnionFind;
use kamsta_comm::{route, Comm, FlatBuckets};
use kamsta_graph::hash::FxHashMap;
use kamsta_graph::{CEdge, DistGraph, InputGraph, VertexId, Weight};
use std::borrow::Cow;

/// Parallel-edge elimination strategy used by [`redistribute`]
/// (Sec. VI-B's ablation: a local prefilter "outperforms the pure
/// sorting approach by up to a factor of 2.5" because duplicates never
/// travel through the distributed sort).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DedupStrategy {
    /// Local per-`(u, v)`-pair prefilter before the distributed sort
    /// (source buckets, each sorted by the lexicographic key, then one
    /// run-head compaction).
    #[default]
    HashFilter,
    /// Pure sorting: global sort, then dedup — the ablation baseline.
    Sort,
}

/// Configuration of the distributed MST algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MstConfig {
    /// The base-case switch constant: contraction rounds stop once the
    /// global vertex count drops to `base_case_constant × p` and the
    /// remaining graph is solved replicated (Sec. IV-D).
    pub base_case_constant: u64,
    /// Run local preprocessing before the first communication round
    /// (Sec. IV-A); the Fig. 4 ablation disables it.
    pub preprocessing: bool,
    /// Parallel-edge elimination strategy (Sec. VI-B).
    pub dedup: DedupStrategy,
    /// Filter-Borůvka recursion cutoff: stop partitioning once the global
    /// edge count is at most this many edges per PE (Sec. V).
    pub filter_min_edges_per_pe: u64,
}

impl Default for MstConfig {
    fn default() -> Self {
        Self {
            base_case_constant: 256,
            preprocessing: true,
            dedup: DedupStrategy::default(),
            filter_min_edges_per_pe: 1024,
        }
    }
}

impl MstConfig {
    /// Vertex count below which the replicated base case takes over on a
    /// `p`-PE machine.
    pub fn base_threshold(&self, p: usize) -> u64 {
        self.base_case_constant.saturating_mul(p as u64)
    }

    /// This configuration with preprocessing disabled (Fig. 4 ablation).
    pub fn without_preprocessing(mut self) -> Self {
        self.preprocessing = false;
        self
    }
}

/// Statistics of one Filter-Borůvka run (the Theorem 1 experiment).
/// Identical on every PE: all counters are global quantities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Number of base-case MST computations performed.
    pub base_case_calls: u64,
    /// Total (global, directed) edges fed into base cases.
    pub base_case_edges: u64,
    /// Heavy edges eliminated by the representative-array filter.
    pub filtered_edges: u64,
    /// Number of pivot partitioning steps.
    pub partition_steps: u64,
}

/// Result of a distributed MST run on one PE.
#[derive(Clone, Debug)]
pub struct MstResult {
    /// This PE's share of the MSF, as *original* input edges (one
    /// direction per undirected MSF edge, globally).
    pub edges: Vec<CEdge>,
    /// Per-phase modeled/wall time of this PE (Fig. 6 taxonomy).
    pub phases: PhaseTimes,
}

/// One vertex's selected minimum edge (the output of `MIN EDGES`).
#[derive(Clone, Copy, Debug)]
pub struct MinEdge {
    /// The selecting vertex (a source on this PE).
    pub v: VertexId,
    /// Its globally lightest incident edge in the unique-weight order.
    pub edge: CEdge,
}

/// Wire format: fixed-width `v` then the `CEdge` field walk (36 bytes).
impl kamsta_comm::Wire for MinEdge {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.v.wire_write(out);
        self.edge.wire_write(out);
    }
    fn wire_read(r: &mut kamsta_comm::WireReader<'_>) -> Result<Self, kamsta_comm::WireError> {
        Ok(Self {
            v: VertexId::wire_read(r)?,
            edge: CEdge::wire_read(r)?,
        })
    }
    #[inline]
    fn wire_min_size() -> usize {
        8 + <CEdge as kamsta_comm::Wire>::wire_min_size()
    }
}

/// Output of one `CONTRACT COMPONENTS` round.
#[derive(Clone, Debug)]
pub struct ContractOutcome {
    /// Component label (root vertex) for every vertex local to this PE.
    pub labels: FxHashMap<VertexId, VertexId>,
    /// Ids of the input edges this PE's owned vertices contributed to the
    /// MST this round (each undirected MST edge emitted exactly once
    /// machine-wide).
    pub mst_edge_ids: Vec<u64>,
}

/// Output of the local preprocessing pass.
#[derive(Clone, Debug)]
pub struct PreprocessOutcome {
    /// Local edges surviving contraction (intra-component edges removed),
    /// still with original endpoints — [`relabel`] rewrites them. Empty
    /// when the gate rejects (`applied == false`): the caller keeps using
    /// its own graph, nothing is cloned.
    pub edges: Vec<CEdge>,
    /// Component label (minimum member id) of every contractible local
    /// vertex. Shared vertices are absent, which callers read as the
    /// identity; empty when the gate rejects.
    pub labels: FxHashMap<VertexId, VertexId>,
    /// True when the locality gate accepted and contraction ran.
    pub applied: bool,
    /// Ids of local edges proven to be MST edges by the cut property.
    pub mst_edge_ids: Vec<u64>,
}

// ---------------------------------------------------------------------
// pull-based label/parent lookup
// ---------------------------------------------------------------------

/// Pull-protocol lookup: resolve `queries` at the *home PE* of each
/// queried vertex with that PE's `resolve` function. Collective.
///
/// Pull rather than push: the edge_cases regression showed that routing
/// answers by home-of-reverse-edge misses duplicate holders; serving
/// explicit requests delivers to every PE that asks.
///
/// The home PE is monotone in the vertex id, so the radix-sorted query
/// list is already grouped by destination: both directions of the
/// exchange are flat buffers built from a count array alone — no
/// scatter pass and no per-item source tag. The reply carries *values
/// only*: it rides back in the request's bucket, so position alone pairs
/// it with the query — half the reply volume of a key-value exchange.
fn pull<F>(
    comm: &Comm,
    g: &DistGraph,
    queries: Vec<VertexId>,
    resolve: F,
) -> FxHashMap<VertexId, VertexId>
where
    F: Fn(VertexId) -> VertexId,
{
    pull_values(comm, queries, |q| g.home_of_vertex(q), resolve)
}

/// The count-only request/reply exchange shared by [`pull`] and the
/// [`DistArray`] lookups: radix-sort and dedup the queried ids, group
/// them by their (monotone) home with a count array alone, and run the
/// value-only [`Comm::request_reply`] wire pattern — replies zip back by
/// position. Collective.
fn pull_values(
    comm: &Comm,
    mut ids: Vec<u64>,
    home_of: impl Fn(u64) -> usize,
    resolve: impl Fn(u64) -> u64,
) -> FxHashMap<u64, u64> {
    kamsta_sort::radix_sort_keys(&mut ids);
    ids.dedup();
    comm.charge_local(ids.len() as u64);
    let mut counts = vec![0usize; comm.size()];
    for &id in &ids {
        counts[home_of(id)] += 1;
    }
    let asked = ids.clone();
    let requests = FlatBuckets::from_counts(ids, &counts);
    let values = comm.request_reply(requests, |&id| resolve(id));
    asked.into_iter().zip(values).collect()
}

// ---------------------------------------------------------------------
// pipeline stage 1: MIN EDGES
// ---------------------------------------------------------------------

/// Select each local vertex's globally lightest incident edge in the
/// unique-weight total order (Sec. IV: `MIN EDGES`). For vertices whose
/// edge range spans a PE boundary, local candidates are merged through an
/// allgather so every holder learns the same winner. Collective.
pub fn min_edges(comm: &Comm, g: &DistGraph) -> Vec<MinEdge> {
    comm.charge_local(g.edges.len() as u64);
    let mut sels: Vec<MinEdge> = Vec::new();
    let mut shared_cands: Vec<MinEdge> = Vec::new();
    for (v, range) in g.vertex_segments() {
        let best = g.edges[range]
            .iter()
            .filter(|e| !e.is_self_loop())
            .min_by_key(|e| (e.w, e.id));
        if let Some(&edge) = best {
            let sel = MinEdge { v, edge };
            if g.is_shared(v) {
                shared_cands.push(sel);
            }
            sels.push(sel);
        }
    }
    // Merge boundary-vertex candidates machine-wide (at most p − 1
    // distinct shared vertices exist, Sec. II-B).
    let all_cands = comm.allgatherv(shared_cands);
    if !all_cands.is_empty() {
        let mut winner: FxHashMap<VertexId, CEdge> = FxHashMap::default();
        for cand in all_cands {
            let slot = winner.entry(cand.v).or_insert(cand.edge);
            if (cand.edge.w, cand.edge.id) < (slot.w, slot.id) {
                *slot = cand.edge;
            }
        }
        for sel in &mut sels {
            if let Some(&edge) = winner.get(&sel.v) {
                sel.edge = edge;
            }
        }
    }
    sels
}

// ---------------------------------------------------------------------
// pipeline stage 2: CONTRACT COMPONENTS
// ---------------------------------------------------------------------

/// Hook every owned vertex along its selected edge, elect the smaller
/// endpoint of each pseudo-tree's 2-cycle as root, and resolve component
/// labels by distributed pointer doubling over the vertex-home partition
/// (Sec. IV-B). Emits the round's MST edge ids (one per non-root owned
/// vertex — exactly the pseudo-tree edges). Collective.
pub fn contract_components(comm: &Comm, g: &DistGraph, sels: &[MinEdge]) -> ContractOutcome {
    let rank = comm.rank();
    // Owned vertices: the home PE (last holder) runs the hooking; other
    // holders of a shared vertex receive the label afterwards.
    let mut parent: FxHashMap<VertexId, VertexId> = FxHashMap::default();
    let mut chosen: FxHashMap<VertexId, u64> = FxHashMap::default();
    for sel in sels {
        if g.home_of_vertex(sel.v) == rank {
            parent.insert(sel.v, sel.edge.v);
            chosen.insert(sel.v, sel.edge.id);
        }
    }
    comm.charge_local(sels.len() as u64);

    // 2-cycle root election: the component minimum edge is selected from
    // both sides; the smaller endpoint becomes the root.
    let targets: Vec<VertexId> = parent.values().copied().collect();
    let grand = pull(comm, g, targets, |x| parent.get(&x).copied().unwrap_or(x));
    let mut roots: Vec<VertexId> = Vec::new();
    for (&v, &u) in &parent {
        if grand.get(&u) == Some(&v) && v < u {
            roots.push(v);
        }
    }
    for &r in &roots {
        parent.insert(r, r);
    }

    // Pointer doubling until every owned pointer reaches its root. The
    // round count is synchronised via the allreduced change counter.
    loop {
        let targets: Vec<VertexId> = parent.values().copied().collect();
        let hop = pull(comm, g, targets, |x| parent.get(&x).copied().unwrap_or(x));
        let mut changed = 0u64;
        for u in parent.values_mut() {
            if let Some(&nu) = hop.get(u) {
                if nu != *u {
                    *u = nu;
                    changed += 1;
                }
            }
        }
        if comm.allreduce_sum(changed) == 0 {
            break;
        }
    }

    // Every owned non-root vertex contributes its selected edge.
    let mst_edge_ids: Vec<u64> = chosen
        .iter()
        .filter(|&(v, _)| parent.get(v) != Some(v))
        .map(|(_, &id)| id)
        .collect();

    // Labels for *all* local vertices (shared copies query the owner).
    let locals = g.local_vertices();
    let labels = pull(comm, g, locals, |x| parent.get(&x).copied().unwrap_or(x));
    ContractOutcome {
        labels,
        mst_edge_ids,
    }
}

// ---------------------------------------------------------------------
// pipeline stage 3: EXCHANGE LABELS + RELABEL
// ---------------------------------------------------------------------

/// Fetch component labels for this PE's ghost vertices — destinations
/// homed on other PEs — with the pull protocol (Sec. IV-C). Collective.
pub fn exchange_labels<F>(comm: &Comm, g: &DistGraph, label_of: F) -> FxHashMap<VertexId, VertexId>
where
    F: Fn(VertexId) -> VertexId,
{
    let rank = comm.rank();
    comm.charge_local(g.edges.len() as u64);
    let ghosts: Vec<VertexId> = g
        .edges
        .iter()
        .map(|e| e.v)
        .filter(|&v| g.home_of_vertex(v) != rank)
        .collect();
    pull(comm, g, ghosts, label_of)
}

/// Rewrite edge endpoints to component labels — sources through the local
/// `label_of`, destinations through the ghost table — and drop the
/// self-loops that contraction created. Preserves ids and weights, so the
/// symmetric closure of the distributed edge list is maintained. Borrows
/// the edge slice: the output is a fresh vector either way, so callers
/// never have to clone their graph to call this.
///
/// No hash lookup per edge: a source's label is resolved once per run of
/// equal sources (every caller passes source-sorted edges; runs keep any
/// order correct), and destinations read a dense table over their id
/// span, filled from the source labels and then overwritten by the ghost
/// map — the ghost label wins for a vertex that is both. Only when that
/// span exceeds `DENSE_SPAN_PER_VERTEX` ids per edge do destinations go
/// through the hash maps.
pub fn relabel<F>(
    comm: &Comm,
    g: &DistGraph,
    edges: &[CEdge],
    label_of: F,
    ghost: &FxHashMap<VertexId, VertexId>,
) -> Vec<CEdge>
where
    F: Fn(VertexId) -> VertexId,
{
    debug_assert!(g.pes() == comm.size());
    comm.charge_local(edges.len() as u64);
    let resolve = |v: VertexId| ghost.get(&v).copied().unwrap_or_else(|| label_of(v));
    let dense = dest_span(edges)
        .filter(|&(lo, hi)| hi - lo < DENSE_SPAN_PER_VERTEX.saturating_mul(edges.len() as u64));
    match dense {
        Some(span) => {
            let table = DestLabels::new(edges, span, &label_of, ghost);
            relabel_runs(edges, &label_of, |v| {
                table.get(v).unwrap_or_else(|| resolve(v))
            })
        }
        None => relabel_runs(edges, &label_of, resolve),
    }
}

/// The relabel pass proper: one `label_of` call per source run, `dest`
/// per edge, the output preallocated at the input length.
fn relabel_runs(
    edges: &[CEdge],
    label_of: impl Fn(VertexId) -> VertexId,
    dest: impl Fn(VertexId) -> VertexId,
) -> Vec<CEdge> {
    let mut out = Vec::with_capacity(edges.len());
    let mut run: Option<(VertexId, VertexId)> = None;
    for e in edges {
        let u = match run {
            Some((src, label)) if src == e.u => label,
            _ => {
                let label = label_of(e.u);
                run = Some((e.u, label));
                label
            }
        };
        let v = dest(e.v);
        if u != v {
            out.push(CEdge { u, v, ..*e });
        }
    }
    out
}

/// The smallest and the largest destination of `edges`.
fn dest_span(edges: &[CEdge]) -> Option<(VertexId, VertexId)> {
    let first = edges.first()?.v;
    Some(
        edges
            .iter()
            .fold((first, first), |(lo, hi), e| (lo.min(e.v), hi.max(e.v))),
    )
}

/// Empty slot of a [`DestLabels`] table. A label that really is
/// `VertexId::MAX` merely takes the hash path.
const UNSET: VertexId = VertexId::MAX;

/// Destination labels of one [`relabel`] call in a dense table over the
/// destination span `[lo, hi]`; [`UNSET`] marks ids that are neither a
/// source of the slice nor a ghost.
struct DestLabels {
    lo: VertexId,
    labels: Vec<VertexId>,
}

impl DestLabels {
    fn new(
        edges: &[CEdge],
        (lo, hi): (VertexId, VertexId),
        label_of: impl Fn(VertexId) -> VertexId,
        ghost: &FxHashMap<VertexId, VertexId>,
    ) -> Self {
        let mut labels = vec![UNSET; (hi - lo + 1) as usize];
        let index = |v: VertexId| usize::try_from(v.wrapping_sub(lo)).ok();
        let mut prev = None;
        for e in edges {
            if prev != Some(e.u) {
                prev = Some(e.u);
                if let Some(slot) = index(e.u).and_then(|i| labels.get_mut(i)) {
                    *slot = label_of(e.u);
                }
            }
        }
        for (&v, &label) in ghost {
            if let Some(slot) = index(v).and_then(|i| labels.get_mut(i)) {
                *slot = label;
            }
        }
        Self { lo, labels }
    }

    /// The tabled label of destination `v`, if any.
    #[inline]
    fn get(&self, v: VertexId) -> Option<VertexId> {
        let label = self.labels[(v - self.lo) as usize];
        (label != UNSET).then_some(label)
    }
}

// ---------------------------------------------------------------------
// pipeline stage 4: REDISTRIBUTE
// ---------------------------------------------------------------------

/// Parallel-edge elimination + distributed sort + re-establishment of the
/// distributed graph structure (Sec. IV-C, Sec. VI-B). Keeps, per ordered
/// endpoint pair, the copy that is minimal in `(w, id)` — both directions
/// of an undirected pair see the same weight multiset, so the surviving
/// graph stays symmetric. Collective.
pub fn redistribute(comm: &Comm, edges: Vec<CEdge>, cfg: &MstConfig) -> DistGraph {
    let filtered: Vec<CEdge> = match cfg.dedup {
        DedupStrategy::HashFilter => prefilter_pairs(comm, &edges),
        DedupStrategy::Sort => {
            // Same linear scan as the prefilter pays, so the Sec. VI-B
            // ablation compares strategies under equal γ-accounting.
            comm.charge_local(edges.len() as u64);
            edges.into_iter().filter(|e| !e.is_self_loop()).collect()
        }
    };

    // Distributed sort under the lexicographic order, local phases radix
    // on the packed (u, v, w, id) key.
    let mut sorted = kamsta_sort::sort_auto_by_key(comm, filtered, 0xC0FFEE, CEdge::lex_key);
    comm.charge_local(sorted.len() as u64);
    // Keep the first (lightest, smallest-id) copy of each consecutive pair
    // group; groups straddling PE boundaries are resolved below.
    sorted.dedup_by(|a, b| a.u == b.u && a.v == b.v);

    let my_first = sorted.first().map(|e| (e.u, e.v));
    let my_last = sorted.last().map(|e| (e.u, e.v));
    let bounds = comm.allgather((my_first, my_last));
    if let Some(fp) = my_first {
        // Globally sorted: if an earlier non-empty PE ends on my first
        // pair, that PE holds the group's first copy — drop my leaders.
        let continued = bounds[..comm.rank()]
            .iter()
            .any(|&(_, last)| last == Some(fp));
        if continued {
            let cut = sorted.iter().take_while(|e| (e.u, e.v) == fp).count();
            sorted.drain(..cut);
        }
    }

    let balanced = kamsta_sort::rebalance(comm, sorted);
    DistGraph::establish(comm, balanced)
}

// ---------------------------------------------------------------------
// local preprocessing (Sec. IV-A)
// ---------------------------------------------------------------------

/// Fraction of globally PE-internal edges above which local contraction
/// is worthwhile (the high-locality gate of Sec. IV-A).
const PREPROCESS_MIN_LOCAL_FRACTION: f64 = 0.25;

/// Sentinel "no vertex / no edge" index in the preprocessing tables.
const NONE: u32 = u32::MAX;

/// Ids spread wider than this many per table user make a dense id table
/// too sparse to pay: the preprocessing target table (per local vertex)
/// then binary-searches the sources, and [`relabel`]'s destination table
/// (per edge) falls back to the hash maps. Service certificate graphs
/// spread a few vertices over a wide id range.
const DENSE_SPAN_PER_VERTEX: u64 = 4;

/// The local vertices of a [`DistGraph`] slice, indexed by their position
/// among its source segments, with the union-find over them. Only the
/// first and the last source can be shared, so the contractible ones are
/// the index range `lo..hi`.
struct LocalComponents {
    verts: Vec<VertexId>,
    lo: usize,
    hi: usize,
    uf: UnionFind,
    /// `dense[v − verts[0]]`: the component root of `v` as of the last
    /// [`LocalComponents::refresh`] if `v` is a contractible source, else
    /// [`NONE`]. Empty when ids are too sparse for a table.
    dense: Vec<u32>,
}

impl LocalComponents {
    fn new(g: &DistGraph) -> Self {
        let verts = g.local_vertices();
        let n = verts.len();
        let lo = usize::from(g.first_shared);
        let hi = (n - usize::from(g.last_shared && n > 0)).max(lo);
        let dense = match (verts.first(), verts.last()) {
            (Some(&first), Some(&last))
                if last - first < DENSE_SPAN_PER_VERTEX.saturating_mul(n as u64) =>
            {
                let mut dense = vec![NONE; (last - first + 1) as usize];
                for (i, &v) in verts.iter().enumerate().take(hi).skip(lo) {
                    dense[(v - first) as usize] = i as u32;
                }
                dense
            }
            _ => Vec::new(),
        };
        Self {
            verts,
            lo,
            hi,
            uf: UnionFind::new(n),
            dense,
        }
    }

    fn is_contractible(&self, i: usize) -> bool {
        (self.lo..self.hi).contains(&i)
    }

    /// Component root of `v` when it is a contractible local vertex.
    #[inline]
    fn root_of(&mut self, v: VertexId) -> Option<u32> {
        let first = *self.verts.first()?;
        if self.dense.is_empty() {
            let i = self.verts.binary_search(&v).ok()?;
            return self.is_contractible(i).then(|| self.uf.find(i as u32));
        }
        let off = v.wrapping_sub(first);
        let r = *self.dense.get(usize::try_from(off).ok()?)?;
        (r != NONE).then_some(r)
    }

    /// Re-point the dense table at the current roots after merges.
    fn refresh(&mut self) {
        for r in self.dense.iter_mut().filter(|r| **r != NONE) {
            *r = self.uf.find(*r);
        }
    }
}

/// True if edge `k` precedes edge `than` ([`NONE`]: no edge yet) in the
/// unique-weight order `(w, id)`.
#[inline]
fn lighter(edges: &[CEdge], k: u32, than: u32) -> bool {
    if than == NONE {
        return true;
    }
    let (a, b) = (&edges[k as usize], &edges[than as usize]);
    (a.w, a.id) < (b.w, b.id)
}

/// Contract purely local subtrees before the first communication round
/// (Sec. IV-A). A vertex is *contractible* when it is local and not
/// shared, so its full adjacency is on this PE and its minimum edge is a
/// valid global minimum (cut property). Components grow only through
/// contractible vertices; a component whose minimum edge leaves the
/// contractible set freezes. Gate and outcome flag are global: the pass
/// runs machine-wide iff at least [`PREPROCESS_MIN_LOCAL_FRACTION`] of
/// all edges join two contractible vertices of one PE. Collective.
///
/// The kernel is an iterated local Borůvka without hash maps: vertices
/// are indexed by segment position, edge targets resolve to component
/// roots through a dense id table (binary search when ids are sparse),
/// one list of live edge indices is compacted in place every round —
/// intra-component edges and the edges of frozen components leave it for
/// good — and the per-round minima sit in a dense table over component
/// roots. A merged component is frozen iff either part was: a frozen
/// part's exit edge `f` is lighter than the merge edge, which is the
/// other part's minimum exit, so `f` stays the minimum exit of the union.
pub fn local_contract(comm: &Comm, g: &DistGraph, cfg: &MstConfig) -> PreprocessOutcome {
    assert!(
        g.edges.len() < NONE as usize,
        "edge indices must fit u32 below the sentinel"
    );
    let mut cc = LocalComponents::new(g);
    let n = cc.verts.len();

    // One pass serves the locality gate — the globally averaged fraction
    // of edges with both endpoints contractible on their holder — and
    // round one, where every vertex is its own component: its minimum is
    // the lightest non-loop edge of its segment. It also seeds the live
    // list with the ascending indices of those edges.
    comm.charge_local(g.edges.len() as u64);
    let mut internal = 0u64;
    let mut best = vec![NONE; n];
    let mut live: Vec<u32> = Vec::with_capacity(g.edges.len());
    for (i, (_, range)) in g.vertex_segments().enumerate() {
        if !cc.is_contractible(i) {
            continue;
        }
        for k in range {
            let e = &g.edges[k];
            internal += u64::from(cc.root_of(e.v).is_some());
            if e.is_self_loop() {
                continue;
            }
            live.push(k as u32);
            if lighter(&g.edges, k as u32, best[i]) {
                best[i] = k as u32;
            }
        }
    }
    let internal_global = comm.allreduce_sum(internal);
    let applied = cfg.preprocessing
        && g.m_global > 0
        && (internal_global as f64) >= PREPROCESS_MIN_LOCAL_FRACTION * g.m_global as f64;
    if !applied {
        return PreprocessOutcome {
            edges: Vec::new(),
            labels: FxHashMap::default(),
            applied: false,
            mst_edge_ids: Vec::new(),
        };
    }

    let mut frozen = vec![false; n];
    let mut roots: Vec<u32> = (cc.lo..cc.hi)
        .filter(|&i| best[i] != NONE)
        .map(|i| i as u32)
        .collect();
    let mut mst_edge_ids: Vec<u64> = Vec::new();
    loop {
        // Hook along each minimum edge, roots ascending. The mutual-
        // minimum 2-cycle shares one undirected edge; the second union
        // finds both ends joined and must not re-emit it.
        roots.sort_unstable();
        let mut merged = false;
        for &cu in &roots {
            let e = &g.edges[std::mem::replace(&mut best[cu as usize], NONE) as usize];
            let ru = cc.uf.find(cu);
            match cc.root_of(e.v) {
                Some(tv) => {
                    let rv = cc.uf.find(tv);
                    if ru != rv {
                        let fr = frozen[ru as usize] || frozen[rv as usize];
                        cc.uf.union(ru, rv);
                        frozen[cc.uf.find(ru) as usize] = fr;
                        mst_edge_ids.push(e.id);
                        merged = true;
                    }
                }
                // Minimum edge leaves the contractible set: freeze.
                None => frozen[ru as usize] = true,
            }
        }
        roots.clear();
        if !merged {
            break;
        }
        cc.refresh();

        // Component minimum over unfrozen components, compacting `live`
        // in place; it stays ascending, so the source cursor only moves
        // forward.
        comm.charge_local(live.len() as u64);
        let mut src = 0usize;
        let mut cu = NONE;
        let mut keep = 0usize;
        for k in 0..live.len() {
            let ei = live[k];
            let e = &g.edges[ei as usize];
            if k == 0 || e.u != cc.verts[src] {
                while cc.verts[src] != e.u {
                    src += 1;
                }
                cu = cc.uf.find(src as u32);
            }
            if frozen[cu as usize] || cc.root_of(e.v) == Some(cu) {
                continue;
            }
            live[keep] = ei;
            keep += 1;
            let slot = &mut best[cu as usize];
            if *slot == NONE {
                roots.push(cu);
            }
            if lighter(&g.edges, ei, *slot) {
                *slot = ei;
            }
        }
        live.truncate(keep);
    }
    drop(live);

    // Label per component: its minimum member id, which the ascending
    // index walk meets first.
    let mut rep: Vec<VertexId> = vec![VertexId::MAX; n];
    let mut labels: FxHashMap<VertexId, VertexId> =
        FxHashMap::with_capacity_and_hasher(cc.hi - cc.lo, Default::default());
    for i in cc.lo..cc.hi {
        let label = &mut rep[cc.uf.find(i as u32) as usize];
        if *label == VertexId::MAX {
            *label = cc.verts[i];
        }
        labels.insert(cc.verts[i], *label);
    }

    // Drop intra-component edges (they would become self-loops). The
    // dense table is current: the last round merged nothing.
    comm.charge_local(g.edges.len() as u64);
    let mut edges: Vec<CEdge> = Vec::new();
    for (i, (_, range)) in g.vertex_segments().enumerate() {
        if !cc.is_contractible(i) {
            edges.extend_from_slice(&g.edges[range]);
            continue;
        }
        let cu = cc.uf.find(i as u32);
        for e in &g.edges[range] {
            if cc.root_of(e.v) != Some(cu) {
                edges.push(*e);
            }
        }
    }

    PreprocessOutcome {
        edges,
        labels,
        applied: true,
        mst_edge_ids,
    }
}

// ---------------------------------------------------------------------
// replicated base case
// ---------------------------------------------------------------------

/// Kruskal over a replicated edge list, by the unique-weight total order
/// with ids as the final tie-break. Returns the chosen edge ids —
/// identical on every PE.
fn kruskal_ids(all: &[CEdge]) -> Vec<u64> {
    let (ids, _) = kruskal_ids_and_labels(all);
    ids
}

/// Sort edges by the unique-weight total order `(w, id)` — the
/// pair-canonical ids make this the paper's `(w, min, max)` order on
/// *original* endpoints, invariant under contraction. One radix sort on
/// the packed 96-bit key, width-parallel on hybrid PEs (bit-identical
/// to the sequential sorter at every width).
fn sort_by_unique_weight(edges: &mut [CEdge]) {
    kamsta_sort::par_radix_sort_by_key(edges, |e: &CEdge| ((e.w as u128) << 64) | e.id as u128);
}

/// As [`kruskal_ids`], additionally returning the component label (the
/// minimum member vertex id) of every vertex present in `all`.
fn kruskal_ids_and_labels(all: &[CEdge]) -> (Vec<u64>, FxHashMap<VertexId, VertexId>) {
    let mut vidx: FxHashMap<VertexId, u32> = FxHashMap::default();
    let mut verts: Vec<VertexId> = Vec::new();
    for e in all {
        for v in [e.u, e.v] {
            vidx.entry(v).or_insert_with(|| {
                verts.push(v);
                (verts.len() - 1) as u32
            });
        }
    }
    let mut order: Vec<CEdge> = all.iter().filter(|e| !e.is_self_loop()).copied().collect();
    sort_by_unique_weight(&mut order);
    let mut uf = UnionFind::new(verts.len());
    let mut ids = Vec::new();
    for e in order {
        if uf.union(vidx[&e.u], vidx[&e.v]) {
            ids.push(e.id);
        }
    }
    let mut rep: Vec<VertexId> = vec![VertexId::MAX; verts.len()];
    for (i, &v) in verts.iter().enumerate() {
        let r = uf.find(i as u32) as usize;
        rep[r] = rep[r].min(v);
    }
    let labels = verts
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, rep[uf.find(i as u32) as usize]))
        .collect();
    (ids, labels)
}

/// Local keep-lightest-per-pair prefilter used by the `REDISTRIBUTE`
/// dedup — identical duplicates and parallel copies never travel. Keeps,
/// per ordered `(u, v)` pair of a non-loop edge, the copy minimal in
/// `(w, id)`, and returns the survivors in lexicographic order (see
/// [`prefilter`]). Both directions survive, keeping the edge list
/// symmetric.
fn prefilter_pairs(comm: &Comm, edges: &[CEdge]) -> Vec<CEdge> {
    prefilter(comm, edges, Keep::NonLoop)
}

/// Keep-lightest-per-*unordered*-pair prefilter for the replicated base
/// cases. The symmetric closure holds both directions of every
/// undirected edge machine-wide, and a sequential Kruskal can only ever
/// use, per unordered pair, the copy minimal in `(w, id)` — the back
/// edge and every (also heavier) parallel copy join two already-connected
/// components. Keeping only the `u < v` direction halves the gathered
/// volume; with `(u, v) = (min, max)` after the direction filter, the
/// pair dedup of [`prefilter`] keeps exactly the candidate the
/// sequential tie-break would pick. The undirected MSF is unique under
/// the unique-weight total order, so the forest is unchanged.
fn prefilter_unordered(comm: &Comm, edges: &[CEdge]) -> Vec<CEdge> {
    prefilter(comm, edges, Keep::Ascending)
}

/// The edges a [`prefilter`] keeps. A closed set of pure predicates: the
/// kernel's uninitialised scatter relies on two scans agreeing.
#[derive(Clone, Copy, Debug)]
enum Keep {
    /// Every non-loop edge, `u != v` ([`prefilter_pairs`]).
    NonLoop,
    /// One direction per undirected edge, `u < v`
    /// ([`prefilter_unordered`]).
    Ascending,
}

impl Keep {
    #[inline]
    fn keeps(self, e: &CEdge) -> bool {
        match self {
            Keep::NonLoop => e.u != e.v,
            Keep::Ascending => e.u < e.v,
        }
    }
}

/// The prefilter kernel: exactly `filter(keep) → sort by
/// [`CEdge::lex_key`] → keep the first edge of every (u, v) run`, without
/// sorting the whole list. Edges are bucketed by source: bucket
/// `(u − lo) >> shift`, where `lo` is the smallest kept source and
/// `shift` the smallest value that keeps the bucket count at most the
/// kept count `n` — one source per bucket for dense labels, a few
/// neighbouring ones for sparse ids. A counting pass sizes the buckets,
/// a second pass scatters the kept edges straight into an uninitialised
/// output of capacity `n`, each bucket is sorted on its own (bucket
/// ranges in parallel on hybrid PEs), and the run heads are compacted in
/// place. Buckets ascend in source, so their concatenation is the
/// lexicographic order.
///
/// γ is charged for the counting scan (every input edge), the scatter
/// (`n`) and `Σ n_b·⌈log2 n_b⌉` for the bucket sorts — a function of the
/// input alone, so identical at every pool width.
fn prefilter(comm: &Comm, edges: &[CEdge], keep: Keep) -> Vec<CEdge> {
    comm.charge_local(edges.len() as u64);
    let (n, lo, hi) = edges
        .iter()
        .filter(|e| keep.keeps(e))
        .fold((0usize, VertexId::MAX, 0), |(n, lo, hi), e| {
            (n + 1, lo.min(e.u), hi.max(e.u))
        });
    if n == 0 {
        return Vec::new();
    }
    assert!(n < u32::MAX as usize, "bucket offsets must fit u32");
    comm.charge_local(n as u64);
    // With n = 1 the span is 0; otherwise `span >> 63 ≤ 1 < n`.
    let shift = (0..u64::BITS)
        .find(|&s| (hi - lo) >> s < n as u64)
        .expect("some shift below 64 fits the span into n buckets");
    let bucket = |e: &CEdge| ((e.u - lo) >> shift) as usize;

    // Count bucket b at `pos[b + 2]`; the prefix sum then puts its start
    // at `pos[b + 1]`, its write cursor. The scatter leaves that cursor
    // at the bucket's end, which is the next bucket's start, so
    // `pos[..=buckets]` ends up as the bucket starts with `pos[buckets] =
    // n`. Filling every bucket front to back keeps input order inside it:
    // the edges of one source run arrive ascending and stay ascending,
    // which is what the bucket sorts see.
    let buckets = ((hi - lo) >> shift) as usize + 1;
    let mut pos = vec![0u32; buckets + 2];
    for e in edges.iter().filter(|e| keep.keeps(e)) {
        pos[bucket(e) + 2] += 1;
    }
    let mut sum = 0u32;
    for p in &mut pos {
        sum += *p;
        *p = sum;
    }

    let mut out: Vec<CEdge> = Vec::with_capacity(n);
    let slots = &mut out.spare_capacity_mut()[..n];
    for e in edges.iter().filter(|e| keep.keeps(e)) {
        let p = &mut pos[bucket(e) + 1];
        slots[*p as usize].write(*e);
        *p += 1;
    }
    // SAFETY: the scatter pass sees exactly the edges the counting pass
    // counted (same immutable slice, same pure `Keep` predicate), so bucket b
    // received exactly its count of writes into its own slot range, and
    // the ranges tile `0..n`: every slot below `n` is initialised.
    unsafe { out.set_len(n) };

    comm.charge_local(sort_buckets(&mut out, &pos[..=buckets]));
    out.dedup_by(|a, b| a.u == b.u && a.v == b.v);
    out
}

/// Bucket slices below this many edges are sorted on the calling thread:
/// a job on the pool costs more than sorting a few thousand edges.
const PAR_BUCKET_CUTOFF: usize = 1 << 14;

/// Sort every bucket `out[starts[b] − starts[0] .. starts[b + 1] −
/// starts[0]]` by [`CEdge::lex_key`] and return `Σ n_b·⌈log2 n_b⌉`. On a
/// hybrid PE the bucket range is split at the bucket boundary nearest
/// its middle element and the halves sort in parallel; a single bucket
/// above the cutoff uses the pool's merge sort. Buckets are disjoint and
/// the key is a total order, so the result is the same at every width.
fn sort_buckets(out: &mut [CEdge], starts: &[u32]) -> u64 {
    use rayon::prelude::*;
    let wide = out.len() >= PAR_BUCKET_CUTOFF && rayon::current_num_threads() > 1;
    let base = starts[0] as usize;
    if wide && starts.len() > 2 {
        let middle = (base + out.len() / 2) as u32;
        let k = starts
            .partition_point(|&s| s <= middle)
            .clamp(1, starts.len() - 2);
        let (left, right) = out.split_at_mut(starts[k] as usize - base);
        let (a, b) = rayon::join(
            || sort_buckets(left, &starts[..=k]),
            || sort_buckets(right, &starts[k..]),
        );
        return a + b;
    }
    let mut ops = 0u64;
    for w in starts.windows(2) {
        let bucket = &mut out[w[0] as usize - base..w[1] as usize - base];
        if bucket.len() < 2 {
            continue;
        }
        ops += bucket.len() as u64 * u64::from(kamsta_comm::ceil_log2(bucket.len()));
        if wide {
            bucket.par_sort_unstable_by_key(CEdge::lex_key);
        } else {
            bucket.sort_unstable_by_key(CEdge::lex_key);
        }
    }
    ops
}

/// The base case (Sec. IV-D stand-in): gather the prefiltered remaining
/// edges at rank 0 and solve sequentially there. Only the root receives
/// ids — it is also the PE that claims them for `REDISTRIBUTE MST`, so
/// nothing needs to be broadcast back. Collective.
fn rooted_base_case(comm: &Comm, edges: &[CEdge]) -> Vec<u64> {
    let mine = prefilter_unordered(comm, edges);
    match comm.gatherv(0, mine) {
        Some(all) => {
            comm.charge_local(2 * all.len() as u64);
            kruskal_ids(&all)
        }
        None => Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Algorithm 1: distributed Borůvka
// ---------------------------------------------------------------------

/// The scalable distributed Borůvka algorithm (Algorithm 1): optional
/// local preprocessing, then contraction rounds until the replicated base
/// case, then `REDISTRIBUTE MST` to map edge ids back to original edges.
/// Collective; returns this PE's share of the MSF.
pub fn boruvka_mst(comm: &Comm, input: &InputGraph, cfg: &MstConfig) -> MstResult {
    let mut ph = Phased::new(comm);
    let p = comm.size();
    let mut msf_ids: Vec<u64> = Vec::new();
    // The working graph: the pipeline reads the input graph in place
    // until the first redistribution builds an owned one — the input is
    // never cloned.
    let mut cur: Option<DistGraph> = None;

    if cfg.preprocessing {
        let pre = ph.measure(Phase::LocalPreprocessing, |c| {
            local_contract(c, &input.graph, cfg)
        });
        if pre.applied {
            msf_ids.extend(&pre.mst_edge_ids);
            let labels = pre.labels;
            let label_of = |v: VertexId| labels.get(&v).copied().unwrap_or(v);
            let relabeled = ph.measure(Phase::ExchangeLabelsRelabel, |c| {
                let ghost = exchange_labels(c, &input.graph, label_of);
                relabel(c, &input.graph, &pre.edges, label_of, &ghost)
            });
            cur = Some(ph.measure(Phase::Redistribute, |c| redistribute(c, relabeled, cfg)));
        }
    }

    loop {
        let g = cur.as_ref().unwrap_or(&input.graph);
        if g.n_global <= cfg.base_threshold(p) || g.m_global == 0 {
            break;
        }
        let sels = ph.measure(Phase::GraphSetupMinEdges, |c| min_edges(c, g));
        let outcome = ph.measure(Phase::ContractComponents, |c| {
            contract_components(c, g, &sels)
        });
        msf_ids.extend(&outcome.mst_edge_ids);
        let labels = outcome.labels;
        let label_of = |v: VertexId| labels.get(&v).copied().unwrap_or(v);
        let relabeled = ph.measure(Phase::ExchangeLabelsRelabel, |c| {
            let ghost = exchange_labels(c, g, label_of);
            relabel(c, g, &g.edges, label_of, &ghost)
        });
        cur = Some(ph.measure(Phase::Redistribute, |c| redistribute(c, relabeled, cfg)));
    }

    let g = cur.as_ref().unwrap_or(&input.graph);
    let edges = ph.measure(Phase::BaseCaseRedistributeMst, |c| {
        // Non-root PEs receive no ids from the rooted base case.
        msf_ids.extend(rooted_base_case(c, &g.edges));
        input.redistribute_mst(c, std::mem::take(&mut msf_ids))
    });
    MstResult {
        edges,
        phases: ph.times,
    }
}

// ---------------------------------------------------------------------
// the block-distributed representative array (Sec. V)
// ---------------------------------------------------------------------

/// A block-distributed array over a dense id space `[0, n)`, holding one
/// `u64` per id — the representative/parent arrays of Filter-Borůvka's
/// distributed filtering and of the sparse-matrix baseline. PE `i` owns
/// the contiguous block `[i·n/p, (i+1)·n/p)`; entries start as the
/// identity.
#[derive(Clone, Debug)]
pub struct DistArray {
    values: Vec<u64>,
    lo: u64,
    n: u64,
    p: usize,
}

impl DistArray {
    /// Create the identity array over `[0, n)`. Collective only in the
    /// sense that every PE must construct it with the same `n`.
    pub fn new(comm: &Comm, n: u64) -> Self {
        let p = comm.size();
        let rank = comm.rank();
        let lo = Self::block_start(n, p, rank);
        let hi = Self::block_start(n, p, rank + 1);
        Self {
            values: (lo..hi).collect(),
            lo,
            n,
            p,
        }
    }

    fn block_start(n: u64, p: usize, i: usize) -> u64 {
        (i as u64).saturating_mul(n) / p as u64
    }

    /// Owning PE of index `id`.
    pub fn home(&self, id: u64) -> usize {
        debug_assert!(id < self.n);
        let mut dest = ((id as u128 * self.p as u128) / self.n.max(1) as u128) as usize;
        dest = dest.min(self.p - 1);
        while dest > 0 && id < Self::block_start(self.n, self.p, dest) {
            dest -= 1;
        }
        while dest + 1 < self.p && id >= Self::block_start(self.n, self.p, dest + 1) {
            dest += 1;
        }
        dest
    }

    /// Number of entries this PE owns.
    pub fn local_len(&self) -> usize {
        self.values.len()
    }

    /// Fetch `a[id]` for every queried id (duplicates welcome); returns
    /// an id → value map. Collective. The block home is monotone in the
    /// id, so both exchange directions are count-only flat buffers (see
    /// [`pull`]).
    pub fn bulk_get(&self, comm: &Comm, ids: Vec<u64>) -> FxHashMap<u64, u64> {
        pull_values(
            comm,
            ids,
            |id| self.home(id),
            |id| self.values[(id - self.lo) as usize],
        )
    }

    /// Write `a[id] = value` for every pair (last writer per id wins
    /// deterministically by sender rank, then submission order).
    /// Collective.
    pub fn bulk_set(&mut self, comm: &Comm, updates: Vec<(u64, u64)>) {
        comm.charge_local(updates.len() as u64);
        let routed: Vec<(usize, (u64, u64))> = updates
            .into_iter()
            .map(|(id, val)| (self.home(id), (id, val)))
            .collect();
        for (id, val) in route(comm, routed) {
            self.values[(id - self.lo) as usize] = val;
        }
    }

    /// Shortcut the array to its roots by pointer doubling: repeatedly
    /// replace every entry by the entry it points at, until the global
    /// fixpoint. Requires the pointer graph to be a forest with self-loop
    /// roots. Collective.
    pub fn compress(&mut self, comm: &Comm) {
        loop {
            let targets: Vec<u64> = self
                .values
                .iter()
                .enumerate()
                .filter(|&(i, &v)| v != self.lo + i as u64)
                .map(|(_, &v)| v)
                .collect();
            let hop = self.bulk_get(comm, targets);
            let mut changed = 0u64;
            comm.charge_local(self.values.len() as u64);
            for v in self.values.iter_mut() {
                if let Some(&nv) = hop.get(v) {
                    if nv != *v {
                        *v = nv;
                        changed += 1;
                    }
                }
            }
            if comm.allreduce_sum(changed) == 0 {
                break;
            }
        }
    }

    /// Apply a replicated relabeling to the owned block: every stored
    /// value present in `map` is replaced. Local (the map is already
    /// replicated).
    pub fn apply_map(&mut self, comm: &Comm, map: &FxHashMap<u64, u64>) {
        comm.charge_local(self.values.len() as u64);
        for v in self.values.iter_mut() {
            if let Some(&nv) = map.get(v) {
                *v = nv;
            }
        }
    }

    /// Absorb a relabeling held only at rank 0: every PE queries the root
    /// for its distinct stored values and rewrites matches — far cheaper
    /// than replicating the map when blocks are small relative to the
    /// graph. Collective.
    pub fn absorb_from_root(&mut self, comm: &Comm, map: Option<FxHashMap<u64, u64>>) {
        let map = map.unwrap_or_default();
        let resolved = pull_values(
            comm,
            self.values.clone(),
            |_| 0,
            |v| map.get(&v).copied().unwrap_or(v),
        );
        for v in self.values.iter_mut() {
            if let Some(&nv) = resolved.get(v) {
                *v = nv;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Algorithm 2: Filter-Borůvka
// ---------------------------------------------------------------------

/// The unique-weight total order Filter-Borůvka partitions on: `(w, id)`
/// with pair-canonical ids — direction-symmetric (both copies of an
/// undirected edge share the id) and contraction-invariant.
type WeightKey = (Weight, u64);

/// Deterministic sample-median pivot over the unique-weight keys.
fn sample_pivot(comm: &Comm, edges: &[CEdge]) -> WeightKey {
    const SAMPLES_PER_PE: usize = 24;
    let mut sample: Vec<WeightKey> = Vec::with_capacity(SAMPLES_PER_PE);
    if !edges.is_empty() {
        let stride = (edges.len() / SAMPLES_PER_PE).max(1);
        sample.extend(
            edges
                .iter()
                .step_by(stride)
                .take(SAMPLES_PER_PE)
                .map(|e| (e.w, e.id)),
        );
    }
    let mut all = comm.allgatherv(sample);
    all.sort_unstable();
    all[all.len() / 2]
}

/// Recursion state threaded through [`filter_mst`].
struct FilterCtx<'a> {
    cfg: &'a MstConfig,
    stats: FilterStats,
    msf_ids: Vec<u64>,
}

/// Base case: relabel through the representative array, replicate, solve
/// sequentially, absorb the new components back into the array.
fn filter_base_case(comm: &Comm, edges: &[CEdge], reps: &mut DistArray, ctx: &mut FilterCtx) {
    let mut endpoints: Vec<u64> = Vec::with_capacity(edges.len() * 2);
    for e in edges {
        endpoints.push(e.u);
        endpoints.push(e.v);
    }
    let rep_of = reps.bulk_get(comm, endpoints);
    comm.charge_local(edges.len() as u64);
    let relabeled: Vec<CEdge> = edges
        .iter()
        .filter_map(|&(mut e)| {
            e.u = *rep_of.get(&e.u).unwrap_or(&e.u);
            e.v = *rep_of.get(&e.v).unwrap_or(&e.v);
            (e.u != e.v).then_some(e)
        })
        .collect();
    let kept = comm.allreduce_sum(relabeled.len() as u64);
    ctx.stats.base_case_calls += 1;
    ctx.stats.base_case_edges += kept;
    let mine = prefilter_unordered(comm, &relabeled);
    let labels_at_root = comm.gatherv(0, mine).map(|all| {
        comm.charge_local(2 * all.len() as u64);
        let (ids, labels) = kruskal_ids_and_labels(&all);
        ctx.msf_ids.extend(ids);
        labels
    });
    reps.absorb_from_root(comm, labels_at_root);
}

/// Quicksort-style recursion of Algorithm 2: partition by a sampled
/// pivot, recurse light-first, filter the heavy side through the
/// representative array, recurse on the survivors. All branch decisions
/// are allreduced, keeping every PE in lockstep.
fn filter_rec(
    comm: &Comm,
    ph: &mut Phased<'_>,
    edges: Cow<'_, [CEdge]>,
    reps: &mut DistArray,
    ctx: &mut FilterCtx,
    depth: u32,
) {
    let p = comm.size();
    let m = comm.allreduce_sum(edges.len() as u64);
    if m == 0 {
        return;
    }
    if m <= ctx.cfg.filter_min_edges_per_pe.saturating_mul(p as u64) || depth >= 60 {
        ph_base(ph, &edges, reps, ctx);
        return;
    }
    ctx.stats.partition_steps += 1;
    let (light, heavy) = ph.measure(Phase::PartitionFilter, |c| {
        let pivot = sample_pivot(c, &edges);
        c.charge_local(edges.len() as u64);
        let mut light = Vec::new();
        let mut heavy = Vec::new();
        for &e in edges.iter() {
            if (e.w, e.id) <= pivot {
                light.push(e);
            } else {
                heavy.push(e);
            }
        }
        (light, heavy)
    });
    let m_light = comm.allreduce_sum(light.len() as u64);
    if m_light == m {
        // Degenerate split (all keys equal): the base case dedups it away.
        ph_base(ph, &light, reps, ctx);
        return;
    }
    filter_rec(comm, ph, Cow::Owned(light), reps, ctx, depth + 1);

    // Filter: a heavy edge whose endpoints already share a representative
    // is spanned by lighter edges and can never join the MSF.
    let (survivors, dropped) = ph.measure(Phase::PartitionFilter, |c| {
        let mut endpoints: Vec<u64> = Vec::with_capacity(heavy.len() * 2);
        for e in &heavy {
            endpoints.push(e.u);
            endpoints.push(e.v);
        }
        let rep_of = reps.bulk_get(c, endpoints);
        c.charge_local(heavy.len() as u64);
        let before = heavy.len() as u64;
        let survivors: Vec<CEdge> = heavy
            .into_iter()
            .filter(|e| rep_of.get(&e.u).unwrap_or(&e.u) != rep_of.get(&e.v).unwrap_or(&e.v))
            .collect();
        let dropped = before - survivors.len() as u64;
        (survivors, dropped)
    });
    ctx.stats.filtered_edges += comm.allreduce_sum(dropped);
    filter_rec(comm, ph, Cow::Owned(survivors), reps, ctx, depth + 1);
}

fn ph_base(ph: &mut Phased<'_>, edges: &[CEdge], reps: &mut DistArray, ctx: &mut FilterCtx) {
    ph.measure(Phase::BaseCaseRedistributeMst, |c| {
        filter_base_case(c, edges, reps, ctx)
    });
}

/// The Filter-Borůvka algorithm (Algorithm 2): Filter-Kruskal-style
/// weight partitioning with distributed filtering through the
/// block-distributed representative array. Collective; returns this PE's
/// share of the MSF plus the Theorem 1 statistics (identical on all PEs).
pub fn filter_mst(comm: &Comm, input: &InputGraph, cfg: &MstConfig) -> (MstResult, FilterStats) {
    let mut ph = Phased::new(comm);
    let local_max = input
        .graph
        .edges
        .iter()
        .map(|e| e.u.max(e.v))
        .max()
        .unwrap_or(0);
    let n_ids = comm.allreduce_max(local_max) + 1;
    let mut reps = DistArray::new(comm, n_ids);
    let mut ctx = FilterCtx {
        cfg,
        stats: FilterStats::default(),
        msf_ids: Vec::new(),
    };
    filter_rec(
        comm,
        &mut ph,
        Cow::Borrowed(input.graph.edges.as_slice()),
        &mut reps,
        &mut ctx,
        0,
    );
    let ids = std::mem::take(&mut ctx.msf_ids);
    let edges = ph.measure(Phase::BaseCaseRedistributeMst, |c| {
        input.redistribute_mst(c, ids)
    });
    (
        MstResult {
            edges,
            phases: ph.times,
        },
        ctx.stats,
    )
}

#[cfg(test)]
mod kernel_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use kamsta_comm::{Machine, MachineConfig};
    use kamsta_graph::{GraphConfig, WEdge};

    #[test]
    fn mst_config_defaults_and_threshold() {
        let cfg = MstConfig::default();
        assert!(cfg.preprocessing);
        assert_eq!(cfg.dedup, DedupStrategy::HashFilter);
        assert_eq!(cfg.base_threshold(4), 4 * cfg.base_case_constant);
        assert!(!cfg.without_preprocessing().preprocessing);
    }

    #[test]
    fn dist_array_blocks_cover_space() {
        let out = Machine::run(MachineConfig::new(5), |comm| {
            let a = DistArray::new(comm, 23);
            let homes: Vec<usize> = (0..23).map(|i| a.home(i)).collect();
            (a.local_len(), homes)
        });
        let total: usize = out.results.iter().map(|(l, _)| l).sum();
        assert_eq!(total, 23);
        // All PEs agree on the home function, and it is monotone.
        let homes = &out.results[0].1;
        for r in &out.results {
            assert_eq!(&r.1, homes);
        }
        assert!(homes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn dist_array_get_set_compress() {
        let out = Machine::run(MachineConfig::new(3), |comm| {
            let mut a = DistArray::new(comm, 10);
            // Build the chain 9 → 8 → … → 1 → 0 collaboratively.
            let updates: Vec<(u64, u64)> = if comm.rank() == 0 {
                (1..10).map(|i| (i, i - 1)).collect()
            } else {
                Vec::new()
            };
            a.bulk_set(comm, updates);
            a.compress(comm);
            let got = a.bulk_get(comm, (0..10).collect());
            (0..10).map(|i| got[&i]).collect::<Vec<u64>>()
        });
        for r in out.results {
            assert_eq!(r, vec![0; 10]);
        }
    }

    #[test]
    fn kruskal_ids_pick_the_light_triangle() {
        let all = vec![
            CEdge::new(0, 1, 5, 10),
            CEdge::new(1, 2, 1, 11),
            CEdge::new(0, 2, 2, 12),
        ];
        let (ids, labels) = kruskal_ids_and_labels(&all);
        assert_eq!(ids, vec![11, 12]);
        assert_eq!(labels[&0], 0);
        assert_eq!(labels[&1], 0);
        assert_eq!(labels[&2], 0);
    }

    #[test]
    fn redistribute_dedups_across_boundaries() {
        // Many duplicate copies of few pairs, scattered over PEs.
        let out = Machine::run(MachineConfig::new(4), |comm| {
            let r = comm.rank() as u64;
            let mut edges = Vec::new();
            for k in 0..50u64 {
                edges.push(CEdge::new(0, 1, (k % 7 + 1) as u32, r * 100 + k));
                edges.push(CEdge::new(1, 0, (k % 7 + 1) as u32, r * 100 + 50 + k));
            }
            edges.sort_unstable();
            let g = redistribute(comm, edges, &MstConfig::default());
            (g.m_global, g.edges.clone())
        });
        assert_eq!(out.results[0].0, 2, "one surviving copy per direction");
        let all: Vec<CEdge> = out.results.iter().flat_map(|(_, e)| e.clone()).collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].w, all[1].w, "surviving weights symmetric");
    }

    #[test]
    fn boruvka_and_filter_agree_on_gnm() {
        let out = Machine::run(MachineConfig::new(4), |comm| {
            let input = InputGraph::generate(comm, GraphConfig::Gnm { n: 120, m: 900 }, 13);
            let cfg = MstConfig {
                base_case_constant: 8,
                filter_min_edges_per_pe: 32,
                ..MstConfig::default()
            };
            let all: Vec<WEdge> = input.graph.edges.iter().map(|e| e.wedge()).collect();
            let b = boruvka_mst(comm, &input, &cfg);
            let (f, stats) = filter_mst(comm, &input, &cfg);
            assert!(stats.base_case_calls > 0);
            (
                all,
                b.edges.iter().map(|e| e.wedge()).collect::<Vec<_>>(),
                f.edges.iter().map(|e| e.wedge()).collect::<Vec<_>>(),
            )
        });
        let graph: Vec<WEdge> = out.results.iter().flat_map(|(g, _, _)| g.clone()).collect();
        let msf_b: Vec<WEdge> = out.results.iter().flat_map(|(_, b, _)| b.clone()).collect();
        let msf_f: Vec<WEdge> = out.results.iter().flat_map(|(_, _, f)| f.clone()).collect();
        crate::verify_msf(&graph, &msf_b).unwrap();
        crate::verify_msf(&graph, &msf_f).unwrap();
    }
}
