//! Oracle tests for the two per-round local edge kernels of
//! `dist.rs`: the source-bucket prefilter and the dense-table relabel.
//! Each is checked against the plain formulation it replaces, on inputs
//! chosen to stress the bucketing (sparse and huge ids, a hub source)
//! and the label resolution (ghost over local, unsorted slices, both
//! table paths).

use super::*;
use kamsta_comm::{Machine, MachineConfig};
use kamsta_graph::{GraphConfig, WEdge};
use std::collections::BTreeMap;

/// SplitMix64: a dependency-free deterministic stream for test inputs.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

// ---------------------------------------------------------------------
// prefilter
// ---------------------------------------------------------------------

/// The predicates of `prefilter_pairs` and `prefilter_unordered`.
const PREDICATES: [(&str, Keep); 2] = [("pairs", Keep::NonLoop), ("unordered", Keep::Ascending)];

/// The formulation the kernel must reproduce: filter, sort by the full
/// lexicographic key, keep the first edge of every `(u, v)` run.
fn reference_prefilter(edges: &[CEdge], keep: Keep) -> Vec<CEdge> {
    let mut out: Vec<CEdge> = edges.iter().filter(|e| keep.keeps(e)).copied().collect();
    out.sort_unstable_by_key(CEdge::lex_key);
    out.dedup_by(|a, b| a.u == b.u && a.v == b.v);
    out
}

/// The γ charge the kernel is specified to make: one unit per input edge
/// for the counting scan, one per kept edge for the scatter, and
/// `n_b·⌈log2 n_b⌉` per source bucket `(u − lo) >> s`, with `s` the
/// smallest shift leaving at most `n` buckets.
fn reference_charge(edges: &[CEdge], keep: Keep) -> u64 {
    let kept: Vec<&CEdge> = edges.iter().filter(|e| keep.keeps(e)).collect();
    let n = kept.len() as u64;
    let (Some(lo), Some(hi)) = (
        kept.iter().map(|e| e.u).min(),
        kept.iter().map(|e| e.u).max(),
    ) else {
        return edges.len() as u64;
    };
    let mut s = 0;
    while (hi - lo) >> s >= n {
        s += 1;
    }
    let mut sizes: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &kept {
        *sizes.entry((e.u - lo) >> s).or_default() += 1;
    }
    let sorts: u64 = sizes
        .values()
        .filter(|&&c| c > 1)
        .map(|&c| c * u64::from(kamsta_comm::ceil_log2(c as usize)))
        .sum();
    edges.len() as u64 + n + sorts
}

/// Run the kernel on a one-PE machine at every pool width and require
/// the reference survivors, in order, and the reference charge.
fn check_prefilter(case: &str, edges: &[CEdge]) {
    for (name, keep) in PREDICATES {
        let want = reference_prefilter(edges, keep);
        let want_ops = reference_charge(edges, keep);
        for t in [1usize, 2, 8] {
            let out = Machine::run(MachineConfig::new(1).with_threads(t), |comm| {
                let before = comm.stats().local_ops;
                let got = prefilter(comm, edges, keep);
                (got, comm.stats().local_ops - before)
            });
            let (got, ops) = &out.results[0];
            assert_eq!(got, &want, "{case}/{name} t={t}: survivors");
            assert_eq!(*ops, want_ops, "{case}/{name} t={t}: γ charge");
        }
    }
}

/// A random multigraph over `n` vertices named by `name`: self-loops,
/// parallel copies (same pair, other weight and id), exact duplicates,
/// weights from `1..=weights`, sources in random order.
fn multigraph(seed: u64, n: u64, m: usize, weights: u64, name: impl Fn(u64) -> u64) -> Vec<CEdge> {
    let mut rng = Mix(seed);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.below(n);
        let v = if rng.below(8) == 0 { u } else { rng.below(n) };
        let e = CEdge::new(
            name(u),
            name(v),
            1 + rng.below(weights) as Weight,
            rng.below(4 * m as u64),
        );
        edges.push(e);
        if rng.below(4) == 0 {
            edges.push(e);
        }
        if rng.below(4) == 0 {
            edges.push(CEdge::new(
                e.u,
                e.v,
                1 + rng.below(weights) as Weight,
                e.id + 1,
            ));
        }
    }
    edges
}

#[test]
fn prefilter_matches_sort_then_dedup_on_multigraphs() {
    check_prefilter("varied weights", &multigraph(1, 300, 6_000, 20, |v| v));
    check_prefilter("equal weights", &multigraph(2, 300, 6_000, 1, |v| v));
    check_prefilter("few vertices", &multigraph(3, 5, 2_000, 3, |v| v));
    // Large enough for the parallel bucket split at t > 1.
    check_prefilter("large", &multigraph(4, 20_000, 120_000, 50, |v| v));
}

#[test]
fn prefilter_matches_on_sparse_and_huge_ids() {
    check_prefilter("1000v+7", &multigraph(5, 400, 8_000, 10, |v| 1000 * v + 7));
    // Fewer kept edges than ids in the span: every bucket covers several
    // sources, so a shift one off moves edges between buckets.
    check_prefilter("3v, thin", &multigraph(13, 3_000, 1_500, 10, |v| 3 * v));
    check_prefilter(
        "near 2^48",
        &multigraph(6, 400, 8_000, 10, |v| (1 << 48) - 3 + 5 * v),
    );
    check_prefilter(
        "above 2^48",
        &multigraph(7, 400, 8_000, 10, |v| (1 << 50) + (v << 30)),
    );
    check_prefilter(
        "u64 extremes",
        &multigraph(8, 64, 3_000, 4, |v| {
            v.wrapping_mul(0x0400_0000_0000_0001).rotate_left(7)
        }),
    );
    check_prefilter(
        "top of range",
        &multigraph(9, 300, 5_000, 4, |v| u64::MAX - 1 - 977 * v),
    );
    check_prefilter(
        "two ends",
        &multigraph(10, 2, 500, 3, |v| if v == 0 { 0 } else { u64::MAX - 1 }),
    );
}

#[test]
fn prefilter_matches_with_a_hub_source() {
    let mut rng = Mix(11);
    let mut edges = multigraph(12, 1_000, 4_000, 30, |v| v);
    // One label holds most edges; large enough that its single bucket
    // takes the pool's sort at t > 1.
    for _ in 0..40_000 {
        let v = rng.below(1_000);
        edges.push(CEdge::new(
            500,
            v,
            1 + rng.below(30) as Weight,
            rng.below(1 << 20),
        ));
        edges.push(CEdge::new(
            v,
            500,
            1 + rng.below(30) as Weight,
            rng.below(1 << 20),
        ));
    }
    check_prefilter("hub", &edges);
}

#[test]
fn prefilter_handles_empty_and_all_loop_inputs() {
    check_prefilter("empty", &[]);
    let loops: Vec<CEdge> = (0..100).map(|i| CEdge::new(i % 7, i % 7, 3, i)).collect();
    check_prefilter("all self-loops", &loops);
    check_prefilter("one edge", &[CEdge::new(9, 4, 1, 0)]);
}

// ---------------------------------------------------------------------
// relabel
// ---------------------------------------------------------------------

/// The hash-map formulation: every endpoint looked up on its own.
fn reference_relabel(
    edges: &[CEdge],
    label_of: impl Fn(VertexId) -> VertexId,
    ghost: &FxHashMap<VertexId, VertexId>,
) -> Vec<CEdge> {
    edges
        .iter()
        .filter_map(|&(mut e)| {
            e.u = label_of(e.u);
            e.v = ghost.get(&e.v).copied().unwrap_or_else(|| label_of(e.v));
            (e.u != e.v).then_some(e)
        })
        .collect()
}

/// Both destination paths — the dense table over the full destination
/// span, whatever its width, and the hash maps — must give the
/// reference output.
fn check_relabel_paths(
    case: &str,
    edges: &[CEdge],
    label_of: impl Fn(VertexId) -> VertexId,
    ghost: &FxHashMap<VertexId, VertexId>,
) {
    let want = reference_relabel(edges, &label_of, ghost);
    let resolve = |v: VertexId| ghost.get(&v).copied().unwrap_or_else(|| label_of(v));
    if let Some(span) = dest_span(edges) {
        let table = DestLabels::new(edges, span, &label_of, ghost);
        let dense = relabel_runs(edges, &label_of, |v| {
            table.get(v).unwrap_or_else(|| resolve(v))
        });
        assert_eq!(dense, want, "{case}: dense-table path");
    }
    assert_eq!(
        relabel_runs(edges, &label_of, resolve),
        want,
        "{case}: hash path"
    );
}

/// Drive Borůvka rounds on a generated graph and check every round's
/// relabel — through `relabel` itself and through both forced paths —
/// against the reference; the preprocessing relabel is checked too.
/// `dense` states which path `relabel` itself takes in the first round,
/// so each input is known to cover the path it is meant for.
fn check_rounds(p: usize, dense: bool, make: impl Fn(&Comm) -> InputGraph + Sync) {
    Machine::run(MachineConfig::new(p), |comm| {
        let input = make(comm);
        let cfg = MstConfig {
            base_case_constant: 4,
            ..MstConfig::default()
        };
        if let Some((lo, hi)) = dest_span(&input.graph.edges) {
            let len = input.graph.edges.len() as u64;
            assert_eq!(hi - lo < DENSE_SPAN_PER_VERTEX * len, dense);
        }
        let pre = local_contract(comm, &input.graph, &cfg);
        if pre.applied {
            let label_of = |v: VertexId| pre.labels.get(&v).copied().unwrap_or(v);
            let ghost = exchange_labels(comm, &input.graph, label_of);
            let got = relabel(comm, &input.graph, &pre.edges, label_of, &ghost);
            assert_eq!(got, reference_relabel(&pre.edges, label_of, &ghost));
            check_relabel_paths("preprocessing", &pre.edges, label_of, &ghost);
        }
        let mut g = input.graph.clone();
        for round in 0..8 {
            if comm.allreduce_sum(g.edges.len() as u64) == 0 {
                break;
            }
            let sels = min_edges(comm, &g);
            let labels = contract_components(comm, &g, &sels).labels;
            let label_of = |v: VertexId| labels.get(&v).copied().unwrap_or(v);
            let ghost = exchange_labels(comm, &g, label_of);
            let got = relabel(comm, &g, &g.edges, label_of, &ghost);
            assert_eq!(got, reference_relabel(&g.edges, label_of, &ghost));
            check_relabel_paths(&format!("round {round}"), &g.edges, label_of, &ghost);
            g = redistribute(comm, got, &cfg);
        }
    });
}

#[test]
fn relabel_matches_the_hash_formulation_on_gnm_rounds() {
    check_rounds(3, true, |c| {
        InputGraph::generate(c, GraphConfig::Gnm { n: 600, m: 6_000 }, 5)
    });
}

#[test]
fn relabel_matches_the_hash_formulation_on_rgg_rounds() {
    check_rounds(2, true, |c| {
        let input = InputGraph::generate(c, GraphConfig::Rgg2D { n: 800, m: 6_000 }, 9);
        assert!(local_contract(c, &input.graph, &MstConfig::default()).applied);
        input
    });
}

#[test]
fn relabel_matches_the_hash_formulation_on_sparse_ids() {
    // Ids 1000·v + 7 spread the destinations far wider than the
    // dense-table rule admits, so `relabel` takes the hash path; the
    // forced dense path must agree all the same.
    check_rounds(2, false, |c| {
        let edges: Vec<WEdge> = if c.rank() == 0 {
            let mut rng = Mix(21);
            (0..1_500)
                .flat_map(|_| {
                    let (u, v) = (rng.below(300), rng.below(300));
                    let e = WEdge::new(1000 * u + 7, 1000 * v + 7, 1 + rng.below(40) as Weight);
                    [e, e.reversed()]
                })
                .filter(|e| !e.is_self_loop())
                .collect()
        } else {
            Vec::new()
        };
        InputGraph::from_unsorted_edges(c, edges)
    });
}

#[test]
fn relabel_ghost_label_wins_over_a_local_source() {
    // Vertex 20 is a local source (label 5) and, as a boundary vertex
    // homed elsewhere, also a ghost (label 99): as a destination the
    // ghost label wins, as a source the local one.
    let edges = vec![
        CEdge::new(10, 20, 1, 0),
        CEdge::new(10, 30, 2, 1),
        CEdge::new(20, 10, 1, 0),
        CEdge::new(20, 30, 3, 2),
        CEdge::new(30, 20, 3, 2),
        CEdge::new(30, 40, 4, 3),
    ];
    let labels: FxHashMap<VertexId, VertexId> = [(10, 5), (20, 5), (30, 30)].into_iter().collect();
    let label_of = |v: VertexId| labels.get(&v).copied().unwrap_or(v);
    let ghost: FxHashMap<VertexId, VertexId> = [(20, 99), (40, 41)].into_iter().collect();
    let want = reference_relabel(&edges, label_of, &ghost);
    assert!(want.contains(&CEdge::new(5, 99, 1, 0)), "{want:?}");
    assert!(want.contains(&CEdge::new(5, 30, 3, 2)), "{want:?}");
    assert!(want.contains(&CEdge::new(30, 99, 3, 2)), "{want:?}");
    check_relabel_paths("shared boundary vertex", &edges, label_of, &ghost);
    let out = Machine::run(MachineConfig::new(1), |comm| {
        let g = DistGraph::establish(comm, Vec::new());
        relabel(comm, &g, &edges, label_of, &ghost)
    });
    assert_eq!(out.results[0], want);
}

#[test]
fn relabel_resolves_runs_on_an_unsorted_slice() {
    let mut rng = Mix(31);
    let mut edges = multigraph(32, 200, 3_000, 9, |v| v);
    // Fisher–Yates: sources now repeat in many short, scattered runs.
    for i in (1..edges.len()).rev() {
        edges.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let labels: FxHashMap<VertexId, VertexId> = (0..200).map(|v| (v, v / 7 * 7)).collect();
    let label_of = |v: VertexId| labels.get(&v).copied().unwrap_or(v);
    let ghost: FxHashMap<VertexId, VertexId> = (150..200).map(|v| (v, 1_000 + v % 3)).collect();
    check_relabel_paths("unsorted", &edges, label_of, &ghost);
    let out = Machine::run(MachineConfig::new(1), |comm| {
        let g = DistGraph::establish(comm, Vec::new());
        relabel(comm, &g, &edges, label_of, &ghost)
    });
    assert_eq!(out.results[0], reference_relabel(&edges, label_of, &ghost));
}
