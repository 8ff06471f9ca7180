//! The random matching sparsifier `G_Δ` (Section 2 of the paper).
//!
//! Every vertex marks Δ uniform incident edges without replacement —
//! all of them if its degree is at most the low-degree threshold `2Δ`
//! (the Section 3.1 tweak that enables deterministic-time sampling). The
//! sparsifier is the subgraph of all marked edges, over the *same* vertex
//! set, so a matching in `G_Δ` is a matching in `G` verbatim.

use crate::params::SparsifierParams;
use crate::sampler::{vertex_rng, PosArraySampler};
use rand::Rng;
use sparsimatch_graph::adjacency::{AdjacencyOracle, ProbeCounts};
use sparsimatch_graph::csr::{from_marked_edges, CsrGraph};
use sparsimatch_graph::ids::{EdgeId, VertexId};
use sparsimatch_obs::{keys, WorkMeter};
use std::ops::Range;

/// Maximum accepted thread count for [`build_sparsifier_parallel`].
///
/// The cap is a sanity bound, not a memory-safety requirement: each worker
/// allocates only a sampler overlay sized to the largest degree in its own
/// vertex range plus a mark buffer proportional to the marks it places, so
/// oversubscribing the host merely wastes scheduling — it cannot blow up
/// memory. Requests outside `1..=MAX_THREADS` are still rejected with
/// [`ThreadCountError`] rather than silently clamped, because a wildly
/// out-of-range request is almost certainly a caller bug.
pub const MAX_THREADS: usize = 64;

/// An out-of-range thread count passed to [`build_sparsifier_parallel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadCountError {
    /// The rejected request.
    pub requested: usize,
}

impl std::fmt::Display for ThreadCountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "thread count must be between 1 and {MAX_THREADS}, got {}",
            self.requested
        )
    }
}

impl std::error::Error for ThreadCountError {}

/// Construction statistics, all deterministic consequences of the marking
/// scheme (only *which* edges get marked is random).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparsifierStats {
    /// Δ used.
    pub delta: usize,
    /// Low-degree threshold (`2Δ`).
    pub mark_cap: usize,
    /// Vertices that marked their full neighborhood.
    pub low_degree_vertices: usize,
    /// Total marks placed (with multiplicity: an edge marked by both
    /// endpoints counts twice).
    pub marks_placed: usize,
    /// Distinct marked edges = `|E(G_Δ)|`.
    pub edges: usize,
}

/// The sparsifier `G_Δ` of a CSR graph.
#[derive(Clone, Debug)]
pub struct Sparsifier {
    /// The sparsified graph (same vertex ids as the input).
    pub graph: CsrGraph,
    /// Construction statistics.
    pub stats: SparsifierStats,
}

/// Build `G_Δ` from a CSR graph with one shared RNG stream (the
/// [`mark_shared_rng`] model). Runs in time `O(n + |E(G_Δ)|)` —
/// deterministically linear in the *output*, not the input (Theorem 3.1's
/// construction bound), modulo the final CSR layout.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_core::sparsifier::build_sparsifier;
/// use sparsimatch_graph::generators::clique;
///
/// let g = clique(200); // β = 1, ~20k edges
/// let params = SparsifierParams::practical(1, 0.3);
/// let mut rng = StdRng::seed_from_u64(7);
/// let s = build_sparsifier(&g, &params, &mut rng);
/// assert!(s.stats.edges <= params.naive_size_bound(200));
/// assert!(s.stats.edges < g.num_edges() / 2, "much sparser than the input");
/// ```
pub fn build_sparsifier(g: &CsrGraph, params: &SparsifierParams, rng: &mut impl Rng) -> Sparsifier {
    build_shared_rng(g, params.delta, params.mark_cap(), rng)
}

/// [`build_sparsifier`] at an explicit low-degree threshold `mark_cap`
/// (Section 2's plain construction uses `mark_cap = Δ`).
pub(crate) fn build_shared_rng(
    g: &CsrGraph,
    delta: usize,
    mark_cap: usize,
    rng: &mut impl Rng,
) -> Sparsifier {
    // The mark buffer holds O(marks_placed) ids, never O(|E(G)|) — keeping
    // construction linear in the *output* as Theorem 3.1 promises.
    let mut keep: Vec<EdgeId> = Vec::new();
    let mut sampler = PosArraySampler::new(g.max_degree());
    let mut indices = Vec::with_capacity(mark_cap);
    let mut stats = mark_shared_rng(
        g,
        delta,
        mark_cap,
        rng,
        &mut sampler,
        &mut indices,
        |v, _, marked| {
            keep.extend(marked.iter().map(|&i| g.incident_edge(v, i as usize)));
        },
    );
    keep.sort_unstable();
    keep.dedup();
    let graph = from_marked_edges(g, &keep, 1);
    stats.edges = graph.num_edges();
    Sparsifier { graph, stats }
}

/// The shared-randomness marking kernel: every non-isolated vertex of
/// `g`, in id order, marks with the one `rng` stream (all incident edges
/// when `deg ≤ mark_cap`, otherwise `delta` uniform ones), and
/// `visit(v, deg, marked)` receives its marked adjacency indices.
/// Isolated vertices mark nothing and draw no randomness, so skipping
/// them changes no mark; they still count as low-degree in the returned
/// stats, whose `edges` is left for the caller to set after dedup.
///
/// `sampler` must already cover the largest degree. Reads each degree
/// once. Serves every build over an arbitrary [`AdjacencyOracle`] —
/// [`build_sparsifier`], [`mark_edges_oracle`], the lower-bound plain
/// construction, and the dynamic matcher's rebuilds.
pub fn mark_shared_rng<G: AdjacencyOracle>(
    g: &G,
    delta: usize,
    mark_cap: usize,
    rng: &mut impl Rng,
    sampler: &mut PosArraySampler,
    indices: &mut Vec<u32>,
    mut visit: impl FnMut(VertexId, usize, &[u32]),
) -> SparsifierStats {
    let mut stats = SparsifierStats {
        delta,
        mark_cap,
        ..Default::default()
    };
    for v in 0..g.num_vertices() {
        let v = VertexId::new(v);
        let deg = g.degree(v);
        if deg <= mark_cap {
            stats.low_degree_vertices += 1;
        }
        if deg == 0 {
            continue;
        }
        sampler.mark_indices(deg, delta, mark_cap, rng, indices);
        stats.marks_placed += indices.len();
        visit(v, deg, indices);
    }
    stats
}

/// Parallel `G_Δ` construction: per-vertex marking is embarrassingly
/// parallel once each vertex draws from its own deterministically seeded
/// RNG ([`vertex_rng`] — exactly the independence the analysis requires
/// anyway, and the same seeding the distributed protocol uses). The
/// output is identical for any thread count.
///
/// Rejects `threads` outside `1..=`[`MAX_THREADS`] with a
/// [`ThreadCountError`] (no silent clamping).
pub fn build_sparsifier_parallel(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    threads: usize,
) -> Result<Sparsifier, ThreadCountError> {
    build_sparsifier_parallel_metered(g, params, seed, threads, &mut WorkMeter::new())
}

/// [`build_sparsifier_parallel`] with unified work accounting: adjacency
/// probes, sparsifier size, and the sampler's RNG draws and overlay
/// writes land in `meter` (see [`sparsimatch_obs::keys`]). Per-worker
/// counters are summed before mirroring, so the metered totals are also
/// thread-count invariant.
pub fn build_sparsifier_parallel_metered(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    threads: usize,
    meter: &mut WorkMeter,
) -> Result<Sparsifier, ThreadCountError> {
    if threads == 0 || threads > MAX_THREADS {
        return Err(ThreadCountError { requested: threads });
    }
    let mut ids = Vec::new();
    let marks = mark_edges(
        g,
        params,
        seed,
        threads,
        &mut PosArraySampler::new(0),
        &mut Vec::new(),
        &mut ids,
    );
    let graph = from_marked_edges(g, &ids, threads);
    marks.mirror_into(meter, g.num_vertices());
    Ok(Sparsifier {
        graph,
        stats: marks.stats,
    })
}

/// What a seeded marking run reports: its statistics plus the sampler
/// work it performed. Per-range summaries add up, so totals are
/// thread-count invariant.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MarkSummary {
    /// Marking statistics; `edges` is the deduplicated marked-edge count.
    pub stats: SparsifierStats,
    /// RNG draws taken during this run.
    pub rng_draws: u64,
    /// Sampler-overlay writes during this run.
    pub overlay_writes: u64,
}

impl MarkSummary {
    /// The analytic probe ledger of a seeded build over `n` vertices: the
    /// CSR fast path reads the graph directly, so probes are counted, not
    /// observed — two degree reads per vertex (the pass that sizes the
    /// sampler and the marking pass) and one adjacency-entry read per
    /// mark placed.
    pub fn probes(&self, n: usize) -> ProbeCounts {
        ProbeCounts {
            degree_probes: 2 * n as u64,
            neighbor_probes: self.stats.marks_placed as u64,
        }
    }

    /// Mirror the probes, sparsifier size, and sampler work into `meter`.
    fn mirror_into(&self, meter: &mut WorkMeter, n: usize) {
        let probes = self.probes(n);
        meter.add(keys::DEGREE_PROBES, probes.degree_probes);
        meter.add(keys::NEIGHBOR_PROBES, probes.neighbor_probes);
        meter.add(keys::SPARSIFIER_EDGES, self.stats.edges as u64);
        meter.add(keys::RNG_DRAWS, self.rng_draws);
        meter.add(keys::OVERLAY_WRITES, self.overlay_writes);
    }
}

/// The seeded marking kernel: every vertex in `range` marks with its own
/// [`vertex_rng`] stream, and `keep` ends up holding the range's marked
/// edge ids, sorted and deduplicated. The marks depend on `seed` alone,
/// never on how the vertex set is split, which is what makes every
/// thread count byte-identical. `sampler` must cover the range's
/// largest degree.
fn mark_range(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    range: Range<usize>,
    sampler: &mut PosArraySampler,
    indices: &mut Vec<u32>,
    keep: &mut Vec<EdgeId>,
) -> MarkSummary {
    let (draws_before, writes_before) = (sampler.rng_draws(), sampler.overlay_writes());
    let mut stats = SparsifierStats {
        delta: params.delta,
        mark_cap: params.mark_cap(),
        ..Default::default()
    };
    keep.clear();
    for v in range {
        let vid = VertexId::new(v);
        let deg = g.degree(vid);
        if deg <= params.mark_cap() {
            stats.low_degree_vertices += 1;
        }
        let mut rng = vertex_rng(seed, v);
        sampler.mark_indices(deg, params.delta, params.mark_cap(), &mut rng, indices);
        stats.marks_placed += indices.len();
        keep.extend(indices.iter().map(|&i| g.incident_edge(vid, i as usize)));
    }
    keep.sort_unstable();
    keep.dedup();
    stats.edges = keep.len();
    MarkSummary {
        stats,
        rng_draws: sampler.rng_draws() - draws_before,
        overlay_writes: sampler.overlay_writes() - writes_before,
    }
}

/// Stage 1 (mark) of the seeded build into `ids`: sorted, deduplicated
/// marked edge ids. One worker runs [`mark_range`] inline on the caller's
/// buffers — allocation-free once they have capacity. More workers split
/// the vertices into `threads` contiguous ranges, each on buffers of its
/// own, and merge their id lists. The output is identical either way.
/// `threads` must already be validated.
pub(crate) fn mark_edges(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    threads: usize,
    sampler: &mut PosArraySampler,
    indices: &mut Vec<u32>,
    ids: &mut Vec<EdgeId>,
) -> MarkSummary {
    let n = g.num_vertices();
    if threads == 1 {
        sampler.ensure_capacity(g.max_degree().max(1));
        return mark_range(g, params, seed, 0..n, sampler, indices, ids);
    }
    let chunk = n.div_ceil(threads).max(1);
    let shards: Vec<(Vec<EdgeId>, MarkSummary)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|lo| {
                let hi = (lo + chunk).min(n);
                s.spawn(move || {
                    // Size the sampler overlay to this worker's own range,
                    // not the global max degree: a star hub inflates one
                    // worker's overlay, not all of them.
                    let (local_max_deg, mark_bound) = mark_sizing(g, lo..hi, params.mark_cap());
                    let mut sampler = PosArraySampler::new(local_max_deg.max(1));
                    let mut indices = Vec::with_capacity(params.mark_cap().max(1));
                    let mut keep = Vec::with_capacity(mark_bound);
                    let summary = mark_range(
                        g,
                        params,
                        seed,
                        lo..hi,
                        &mut sampler,
                        &mut indices,
                        &mut keep,
                    );
                    (keep, summary)
                })
            })
            .collect();
        handles
            .into_iter()
            // Safety: join() only errs if the worker panicked; propagating
            // that as a panic here is the intended failure mode.
            .map(|h| h.join().expect("sparsifier worker panicked"))
            .collect()
    });
    let mut total = MarkSummary {
        stats: SparsifierStats {
            delta: params.delta,
            mark_cap: params.mark_cap(),
            ..Default::default()
        },
        rng_draws: 0,
        overlay_writes: 0,
    };
    for (_, shard) in &shards {
        total.stats.marks_placed += shard.stats.marks_placed;
        total.stats.low_degree_vertices += shard.stats.low_degree_vertices;
        total.rng_draws += shard.rng_draws;
        total.overlay_writes += shard.overlay_writes;
    }
    let shard_bufs: Vec<Vec<EdgeId>> = shards.into_iter().map(|(keep, _)| keep).collect();
    merge_mark_shards(&shard_bufs, g.num_edges(), threads, ids);
    total.stats.edges = ids.len();
    total
}

/// Merge per-worker sorted mark buffers into `out`, one globally sorted,
/// deduplicated edge-id list, with a two-pass count/prefix-sum: pass one
/// merges each edge-id *bucket* independently in parallel (every worker's
/// contribution to a bucket is a contiguous subrange found by binary
/// search), the count/prefix-sum over bucket lengths fixes each bucket's
/// output offset, and pass two scatters the buckets into place in parallel.
fn merge_mark_shards(
    shards: &[Vec<EdgeId>],
    num_edges: usize,
    threads: usize,
    out: &mut Vec<EdgeId>,
) {
    out.clear();
    if num_edges == 0 || shards.is_empty() {
        return;
    }
    if shards.len() == 1 {
        // Already sorted and deduplicated by the lone worker.
        out.extend_from_slice(&shards[0]);
        return;
    }
    let bucket_width = num_edges.div_ceil(threads).max(1);
    let buckets: Vec<Vec<EdgeId>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|b| {
                let lo = EdgeId::new((b * bucket_width).min(num_edges));
                let hi = EdgeId::new(((b + 1) * bucket_width).min(num_edges));
                s.spawn(move || {
                    // Locate each shard's contribution first so `merged`
                    // is reserved once instead of grown per shard.
                    let mut spans = [(0usize, 0usize); MAX_THREADS];
                    let mut total = 0usize;
                    for (shard, span) in shards.iter().zip(spans.iter_mut()) {
                        let start = shard.partition_point(|&e| e < lo);
                        let end = shard.partition_point(|&e| e < hi);
                        *span = (start, end);
                        total += end - start;
                    }
                    let mut merged = Vec::with_capacity(total);
                    for (shard, &(start, end)) in shards.iter().zip(spans.iter()) {
                        merged.extend_from_slice(&shard[start..end]);
                    }
                    merged.sort_unstable();
                    merged.dedup();
                    merged
                })
            })
            .collect();
        handles
            .into_iter()
            // Safety: as above — a join error means the worker panicked.
            .map(|h| h.join().expect("mark-merge worker panicked"))
            .collect()
    });
    out.resize(buckets.iter().map(Vec::len).sum(), EdgeId(0));
    // Scatter pass: each bucket owns a disjoint window of the output,
    // handed out by `split_at_mut` in prefix-sum order.
    let mut rest = out.as_mut_slice();
    std::thread::scope(|s| {
        for bucket in &buckets {
            let (window, tail) = rest.split_at_mut(bucket.len());
            rest = tail;
            s.spawn(move || window.copy_from_slice(bucket));
        }
    });
}

/// One degree pass over `vertices`: the largest degree, which sizes the
/// sampler overlay, and the mark-count bound `Σ min(deg, mark_cap)`,
/// which sizes the mark buffer — so neither grows inside the marking
/// loop.
fn mark_sizing(
    g: &impl AdjacencyOracle,
    vertices: Range<usize>,
    mark_cap: usize,
) -> (usize, usize) {
    vertices
        .map(|v| g.degree(VertexId::new(v)))
        .fold((0, 0), |(max_deg, bound), deg| {
            (max_deg.max(deg), bound + deg.min(mark_cap))
        })
}

/// Build the marked edge *list* from any adjacency oracle (no edge ids
/// needed) with one shared RNG stream. This is the form used when the
/// input is not materialized as a CSR graph — e.g. the probe-counting
/// experiments and the dynamic setting. Returns endpoint pairs with
/// possible duplicates (an edge can be marked from both sides);
/// deduplication happens wherever a graph is built.
pub fn mark_edges_oracle(
    g: &impl AdjacencyOracle,
    params: &SparsifierParams,
    rng: &mut impl Rng,
) -> Vec<(VertexId, VertexId)> {
    let (max_deg, mark_bound) = mark_sizing(g, 0..g.num_vertices(), params.mark_cap());
    let mut out = Vec::with_capacity(mark_bound);
    mark_shared_rng(
        g,
        params.delta,
        params.mark_cap(),
        rng,
        &mut PosArraySampler::new(max_deg),
        &mut Vec::with_capacity(params.mark_cap().max(1)),
        |v, _, marked| out.extend(marked.iter().map(|&i| (v, g.neighbor(v, i as usize)))),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::analysis::arboricity::arboricity_bounds;
    use sparsimatch_graph::generators::{
        clique, clique_union, gnp, star, unit_disk, CliqueUnionConfig, UnitDiskConfig,
    };
    use sparsimatch_matching::blossom::maximum_matching;

    fn params(beta: usize, eps: f64, delta: usize) -> SparsifierParams {
        SparsifierParams::with_delta(beta, eps, delta)
    }

    #[test]
    fn inline_mark_equals_sharded_mark() {
        // The one-worker path runs the kernel inline on the caller's
        // (reused: dirty, oversized) buffers; sharded runs must reproduce
        // it exactly — ids, stats, and work counters.
        let mut rng = StdRng::seed_from_u64(40);
        let graphs = [
            clique(90),
            star(200),
            gnp(150, 0.08, &mut rng),
            sparsimatch_graph::csr::from_edges(0, []),
            sparsimatch_graph::csr::from_edges(5, []),
        ];
        let p = params(2, 0.4, 3);
        let mut sampler = PosArraySampler::new(1);
        let mut indices = vec![9u32; 7]; // deliberately dirty
        let mut ids = vec![EdgeId(5); 13];
        for (i, g) in graphs.iter().enumerate() {
            for seed in [0u64, 17, 99] {
                let inline = mark_edges(g, &p, seed, 1, &mut sampler, &mut indices, &mut ids);
                let inline_ids = ids.clone();
                for threads in [2usize, 4] {
                    let sharded = mark_edges(
                        g,
                        &p,
                        seed,
                        threads,
                        &mut PosArraySampler::new(0),
                        &mut Vec::new(),
                        &mut ids,
                    );
                    let label = format!("graph {i} seed {seed} threads {threads}");
                    assert_eq!(inline_ids, ids, "{label}");
                    assert_eq!(inline.stats, sharded.stats, "{label}");
                    assert_eq!(inline.rng_draws, sharded.rng_draws, "{label}");
                    assert_eq!(inline.overlay_writes, sharded.overlay_writes, "{label}");
                }
            }
        }
    }

    #[test]
    fn sparsifier_is_subgraph() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gnp(60, 0.3, &mut rng);
        let s = build_sparsifier(&g, &params(3, 0.5, 4), &mut rng);
        assert_eq!(s.graph.num_vertices(), g.num_vertices());
        for (_, u, v) in s.graph.edges() {
            assert!(g.has_edge(u, v), "sparsifier edge not in input");
        }
    }

    #[test]
    fn low_degree_vertices_keep_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = star(50); // center degree 49, leaves degree 1
        let p = params(1, 0.5, 3); // mark_cap = 6 < 49
        let s = build_sparsifier(&g, &p, &mut rng);
        // All leaves are low degree and mark their only edge, so G_Δ = G.
        assert_eq!(s.graph.num_edges(), 49);
        assert_eq!(s.stats.low_degree_vertices, 49);
    }

    #[test]
    fn high_degree_vertices_mark_exactly_delta() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = clique(100);
        let p = params(1, 0.5, 5);
        let s = build_sparsifier(&g, &p, &mut rng);
        // Every vertex has degree 99 > cap 10, so marks 5: total 500 marks,
        // edges <= 500 (collisions dedupe).
        assert_eq!(s.stats.marks_placed, 500);
        assert!(s.stats.edges <= 500);
        assert!(s.stats.edges >= 250, "at least marks/2 distinct edges");
        assert_eq!(s.stats.low_degree_vertices, 0);
    }

    #[test]
    fn naive_size_bound_holds_always() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5 {
            let g = gnp(80, 0.4, &mut rng);
            let p = params(2, 0.5, 3);
            let s = build_sparsifier(&g, &p, &mut rng);
            assert!(s.stats.edges <= p.naive_size_bound(g.num_vertices()));
        }
    }

    #[test]
    fn observation_2_10_size_bound() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = clique_union(
            CliqueUnionConfig {
                n: 100,
                diversity: 2,
                clique_size: 25,
            },
            &mut rng,
        );
        let p = params(2, 0.5, 4);
        let mcm = maximum_matching(&g).len();
        for _ in 0..5 {
            let s = build_sparsifier(&g, &p, &mut rng);
            assert!(
                s.stats.edges <= p.size_bound(mcm),
                "{} > bound {}",
                s.stats.edges,
                p.size_bound(mcm)
            );
        }
    }

    #[test]
    fn observation_2_12_arboricity_bound() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = clique(120);
        let p = params(1, 0.5, 4);
        let s = build_sparsifier(&g, &p, &mut rng);
        let (_, hi) = arboricity_bounds(&s.graph);
        assert!(
            hi <= p.arboricity_bound(),
            "arboricity upper bound {hi} exceeds {}",
            p.arboricity_bound()
        );
    }

    #[test]
    fn preserves_matching_on_unit_disk() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = unit_disk(
            UnitDiskConfig::with_expected_degree(300, 1.0, 20.0),
            &mut rng,
        );
        let p = SparsifierParams::practical(5, 0.5);
        let exact = maximum_matching(&g).len();
        let s = build_sparsifier(&g, &p, &mut rng);
        let sparse_mcm = maximum_matching(&s.graph).len();
        assert!(
            (sparse_mcm as f64) * 1.5 >= exact as f64,
            "sparse {sparse_mcm} vs exact {exact}"
        );
    }

    #[test]
    fn oracle_marks_match_graph_structure() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = gnp(40, 0.3, &mut rng);
        let p = params(2, 0.5, 3);
        let marks = mark_edges_oracle(&g, &p, &mut rng);
        for &(u, v) in &marks {
            assert!(g.has_edge(u, v));
        }
        // Each vertex contributes min(deg, cap or delta) marks.
        let mut per_vertex = vec![0usize; g.num_vertices()];
        for &(u, _) in &marks {
            per_vertex[u.index()] += 1;
        }
        for (v, &count) in per_vertex.iter().enumerate() {
            let deg = g.degree(VertexId::new(v));
            let expect = if deg <= p.mark_cap() { deg } else { p.delta };
            assert_eq!(count, expect);
        }
    }

    #[test]
    fn parallel_build_is_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = clique_union(
            CliqueUnionConfig {
                n: 200,
                diversity: 2,
                clique_size: 40,
            },
            &mut rng,
        );
        let p = params(2, 0.4, 6);
        let reference = build_sparsifier_parallel(&g, &p, 42, 1).unwrap();
        for threads in [2usize, 4, 7] {
            let s = build_sparsifier_parallel(&g, &p, 42, threads).unwrap();
            let e1: Vec<_> = reference
                .graph
                .edges()
                .map(|(_, u, v)| (u.0, v.0))
                .collect();
            let e2: Vec<_> = s.graph.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            assert_eq!(e1, e2, "threads = {threads}");
            assert_eq!(s.stats.marks_placed, reference.stats.marks_placed);
            assert_eq!(
                s.stats.low_degree_vertices,
                reference.stats.low_degree_vertices
            );
        }
    }

    #[test]
    fn parallel_build_meets_same_bounds() {
        let g = clique(150);
        let p = params(1, 0.5, 5);
        let s = build_sparsifier_parallel(&g, &p, 7, 4).unwrap();
        assert!(s.stats.edges <= p.naive_size_bound(150));
        for (_, u, v) in s.graph.edges() {
            assert!(g.has_edge(u, v));
        }
        let mcm = maximum_matching(&s.graph).len();
        assert!(mcm * 2 >= 75, "sparse mcm {mcm}");
    }

    #[test]
    fn parallel_build_rejects_bad_thread_counts() {
        let g = clique(10);
        let p = params(1, 0.5, 2);
        assert_eq!(
            build_sparsifier_parallel(&g, &p, 1, 0).unwrap_err(),
            ThreadCountError { requested: 0 }
        );
        let err = build_sparsifier_parallel(&g, &p, 1, MAX_THREADS + 1).unwrap_err();
        assert_eq!(err.requested, MAX_THREADS + 1);
        assert!(err.to_string().contains("between 1 and 64"));
        assert!(build_sparsifier_parallel(&g, &p, 1, MAX_THREADS).is_ok());
    }

    #[test]
    fn metered_build_matches_unmetered_and_counts_work() {
        let g = clique(80);
        let p = params(1, 0.5, 4);
        let mut meter = sparsimatch_obs::WorkMeter::new();
        let plain = build_sparsifier_parallel(&g, &p, 11, 1).unwrap();
        let metered = build_sparsifier_parallel_metered(&g, &p, 11, 1, &mut meter).unwrap();
        let e1: Vec<_> = plain.graph.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let e2: Vec<_> = metered.graph.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(e1, e2, "metering must not perturb the build");
        use sparsimatch_obs::keys;
        assert_eq!(meter.get(keys::DEGREE_PROBES), 2 * 80);
        assert_eq!(
            meter.get(keys::NEIGHBOR_PROBES),
            metered.stats.marks_placed as u64
        );
        assert_eq!(
            meter.get(keys::SPARSIFIER_EDGES),
            metered.stats.edges as u64
        );
        // Every vertex is high degree (79 > cap), so each samples delta
        // indices: one RNG draw and one overlay write apiece.
        assert_eq!(meter.get(keys::RNG_DRAWS), 80 * p.delta as u64);
        assert_eq!(meter.get(keys::OVERLAY_WRITES), 80 * p.delta as u64);
    }

    #[test]
    fn metered_parallel_totals_are_thread_count_invariant() {
        let g = clique(60);
        let p = params(1, 0.5, 3);
        let mut m1 = sparsimatch_obs::WorkMeter::new();
        let mut m4 = sparsimatch_obs::WorkMeter::new();
        let s1 = build_sparsifier_parallel_metered(&g, &p, 9, 1, &mut m1).unwrap();
        let s4 = build_sparsifier_parallel_metered(&g, &p, 9, 4, &mut m4).unwrap();
        assert_eq!(s1.stats.edges, s4.stats.edges);
        let c1: Vec<_> = m1.counters().map(|(k, v)| (k.to_string(), v)).collect();
        let c4: Vec<_> = m4.counters().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(c1, c4);
    }

    #[test]
    fn empty_graph_sparsifies_to_empty() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = sparsimatch_graph::csr::from_edges(10, []);
        let s = build_sparsifier(&g, &params(1, 0.5, 2), &mut rng);
        assert_eq!(s.graph.num_edges(), 0);
        assert_eq!(s.stats.marks_placed, 0);
    }

    fn assert_thread_count_invariant(g: &CsrGraph, p: &SparsifierParams, label: &str) {
        let reference = build_sparsifier_parallel(g, p, 42, 1).unwrap();
        let e1: Vec<_> = reference
            .graph
            .edges()
            .map(|(_, u, v)| (u.0, v.0))
            .collect();
        for threads in [2usize, 4, 8] {
            let s = build_sparsifier_parallel(g, p, 42, threads).unwrap();
            let e2: Vec<_> = s.graph.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            assert_eq!(e1, e2, "{label}: threads = {threads}");
            assert_eq!(
                s.stats.marks_placed, reference.stats.marks_placed,
                "{label}"
            );
            assert_eq!(s.stats.edges, reference.stats.edges, "{label}");
        }
    }

    #[test]
    fn parallel_build_invariant_on_adversarial_families() {
        use sparsimatch_graph::generators::clique_minus_edge;
        // Star: one hub whose degree dwarfs every per-worker range — the
        // worker holding the hub sizes its overlay up, the rest stay tiny.
        assert_thread_count_invariant(&star(5_000), &params(1, 0.5, 3), "star");
        // Lemma 2.13's clique-minus-edge instance.
        assert_thread_count_invariant(
            &clique_minus_edge(120, (0, 119)),
            &params(1, 0.5, 4),
            "clique-minus-edge",
        );
    }

    #[test]
    fn parallel_build_invariant_on_degenerate_graphs() {
        let empty = sparsimatch_graph::csr::from_edges(0, []);
        assert_thread_count_invariant(&empty, &params(1, 0.5, 2), "empty");
        let singleton = sparsimatch_graph::csr::from_edges(1, []);
        assert_thread_count_invariant(&singleton, &params(1, 0.5, 2), "singleton");
        let one_edge = sparsimatch_graph::csr::from_edges(2, [(0, 1)]);
        assert_thread_count_invariant(&one_edge, &params(1, 0.5, 2), "one-edge");
    }

    #[test]
    fn sequential_and_parallel_agree_on_marked_edge_sets_shape() {
        // The sequential RNG-stream build and the seeded parallel build use
        // different randomness, but both must respect the per-vertex mark
        // budget; compare the deterministic consequences.
        let g = clique(90);
        let p = params(1, 0.5, 4);
        let mut rng = StdRng::seed_from_u64(13);
        let seq = build_sparsifier(&g, &p, &mut rng);
        let par = build_sparsifier_parallel(&g, &p, 13, 4).unwrap();
        assert_eq!(seq.stats.marks_placed, par.stats.marks_placed);
        assert_eq!(seq.stats.low_degree_vertices, par.stats.low_degree_vertices);
        assert!(par.stats.edges <= p.naive_size_bound(90));
    }
}
