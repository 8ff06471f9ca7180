//! Greedy maximal matching — the classic linear-time 2-approximation.
//!
//! Scanning every edge once and keeping it whenever both endpoints are
//! free yields a maximal matching, hence `|M| ≥ |MCM|/2`. This is both a
//! baseline (the naive `O(m)` algorithm the paper's sublinear results beat
//! on dense graphs) and the initializer for the bounded-augmentation
//! approximation.

use crate::matching::Matching;
use rand::seq::SliceRandom;
use rand::Rng;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::EdgeId;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Greedy maximal matching in edge-id order. O(m).
pub fn greedy_maximal_matching(g: &CsrGraph) -> Matching {
    let mut m = Matching::new(g.num_vertices());
    greedy_maximal_matching_into(g, &mut m);
    m
}

/// [`greedy_maximal_matching`] into a caller-owned matching: `out` is
/// reset to `g`'s vertex count (reusing its capacity) and filled with the
/// same edge-id-order scan. The scratch-reuse path of the pipeline's
/// match stage — allocation-free once `out` has capacity.
pub fn greedy_maximal_matching_into(g: &CsrGraph, out: &mut Matching) {
    out.reset(g.num_vertices());
    greedy_edges_into(g, out, 0..g.num_edges());
    debug_assert!(out.is_maximal_in(g));
}

/// The edge-id-order greedy scan over the edge ids in `edges`: each edge
/// joins `out` when both its endpoints are free there. Scanning
/// consecutive ranges that cover `0..m`, starting from an empty `out`,
/// gives exactly [`greedy_maximal_matching`] — the resumable form the
/// dynamic matcher time-slices.
pub fn greedy_edges_into(g: &CsrGraph, out: &mut Matching, edges: Range<usize>) {
    for e in edges {
        let (u, v) = g.edge_endpoints(EdgeId::new(e));
        out.add_pair(u, v); // no-op when an endpoint is taken
    }
}

/// Below this many edges the parallel greedy takes the sequential path.
const PARALLEL_GREEDY_CUTOFF: usize = 1 << 14;

/// Once the alive edge set shrinks below this, finish sequentially — the
/// local-minima rounds stop paying for their passes.
const SEQUENTIAL_FINISH: usize = 4096;

/// Round cap: on adversarial inputs (long induced paths) local-minima
/// rounds can need Θ(m) iterations; past this many rounds the remaining
/// edges are finished sequentially instead. Both fallback triggers depend
/// only on the (deterministic) round outcomes, never on the thread count.
const MAX_ROUNDS: usize = 64;

/// Deterministic parallel greedy maximal matching.
///
/// Computes exactly the same matching as [`greedy_maximal_matching`] — the
/// lexicographically-first maximal matching in edge-id order — for every
/// thread count, via rounds of local minima: an alive edge is claimed when
/// it is the minimum-id alive edge at *both* endpoints. Per-vertex minima
/// are folded with an atomic `fetch_min`, which is commutative, so the
/// round outcome is independent of scheduling. Rounds that stop making
/// fast progress fall back to the sequential scan over the surviving
/// edges, which preserves the output exactly (an edge skipped because an
/// endpoint got matched is an edge the sequential scan would skip too).
///
/// No solve path calls this: it lost to the sequential scan at every
/// measured size, so the pipeline's match stage runs greedy on one
/// worker. It stays only because `benchmark/trace` links it to time the
/// `matching.greedy_ms_t2` span; delete it (with its cutoff, finish and
/// round-cap constants) once that span is retired.
pub fn greedy_maximal_matching_parallel(g: &CsrGraph, threads: usize) -> Matching {
    let threads = threads.max(1);
    let m_edges = g.num_edges();
    if threads == 1 || m_edges < PARALLEL_GREEDY_CUTOFF {
        return greedy_maximal_matching(g);
    }
    let n = g.num_vertices();
    let mut matching = Matching::new(n);
    let mut alive: Vec<u32> = (0..m_edges as u32).collect();
    let cand: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let chunk_for = |len: usize| len.div_ceil(threads).max(1);

    let mut rounds = 0usize;
    while !alive.is_empty() {
        if alive.len() <= SEQUENTIAL_FINISH || rounds >= MAX_ROUNDS {
            for &e in &alive {
                let (u, v) = g.edge_endpoints(EdgeId(e));
                matching.add_pair(u, v);
            }
            break;
        }
        rounds += 1;
        let chunk = chunk_for(alive.len());
        // Pass 1: reset candidates at live endpoints (plain stores of the
        // same value are race-free), then fold per-vertex minima.
        std::thread::scope(|s| {
            for ch in alive.chunks(chunk) {
                let cand = &cand;
                s.spawn(move || {
                    for &e in ch {
                        let (u, v) = g.edge_endpoints(EdgeId(e));
                        cand[u.index()].store(u32::MAX, Ordering::Relaxed);
                        cand[v.index()].store(u32::MAX, Ordering::Relaxed);
                    }
                });
            }
        });
        std::thread::scope(|s| {
            for ch in alive.chunks(chunk) {
                let cand = &cand;
                s.spawn(move || {
                    for &e in ch {
                        let (u, v) = g.edge_endpoints(EdgeId(e));
                        cand[u.index()].fetch_min(e, Ordering::Relaxed);
                        cand[v.index()].fetch_min(e, Ordering::Relaxed);
                    }
                });
            }
        });
        // Pass 2: collect winners (min at both endpoints). Winners are
        // vertex-disjoint, so applying them in any order is safe; chunk
        // order keeps it deterministic anyway.
        let winners: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = alive
                .chunks(chunk)
                .map(|ch| {
                    let cand = &cand;
                    s.spawn(move || {
                        ch.iter()
                            .copied()
                            .filter(|&e| {
                                let (u, v) = g.edge_endpoints(EdgeId(e));
                                cand[u.index()].load(Ordering::Relaxed) == e
                                    && cand[v.index()].load(Ordering::Relaxed) == e
                            })
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut won = 0usize;
        for e in winners.into_iter().flatten() {
            let (u, v) = g.edge_endpoints(EdgeId(e));
            let added = matching.add_pair(u, v);
            debug_assert!(added, "round winners must be vertex-disjoint");
            won += 1;
        }
        debug_assert!(won > 0, "the min alive edge always wins its round");
        // Pass 3: drop edges with a matched endpoint, preserving order.
        let survivors: Vec<Vec<u32>> = std::thread::scope(|s| {
            let matching = &matching;
            let handles: Vec<_> = alive
                .chunks(chunk)
                .map(|ch| {
                    s.spawn(move || {
                        ch.iter()
                            .copied()
                            .filter(|&e| {
                                let (u, v) = g.edge_endpoints(EdgeId(e));
                                !matching.is_matched(u) && !matching.is_matched(v)
                            })
                            .collect::<Vec<u32>>()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        alive = survivors.into_iter().flatten().collect();
        // Slow convergence (e.g. long paths): hand the tail to the
        // sequential scan next iteration.
        if won * 16 < alive.len() {
            rounds = MAX_ROUNDS;
        }
    }
    debug_assert!(matching.is_maximal_in(g));
    matching
}

/// Greedy maximal matching over a uniformly random edge order. Still a
/// 2-approximation in the worst case, but typically noticeably larger than
/// the deterministic scan; used as a fairer baseline in experiments.
pub fn randomized_greedy_matching(g: &CsrGraph, rng: &mut impl Rng) -> Matching {
    let mut order: Vec<u32> = (0..g.num_edges() as u32).collect();
    order.shuffle(rng);
    let mut m = Matching::new(g.num_vertices());
    for e in order {
        let (u, v) = g.edge_endpoints(EdgeId(e));
        m.add_pair(u, v);
    }
    debug_assert!(m.is_maximal_in(g));
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{clique, cycle, gnp, path};

    #[test]
    fn path_matching() {
        let m = greedy_maximal_matching(&path(6));
        assert!(m.is_valid_for(&path(6)));
        assert!(m.is_maximal_in(&path(6)));
        assert!(m.len() >= 2); // MCM = 3, maximal >= ceil(3/2)
    }

    #[test]
    fn clique_perfect() {
        let g = clique(8);
        let m = greedy_maximal_matching(&g);
        assert_eq!(m.len(), 4, "greedy on a clique is perfect");
    }

    #[test]
    fn odd_cycle() {
        let g = cycle(7);
        let m = greedy_maximal_matching(&g);
        assert!(m.is_maximal_in(&g));
        assert!(m.len() >= 2 && m.len() <= 3);
    }

    #[test]
    fn randomized_is_valid_and_maximal() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = gnp(100, 0.05, &mut rng);
        let m = randomized_greedy_matching(&g, &mut rng);
        assert!(m.is_valid_for(&g));
        assert!(m.is_maximal_in(&g));
    }

    #[test]
    fn maximal_is_half_approx() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let g = gnp(40, 0.1, &mut rng);
            let greedy = greedy_maximal_matching(&g).len();
            let exact = crate::blossom::maximum_matching(&g).len();
            assert!(2 * greedy >= exact, "greedy {greedy} < half of {exact}");
        }
    }

    fn assert_parallel_equals_sequential(g: &CsrGraph, label: &str) {
        let seq = greedy_maximal_matching(g);
        for threads in [2usize, 3, 8] {
            let par = greedy_maximal_matching_parallel(g, threads);
            assert_eq!(seq, par, "{label}: threads = {threads}");
        }
        assert_eq!(seq, greedy_maximal_matching_parallel(g, 1), "{label}: t1");
    }

    #[test]
    fn parallel_equals_sequential_above_cutoff() {
        let mut rng = StdRng::seed_from_u64(7);
        // gnp(400, 0.25): ~20k edges, above PARALLEL_GREEDY_CUTOFF, so the
        // local-minima rounds actually run.
        let g = gnp(400, 0.25, &mut rng);
        assert!(g.num_edges() >= PARALLEL_GREEDY_CUTOFF);
        assert_parallel_equals_sequential(&g, "gnp-dense");
        // Dense single clique: one round matches greedily along edge ids.
        assert_parallel_equals_sequential(&clique(200), "clique");
    }

    #[test]
    fn parallel_survives_pathological_round_depth() {
        // A long path is the worst case for local-minima rounds (the
        // lexicographically-first matching is built nearly one edge per
        // round); the sequential-finish fallback must both terminate and
        // preserve the sequential output.
        assert_parallel_equals_sequential(&path(40_000), "long-path");
        assert_parallel_equals_sequential(&cycle(30_000), "long-cycle");
    }

    #[test]
    fn parallel_handles_small_and_empty_graphs() {
        use sparsimatch_graph::csr::from_edges;
        assert_parallel_equals_sequential(&from_edges(0, []), "empty");
        assert_parallel_equals_sequential(&from_edges(1, []), "singleton");
        assert_parallel_equals_sequential(&path(6), "tiny-path");
        let mut rng = StdRng::seed_from_u64(8);
        assert_parallel_equals_sequential(&gnp(60, 0.2, &mut rng), "small-gnp");
    }

    #[test]
    fn parallel_on_adversarial_families() {
        use sparsimatch_graph::generators::{clique_minus_edge, star};
        // Star: one hub of huge degree — every edge shares the hub, the
        // minimum edge id wins, and everything else dies in round one.
        assert_parallel_equals_sequential(&star(30_000), "star");
        // Lemma 2.13's clique-minus-edge instance.
        assert_parallel_equals_sequential(&clique_minus_edge(250, (0, 249)), "clique-minus-edge");
    }
}
