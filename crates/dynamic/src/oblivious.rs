//! The *oblivious-adversary* dynamic sparsifier of Section 3.3's opening
//! paragraph.
//!
//! Against an adversary that cannot see the algorithm's coins, the
//! sparsifier itself can be maintained directly: after each update
//! `(u, v)`, discard the marks of `u` and of `v` and draw fresh ones —
//! `O(Δ)` worst-case work. Every vertex's marks are always a uniform
//! sample of its *current* neighborhood (any change to a vertex's
//! incident edges makes it an update endpoint, hence resampled), so at
//! every time step the maintained edge set is exactly `G_Δ`-distributed
//! and Theorem 2.1 applies verbatim — provided the update sequence was
//! fixed in advance. An adaptive adversary breaks this (it can observe
//! the output and steer; that is why Theorem 3.5's windowed scheme in
//! [`crate::scheme`] exists), which the test
//! `adaptive_adversary_breaks_naive_maintenance_assumption` demonstrates
//! is not merely hypothetical bookkeeping.

use rand::Rng;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sampler::PosArraySampler;
use sparsimatch_graph::adjacency::AdjacencyOracle;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::csr::{CsrGraph, GraphBuilder};
use sparsimatch_graph::ids::VertexId;
use std::collections::HashMap;

/// Maintains `G_Δ` under edge updates with `O(Δ)` worst-case work per
/// update (oblivious adversary model).
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_dynamic::oblivious::ObliviousDynamicSparsifier;
/// use sparsimatch_graph::ids::VertexId;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut s = ObliviousDynamicSparsifier::new(4, SparsifierParams::practical(1, 0.5));
/// s.insert_edge(VertexId(0), VertexId(1), &mut rng);
/// s.insert_edge(VertexId(2), VertexId(3), &mut rng);
/// assert_eq!(s.sparsifier_edges(), 2); // low degrees keep everything
/// s.delete_edge(VertexId(0), VertexId(1), &mut rng);
/// assert_eq!(s.sparsifier_edges(), 1);
/// assert!(s.check_invariants());
/// ```
pub struct ObliviousDynamicSparsifier {
    graph: AdjListGraph,
    params: SparsifierParams,
    /// Current marks of each vertex (neighbor ids).
    marks: Vec<Vec<u32>>,
    /// Mark multiplicity per undirected edge (1 or 2 sides).
    marked_edges: HashMap<(u32, u32), u8>,
    /// The Section 3.1 sampler every resample marks through, and its
    /// index buffer.
    sampler: PosArraySampler,
    indices: Vec<u32>,
}

impl ObliviousDynamicSparsifier {
    /// An empty maintained sparsifier over `n` vertices.
    pub fn new(n: usize, params: SparsifierParams) -> Self {
        ObliviousDynamicSparsifier {
            graph: AdjListGraph::new(n),
            params,
            marks: vec![Vec::new(); n],
            marked_edges: HashMap::new(),
            sampler: PosArraySampler::new(0),
            indices: Vec::new(),
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &AdjListGraph {
        &self.graph
    }

    /// Number of distinct edges currently in the maintained sparsifier.
    pub fn sparsifier_edges(&self) -> usize {
        self.marked_edges.len()
    }

    /// Insert edge `{u, v}`; returns the work units spent (O(Δ)).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId, rng: &mut impl Rng) -> u64 {
        if !self.graph.insert_edge(u, v) {
            return 1;
        }
        1 + self.resample(u, rng) + self.resample(v, rng)
    }

    /// Delete edge `{u, v}`; returns the work units spent (O(Δ)).
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId, rng: &mut impl Rng) -> u64 {
        if !self.graph.delete_edge(u, v) {
            return 1;
        }
        1 + self.resample(u, rng) + self.resample(v, rng)
    }

    fn edge_key(u: VertexId, v: VertexId) -> (u32, u32) {
        (u.0.min(v.0), u.0.max(v.0))
    }

    /// Discard `v`'s marks and draw fresh ones from its current
    /// neighborhood; O(mark_cap) work.
    fn resample(&mut self, v: VertexId, rng: &mut impl Rng) -> u64 {
        let mut work = 0u64;
        // Remove old marks.
        let old = std::mem::take(&mut self.marks[v.index()]);
        for w in old {
            work += 1;
            let key = Self::edge_key(v, VertexId(w));
            if let Some(count) = self.marked_edges.get_mut(&key) {
                *count -= 1;
                if *count == 0 {
                    self.marked_edges.remove(&key);
                }
            }
        }
        // Fresh marks from the current adjacency: the core's marking rule
        // on the caller's RNG, the shared-stream model of
        // `mark_shared_rng`.
        let deg = self.graph.degree(v);
        self.sampler.ensure_capacity(deg);
        self.sampler.mark_indices(
            deg,
            self.params.delta,
            self.params.mark_cap(),
            rng,
            &mut self.indices,
        );
        let fresh: Vec<u32> = self
            .indices
            .iter()
            .map(|&i| self.graph.neighbor(v, i as usize).0)
            .collect();
        for &w in &fresh {
            work += 1;
            let key = Self::edge_key(v, VertexId(w));
            *self.marked_edges.entry(key).or_insert(0) += 1;
        }
        self.marks[v.index()] = fresh;
        work
    }

    /// Snapshot the maintained sparsifier as a CSR graph.
    pub fn sparsifier_graph(&self) -> CsrGraph {
        let mut b = GraphBuilder::with_capacity(self.graph.num_vertices(), self.marked_edges.len());
        for &(u, v) in self.marked_edges.keys() {
            b.add_edge(VertexId(u), VertexId(v));
        }
        b.build()
    }

    /// Audit invariant: every vertex holds exactly `min(deg, cap or Δ)`
    /// marks, all of current neighbors, and the edge multiset matches.
    pub fn check_invariants(&self) -> bool {
        let n = self.graph.num_vertices();
        let mut recount: HashMap<(u32, u32), u8> = HashMap::new();
        for v in 0..n {
            let vid = VertexId::new(v);
            let deg = self.graph.degree(vid);
            let expected = if deg <= self.params.mark_cap() {
                deg
            } else {
                self.params.delta
            };
            if self.marks[v].len() != expected {
                return false;
            }
            let mut distinct = self.marks[v].clone();
            distinct.sort_unstable();
            distinct.dedup();
            if distinct.len() != self.marks[v].len() {
                return false;
            }
            for &w in &self.marks[v] {
                if !self.graph.has_edge(vid, VertexId(w)) {
                    return false;
                }
                *recount.entry(Self::edge_key(vid, VertexId(w))).or_insert(0) += 1;
            }
        }
        recount == self.marked_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{clique, clique_union, CliqueUnionConfig};
    use sparsimatch_matching::blossom::maximum_matching;

    fn params() -> SparsifierParams {
        SparsifierParams::practical(2, 0.4)
    }

    #[test]
    fn invariants_hold_along_random_streams() {
        let mut rng = StdRng::seed_from_u64(1);
        let host = clique_union(
            CliqueUnionConfig {
                n: 60,
                diversity: 2,
                clique_size: 12,
            },
            &mut rng,
        );
        let mut s = ObliviousDynamicSparsifier::new(60, params());
        let edges: Vec<(u32, u32)> = host.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let mut present: Vec<(u32, u32)> = Vec::new();
        for (i, &(u, v)) in edges.iter().enumerate() {
            s.insert_edge(VertexId(u), VertexId(v), &mut rng);
            present.push((u, v));
            if i % 5 == 4 {
                let k = rng.random_range(0..present.len());
                let (a, b) = present.swap_remove(k);
                s.delete_edge(VertexId(a), VertexId(b), &mut rng);
            }
            if i % 40 == 39 {
                assert!(s.check_invariants(), "step {i}");
            }
        }
        assert!(s.check_invariants());
    }

    #[test]
    fn sparsifier_preserves_matching_under_oblivious_stream() {
        let mut rng = StdRng::seed_from_u64(2);
        let host = clique(100);
        let mut s = ObliviousDynamicSparsifier::new(100, SparsifierParams::practical(1, 0.4));
        for (_, u, v) in host.edges() {
            s.insert_edge(u, v, &mut rng);
        }
        let sparse = s.sparsifier_graph();
        let mcm = maximum_matching(&sparse).len();
        assert!(
            mcm as f64 * 1.4 >= 50.0,
            "maintained sparsifier lost the matching: {mcm}"
        );
        // And it is a subgraph of the current graph.
        let snapshot = s.graph().to_csr();
        for (_, u, v) in sparse.edges() {
            assert!(snapshot.has_edge(u, v));
        }
    }

    #[test]
    fn update_work_is_bounded_by_cap() {
        let mut rng = StdRng::seed_from_u64(3);
        let host = clique(200);
        let p = SparsifierParams::practical(1, 0.4);
        let mut s = ObliviousDynamicSparsifier::new(200, p);
        let mut max_work = 0u64;
        for (_, u, v) in host.edges() {
            max_work = max_work.max(s.insert_edge(u, v, &mut rng));
        }
        // Each update resamples two vertices: <= 2·(old + fresh) + 1
        // <= 4·cap + 1.
        assert!(
            max_work <= 4 * p.mark_cap() as u64 + 1,
            "work {max_work} above O(Δ) bound"
        );
    }

    #[test]
    fn deletions_remove_stale_marks() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = ObliviousDynamicSparsifier::new(4, params());
        s.insert_edge(VertexId(0), VertexId(1), &mut rng);
        s.insert_edge(VertexId(1), VertexId(2), &mut rng);
        assert_eq!(s.sparsifier_edges(), 2, "low degree keeps everything");
        s.delete_edge(VertexId(0), VertexId(1), &mut rng);
        assert_eq!(s.sparsifier_edges(), 1);
        assert!(s.check_invariants());
        let sparse = s.sparsifier_graph();
        assert!(!sparse.has_edge(VertexId(0), VertexId(1)));
    }

    #[test]
    fn duplicate_operations_are_cheap_noops() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = ObliviousDynamicSparsifier::new(3, params());
        assert!(s.insert_edge(VertexId(0), VertexId(1), &mut rng) > 1);
        assert_eq!(s.insert_edge(VertexId(0), VertexId(1), &mut rng), 1);
        assert_eq!(s.delete_edge(VertexId(1), VertexId(2), &mut rng), 1);
    }

    /// The reason Theorem 3.5 does NOT rely on this maintainer: an
    /// adaptive adversary that observes the coins can *steer the mark
    /// distribution*. Concretely, by deleting-and-reinserting one fixed
    /// edge whenever it is currently unmarked (an adaptive choice — an
    /// oblivious sequence cannot condition on the marks), the adversary
    /// drives `P[e ∈ G_Δ]` from its stationary `≈ 2Δ/deg` to essentially
    /// 1, violating the uniform-marking premise of Theorem 2.1's proof.
    #[test]
    fn adaptive_adversary_breaks_naive_maintenance_assumption() {
        let mut rng = StdRng::seed_from_u64(6);
        let host = clique(40);
        let p = SparsifierParams::with_delta(1, 0.5, 2); // cap 4 << deg 39
        let (a, b) = (VertexId(0), VertexId(1));
        let key = (0u32, 1u32);

        // Stationary (oblivious) marking rate of the fixed edge.
        let trials = 400;
        let mut marked = 0usize;
        for _ in 0..trials {
            let mut s = ObliviousDynamicSparsifier::new(40, p);
            for (_, u, v) in host.edges() {
                s.insert_edge(u, v, &mut rng);
            }
            marked += s.marked_edges.contains_key(&key) as usize;
        }
        let oblivious_rate = marked as f64 / trials as f64;
        assert!(
            oblivious_rate < 0.5,
            "stationary rate should be ~2Δ/deg ≈ 0.1, got {oblivious_rate}"
        );

        // Adaptive steering: churn e whenever it is unmarked.
        let mut s = ObliviousDynamicSparsifier::new(40, p);
        for (_, u, v) in host.edges() {
            s.insert_edge(u, v, &mut rng);
        }
        for _ in 0..200 {
            if s.marked_edges.contains_key(&key) {
                break;
            }
            s.delete_edge(a, b, &mut rng);
            s.insert_edge(a, b, &mut rng);
        }
        assert!(
            s.marked_edges.contains_key(&key),
            "the adaptive strategy pins the edge into the sparsifier"
        );
        assert!(s.check_invariants());
    }
}
