//! The EDCS matching sparsifier: an *edge-degree constrained subgraph*
//! backend with trade-offs complementary to the paper's `G_Δ`.
//!
//! An `(β, β⁻)`-EDCS of `G` is a subgraph `H ⊆ G` satisfying two local
//! invariants (Assadi–Bernstein, arXiv:1811.02009):
//!
//! - **Property A** (degree bound): every edge `(u,v) ∈ H` has
//!   `deg_H(u) + deg_H(v) ≤ β`;
//! - **Property B** (saturation): every edge `(u,v) ∈ G ∖ H` has
//!   `deg_H(u) + deg_H(v) ≥ β⁻`.
//!
//! With `β⁻ = ⌈(1−λ)·β⌉` the subgraph has at most `n·(β−1)/2` edges
//! (Property A caps every H-degree at `β−1`) yet still contains a
//! `3/2 + O(λ)`-approximate maximum matching; arXiv:2406.07630 shows the
//! `3/2` factor is tight for bipartite graphs. Contrast with `G_Δ`:
//! the EDCS keeps *fewer* edges for comparable β and needs no
//! randomness, but its construction reads every edge of `G` (it is not
//! sublinear) and its ratio floor is `3/2`, not `1+ε`.
//!
//! Construction here is the sequential fixpoint: repeat passes over the
//! edges in storage order, removing an H-edge that violates Property A
//! and inserting a non-H edge that violates Property B, until a full
//! pass changes nothing. Termination is guaranteed by the potential
//! `Φ(H) = (β − 1/2)·Σ_u deg_H(u) − Σ_{(u,v) ∈ H} (deg_H(u)+deg_H(v))`:
//! every fix raises `Φ` by at least `1/2` and `Φ = O(n·β²)`, so the
//! build is infallible — there is no error path.

use crate::sparsifier::SparsifierStats;
use crate::stream_build::{StreamBuildError, StreamBuildReport};
use sparsimatch_graph::adjacency::ProbeCounts;
use sparsimatch_graph::csr::{from_sorted_edges, CsrGraph};
use sparsimatch_graph::edge_stream::EdgeStreamSource;
use sparsimatch_graph::ids::EdgeId;

/// Validated EDCS parameters. Construct via [`EdcsParams::new`], which
/// enforces the bounds the invariants need; the fields are read-only so
/// an `EdcsParams` value is valid by construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdcsParams {
    beta: usize,
    lambda: f64,
}

/// Why an `(β, λ)` pair was rejected by [`EdcsParams::new`]. The CLI
/// maps these to exit code 7 and the serve wire path to `bad_request`,
/// the same typed treatment the delta backend's bounds get.
#[derive(Clone, Debug, PartialEq)]
pub enum EdcsParamsError {
    /// `β < 2`: Property A would forbid every edge (an edge's two
    /// endpoints each contribute at least degree 1, so `β ≥ 2`).
    BetaTooSmall {
        /// The rejected value.
        beta: usize,
    },
    /// `λ` is not a finite number in `(0, 1)`.
    LambdaOutOfRange {
        /// The rejected value.
        lambda: f64,
    },
    /// `λ·β < 1`, which would put `β⁻ = ⌈(1−λ)β⌉` at `β` itself: then
    /// Properties A and B contradict on any edge with degree sum
    /// exactly `β`, and the fixpoint need not terminate.
    LambdaBetaTooSmall {
        /// The rejected β.
        beta: usize,
        /// The rejected λ.
        lambda: f64,
    },
}

impl std::fmt::Display for EdcsParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdcsParamsError::BetaTooSmall { beta } => {
                write!(f, "EDCS beta must be at least 2, got {beta}")
            }
            EdcsParamsError::LambdaOutOfRange { lambda } => {
                write!(f, "EDCS lambda must be in (0, 1), got {lambda}")
            }
            EdcsParamsError::LambdaBetaTooSmall { beta, lambda } => write!(
                f,
                "EDCS needs lambda * beta >= 1 so that beta- <= beta - 1, \
                 got lambda = {lambda}, beta = {beta}"
            ),
        }
    }
}

impl std::error::Error for EdcsParamsError {}

impl EdcsParams {
    /// Validate and construct. Requires `β ≥ 2`, `λ` finite in `(0, 1)`,
    /// and `λ·β ≥ 1` (equivalently `β⁻ ≤ β − 1`, the slack the fixpoint's
    /// termination argument and Property A/B compatibility both need).
    ///
    /// # Examples
    ///
    /// ```
    /// use sparsimatch_core::edcs::EdcsParams;
    ///
    /// let p = EdcsParams::new(16, 0.125).unwrap();
    /// assert_eq!(p.beta_minus(), 14);
    /// assert!(EdcsParams::new(1, 0.5).is_err());   // beta too small
    /// assert!(EdcsParams::new(16, 0.01).is_err()); // lambda * beta < 1
    /// ```
    pub fn new(beta: usize, lambda: f64) -> Result<EdcsParams, EdcsParamsError> {
        if beta < 2 {
            return Err(EdcsParamsError::BetaTooSmall { beta });
        }
        if !(lambda.is_finite() && 0.0 < lambda && lambda < 1.0) {
            return Err(EdcsParamsError::LambdaOutOfRange { lambda });
        }
        if lambda * (beta as f64) < 1.0 {
            return Err(EdcsParamsError::LambdaBetaTooSmall { beta, lambda });
        }
        Ok(EdcsParams { beta, lambda })
    }

    /// The default λ for a given β: `min(2/β, 1/2)` — `2/β` puts `β⁻` at
    /// `β − 2`, comfortable slack over the `λ·β ≥ 1` floor, and the cap
    /// keeps the value valid down to `β = 2` (where `λ = 1/2` is the
    /// floor itself). Used by the CLI and serve defaults.
    pub fn default_lambda(beta: usize) -> f64 {
        (2.0 / beta.max(1) as f64).min(0.5)
    }

    /// The degree-sum ceiling β (Property A).
    pub fn beta(&self) -> usize {
        self.beta
    }

    /// The slack parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The degree-sum floor `β⁻ = ⌈(1−λ)·β⌉` (Property B). Always in
    /// `1..=β−1` for validated parameters.
    pub fn beta_minus(&self) -> usize {
        ((1.0 - self.lambda) * self.beta as f64).ceil() as usize
    }

    /// The worst-case size of any `(β, β⁻)`-EDCS on `n` vertices:
    /// `⌊n·(β−1)/2⌋`. Property A caps every H-degree at `β − 1`, so the
    /// degree sum — twice the edge count — is at most `n·(β−1)`.
    pub fn size_bound(&self, n: usize) -> usize {
        n * (self.beta - 1) / 2
    }
}

/// What the EDCS fixpoint did, reported alongside the subgraph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdcsStats {
    /// Full passes over the edge set, including the final no-op pass
    /// that certified the fixpoint.
    pub passes: usize,
    /// Insertions plus removals performed across all passes.
    pub ops: u64,
    /// Edges in the finished subgraph `H`.
    pub edges: usize,
}

impl EdcsStats {
    /// The fixpoint's counters on the shared stats slots: `mark_cap`
    /// carries β and `marks_placed` the fix operations.
    pub(crate) fn as_sparsifier_stats(&self, params: &EdcsParams) -> SparsifierStats {
        SparsifierStats {
            delta: 0,
            mark_cap: params.beta(),
            low_degree_vertices: 0,
            marks_placed: self.ops as usize,
            edges: self.edges,
        }
    }
}

/// One fixpoint run over `g`'s edges in storage order, writing
/// H-membership into `in_h` (EdgeId-indexed) and H-degrees into `deg`,
/// then collecting the kept edge ids (sorted, since the scan is in id
/// order) into `ids`. All three buffers are cleared and resized here —
/// clear-not-drop, so a warm arena allocates nothing.
pub(crate) fn mark_edcs_into(
    g: &CsrGraph,
    params: &EdcsParams,
    in_h: &mut Vec<bool>,
    deg: &mut Vec<u32>,
    ids: &mut Vec<EdgeId>,
) -> EdcsStats {
    let (beta, beta_minus) = (params.beta() as u32, params.beta_minus() as u32);
    in_h.clear();
    in_h.resize(g.num_edges(), false);
    deg.clear();
    deg.resize(g.num_vertices(), 0);
    let mut stats = EdcsStats::default();
    loop {
        stats.passes += 1;
        let mut changed = false;
        for (e, u, v) in g.edges() {
            let (ui, vi) = (u.0 as usize, v.0 as usize);
            if in_h[e.0 as usize] {
                if deg[ui] + deg[vi] > beta {
                    in_h[e.0 as usize] = false;
                    deg[ui] -= 1;
                    deg[vi] -= 1;
                    stats.ops += 1;
                    changed = true;
                }
            } else if deg[ui] + deg[vi] < beta_minus {
                // Post-insert the edge's degree sum is at most
                // β⁻ + 1 ≤ β, so an insertion never violates Property A.
                in_h[e.0 as usize] = true;
                deg[ui] += 1;
                deg[vi] += 1;
                stats.ops += 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    ids.clear();
    ids.extend(
        g.edges()
            .filter(|(e, ..)| in_h[e.0 as usize])
            .map(|(e, ..)| e),
    );
    stats.edges = ids.len();
    stats
}

/// Build a `(β, β⁻)`-EDCS of `g` with fresh buffers. The result is a
/// subgraph CSR over `g`'s vertex set satisfying Properties A and B
/// ([`edcs_violation`] certifies both), with at most
/// [`EdcsParams::size_bound`] edges. Deterministic: no randomness is
/// involved, so equal inputs give byte-equal subgraphs.
///
/// # Examples
///
/// ```
/// use sparsimatch_core::edcs::{build_edcs, edcs_violation, EdcsParams};
/// use sparsimatch_graph::generators::clique;
///
/// let g = clique(40);
/// let p = EdcsParams::new(8, 0.25).unwrap();
/// let (h, stats) = build_edcs(&g, &p);
/// assert_eq!(edcs_violation(&g, &h, &p), None);
/// assert!(stats.edges <= p.size_bound(40));
/// ```
pub fn build_edcs(g: &CsrGraph, params: &EdcsParams) -> (CsrGraph, EdcsStats) {
    let mut in_h = Vec::new();
    let mut deg = Vec::new();
    let mut ids = Vec::new();
    let stats = mark_edcs_into(g, params, &mut in_h, &mut deg, &mut ids);
    let h = g.edge_subgraph(ids.into_iter());
    (h, stats)
}

/// Check the EDCS invariants of `h` against its parent `g`: returns
/// `None` when `h ⊆ g`, every `h`-edge satisfies Property A, and every
/// `g ∖ h` edge satisfies Property B; otherwise a one-line description
/// of the first violation. This is the certificate the `backend` check
/// oracle runs per sweep seed.
pub fn edcs_violation(g: &CsrGraph, h: &CsrGraph, params: &EdcsParams) -> Option<String> {
    if h.num_vertices() != g.num_vertices() {
        return Some(format!(
            "vertex set mismatch: H has {} vertices, G has {}",
            h.num_vertices(),
            g.num_vertices()
        ));
    }
    let (beta, beta_minus) = (params.beta(), params.beta_minus());
    for (_, u, v) in h.edges() {
        if !g.has_edge(u, v) {
            return Some(format!("H edge ({}, {}) is not an edge of G", u.0, v.0));
        }
        let sum = h.degree(u) + h.degree(v);
        if sum > beta {
            return Some(format!(
                "Property A violated at H edge ({}, {}): degree sum {sum} > beta {beta}",
                u.0, v.0
            ));
        }
    }
    for (_, u, v) in g.edges() {
        if h.has_edge(u, v) {
            continue;
        }
        let sum = h.degree(u) + h.degree(v);
        if sum < beta_minus {
            return Some(format!(
                "Property B violated at non-H edge ({}, {}): degree sum {sum} < beta- {beta_minus}",
                u.0, v.0
            ));
        }
    }
    None
}

/// Build the EDCS from a rescannable lex-sorted edge stream without
/// materializing the parent graph. Each fixpoint pass is one full scan;
/// H-membership is carried between passes as a sorted edge list walked
/// by a cursor (the stream is lex-sorted, so membership of the edge
/// *currently* visited — the only query a pass makes — is a cursor
/// comparison). The result is identical to [`build_edcs`] on the
/// materialized graph, because both visit edges in the same order with
/// the same immediate degree updates; a test pins this equivalence.
///
/// The report reuses the delta path's [`StreamBuildReport`] layout:
/// `edges_scanned` is `passes × 2m` half-edge visits (strictly more
/// than the delta build's fixed `4m` — the price of determinism without
/// a degree oracle), and `peak_resident_bytes` counts the degree array
/// plus the double-buffered membership lists, still far below
/// materializing the parent.
///
/// Each pass gets a single attempt: a failed scan is final, reported as
/// [`StreamBuildError::RetriesExhausted`] with `attempts: 1` and the
/// failing pass number (saturating at 255).
pub fn build_edcs_streamed(
    src: &mut dyn EdgeStreamSource,
    params: &EdcsParams,
) -> Result<(CsrGraph, EdcsStats, StreamBuildReport), StreamBuildError> {
    let n = src.num_vertices();
    let m = src.num_edges();
    let (beta, beta_minus) = (params.beta() as u32, params.beta_minus() as u32);
    let mut deg = vec![0u32; n];
    let mut old_h: Vec<(u32, u32)> = Vec::new();
    let mut new_h: Vec<(u32, u32)> = Vec::with_capacity(params.size_bound(n).min(m));
    let mut stats = EdcsStats::default();
    let mut edges_scanned = 0u64;
    let mut peak = 0usize;
    loop {
        stats.passes += 1;
        let mut changed = false;
        let mut cursor = 0usize;
        let mut ops = 0u64;
        new_h.clear();
        src.scan(&mut |u, v| {
            edges_scanned += 2;
            let (ui, vi) = (u as usize, v as usize);
            let in_h = cursor < old_h.len() && old_h[cursor] == (u, v);
            if in_h {
                cursor += 1;
                if deg[ui] + deg[vi] > beta {
                    deg[ui] -= 1;
                    deg[vi] -= 1;
                    ops += 1;
                    changed = true;
                } else {
                    new_h.push((u, v));
                }
            } else if deg[ui] + deg[vi] < beta_minus {
                deg[ui] += 1;
                deg[vi] += 1;
                new_h.push((u, v));
                ops += 1;
                changed = true;
            }
        })
        .map_err(|last| StreamBuildError::RetriesExhausted {
            pass: u8::try_from(stats.passes).unwrap_or(u8::MAX),
            attempts: 1,
            last,
        })?;
        stats.ops += ops;
        peak = peak.max(deg.capacity() * 4 + (old_h.capacity() + new_h.capacity()) * 8);
        std::mem::swap(&mut old_h, &mut new_h);
        if !changed {
            break;
        }
    }
    stats.edges = old_h.len();
    drop(new_h);
    drop(deg);
    let h = from_sorted_edges(n, old_h);
    let sparsifier_bytes = h.memory_bytes();
    peak = peak.max(sparsifier_bytes + n * 4);
    let report = StreamBuildReport {
        peak_resident_bytes: peak,
        graph_bytes: CsrGraph::projected_memory_bytes(n, m),
        sparsifier_bytes,
        probes: ProbeCounts {
            degree_probes: 0,
            neighbor_probes: edges_scanned,
        },
        edges_scanned,
        io_retries: 0,
    };
    Ok((h, stats, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::pipeline::PipelineResult;
    use crate::scratch::PipelineScratch;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{
        bipartite_gnp, clique, clique_union, gnp, CliqueUnionConfig,
    };
    use sparsimatch_matching::blossom::maximum_matching;

    fn solve(g: &CsrGraph, params: &EdcsParams, eps: f64, seed: u64) -> PipelineResult {
        let backend = Backend::Edcs {
            params: *params,
            eps,
        };
        let mut scratch = PipelineScratch::new();
        backend
            .solve(g, seed, 1, None, &mut scratch)
            .unwrap()
            .clone()
    }

    fn test_graphs() -> Vec<CsrGraph> {
        let mut rng = StdRng::seed_from_u64(11);
        vec![
            clique(60),
            clique_union(
                CliqueUnionConfig {
                    n: 200,
                    diversity: 3,
                    clique_size: 40,
                },
                &mut rng,
            ),
            gnp(120, 0.1, &mut rng),
            bipartite_gnp(80, 80, 0.1, &mut rng),
            from_sorted_edges(0, Vec::new()),
        ]
    }

    #[test]
    fn params_validation() {
        assert!(EdcsParams::new(2, 0.5).is_ok());
        assert_eq!(
            EdcsParams::new(1, 0.5),
            Err(EdcsParamsError::BetaTooSmall { beta: 1 })
        );
        assert_eq!(
            EdcsParams::new(0, 0.5),
            Err(EdcsParamsError::BetaTooSmall { beta: 0 })
        );
        for bad in [0.0, 1.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(EdcsParams::new(8, bad).is_err(), "lambda = {bad}");
        }
        assert_eq!(
            EdcsParams::new(8, 0.1),
            Err(EdcsParamsError::LambdaBetaTooSmall {
                beta: 8,
                lambda: 0.1
            })
        );
        // beta- is always within 1..=beta-1 for accepted params.
        for beta in 2..40 {
            let p = EdcsParams::new(beta, EdcsParams::default_lambda(beta)).unwrap();
            assert!((1..=beta - 1).contains(&p.beta_minus()), "beta = {beta}");
        }
    }

    #[test]
    fn invariants_hold_on_every_family() {
        for (i, g) in test_graphs().iter().enumerate() {
            for (beta, lambda) in [(4, 0.5), (8, 0.25), (16, 0.125)] {
                let p = EdcsParams::new(beta, lambda).unwrap();
                let (h, stats) = build_edcs(g, &p);
                assert_eq!(edcs_violation(g, &h, &p), None, "graph {i}, beta {beta}");
                assert!(
                    stats.edges <= p.size_bound(g.num_vertices()),
                    "graph {i}: {} > bound {}",
                    stats.edges,
                    p.size_bound(g.num_vertices())
                );
                assert_eq!(stats.edges, h.num_edges());
            }
        }
    }

    #[test]
    fn matching_quality_within_claim() {
        // The backend's claimed ratio: (3/2)(1+lambda)(1+eps). Certified
        // here on dense and sparse instances against exact blossom.
        let p = EdcsParams::new(16, 0.125).unwrap();
        let eps = 0.3;
        let claim = 1.5 * (1.0 + p.lambda()) * (1.0 + eps);
        for (i, g) in test_graphs().iter().enumerate() {
            let exact = maximum_matching(g).len();
            let r = solve(g, &p, eps, 0);
            assert!(r.matching.is_valid_for(g), "graph {i}");
            assert!(
                exact as f64 <= claim * r.matching.len() as f64 + 1e-9,
                "graph {i}: exact {exact} vs {} * {claim}",
                r.matching.len()
            );
        }
    }

    #[test]
    fn deterministic_and_seed_independent() {
        let g = clique(80);
        let p = EdcsParams::new(8, 0.25).unwrap();
        let a = solve(&g, &p, 0.4, 0);
        let b = solve(&g, &p, 0.4, 99);
        assert_eq!(a.matching, b.matching);
        assert_eq!(a.sparsifier.edges, b.sparsifier.edges);
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh() {
        let p = EdcsParams::new(8, 0.25).unwrap();
        let mut scratch = PipelineScratch::new();
        for (i, g) in test_graphs().iter().enumerate() {
            let cold = solve(g, &p, 0.4, 0);
            let backend = Backend::Edcs {
                params: p,
                eps: 0.4,
            };
            let warm = backend.solve(g, 0, 1, None, &mut scratch).unwrap();
            assert_eq!(cold.matching, warm.matching, "graph {i}");
            assert_eq!(cold.sparsifier, warm.sparsifier, "graph {i}");
            assert_eq!(cold.probes, warm.probes, "graph {i}");
        }
        assert!(scratch.high_water_bytes() > 0);
    }

    #[test]
    fn streamed_build_matches_in_memory() {
        let mut rng = StdRng::seed_from_u64(3);
        let graphs = [
            clique(50),
            gnp(150, 0.08, &mut rng),
            bipartite_gnp(60, 60, 0.15, &mut rng),
        ];
        let p = EdcsParams::new(8, 0.25).unwrap();
        for (i, g) in graphs.iter().enumerate() {
            let (h_mem, stats_mem) = build_edcs(g, &p);
            // CsrGraph implements EdgeStreamSource scanning lex order,
            // the same order `edges()` iterates for graphs built from
            // sorted input — so the fixpoints coincide pass for pass.
            let mut src = g.clone();
            let (h_str, stats_str, report) = build_edcs_streamed(&mut src, &p).unwrap();
            assert_eq!(stats_mem, stats_str, "graph {i}");
            let mem_edges: Vec<_> = h_mem.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            let str_edges: Vec<_> = h_str.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            assert_eq!(mem_edges, str_edges, "graph {i}");
            assert_eq!(
                report.edges_scanned,
                stats_str.passes as u64 * 2 * g.num_edges() as u64
            );
            assert!(report.peak_resident_bytes > 0);
        }
    }
}
