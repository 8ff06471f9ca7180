//! Theorem 3.1 end-to-end: the `(1+ε)`-approximate maximum matching in
//! time sublinear in `|E(G)|`.
//!
//! Pipeline: (1) **mark** — every vertex marks Δ uniform incident edges
//! with the deterministic-time sampler, `O(n·Δ)` probes; (2) **extract** —
//! lay out the marked edges as the sparsifier CSR `G_Δ`; (3) **match** —
//! run greedy initialization plus the `(1+ε')`-approximate matching of
//! [`sparsimatch_matching::bounded_aug`] on the sparsifier, linear in
//! `|E(G_Δ)| = O(n·Δ)` per phase. The accuracy budget is split between the
//! two `(1+·)` factors so the end-to-end guarantee is `1 + ε`:
//! `(1 + ε/2.5)² ≤ 1 + ε` for `ε ≤ 1`.
//!
//! The stages run in [`Backend::solve`](crate::backend::Backend::solve)
//! (in memory) and
//! [`Backend::solve_streamed`](crate::backend::Backend::solve_streamed)
//! (out of core); this module holds what they share: the result type,
//! the stage-ε split, and the match stage ([`match_stage`]).

use crate::params::SparsifierParams;
use crate::sparsifier::SparsifierStats;
use sparsimatch_graph::adjacency::ProbeCounts;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_matching::blossom::BlossomSearcher;
use sparsimatch_matching::bounded_aug::{
    eliminate_augmenting_paths_up_to_with, max_path_len_for_eps, AugStats,
};
use sparsimatch_matching::greedy::{
    greedy_maximal_matching_into, greedy_maximal_matching_parallel,
};
use sparsimatch_matching::Matching;

/// Everything the pipeline measured while running.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// The `(1+ε)`-approximate matching — valid for the *original* graph.
    pub matching: Matching,
    /// Sparsifier construction statistics.
    pub sparsifier: SparsifierStats,
    /// Adjacency-array probes spent building the sparsifier (the
    /// sublinearity certificate: compare with `m`).
    pub probes: ProbeCounts,
    /// Augmentation statistics on the sparsifier.
    pub aug: AugStats,
}

/// Split a target ε into the per-stage ε' so that `(1+ε')² ≤ 1+ε`.
pub fn stage_eps(eps: f64) -> f64 {
    eps / 2.5
}

/// The per-stage [`SparsifierParams`] the pipeline actually marks with:
/// Δ re-aimed at [`stage_eps`] while keeping the caller's scaling choice
/// relative to the paper constant. Shared by the in-memory pipeline, the
/// out-of-core build, and the `delta` backend's size-bound claim, so all
/// three agree on the sparsifier they describe.
pub fn stage_params(params: &SparsifierParams) -> SparsifierParams {
    let eps_stage = stage_eps(params.eps);
    let scale = params.delta as f64
        / (20.0 * (params.beta as f64 / params.eps) * (24.0 / params.eps).ln()).ceil();
    SparsifierParams::scaled(params.beta, eps_stage, scale.max(1e-9))
}

/// Stage 3 (match) on a built sparsifier, into caller-owned buffers:
/// greedy maximal matching on `workers` threads, then bounded
/// augmentation at `eps`. The parallel greedy computes the
/// lexicographically-first maximal matching — exactly the sequential
/// scan's output — so `workers` changes only the wall clock; one worker
/// with warm buffers allocates nothing.
pub fn match_stage(
    sparse: &CsrGraph,
    eps: f64,
    workers: usize,
    matching: &mut Matching,
    searcher: &mut BlossomSearcher,
) -> AugStats {
    if workers == 1 {
        greedy_maximal_matching_into(sparse, matching);
    } else {
        *matching = greedy_maximal_matching_parallel(sparse, workers);
    }
    eliminate_augmenting_paths_up_to_with(sparse, matching, max_path_len_for_eps(eps), searcher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::scratch::PipelineScratch;
    use crate::sparsifier::ThreadCountError;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{
        clique, clique_union, line_graph, unit_disk, CliqueUnionConfig, UnitDiskConfig,
    };
    use sparsimatch_matching::blossom::maximum_matching;
    use sparsimatch_obs::{keys, WorkMeter};

    /// One-shot `delta` solve through a fresh arena.
    fn run(
        g: &CsrGraph,
        p: &SparsifierParams,
        seed: u64,
        threads: usize,
        meter: Option<&mut WorkMeter>,
    ) -> Result<PipelineResult, ThreadCountError> {
        Backend::Delta(*p)
            .solve(g, seed, threads, meter, &mut PipelineScratch::new())
            .cloned()
    }

    #[test]
    fn stage_eps_composes() {
        for &eps in &[0.1f64, 0.3, 0.5, 0.9] {
            let s = stage_eps(eps);
            assert!((1.0 + s) * (1.0 + s) <= 1.0 + eps + 1e-12);
        }
    }

    #[test]
    fn end_to_end_accuracy_on_clique() {
        let g = clique(200);
        let p = SparsifierParams::practical(1, 0.3);
        let exact = maximum_matching(&g).len(); // 100
        for seed in [1u64, 2, 3] {
            let r = run(&g, &p, seed, 1, None).unwrap();
            assert!(r.matching.is_valid_for(&g));
            assert!(
                r.matching.len() as f64 * 1.3 >= exact as f64,
                "{} vs {exact}",
                r.matching.len()
            );
        }
    }

    #[test]
    fn end_to_end_accuracy_on_clique_union() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = clique_union(
            CliqueUnionConfig {
                n: 300,
                diversity: 3,
                clique_size: 60,
            },
            &mut rng,
        );
        let p = SparsifierParams::practical(3, 0.4);
        let exact = maximum_matching(&g).len();
        let r = run(&g, &p, 2, 2, None).unwrap();
        assert!(r.matching.len() as f64 * 1.4 >= exact as f64);
    }

    #[test]
    fn probes_sublinear_on_dense_graph() {
        let g = clique(500); // m ≈ 125k
        let p = SparsifierParams::practical(1, 0.5);
        let r = run(&g, &p, 3, 2, None).unwrap();
        let m = g.num_edges() as u64;
        assert!(
            r.probes.total() < m / 2,
            "probes {} not sublinear in m {m}",
            r.probes.total()
        );
    }

    #[test]
    fn line_graph_pipeline() {
        let mut rng = StdRng::seed_from_u64(4);
        let base = sparsimatch_graph::generators::gnp(60, 0.25, &mut rng);
        let g = line_graph(&base); // beta <= 2
        if g.num_edges() == 0 {
            return;
        }
        let p = SparsifierParams::practical(2, 0.4);
        let exact = maximum_matching(&g).len();
        let r = run(&g, &p, 4, 1, None).unwrap();
        assert!(r.matching.len() as f64 * 1.4 >= exact as f64);
    }

    #[test]
    fn unit_disk_pipeline() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = unit_disk(
            UnitDiskConfig::with_expected_degree(500, 1.0, 30.0),
            &mut rng,
        );
        let p = SparsifierParams::practical(5, 0.4);
        let exact = maximum_matching(&g).len();
        let r = run(&g, &p, 5, 4, None).unwrap();
        assert!(r.matching.len() as f64 * 1.4 >= exact as f64);
    }

    #[test]
    fn metered_pipeline_matches_unmetered() {
        let g = clique(120);
        let p = SparsifierParams::practical(1, 0.4);
        let mut meter = WorkMeter::new();
        let plain = run(&g, &p, 7, 2, None).unwrap();
        let metered = run(&g, &p, 7, 2, Some(&mut meter)).unwrap();
        let e1: Vec<_> = plain.matching.pairs().collect();
        let e2: Vec<_> = metered.matching.pairs().collect();
        assert_eq!(e1, e2, "metering must not perturb the pipeline");
        assert_eq!(plain.probes, metered.probes);
        assert_eq!(meter.get(keys::DEGREE_PROBES), metered.probes.degree_probes);
        assert_eq!(
            meter.get(keys::NEIGHBOR_PROBES),
            metered.probes.neighbor_probes
        );
        assert_eq!(
            meter.get(keys::SPARSIFIER_EDGES),
            metered.sparsifier.edges as u64
        );
        assert_eq!(meter.get(keys::EDGE_VISITS), metered.aug.edge_visits);
        assert!(meter.get(keys::RNG_DRAWS) > 0);
        // Per-stage spans recorded exactly once each.
        for key in [
            keys::STAGE_MARK,
            keys::STAGE_EXTRACT,
            keys::STAGE_MATCH,
            keys::PIPELINE_TOTAL,
        ] {
            assert_eq!(meter.span_stats(key).count, 1, "span {key}");
        }
        let stage_sum = meter.span_stats(keys::STAGE_MARK).total_nanos
            + meter.span_stats(keys::STAGE_EXTRACT).total_nanos
            + meter.span_stats(keys::STAGE_MATCH).total_nanos;
        assert!(stage_sum <= meter.span_stats(keys::PIPELINE_TOTAL).total_nanos);
    }

    #[test]
    fn pipeline_is_thread_count_invariant() {
        let g = clique(150);
        let p = SparsifierParams::practical(1, 0.4);
        let reference = run(&g, &p, 13, 1, None).unwrap();
        let e1: Vec<_> = reference.matching.pairs().collect();
        let mut m1 = WorkMeter::new();
        run(&g, &p, 13, 1, Some(&mut m1)).unwrap();
        let c1: Vec<_> = m1.counters().map(|(k, v)| (k.to_string(), v)).collect();
        for threads in [2usize, 4, 8] {
            let mut m = WorkMeter::new();
            let r = run(&g, &p, 13, threads, Some(&mut m)).unwrap();
            let e: Vec<_> = r.matching.pairs().collect();
            assert_eq!(e1, e, "threads = {threads}");
            assert_eq!(reference.probes, r.probes);
            let c: Vec<_> = m.counters().map(|(k, v)| (k.to_string(), v)).collect();
            assert_eq!(c1, c, "metered totals, threads = {threads}");
        }
        assert!(reference.matching.is_valid_for(&g));
        assert!(run(&g, &p, 13, 0, None).is_err());
        assert!(run(&g, &p, 13, 65, None).is_err());
    }

    #[test]
    fn scratch_reuse_is_byte_identical_to_fresh() {
        // One arena dragged across families, sizes, seeds, and thread
        // counts must reproduce the one-shot wrapper exactly: matching
        // pairs, sparsifier stats, probes, and augmentation stats.
        let mut rng = StdRng::seed_from_u64(8);
        let graphs = [
            clique(150),
            clique_union(
                CliqueUnionConfig {
                    n: 200,
                    diversity: 3,
                    clique_size: 40,
                },
                &mut rng,
            ),
            sparsimatch_graph::generators::gnp(120, 0.1, &mut rng),
            sparsimatch_graph::csr::from_edges(0, []),
        ];
        let p = SparsifierParams::practical(2, 0.4);
        let mut scratch = crate::scratch::PipelineScratch::new();
        for (i, g) in graphs.iter().enumerate() {
            for seed in [3u64, 21] {
                for threads in [1usize, 2, 4, 8] {
                    let cold = run(g, &p, seed, threads, None).unwrap();
                    let warm = Backend::Delta(p)
                        .solve(g, seed, threads, None, &mut scratch)
                        .unwrap();
                    assert_eq!(
                        cold.matching, warm.matching,
                        "graph {i} seed {seed} threads {threads}"
                    );
                    assert_eq!(cold.probes, warm.probes);
                    let s = (
                        cold.sparsifier.marks_placed,
                        cold.sparsifier.low_degree_vertices,
                        cold.sparsifier.edges,
                    );
                    let w = (
                        warm.sparsifier.marks_placed,
                        warm.sparsifier.low_degree_vertices,
                        warm.sparsifier.edges,
                    );
                    assert_eq!(s, w, "graph {i} seed {seed} threads {threads}");
                    let a = (
                        cold.aug.augmentations,
                        cold.aug.searches,
                        cold.aug.edge_visits,
                    );
                    let b = (
                        warm.aug.augmentations,
                        warm.aug.searches,
                        warm.aug.edge_visits,
                    );
                    assert_eq!(a, b, "graph {i} seed {seed} threads {threads}");
                }
            }
        }
        assert!(scratch.high_water_bytes() > 0);
        assert!(scratch.capacity_bytes() <= scratch.high_water_bytes());
    }

    #[test]
    fn scratch_metered_matches_one_shot_metered() {
        let g = clique(120);
        let p = SparsifierParams::practical(1, 0.4);
        let mut scratch = crate::scratch::PipelineScratch::new();
        let mut m_fresh = WorkMeter::new();
        let mut m_warm = WorkMeter::new();
        let fresh = run(&g, &p, 11, 1, Some(&mut m_fresh)).unwrap();
        // Warm the arena first so the metered run below is a steady-state
        // repeat, then compare counters (spans are wall clock — skipped).
        let backend = Backend::Delta(p);
        backend.solve(&g, 11, 1, None, &mut scratch).unwrap();
        let warm = backend
            .solve(&g, 11, 1, Some(&mut m_warm), &mut scratch)
            .unwrap();
        assert_eq!(fresh.matching, warm.matching);
        let fresh_counters: Vec<_> = m_fresh
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        let warm_counters: Vec<_> = m_warm.counters().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(fresh_counters, warm_counters);
    }
}
