//! Theorems 3.2 and 3.3 end to end.
//!
//! The protocol stack: (round 1) random sparsifier `G_Δ` on the physical
//! network; (round 2) Solomon's bounded-degree sparsifier on `G_Δ`; then
//! the bounded-degree `(1+ε)` matching (coloring + MM + augmentation) on
//! the composed sparsifier `G̃_Δ`. Later phases run over sparsifier edges
//! only — each sparsifier edge is a physical edge, so their rounds and
//! messages are physical rounds and messages, and the totals below are the
//! Theorem 3.3 quantities.

use crate::algorithms::israeli_itai::israeli_itai_matching;
use crate::algorithms::matching::{bounded_degree_matching, maximal_matching_only};
use crate::algorithms::solomon::distributed_solomon;
use crate::algorithms::sparsify::distributed_sparsifier;
use crate::faults::{FaultPlan, FaultStats, ResilienceParams};
use crate::metrics::Metrics;
use crate::shard::ShardedNetwork;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::solomon::degree_cap_for;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_matching::Matching;

/// Outcome of the full distributed pipeline.
#[derive(Clone, Debug)]
pub struct DistributedOutcome {
    /// The matching (valid for the original graph).
    pub matching: Matching,
    /// Communication totals across all phases.
    pub metrics: Metrics,
    /// Per-phase round counts: (sparsify, solomon, matching).
    pub phase_rounds: (u64, u64, u64),
    /// Maximum degree of the composed sparsifier the matcher ran on.
    pub composed_max_degree: usize,
    /// Fault counters across all phases (all zero on a perfect network).
    pub faults: FaultStats,
}

/// The matcher the pipeline's third phase runs on the composed
/// sparsifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistAlgo {
    /// Theorem 3.2/3.3: coloring, color-scheduled maximal matching, then
    /// bounded-length augmentation — `(1+ε)`-approximate.
    Approx,
    /// The `(2+ε)`-style comparator (Barenboim–Oren shape): the same
    /// coloring and maximal matching, no augmentation phase.
    Maximal,
    /// Israeli–Itai randomized maximal matching (O(log n) rounds, no
    /// coloring): trades the deterministic `f(Δ) + log* n` round bound
    /// for simplicity; 2-approximate modulo sparsification loss.
    Randomized,
}

/// The distributed pipeline on a graph of neighborhood independence
/// `params.beta`: the one-round random sparsifier, Solomon's one-round
/// bounded-degree sparsifier, then `algo` on the composed sparsifier.
///
/// Each phase runs on its own [`ShardedNetwork`] with `threads` round
/// workers, instantiated from `plan` and `resilience`; each phase restarts
/// its round counter, so one plan describes each phase's disruption
/// window. A perfect network is [`FaultPlan::none`] with
/// [`ResilienceParams::off`]. The outcome is byte-identical at every
/// thread count. The returned matching is valid for `g` under *any* plan;
/// its size degrades gracefully with the fault rates (experiment
/// `exp_fault_sweep`).
///
/// # Panics
/// Panics if `threads == 0`.
pub fn distributed_matching(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    algo: DistAlgo,
    plan: &FaultPlan,
    resilience: ResilienceParams,
    threads: usize,
) -> DistributedOutcome {
    let mut totals = Metrics::new();
    let mut faults = FaultStats::default();
    let mut absorb = |net: &ShardedNetwork<'_>| {
        totals.absorb(net.metrics());
        faults.absorb(net.fault_stats());
        net.metrics().rounds
    };

    // Phase 1: one-round random sparsifier on the physical network.
    let mut net = ShardedNetwork::with_faults(g, threads, plan.clone(), resilience);
    let g_delta = distributed_sparsifier(&mut net, params, seed);
    let sparsify_rounds = absorb(&net);

    // Phase 2: one-round bounded-degree sparsifier on G_Δ.
    let mut net = ShardedNetwork::with_faults(&g_delta, threads, plan.clone(), resilience);
    let cap = degree_cap_for(params.arboricity_bound(), params.eps);
    let composed = distributed_solomon(&mut net, cap);
    let solomon_rounds = absorb(&net);

    // Phase 3: the matcher on the composed sparsifier.
    let mut net = ShardedNetwork::with_faults(&composed, threads, plan.clone(), resilience);
    let matching = match algo {
        DistAlgo::Approx => bounded_degree_matching(&mut net, params.eps).0,
        DistAlgo::Maximal => maximal_matching_only(&mut net),
        DistAlgo::Randomized => israeli_itai_matching(&mut net, seed).0,
    };
    let matching_rounds = absorb(&net);

    debug_assert!(matching.is_valid_for(g), "composed sparsifier ⊆ G");
    DistributedOutcome {
        matching,
        metrics: totals,
        phase_rounds: (sparsify_rounds, solomon_rounds, matching_rounds),
        composed_max_degree: composed.max_degree(),
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{
        clique_union, unit_disk, CliqueUnionConfig, UnitDiskConfig,
    };
    use sparsimatch_matching::blossom::maximum_matching;

    fn perfect(
        g: &CsrGraph,
        p: &SparsifierParams,
        seed: u64,
        algo: DistAlgo,
    ) -> DistributedOutcome {
        distributed_matching(
            g,
            p,
            seed,
            algo,
            &FaultPlan::none(),
            ResilienceParams::off(),
            1,
        )
    }

    #[test]
    fn pipeline_accuracy_on_clique_union() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = clique_union(
            CliqueUnionConfig {
                n: 200,
                diversity: 2,
                clique_size: 40,
            },
            &mut rng,
        );
        // Small explicit delta keeps the composed degree low so the test
        // runs fast; accuracy is audited against exact.
        let p = SparsifierParams::with_delta(2, 0.5, 8);
        let out = perfect(&g, &p, 77, DistAlgo::Approx);
        let exact = maximum_matching(&g).len();
        assert!(
            out.matching.len() as f64 * 1.6 >= exact as f64,
            "{} vs {exact}",
            out.matching.len()
        );
        assert!(out.matching.is_valid_for(&g));
        assert_eq!(out.phase_rounds.0, 1);
        assert_eq!(out.phase_rounds.1, 1);
    }

    #[test]
    fn sublinear_messages_on_dense_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = clique_union(
            CliqueUnionConfig {
                n: 300,
                diversity: 1,
                clique_size: 150,
            },
            &mut rng,
        );
        let p = SparsifierParams::with_delta(1, 0.5, 4);
        let out = perfect(&g, &p, 5, DistAlgo::Approx);
        // Dense input: m ≈ 150·149 ≈ 22k edges; phase-1 messages = n·Δ.
        // The later phases run on the tiny sparsifier, so totals stay well
        // below m (the Theorem 3.3 story). Round-heavy phases dominate, so
        // compare against a generous multiple.
        let m = g.num_edges() as u64;
        assert!(
            out.metrics.messages < 40 * m,
            "messages {} vs m {m}",
            out.metrics.messages
        );
    }

    #[test]
    fn randomized_variant_is_congest_compliant_and_maximalish() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = clique_union(
            CliqueUnionConfig {
                n: 150,
                diversity: 2,
                clique_size: 30,
            },
            &mut rng,
        );
        let p = SparsifierParams::with_delta(2, 0.5, 6);
        let out = perfect(&g, &p, 21, DistAlgo::Randomized);
        assert!(out.matching.is_valid_for(&g));
        // Every message in this variant is 1 bit: far inside CONGEST.
        assert!(out.metrics.congest_compliant(g.num_vertices(), 1));
        assert_eq!(out.metrics.max_message_bits, 1);
        let exact = maximum_matching(&g).len();
        assert!(
            out.matching.len() * 3 >= exact,
            "{} vs {exact}",
            out.matching.len()
        );
    }

    #[test]
    fn deterministic_pipeline_messages_fit_congest_outside_gathers() {
        // The sparsify + solomon + coloring phases use ≤ O(log n)-bit
        // messages; only the augmentation's LOCAL ball gathers exceed
        // CONGEST. The maximal-only pipeline must therefore be compliant.
        let mut rng = StdRng::seed_from_u64(6);
        let g = unit_disk(
            UnitDiskConfig::with_expected_degree(200, 1.0, 10.0),
            &mut rng,
        );
        let p = SparsifierParams::with_delta(5, 0.5, 5);
        let out = perfect(&g, &p, 4, DistAlgo::Maximal);
        assert!(
            out.metrics.congest_compliant(g.num_vertices(), 8),
            "max message bits = {}",
            out.metrics.max_message_bits
        );
        // The augmented pipeline gathers balls: LOCAL-sized messages.
        let full = perfect(&g, &p, 4, DistAlgo::Approx);
        assert!(full.metrics.max_message_bits >= out.metrics.max_message_bits);
    }

    #[test]
    fn baseline_is_weaker_but_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = unit_disk(
            UnitDiskConfig::with_expected_degree(300, 1.0, 15.0),
            &mut rng,
        );
        let p = SparsifierParams::with_delta(5, 0.5, 10);
        let base = perfect(&g, &p, 9, DistAlgo::Maximal);
        let full = perfect(&g, &p, 9, DistAlgo::Approx);
        let exact = maximum_matching(&g).len();
        assert!(base.matching.is_valid_for(&g));
        // Maximal matching: at least half of optimum (of the sparsifier,
        // roughly half of exact modulo sparsification loss).
        assert!(base.matching.len() * 2 + 5 >= exact / 2);
        assert!(full.matching.len() >= base.matching.len());
    }
}
