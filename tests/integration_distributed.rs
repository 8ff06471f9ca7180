//! Cross-crate integration: the distributed Theorem 3.2/3.3 pipeline.

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch::distsim::algorithms::pipeline::{
    distributed_matching, DistAlgo, DistributedOutcome,
};
use sparsimatch::distsim::{FaultPlan, ResilienceParams, ShardedNetwork};
use sparsimatch::prelude::*;

/// The pipeline on a perfect network, one round worker.
fn perfect(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    algo: DistAlgo,
) -> DistributedOutcome {
    let (plan, off) = (FaultPlan::none(), ResilienceParams::off());
    distributed_matching(g, params, seed, algo, &plan, off, 1)
}

#[test]
fn distributed_matching_is_valid_and_accurate() {
    let mut rng = StdRng::seed_from_u64(0x21);
    let g = clique_union(
        CliqueUnionConfig {
            n: 240,
            diversity: 2,
            clique_size: 48,
        },
        &mut rng,
    );
    let params = SparsifierParams::with_delta(2, 0.5, 8);
    let out = perfect(&g, &params, 77, DistAlgo::Approx);
    assert!(out.matching.is_valid_for(&g));
    let exact = maximum_matching(&g).len();
    assert!(
        exact as f64 <= 2.5 * out.matching.len().max(1) as f64,
        "gross accuracy check: {} vs {}",
        exact,
        out.matching.len()
    );
    // The two sparsifier phases are single rounds each.
    assert_eq!(out.phase_rounds.0, 1);
    assert_eq!(out.phase_rounds.1, 1);
}

#[test]
fn augmented_pipeline_beats_maximal_baseline() {
    let mut rng = StdRng::seed_from_u64(0x22);
    // A graph where maximal matchings can be ~half of maximum: long paths.
    let g = unit_disk(
        UnitDiskConfig::with_expected_degree(500, 1.0, 6.0),
        &mut rng,
    );
    let params = SparsifierParams::with_delta(5, 0.34, 10);
    let full = perfect(&g, &params, 3, DistAlgo::Approx);
    let base = perfect(&g, &params, 3, DistAlgo::Maximal);
    assert!(full.matching.len() >= base.matching.len());
}

#[test]
fn rounds_stay_flat_as_n_grows() {
    let mut rounds = Vec::new();
    for n in [200usize, 800, 3200] {
        let mut rng = StdRng::seed_from_u64(0x23 + n as u64);
        let g = unit_disk(UnitDiskConfig::with_expected_degree(n, 1.0, 12.0), &mut rng);
        let params = SparsifierParams::with_delta(5, 0.5, 6);
        let out = perfect(&g, &params, n as u64, DistAlgo::Approx);
        rounds.push(out.metrics.rounds);
    }
    assert!(
        rounds[2] <= 3 * rounds[0] + 100,
        "rounds {rounds:?} grow too fast with n"
    );
}

#[test]
fn message_bits_account_one_bit_sparsifier_marks() {
    let g = clique(120);
    let mut net = ShardedNetwork::new(&g, 1);
    let params = SparsifierParams::with_delta(1, 0.5, 4);
    let _ =
        sparsimatch::distsim::algorithms::sparsify::distributed_sparsifier(&mut net, &params, 5);
    let m = net.metrics();
    assert_eq!(m.messages, m.bits, "sparsifier messages are exactly 1 bit");
    assert_eq!(m.messages, 120 * 4);
}
