//! Large-scale stress tests. Heavy by design, so they are `#[ignore]`d by
//! default; run with
//!
//! ```text
//! cargo test --release --test integration_scale -- --ignored
//! ```

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch::prelude::*;

#[test]
#[ignore = "scale stress: ~1M-edge sequential pipeline"]
fn sequential_pipeline_at_million_edges() {
    let mut rng = StdRng::seed_from_u64(0x51);
    let n = 3_000;
    let g = clique_union(
        CliqueUnionConfig {
            n,
            diversity: 2,
            clique_size: n / 3,
        },
        &mut rng,
    );
    assert!(g.num_edges() > 900_000, "m = {}", g.num_edges());
    let params = SparsifierParams::practical(2, 0.3);
    let r = Backend::Delta(params)
        .solve(&g, 0x51, 4, None, &mut PipelineScratch::new())
        .unwrap()
        .clone();
    assert!(r.matching.is_valid_for(&g));
    // The perfect matching is n/2 here; the pipeline must land within eps.
    assert!(r.matching.len() as f64 * 1.3 >= (n / 2) as f64);
    assert!(r.probes.total() < g.num_edges() as u64 / 2);
}

#[test]
#[ignore = "scale stress: 20k-node distributed network"]
fn distributed_pipeline_at_twenty_thousand_nodes() {
    use sparsimatch::distsim::algorithms::pipeline::{distributed_matching, DistAlgo};
    use sparsimatch::distsim::{FaultPlan, ResilienceParams};
    let mut rng = StdRng::seed_from_u64(0x52);
    let n = 20_000;
    let g = unit_disk(UnitDiskConfig::with_expected_degree(n, 1.0, 12.0), &mut rng);
    let params = SparsifierParams::with_delta(5, 0.5, 6);
    let (plan, off) = (FaultPlan::none(), ResilienceParams::off());
    let out = distributed_matching(&g, &params, 0x52, DistAlgo::Approx, &plan, off, 1);
    assert!(out.matching.is_valid_for(&g));
    // Rounds must stay in the hundreds even at this n (log* flat).
    assert!(
        out.metrics.rounds < 1_000,
        "rounds = {}",
        out.metrics.rounds
    );
}

#[test]
#[ignore = "scale stress: 100k-update dynamic stream"]
fn dynamic_stream_at_hundred_thousand_updates() {
    use sparsimatch::dynamic::adversary::{Policy, StreamAdversary};
    use sparsimatch::dynamic::harness::run_dynamic;
    use sparsimatch::dynamic::scheme::DynamicMatcher;
    let mut rng = StdRng::seed_from_u64(0x53);
    let n = 1_000;
    let host = clique_union(
        CliqueUnionConfig {
            n,
            diversity: 2,
            clique_size: n / 4,
        },
        &mut rng,
    );
    let mut adv = StreamAdversary::new(&host, Policy::AdaptiveDeleteMatched { p_insert: 0.7 });
    let mut dm = DynamicMatcher::new(n, SparsifierParams::practical(2, 0.5), 3);
    let s = run_dynamic(&mut dm, &mut adv, 100_000, 20_000, &mut rng);
    assert!(s.worst_ratio < 1.8, "ratio {}", s.worst_ratio);
}
