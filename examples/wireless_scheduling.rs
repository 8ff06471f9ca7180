//! Wireless pairing: maximum device pairing in a unit-disk radio network,
//! computed *distributively* in a number of rounds independent of the
//! network size (Theorem 3.2).
//!
//! Scenario: `n` sensors are scattered over a field; two sensors can form
//! a direct radio pair iff they are within range (a unit-disk graph —
//! bounded growth, β ≤ 5). We want to pair up as many sensors as possible
//! for a data-exchange slot. Each sensor only talks to its radio
//! neighbors; no coordinator exists.
//!
//! ```text
//! cargo run --release --example wireless_scheduling
//! ```

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch::distsim::algorithms::coloring::log_star;
use sparsimatch::distsim::algorithms::pipeline::{distributed_matching, DistAlgo};
use sparsimatch::distsim::{FaultPlan, ResilienceParams};
use sparsimatch::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    for n in [500usize, 2_000, 8_000] {
        let field = unit_disk(UnitDiskConfig::with_expected_degree(n, 1.0, 16.0), &mut rng);
        let params = SparsifierParams::with_delta(5, 0.5, 8);
        let out = distributed_matching(
            &field,
            &params,
            0xBEEF + n as u64,
            DistAlgo::Approx,
            &FaultPlan::none(),
            ResilienceParams::off(),
            1,
        );
        assert!(out.matching.is_valid_for(&field));
        println!(
            "n = {:>5}: paired {:>4} sensor pairs in {:>4} rounds \
             (log* n = {}), {} messages, {} bits on air",
            n,
            out.matching.len(),
            out.metrics.rounds,
            log_star(n),
            out.metrics.messages,
            out.metrics.bits,
        );
    }
    println!("\nRounds stay flat while n grows 16x: the pipeline is local.");
}
