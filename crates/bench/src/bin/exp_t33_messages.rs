//! E9 — Theorem 3.3: sublinear message complexity.
//!
//! On dense bounded-β networks (`m = Θ(n²)`), the one-round sparsifier
//! sends `n·Δ` one-bit messages, and everything afterwards runs over
//! sparsifier edges, so the total message count is `T(n)·O(n·Δ) ≪ m·T(n)`
//! — and, for large enough density, below even `m` itself. The table
//! reports messages and bits against `m` and against the naive
//! "every edge speaks every round" cost.

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_bench::table::{f3, Table};
use sparsimatch_bench::{scale_from_args, Scale, Violations};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_distsim::algorithms::pipeline::{distributed_matching, DistAlgo};
use sparsimatch_distsim::{FaultPlan, ResilienceParams};
use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};

fn main() {
    let scale = scale_from_args();
    let ns: &[usize] = match scale {
        Scale::Quick => &[300, 600],
        Scale::Full => &[300, 600, 1200, 2400],
    };
    let eps = 0.5;
    let beta = 1;
    let mut rng = StdRng::seed_from_u64(0xE9);
    let mut violations = Violations::new();
    let mut table = Table::new(&[
        "n",
        "m",
        "rounds",
        "messages",
        "messages/m",
        "bits",
        "naive msgs (2m·rounds)",
        "savings",
    ]);

    println!("E9 / Theorem 3.3: message complexity on dense networks");
    println!("family: single clique layer (beta = 1, m = Θ(n²)), eps = {eps}\n");
    for &n in ns {
        let g = clique_union(
            CliqueUnionConfig {
                n,
                diversity: beta,
                clique_size: n / 2,
            },
            &mut rng,
        );
        let m = g.num_edges() as u64;
        let params = SparsifierParams::with_delta(beta, eps, 6);
        let out = distributed_matching(
            &g,
            &params,
            0xE9 + n as u64,
            DistAlgo::Approx,
            &FaultPlan::none(),
            ResilienceParams::off(),
            1,
        );
        let naive = 2 * m * out.metrics.rounds;
        violations.check(out.metrics.messages < naive, || {
            format!(
                "n={n}: messages {} not below naive {naive}",
                out.metrics.messages
            )
        });
        table.row(vec![
            n.to_string(),
            m.to_string(),
            out.metrics.rounds.to_string(),
            out.metrics.messages.to_string(),
            f3(out.metrics.messages as f64 / m as f64),
            out.metrics.bits.to_string(),
            naive.to_string(),
            f3(naive as f64 / out.metrics.messages.max(1) as f64),
        ]);
    }
    table.print();
    violations.finish_json("E9", env!("CARGO_BIN_NAME"), scale, &[&table]);
}
