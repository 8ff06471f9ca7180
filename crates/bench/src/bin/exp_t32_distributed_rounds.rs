//! E8 — Theorem 3.2: distributed round complexity.
//!
//! Fixing β and ε, the full pipeline (1-round sparsifier + 1-round
//! Solomon + coloring + MM + bounded augmentation) should use a number of
//! rounds that is essentially independent of `n` — growing only with
//! `log* n` — while achieving `(1+ε)` accuracy; the maximal-matching-only
//! baseline (the Barenboim–Oren comparator shape) uses similar rounds but
//! only reaches factor-2 territory.

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_bench::table::{f3, Table};
use sparsimatch_bench::{scale_from_args, Scale, Violations};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_distsim::algorithms::coloring::log_star;
use sparsimatch_distsim::algorithms::pipeline::{distributed_matching, DistAlgo};
use sparsimatch_distsim::{FaultPlan, ResilienceParams, ShardedNetwork};
use sparsimatch_graph::generators::{unit_disk, UnitDiskConfig};
use sparsimatch_matching::blossom::maximum_matching;

fn main() {
    let scale = scale_from_args();
    let ns: &[usize] = match scale {
        Scale::Quick => &[200, 800],
        Scale::Full => &[200, 800, 3200, 12800],
    };
    let eps = 0.5;
    let beta = 5; // unit-disk certificate
    let mut rng = StdRng::seed_from_u64(0xE8);
    let mut violations = Violations::new();
    let mut table = Table::new(&[
        "n",
        "log*n",
        "algo",
        "rounds",
        "rounds (sparsify/solomon/match)",
        "deg(G̃Δ)",
        "|M|",
        "ratio vs exact",
    ]);

    println!("E8 / Theorem 3.2: distributed rounds at fixed (beta, eps)");
    println!("family: unit-disk, expected degree 16 (beta <= 5), eps = {eps}\n");
    let mut round_series = Vec::new();
    for &n in ns {
        let g = unit_disk(UnitDiskConfig::with_expected_degree(n, 1.0, 16.0), &mut rng);
        let exact = maximum_matching(&g).len().max(1);
        let params = SparsifierParams::with_delta(beta, eps, 8);

        let run = |algo| {
            let (plan, off) = (FaultPlan::none(), ResilienceParams::off());
            distributed_matching(&g, &params, 0xE8 + n as u64, algo, &plan, off, 1)
        };
        let full = run(DistAlgo::Approx);
        let ratio = exact as f64 / full.matching.len().max(1) as f64;
        violations.check(ratio <= 1.0 + 3.0 * eps, || {
            format!("n={n}: distributed ratio {ratio:.3} above 1+3eps")
        });
        round_series.push(full.metrics.rounds);
        table.row(vec![
            n.to_string(),
            log_star(n).to_string(),
            "sparsify+(1+eps)".into(),
            full.metrics.rounds.to_string(),
            format!(
                "{}/{}/{}",
                full.phase_rounds.0, full.phase_rounds.1, full.phase_rounds.2
            ),
            full.composed_max_degree.to_string(),
            full.matching.len().to_string(),
            f3(ratio),
        ]);

        let base = run(DistAlgo::Maximal);
        table.row(vec![
            n.to_string(),
            log_star(n).to_string(),
            "maximal-only (BO)".into(),
            base.metrics.rounds.to_string(),
            format!(
                "{}/{}/{}",
                base.phase_rounds.0, base.phase_rounds.1, base.phase_rounds.2
            ),
            base.composed_max_degree.to_string(),
            base.matching.len().to_string(),
            f3(exact as f64 / base.matching.len().max(1) as f64),
        ]);

        // Randomized Israeli–Itai maximal matching on the raw graph:
        // O(log n) rounds, no sparsifier, 2-approximate — the classical
        // comparison point for both round count and quality.
        let mut net = ShardedNetwork::new(&g, 1);
        let (ii, _) = sparsimatch_distsim::algorithms::israeli_itai::israeli_itai_matching(
            &mut net,
            0xE8 + n as u64,
        );
        table.row(vec![
            n.to_string(),
            log_star(n).to_string(),
            "Israeli-Itai (rand)".into(),
            net.metrics().rounds.to_string(),
            "-".into(),
            g.max_degree().to_string(),
            ii.len().to_string(),
            f3(exact as f64 / ii.len().max(1) as f64),
        ]);
    }
    table.print();

    // Shape check: rounds must not grow linearly with n.
    if round_series.len() >= 2 {
        let first = round_series[0] as f64;
        let last = *round_series.last().unwrap() as f64;
        let n_growth = ns[ns.len() - 1] as f64 / ns[0] as f64;
        violations.check(last <= first * 4.0 + 50.0, || {
            format!("rounds grew {first} -> {last} over n growth {n_growth:.0}x — not log*-flat")
        });
    }
    violations.finish_json("E8", env!("CARGO_BIN_NAME"), scale, &[&table]);
}
