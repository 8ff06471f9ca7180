//! End-to-end work-accounting test: the sequential sparsifier construction
//! stays within the Theorem 3.1 `O(n·Δ)` probe budget on the clique family
//! (the worst case for adjacency probing: every vertex has degree `n-1`,
//! far above the `2Δ` low-degree threshold, so every vertex samples).
//!
//! The counters come from the [`sparsimatch_obs::WorkMeter`] wired through
//! `build_sparsifier_parallel_metered` — the seeded metered build the
//! CLI's `sparsify` exports via `--metrics-json`.

use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sparsifier::build_sparsifier_parallel_metered;
use sparsimatch_graph::generators::clique;
use sparsimatch_obs::{keys, WorkMeter};

#[test]
fn sequential_build_meets_linear_probe_budget_on_cliques() {
    for &n in &[50usize, 100, 200, 400] {
        let g = clique(n);
        let params = SparsifierParams::with_delta(1, 0.5, 4);
        let delta = params.delta as u64;
        let mut meter = WorkMeter::new();
        let s = build_sparsifier_parallel_metered(&g, &params, 7, 1, &mut meter).unwrap();
        assert!(s.stats.edges > 0);

        let nu = n as u64;
        let degree = meter.get(keys::DEGREE_PROBES);
        let neighbor = meter.get(keys::NEIGHBOR_PROBES);
        let draws = meter.get(keys::RNG_DRAWS);
        let writes = meter.get(keys::OVERLAY_WRITES);

        // Theorem 3.1: the construction makes O(n·Δ) probes total. The
        // implementation's exact constants: 2 degree probes per vertex,
        // one adjacency read per placed mark (≤ mark_cap = 2Δ per vertex),
        // and at most Δ RNG draws / overlay writes per sampling vertex.
        assert!(
            degree + neighbor <= 4 * nu * delta,
            "n={n}: {degree}+{neighbor} probes exceed 4·n·Δ = {}",
            4 * nu * delta
        );
        assert!(
            draws <= nu * delta,
            "n={n}: {draws} RNG draws exceed n·Δ = {}",
            nu * delta
        );
        assert!(
            writes <= nu * delta,
            "n={n}: {writes} overlay writes exceed n·Δ"
        );
        // Aggregate work-unit budget: everything the meter saw is linear
        // in n·Δ, independent of m = Θ(n²) clique edges.
        let total: u64 = meter.counters().map(|(_, v)| v).sum();
        assert!(
            total <= 8 * nu * delta,
            "n={n}: total metered work {total} exceeds 8·n·Δ"
        );
    }
}

#[test]
fn probe_budget_is_independent_of_edge_count() {
    // Doubling n quadruples the clique's edge count but at most doubles
    // (plus the sparsifier-edge counter's slack) the metered work.
    let params = SparsifierParams::with_delta(1, 0.5, 4);
    let mut work = Vec::new();
    for &n in &[100usize, 200] {
        let mut meter = WorkMeter::new();
        build_sparsifier_parallel_metered(&clique(n), &params, 7, 1, &mut meter).unwrap();
        work.push(meter.counters().map(|(_, v)| v).sum::<u64>());
    }
    assert!(
        work[1] <= 3 * work[0],
        "work scaled superlinearly: {} -> {}",
        work[0],
        work[1]
    );
}
