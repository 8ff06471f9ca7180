//! Quickstart: sparsify a dense bounded-β graph and match on the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // A dense graph of bounded neighborhood independence: two random
    // clique layers over 2 000 vertices (β ≤ 2, ~500k edges).
    let g = clique_union(
        CliqueUnionConfig {
            n: 2_000,
            diversity: 2,
            clique_size: 500,
        },
        &mut rng,
    );
    println!(
        "input: n = {}, m = {}, beta <= 2",
        g.num_vertices(),
        g.num_edges()
    );

    // Parameters: target a (1+0.2)-approximate matching. `practical` sizes
    // Δ at 1/20 of the paper's proof constant, which experiment E11 shows
    // is already reliable on all benchmark families.
    let params = SparsifierParams::practical(2, 0.2);
    println!(
        "sparsifier: delta = {}, low-degree threshold = {}",
        params.delta,
        params.mark_cap()
    );

    // The whole Theorem 3.1 pipeline: build G_Δ in O(n·Δ) adjacency-array
    // probes, then run the (1+ε) matching algorithm on it. All three
    // stages run on the requested worker count; the output depends only
    // on the seed.
    let result = Backend::Delta(params)
        .solve(&g, 42, 4, None, &mut PipelineScratch::new())
        .unwrap()
        .clone();
    println!(
        "sparsifier edges: {} ({}% of m), probes: {} ({}% of m)",
        result.sparsifier.edges,
        100 * result.sparsifier.edges / g.num_edges(),
        result.probes.total(),
        100 * result.probes.total() as usize / g.num_edges(),
    );
    println!("matching found: {} pairs", result.matching.len());

    // Audit against the exact optimum (expensive; done here only to show
    // the guarantee is real).
    let exact = maximum_matching(&g).len();
    println!(
        "exact MCM: {} -> realized ratio {:.4} (target <= 1.2)",
        exact,
        exact as f64 / result.matching.len() as f64
    );
    assert!(result.matching.is_valid_for(&g));
    assert!(exact as f64 <= 1.2 * result.matching.len() as f64);
    println!("guarantee verified.");
}
