//! Cross-crate integration: the sequential Theorem 3.1 pipeline against
//! the exact blossom ground truth on every benchmark family.

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch::core::lower_bounds::build_plain_sparsifier;
use sparsimatch::graph::analysis::independence::neighborhood_independence_at_most;
use sparsimatch::prelude::*;

fn families(n: usize, rng: &mut StdRng) -> Vec<(&'static str, CsrGraph, usize)> {
    vec![
        ("clique", clique(n), 1),
        (
            "clique-union",
            clique_union(
                CliqueUnionConfig {
                    n,
                    diversity: 2,
                    clique_size: n / 4,
                },
                rng,
            ),
            2,
        ),
        (
            "unit-disk",
            unit_disk(UnitDiskConfig::with_expected_degree(n, 1.0, 14.0), rng),
            5,
        ),
        (
            "line-graph",
            line_graph(&gnp(n / 4, 16.0 / (n / 4) as f64, rng)),
            2,
        ),
    ]
}

#[test]
fn pipeline_meets_guarantee_on_all_families() {
    let mut rng = StdRng::seed_from_u64(0xA);
    for (name, g, beta) in families(240, &mut rng) {
        if g.num_edges() == 0 {
            continue;
        }
        let eps = 0.3;
        let params = SparsifierParams::practical(beta, eps);
        let exact = maximum_matching(&g).len();
        let r = Backend::Delta(params)
            .solve(&g, 0xA, 2, None, &mut PipelineScratch::new())
            .unwrap()
            .clone();
        assert!(r.matching.is_valid_for(&g), "{name}: invalid matching");
        assert!(
            exact as f64 <= (1.0 + eps) * r.matching.len().max(1) as f64,
            "{name}: ratio {} vs {}",
            exact,
            r.matching.len()
        );
    }
}

#[test]
fn family_beta_certificates_hold() {
    let mut rng = StdRng::seed_from_u64(0xB);
    for (name, g, beta) in families(120, &mut rng) {
        assert!(
            neighborhood_independence_at_most(&g, beta),
            "{name}: beta certificate failed"
        );
    }
}

#[test]
fn sparsifier_matching_is_matching_of_original() {
    // The central soundness property: any matching of G_Δ is verbatim a
    // matching of G.
    let mut rng = StdRng::seed_from_u64(0xC);
    let g = clique_union(
        CliqueUnionConfig {
            n: 150,
            diversity: 3,
            clique_size: 30,
        },
        &mut rng,
    );
    for delta in [1usize, 2, 8, 32] {
        let s = build_plain_sparsifier(&g, delta, &mut rng);
        let m = maximum_matching(&s);
        assert!(m.is_valid_for(&g), "delta {delta}");
    }
}

#[test]
fn probes_beat_edge_count_on_dense_input() {
    let g = clique(900); // m ≈ 404k
    let params = SparsifierParams::practical(1, 0.4);
    let r = Backend::Delta(params)
        .solve(&g, 0xD, 4, None, &mut PipelineScratch::new())
        .unwrap()
        .clone();
    assert!(
        r.probes.total() < g.num_edges() as u64 / 2,
        "probes {} vs m {}",
        r.probes.total(),
        g.num_edges()
    );
}

#[test]
fn facade_prelude_is_sufficient_for_the_readme_flow() {
    // The README quickstart must compile and hold using only the prelude.
    let mut rng = StdRng::seed_from_u64(1);
    let g = clique_union(
        CliqueUnionConfig {
            n: 400,
            diversity: 2,
            clique_size: 100,
        },
        &mut rng,
    );
    let params = SparsifierParams::practical(2, 0.2);
    let result = Backend::Delta(params)
        .solve(&g, 1, 4, None, &mut PipelineScratch::new())
        .unwrap()
        .clone();
    let exact = maximum_matching(&g).len();
    assert!(result.matching.len() as f64 >= exact as f64 / 1.2);
}
