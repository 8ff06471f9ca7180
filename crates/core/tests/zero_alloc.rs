//! Steady-state zero-allocation proof for the scratch pipeline.
//!
//! Installs the `alloc-count` counting global allocator and asserts that
//! once a [`PipelineScratch`] has been warmed by one call on a given
//! input, every subsequent call on that input performs **zero** heap
//! allocations on the sequential path — for each certified benchmark
//! family at its default parameters. Compile and run with
//! `cargo test -p sparsimatch-core --features alloc-count`.
#![cfg(feature = "alloc-count")]

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_core::backend::Backend;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::scratch::PipelineScratch;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::generators::{bipartite_gnp, clique, clique_union, CliqueUnionConfig};
use sparsimatch_obs::alloc::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The certified benchmark families (quick-scale sizes) at their default
/// parameters — the same shapes `bench_baseline` measures.
fn families() -> Vec<(&'static str, CsrGraph, SparsifierParams)> {
    let mut rng = StdRng::seed_from_u64(0xBE);
    vec![
        ("clique", clique(300), SparsifierParams::practical(1, 0.3)),
        (
            "clique-union",
            clique_union(
                CliqueUnionConfig {
                    n: 5_000,
                    diversity: 2,
                    clique_size: 50,
                },
                &mut rng,
            ),
            SparsifierParams::practical(2, 0.3),
        ),
        (
            "bipartite",
            bipartite_gnp(2_000, 2_000, 10.0 / 2_000.0, &mut rng),
            SparsifierParams::practical(4, 0.3),
        ),
    ]
}

#[test]
fn warm_scratch_repeat_solves_allocate_nothing() {
    for (name, g, params) in families() {
        let backend = Backend::Delta(params);
        let mut scratch = PipelineScratch::new();
        for seed in [7u64, 8] {
            let cold = backend
                .solve(&g, seed, 1, None, &mut PipelineScratch::new())
                .unwrap()
                .clone();
            // Warm-up: the first call on this (input, seed) may grow
            // buffers; everything after it must not.
            backend.solve(&g, seed, 1, None, &mut scratch).unwrap();
            for rep in 0..3 {
                let before = alloc::thread_totals();
                let warm = backend.solve(&g, seed, 1, None, &mut scratch).unwrap();
                let after = alloc::thread_totals();
                let identical = warm.matching == cold.matching;
                assert_eq!(
                    after.count,
                    before.count,
                    "{name} seed {seed} rep {rep}: warm scratch call allocated \
                     ({} bytes in {} calls)",
                    after.bytes - before.bytes,
                    after.count - before.count,
                );
                assert_eq!(after.bytes, before.bytes, "{name} seed {seed} rep {rep}");
                assert!(
                    identical,
                    "{name} seed {seed} rep {rep}: warm output diverged from cold"
                );
            }
        }
        assert!(
            scratch.high_water_bytes() > 0,
            "{name}: no footprint recorded"
        );
    }
}

/// Warm `t = 2` repeats of `backend` on `g` allocate nothing and match
/// the `t = 1` output; returns the arena they ran through.
fn assert_warm_two_thread_solves_allocate_nothing(
    g: &CsrGraph,
    backend: Backend,
) -> PipelineScratch {
    let mut scratch = PipelineScratch::new();
    let cold = backend
        .solve(g, 7, 1, None, &mut PipelineScratch::new())
        .unwrap()
        .clone();
    backend.solve(g, 7, 2, None, &mut scratch).unwrap();
    for rep in 0..3 {
        let before = alloc::thread_totals();
        let warm = backend.solve(g, 7, 2, None, &mut scratch).unwrap();
        let after = alloc::thread_totals();
        let identical = warm.matching == cold.matching;
        assert_eq!(
            (after.count, after.bytes),
            (before.count, before.bytes),
            "rep {rep}: warm t = 2 call allocated ({} bytes in {} calls)",
            after.bytes - before.bytes,
            after.count - before.count,
        );
        assert!(identical, "rep {rep}: t = 2 output diverged from t = 1");
    }
    scratch
}

/// A t = 2 solve whose input, marked edges and sparsifier all sit below
/// the parallel cutoffs runs every stage on one worker, so its warm
/// repeats must be as allocation-free as t = 1 — the extract stage
/// included.
#[test]
fn warm_two_thread_solve_below_every_cutoff_allocates_nothing() {
    let backend = Backend::Delta(SparsifierParams::practical(1, 0.3));
    let scratch = assert_warm_two_thread_solves_allocate_nothing(&clique(300), backend);
    assert_eq!(scratch.branch_counts().passthrough, 0);
}

/// A t = 2 solve on a `G_Δ = G` input big enough for a parallel mark
/// (`m ≥ 2^17`) neither marks nor extracts: it matches on the input, so
/// its warm repeats allocate nothing.
#[test]
fn warm_two_thread_passthrough_solve_allocates_nothing() {
    let g = clique_union(
        CliqueUnionConfig {
            n: 5_000,
            diversity: 2,
            clique_size: 50,
        },
        &mut StdRng::seed_from_u64(0xBE),
    );
    assert!(g.num_edges() >= 1 << 17, "{} edges", g.num_edges());
    let backend = Backend::Delta(SparsifierParams::practical(2, 0.3));
    let scratch = assert_warm_two_thread_solves_allocate_nothing(&g, backend);
    assert_eq!(scratch.branch_counts().marking, 0);
}

#[test]
fn allocator_counters_are_live() {
    // Guard against a silently uninstalled allocator: an explicit boxed
    // allocation must move both counters.
    let before = alloc::thread_totals();
    let v: Vec<u64> = Vec::with_capacity(1024);
    let after = alloc::thread_totals();
    drop(v);
    assert!(after.count > before.count, "allocation calls not counted");
    assert!(
        after.bytes >= before.bytes + 8 * 1024,
        "allocation bytes not counted"
    );
}
