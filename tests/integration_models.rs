//! Cross-crate integration: the streaming and MPC applications agree with
//! the sequential pipeline on the same inputs.

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use sparsimatch::distsim::mpc::{mpc_approx_mcm, MpcConfig, MpcError};
use sparsimatch::prelude::*;
use sparsimatch::stream::StreamingSparsifierMatcher;

fn dense_host(n: usize, rng: &mut StdRng) -> CsrGraph {
    clique_union(
        CliqueUnionConfig {
            n,
            diversity: 2,
            clique_size: n / 3,
        },
        rng,
    )
}

#[test]
fn all_three_models_meet_the_guarantee_on_one_input() {
    let mut rng = StdRng::seed_from_u64(0x30);
    let n = 300;
    let g = dense_host(n, &mut rng);
    let eps = 0.3;
    let params = SparsifierParams::practical(2, eps);
    let exact = maximum_matching(&g).len();
    let bound = 1.0 + eps;

    // Sequential.
    let seq = Backend::Delta(params)
        .solve(&g, 11, 2, None, &mut PipelineScratch::new())
        .unwrap()
        .clone();
    assert!(exact as f64 <= bound * seq.matching.len() as f64);

    // Streaming (random arrival order).
    let mut stream: Vec<_> = g.edges().map(|(_, u, v)| (u, v)).collect();
    stream.shuffle(&mut rng);
    let mut sm = StreamingSparsifierMatcher::new(n, params);
    for (u, v) in stream {
        sm.push_edge(u, v, &mut rng);
    }
    let (stream_m, stream_stats) = sm.finish();
    assert!(stream_m.is_valid_for(&g));
    assert!(exact as f64 <= bound * stream_m.len() as f64);
    assert!(stream_stats.edges_retained < g.num_edges());

    // MPC.
    let cfg = MpcConfig {
        machines: 8,
        memory_words: 4 * g.num_edges(),
    };
    let mpc = mpc_approx_mcm(&g, &params, &cfg, 9).unwrap();
    assert!(mpc.matching.is_valid_for(&g));
    assert!(exact as f64 <= bound * mpc.matching.len() as f64);
    assert_eq!(mpc.rounds, 2);
}

#[test]
fn mpc_memory_errors_are_reported_not_silent() {
    let mut rng = StdRng::seed_from_u64(0x31);
    let g = dense_host(200, &mut rng);
    let params = SparsifierParams::practical(2, 0.5);
    let cfg = MpcConfig {
        machines: 4,
        memory_words: 100,
    };
    match mpc_approx_mcm(&g, &params, &cfg, 1) {
        Err(MpcError::MemoryExceeded {
            round: 1,
            load,
            cap,
        }) => {
            assert!(load > cap);
        }
        other => panic!("expected a round-1 memory error, got {other:?}"),
    }
}

#[test]
fn streaming_memory_scales_with_delta_not_with_stream_length() {
    let mut rng = StdRng::seed_from_u64(0x32);
    let n = 240;
    let sparse_host = dense_host(n, &mut rng);
    let denser_host = clique(n);
    let params = SparsifierParams::practical(2, 0.4);
    let mut retained = Vec::new();
    for g in [&sparse_host, &denser_host] {
        let mut sm = StreamingSparsifierMatcher::new(n, params);
        let mut stream: Vec<_> = g.edges().map(|(_, u, v)| (u, v)).collect();
        stream.shuffle(&mut rng);
        for (u, v) in stream {
            sm.push_edge(u, v, &mut rng);
        }
        retained.push(sm.finish().1.edges_retained);
    }
    // The clique stream is ~2.5x longer but retention stays within the
    // n·mark_cap budget either way.
    assert!(retained[1] <= n * params.mark_cap());
    assert!(retained[0] <= n * params.mark_cap());
}
