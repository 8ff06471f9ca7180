//! Round-trip parity property: any graph, written to an edge-list file
//! and rebuilt through the out-of-core [`FileEdgeSource`] path, produces
//! the *same sparsifier CSR and the same matching* as the in-memory
//! pipeline at every accepted thread count — the streaming build is not
//! a second implementation allowed to drift, it is pinned to the
//! in-memory one bit for bit.

use proptest::prelude::*;
use sparsimatch_core::backend::Backend;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::scratch::PipelineScratch;
use sparsimatch_core::sparsifier::build_sparsifier_parallel;
use sparsimatch_core::stream_build::{build_sparsifier_streamed, RetryPolicy};
use sparsimatch_graph::csr::from_edges;
use sparsimatch_graph::edge_stream::FileEdgeSource;
use sparsimatch_graph::io::write_edge_list_file;

const N: usize = 28;

fn arb_edges() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0..N, 0..N), 0..140)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn file_round_trip_matches_in_memory_at_all_thread_counts(
        edges in arb_edges(),
        delta in 1usize..5,
        seed in any::<u64>(),
    ) {
        let g = from_edges(N, edges);
        let dir = std::env::temp_dir().join("sparsimatch-prop-stream-build");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("case-{}.el", std::process::id()));
        write_edge_list_file(&g, &path).unwrap();
        let p = SparsifierParams::with_delta(2, 0.5, delta);

        let mut src = FileEdgeSource::open(&path).unwrap();
        let none = RetryPolicy::none();
        let (streamed, report) = build_sparsifier_streamed(&mut src, &p, seed, &none, None).unwrap();
        let backend = Backend::Delta(p);
        let (streamed_pipe, _) = backend.solve_streamed(&mut src, seed, &none, None).unwrap();
        std::fs::remove_file(&path).ok();

        for threads in [1usize, 2, 4] {
            let mem = build_sparsifier_parallel(&g, &p, seed, threads).unwrap();
            prop_assert_eq!(
                &streamed.graph, &mem.graph,
                "sparsifier CSR diverged at {} threads", threads
            );
            prop_assert_eq!(streamed.stats.marks_placed, mem.stats.marks_placed);
            prop_assert_eq!(streamed.stats.edges, mem.stats.edges);

            let mut scratch = PipelineScratch::new();
            let mem_pipe = backend.solve(&g, seed, threads, None, &mut scratch).unwrap();
            prop_assert_eq!(
                &streamed_pipe.matching, &mem_pipe.matching,
                "matching diverged at {} threads", threads
            );
            prop_assert_eq!(streamed_pipe.probes, mem_pipe.probes);
        }
        // The report's invariants hold on arbitrary inputs, not just the
        // curated bench families.
        prop_assert_eq!(report.sparsifier_bytes, streamed.graph.memory_bytes());
        prop_assert!(report.peak_resident_bytes >= report.sparsifier_bytes);
        prop_assert_eq!(report.edges_scanned, 4 * g.num_edges() as u64);
    }
}
