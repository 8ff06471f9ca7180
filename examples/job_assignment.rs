//! Session pairing on a line graph: the paper's flagship β ≤ 2 family.
//!
//! Scenario: a conference has talks, each given by two co-speakers
//! (vertices = speakers, edges = talks). The organizers want to pair
//! talks *that share a speaker* into back-to-back blocks, so the shared
//! speaker only sets up once — a maximum matching in the **line graph**
//! of the speaker graph. Line graphs have neighborhood independence ≤ 2,
//! so the sparsifier pipeline computes a near-maximum pairing while
//! probing only a fraction of the (dense) compatibility graph — a
//! fraction that shrinks as the schedule gets denser.
//!
//! ```text
//! cargo run --release --example job_assignment
//! ```

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);

    // 300 speakers, each pair co-authoring with probability 0.5:
    // ~22 000 talks; the talk-compatibility line graph has millions of
    // edges (each talk conflicts with every other talk of each speaker).
    let speakers = gnp(300, 0.5, &mut rng);
    let talks = line_graph(&speakers);
    println!(
        "speakers: {}, talks: {}, talk-compatibility edges: {}",
        speakers.num_vertices(),
        speakers.num_edges(),
        talks.num_edges()
    );

    let params = SparsifierParams::practical(2, 0.4);
    let result = Backend::Delta(params)
        .solve(&talks, 7, 2, None, &mut PipelineScratch::new())
        .unwrap()
        .clone();
    println!(
        "paired {} talk blocks, probing {} adjacency entries ({}% of the compatibility graph)",
        result.matching.len(),
        result.probes.total(),
        100 * result.probes.total() as usize / talks.num_edges().max(1)
    );

    // Show a few concrete blocks: each matched pair of talks shares a
    // speaker by construction.
    let mut shown = 0;
    for (a, b) in result.matching.pairs() {
        let (a1, a2) = speakers.edge_endpoints(sparsimatch::graph::ids::EdgeId(a.0));
        let (b1, b2) = speakers.edge_endpoints(sparsimatch::graph::ids::EdgeId(b.0));
        let shared = [a1, a2]
            .iter()
            .find(|s| **s == b1 || **s == b2)
            .copied()
            .expect("matched talks share a speaker");
        if shown < 5 {
            println!("  block: talk({a1},{a2}) + talk({b1},{b2})  — shared speaker {shared}");
            shown += 1;
        }
    }

    let exact = maximum_matching(&talks).len();
    println!(
        "exact best pairing: {} -> ratio {:.4} (target <= 1.4)",
        exact,
        exact as f64 / result.matching.len().max(1) as f64
    );
    assert!(exact as f64 <= 1.4 * result.matching.len() as f64);
    assert!(
        result.probes.total() < talks.num_edges() as u64,
        "probes must stay below the compatibility-graph size"
    );
}
