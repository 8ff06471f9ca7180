//! The one-round distributed bounded-degree sparsifier (Solomon ITCS'18),
//! used as round 2 of the Section 3.2 composition.
//!
//! Each node marks its first `degree_cap` ports (any deterministic local
//! rule works on bounded-arboricity inputs) and sends a 1-bit message
//! along each; an edge survives iff **both** endpoints marked it, which a
//! node detects locally by intersecting its sent and received marks.

use crate::network::{Net, Outgoing};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;

/// Run the one-round mutual-marking protocol. The result has maximum
/// degree at most `degree_cap` — on any transport: faults can only lose
/// marks, and losing marks only removes edges, never adds them.
pub fn distributed_solomon<'g>(net: &mut impl Net<'g>, degree_cap: usize) -> CsrGraph {
    let g = net.graph();
    let n = g.num_vertices();
    let outboxes: Vec<Vec<Outgoing<()>>> = (0..n)
        .map(|v| {
            let deg = g.degree(VertexId::new(v));
            (0..deg.min(degree_cap)).map(|p| (p, (), 1u64)).collect()
        })
        .collect();
    let inboxes = net.exchange(outboxes);

    let graph = net.graph();
    let mut keep = Vec::new();
    for (v, inbox) in inboxes.iter().enumerate() {
        let vid = VertexId::new(v);
        let my_marks = graph.degree(vid).min(degree_cap);
        for &(p, ()) in inbox {
            if p < my_marks {
                // Marked by both sides; dedupe by taking it from the
                // smaller endpoint only.
                let u = graph.neighbor(vid, p);
                if vid.0 < u.0 {
                    keep.push(graph.incident_edge(vid, p));
                }
            }
        }
    }
    graph.edge_subgraph(keep.into_iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedNetwork;
    use sparsimatch_core::solomon::solomon_sparsifier;
    use sparsimatch_graph::generators::{gnp, path};

    #[test]
    fn agrees_with_sequential_construction() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        for cap in [2usize, 4, 8] {
            let g = gnp(60, 0.2, &mut rng);
            let mut net = ShardedNetwork::new(&g, 1);
            let dist = distributed_solomon(&mut net, cap);
            let seq = solomon_sparsifier(&g, cap);
            let de: Vec<_> = dist.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            let se: Vec<_> = seq.edges().map(|(_, u, v)| (u.0, v.0)).collect();
            assert_eq!(de, se, "cap {cap}");
        }
    }

    #[test]
    fn one_round_one_bit() {
        let g = path(50);
        let mut net = ShardedNetwork::new(&g, 1);
        let s = distributed_solomon(&mut net, 3);
        let m = net.metrics();
        assert_eq!(m.rounds, 1);
        assert_eq!(m.messages, m.bits, "1-bit messages");
        assert_eq!(s.num_edges(), 49, "path survives any cap >= 2");
    }

    #[test]
    fn degree_capped() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let g = gnp(80, 0.3, &mut rng);
        let mut net = ShardedNetwork::new(&g, 1);
        let s = distributed_solomon(&mut net, 5);
        assert!(s.max_degree() <= 5);
    }
}
