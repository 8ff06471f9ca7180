//! The one-round distributed sparsifier (Section 3.2, first paragraph).
//!
//! Each node locally marks Δ random ports (all of them if its degree is at
//! most the low-degree threshold) and sends a **1-bit** message along each
//! marked port — the unicast mode that gives Theorem 3.3 its sublinear
//! message complexity. The sparsifier is the set of edges carrying a mark
//! in either direction. No ids are exchanged, so the construction runs in
//! the `KT_0` model.
//!
//! The local marking is the core's one rule: node `v` runs
//! [`PosArraySampler::mark_indices`] on its own [`vertex_rng`] stream, so
//! at a fixed seed phase 1 keeps exactly the edges that
//! `sparsimatch_core::sparsifier::build_sparsifier_parallel` keeps.

use crate::network::{Net, Outgoing};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::sampler::{vertex_rng, PosArraySampler};
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;

/// Every node's marked ports, in node order: the Section 3.1 sampler on
/// node `v`'s [`vertex_rng`] stream, independent across nodes as the
/// analysis needs.
fn mark_ports<'a>(
    g: &'a CsrGraph,
    params: &'a SparsifierParams,
    seed: u64,
) -> impl Iterator<Item = Vec<u32>> + 'a {
    let mut sampler = PosArraySampler::new(g.max_degree());
    (0..g.num_vertices()).map(move |v| {
        let mut marks = Vec::new();
        let deg = g.degree(VertexId::new(v));
        let mut rng = vertex_rng(seed, v);
        sampler.mark_indices(deg, params.delta, params.mark_cap(), &mut rng, &mut marks);
        marks
    })
}

/// Run the one-round sparsifier protocol. Returns the sparsified graph
/// (same vertex set): the core's `G_Δ` at `seed` on a perfect transport.
///
/// On a faulty transport a dropped mark shrinks the sparsifier (the edge
/// survives only if the sender's own mark is kept) and a duplicated mark
/// is harmless — the keep-set is a union, so the result is always a
/// subgraph of `G` and downstream matchings stay valid.
pub fn distributed_sparsifier<'g>(
    net: &mut impl Net<'g>,
    params: &SparsifierParams,
    seed: u64,
) -> CsrGraph {
    let n = net.graph().num_vertices();
    let mut outboxes: Vec<Vec<Outgoing<()>>> = Vec::with_capacity(n);
    let mut sent_marks = Vec::with_capacity(n);
    for marks in mark_ports(net.graph(), params, seed) {
        outboxes.push(marks.iter().map(|&p| (p as usize, (), 1u64)).collect());
        sent_marks.push(marks);
    }
    let inboxes = net.exchange(outboxes);

    // An edge is in G_Δ iff marked by either endpoint: each node keeps the
    // ports it marked plus the ports it heard a mark on.
    let graph = net.graph();
    let mut keep = Vec::new();
    for v in 0..n {
        let vid = VertexId::new(v);
        for &p in &sent_marks[v] {
            keep.push(graph.incident_edge(vid, p as usize));
        }
        for &(p, ()) in &inboxes[v] {
            keep.push(graph.incident_edge(vid, p));
        }
    }
    graph.edge_subgraph(keep.into_iter())
}

/// The broadcast-transmission variant (Section 3.2's first paragraph):
/// when a node cannot unicast, it broadcasts the *list of marked port
/// numbers* to all neighbors — one message per half-edge, of
/// `Δ·⌈log₂ deg⌉` bits. Same sparsifier, very different communication
/// profile: `2m` messages instead of `n·Δ`, and `O(Δ·log n)`-bit payloads
/// instead of 1 bit. Experiment E9 contrasts the two.
pub fn distributed_sparsifier_broadcast<'g>(
    net: &mut impl Net<'g>,
    params: &SparsifierParams,
    seed: u64,
) -> CsrGraph {
    let g = net.graph();
    let n = g.num_vertices();
    let sent_marks: Vec<Vec<u32>> = mark_ports(g, params, seed).collect();
    // Broadcast: every node sends its marked-port list on every port.
    let payloads: Vec<(Vec<u32>, u64)> = (0..n)
        .map(|v| {
            let deg = g.degree(VertexId::new(v)).max(2) as u64;
            let bits = sent_marks[v].len() as u64 * (64 - (deg - 1).leading_zeros() as u64);
            (sent_marks[v].clone(), bits)
        })
        .collect();
    let inboxes = net.broadcast_exchange(payloads);

    let graph = net.graph();
    let mut keep = Vec::new();
    for v in 0..n {
        let vid = VertexId::new(v);
        for &p in &sent_marks[v] {
            keep.push(graph.incident_edge(vid, p as usize));
        }
        // A neighbor's broadcast marks this edge iff our in-port appears
        // in its marked-port list.
        for &(in_port, ref their_marks) in &inboxes[v] {
            // in_port is the port at *v*; the mark refers to the sender's
            // port, which is exactly the port the message arrived through
            // from the sender's perspective — i.e. the peer port. Since
            // the sender broadcast on all ports, the edge is marked iff
            // the sender's port for this edge is in their list; that port
            // is the one this message traveled, seen from their side.
            // The exchange tags messages with the receiving port, so we
            // recover the sender-side port via the peer mapping.
            let u = graph.neighbor(vid, in_port);
            // Find the sender's port index for this edge.
            let e = graph.incident_edge(vid, in_port);
            let sender_port = (0..graph.degree(u))
                .find(|&i| graph.incident_edge(u, i) == e)
                .expect("edge present from both sides");
            if their_marks.contains(&(sender_port as u32)) {
                keep.push(e);
            }
        }
    }
    graph.edge_subgraph(keep.into_iter())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedNetwork;
    use sparsimatch_graph::generators::{clique, clique_union, star, CliqueUnionConfig};
    use sparsimatch_matching::blossom::maximum_matching;

    /// Phase 1 is pinned to the core's one marking rule, the way phase 2
    /// is pinned to `solomon_sparsifier`: at one seed, on a graph whose
    /// high-degree vertices sample, the unicast protocol at every shard
    /// count, the broadcast protocol and `build_sparsifier_parallel` at
    /// every thread count keep the identical edge list, and the MPC run
    /// ships exactly that build's `2·marks_placed` words in round 1.
    #[test]
    fn agrees_with_core_construction() {
        use crate::mpc::{mpc_approx_mcm, MpcConfig, MpcError};
        use rand::{rngs::StdRng, SeedableRng};
        use sparsimatch_core::sparsifier::build_sparsifier_parallel;
        use sparsimatch_graph::generators::family_from_spec;

        let mut rng = StdRng::seed_from_u64(4);
        let g = family_from_spec("clique-union:2:20", 80, &mut rng).unwrap();
        let p = SparsifierParams::practical(2, 0.5);
        assert_eq!((p.delta, p.mark_cap()), (16, 32));
        assert!(g.max_degree() > p.mark_cap(), "some vertex must sample");
        let seed = 5;
        let edges = |s: &CsrGraph| s.edges().map(|(_, u, v)| (u.0, v.0)).collect::<Vec<_>>();
        let core = build_sparsifier_parallel(&g, &p, seed, 1).unwrap();
        let want = edges(&core.graph);
        assert!(want.len() < g.num_edges(), "the build must drop edges");
        for t in [2usize, 4] {
            let s = build_sparsifier_parallel(&g, &p, seed, t).unwrap();
            assert_eq!(edges(&s.graph), want, "build_sparsifier_parallel t={t}");
        }
        for t in [1usize, 2] {
            let mut net = ShardedNetwork::new(&g, t);
            let s = distributed_sparsifier(&mut net, &p, seed);
            assert_eq!(edges(&s), want, "unicast t={t}");
        }
        let mut net = ShardedNetwork::new(&g, 1);
        let s = distributed_sparsifier_broadcast(&mut net, &p, seed);
        assert_eq!(edges(&s), want, "broadcast");

        // A zero memory cap stops the run at round 1 and reports its load.
        let cfg = MpcConfig {
            machines: 4,
            memory_words: 0,
        };
        let err = mpc_approx_mcm(&g, &p, &cfg, seed).unwrap_err();
        let load = 2 * core.stats.marks_placed;
        assert_eq!(
            err,
            MpcError::MemoryExceeded {
                round: 1,
                load,
                cap: 0
            }
        );
    }

    #[test]
    fn single_round_and_message_bound() {
        let g = clique(100);
        let mut net = ShardedNetwork::new(&g, 1);
        let p = SparsifierParams::with_delta(1, 0.5, 4);
        let s = distributed_sparsifier(&mut net, &p, 7);
        let m = net.metrics();
        assert_eq!(m.rounds, 1, "the sparsifier is a one-round protocol");
        assert_eq!(m.messages, 400, "n·Δ one-bit messages");
        assert_eq!(m.bits, 400, "1 bit each");
        assert!(s.num_edges() <= 400);
        assert!(s.num_edges() >= 200);
    }

    #[test]
    fn low_degree_nodes_keep_their_whole_neighborhood() {
        let g = star(40);
        let mut net = ShardedNetwork::new(&g, 1);
        let p = SparsifierParams::with_delta(1, 0.5, 3);
        let s = distributed_sparsifier(&mut net, &p, 1);
        assert_eq!(s.num_edges(), 39, "leaves mark their only edge");
    }

    #[test]
    fn sublinear_messages_on_dense_graph() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let g = clique_union(
            CliqueUnionConfig {
                n: 300,
                diversity: 2,
                clique_size: 100,
            },
            &mut rng,
        );
        let mut net = ShardedNetwork::new(&g, 1);
        let p = SparsifierParams::with_delta(2, 0.5, 8);
        let _s = distributed_sparsifier(&mut net, &p, 3);
        let m = net.metrics();
        assert!(
            m.messages < g.num_edges() as u64,
            "{} messages vs m = {}",
            m.messages,
            g.num_edges()
        );
    }

    #[test]
    fn preserves_matching_approximately() {
        let g = clique(150);
        let mut net = ShardedNetwork::new(&g, 1);
        let p = SparsifierParams::practical(1, 0.4);
        let s = distributed_sparsifier(&mut net, &p, 11);
        let exact = maximum_matching(&g).len();
        let sparse = maximum_matching(&s).len();
        assert!(sparse as f64 * 1.4 >= exact as f64, "{sparse} vs {exact}");
    }

    #[test]
    fn broadcast_variant_builds_same_sparsifier() {
        // Same seed => same marks => identical edge sets, despite the very
        // different wire format.
        let g = clique(80);
        let p = SparsifierParams::with_delta(1, 0.5, 4);
        let mut net_u = ShardedNetwork::new(&g, 1);
        let uni = distributed_sparsifier(&mut net_u, &p, 99);
        let mut net_b = ShardedNetwork::new(&g, 1);
        let bro = distributed_sparsifier_broadcast(&mut net_b, &p, 99);
        let eu: Vec<_> = uni.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let eb: Vec<_> = bro.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(eu, eb);
        // Communication profiles differ exactly as Section 3.2 says:
        // unicast n·Δ one-bit messages vs broadcast 2m fat messages.
        assert_eq!(net_u.metrics().messages, 80 * 4);
        assert_eq!(net_b.metrics().messages, 2 * g.num_edges() as u64);
        assert!(net_b.metrics().bits > net_u.metrics().bits);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = clique(60);
        let p = SparsifierParams::with_delta(1, 0.5, 3);
        let mut net1 = ShardedNetwork::new(&g, 1);
        let s1 = distributed_sparsifier(&mut net1, &p, 42);
        let mut net2 = ShardedNetwork::new(&g, 1);
        let s2 = distributed_sparsifier(&mut net2, &p, 42);
        let e1: Vec<_> = s1.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        let e2: Vec<_> = s2.edges().map(|(_, u, v)| (u.0, v.0)).collect();
        assert_eq!(e1, e2);
    }
}
