//! The simulated network: a graph of nodes exchanging port-addressed
//! messages in synchronous rounds.
//!
//! Ports follow the standard distributed-computing convention: vertex `v`
//! talks through ports `0..deg(v)`, port `i` being its `i`-th incident
//! edge. Nodes address neighbors by port, never by id (the `KT_0`
//! assumption the paper's sparsifier needs); ids exist only as symmetry-
//! breaking input to the coloring algorithms, as in the LOCAL model.

use crate::metrics::Metrics;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::ids::VertexId;

/// A message emitted by a node in one round: (out-port, payload, bits).
pub type Outgoing<M> = (usize, M, u64);

/// A message received by a node: (in-port, payload).
pub type Incoming<M> = (usize, M);

/// One synchronous LOCAL/CONGEST round model: every node sends, then
/// every node receives.
///
/// Every algorithm in [`crate::algorithms`] is written against this
/// trait. Two transports implement it: [`crate::ShardedNetwork`], the one
/// every pipeline runs on (any thread count, perfect or under a
/// [`crate::FaultPlan`]), and [`crate::FaultyNetwork`], the sequential
/// reference the differential tests compare it against. A perfect round
/// delivers every message exactly once; under a fault plan messages may
/// be dropped, duplicated, or reordered and the ack/retry layer may take
/// extra (accounted) rounds. The `'g` parameter is the lifetime of the
/// underlying topology, so `graph()` borrows the graph rather than the
/// network and callers can hold topology references across accounted
/// rounds.
///
/// `Sync` is a supertrait because the LOCAL augmentation phase fans its
/// per-node ball computations out over threads holding `&N`.
pub trait Net<'g>: Sync {
    /// The underlying topology.
    fn graph(&self) -> &'g CsrGraph;

    /// Communication metrics accumulated so far.
    fn metrics(&self) -> Metrics;

    /// One logical synchronous round: every node's outbox is handed to the
    /// transport for delivery. `outboxes[v]` lists `(port, payload, bits)`.
    ///
    /// # Panics
    /// Panics if `outboxes.len() != num_nodes()` or any entry names a port
    /// `>= deg(v)` — a malformed outbox is an algorithm bug, not a network
    /// fault, so every transport rejects it identically.
    fn exchange<M: Clone + Send>(
        &mut self,
        outboxes: Vec<Vec<Outgoing<M>>>,
    ) -> Vec<Vec<Incoming<M>>>;

    /// Charge the canonical LOCAL "gather your radius-`r` ball" primitive:
    /// `r` rounds in which every vertex forwards everything it knows on
    /// every port. Messages: `r · 2m`; bits: caller-supplied estimate of
    /// the per-message payload (e.g. the ball's edge count × bits/edge).
    ///
    /// The ball content itself is then read off the master graph via
    /// [`Net::ball`] — an accounting-faithful shortcut (the protocol
    /// would deliver exactly that information in `r` rounds).
    fn charge_gather(&mut self, radius: usize, bits_per_message: u64);

    /// Account `count` host-side payload clones against this transport's
    /// [`Metrics::messages_cloned`]. Unicast delivery moves payloads and
    /// never calls this; broadcast fan-out, duplicate deliveries, and
    /// retained retransmit buffers do.
    fn record_clones(&mut self, count: u64);

    /// Collect the radius-`r` ball around `v` as the transport would
    /// deliver it (a faulty transport omits crashed nodes).
    fn ball(&self, v: VertexId, radius: usize) -> Vec<VertexId>;

    /// Number of nodes.
    fn num_nodes(&self) -> usize {
        self.graph().num_vertices()
    }

    /// The neighbor reached through `(v, port)`.
    fn peer(&self, v: VertexId, port: usize) -> VertexId {
        self.graph().neighbor(v, port)
    }

    /// Broadcast convenience: every node sends the same payload on all its
    /// ports (the broadcast transmission mode of Section 3.2). The fan-out
    /// performs `deg(v) - 1` payload clones per speaking node (the last
    /// port takes the original by value), accounted via
    /// [`Net::record_clones`].
    fn broadcast_exchange<M: Clone + Send>(
        &mut self,
        payloads: Vec<(M, u64)>,
    ) -> Vec<Vec<Incoming<M>>> {
        let graph = self.graph();
        let (outboxes, clones) = broadcast_outboxes(graph, payloads);
        self.record_clones(clones);
        self.exchange(outboxes)
    }

    /// Whether this transport guarantees exactly-once, in-order delivery
    /// to every node. Algorithms use it to gate *optional* self-checks
    /// (maximality, properness) that only hold under perfect delivery;
    /// their safety invariants (matching validity) never depend on it.
    fn lossless(&self) -> bool {
        true
    }
}

/// Expand per-node broadcast payloads into per-port outboxes, cloning the
/// payload for all ports but the last (which takes it by value). Returns
/// the outboxes and the number of clones performed, so every transport's
/// broadcast costs the same host-side copies.
pub(crate) fn broadcast_outboxes<M: Clone>(
    graph: &CsrGraph,
    payloads: Vec<(M, u64)>,
) -> (Vec<Vec<Outgoing<M>>>, u64) {
    let mut clones = 0u64;
    let outboxes = payloads
        .into_iter()
        .enumerate()
        .map(|(v, (payload, bits))| {
            let deg = graph.degree(VertexId::new(v));
            let mut out: Vec<Outgoing<M>> = Vec::with_capacity(deg);
            for p in 0..deg.saturating_sub(1) {
                out.push((p, payload.clone(), bits));
                clones += 1;
            }
            if deg > 0 {
                out.push((deg - 1, payload, bits));
            }
            out
        })
        .collect();
    (outboxes, clones)
}

/// The port tables of a fixed topology: which in-port a message sent on
/// `(v, port)` arrives on, and the dense half-edge slot ids the fault
/// layer keys its decisions by. Both transports route through one.
pub(crate) struct PortTables<'g> {
    graph: &'g CsrGraph,
    /// For the half-edge at global CSR slot `s` (vertex `u`, port `i`),
    /// `peer_port[s]` is the port index of the same edge at the other
    /// endpoint.
    peer_port: Vec<u32>,
    /// Global slot offset of each vertex (mirror of CSR offsets).
    offsets: Vec<usize>,
}

impl<'g> PortTables<'g> {
    /// Build the tables of a topology.
    pub(crate) fn new(graph: &'g CsrGraph) -> Self {
        let n = graph.num_vertices();
        let offsets = crate::shard::csr_offsets(graph);
        // slot_of_edge[e] = (slot at smaller endpoint, slot at larger endpoint)
        let mut slot_small = vec![u32::MAX; graph.num_edges()];
        let mut slot_large = vec![u32::MAX; graph.num_edges()];
        for v in 0..n {
            let v = VertexId::new(v);
            for (i, (u, e)) in graph.incident(v).enumerate() {
                if v.0 < u.0 {
                    slot_small[e.index()] = i as u32;
                } else {
                    slot_large[e.index()] = i as u32;
                }
            }
        }
        let mut peer_port = vec![0u32; 2 * graph.num_edges()];
        for v in 0..n {
            let v = VertexId::new(v);
            for (i, (u, e)) in graph.incident(v).enumerate() {
                peer_port[offsets[v.index()] + i] = if v.0 < u.0 {
                    slot_large[e.index()]
                } else {
                    slot_small[e.index()]
                };
            }
        }
        PortTables {
            graph,
            peer_port,
            offsets,
        }
    }

    /// The underlying topology (borrowing the graph, not the tables).
    pub(crate) fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// The port index of the edge `(v, port)` at the *other* endpoint:
    /// a message sent on `(v, port)` arrives tagged with this in-port.
    ///
    /// # Panics
    /// Panics if `port >= deg(v)`.
    pub(crate) fn in_port(&self, v: VertexId, port: usize) -> usize {
        assert!(port < self.graph.degree(v), "port out of range");
        self.peer_port[self.offsets[v.index()] + port] as usize
    }

    /// Global half-edge slot of `(v, port)` — a dense id in `0..2m`, used
    /// by the fault layer to key deterministic per-message decisions.
    pub(crate) fn slot_of(&self, v: VertexId, port: usize) -> usize {
        self.offsets[v.index()] + port
    }

    /// The raw tables: (per-vertex slot offsets, peer-port per half-edge
    /// slot).
    pub(crate) fn tables(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.peer_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedNetwork;
    use sparsimatch_graph::csr::from_edges;
    use sparsimatch_graph::generators::{cycle, path, star};

    /// The round semantics below hold for the inline one-shard engine and
    /// for a multi-shard one alike.
    const THREADS: [usize; 2] = [1, 3];

    /// Run `f` at every thread count and return the panic message each
    /// run died with.
    fn panic_messages(f: impl Fn(usize) + std::panic::RefUnwindSafe) -> Vec<String> {
        THREADS
            .iter()
            .map(|&t| {
                let payload = std::panic::catch_unwind(|| f(t)).expect_err("must panic");
                payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            })
            .collect()
    }

    #[test]
    fn peer_ports_are_inverse() {
        let g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let ports = PortTables::new(&g);
        for v in 0..5 {
            let v = VertexId::new(v);
            for port in 0..g.degree(v) {
                let u = g.neighbor(v, port);
                assert_eq!(
                    g.neighbor(u, ports.in_port(v, port)),
                    v,
                    "peer port must point back"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "port out of range")]
    fn in_port_rejects_out_of_range() {
        let g = path(3);
        let _ = PortTables::new(&g).in_port(VertexId(0), 1);
    }

    #[test]
    fn exchange_delivers_and_counts() {
        let g = path(3); // 0-1-2
        for t in THREADS {
            let mut net = ShardedNetwork::new(&g, t);
            // Vertex 0 sends "7" to its only neighbor (1).
            let mut out: Vec<Vec<Outgoing<u32>>> = vec![vec![]; 3];
            out[0].push((0, 7u32, 32));
            let inboxes = net.exchange(out);
            let received: Vec<u32> = inboxes[1].iter().map(|&(_, m)| m).collect();
            assert_eq!(received, vec![7]);
            assert!(inboxes[0].is_empty() && inboxes[2].is_empty());
            let m = net.metrics();
            assert_eq!(m.rounds, 1);
            assert_eq!(m.messages, 1);
            assert_eq!(m.bits, 32);
            assert_eq!(m.messages_cloned, 0, "unicast moves its payload");
        }
    }

    #[test]
    fn unicast_exchange_never_clones_payloads() {
        // A payload whose Clone panics: delivery must move it instead.
        struct Fragile(u32);
        impl Clone for Fragile {
            fn clone(&self) -> Self {
                panic!("unicast exchange must not clone");
            }
        }
        let g = cycle(4);
        for t in THREADS {
            let mut net = ShardedNetwork::new(&g, t);
            let mut out: Vec<Vec<Outgoing<Fragile>>> = vec![vec![], vec![], vec![], vec![]];
            out[0].push((0, Fragile(9), 8));
            out[2].push((1, Fragile(11), 8));
            let inboxes = net.exchange(out);
            let delivered: u32 = inboxes.iter().flatten().map(|(_, m)| m.0).sum();
            assert_eq!(delivered, 20);
            assert_eq!(net.metrics().messages_cloned, 0);
        }
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let g = star(5);
        for t in THREADS {
            let mut net = ShardedNetwork::new(&g, t);
            let payloads = (0..5).map(|v| (v as u32, 8u64)).collect();
            let inboxes = net.broadcast_exchange(payloads);
            // Center (0) hears from all 4 leaves.
            assert_eq!(inboxes[0].len(), 4);
            let mut heard: Vec<u32> = inboxes[0].iter().map(|&(_, m)| m).collect();
            heard.sort_unstable();
            assert_eq!(heard, vec![1, 2, 3, 4]);
            // Each leaf hears only the center's value 0.
            for inbox in &inboxes[1..5] {
                assert_eq!(*inbox, vec![(0usize, 0u32)]);
            }
            assert_eq!(
                net.metrics().messages,
                8,
                "2m messages on a star of 4 edges"
            );
            // Center (degree 4) clones 3 times; each leaf (degree 1) moves.
            assert_eq!(net.metrics().messages_cloned, 3);
        }
    }

    #[test]
    fn gather_charging() {
        let g = cycle(6);
        for t in THREADS {
            let mut net = ShardedNetwork::new(&g, t);
            net.charge_gather(3, 10);
            let m = net.metrics();
            assert_eq!(m.rounds, 3);
            assert_eq!(m.messages, 3 * 12);
            assert_eq!(m.bits, 3 * 12 * 10);
        }
    }

    #[test]
    fn ball_radii() {
        let g = path(7); // 0-1-2-3-4-5-6
        for t in THREADS {
            let net = ShardedNetwork::new(&g, t);
            let b0 = net.ball(VertexId(3), 0);
            assert_eq!(b0.len(), 1);
            let b2: std::collections::HashSet<u32> =
                net.ball(VertexId(3), 2).into_iter().map(|v| v.0).collect();
            assert_eq!(b2, [1u32, 2, 3, 4, 5].into_iter().collect());
            let ball_all = net.ball(VertexId(0), 10);
            assert_eq!(ball_all.len(), 7);
        }
    }

    #[test]
    fn empty_outboxes_still_advance_rounds() {
        // A round in which nobody speaks is still a round: synchronous
        // models charge for the barrier, not the traffic.
        let g = path(4);
        for t in THREADS {
            let mut net = ShardedNetwork::new(&g, t);
            for expected in 1..=3u64 {
                let inboxes = net.exchange(vec![Vec::<Outgoing<u8>>::new(); 4]);
                assert!(inboxes.iter().all(|i| i.is_empty()));
                assert_eq!(net.metrics().rounds, expected);
            }
            assert_eq!(net.metrics().messages, 0);
            assert_eq!(net.metrics().bits, 0);
        }
    }

    #[test]
    fn port_out_of_range_is_a_documented_panic() {
        let g = path(3); // vertex 0 has degree 1
        let messages = panic_messages(|t| {
            let mut net = ShardedNetwork::new(&g, t);
            let mut out: Vec<Vec<Outgoing<u8>>> = vec![vec![]; 3];
            out[0].push((1, 0u8, 8));
            let _ = net.exchange(out);
        });
        for (t, msg) in THREADS.iter().zip(messages) {
            assert!(msg.contains("port out of range"), "t = {t}: {msg:?}");
        }
    }

    #[test]
    fn in_port_matches_delivery_tag() {
        let g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let ports = PortTables::new(&g);
        for t in THREADS {
            let mut net = ShardedNetwork::new(&g, t);
            for v in 0..5 {
                let v = VertexId::new(v);
                for port in 0..g.degree(v) {
                    let mut out: Vec<Vec<Outgoing<u8>>> = vec![vec![]; 5];
                    out[v.index()].push((port, 1u8, 1));
                    let inboxes = net.exchange(out);
                    let u = net.peer(v, port);
                    assert_eq!(inboxes[u.index()], vec![(ports.in_port(v, port), 1u8)]);
                }
            }
        }
    }

    #[test]
    fn port_addressing_round_trip_message() {
        // Reply on the in-port must reach the original sender.
        let g = from_edges(4, [(0, 1), (0, 2), (0, 3)]);
        for t in THREADS {
            let mut net = ShardedNetwork::new(&g, t);
            let mut out: Vec<Vec<Outgoing<&'static str>>> = vec![vec![]; 4];
            out[2].push((0, "ping", 8));
            let inboxes = net.exchange(out);
            let (in_port, msg) = inboxes[0][0];
            assert_eq!(msg, "ping");
            let mut reply: Vec<Vec<Outgoing<&'static str>>> = vec![vec![]; 4];
            reply[0].push((in_port, "pong", 8));
            let inboxes2 = net.exchange(reply);
            assert_eq!(inboxes2[2], vec![(0usize, "pong")]);
        }
    }
}
