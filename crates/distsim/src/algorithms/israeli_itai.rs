//! Israeli–Itai-style randomized distributed maximal matching.
//!
//! The classic O(log n)-round randomized baseline: in each iteration every
//! free vertex proposes to a uniformly random free neighbor (1-bit
//! message), every free vertex accepts one incoming proposal uniformly at
//! random, and accepted pairs match. A constant fraction of the "live"
//! edges disappears per iteration in expectation, giving O(log n) rounds
//! w.h.p. — contrast with the deterministic color-scheduled matcher of
//! [`crate::algorithms::matching`], whose round count is `f(Δ) + log* n`.

use crate::network::{Net, Outgoing};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::Matching;

/// Run randomized maximal matching; returns the matching and the number
/// of proposal iterations (3 communication rounds each).
///
/// Generic over the transport: on a faulty network the result is still a
/// valid matching (pairs commit only when an accept is delivered), but
/// maximality holds only under lossless delivery.
pub fn israeli_itai_matching<'g>(net: &mut impl Net<'g>, seed: u64) -> (Matching, u64) {
    let g = net.graph();
    let n = g.num_vertices();
    let mut matching = Matching::new(n);
    let mut rngs: Vec<StdRng> = (0..n)
        .map(|v| StdRng::seed_from_u64(seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15)))
        .collect();
    let mut iterations = 0u64;
    loop {
        iterations += 1;
        // (a) status broadcast.
        let payloads = (0..n)
            .map(|v| (matching.is_matched(VertexId::new(v)), 1u64))
            .collect();
        let statuses = net.broadcast_exchange(payloads);

        // (b) proposals to a random free neighbor.
        let mut proposals: Vec<Vec<Outgoing<()>>> = vec![Vec::new(); n];
        let mut any_proposal = false;
        for v in 0..n {
            let vid = VertexId::new(v);
            if matching.is_matched(vid) {
                continue;
            }
            let free_ports: Vec<usize> = statuses[v]
                .iter()
                .filter(|&&(_, matched)| !matched)
                .map(|&(p, _)| p)
                .collect();
            if free_ports.is_empty() {
                continue;
            }
            let p = free_ports[rngs[v].random_range(0..free_ports.len())];
            proposals[v].push((p, (), 1));
            any_proposal = true;
        }
        if !any_proposal {
            iterations -= 1; // the last iteration did no work
                             // One status round was still spent discovering quiescence.
            break;
        }
        let incoming = net.exchange(proposals);

        // (c) accepts: a free proposee accepts one proposal at random.
        let mut accepts: Vec<Vec<Outgoing<()>>> = vec![Vec::new(); n];
        for v in 0..n {
            let vid = VertexId::new(v);
            if matching.is_matched(vid) || incoming[v].is_empty() {
                continue;
            }
            let &(p, ()) = &incoming[v][rngs[v].random_range(0..incoming[v].len())];
            accepts[v].push((p, (), 1));
        }
        let accepted = net.exchange(accepts);
        // A vertex can simultaneously accept one proposal and have its own
        // proposal accepted; ties resolve in favor of whichever pairing is
        // committed first (add_pair refuses the second). The losing side
        // simply retries next iteration — maximality is unaffected.
        for (v, acc) in accepted.iter().enumerate() {
            let vid = VertexId::new(v);
            for &(p, ()) in acc {
                let u = net.peer(vid, p);
                matching.add_pair(vid, u);
            }
        }
    }
    debug_assert!(matching.is_valid_for(net.graph()));
    debug_assert!(!net.lossless() || matching.is_maximal_in(net.graph()));
    (matching, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardedNetwork;
    use sparsimatch_graph::generators::{clique, cycle, gnp, path};
    use sparsimatch_matching::blossom::maximum_matching;

    #[test]
    fn maximal_on_paths_and_cycles() {
        for g in [path(41), cycle(40)] {
            let mut net = ShardedNetwork::new(&g, 1);
            let (m, iters) = israeli_itai_matching(&mut net, 7);
            assert!(m.is_valid_for(&g));
            assert!(m.is_maximal_in(&g));
            assert!(iters >= 1);
        }
    }

    #[test]
    fn maximal_on_random_graphs() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for seed in 0..5 {
            let g = gnp(120, 0.05, &mut rng);
            let mut net = ShardedNetwork::new(&g, 1);
            let (m, _) = israeli_itai_matching(&mut net, seed);
            assert!(m.is_maximal_in(&g));
            let exact = maximum_matching(&g).len();
            assert!(2 * m.len() >= exact);
        }
    }

    #[test]
    fn iterations_logarithmic_on_clique() {
        // On K_n a constant fraction of vertices matches per iteration:
        // iterations should be ~log n, far below n.
        let g = clique(256);
        let mut net = ShardedNetwork::new(&g, 1);
        let (m, iters) = israeli_itai_matching(&mut net, 3);
        assert_eq!(m.len(), 128);
        assert!(iters <= 40, "iterations {iters} not logarithmic-ish");
    }

    #[test]
    fn empty_graph_terminates_immediately() {
        let g = sparsimatch_graph::csr::from_edges(5, []);
        let mut net = ShardedNetwork::new(&g, 1);
        let (m, iters) = israeli_itai_matching(&mut net, 1);
        assert_eq!(m.len(), 0);
        assert_eq!(iters, 0);
    }
}
