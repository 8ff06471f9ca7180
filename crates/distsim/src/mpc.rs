//! Massively parallel computation (MPC) via the sparsifier — the
//! MapReduce-style setting named at the top of the paper's Section 3.
//!
//! Model: `p` machines, each with local memory for `s` words; the input
//! is vertex-partitioned (each machine holds some vertices together with
//! their adjacency lists, the standard distribution for MPC matching).
//! A round is: unlimited local computation, then an all-to-all exchange
//! in which no machine may *receive* more than `s` words.
//!
//! The sparsifier gives a two-communication-round algorithm with
//! `s = O(n·Δ) = O(n·(β/ε)·log(1/ε))` — **sublinear in `m`** on dense
//! inputs, which is the whole point:
//!
//! 1. *(local)* every machine marks Δ random edges per owned vertex;
//! 2. *(round 1)* marked edges are sent to a coordinator — total load
//!    `|E(G_Δ)| ≤ 4·|MCM|·Δ ≤ s`;
//! 3. *(local)* the coordinator computes a `(1+ε)`-approximate matching
//!    on the sparsifier;
//! 4. *(round 2)* each vertex's mate is sent back to its owner — load
//!    `O(n/p)` per machine.
//!
//! The simulator enforces the memory cap on every round and reports the
//! realized loads, so the memory claim is measured, not assumed.

use crate::metrics::Metrics;
use crate::shard::{balanced_bounds, csr_offsets, run_jobs};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::pipeline::{match_stage, stage_eps};
use sparsimatch_graph::csr::{CsrGraph, GraphBuilder};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::blossom::BlossomSearcher;
use sparsimatch_matching::Matching;

/// MPC cluster shape.
#[derive(Clone, Copy, Debug)]
pub struct MpcConfig {
    /// Number of machines `p`.
    pub machines: usize,
    /// Per-machine memory `s`, in words (one edge = 2 words, one mate
    /// record = 2 words).
    pub memory_words: usize,
}

/// Outcome of an MPC execution.
#[derive(Clone, Debug)]
pub struct MpcOutcome {
    /// The matching (valid for the input graph).
    pub matching: Matching,
    /// Communication rounds used.
    pub rounds: u64,
    /// The largest per-machine receive load observed in any round (words).
    pub max_round_load: usize,
    /// Total words shuffled across all rounds.
    pub total_words: u64,
}

/// Errors from the MPC run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpcError {
    /// A machine would have received more than its memory in one round.
    MemoryExceeded {
        /// The round in which the cap broke.
        round: u64,
        /// The offending load in words.
        load: usize,
        /// The configured cap.
        cap: usize,
    },
}

impl std::fmt::Display for MpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpcError::MemoryExceeded { round, load, cap } => {
                write!(f, "round {round}: load {load} words exceeds memory {cap}")
            }
        }
    }
}

impl std::error::Error for MpcError {}

/// Which machine owns vertex `v` (contiguous ranges).
fn owner(v: usize, n: usize, machines: usize) -> usize {
    (v * machines / n).min(machines - 1)
}

/// Run the two-round MPC matching. The input graph is only used through
/// each owner's local adjacency lists, mirroring the vertex-partitioned
/// input distribution.
///
/// ```
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_distsim::mpc::{mpc_approx_mcm, MpcConfig};
/// use sparsimatch_graph::generators::clique;
///
/// let g = clique(100);
/// let params = SparsifierParams::practical(1, 0.4);
/// let cfg = MpcConfig { machines: 4, memory_words: 50_000 };
/// let out = mpc_approx_mcm(&g, &params, &cfg, 7).unwrap();
/// assert_eq!(out.rounds, 2);
/// assert!(out.matching.is_valid_for(&g));
/// ```
pub fn mpc_approx_mcm(
    g: &CsrGraph,
    params: &SparsifierParams,
    cfg: &MpcConfig,
    seed: u64,
) -> Result<MpcOutcome, MpcError> {
    mpc_approx_mcm_sharded(g, params, cfg, seed, 1)
}

/// Mark edges for the contiguous vertex range `lo..hi`. Marking is a pure
/// per-vertex function of `(seed, v)`, so any contiguous partition of the
/// vertex space, marked independently and concatenated in range order,
/// yields the exact byte sequence the single-range scan produces.
fn mark_range(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    lo: usize,
    hi: usize,
) -> Vec<(u32, u32)> {
    let mut marked: Vec<(u32, u32)> = Vec::new();
    for v in lo..hi {
        let vid = VertexId::new(v);
        let deg = g.degree(vid);
        if deg == 0 {
            continue;
        }
        if deg <= params.mark_cap() {
            for u in g.neighbors(vid) {
                marked.push((vid.0, u.0));
            }
        } else {
            let mut rng = StdRng::seed_from_u64(seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15));
            for i in sample(&mut rng, deg, params.delta) {
                marked.push((vid.0, g.neighbor(vid, i).0));
            }
        }
    }
    marked
}

/// [`mpc_approx_mcm`] with the machine-local marking phase executed by
/// `threads` shard workers over half-edge-balanced contiguous vertex
/// ranges (the same partitioner as [`crate::ShardedNetwork`]). The
/// outcome — marked-edge list, matching, loads — is byte-identical to
/// the sequential run at every thread count because marking is a pure
/// per-vertex function and shards are concatenated in range order.
pub fn mpc_approx_mcm_sharded(
    g: &CsrGraph,
    params: &SparsifierParams,
    cfg: &MpcConfig,
    seed: u64,
    threads: usize,
) -> Result<MpcOutcome, MpcError> {
    assert!(cfg.machines >= 1);
    assert!(threads >= 1, "thread count must be at least 1");
    let n = g.num_vertices();
    let mut rounds = 0u64;
    let mut max_round_load = 0usize;
    let mut total_words = 0u64;

    // Local step: per-owner marking. Each machine only touches the
    // adjacency lists of vertices it owns; `owner` assigns contiguous
    // ranges, so shard workers respect machine locality.
    let bounds = balanced_bounds(&csr_offsets(g), threads);
    let jobs: Vec<_> = (0..threads)
        .map(|k| {
            let (lo, hi) = (bounds[k], bounds[k + 1]);
            move || mark_range(g, params, seed, lo, hi)
        })
        .collect();
    let mut marked: Vec<(u32, u32)> = Vec::new();
    for chunk in run_jobs(jobs) {
        marked.extend(chunk);
    }

    // Round 1: ship marked edges to the coordinator (machine 0).
    rounds += 1;
    let load1 = 2 * marked.len(); // words
    total_words += load1 as u64;
    max_round_load = max_round_load.max(load1);
    if load1 > cfg.memory_words {
        return Err(MpcError::MemoryExceeded {
            round: rounds,
            load: load1,
            cap: cfg.memory_words,
        });
    }

    // Coordinator-local: materialize the sparsifier, match.
    let mut b = GraphBuilder::with_capacity(n, marked.len());
    for &(u, v) in &marked {
        b.add_edge(VertexId(u), VertexId(v));
    }
    let sparse = b.build();
    let mut matching = Matching::new(0);
    let mut searcher = BlossomSearcher::new(&matching);
    let eps = stage_eps(params.eps);
    match_stage(&sparse, eps, &mut matching, &mut searcher);
    debug_assert!(matching.is_valid_for(g));

    // Round 2: return each vertex's mate to its owner; per-machine load is
    // the mate records of the vertices it owns.
    rounds += 1;
    let mut per_machine = vec![0usize; cfg.machines];
    for (u, v) in matching.pairs() {
        per_machine[owner(u.index(), n, cfg.machines)] += 2;
        per_machine[owner(v.index(), n, cfg.machines)] += 2;
    }
    let load2 = per_machine.iter().copied().max().unwrap_or(0);
    total_words += per_machine.iter().map(|&x| x as u64).sum::<u64>();
    max_round_load = max_round_load.max(load2);
    if load2 > cfg.memory_words {
        return Err(MpcError::MemoryExceeded {
            round: rounds,
            load: load2,
            cap: cfg.memory_words,
        });
    }

    Ok(MpcOutcome {
        matching,
        rounds,
        max_round_load,
        total_words,
    })
}

/// The metrics view of an MPC outcome, for harness reuse.
pub fn outcome_metrics(o: &MpcOutcome) -> Metrics {
    Metrics {
        rounds: o.rounds,
        messages: o.total_words / 2,
        bits: o.total_words * 64,
        max_message_bits: 128, // one edge record per message
        messages_cloned: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{clique, clique_union, CliqueUnionConfig};
    use sparsimatch_matching::blossom::maximum_matching;

    #[test]
    fn owner_partition_is_total_and_monotone() {
        let n = 100;
        for machines in [1usize, 3, 7, 100] {
            let mut prev = 0;
            for v in 0..n {
                let o = owner(v, n, machines);
                assert!(o < machines);
                assert!(o >= prev);
                prev = o;
            }
        }
    }

    #[test]
    fn two_rounds_and_accuracy_on_clique() {
        let g = clique(300);
        let params = SparsifierParams::practical(1, 0.3);
        let cfg = MpcConfig {
            machines: 10,
            memory_words: 200_000,
        };
        let out = mpc_approx_mcm(&g, &params, &cfg, 7).unwrap();
        assert_eq!(out.rounds, 2);
        assert!(out.matching.is_valid_for(&g));
        let exact = maximum_matching(&g).len();
        assert!(
            out.matching.len() as f64 * 1.3 >= exact as f64,
            "{} vs {exact}",
            out.matching.len()
        );
    }

    #[test]
    fn memory_sublinear_in_edges() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = clique_union(
            CliqueUnionConfig {
                n: 400,
                diversity: 2,
                clique_size: 100,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(2, 0.4);
        let cfg = MpcConfig {
            machines: 8,
            memory_words: 2 * g.num_edges(), // generous; we check realized load
        };
        let out = mpc_approx_mcm(&g, &params, &cfg, 3).unwrap();
        assert!(
            out.max_round_load < g.num_edges(),
            "load {} words vs m = {} edges",
            out.max_round_load,
            g.num_edges()
        );
    }

    #[test]
    fn memory_cap_is_enforced() {
        let g = clique(200);
        let params = SparsifierParams::practical(1, 0.3);
        let cfg = MpcConfig {
            machines: 4,
            memory_words: 10, // absurdly small
        };
        let err = mpc_approx_mcm(&g, &params, &cfg, 1).unwrap_err();
        assert!(matches!(err, MpcError::MemoryExceeded { round: 1, .. }));
    }

    #[test]
    fn sharded_marking_is_byte_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = clique_union(
            CliqueUnionConfig {
                n: 350,
                diversity: 3,
                clique_size: 60,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(3, 0.35);
        let cfg = MpcConfig {
            machines: 6,
            memory_words: 400_000,
        };
        let base = mpc_approx_mcm(&g, &params, &cfg, 11).unwrap();
        for threads in [2usize, 4, 13] {
            let sharded = mpc_approx_mcm_sharded(&g, &params, &cfg, 11, threads).unwrap();
            assert_eq!(
                sharded.matching.pairs().collect::<Vec<_>>(),
                base.matching.pairs().collect::<Vec<_>>(),
                "t={threads}"
            );
            assert_eq!(sharded.rounds, base.rounds);
            assert_eq!(sharded.max_round_load, base.max_round_load);
            assert_eq!(sharded.total_words, base.total_words);
        }
    }

    #[test]
    fn single_machine_degenerate_case() {
        let g = clique(80);
        let params = SparsifierParams::practical(1, 0.5);
        let cfg = MpcConfig {
            machines: 1,
            memory_words: 1_000_000,
        };
        let out = mpc_approx_mcm(&g, &params, &cfg, 2).unwrap();
        assert_eq!(out.matching.len(), 40);
    }
}
