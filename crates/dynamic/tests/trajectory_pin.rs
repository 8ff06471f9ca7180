//! Pins the dynamic matcher's served trajectory: for three fixed update
//! streams (oblivious and adaptive, with deletions, on clique-union hosts)
//! an FNV-1a hash folded over the served mate array after every update,
//! plus the number of window swaps, and a second FNV-1a hash folded over
//! every update's realized [`UpdateReport::work`]. Any change to which
//! matching is served, when it is published, or how much work each
//! update performs moves these values.
//!
//! [`UpdateReport::work`]: sparsimatch_dynamic::scheme::UpdateReport::work

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_dynamic::adversary::{Adversary, Policy, StreamAdversary};
use sparsimatch_dynamic::scheme::DynamicMatcher;
use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};
use sparsimatch_graph::ids::VertexId;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Stream {
    host: CliqueUnionConfig,
    beta: usize,
    eps: f64,
    policy: Policy,
    seed: u64,
    updates: usize,
}

/// `(mate-array hash over every update, swap count, final matching size,
/// hash of every update's work)`.
fn trajectory(s: &Stream) -> (u64, u64, usize, u64) {
    let mut rng = StdRng::seed_from_u64(s.seed);
    let host = clique_union(s.host, &mut rng);
    let n = host.num_vertices();
    let mut dm = DynamicMatcher::new(
        n,
        SparsifierParams::practical(s.beta, s.eps),
        s.seed ^ 0x5EED,
    );
    let mut adversary = StreamAdversary::new(&host, s.policy);
    let mut hash = FNV_OFFSET;
    let mut swaps = 0u64;
    let mut work_hash = FNV_OFFSET;
    for _ in 0..s.updates {
        let update = adversary.next(dm.matching(), &mut rng);
        let report = dm.apply(update);
        swaps += u64::from(report.swapped);
        for byte in report.work.to_le_bytes() {
            work_hash ^= u64::from(byte);
            work_hash = work_hash.wrapping_mul(FNV_PRIME);
        }
        for v in 0..n {
            let mate = dm
                .matching()
                .mate(VertexId::new(v))
                .map_or(u32::MAX, |u| u.0);
            for byte in mate.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
    }
    (hash, swaps, dm.matching().len(), work_hash)
}

#[test]
fn oblivious_stream_trajectory_is_pinned() {
    let s = Stream {
        host: CliqueUnionConfig {
            n: 120,
            diversity: 2,
            clique_size: 24,
        },
        beta: 2,
        eps: 0.5,
        policy: Policy::Oblivious { p_insert: 0.6 },
        seed: 1,
        updates: 3000,
    };
    assert_eq!(
        trajectory(&s),
        (5274735688968930455, 652, 58, 16868352032448768881)
    );
}

#[test]
fn adaptive_stream_trajectory_is_pinned() {
    let s = Stream {
        host: CliqueUnionConfig {
            n: 200,
            diversity: 3,
            clique_size: 20,
        },
        beta: 3,
        eps: 0.3,
        policy: Policy::AdaptiveDeleteMatched { p_insert: 0.6 },
        seed: 2,
        updates: 3000,
    };
    assert_eq!(
        trajectory(&s),
        (18330161260435785043, 850, 95, 8764385424245268681)
    );
}

#[test]
fn adaptive_churn_trajectory_is_pinned() {
    let s = Stream {
        host: CliqueUnionConfig {
            n: 80,
            diversity: 2,
            clique_size: 16,
        },
        beta: 2,
        eps: 0.8,
        policy: Policy::AdaptiveDeleteMatched { p_insert: 0.7 },
        seed: 3,
        updates: 3000,
    };
    assert_eq!(
        trajectory(&s),
        (8022892710368342123, 461, 38, 5045565942915522601)
    );
}
