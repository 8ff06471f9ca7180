//! Δ-out-of-deg uniform sampling without replacement over *read-only*
//! adjacency arrays, in deterministic O(Δ) time per vertex.
//!
//! This is the Section 3.1 construction. A naive Fisher–Yates shuffle
//! would swap entries of the adjacency array, but the sublinear model
//! grants only read access. Instead we keep, per vertex, a positions
//! overlay `pos_v` in an O(1)-initialization
//! [`SparseArray`]: `pos_v[i] = j` means
//! "the element currently at logical position `i` is the one physically
//! stored at index `j`", with untouched slots meaning identity. Each
//! sampling step reads one uniform position, resolves it through the
//! overlay, then emulates the Fisher–Yates swap by writing two overlay
//! slots — O(1) work and **zero** writes to the input.
//!
//! One overlay is shared across all vertices and logically cleared in O(1)
//! between vertices, so the whole sparsifier is sampled with a single
//! allocation of size `max_degree`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsimatch_graph::sparse_array::SparseArray;
use sparsimatch_obs::{keys, WorkMeter};

/// Sentinel for "identity" in the positions overlay.
const IDENTITY: u32 = u32::MAX;

/// A reusable sampler of uniform index subsets.
///
/// Besides the overlay it keeps two cumulative work counters — RNG draws
/// and overlay writes — across its whole lifetime (the per-vertex
/// [`SparseArray::writes`] count resets with each logical clear). These
/// feed the unified [`sparsimatch_obs::WorkMeter`] accounting via
/// [`PosArraySampler::mirror_into`].
pub struct PosArraySampler {
    pos: SparseArray<u32>,
    rng_draws: u64,
    overlay_writes: u64,
}

impl PosArraySampler {
    /// A sampler able to handle degrees up to `max_degree`.
    pub fn new(max_degree: usize) -> Self {
        PosArraySampler {
            pos: SparseArray::new(max_degree, IDENTITY),
            rng_draws: 0,
            overlay_writes: 0,
        }
    }

    /// Grow the overlay to handle degrees up to `max_degree`; no-op when
    /// it is already large enough. The scratch-reuse path: a sampler kept
    /// across pipeline runs is re-sized here instead of reconstructed, so
    /// repeat solves on same-or-smaller graphs allocate nothing.
    pub fn ensure_capacity(&mut self, max_degree: usize) {
        self.pos.ensure_len(max_degree);
    }

    /// Heap bytes of overlay capacity currently held (an estimate —
    /// element sizes, not allocator overhead). Feeds the scratch arenas'
    /// high-water accounting.
    pub fn capacity_bytes(&self) -> usize {
        self.pos.capacity_bytes()
    }

    /// Total uniform draws taken from the RNG since construction.
    pub fn rng_draws(&self) -> u64 {
        self.rng_draws
    }

    /// Total writes into the positions overlay since construction.
    pub fn overlay_writes(&self) -> u64 {
        self.overlay_writes
    }

    /// Mirror the cumulative work counters into a [`WorkMeter`].
    pub fn mirror_into(&self, meter: &mut WorkMeter) {
        meter.add(keys::RNG_DRAWS, self.rng_draws);
        meter.add(keys::OVERLAY_WRITES, self.overlay_writes);
    }

    /// Draw `k` distinct uniform indices from `0..deg` into `out`
    /// (clearing it first). Deterministic O(k) time. If `k ≥ deg`, returns
    /// all of `0..deg`.
    pub fn sample_indices(&mut self, deg: usize, k: usize, rng: &mut impl Rng, out: &mut Vec<u32>) {
        out.clear();
        if k >= deg {
            out.extend(0..deg as u32);
            return;
        }
        debug_assert!(deg <= self.pos.len(), "sampler sized too small");
        self.pos.clear(); // O(1) logical re-initialization
        for t in 0..k {
            let limit = deg - t; // sampling from logical prefix [0, limit)
            let i = rng.random_range(0..limit);
            self.rng_draws += 1;
            let picked = self.resolve(i as u32);
            out.push(picked);
            // Emulate swap(arr[i], arr[limit-1]).
            let last_val = self.resolve((limit - 1) as u32);
            self.pos.set(i, last_val);
            self.overlay_writes += 1;
        }
    }

    /// The per-vertex mark set of the Section 3.1 construction for a
    /// vertex of degree `deg`: all of `0..deg` when `deg ≤ mark_cap`,
    /// otherwise `delta` uniform indices. Returns adjacency-array
    /// *indices* (resolve through the oracle to get neighbors/edges).
    pub fn mark_indices(
        &mut self,
        deg: usize,
        delta: usize,
        mark_cap: usize,
        rng: &mut impl Rng,
        out: &mut Vec<u32>,
    ) {
        let k = if deg <= mark_cap { deg } else { delta };
        self.sample_indices(deg, k, rng, out);
    }

    #[inline]
    fn resolve(&self, i: u32) -> u32 {
        let v = *self.pos.get(i as usize);
        if v == IDENTITY {
            i
        } else {
            v
        }
    }
}

/// The per-vertex RNG stream of the seeded marking model: vertex `v`
/// draws from its own generator seeded `seed ^ (v·0x9E3779B97F4A7C15)`,
/// so its marks depend on the seed and its degree alone — never on which
/// worker, pass, or build path samples it.
pub fn vertex_rng(seed: u64, v: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (v as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_all_when_k_exceeds_deg() {
        let mut s = PosArraySampler::new(16);
        let mut rng = StdRng::seed_from_u64(1);
        let mut out = Vec::new();
        s.sample_indices(5, 10, &mut rng, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn samples_are_distinct_and_in_range() {
        let mut s = PosArraySampler::new(1000);
        let mut rng = StdRng::seed_from_u64(2);
        let mut out = Vec::new();
        for _ in 0..200 {
            s.sample_indices(1000, 50, &mut rng, &mut out);
            assert_eq!(out.len(), 50);
            let mut sorted = out.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 50, "duplicates drawn");
            assert!(sorted.iter().all(|&i| (i as usize) < 1000));
        }
    }

    #[test]
    fn uniform_marginals() {
        // Each index should be picked with probability k/deg; chi-square
        // style sanity bound on a long run.
        let deg = 20;
        let k = 5;
        let trials = 40_000;
        let mut counts = vec![0u32; deg];
        let mut s = PosArraySampler::new(deg);
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        for _ in 0..trials {
            s.sample_indices(deg, k, &mut rng, &mut out);
            for &i in &out {
                counts[i as usize] += 1;
            }
        }
        let expected = trials as f64 * k as f64 / deg as f64; // 10_000
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "index {i}: count {c}, expected ~{expected}");
        }
    }

    #[test]
    fn pairwise_coverage() {
        // Every pair should be jointly sampled with the hypergeometric
        // rate; cheap check that no pair is starved (catches overlay bugs
        // that only bite on collisions).
        let deg = 8;
        let k = 3;
        let trials = 30_000;
        let mut pair_counts = vec![0u32; deg * deg];
        let mut s = PosArraySampler::new(deg);
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = Vec::new();
        for _ in 0..trials {
            s.sample_indices(deg, k, &mut rng, &mut out);
            for a in 0..out.len() {
                for b in (a + 1)..out.len() {
                    let (x, y) = (out[a].min(out[b]) as usize, out[a].max(out[b]) as usize);
                    pair_counts[x * deg + y] += 1;
                }
            }
        }
        // P[pair] = C(deg-2, k-2)/C(deg,k) = k(k-1)/(deg(deg-1)) = 6/56.
        let expected = trials as f64 * (k * (k - 1)) as f64 / (deg * (deg - 1)) as f64;
        for x in 0..deg {
            for y in (x + 1)..deg {
                let c = pair_counts[x * deg + y] as f64;
                assert!(
                    (c - expected).abs() / expected < 0.12,
                    "pair ({x},{y}): {c} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn deterministic_work_bound() {
        // The overlay must touch at most 2k slots per vertex regardless of
        // the degree: that is the whole point of the sparse array.
        let mut s = PosArraySampler::new(1_000_000);
        let mut rng = StdRng::seed_from_u64(5);
        let mut out = Vec::new();
        s.sample_indices(1_000_000, 32, &mut rng, &mut out);
        assert!(s.pos.writes() <= 64, "writes = {}", s.pos.writes());
    }

    #[test]
    fn cumulative_counters_track_draws_and_writes() {
        let mut s = PosArraySampler::new(100);
        let mut rng = StdRng::seed_from_u64(7);
        let mut out = Vec::new();
        s.sample_indices(100, 10, &mut rng, &mut out);
        s.sample_indices(100, 10, &mut rng, &mut out);
        // One draw and one overlay write per selected index, cumulative
        // across calls.
        assert_eq!(s.rng_draws(), 20);
        assert_eq!(s.overlay_writes(), 20);
        // The take-all path needs no randomness.
        s.sample_indices(5, 10, &mut rng, &mut out);
        assert_eq!(s.rng_draws(), 20);
        let mut meter = WorkMeter::new();
        s.mirror_into(&mut meter);
        assert_eq!(meter.get(keys::RNG_DRAWS), 20);
        assert_eq!(meter.get(keys::OVERLAY_WRITES), 20);
    }

    #[test]
    fn mark_indices_low_degree_takes_all() {
        let mut s = PosArraySampler::new(8);
        let mut rng = StdRng::seed_from_u64(6);
        let mut out = Vec::new();
        s.mark_indices(5, 2, 4, &mut rng, &mut out);
        assert_eq!(out.len(), 2, "deg 5 > cap 4: sample delta = 2");
        s.mark_indices(5, 2, 5, &mut rng, &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 4], "deg 5 <= cap 5: take all");
    }

    /// The fact `G_Δ = G` passthrough rests on: at `deg ≤ mark_cap` the
    /// mark set is exactly `0..deg` and the sampler does no work — no
    /// RNG draw (the stream is left untouched), no overlay write — for
    /// every Δ, even on an unsized sampler.
    #[test]
    fn mark_indices_at_or_below_cap_keeps_all_and_draws_nothing() {
        let mut s = PosArraySampler::new(0);
        let mut out = vec![7u32; 3]; // dirty
        for cap in [0usize, 1, 6, 40] {
            for deg in 0..=cap {
                for delta in [1usize, cap / 2 + 1, cap + 3] {
                    let mut rng = StdRng::seed_from_u64(9);
                    s.mark_indices(deg, delta, cap, &mut rng, &mut out);
                    assert_eq!(out, (0..deg as u32).collect::<Vec<_>>(), "{deg} {cap}");
                    let untouched: u64 = StdRng::seed_from_u64(9).random();
                    assert_eq!(rng.random::<u64>(), untouched, "{deg} {cap}: drew");
                }
            }
        }
        assert_eq!((s.rng_draws(), s.overlay_writes()), (0, 0));
    }
}
