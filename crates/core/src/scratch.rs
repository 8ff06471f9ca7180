//! Reusable scratch arenas for the repeat-solve hot paths.
//!
//! Every buffer the pipeline touches per run — the sampler overlay, the
//! mark/index buffers, the sparsifier CSR arrays, the blossom searcher,
//! and the result matching itself — lives here with *clear-not-drop*
//! semantics: a buffer is logically emptied between runs but its heap
//! capacity is retained. Callers that solve repeatedly (the dynamic
//! matcher, the check harness's seed sweeps, the benchmark loops) hold one
//! arena and hand it to [`crate::backend::Backend::solve`]; after the
//! first (cold) call on a given input size, subsequent warm calls perform
//! **zero** heap allocations on the sequential path (pinned by the
//! `alloc-count`-gated test suite).
//!
//! A one-shot caller passes a fresh arena, so warm and cold runs execute
//! the *same* code path and are byte-identical by construction.

use crate::pipeline::PipelineResult;
use crate::sampler::PosArraySampler;
use sparsimatch_graph::adjacency::ProbeCounts;
use sparsimatch_graph::csr::CsrScratch;
use sparsimatch_graph::ids::{EdgeId, VertexId};
use sparsimatch_matching::blossom::BlossomSearcher;
use sparsimatch_matching::bounded_aug::AugStats;
use sparsimatch_matching::Matching;

/// The pipeline's reusable buffer bundle. See the [module docs](self).
///
/// ```
/// use sparsimatch_core::backend::Backend;
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_core::scratch::PipelineScratch;
/// use sparsimatch_graph::generators::clique;
///
/// let g = clique(40);
/// let backend = Backend::Delta(SparsifierParams::practical(1, 0.5));
/// let mut scratch = PipelineScratch::new();
/// let warm_up = backend
///     .solve(&g, 7, 1, None, &mut scratch)
///     .unwrap()
///     .matching
///     .len();
/// // Warm repeat: same output, no allocations on the sequential path.
/// let warm = backend.solve(&g, 7, 1, None, &mut scratch).unwrap();
/// assert_eq!(warm.matching.len(), warm_up);
/// assert!(scratch.high_water_bytes() > 0);
/// ```
pub struct PipelineScratch {
    /// Mark stage: the Δ-out-of-deg sampling overlay.
    pub(crate) sampler: PosArraySampler,
    /// Mark stage: per-vertex sampled adjacency indices.
    pub(crate) indices: Vec<u32>,
    /// Mark stage output: marked edge ids, sorted and deduplicated in
    /// place.
    pub(crate) ids: Vec<EdgeId>,
    /// Extract stage: sparsifier CSR arrays plus degree-count and
    /// scatter-cursor buffers.
    pub(crate) csr: CsrScratch,
    /// Match stage: blossom searcher (frontier queue, parent/base/root
    /// forests).
    pub(crate) searcher: BlossomSearcher,
    /// EDCS backend: per-edge H-membership flags (EdgeId-indexed).
    pub(crate) edcs_in: Vec<bool>,
    /// EDCS backend: per-vertex H-degrees.
    pub(crate) edcs_deg: Vec<u32>,
    /// The result slot, including the reusable output matching.
    pub(crate) result: PipelineResult,
    /// Largest capacity footprint observed at the end of any run.
    pub(crate) high_water: usize,
}

impl PipelineScratch {
    /// An empty arena. All buffers start empty and grow on first use;
    /// construction allocates nothing beyond the CSR scratch's
    /// one-element offsets array.
    pub fn new() -> Self {
        PipelineScratch {
            sampler: PosArraySampler::new(0),
            indices: Vec::new(),
            ids: Vec::new(),
            csr: CsrScratch::new(),
            searcher: BlossomSearcher::new(&Matching::new(0)),
            edcs_in: Vec::new(),
            edcs_deg: Vec::new(),
            result: PipelineResult {
                matching: Matching::new(0),
                sparsifier: Default::default(),
                probes: ProbeCounts::default(),
                aug: AugStats::default(),
            },
            high_water: 0,
        }
    }

    /// Logically empty every buffer, keeping capacities (and the
    /// high-water statistic). Runs never require this — each stage resets
    /// the state it reads — but it lets a long-lived holder drop stale
    /// *contents* (e.g. the previous result) without giving up warmth.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.ids.clear();
        self.csr.clear();
        self.edcs_in.clear();
        self.edcs_deg.clear();
        self.result.matching.reset(0);
        self.result.sparsifier = Default::default();
        self.result.probes = ProbeCounts::default();
        self.result.aug = AugStats::default();
    }

    /// The result of the most recent pipeline run through this arena.
    pub fn result(&self) -> &PipelineResult {
        &self.result
    }

    /// Heap bytes of buffer capacity currently held across all components
    /// (an estimate — element sizes, not allocator overhead).
    pub fn capacity_bytes(&self) -> usize {
        use std::mem::size_of;
        self.sampler.capacity_bytes()
            + self.indices.capacity() * size_of::<u32>()
            + self.ids.capacity() * size_of::<EdgeId>()
            + self.csr.capacity_bytes()
            + self.searcher.capacity_bytes()
            + self.edcs_in.capacity()
            + self.edcs_deg.capacity() * size_of::<u32>()
    }

    /// Largest [`PipelineScratch::capacity_bytes`] observed at the end of
    /// any run — the arena's steady-state memory footprint.
    pub fn high_water_bytes(&self) -> usize {
        self.high_water
    }

    /// Record the current capacity footprint into the high-water mark.
    /// Called by the pipeline at the end of every run.
    pub(crate) fn note_high_water(&mut self) {
        self.high_water = self.high_water.max(self.capacity_bytes());
    }
}

impl Default for PipelineScratch {
    fn default() -> Self {
        PipelineScratch::new()
    }
}

/// Reusable buffers for the dynamic scheme's oracle-path rebuilds:
/// shared-RNG marking ([`mark_shared_rng`](crate::sparsifier::mark_shared_rng))
/// over an adjacency-list graph, then greedy + bounded augmentation. One
/// lives inside each `sparsimatch_dynamic::DynamicMatcher`; fields are
/// public because the dynamic crate drives the stages itself, one
/// budgeted slice per update, with the searcher holding the in-progress
/// augmentation between updates.
pub struct OracleRebuildScratch {
    /// Sampling overlay, grown to the largest degree seen so far.
    pub sampler: PosArraySampler,
    /// Per-vertex sampled adjacency indices.
    pub indices: Vec<u32>,
    /// Marked endpoint pairs accumulated across the rebuild.
    pub marks: Vec<(VertexId, VertexId)>,
    /// Blossom searcher: the rebuild's matching while it is augmented,
    /// reused from window to window.
    pub searcher: BlossomSearcher,
}

impl OracleRebuildScratch {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        OracleRebuildScratch {
            sampler: PosArraySampler::new(0),
            indices: Vec::new(),
            marks: Vec::new(),
            searcher: BlossomSearcher::new(&Matching::new(0)),
        }
    }

    /// Logically empty the buffers, keeping capacities.
    pub fn clear(&mut self) {
        self.indices.clear();
        self.marks.clear();
    }
}

impl Default for OracleRebuildScratch {
    fn default() -> Self {
        OracleRebuildScratch::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_arena_reports_empty_footprint() {
        let s = PipelineScratch::new();
        // A fresh CsrScratch holds the one-element offsets vector; every
        // other component starts at zero capacity.
        assert!(s.capacity_bytes() <= 64);
        assert_eq!(s.high_water_bytes(), 0);
        assert_eq!(s.result().matching.len(), 0);
    }

    #[test]
    fn clear_keeps_high_water() {
        let mut s = PipelineScratch::new();
        s.ids.extend((0..100).map(EdgeId));
        s.note_high_water();
        let hw = s.high_water_bytes();
        assert!(hw >= 400);
        s.clear();
        assert!(s.ids.is_empty());
        assert_eq!(s.high_water_bytes(), hw, "clear drops contents, not stats");
    }
}
