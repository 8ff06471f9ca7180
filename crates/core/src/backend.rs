//! The backend family: Theorem 3.1's sparsify-then-match pipeline over
//! interchangeable matching sparsifiers.
//!
//! Every solve is the same three stages — **mark** the edges of a
//! sparse subgraph `H ⊆ G`, **extract** `H` as a CSR, **match** on `H`
//! with greedy initialization plus bounded augmentation. Only the mark
//! step depends on the sparsifier, so [`Backend`] is a closed enum with
//! one solve body ([`Backend::solve`]) and one streamed solve
//! ([`Backend::solve_streamed`]); the variant picks the mark step and the
//! two quantitative **claims** its theory makes: a worst-case size bound
//! on `|E(H)|` and an end-to-end approximation ratio. The claims are
//! load-bearing, not documentation: the `backend` check oracle certifies
//! both against the exact blossom solver per sweep seed, so a backend
//! that violates its own claim is a shrinkable counterexample, and
//! `results/RESULTS.md` only races backends that passed that gate first.
//!
//! Two backends ship:
//!
//! - [`Backend::Delta`] (`delta`): the paper's `G_Δ`. Claims: `1+ε`
//!   ratio (Theorem 3.1), size `n · 2Δ_stage` where `Δ_stage` comes from
//!   [`stage_params`] — the Δ the pipeline *actually* marks with.
//! - [`Backend::Edcs`] (`edcs`): the Assadi–Bernstein edge-degree
//!   constrained subgraph (arXiv:1811.02009). Claims: `(3/2)(1+λ)(1+ε)`
//!   ratio (the `3/2` is tight even for bipartite graphs,
//!   arXiv:2406.07630), size `n(β−1)/2`. Deterministic and
//!   randomness-free, but construction reads every edge — the opposite
//!   trade-off from `G_Δ`'s sublinear randomized marking.
//!
//! Mark and extract run on the requested thread count, clamped to the
//! host's hardware threads; the match stage's greedy is one sequential
//! scan. Every stage is deterministic for a fixed seed, so the output is
//! byte-identical for any accepted thread count (marking uses per-vertex
//! seeded RNG streams and extraction produces the sequential CSR
//! layout).

use crate::edcs::{build_edcs, build_edcs_streamed, mark_edcs_into, EdcsParams};
use crate::params::SparsifierParams;
use crate::pipeline::{match_stage, stage_eps, stage_params, PipelineResult};
use crate::scratch::PipelineScratch;
use crate::sparsifier::{
    build_sparsifier_parallel, mark_edges, MarkSummary, ThreadCountError, MAX_THREADS,
};
use crate::stream_build::{
    build_sparsifier_streamed, RetryPolicy, StreamBuildError, StreamBuildReport,
};
use sparsimatch_graph::adjacency::ProbeCounts;
use sparsimatch_graph::csr::{CsrGraph, PARALLEL_LAYOUT_CUTOFF};
use sparsimatch_graph::edge_stream::EdgeStreamSource;
use sparsimatch_matching::blossom::BlossomSearcher;
use sparsimatch_matching::Matching;
use sparsimatch_obs::{keys, WorkMeter};
use std::sync::OnceLock;
use std::time::Instant;

/// Below this many *input* edges the mark stage ignores the requested
/// thread count and runs sequentially: worker spawn plus shard merge
/// overhead exceeds the marking work itself.
const MARK_PARALLEL_CUTOFF: usize = 1 << 17;

/// Below this many *marked* edges the extract stage runs sequentially —
/// the cutoff [`CsrScratch::rebuild_from_marked`] applies itself.
///
/// [`CsrScratch::rebuild_from_marked`]: sparsimatch_graph::csr::CsrScratch::rebuild_from_marked
const EXTRACT_PARALLEL_CUTOFF: usize = PARALLEL_LAYOUT_CUTOFF;

/// The host's hardware thread count (cached; 1 when it cannot be read).
fn host_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Adaptive dispatch, the one place the mark and extract stages of
/// [`Backend::solve`] pick their worker count: the count a stage should
/// actually use for `work_items` units of work, given the caller asked
/// for `requested` threads — never more than the host runs at once, and
/// one below `cutoff`. Every stage is thread-count invariant, so the
/// count changes only the wall clock, never the output.
fn stage_threads(requested: usize, work_items: usize, cutoff: usize) -> usize {
    if work_items < cutoff {
        1
    } else {
        requested.min(host_threads())
    }
}

/// Which backend to run — the value the CLI's `--backend` flag, the
/// serve wire protocol's `backend` field, and the check harness's
/// `--backend` filter all parse into.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The paper's `G_Δ` sparsifier pipeline.
    Delta,
    /// The Assadi–Bernstein edge-degree constrained subgraph.
    Edcs,
}

impl BackendKind {
    /// Every backend, in report order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Delta, BackendKind::Edcs];

    /// The stable wire/CLI name (`"delta"` / `"edcs"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Delta => "delta",
            BackendKind::Edcs => "edcs",
        }
    }

    /// Parse a wire/CLI name. Returns `None` for anything but the exact
    /// lowercase names, so callers produce their own typed errors.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s {
            "delta" => Some(BackendKind::Delta),
            "edcs" => Some(BackendKind::Edcs),
            _ => None,
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A configured matching sparsifier: build `H ⊆ G`, solve through it,
/// and state the claims the check oracle certifies. See the
/// [module docs](self).
///
/// # Examples
///
/// A clique has neighborhood independence β = 1 and a perfect matching;
/// the `delta` backend returns a valid matching of the *original* graph
/// within the end-to-end `(1+ε)` target:
///
/// ```
/// use sparsimatch_core::backend::Backend;
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_core::scratch::PipelineScratch;
/// use sparsimatch_graph::generators::clique;
///
/// let g = clique(40); // exact MCM = 20
/// let backend = Backend::Delta(SparsifierParams::practical(1, 0.5));
/// let mut scratch = PipelineScratch::new();
/// let result = backend.solve(&g, 7, 1, None, &mut scratch).unwrap();
/// assert!(result.matching.is_valid_for(&g));
/// assert!(20.0 <= backend.claimed_ratio() * result.matching.len() as f64);
/// ```
#[derive(Clone, Copy, Debug)]
pub enum Backend {
    /// The paper's `G_Δ` pipeline. The parameters are the caller's
    /// (pre-stage-split): `eps` is the *end-to-end* target, and both the
    /// mark and match stages run at [`stage_eps`] with Δ re-aimed by
    /// [`stage_params`]. The seed fully determines the marks.
    Delta(SparsifierParams),
    /// Solve through an `(β, β⁻)`-EDCS (see [`crate::edcs`]).
    /// Deterministic — the seed is ignored — with the match stage run at
    /// the full `eps` (no stage split; the EDCS's ratio floor is
    /// structural, not an ε budget).
    Edcs {
        /// Validated EDCS parameters (β, λ).
        params: EdcsParams,
        /// Bounded-augmentation budget for the match stage, in `(0, 1)`.
        eps: f64,
    },
}

impl Backend {
    /// Which backend this is; its [`BackendKind::as_str`] is the stable
    /// name reported in benchmark JSON and counterexample documents.
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Delta(_) => BackendKind::Delta,
            Backend::Edcs { .. } => BackendKind::Edcs,
        }
    }

    /// A one-line human-readable parameter summary for reports, e.g.
    /// `"beta=2 eps=0.5 delta=1188"`.
    pub fn params_summary(&self) -> String {
        match self {
            Backend::Delta(p) => format!("beta={} eps={} delta={}", p.beta, p.eps, p.delta),
            Backend::Edcs { params, eps } => format!(
                "beta={} lambda={} eps={eps}",
                params.beta(),
                params.lambda()
            ),
        }
    }

    /// The claimed end-to-end approximation ratio `r ≥ 1`: the backend
    /// asserts `|M*| ≤ r · |M|` for the matching `M` it returns. The
    /// check oracle tests this against exact blossom per sweep seed.
    pub fn claimed_ratio(&self) -> f64 {
        match self {
            // Theorem 3.1: a (1+ε)-approximate MCM through G_Δ.
            Backend::Delta(p) => 1.0 + p.eps,
            // EDCS contains a (3/2)(1+λ)-approximate matching
            // (arXiv:1811.02009); bounded augmentation at ε on top
            // multiplies in the remaining (1+ε).
            Backend::Edcs { params, eps } => 1.5 * (1.0 + params.lambda()) * (1.0 + eps),
        }
    }

    /// The claimed worst-case sparsifier size: the backend asserts
    /// `|E(H)| ≤` this for any `n`-vertex input. Certified per sweep.
    ///
    /// For `delta` the claim is stated for the sparsifier the pipeline
    /// *actually* builds, at [`stage_params`]' Δ — larger than the Δ of
    /// the caller's params, so the caller-params bound would be a claim
    /// about a different graph.
    pub fn claimed_size_bound(&self, n: usize) -> usize {
        match self {
            Backend::Delta(p) => stage_params(p).naive_size_bound(n),
            Backend::Edcs { params, .. } => params.size_bound(n),
        }
    }

    /// Build the sparsifier `H` alone (same vertex set as `g`). `seed`
    /// feeds `delta`'s marking; `edcs` ignores it.
    pub fn build(&self, g: &CsrGraph, seed: u64) -> CsrGraph {
        match self {
            Backend::Delta(p) => {
                build_sparsifier_parallel(g, &stage_params(p), seed, 1)
                    .expect("1 is a valid thread count")
                    .graph
            }
            Backend::Edcs { params, .. } => build_edcs(g, params).0,
        }
    }

    /// The ε the match stage's bounded augmentation runs at.
    fn match_eps(&self) -> f64 {
        match self {
            Backend::Delta(p) => stage_eps(p.eps),
            Backend::Edcs { eps, .. } => *eps,
        }
    }

    /// Build-and-match through a caller-owned arena: mark, extract, then
    /// greedy plus bounded augmentation on the sparsifier. The returned
    /// reference points at [`PipelineScratch::result`], valid until the
    /// next run through the same arena. After a warm-up call on a given
    /// input size, repeat calls with `meter: None` perform zero heap
    /// allocations on the sequential path; a one-shot caller passes
    /// `&mut PipelineScratch::new()` and clones the result.
    ///
    /// The result depends only on `seed` — never on `threads`, which
    /// sets the worker count for the `delta` mark and extract stages
    /// (the EDCS fixpoint is sequential: its pass order is the
    /// determinism contract). Rejects `threads` outside
    /// `1..=`[`MAX_THREADS`] with a [`ThreadCountError`].
    ///
    /// **Passthrough.** `delta`'s mark stage starts with one degree pass
    /// (the ledger's first `n` degree probes; at one worker it also sizes
    /// the sampler). When the largest degree is at most the stage
    /// `mark_cap`, every vertex would mark its whole neighborhood
    /// (Theorem 2.1's `deg ≤ 2Δ` rule), so `G_Δ = G`: the solve skips
    /// marking and extraction and matches on `g` itself. The result is
    /// the one the marking path reports — the sampler keeps `0..deg` and
    /// draws nothing at such degrees, and the rebuilt CSR would equal `g`
    /// because every [`CsrGraph`] is laid out canonically from its sorted
    /// endpoints. [`PipelineScratch::branch_counts`] records which branch
    /// each solve took.
    ///
    /// With a `meter`, adjacency probes, sparsifier size, and
    /// augmentation work land under the shared [`sparsimatch_obs::keys`]
    /// names, and per-stage wall-clock spans under [`keys::STAGE_MARK`],
    /// [`keys::STAGE_EXTRACT`], [`keys::STAGE_MATCH`], and
    /// [`keys::PIPELINE_TOTAL`]. `delta` adds its degree probes, sampler
    /// RNG draws, and overlay writes; `edcs` reads no degrees and draws
    /// no randomness, so it emits none of those keys, and its neighbor
    /// probes are the fixpoint's `passes × 2m` half-edge visits — the
    /// linear-scan cost that separates it from the sublinear `delta`.
    pub fn solve<'s>(
        &self,
        g: &CsrGraph,
        seed: u64,
        threads: usize,
        meter: Option<&mut WorkMeter>,
        scratch: &'s mut PipelineScratch,
    ) -> Result<&'s PipelineResult, ThreadCountError> {
        // Reject bad thread counts up front: the stages below only ever
        // see validated worker counts.
        if threads == 0 || threads > MAX_THREADS {
            return Err(ThreadCountError { requested: threads });
        }
        let total_start = Instant::now();
        let PipelineScratch {
            sampler,
            indices,
            ids,
            csr,
            searcher,
            edcs_in,
            edcs_deg,
            result,
            branches,
            ..
        } = &mut *scratch;

        // Stage 1: mark — the only backend-specific step. It fills the
        // sorted kept edge ids (unless `G_Δ = G`), the sparsifier stats,
        // and the probes, and fixes the worker count the extract stage
        // runs with.
        let mark_start = Instant::now();
        let (threads, sampler_work, passthrough) = match self {
            Backend::Delta(params) => {
                let params = stage_params(params);
                let max_degree = g.max_degree();
                let passthrough = max_degree <= params.mark_cap();
                let marks = if passthrough {
                    branches.passthrough += 1;
                    MarkSummary::keep_all(g, &params)
                } else {
                    branches.marking += 1;
                    let workers = stage_threads(threads, g.num_edges(), MARK_PARALLEL_CUTOFF);
                    if workers == 1 {
                        sampler.ensure_capacity(max_degree);
                    }
                    mark_edges(g, &params, seed, workers, sampler, indices, ids)
                };
                result.sparsifier = marks.stats;
                result.probes = marks.probes(g.num_vertices());
                (
                    threads,
                    Some((marks.rng_draws, marks.overlay_writes)),
                    passthrough,
                )
            }
            Backend::Edcs { params, .. } => {
                let stats = mark_edcs_into(g, params, edcs_in, edcs_deg, ids);
                result.sparsifier = stats.as_sparsifier_stats(params);
                // The linear half-edge scan cost `passes × 2m` — no
                // sublinearity claim is made for this backend.
                result.probes = ProbeCounts {
                    degree_probes: 0,
                    neighbor_probes: stats.passes as u64 * 2 * g.num_edges() as u64,
                };
                (1, None, false)
            }
        };
        let mark_nanos = mark_start.elapsed().as_nanos();

        // Stage 2: extract the sparsifier CSR (byte-identical to the
        // sequential layout for any worker count). Under passthrough the
        // rebuild would reproduce `g`, so the match stage reads `g`.
        let extract_start = Instant::now();
        let sparse: &CsrGraph = if passthrough {
            g
        } else {
            let workers = stage_threads(threads, ids.len(), EXTRACT_PARALLEL_CUTOFF);
            csr.rebuild_from_marked(g, ids, workers)
        };
        result.sparsifier.edges = sparse.num_edges();
        let extract_nanos = extract_start.elapsed().as_nanos();

        // Stage 3: greedy init + bounded augmentation on the sparsifier.
        let match_start = Instant::now();
        result.aug = match_stage(sparse, self.match_eps(), &mut result.matching, searcher);
        let match_nanos = match_start.elapsed().as_nanos();
        debug_assert!(
            result.matching.is_valid_for(g),
            "sparsifier must be a subgraph"
        );

        if let Some(meter) = meter {
            if let Some((rng_draws, overlay_writes)) = sampler_work {
                meter.add(keys::DEGREE_PROBES, result.probes.degree_probes);
                meter.add(keys::RNG_DRAWS, rng_draws);
                meter.add(keys::OVERLAY_WRITES, overlay_writes);
            }
            meter.add(keys::NEIGHBOR_PROBES, result.probes.neighbor_probes);
            meter.add(keys::SPARSIFIER_EDGES, result.sparsifier.edges as u64);
            meter.add(keys::EDGE_VISITS, result.aug.edge_visits);
            meter.add(keys::AUG_SEARCHES, result.aug.searches as u64);
            meter.add(keys::AUGMENTATIONS, result.aug.augmentations as u64);
            meter.add_span(keys::STAGE_MARK, 1, mark_nanos);
            meter.add_span(keys::STAGE_EXTRACT, 1, extract_nanos);
            meter.add_span(keys::STAGE_MATCH, 1, match_nanos);
            meter.add_span(keys::PIPELINE_TOTAL, 1, total_start.elapsed().as_nanos());
        }

        scratch.note_high_water();
        Ok(scratch.result())
    }

    /// Build-and-match from a rescannable lex-sorted edge stream without
    /// materializing the parent graph, reporting resident-memory and scan
    /// accounting. For a stream of graph `g` the [`PipelineResult`] —
    /// matching pairs, sparsifier stats, probes, augmentation stats — is
    /// identical to [`Backend::solve`] on `g` at any thread count.
    ///
    /// The `delta` build re-runs a failed pass under `policy`; a
    /// recovered build is byte-identical to a fault-free one, its pass
    /// restarts land on the meter's `io.retries` key, and a spent budget
    /// is [`StreamBuildError::RetriesExhausted`]. The `edcs` build gives
    /// each fixpoint pass a single attempt and ignores `policy` and
    /// `meter`.
    pub fn solve_streamed(
        &self,
        src: &mut dyn EdgeStreamSource,
        seed: u64,
        policy: &RetryPolicy,
        meter: Option<&mut WorkMeter>,
    ) -> Result<(PipelineResult, StreamBuildReport), StreamBuildError> {
        let (h, sparsifier, report) = match self {
            Backend::Delta(params) => {
                let (s, report) =
                    build_sparsifier_streamed(src, &stage_params(params), seed, policy, meter)?;
                (s.graph, s.stats, report)
            }
            Backend::Edcs { params, .. } => {
                let (h, stats, report) = build_edcs_streamed(src, params)?;
                (h, stats.as_sparsifier_stats(params), report)
            }
        };
        let mut matching = Matching::new(0);
        let mut searcher = BlossomSearcher::new(&matching);
        let aug = match_stage(&h, self.match_eps(), &mut matching, &mut searcher);
        Ok((
            PipelineResult {
                matching,
                sparsifier,
                probes: report.probes,
                aug,
            },
            report,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use sparsimatch_graph::generators::{clique, gnp};

    #[test]
    fn kind_names_roundtrip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(BackendKind::parse("EDCS"), None);
        assert_eq!(BackendKind::parse(""), None);
    }

    #[test]
    fn delta_backend_build_matches_pipeline_sparsifier_size() {
        let g = clique(60);
        let backend = Backend::Delta(SparsifierParams::practical(1, 0.5));
        let h = backend.build(&g, 3);
        let mut scratch = PipelineScratch::new();
        let r = backend.solve(&g, 3, 1, None, &mut scratch).unwrap();
        assert_eq!(h.num_edges(), r.sparsifier.edges);
        assert!(h.num_edges() <= backend.claimed_size_bound(g.num_vertices()));
    }

    fn both_backends() -> [Backend; 2] {
        [
            Backend::Delta(SparsifierParams::practical(2, 0.4)),
            Backend::Edcs {
                params: EdcsParams::new(16, 0.125).unwrap(),
                eps: 0.4,
            },
        ]
    }

    #[test]
    fn both_backends_honor_claims_on_a_smoke_instance() {
        use sparsimatch_matching::blossom::maximum_matching;
        let mut rng = StdRng::seed_from_u64(5);
        let g = gnp(200, 0.08, &mut rng);
        let exact = maximum_matching(&g).len() as f64;
        let mut scratch = PipelineScratch::new();
        for b in both_backends() {
            let h = b.build(&g, 1);
            assert!(
                h.num_edges() <= b.claimed_size_bound(g.num_vertices()),
                "{}: size claim",
                b.kind()
            );
            let r = b.solve(&g, 1, 1, None, &mut scratch).unwrap();
            assert!(r.matching.is_valid_for(&g), "{}", b.kind());
            assert!(
                exact <= b.claimed_ratio() * r.matching.len() as f64 + 1e-9,
                "{}: ratio claim ({} vs {} at r={})",
                b.kind(),
                exact,
                r.matching.len(),
                b.claimed_ratio()
            );
            assert!(!b.params_summary().is_empty());
        }
    }

    #[test]
    fn streamed_solve_matches_in_memory_solve() {
        let g = clique(50);
        for b in both_backends() {
            let mut src = g.clone();
            let mut scratch = PipelineScratch::new();
            let (streamed, report) = b
                .solve_streamed(&mut src, 9, &RetryPolicy::none(), None)
                .unwrap();
            let in_mem = b.solve(&g, 9, 1, None, &mut scratch).unwrap();
            assert_eq!(streamed.matching, in_mem.matching, "{}", b.kind());
            assert_eq!(streamed.sparsifier, in_mem.sparsifier, "{}", b.kind());
            assert_eq!(streamed.probes, in_mem.probes, "{}", b.kind());
            assert!(report.edges_scanned > 0, "{}", b.kind());
        }
    }

    #[test]
    fn metered_solve_matches_unmetered_and_emits_each_backends_keys() {
        let g = clique(120);
        for b in both_backends() {
            let mut meter = WorkMeter::new();
            let mut scratch = PipelineScratch::new();
            let plain = b.solve(&g, 7, 2, None, &mut scratch).unwrap().clone();
            let metered = b.solve(&g, 7, 2, Some(&mut meter), &mut scratch).unwrap();
            assert_eq!(
                plain.matching, metered.matching,
                "metering must not perturb"
            );
            assert_eq!(plain.probes, metered.probes);
            assert_eq!(plain.sparsifier, metered.sparsifier);
            assert_eq!(
                meter.get(keys::NEIGHBOR_PROBES),
                metered.probes.neighbor_probes
            );
            assert_eq!(
                meter.get(keys::SPARSIFIER_EDGES),
                metered.sparsifier.edges as u64
            );
            assert_eq!(meter.get(keys::EDGE_VISITS), metered.aug.edge_visits);
            let names: Vec<&str> = meter.counters().map(|(k, _)| k).collect();
            let sampler_keys = [keys::DEGREE_PROBES, keys::RNG_DRAWS, keys::OVERLAY_WRITES];
            for key in sampler_keys {
                assert_eq!(
                    names.contains(&key),
                    b.kind() == BackendKind::Delta,
                    "{}: key {key}",
                    b.kind()
                );
            }
            // Per-stage spans recorded exactly once each.
            for key in [
                keys::STAGE_MARK,
                keys::STAGE_EXTRACT,
                keys::STAGE_MATCH,
                keys::PIPELINE_TOTAL,
            ] {
                assert_eq!(meter.span_stats(key).count, 1, "span {key}");
            }
            let stage_sum = meter.span_stats(keys::STAGE_MARK).total_nanos
                + meter.span_stats(keys::STAGE_EXTRACT).total_nanos
                + meter.span_stats(keys::STAGE_MATCH).total_nanos;
            assert!(stage_sum <= meter.span_stats(keys::PIPELINE_TOTAL).total_nanos);
        }
    }

    /// The marking path's answer for `p` on `g`: the reference build
    /// (which marks unconditionally) then the match stage, plus the
    /// build's metered probe and sampler counters.
    fn marking_reference(
        g: &CsrGraph,
        p: &SparsifierParams,
        seed: u64,
    ) -> (PipelineResult, Vec<(String, u64)>) {
        let mut meter = WorkMeter::new();
        let built = crate::sparsifier::build_sparsifier_parallel_metered(
            g,
            &stage_params(p),
            seed,
            1,
            &mut meter,
        )
        .unwrap();
        let mut matching = Matching::new(0);
        let mut searcher = BlossomSearcher::new(&matching);
        let aug = match_stage(&built.graph, stage_eps(p.eps), &mut matching, &mut searcher);
        let result = PipelineResult {
            matching,
            sparsifier: built.stats,
            probes: ProbeCounts {
                degree_probes: meter.get(keys::DEGREE_PROBES),
                neighbor_probes: meter.get(keys::NEIGHBOR_PROBES),
            },
            aug,
        };
        let counters = meter.counters().map(|(k, v)| (k.to_string(), v)).collect();
        (result, counters)
    }

    /// Solve `g` at t ∈ {1, 2} through a fresh arena and assert the result
    /// and the sampler counters equal the marking reference; returns
    /// whether the solves took the passthrough branch.
    fn solve_matches_marking_reference(g: &CsrGraph, p: &SparsifierParams, seed: u64) -> bool {
        let (reference, ref_counters) = marking_reference(g, p, seed);
        let mut scratch = PipelineScratch::new();
        for threads in [1, 2] {
            let mut meter = WorkMeter::new();
            let r = Backend::Delta(*p)
                .solve(g, seed, threads, Some(&mut meter), &mut scratch)
                .unwrap();
            assert_eq!(r.matching, reference.matching, "t = {threads}");
            assert_eq!(r.sparsifier, reference.sparsifier, "t = {threads}");
            assert_eq!(r.probes, reference.probes, "t = {threads}");
            assert_eq!(r.aug, reference.aug, "t = {threads}");
            for (key, value) in &ref_counters {
                assert_eq!(meter.get(key), *value, "t = {threads}: {key}");
            }
        }
        let counts = scratch.branch_counts();
        assert_eq!(counts.passthrough + counts.marking, 2);
        assert!(counts.passthrough == 0 || counts.marking == 0, "{counts:?}");
        counts.passthrough == 2
    }

    #[test]
    fn passthrough_boundary_is_max_degree_equal_to_mark_cap() {
        let p = SparsifierParams::with_delta(1, 0.5, 2);
        let cap = stage_params(&p).mark_cap();
        // A clique on `cap + 1` vertices puts every degree at exactly
        // `cap`; a path and isolated vertices sit below it.
        let n = cap + 12;
        let mut edges: Vec<(usize, usize)> = (0..=cap)
            .flat_map(|u| (u + 1..=cap).map(move |v| (u, v)))
            .collect();
        edges.extend((cap + 1..cap + 6).map(|u| (u, u + 1)));
        let at_cap = sparsimatch_graph::csr::from_edges(n, edges.iter().copied());
        assert_eq!(at_cap.max_degree(), cap);
        // One more edge lifts a single clique vertex to `cap + 1`.
        edges.push((0, n - 1));
        let above_cap = sparsimatch_graph::csr::from_edges(n, edges);
        assert_eq!(above_cap.max_degree(), cap + 1);
        for seed in [3u64, 11] {
            assert!(solve_matches_marking_reference(&at_cap, &p, seed));
            assert!(!solve_matches_marking_reference(&above_cap, &p, seed));
        }
        let (r, counters) = marking_reference(&at_cap, &p, 3);
        let (n, m) = (at_cap.num_vertices(), at_cap.num_edges());
        assert_eq!(
            (
                r.sparsifier.low_degree_vertices,
                r.sparsifier.marks_placed,
                r.sparsifier.edges
            ),
            (n, 2 * m, m)
        );
        assert_eq!(
            (r.probes.degree_probes, r.probes.neighbor_probes),
            (2 * n as u64, 2 * m as u64)
        );
        for key in [keys::RNG_DRAWS, keys::OVERLAY_WRITES] {
            assert!(counters.contains(&(key.to_string(), 0)), "{key}");
        }
    }

    #[test]
    fn marking_reproduces_the_input_whenever_it_passes_through() {
        let mut rng = StdRng::seed_from_u64(12);
        let p = SparsifierParams::practical(2, 0.4);
        let cap = stage_params(&p).mark_cap();
        let inputs = [
            sparsimatch_graph::csr::from_edges(0, []),
            sparsimatch_graph::csr::from_edges(7, []),
            sparsimatch_graph::csr::from_edges(9, [(0, 1), (2, 3), (3, 4)]),
            clique(cap + 1),
            gnp(300, 0.05, &mut rng),
            sparsimatch_graph::generators::clique_union(
                sparsimatch_graph::generators::CliqueUnionConfig {
                    n: 400,
                    diversity: 2,
                    clique_size: 20,
                },
                &mut rng,
            ),
        ];
        for (i, g) in inputs.iter().enumerate() {
            assert!(g.max_degree() <= cap, "input {i} must pass through");
            for threads in [1, 2, 4] {
                let built = build_sparsifier_parallel(g, &stage_params(&p), 5, threads).unwrap();
                assert!(built.graph == *g, "input {i} at t = {threads}");
            }
            assert!(solve_matches_marking_reference(g, &p, 5), "input {i}");
        }
    }

    #[test]
    fn dispatch_never_exceeds_the_host() {
        let host = host_threads();
        assert!(host >= 1);
        for requested in 1..=MAX_THREADS {
            for work in [
                0,
                MARK_PARALLEL_CUTOFF - 1,
                MARK_PARALLEL_CUTOFF,
                usize::MAX,
            ] {
                let t = stage_threads(requested, work, MARK_PARALLEL_CUTOFF);
                assert!((1..=host.min(requested)).contains(&t), "{requested} {work}");
            }
            assert_eq!(stage_threads(requested, usize::MAX, 1), requested.min(host));
        }
    }

    #[test]
    fn both_backends_reject_bad_thread_counts() {
        let g = clique(20);
        let mut scratch = PipelineScratch::new();
        for b in both_backends() {
            assert!(b.solve(&g, 1, 0, None, &mut scratch).is_err());
            assert!(b.solve(&g, 1, 65, None, &mut scratch).is_err());
            // And the arena still works after a rejected call.
            assert!(b.solve(&g, 1, 64, None, &mut scratch).is_ok());
        }
    }
}
