//! Oracle comparators: run an algorithm on an instance and judge the
//! output against ground truth computed the slow, trustworthy way.
//!
//! Every check here is a paper claim made executable at small `n`:
//!
//! * **static** — the Theorem 3.1 pipeline vs exact blossom MCM
//!   (`|MCM(G)| ≤ (1+ε)·|pipeline(G)|`), the β certificate audited by
//!   exact branch and bound, and the sparsifier invariants: subgraph-ness,
//!   the Observation 2.10 size bound, the Observation 2.12 arboricity
//!   bound, and the Theorem 2.1 sparsification ratio itself.
//! * **dynamic** — the Theorem 3.5 window scheme replayed against a full
//!   recompute (exact blossom on a reference graph) at periodic audits,
//!   plus validity of the served matching at every audit and the
//!   per-update work cap.
//! * **distsim** — the Theorem 3.2/3.3 distributed pipeline vs the
//!   sequential pipeline on the same seed, byte-identity of the sharded
//!   engine at t ∈ {1, 2, 4} with a sequential [`FaultyNetwork`]
//!   reference (perfect and under a seeded fault plan), and validity
//!   under that plan.
//! * **scratch** — the warm-scratch pipeline ([`Backend::solve`]
//!   through the sweep's shared arena) vs a fresh-arena cold run,
//!   byte-for-byte across matching pairs, sparsifier stats,
//!   probes, and augmentation stats, at several thread counts and on a
//!   deliberately dirty reused arena.
//! * **stream** — the out-of-core streamed pipeline
//!   ([`Backend::solve_streamed`]) vs the in-memory one, byte-for-byte on
//!   the same fingerprint, plus the streaming report's own invariants
//!   (`sparsifier_bytes ≤ peak_resident_bytes`, two passes = `4m`
//!   half-edge visits). The graph streams from its own CSR — the
//!   file-backed source is pinned separately by proptest — so the sweep
//!   stays hermetic.
//! * **chaos-stream** — the streamed pipeline under a seeded
//!   [`IoFaultPlan`] (the I/O twin of distsim's `FaultPlan`): a
//!   recoverable plan plus a matching [`RetryPolicy`] must reproduce the
//!   fault-free run byte-for-byte with every aborted rescan charged to
//!   the work accounting, and an unrecoverable plan must surface a typed
//!   [`StreamBuildError`] — never a panic, never a silently wrong
//!   sparsifier.
//! * **backend** — every [`Backend`]'s self-declared claims hold: the
//!   built subgraph respects its claimed size bound and local invariants
//!   (for EDCS, Properties A and B plus in-memory/streamed build
//!   identity), and the solved matching is within the claimed ratio of
//!   exact blossom. Cross-thread identity is the scratch oracle's job.
//!
//! A whole seed sweep shares one [`PipelineScratch`] (see
//! [`OracleKind::check_with_scratch`]), so every oracle's sequential
//! pipeline runs exercise the steady-state reuse path the scratch oracle
//! certifies.
//!
//! Oracles return the *first* violation they find; messages embed the
//! concrete numbers so a reproducer file doubles as a witness.

use crate::instance::{CheckConfig, CheckInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsimatch_core::backend::{Backend, BackendKind};
use sparsimatch_core::edcs::{build_edcs, build_edcs_streamed, edcs_violation, EdcsParams};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::pipeline::stage_params;
use sparsimatch_core::scratch::PipelineScratch;
use sparsimatch_core::solomon::degree_cap_for;
use sparsimatch_core::sparsifier::build_sparsifier;
use sparsimatch_core::stream_build::{RetryPolicy, StreamBuildError};
use sparsimatch_distsim::algorithms::matching::bounded_degree_matching;
use sparsimatch_distsim::algorithms::pipeline::{
    distributed_matching, DistAlgo, DistributedOutcome,
};
use sparsimatch_distsim::algorithms::solomon::distributed_solomon;
use sparsimatch_distsim::algorithms::sparsify::distributed_sparsifier;
use sparsimatch_distsim::{
    FaultPlan, FaultRates, FaultStats, FaultyNetwork, Metrics, ResilienceParams,
};
use sparsimatch_dynamic::adversary::Update;
use sparsimatch_dynamic::scheme::DynamicMatcher;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::analysis::arboricity::arboricity_bounds;
use sparsimatch_graph::analysis::independence::neighborhood_independence_at_most;
use sparsimatch_graph::csr::CsrGraph;
use sparsimatch_graph::edge_stream::{FaultyEdgeSource, IoFaultPlan, IoFaultRates};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::blossom::maximum_matching;
use sparsimatch_matching::Matching;

/// Additive slack on the dynamic ratio check: the served matching may be
/// one window stale (Gupta–Peng stability) and pruned by in-window
/// deletions, which at these instance sizes is worth a couple of edges on
/// top of the `(1+ε)` factor.
pub const DYNAMIC_ABS_SLACK: f64 = 2.0;

/// Additive slack on the distributed ratio checks: the whp guarantee is
/// asymptotic, and a single unlucky vertex at `n ≤ 34` is one matched
/// edge of noise.
pub const DISTSIM_ABS_SLACK: f64 = 2.0;

/// How often the dynamic oracle stops the stream and compares against a
/// full recompute (every update would be O(steps · blossom); every 25th
/// plus the final state keeps the sweep fast without losing the bug the
/// audit exists to catch).
const DYNAMIC_AUDIT_PERIOD: usize = 25;

/// Additive slack on the backend ratio checks: the claims are worst-case
/// asymptotic statements, and at `n ≤ 40` a single unlucky vertex is one
/// matched edge of noise — the same allowance the dynamic and distsim
/// oracles get.
pub const BACKEND_ABS_SLACK: f64 = 2.0;

/// Tiny epsilon absorbing float rounding in ratio comparisons.
const FLOAT_FUDGE: f64 = 1e-9;

/// A failed check: which invariant broke, with a concrete witness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable slug naming the invariant (e.g. `thm3.1-ratio`).
    pub check: String,
    /// Human-readable witness with the measured numbers.
    pub message: String,
}

impl Violation {
    fn new(check: &str, message: String) -> Self {
        Violation {
            check: check.to_string(),
            message,
        }
    }
}

/// Which oracle judges a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// Sequential pipeline + sparsifier invariants + β audit.
    Static,
    /// Dynamic scheme vs full recompute under the recorded stream.
    Dynamic,
    /// Distributed pipeline (perfect + faulty) vs the sequential one.
    Distsim,
    /// Warm-scratch pipeline vs the cold one-shot path, byte-for-byte.
    Scratch,
    /// Out-of-core streamed pipeline vs the in-memory one, byte-for-byte.
    Stream,
    /// Streamed pipeline under seeded I/O faults: recoverable plans must
    /// retry to byte identity, unrecoverable ones must fail typed.
    ChaosStream,
    /// The backend trait contract: delta-behind-trait byte identity plus
    /// each backend's claimed size bound, local invariants, and claimed
    /// ratio vs exact blossom.
    Backend,
}

impl OracleKind {
    /// Stable name used in reproducer files.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Static => "static",
            OracleKind::Dynamic => "dynamic",
            OracleKind::Distsim => "distsim",
            OracleKind::Scratch => "scratch",
            OracleKind::Stream => "stream",
            OracleKind::ChaosStream => "chaos-stream",
            OracleKind::Backend => "backend",
        }
    }

    /// Parse a reproducer's oracle name.
    pub fn from_name(name: &str) -> Result<OracleKind, String> {
        match name {
            "static" => Ok(OracleKind::Static),
            "dynamic" => Ok(OracleKind::Dynamic),
            "distsim" => Ok(OracleKind::Distsim),
            "scratch" => Ok(OracleKind::Scratch),
            "stream" => Ok(OracleKind::Stream),
            "chaos-stream" => Ok(OracleKind::ChaosStream),
            "backend" => Ok(OracleKind::Backend),
            other => Err(format!("unknown oracle {other:?}")),
        }
    }

    /// Run this oracle on `inst`, returning the first violated invariant.
    /// Builds a fresh pipeline arena per call; sweeps should prefer
    /// [`OracleKind::check_with_scratch`] to reuse one across seeds.
    pub fn check(self, inst: &CheckInstance, cfg: &CheckConfig) -> Option<Violation> {
        self.check_with_scratch(inst, cfg, &mut PipelineScratch::new())
    }

    /// [`OracleKind::check`] running every sequential-pipeline invocation
    /// through a caller-owned [`PipelineScratch`]. Identical verdicts —
    /// warm-vs-cold byte identity is exactly what the scratch oracle
    /// proves — but a seed sweep stops paying per-seed buffer churn.
    pub fn check_with_scratch(
        self,
        inst: &CheckInstance,
        cfg: &CheckConfig,
        scratch: &mut PipelineScratch,
    ) -> Option<Violation> {
        match self {
            OracleKind::Static => check_static(inst, cfg, scratch),
            OracleKind::Dynamic => check_dynamic(inst, cfg),
            OracleKind::Distsim => check_distsim(inst, cfg, scratch),
            OracleKind::Scratch => check_scratch(inst, cfg, scratch),
            OracleKind::Stream => check_stream(inst, cfg, scratch),
            OracleKind::ChaosStream => check_chaos_stream(inst, cfg),
            OracleKind::Backend => check_backend(inst, cfg, scratch),
        }
    }
}

fn ratio_exceeded(exact: usize, approx: usize, bound: f64) -> bool {
    exact as f64 > bound * approx as f64 + FLOAT_FUDGE
}

fn check_static(
    inst: &CheckInstance,
    cfg: &CheckConfig,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    let g = inst.graph();
    // β audit: the certificate every Δ sizing rests on, verified by exact
    // branch and bound (cheap at these n).
    if !neighborhood_independence_at_most(&g, inst.beta) {
        return Some(Violation::new(
            "beta-certificate",
            format!(
                "family {} certifies beta <= {} but a larger independent neighborhood set exists",
                inst.family, inst.beta
            ),
        ));
    }
    if g.num_edges() == 0 {
        return None;
    }
    let params = inst.params();
    let bound = inst.ratio_bound(cfg);
    let exact = maximum_matching(&g);

    // Theorem 3.1: the end-to-end pipeline is a valid (1+ε)-approximation.
    let r = match Backend::Delta(params).solve(&g, inst.algo_seed, 1, None, scratch) {
        Ok(r) => r,
        Err(e) => {
            return Some(Violation::new(
                "pipeline-error",
                format!("single-threaded pipeline rejected: {e}"),
            ))
        }
    };
    if !r.matching.is_valid_for(&g) {
        return Some(Violation::new(
            "pipeline-validity",
            "pipeline output is not a valid matching of the input graph".to_string(),
        ));
    }
    if ratio_exceeded(exact.len(), r.matching.len(), bound) {
        return Some(Violation::new(
            "thm3.1-ratio",
            format!(
                "exact MCM {} > {bound:.4} x pipeline matching {} (delta = {})",
                exact.len(),
                r.matching.len(),
                params.delta
            ),
        ));
    }

    // Sparsifier invariants on an independently seeded construction.
    let s = build_sparsifier(&g, &params, &mut StdRng::seed_from_u64(inst.algo_seed));
    for (_, u, v) in s.graph.edges() {
        if !g.has_edge(u, v) {
            return Some(Violation::new(
                "sparsifier-subgraph",
                format!(
                    "sparsifier contains ({}, {}) which is not an input edge",
                    u.0, v.0
                ),
            ));
        }
    }
    if s.stats.edges > params.size_bound(exact.len()) {
        return Some(Violation::new(
            "obs2.10-size",
            format!(
                "sparsifier has {} edges > 2·MCM·(cap+beta) = {}",
                s.stats.edges,
                params.size_bound(exact.len())
            ),
        ));
    }
    if s.stats.edges > params.naive_size_bound(g.num_vertices()) {
        return Some(Violation::new(
            "naive-size",
            format!(
                "sparsifier has {} edges > n·cap = {}",
                s.stats.edges,
                params.naive_size_bound(g.num_vertices())
            ),
        ));
    }
    if s.graph.num_edges() > 0 {
        let (arb_lo, _) = arboricity_bounds(&s.graph);
        if arb_lo > params.arboricity_bound() {
            return Some(Violation::new(
                "obs2.12-arboricity",
                format!(
                    "sparsifier arboricity >= {arb_lo} > 2·cap = {}",
                    params.arboricity_bound()
                ),
            ));
        }
    }
    // Theorem 2.1 proper: the sparsifier alone preserves the MCM.
    let exact_sparse = maximum_matching(&s.graph).len();
    if ratio_exceeded(exact.len(), exact_sparse, bound) {
        return Some(Violation::new(
            "thm2.1-ratio",
            format!(
                "exact MCM {} > {bound:.4} x sparsifier MCM {exact_sparse} (delta = {})",
                exact.len(),
                params.delta
            ),
        ));
    }
    None
}

fn check_dynamic(inst: &CheckInstance, cfg: &CheckConfig) -> Option<Violation> {
    let params = inst.params();
    let bound = inst.ratio_bound(cfg);
    let mut matcher = DynamicMatcher::new(inst.n, params, inst.algo_seed);
    let work_cap = 4 * matcher.work_bound();
    // Reference graph maintained the boring way; `maximum_matching` on its
    // snapshots is the full-recompute oracle.
    let mut reference = AdjListGraph::new(inst.n);
    for (i, &update) in inst.updates.iter().enumerate() {
        match update {
            Update::Insert(u, v) => {
                reference.insert_edge(u, v);
            }
            Update::Delete(u, v) => {
                reference.delete_edge(u, v);
            }
        }
        let report = matcher.apply(update);
        if report.work > work_cap {
            return Some(Violation::new(
                "thm3.5-work",
                format!(
                    "update {i} charged {} work units > 4 x bound {} (O(Delta/eps^3))",
                    report.work,
                    matcher.work_bound()
                ),
            ));
        }
        let last = i + 1 == inst.updates.len();
        if last || (i + 1) % DYNAMIC_AUDIT_PERIOD == 0 {
            let snapshot = reference.to_csr();
            if !matcher.matching().is_valid_for(&snapshot) {
                return Some(Violation::new(
                    "dynamic-validity",
                    format!("served matching invalid after update {i}"),
                ));
            }
            let exact = maximum_matching(&snapshot).len();
            let served = matcher.matching().len();
            if exact as f64 > bound * served as f64 + DYNAMIC_ABS_SLACK + FLOAT_FUDGE {
                return Some(Violation::new(
                    "thm3.5-ratio",
                    format!(
                        "after update {i}: exact MCM {exact} > {bound:.4} x served {served} + {DYNAMIC_ABS_SLACK} (delta = {})",
                        params.delta
                    ),
                ));
            }
        }
    }
    None
}

/// The seeded fault plan the distsim oracle stresses every instance with.
fn stress_plan(inst: &CheckInstance) -> FaultPlan {
    FaultPlan::new(
        inst.algo_seed ^ 0xFA17_5EED,
        FaultRates {
            drop: 0.15,
            duplicate: 0.08,
            reorder: 0.2,
            crash: 0.04,
        },
    )
    .with_crash_period(4)
}

/// The distsim oracle's sequential reference: the Theorem 3.2 pipeline
/// (sparsify → Solomon → bounded-degree matching), each phase on a fresh
/// [`FaultyNetwork`] — the single-loop transport no production path
/// builds — so the sharded engine is judged against independent code.
fn reference_pipeline(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    plan: &FaultPlan,
    resilience: ResilienceParams,
) -> DistributedOutcome {
    let mut metrics = Metrics::new();
    let mut faults = FaultStats::default();
    let mut absorb = |net: &FaultyNetwork<'_>| {
        metrics.absorb(net.metrics());
        faults.absorb(net.fault_stats());
        net.metrics().rounds
    };
    let mut net = FaultyNetwork::with_resilience(g, plan.clone(), resilience);
    let g_delta = distributed_sparsifier(&mut net, params, seed);
    let sparsify_rounds = absorb(&net);
    let mut net = FaultyNetwork::with_resilience(&g_delta, plan.clone(), resilience);
    let cap = degree_cap_for(params.arboricity_bound(), params.eps);
    let composed = distributed_solomon(&mut net, cap);
    let solomon_rounds = absorb(&net);
    let mut net = FaultyNetwork::with_resilience(&composed, plan.clone(), resilience);
    let (matching, _) = bounded_degree_matching(&mut net, params.eps);
    let matching_rounds = absorb(&net);
    DistributedOutcome {
        matching,
        metrics,
        phase_rounds: (sparsify_rounds, solomon_rounds, matching_rounds),
        composed_max_degree: composed.max_degree(),
        faults,
    }
}

/// Everything a distsim run must keep bit-identical across replays:
/// matching pairs, round/message/bit totals, and per-phase round counts.
type OutcomeFingerprint = (Vec<(u32, u32)>, u64, u64, u64, (u64, u64, u64));

fn outcome_fingerprint(o: &DistributedOutcome) -> OutcomeFingerprint {
    (
        matching_pairs(&o.matching),
        o.metrics.rounds,
        o.metrics.messages,
        o.metrics.bits,
        o.phase_rounds,
    )
}

fn matching_pairs(m: &Matching) -> Vec<(u32, u32)> {
    m.pairs()
        .map(|(u, v): (VertexId, VertexId)| (u.0, v.0))
        .collect()
}

fn check_distsim(
    inst: &CheckInstance,
    cfg: &CheckConfig,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    let g: CsrGraph = inst.graph();
    if g.num_edges() == 0 {
        return None;
    }
    let params = inst.params();
    let bound = inst.ratio_bound(cfg);
    let exact = maximum_matching(&g).len();

    // Sequential pipeline on the same seed — the comparison baseline.
    let seq = match Backend::Delta(params).solve(&g, inst.algo_seed, 1, None, scratch) {
        Ok(r) => r.matching.clone(),
        Err(e) => {
            return Some(Violation::new(
                "pipeline-error",
                format!("single-threaded pipeline rejected: {e}"),
            ))
        }
    };

    // The sequential reference, perfect and under the stress plan.
    let (none, off) = (FaultPlan::none(), ResilienceParams::off());
    let (stress, retry) = (stress_plan(inst), ResilienceParams::retry(1));
    let perfect = reference_pipeline(&g, &params, inst.algo_seed, &none, off);
    if !perfect.matching.is_valid_for(&g) {
        return Some(Violation::new(
            "distsim-validity",
            "perfect-network distributed matching invalid for the input".to_string(),
        ));
    }
    // A genuinely faulty network may lose matching size but never validity.
    let faulty = reference_pipeline(&g, &params, inst.algo_seed, &stress, retry);
    if !faulty.matching.is_valid_for(&g) {
        return Some(Violation::new(
            "faulty-validity",
            "distributed matching under faults is invalid for the input".to_string(),
        ));
    }

    // The pipeline's one engine: at every worker count the run must be
    // byte-identical to the sequential reference — perfect (with zero
    // fault counters) and faulty (stress plan + retry) alike.
    for threads in [1usize, 2, 4] {
        let run = |plan: &FaultPlan, resilience: ResilienceParams| {
            distributed_matching(
                &g,
                &params,
                inst.algo_seed,
                DistAlgo::Approx,
                plan,
                resilience,
                threads,
            )
        };
        let sharded = run(&none, off);
        if outcome_fingerprint(&sharded) != outcome_fingerprint(&perfect)
            || sharded.faults != FaultStats::default()
        {
            return Some(Violation::new(
                "sharded-identity",
                format!(
                    "t={threads} perfect run diverged from the sequential reference: \
                     {} vs {} matched, {}/{} rounds, faults {}",
                    sharded.matching.len(),
                    perfect.matching.len(),
                    sharded.metrics.rounds,
                    perfect.metrics.rounds,
                    sharded.faults
                ),
            ));
        }
        let sharded_faulty = run(&stress, retry);
        if outcome_fingerprint(&sharded_faulty) != outcome_fingerprint(&faulty)
            || sharded_faulty.faults != faulty.faults
        {
            return Some(Violation::new(
                "sharded-faulty-identity",
                format!(
                    "t={threads} faulty run diverged from the sequential reference: \
                     {} vs {} matched, {}/{} rounds, faults {} vs {}",
                    sharded_faulty.matching.len(),
                    faulty.matching.len(),
                    sharded_faulty.metrics.rounds,
                    faulty.metrics.rounds,
                    sharded_faulty.faults,
                    faulty.faults
                ),
            ));
        }
    }

    // Theorem 3.2/3.3 ratio, and agreement with the sequential pipeline.
    let slack = DISTSIM_ABS_SLACK + FLOAT_FUDGE;
    if exact as f64 > bound * perfect.matching.len() as f64 + slack {
        return Some(Violation::new(
            "thm3.2-ratio",
            format!(
                "exact MCM {exact} > {bound:.4} x distributed matching {} + {DISTSIM_ABS_SLACK}",
                perfect.matching.len()
            ),
        ));
    }
    if exact as f64 > bound * seq.len() as f64 + slack {
        return Some(Violation::new(
            "thm3.1-ratio",
            format!(
                "exact MCM {exact} > {bound:.4} x sequential pipeline {} + {DISTSIM_ABS_SLACK}",
                seq.len()
            ),
        ));
    }
    let (lo, hi) = if seq.len() <= perfect.matching.len() {
        (seq.len(), perfect.matching.len())
    } else {
        (perfect.matching.len(), seq.len())
    };
    if hi as f64 > bound * lo as f64 + slack {
        return Some(Violation::new(
            "seq-dist-agreement",
            format!(
                "sequential ({}) and distributed ({}) matchings diverge beyond {bound:.4}x + {DISTSIM_ABS_SLACK}",
                seq.len(),
                perfect.matching.len()
            ),
        ));
    }
    None
}

/// Fingerprint of everything a pipeline run reports: matching pairs plus
/// every scalar in the sparsifier, probe, and augmentation stats. Two runs
/// with equal fingerprints are byte-for-byte the same result.
type PipelineFingerprint = (
    Vec<(u32, u32)>,
    (usize, usize, usize, usize, usize),
    (u64, u64),
    (usize, usize, u64),
);

fn pipeline_fingerprint(r: &sparsimatch_core::pipeline::PipelineResult) -> PipelineFingerprint {
    (
        matching_pairs(&r.matching),
        (
            r.sparsifier.delta,
            r.sparsifier.mark_cap,
            r.sparsifier.low_degree_vertices,
            r.sparsifier.marks_placed,
            r.sparsifier.edges,
        ),
        (r.probes.degree_probes, r.probes.neighbor_probes),
        (r.aug.augmentations, r.aug.searches, r.aug.edge_visits),
    )
}

/// Thread counts the scratch oracle replays every instance at.
const SCRATCH_THREADS: [usize; 3] = [1, 2, 4];

/// The Δ of the identity oracles' marking arm.
const MARKING_ARM_DELTA: usize = 1;

/// The parameter arms the identity oracles (scratch, stream) run: the
/// instance's own parameters, plus a `marking` arm at Δ =
/// [`MARKING_ARM_DELTA`] whenever that arm's stage mark cap is below the
/// graph's largest degree. At the default sizing nearly every small
/// instance has `G_Δ = G`, so [`Backend::solve`] passes it through; the
/// marking arm keeps the other branch under the same byte-identity
/// checks. Paths, cycles and sparse draws stay within every cap and run
/// the default arm alone.
fn identity_arms(inst: &CheckInstance, g: &CsrGraph) -> Vec<(&'static str, SparsifierParams)> {
    let mut arms = vec![("default", inst.params())];
    let marking = SparsifierParams::with_delta(inst.beta, inst.eps, MARKING_ARM_DELTA);
    if marking != inst.params() && stage_params(&marking).mark_cap() < g.max_degree() {
        arms.push(("marking", marking));
    }
    arms
}

fn check_scratch(
    inst: &CheckInstance,
    cfg: &CheckConfig,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    let _ = cfg; // the identity invariant has no tunable bound
    let g: CsrGraph = inst.graph();
    for (arm, params) in identity_arms(inst, &g) {
        let delta = Backend::Delta(params);
        for threads in SCRATCH_THREADS {
            let cold = match delta.solve(
                &g,
                inst.algo_seed,
                threads,
                None,
                &mut PipelineScratch::new(),
            ) {
                Ok(r) => pipeline_fingerprint(r),
                Err(e) => {
                    return Some(Violation::new(
                        "pipeline-error",
                        format!("cold pipeline ({arm} arm) rejected {threads} threads: {e}"),
                    ))
                }
            };
            // Two warm runs through the (already dirty) shared arena: the
            // first may still grow buffers, the second is pure steady
            // state.
            for pass in ["warm", "steady"] {
                let warm = match delta.solve(&g, inst.algo_seed, threads, None, scratch) {
                    Ok(r) => pipeline_fingerprint(r),
                    Err(e) => {
                        return Some(Violation::new(
                            "pipeline-error",
                            format!("scratch pipeline ({arm} arm) rejected {threads} threads: {e}"),
                        ))
                    }
                };
                if warm != cold {
                    return Some(Violation::new(
                        "scratch-identity",
                        format!(
                            "{pass} scratch run diverged from the cold pipeline at {threads} \
                             threads ({arm} arm): {} vs {} matched pairs (family {}, n = {})",
                            warm.0.len(),
                            cold.0.len(),
                            inst.family,
                            inst.n
                        ),
                    ));
                }
            }
        }
    }
    None
}

fn check_stream(
    inst: &CheckInstance,
    cfg: &CheckConfig,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    let _ = cfg; // byte identity has no tunable bound
    let mut g: CsrGraph = inst.graph();
    let (n, m) = (g.num_vertices(), g.num_edges());
    for (arm, params) in identity_arms(inst, &g) {
        let delta = Backend::Delta(params);
        // In-memory reference through the shared warm arena — the scratch
        // oracle already certifies this equals the cold path.
        let reference = match delta.solve(&g, inst.algo_seed, 1, None, scratch) {
            Ok(r) => pipeline_fingerprint(r),
            Err(e) => {
                return Some(Violation::new(
                    "pipeline-error",
                    format!("in-memory pipeline ({arm} arm) rejected: {e}"),
                ))
            }
        };
        let (streamed, report) =
            match delta.solve_streamed(&mut g, inst.algo_seed, &RetryPolicy::none(), None) {
                Ok(r) => r,
                Err(e) => {
                    return Some(Violation::new(
                        "stream-error",
                        format!("streamed pipeline ({arm} arm) rejected its own CSR stream: {e}"),
                    ))
                }
            };
        if pipeline_fingerprint(&streamed) != reference {
            return Some(Violation::new(
                "stream-identity",
                format!(
                    "streamed pipeline diverged from the in-memory one ({arm} arm): {} vs {} \
                     matched pairs (family {}, n = {})",
                    streamed.matching.len(),
                    reference.0.len(),
                    inst.family,
                    inst.n
                ),
            ));
        }
        // The report's own invariants: the sparsifier fits inside the
        // peak, and the stream side did exactly two passes.
        if report.sparsifier_bytes > report.peak_resident_bytes {
            return Some(Violation::new(
                "stream-accounting",
                format!(
                    "sparsifier {} B exceeds the reported resident peak {} B ({arm} arm)",
                    report.sparsifier_bytes, report.peak_resident_bytes
                ),
            ));
        }
        if report.edges_scanned != 4 * m as u64 || report.probes.degree_probes != 2 * n as u64 {
            return Some(Violation::new(
                "stream-accounting",
                format!(
                    "stream-side work off contract ({arm} arm): {} half-edge visits (want {}), \
                     {} degree probes (want {})",
                    report.edges_scanned,
                    4 * m,
                    report.probes.degree_probes,
                    2 * n
                ),
            ));
        }
    }
    None
}

/// Scan attempts the chaos plan may fault before going clean; the retry
/// budget of `horizon + 1` attempts per pass then guarantees recovery
/// (attempts are burned globally and monotonically across both passes).
const CHAOS_HORIZON: u64 = 3;

/// The seeded I/O fault plan the chaos oracle stresses every instance
/// with — the streaming twin of the distsim oracle's `stress_plan`.
fn io_stress_plan(inst: &CheckInstance) -> IoFaultPlan {
    IoFaultPlan::new(
        inst.algo_seed ^ 0x10FA_175E,
        IoFaultRates {
            eio: 0.5,
            short_read: 0.4,
            torn_line: 0.4,
            header_mutation: 0.3,
        },
    )
    .with_horizon(CHAOS_HORIZON)
}

fn check_chaos_stream(inst: &CheckInstance, cfg: &CheckConfig) -> Option<Violation> {
    let _ = cfg; // byte identity has no tunable bound
    let delta = Backend::Delta(inst.params());
    // Fault-free streamed baseline, from the instance's own CSR.
    let mut clean_src = inst.graph();
    let (clean, clean_report) =
        match delta.solve_streamed(&mut clean_src, inst.algo_seed, &RetryPolicy::none(), None) {
            Ok(r) => r,
            Err(e) => {
                return Some(Violation::new(
                    "stream-error",
                    format!("fault-free streamed pipeline rejected its own CSR stream: {e}"),
                ))
            }
        };

    // Recoverable chaos: a seeded plan bounded by CHAOS_HORIZON plus a
    // retry budget that covers it must converge to the identical result.
    let mut faulty = FaultyEdgeSource::new(inst.graph(), io_stress_plan(inst));
    let policy = RetryPolicy::attempts(CHAOS_HORIZON as u32 + 1);
    let (recovered, report) = match delta.solve_streamed(&mut faulty, inst.algo_seed, &policy, None)
    {
        Ok(r) => r,
        Err(e) => {
            return Some(Violation::new(
                "chaos-recovery",
                format!("recoverable fault plan exhausted the retry budget: {e}"),
            ))
        }
    };
    if pipeline_fingerprint(&recovered) != pipeline_fingerprint(&clean) {
        return Some(Violation::new(
            "chaos-identity",
            format!(
                "retried streamed pipeline diverged from the fault-free run: {} vs {} matched \
                 pairs (family {}, n = {})",
                recovered.matching.len(),
                clean.matching.len(),
                inst.family,
                inst.n
            ),
        ));
    }
    // Every injected fault is one aborted rescan, and aborted scans only
    // ever add half-edge visits on top of the clean 4m.
    if report.io_retries != faulty.stats().total() {
        return Some(Violation::new(
            "chaos-accounting",
            format!(
                "io_retries {} != injected faults {}",
                report.io_retries,
                faulty.stats().total()
            ),
        ));
    }
    if report.edges_scanned < clean_report.edges_scanned {
        return Some(Violation::new(
            "chaos-accounting",
            format!(
                "retried run reports {} half-edge visits < fault-free {}",
                report.edges_scanned, clean_report.edges_scanned
            ),
        ));
    }

    // Unrecoverable chaos: every scan attempt faults, so the budget must
    // run out with a typed error — the failure mode is a report, not a
    // panic and not a quietly corrupted sparsifier.
    let hard = IoFaultPlan::new(
        inst.algo_seed ^ 0x00DE_AD10,
        IoFaultRates {
            eio: 1.0,
            ..IoFaultRates::default()
        },
    );
    let mut doomed = FaultyEdgeSource::new(inst.graph(), hard);
    match delta.solve_streamed(&mut doomed, inst.algo_seed, &policy, None) {
        Err(StreamBuildError::RetriesExhausted { pass: 1, .. }) => None,
        Err(e) => Some(Violation::new(
            "chaos-typed-failure",
            format!("unrecoverable plan failed in the wrong place: {e}"),
        )),
        Ok(_) => Some(Violation::new(
            "chaos-typed-failure",
            "unrecoverable fault plan produced a result instead of a typed error".to_string(),
        )),
    }
}

/// The seed-derived EDCS parameters the backend oracle stresses: β swept
/// over `4..=32` and `λ = 2/β`, so `λβ = 2` keeps every draw inside
/// [`EdcsParams::new`]'s validity window while `β⁻ = β − 2` varies the
/// saturation floor across the sweep.
fn edcs_oracle_params(inst: &CheckInstance) -> EdcsParams {
    let beta = 4 + (inst.algo_seed % 29) as usize;
    EdcsParams::new(beta, 2.0 / beta as f64).expect("lambda * beta = 2 is always valid")
}

/// Does the config select this backend's sub-checks? `None` certifies
/// every backend; a filter runs only its own.
fn backend_selected(cfg: &CheckConfig, kind: BackendKind) -> bool {
    cfg.backend.is_none() || cfg.backend == Some(kind)
}

fn check_backend(
    inst: &CheckInstance,
    cfg: &CheckConfig,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    let g: CsrGraph = inst.graph();
    let n = g.num_vertices();
    let exact = maximum_matching(&g).len();

    // Sub-check order is fixed — delta first, then EDCS — in both the
    // full rotation and filtered (`--backend`) modes, so a violation
    // found in a filtered sweep replays identically without the filter.
    if backend_selected(cfg, BackendKind::Delta) {
        let backend = Backend::Delta(inst.params());
        if let Some(v) = certify_claims(&backend, &g, inst, exact, scratch) {
            return Some(v);
        }
    }

    if backend_selected(cfg, BackendKind::Edcs) {
        let params = edcs_oracle_params(inst);
        let backend = Backend::Edcs {
            params,
            eps: inst.eps,
        };
        // Local invariants of the built subgraph: H ⊆ G, Property A,
        // Property B — checked directly, not trusted from stats.
        let (h, _) = build_edcs(&g, &params);
        if let Some(msg) = edcs_violation(&g, &h, &params) {
            return Some(Violation::new(
                "edcs-invariant",
                format!(
                    "{msg} (family {}, n = {n}, {})",
                    inst.family,
                    backend.params_summary()
                ),
            ));
        }
        // The out-of-core build must be the identical fixpoint.
        let mut src = g.clone();
        match build_edcs_streamed(&mut src, &params) {
            Ok((h_streamed, ..)) => {
                let mem: Vec<(u32, u32)> = h.edges().map(|(_, u, v)| (u.0, v.0)).collect();
                let str_edges: Vec<(u32, u32)> =
                    h_streamed.edges().map(|(_, u, v)| (u.0, v.0)).collect();
                if mem != str_edges {
                    return Some(Violation::new(
                        "edcs-stream-identity",
                        format!(
                            "streamed EDCS build diverged from in-memory: {} vs {} edges \
                             (family {}, n = {n})",
                            str_edges.len(),
                            mem.len(),
                            inst.family
                        ),
                    ));
                }
            }
            Err(e) => {
                return Some(Violation::new(
                    "stream-error",
                    format!("streamed EDCS build rejected its own CSR stream: {e}"),
                ))
            }
        }
        if let Some(v) = certify_claims(&backend, &g, inst, exact, scratch) {
            return Some(v);
        }
    }
    None
}

/// The backend-generic half of the oracle: whatever a backend *claims*
/// (size bound, approximation ratio), certify against ground truth. A
/// backend overstating its own theory is a shrinkable counterexample.
fn certify_claims(
    backend: &Backend,
    g: &CsrGraph,
    inst: &CheckInstance,
    exact: usize,
    scratch: &mut PipelineScratch,
) -> Option<Violation> {
    let n = g.num_vertices();
    let h = backend.build(g, inst.algo_seed);
    if h.num_edges() > backend.claimed_size_bound(n) {
        return Some(Violation::new(
            "backend-size",
            format!(
                "{} backend built {} edges > its claimed bound {} (family {}, n = {n}, {})",
                backend.kind(),
                h.num_edges(),
                backend.claimed_size_bound(n),
                inst.family,
                backend.params_summary()
            ),
        ));
    }
    let r = match backend.solve(g, inst.algo_seed, 1, None, scratch) {
        Ok(r) => r,
        Err(e) => {
            return Some(Violation::new(
                "pipeline-error",
                format!("{} backend rejected 1 thread: {e}", backend.kind()),
            ))
        }
    };
    if !r.matching.is_valid_for(g) {
        return Some(Violation::new(
            "backend-validity",
            format!(
                "{} backend output is not a valid matching of the input graph",
                backend.kind()
            ),
        ));
    }
    let ratio = backend.claimed_ratio();
    if exact as f64 > ratio * r.matching.len() as f64 + BACKEND_ABS_SLACK + FLOAT_FUDGE {
        return Some(Violation::new(
            "backend-ratio",
            format!(
                "exact MCM {exact} > claimed {ratio:.4} x {} backend matching {} + \
                 {BACKEND_ABS_SLACK} (family {}, n = {n}, {})",
                backend.kind(),
                r.matching.len(),
                inst.family,
                backend.params_summary()
            ),
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Scenario;

    #[test]
    fn default_params_pass_a_seed_sample() {
        let cfg = CheckConfig::default();
        for seed in 0..9 {
            let s = Scenario::generate(seed, &cfg);
            assert_eq!(
                s.oracle.check(&s.instance, &cfg),
                None,
                "seed {seed} ({})",
                s.instance.family
            );
        }
    }

    #[test]
    fn checks_are_deterministic() {
        let cfg = CheckConfig {
            bound_eps: Some(0.05),
            delta: Some(1),
            backend: None,
            oracle: None,
        };
        for seed in 0..6 {
            let s = Scenario::generate(seed, &cfg);
            let a = s.oracle.check(&s.instance, &cfg);
            let b = s.oracle.check(&s.instance, &cfg);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn oracle_names_roundtrip() {
        for kind in [
            OracleKind::Static,
            OracleKind::Dynamic,
            OracleKind::Distsim,
            OracleKind::Scratch,
            OracleKind::Stream,
            OracleKind::ChaosStream,
            OracleKind::Backend,
        ] {
            assert_eq!(OracleKind::from_name(kind.name()).unwrap(), kind);
        }
        assert!(OracleKind::from_name("quantum").is_err());
    }

    #[test]
    fn backend_oracle_passes_default_params_and_filters_agree() {
        // The full backend oracle passes on a seed sample, and a
        // violation-free verdict is unchanged by per-backend filters
        // (delta sub-checks run before EDCS sub-checks in both modes).
        let full = CheckConfig::default();
        let mut scratch = PipelineScratch::new();
        for seed in [6u64, 13, 20, 27] {
            let s = Scenario::generate(seed, &full);
            assert_eq!(s.oracle, OracleKind::Backend, "seed {seed}");
            assert_eq!(
                s.oracle
                    .check_with_scratch(&s.instance, &full, &mut scratch),
                None,
                "seed {seed} ({})",
                s.instance.family
            );
            for kind in sparsimatch_core::backend::BackendKind::ALL {
                let filtered = CheckConfig {
                    backend: Some(kind),
                    ..full
                };
                assert_eq!(
                    OracleKind::Backend.check_with_scratch(&s.instance, &filtered, &mut scratch),
                    None,
                    "seed {seed} filtered to {kind}"
                );
            }
        }
    }

    #[test]
    fn shared_scratch_sweep_matches_fresh_checks() {
        // A sweep through one shared arena must reach the same verdicts
        // as fresh-arena checks seed by seed (the replay/shrink path uses
        // the latter, so they must agree for reproducers to be sound).
        let cfg = CheckConfig::default();
        let mut scratch = PipelineScratch::new();
        for seed in 0..8 {
            let s = Scenario::generate(seed, &cfg);
            let fresh = s.oracle.check(&s.instance, &cfg);
            let shared = s.oracle.check_with_scratch(&s.instance, &cfg, &mut scratch);
            assert_eq!(fresh, shared, "seed {seed} ({})", s.instance.family);
        }
    }
}
