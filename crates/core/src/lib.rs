#![deny(missing_docs)]

//! The SPAA'20 matching sparsifier `G_Δ` and its applications.
//!
//! Given a graph `G` of neighborhood independence number β and a target
//! accuracy ε, every vertex marks `Δ = Θ((β/ε)·log(1/ε))` uniformly random
//! incident edges (all of them if its degree is below the threshold); the
//! marked subgraph `G_Δ` is, with high probability, a `(1+ε)`-matching
//! sparsifier: `|MCM(G)| ≤ (1+ε)·|MCM(G_Δ)|` (Theorem 2.1).
//!
//! Modules:
//!
//! * [`params`] — Δ from (β, ε): the paper's proof constant and practical
//!   scalings; the validity window `β = O(εn/log n)`.
//! * [`sampler`] — Δ-out-of-deg sampling without replacement over
//!   *read-only* adjacency arrays in deterministic O(Δ) time per vertex,
//!   via the `pos_v` sparse-array emulation of Section 3.1; the
//!   per-vertex marking rule and the per-vertex RNG derivation. Every
//!   model marks through it: the in-memory and streamed builds, the
//!   distributed, MPC and dynamic-network simulators, and the dynamic
//!   matchers.
//! * [`sparsifier`] — the `G_Δ` construction with size/arboricity
//!   accounting (Observations 2.10 and 2.12): one marking loop per
//!   randomness model — per-vertex seeded streams and one shared RNG
//!   stream over any adjacency oracle.
//! * [`solomon`] — Solomon's ITCS'18 bounded-degree sparsifier for
//!   bounded-arboricity graphs (deterministic, mutual marking).
//! * [`composed`] — the two-round composition `G̃_Δ` of Section 3.2:
//!   bounded-β graph → low-arboricity `G_Δ` → bounded-degree `G̃_Δ`.
//! * [`pipeline`] — Theorem 3.1's shared pieces: the result type, the
//!   stage-ε split, and the one match stage every solve runs.
//! * [`stream_build`] — the same construction out of core: two passes
//!   over a lex-sorted edge stream build a byte-identical `G_Δ` in
//!   `O(n + |E(G_Δ)|)` resident memory, never materializing `G`.
//! * [`scratch`] — reusable scratch arenas giving the repeat-solve paths
//!   (dynamic rebuilds, check sweeps, benchmark loops, serve sessions) a
//!   zero-allocation steady state.
//! * [`lower_bounds`] — the paper's negative results as executable
//!   instances: deterministic marking fails (Lemma 2.13) and exact
//!   preservation fails (Observation 2.14).
//! * [`backend`] — Theorem 3.1 end-to-end: the [`Backend`] enum runs
//!   mark → extract → match in memory ([`Backend::solve`]) or from an
//!   edge stream ([`Backend::solve_streamed`]), in time sublinear in
//!   `|E(G)|` for the `G_Δ` (`delta`) backend; one helper picks every
//!   stage's worker count.
//! * [`edcs`] — the Assadi–Bernstein edge-degree constrained subgraph
//!   (arXiv:1811.02009), the second backend's sparsifier: deterministic,
//!   smaller for comparable degree budgets, `3/2 + O(λ)` ratio floor.

pub mod backend;
pub mod composed;
pub mod edcs;
pub mod lower_bounds;
pub mod params;
pub mod pipeline;
pub mod sampler;
pub mod scratch;
pub mod solomon;
pub mod sparsifier;
pub mod stream_build;

pub use backend::{Backend, BackendKind};
pub use edcs::{build_edcs, EdcsParams, EdcsParamsError, EdcsStats};
pub use params::SparsifierParams;
pub use pipeline::PipelineResult;
pub use scratch::{OracleRebuildScratch, PipelineScratch};
pub use sparsifier::{
    build_sparsifier, build_sparsifier_parallel, build_sparsifier_parallel_metered, Sparsifier,
    SparsifierStats, ThreadCountError, MAX_THREADS,
};
pub use stream_build::{
    build_sparsifier_streamed, RetryPolicy, StreamBuildError, StreamBuildReport,
};
