#![warn(missing_docs)]

//! Graph substrate for the `sparsimatch` workspace.
//!
//! This crate provides everything the SPAA'20 matching-sparsifier
//! reproduction needs below the level of matchings:
//!
//! * [`csr::CsrGraph`] — an immutable compressed-sparse-row graph, the
//!   in-memory realization of the paper's *adjacency-array representation*
//!   (O(1) degree and i-th-neighbor access, read-only).
//! * [`adjacency::AdjacencyOracle`] — the access-model trait behind all
//!   sublinear-time claims, together with [`adjacency::CountingOracle`]
//!   which counts probes so experiments can report machine-independent
//!   complexities.
//! * [`sparse_array::SparseArray`] — the O(1)-initialization array
//!   (Aho–Hopcroft–Ullman) used by the paper's `pos_v` sampling trick
//!   (Section 3.1).
//! * [`edge_stream::EdgeStreamSource`] — rescannable lex-sorted edge
//!   streams (file-backed or in-memory) feeding the out-of-core
//!   sparsifier build without materializing the parent adjacency.
//! * [`fault_hash`] — the seeded decision hash every fault plan (stream
//!   I/O here, message faults in distsim) draws its faults from.
//! * [`adjlist::AdjListGraph`] — a mutable adjacency structure for the
//!   fully dynamic setting.
//! * [`generators`] — graph families of bounded neighborhood independence:
//!   line graphs, unit-disk graphs, clique unions (bounded diversity), the
//!   paper's lower-bound instances, and β-certified random graphs.
//! * [`analysis`] — structural measurements: degeneracy, exact arboricity
//!   (Nash–Williams via flow-based densest subgraph), and the neighborhood
//!   independence number β itself (exact and bounded).
//! * [`workloads`] — the named β-certified instance families shared by the
//!   experiment harness and the differential-testing harness.

pub mod adjacency;
pub mod adjlist;
pub mod analysis;
pub mod bitset;
pub mod csr;
pub mod edge_stream;
pub mod fault_hash;
pub mod generators;
pub mod ids;
pub mod io;
pub mod sparse_array;
pub mod workloads;

pub use adjacency::{AdjacencyOracle, CountingOracle};
pub use adjlist::AdjListGraph;
pub use csr::{CsrGraph, GraphBuilder};
pub use ids::{EdgeId, VertexId};
pub use sparse_array::SparseArray;
