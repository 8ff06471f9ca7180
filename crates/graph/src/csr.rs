//! Immutable compressed-sparse-row (CSR) graphs.
//!
//! [`CsrGraph`] is the in-memory realization of the paper's *adjacency-array
//! representation* (Section 3.1): for every vertex `v` we can read `deg(v)`
//! and the `i`-th neighbor of `v` in O(1), and the arrays are read-only.
//! Every half-edge also records the id of its undirected parent edge, which
//! lets sparsifier constructions collect "marked" edges without hashing.

use crate::ids::{EdgeId, VertexId};
use std::sync::OnceLock;

/// Adjacency offsets with a width chosen from the half-edge count.
///
/// A CSR offset indexes the half-edge arrays, so its values range over
/// `0..=2m`. When `2m` fits in a `u32` — every graph under the repo's
/// `MAX_EDGES` cap, and every sparsifier — 4 bytes per vertex suffice,
/// halving the dominant per-vertex cost of the old `Vec<usize>` layout.
/// Graphs with `2m >= 2^32` fall back to full-width offsets
/// automatically. The repr is a pure function of `m`, so two builds of
/// the same graph (sequential, parallel, scratch-reuse, or streamed)
/// always agree byte-for-byte.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Offsets {
    /// `2m < 2^32`: 4 bytes per vertex.
    Narrow(Vec<u32>),
    /// Fallback for `2m >= 2^32`.
    Wide(Vec<usize>),
}

/// Whether a graph with `two_m` half-edges takes the narrow repr.
#[inline(always)]
fn fits_narrow(two_m: usize) -> bool {
    u32::try_from(two_m).is_ok()
}

impl Offsets {
    /// Convert a full-width offset array (as the parallel layout builds)
    /// into the canonical repr for `two_m` half-edges.
    fn from_wide(offsets: Vec<usize>, two_m: usize) -> Offsets {
        if fits_narrow(two_m) {
            Offsets::Narrow(offsets.into_iter().map(|o| o as u32).collect())
        } else {
            Offsets::Wide(offsets)
        }
    }

    /// Refill with exclusive prefix sums of `degree`, reusing the held
    /// buffer when the repr for `two_m` matches (allocation-free when
    /// warm); switches repr otherwise.
    fn rebuild_from_degrees(&mut self, degree: &[u32], two_m: usize) {
        if fits_narrow(two_m) != matches!(self, Offsets::Narrow(_)) {
            *self = if fits_narrow(two_m) {
                Offsets::Narrow(Vec::new())
            } else {
                Offsets::Wide(Vec::new())
            };
        }
        match self {
            Offsets::Narrow(offs) => {
                offs.clear();
                offs.reserve(degree.len() + 1);
                let mut running = 0u32;
                offs.push(0);
                for &d in degree {
                    running += d;
                    offs.push(running);
                }
            }
            Offsets::Wide(offs) => {
                offs.clear();
                offs.reserve(degree.len() + 1);
                let mut running = 0usize;
                offs.push(0);
                for &d in degree {
                    running += d as usize;
                    offs.push(running);
                }
            }
        }
    }

    #[inline(always)]
    fn get(&self, i: usize) -> usize {
        match self {
            Offsets::Narrow(offs) => offs[i] as usize,
            Offsets::Wide(offs) => offs[i],
        }
    }

    fn len(&self) -> usize {
        match self {
            Offsets::Narrow(offs) => offs.len(),
            Offsets::Wide(offs) => offs.len(),
        }
    }

    /// Bytes held by the populated entries.
    fn bytes(&self) -> usize {
        match self {
            Offsets::Narrow(offs) => offs.len() * std::mem::size_of::<u32>(),
            Offsets::Wide(offs) => offs.len() * std::mem::size_of::<usize>(),
        }
    }

    /// Bytes of backing capacity (for scratch accounting).
    fn capacity_bytes(&self) -> usize {
        match self {
            Offsets::Narrow(offs) => offs.capacity() * std::mem::size_of::<u32>(),
            Offsets::Wide(offs) => offs.capacity() * std::mem::size_of::<usize>(),
        }
    }

    /// Reset to the one-vertex-boundary empty state, keeping capacity.
    fn clear(&mut self) {
        match self {
            Offsets::Narrow(offs) => {
                offs.clear();
                offs.push(0);
            }
            Offsets::Wide(offs) => {
                offs.clear();
                offs.push(0);
            }
        }
    }
}

/// An immutable undirected graph in CSR form.
///
/// ```
/// use sparsimatch_graph::csr::from_edges;
/// use sparsimatch_graph::ids::VertexId;
///
/// let g = from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]);
/// assert_eq!(g.num_edges(), 4);
/// assert_eq!(g.degree(VertexId(2)), 3);
/// assert_eq!(g.neighbor(VertexId(2), 0), VertexId(0)); // sorted adjacency
/// assert!(g.has_edge(VertexId(3), VertexId(2)));
/// ```
///
/// Invariants (enforced by [`GraphBuilder`]):
/// * no self-loops and no parallel edges;
/// * each undirected edge `{u, v}` appears as two half-edges, one in each
///   endpoint's adjacency array, both carrying the same [`EdgeId`];
/// * adjacency arrays are sorted by neighbor id (enables O(log deg)
///   adjacency queries).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `v`'s half-edges; width picked
    /// from the half-edge count (u32 when `2m < 2^32`, usize otherwise).
    offsets: Offsets,
    /// Neighbor endpoint of each half-edge.
    targets: Vec<u32>,
    /// Undirected parent edge of each half-edge.
    half_edge_ids: Vec<u32>,
    /// Endpoints `(u, v)` with `u < v` of each undirected edge.
    endpoints: Vec<(u32, u32)>,
}

impl CsrGraph {
    /// The number of vertices `n`.
    #[inline(always)]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The number of undirected edges `m`.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// The half-edge index range of `v`'s adjacency window.
    #[inline(always)]
    fn adj_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets.get(v.index())..self.offsets.get(v.index() + 1)
    }

    /// The degree of `v`.
    #[inline(always)]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets.get(v.index() + 1) - self.offsets.get(v.index())
    }

    /// The maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(VertexId::new(v)))
            .max()
            .unwrap_or(0)
    }

    /// The number of vertices with at least one incident edge (the paper's
    /// `n'`; success probabilities depend on `n'` rather than `n`).
    pub fn num_non_isolated(&self) -> usize {
        (0..self.num_vertices())
            .filter(|&v| self.degree(VertexId::new(v)) > 0)
            .count()
    }

    /// The `i`-th neighbor of `v` (O(1), as the adjacency-array model
    /// requires). Panics if `i >= degree(v)`.
    #[inline(always)]
    pub fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        debug_assert!(i < self.degree(v));
        VertexId(self.targets[self.offsets.get(v.index()) + i])
    }

    /// The undirected edge id of `v`'s `i`-th half-edge.
    #[inline(always)]
    pub fn incident_edge(&self, v: VertexId, i: usize) -> EdgeId {
        debug_assert!(i < self.degree(v));
        EdgeId(self.half_edge_ids[self.offsets.get(v.index()) + i])
    }

    /// All neighbors of `v`, sorted by id.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.targets[self.adj_range(v)].iter().map(|&t| VertexId(t))
    }

    /// All `(neighbor, edge_id)` pairs incident on `v`.
    #[inline]
    pub fn incident(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        let range = self.adj_range(v);
        self.targets[range.clone()]
            .iter()
            .zip(&self.half_edge_ids[range])
            .map(|(&t, &e)| (VertexId(t), EdgeId(e)))
    }

    /// The endpoints `(u, v)` with `u < v` of undirected edge `e`.
    #[inline(always)]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let (u, v) = self.endpoints[e.index()];
        (VertexId(u), VertexId(v))
    }

    /// All undirected edges as `(EdgeId, u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &(u, v))| (EdgeId::new(i), VertexId(u), VertexId(v)))
    }

    /// Whether `{u, v}` is an edge (O(log min-degree) via binary search).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// The edge id of `{u, v}` if present (O(log min-degree)).
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<EdgeId> {
        if u == v {
            return None;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let range = self.adj_range(a);
        let lo = range.start;
        let slice = &self.targets[range];
        slice
            .binary_search(&b.0)
            .ok()
            .map(|i| EdgeId(self.half_edge_ids[lo + i]))
    }

    /// The subgraph consisting of the given undirected edges (vertex set is
    /// preserved). Edge ids are renumbered densely in the result.
    pub fn edge_subgraph(&self, keep: impl Iterator<Item = EdgeId>) -> CsrGraph {
        let mut builder = GraphBuilder::new(self.num_vertices());
        for e in keep {
            let (u, v) = self.edge_endpoints(e);
            builder.add_edge(u, v);
        }
        builder.build()
    }

    /// Total memory held by the four internal arrays, in bytes, audited
    /// against every field: offsets (at their actual width), the two
    /// half-edge arrays, and the undirected endpoint list. Useful for
    /// documenting that sparsifiers are small and for the serve daemon's
    /// resident-footprint metric.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.bytes()
            + self.targets.len() * std::mem::size_of::<u32>()
            + self.half_edge_ids.len() * std::mem::size_of::<u32>()
            + self.endpoints.len() * std::mem::size_of::<(u32, u32)>()
    }

    /// What [`CsrGraph::memory_bytes`] would report for a graph on `n`
    /// vertices and `m` edges, without building it. This is the resident
    /// cost the out-of-core build avoids for the parent graph, so the
    /// huge-tier bench reports it as `graph_bytes`.
    pub fn projected_memory_bytes(n: usize, m: usize) -> usize {
        let offset_width = if fits_narrow(2 * m) {
            std::mem::size_of::<u32>()
        } else {
            std::mem::size_of::<usize>()
        };
        (n + 1) * offset_width
            + 2 * m * std::mem::size_of::<u32>() * 2
            + m * std::mem::size_of::<(u32, u32)>()
    }
}

/// Builder for [`CsrGraph`]: accumulates undirected edges, deduplicates,
/// drops self-loops, then lays out sorted CSR arrays.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices and no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            num_vertices: n,
            edges: Vec::new(),
        }
    }

    /// A builder pre-sized for roughly `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            num_vertices: n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Add the undirected edge `{u, v}`. Self-loops are ignored; duplicates
    /// are deduplicated at `build` time.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            u.index() < self.num_vertices && v.index() < self.num_vertices,
            "edge endpoint out of range"
        );
        if u == v {
            return;
        }
        let (a, b) = if u.0 < v.0 { (u.0, v.0) } else { (v.0, u.0) };
        self.edges.push((a, b));
    }

    /// Bulk-add edges from `(u, v)` index pairs.
    pub fn extend_edges(&mut self, it: impl IntoIterator<Item = (usize, usize)>) {
        for (u, v) in it {
            self.add_edge(VertexId::new(u), VertexId::new(v));
        }
    }

    /// Finalize into a [`CsrGraph`].
    pub fn build(mut self) -> CsrGraph {
        self.edges.sort_unstable();
        self.edges.dedup();
        layout_sorted(self.num_vertices, self.edges)
    }
}

/// Lay out CSR arrays from a lex-sorted, deduplicated edge list with
/// `u < v` per edge, through the one sequential scatter
/// ([`CsrScratch::layout`]) on a fresh scratch.
fn layout_sorted(n: usize, edges: Vec<(u32, u32)>) -> CsrGraph {
    let mut scratch = CsrScratch::new();
    scratch.graph.endpoints = edges;
    scratch.layout(n);
    scratch.graph
}

/// Resize `v` to `len` default (zero) elements, reusing its buffer when
/// it is large enough; a buffer that must grow is replaced by a fresh,
/// allocator-zeroed one instead of copied and then overwritten.
fn zeroed<T: Copy + Default>(v: &mut Vec<T>, len: usize) {
    if v.capacity() < len {
        *v = vec![T::default(); len];
    } else {
        v.clear();
        v.resize(len, T::default());
    }
}

/// Scatter the half-edges of `edges` in edge order: edge `e = (u, v)`
/// lands at the slots `next_slot(u)` and `next_slot(v)` hand out.
fn scatter(
    edges: &[(u32, u32)],
    targets: &mut [u32],
    half_edge_ids: &mut [u32],
    mut next_slot: impl FnMut(u32) -> usize,
) {
    for (eid, &(u, v)) in edges.iter().enumerate() {
        let eid = eid as u32;
        let slot = next_slot(u);
        targets[slot] = v;
        half_edge_ids[slot] = eid;
        let slot = next_slot(v);
        targets[slot] = u;
        half_edge_ids[slot] = eid;
    }
}

/// A `&[T]` that hands out raw write access across threads. Safety rests
/// entirely on the caller writing disjoint index sets from each thread.
struct SharedSlots<T>(*mut T);
// SAFETY: the one field is a pointer into a buffer that outlives every
// thread holding the wrapper (the threads are scoped), and the only
// access is `write`, whose callers keep each index to one thread; `T:
// Send` because values move into the slots from other threads.
unsafe impl<T: Send> Send for SharedSlots<T> {}
// SAFETY: as above — shared references only reach `write`, and writers
// never share an index.
unsafe impl<T: Send> Sync for SharedSlots<T> {}

impl<T> SharedSlots<T> {
    /// # Safety
    /// `idx` must be in bounds and no other thread may read or write it
    /// concurrently.
    #[inline(always)]
    unsafe fn write(&self, idx: usize, val: T) {
        unsafe { *self.0.add(idx) = val };
    }
}

/// Below this many marked edges extraction runs on one worker: the
/// parallel layout is not worth its thread spawns.
pub const PARALLEL_LAYOUT_CUTOFF: usize = 1 << 14;

/// The host's hardware thread count (cached; 1 when it cannot be read).
fn host_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// The worker count [`CsrScratch::rebuild_from_marked`] runs `m` marked
/// edges on when asked for `requested`: one below
/// [`PARALLEL_LAYOUT_CUTOFF`], otherwise `requested` capped at the host's
/// hardware threads. The layout is thread-count invariant, so the count
/// changes only the wall clock, never the output.
fn extract_workers(requested: usize, m: usize) -> usize {
    if m < PARALLEL_LAYOUT_CUTOFF {
        1
    } else {
        requested.clamp(1, host_threads())
    }
}

/// Build the subgraph of `parent` consisting of the given marked edges
/// on up to `threads` workers: [`CsrScratch::rebuild_from_marked`] on
/// a fresh scratch. `sorted_ids` must be strictly increasing (sorted and
/// deduplicated) — exactly what the sparsifier's mark stage produces. The
/// result is byte-identical to
/// `parent.edge_subgraph(sorted_ids.iter().copied())` for every thread
/// count.
pub fn from_marked_edges(parent: &CsrGraph, sorted_ids: &[EdgeId], threads: usize) -> CsrGraph {
    let mut scratch = CsrScratch::new();
    scratch.rebuild_from_marked(parent, sorted_ids, threads);
    scratch.graph
}

/// Reusable buffers for rebuilding marked-edge subgraphs in place.
///
/// Repeated pipeline runs extract a fresh sparsifier CSR every time; with
/// a scratch the four graph arrays plus the degree/cursor layout buffers
/// are allocated once and reused with `clear()`-not-drop semantics, so a
/// warm one-worker [`CsrScratch::rebuild_from_marked`] performs zero heap
/// allocations when capacities suffice. [`from_marked_edges`] is the same
/// rebuild on a fresh scratch, so both are byte-identical by
/// construction.
#[derive(Clone, Debug)]
pub struct CsrScratch {
    graph: CsrGraph,
    /// Per-vertex degrees; in the narrow repr, then the scatter cursors.
    degree: Vec<u32>,
    /// Full-width scatter cursors, used by the wide repr only.
    cursor: Vec<usize>,
}

impl Default for CsrScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl CsrScratch {
    /// An empty scratch holding a zero-vertex graph.
    pub fn new() -> Self {
        CsrScratch {
            graph: CsrGraph {
                offsets: Offsets::Narrow(vec![0]),
                targets: Vec::new(),
                half_edge_ids: Vec::new(),
                endpoints: Vec::new(),
            },
            degree: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// The most recently rebuilt graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Bytes of capacity currently held across all reusable buffers (the
    /// scratch's high-water memory footprint).
    pub fn capacity_bytes(&self) -> usize {
        self.graph.offsets.capacity_bytes()
            + self.graph.targets.capacity() * 4
            + self.graph.half_edge_ids.capacity() * 4
            + self.graph.endpoints.capacity() * 8
            + self.degree.capacity() * 4
            + self.cursor.capacity() * std::mem::size_of::<usize>()
    }

    /// Drop logical contents but keep every buffer's capacity.
    pub fn clear(&mut self) {
        self.graph.offsets.clear();
        self.graph.targets.clear();
        self.graph.half_edge_ids.clear();
        self.graph.endpoints.clear();
        self.degree.clear();
        self.cursor.clear();
    }

    /// Rebuild the subgraph of `parent` given by the strictly increasing
    /// `sorted_ids` into this scratch's buffers, reusing their capacity,
    /// on up to `threads` workers. The one extraction entry point and the
    /// one place a static solve picks a worker count: one below
    /// [`PARALLEL_LAYOUT_CUTOFF`] marked edges, otherwise `threads`
    /// capped at the host's hardware threads. The output is
    /// byte-identical for every thread count.
    pub fn rebuild_from_marked(
        &mut self,
        parent: &CsrGraph,
        sorted_ids: &[EdgeId],
        threads: usize,
    ) -> &CsrGraph {
        debug_assert!(
            sorted_ids.windows(2).all(|w| w[0].index() < w[1].index()),
            "marked edge ids must be sorted and distinct"
        );
        let threads = extract_workers(threads, sorted_ids.len());
        if threads == 1 {
            // Edge ids are dense in lexicographic endpoint order, so the
            // mapped endpoint list is already lex-sorted.
            let endpoints = &mut self.graph.endpoints;
            endpoints.clear();
            endpoints.extend(sorted_ids.iter().map(|&e| parent.endpoints[e.index()]));
            self.layout(parent.num_vertices());
        } else {
            self.extract_parallel(parent, sorted_ids, threads);
        }
        &self.graph
    }

    /// Lay out the CSR arrays on `n` vertices from the lex-sorted,
    /// deduplicated endpoint list already in the graph (`u < v` per
    /// edge). Because the list is globally sorted, scattering the
    /// half-edges in edge order leaves every adjacency window already
    /// sorted by neighbor id: for a vertex `v`, all edges `(a, v)` with
    /// `a < v` precede all edges `(v, b)` with `b > v`, each group in
    /// ascending order. Every one-worker build lands here.
    fn layout(&mut self, n: usize) {
        let CsrGraph {
            offsets,
            targets,
            half_edge_ids,
            endpoints,
        } = &mut self.graph;
        let m = endpoints.len();
        debug_assert!(
            endpoints.windows(2).all(|w| w[0] < w[1]),
            "edges not sorted"
        );
        zeroed(&mut self.degree, n);
        for &(u, v) in endpoints.iter() {
            self.degree[u as usize] += 1;
            self.degree[v as usize] += 1;
        }
        offsets.rebuild_from_degrees(&self.degree, 2 * m);
        zeroed(targets, 2 * m);
        zeroed(half_edge_ids, 2 * m);
        match offsets {
            Offsets::Narrow(offs) => {
                // Cursors fit in the degree array: reuse it instead of a
                // usize cursor vector (the narrow layout keeps the whole
                // build at 4 bytes per vertex of working state).
                let cursor = &mut self.degree;
                cursor.copy_from_slice(&offs[..n]);
                scatter(endpoints, targets, half_edge_ids, |v| {
                    cursor[v as usize] += 1;
                    cursor[v as usize] as usize - 1
                });
            }
            Offsets::Wide(offs) => {
                let cursor = &mut self.cursor;
                cursor.clear();
                cursor.extend_from_slice(&offs[..n]);
                scatter(endpoints, targets, half_edge_ids, |v| {
                    cursor[v as usize] += 1;
                    cursor[v as usize] - 1
                });
            }
        }
    }

    /// [`CsrScratch::rebuild_from_marked`] on `threads ≥ 2` workers: each
    /// thread maps a contiguous chunk of the marked ids to endpoints and
    /// counts that chunk's degrees, then exclusive prefix sums run over
    /// vertex ranges, then a scatter where each thread owns a disjoint
    /// slot range per vertex. Byte-identical to the sequential
    /// [`CsrScratch::layout`]: thread `t` handles a contiguous chunk of
    /// the sorted edge list, so within each adjacency window the
    /// per-thread slot groups concatenate in exactly the sequential
    /// scatter order.
    fn extract_parallel(&mut self, parent: &CsrGraph, sorted_ids: &[EdgeId], threads: usize) {
        let n = parent.num_vertices();
        let CsrGraph {
            offsets: graph_offsets,
            targets,
            half_edge_ids,
            endpoints,
        } = &mut self.graph;
        let m = sorted_ids.len();
        let edge_chunk = m.div_ceil(threads);
        zeroed(endpoints, m);
        // Endpoints plus per-thread degree counts over each edge chunk.
        let mut per_thread_degree: Vec<Vec<u32>> = std::thread::scope(|s| {
            let handles: Vec<_> = endpoints
                .chunks_mut(edge_chunk)
                .zip(sorted_ids.chunks(edge_chunk))
                .map(|(chunk, ids)| {
                    s.spawn(move || {
                        let mut deg = vec![0u32; n];
                        for (slot, &e) in chunk.iter_mut().zip(ids) {
                            let (u, v) = parent.endpoints[e.index()];
                            *slot = (u, v);
                            deg[u as usize] += 1;
                            deg[v as usize] += 1;
                        }
                        deg
                    })
                })
                .collect();
            handles
                .into_iter()
                // Safety: join() only errs on a worker panic — propagate it.
                .map(|h| h.join().expect("degree-count worker panicked"))
                .collect()
        });
        let edges: &[(u32, u32)] = endpoints;
        let t_actual = per_thread_degree.len();

        // Exclusive prefix sums over vertex ranges: per-range totals first,
        // then a short sequential prefix over ranges, then a parallel fill
        // of `offsets` and of the per-thread start cursors. The cursor for
        // thread t at vertex v is offsets[v] plus what threads 0..t write
        // there, mirroring the sequential edge-order scatter.
        let vertex_chunk = n.div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(vertex_chunk.max(1))
            .map(|lo| (lo, (lo + vertex_chunk).min(n)))
            .collect();
        let range_totals: Vec<usize> = std::thread::scope(|s| {
            let per_thread_degree = &per_thread_degree;
            let handles: Vec<_> = ranges
                .iter()
                .map(|&(lo, hi)| {
                    s.spawn(move || {
                        let mut total = 0usize;
                        for deg in per_thread_degree {
                            total += deg[lo..hi].iter().map(|&d| d as usize).sum::<usize>();
                        }
                        total
                    })
                })
                .collect();
            handles
                .into_iter()
                // Safety: join() only errs on a worker panic — propagate it.
                .map(|h| h.join().expect("range-total worker panicked"))
                .collect()
        });
        let mut range_starts = Vec::with_capacity(ranges.len() + 1);
        range_starts.push(0usize);
        for (i, &t) in range_totals.iter().enumerate() {
            range_starts.push(range_starts[i] + t);
        }

        let mut offsets = vec![0usize; n + 1];
        offsets[n] = 2 * m;
        // Reuse the per-thread degree arrays as scatter start cursors in
        // place: after this pass, per_thread_degree[t][v] holds the first
        // slot thread t writes for vertex v.
        std::thread::scope(|s| {
            let mut offsets_rest: &mut [usize] = &mut offsets[..n];
            let mut degree_rest: Vec<&mut [u32]> = per_thread_degree
                .iter_mut()
                .map(|d| d.as_mut_slice())
                .collect();
            for (r, &(lo, hi)) in ranges.iter().enumerate() {
                let (offsets_here, rest) = offsets_rest.split_at_mut(hi - lo);
                offsets_rest = rest;
                let mut degree_here = Vec::with_capacity(t_actual);
                degree_rest = degree_rest
                    .into_iter()
                    .map(|d| {
                        let (here, rest) = d.split_at_mut(hi - lo);
                        degree_here.push(here);
                        rest
                    })
                    .collect();
                let start = range_starts[r];
                s.spawn(move || {
                    let mut running = start;
                    for (i, slot) in offsets_here.iter_mut().enumerate() {
                        *slot = running;
                        for deg in degree_here.iter_mut() {
                            let d = deg[i];
                            deg[i] = running as u32;
                            running += d as usize;
                        }
                    }
                });
            }
        });

        // Scatter: thread t writes exactly the slots its cursors span,
        // which are disjoint from every other thread's by construction.
        zeroed(targets, 2 * m);
        zeroed(half_edge_ids, 2 * m);
        let target_slots = SharedSlots(targets.as_mut_ptr());
        let half_edge_slots = SharedSlots(half_edge_ids.as_mut_ptr());
        std::thread::scope(|s| {
            for (t, chunk) in edges.chunks(edge_chunk).enumerate() {
                let mut cursor = std::mem::take(&mut per_thread_degree[t]);
                let base_eid = (t * edge_chunk) as u32;
                let target_slots = &target_slots;
                let half_edge_slots = &half_edge_slots;
                s.spawn(move || {
                    for (i, &(u, v)) in chunk.iter().enumerate() {
                        let eid = base_eid + i as u32;
                        // SAFETY: cursor[u]/cursor[v] walk slot ranges
                        // owned exclusively by this thread (see the
                        // prefix-sum pass above) and stay within 2m.
                        unsafe {
                            target_slots.write(cursor[u as usize] as usize, v);
                            half_edge_slots.write(cursor[u as usize] as usize, eid);
                            cursor[u as usize] += 1;
                            target_slots.write(cursor[v as usize] as usize, u);
                            half_edge_slots.write(cursor[v as usize] as usize, eid);
                            cursor[v as usize] += 1;
                        }
                    }
                });
            }
        });
        // The worker fill needs full-width slots; canonicalize after so
        // the result is byte-identical to the sequential layout.
        *graph_offsets = Offsets::from_wide(offsets, 2 * m);
    }
}

/// Build a graph from an edge list that is already strictly
/// lexicographically sorted with `u < v` per edge — the order
/// [`CsrGraph::edges`] iterates and [`crate::io::write_edge_list`] emits.
/// Skips the sort/dedup of [`GraphBuilder::build`] entirely, so this is
/// the entry point for streaming constructions that validate order as
/// edges arrive. The result is byte-identical to feeding the same edges
/// through [`GraphBuilder`].
///
/// # Panics
/// Debug builds assert the order and endpoint-range invariants; release
/// builds trust the caller (a violated invariant produces a graph with
/// unsorted adjacency windows, never memory unsafety).
pub fn from_sorted_edges(n: usize, edges: Vec<(u32, u32)>) -> CsrGraph {
    debug_assert!(
        edges.iter().all(|&(u, v)| u < v && (v as usize) < n),
        "edges must satisfy u < v with endpoints below n"
    );
    layout_sorted(n, edges)
}

/// Build a graph directly from an iterator of `(u, v)` index pairs.
pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> CsrGraph {
    let mut b = GraphBuilder::new(n);
    b.extend_edges(edges);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> CsrGraph {
        // 0-1, 1-2, 2-0, 2-3
        from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_pendant();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(2)), 3);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.num_non_isolated(), 4);
    }

    #[test]
    fn isolated_vertices_counted() {
        let g = from_edges(5, [(0, 1)]);
        assert_eq!(g.num_non_isolated(), 2);
        assert_eq!(g.degree(VertexId(4)), 0);
    }

    #[test]
    fn neighbors_sorted_and_complete() {
        let g = triangle_plus_pendant();
        let nbrs: Vec<u32> = g.neighbors(VertexId(2)).map(|v| v.0).collect();
        assert_eq!(nbrs, vec![0, 1, 3]);
    }

    #[test]
    fn self_loops_and_duplicates_dropped() {
        let g = from_edges(3, [(0, 0), (0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(VertexId(0)), 1);
    }

    #[test]
    fn half_edges_share_edge_id() {
        let g = triangle_plus_pendant();
        for (e, u, v) in g.edges() {
            let from_u = g
                .incident(u)
                .find(|&(t, _)| t == v)
                .map(|(_, id)| id)
                .unwrap();
            let from_v = g
                .incident(v)
                .find(|&(t, _)| t == u)
                .map(|(_, id)| id)
                .unwrap();
            assert_eq!(from_u, e);
            assert_eq!(from_v, e);
        }
    }

    #[test]
    fn find_edge_works_both_ways() {
        let g = triangle_plus_pendant();
        assert!(g.has_edge(VertexId(0), VertexId(1)));
        assert!(g.has_edge(VertexId(1), VertexId(0)));
        assert!(!g.has_edge(VertexId(0), VertexId(3)));
        assert!(!g.has_edge(VertexId(1), VertexId(1)));
        let e = g.find_edge(VertexId(2), VertexId(3)).unwrap();
        let (a, b) = g.edge_endpoints(e);
        assert_eq!((a.0, b.0), (2, 3));
    }

    #[test]
    fn edge_subgraph_keeps_vertex_set() {
        let g = triangle_plus_pendant();
        let keep: Vec<EdgeId> = g
            .edges()
            .filter(|&(_, u, v)| u.0 == 0 || v.0 == 0)
            .map(|(e, _, _)| e)
            .collect();
        let h = g.edge_subgraph(keep.into_iter());
        assert_eq!(h.num_vertices(), 4);
        assert_eq!(h.num_edges(), 2); // 0-1 and 0-2
        assert_eq!(h.degree(VertexId(3)), 0);
    }

    #[test]
    fn neighbor_ith_matches_iterator() {
        let g = triangle_plus_pendant();
        for v in 0..4 {
            let v = VertexId::new(v);
            let via_iter: Vec<VertexId> = g.neighbors(v).collect();
            for (i, &u) in via_iter.iter().enumerate() {
                assert_eq!(g.neighbor(v, i), u);
            }
        }
    }

    fn assert_byte_identical(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.targets, b.targets);
        assert_eq!(a.half_edge_ids, b.half_edge_ids);
        assert_eq!(a.endpoints, b.endpoints);
    }

    /// All-pairs edge list on `n` vertices — big enough to push the
    /// parallel layout past [`PARALLEL_LAYOUT_CUTOFF`].
    fn dense_edges(n: usize) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
            }
        }
        edges
    }

    /// Every edge id of `g`, the marked set that extracts `g` itself.
    fn all_ids(g: &CsrGraph) -> Vec<EdgeId> {
        g.edges().map(|(e, _, _)| e).collect()
    }

    #[test]
    fn parallel_extraction_is_byte_identical_to_sequential_build() {
        let n = 200; // C(200, 2) = 19 900 > PARALLEL_LAYOUT_CUTOFF
        let edges = dense_edges(n);
        assert!(edges.len() >= PARALLEL_LAYOUT_CUTOFF);
        let mut seq = GraphBuilder::new(n);
        seq.extend_edges(edges.iter().copied());
        let seq = seq.build();
        // The parent is built from a scrambled order with duplicates to
        // exercise the builder's sort + dedup path too.
        let mut scrambled = GraphBuilder::new(n);
        scrambled.extend_edges(edges.iter().rev().copied());
        scrambled.extend_edges(edges.iter().skip(7).step_by(13).copied());
        let parent = scrambled.build();
        for threads in [1usize, 2, 3, 4, 8] {
            assert_byte_identical(
                &seq,
                &from_marked_edges(&parent, &all_ids(&parent), threads),
            );
        }
    }

    #[test]
    fn parallel_layout_is_byte_identical_at_every_worker_count() {
        // `rebuild_from_marked` caps its workers at the host; drive the
        // parallel layout directly so counts above the host are covered.
        let n = 200;
        let dense = from_edges(n, dense_edges(n));
        let star = from_edges(20_000, (1..20_000).map(|v| (0, v)));
        for g in [&dense, &star] {
            let ids = all_ids(g);
            assert!(ids.len() >= PARALLEL_LAYOUT_CUTOFF);
            for workers in [2usize, 3, 4, 5, 8] {
                let mut scratch = CsrScratch::new();
                scratch.extract_parallel(g, &ids, workers);
                assert_byte_identical(g, scratch.graph());
            }
        }
    }

    #[test]
    fn dispatch_never_exceeds_the_host() {
        let host = host_threads();
        assert!(host >= 1);
        for requested in 1..=64 {
            for m in [
                0,
                PARALLEL_LAYOUT_CUTOFF - 1,
                PARALLEL_LAYOUT_CUTOFF,
                usize::MAX,
            ] {
                let t = extract_workers(requested, m);
                assert!((1..=host.min(requested)).contains(&t), "{requested} {m}");
            }
            assert_eq!(extract_workers(requested, 0), 1);
            assert_eq!(
                extract_workers(requested, PARALLEL_LAYOUT_CUTOFF),
                requested.min(host)
            );
        }
    }

    #[test]
    fn extraction_handles_tiny_and_empty_graphs() {
        for threads in [1usize, 2, 8] {
            let empty = from_marked_edges(&GraphBuilder::new(0).build(), &[], threads);
            assert_eq!(empty.num_vertices(), 0);
            assert_eq!(empty.num_edges(), 0);
            let singleton = from_marked_edges(&GraphBuilder::new(1).build(), &[], threads);
            assert_eq!(singleton.num_vertices(), 1);
            assert_eq!(singleton.degree(VertexId(0)), 0);
            let g = triangle_plus_pendant();
            assert_byte_identical(&g, &from_marked_edges(&g, &all_ids(&g), threads));
        }
    }

    #[test]
    fn parallel_extraction_on_star_hub() {
        // One huge-degree hub: the degenerate load-balance case for
        // per-vertex-range prefix sums.
        let n = 20_000;
        let seq = from_edges(n, (1..n).map(|v| (0, v)));
        for threads in [2usize, 5, 8] {
            assert_byte_identical(&seq, &from_marked_edges(&seq, &all_ids(&seq), threads));
        }
        assert_eq!(seq.degree(VertexId(0)), n - 1);
    }

    #[test]
    fn from_marked_edges_matches_edge_subgraph() {
        let n = 220;
        let mut b = GraphBuilder::new(n);
        b.extend_edges(dense_edges(n));
        let g = b.build();
        // Keep a deterministic pseudo-random subset of edge ids (sorted).
        let keep: Vec<EdgeId> = (0..g.num_edges())
            .filter(|e| (e * 2_654_435_761) % 7 < 5)
            .map(EdgeId::new)
            .collect();
        assert!(keep.len() >= PARALLEL_LAYOUT_CUTOFF);
        let reference = g.edge_subgraph(keep.iter().copied());
        for threads in [1usize, 2, 4, 8] {
            let sub = from_marked_edges(&g, &keep, threads);
            assert_byte_identical(&reference, &sub);
        }
    }

    #[test]
    fn from_marked_edges_empty_and_full() {
        let g = triangle_plus_pendant();
        for threads in [1usize, 4] {
            let none = from_marked_edges(&g, &[], threads);
            assert_eq!(none.num_edges(), 0);
            assert_eq!(none.num_vertices(), 4);
            assert_byte_identical(&g, &from_marked_edges(&g, &all_ids(&g), threads));
        }
    }

    #[test]
    fn scratch_rebuild_matches_from_marked_edges() {
        let n = 220;
        let mut b = GraphBuilder::new(n);
        b.extend_edges(dense_edges(n));
        let g = b.build();
        let keep: Vec<EdgeId> = (0..g.num_edges())
            .filter(|e| (e * 2_654_435_761) % 7 < 5)
            .map(EdgeId::new)
            .collect();
        let reference = from_marked_edges(&g, &keep, 1);
        let smaller: Vec<EdgeId> = keep.iter().copied().step_by(3).collect();
        let smaller_reference = from_marked_edges(&g, &smaller, 1);
        let mut scratch = CsrScratch::new();
        // Warm reuse: rebuild repeatedly (and on different subsets, one
        // and several workers) into the same scratch; every rebuild must
        // match the fresh one-worker build.
        for threads in [1usize, 2, 4, 1] {
            for _ in 0..2 {
                assert_byte_identical(&reference, scratch.rebuild_from_marked(&g, &keep, threads));
            }
            assert_byte_identical(
                &smaller_reference,
                scratch.rebuild_from_marked(&g, &smaller, threads),
            );
            // And back up to the larger subset after the smaller one.
            assert_byte_identical(&reference, scratch.rebuild_from_marked(&g, &keep, threads));
        }
        assert!(scratch.capacity_bytes() > 0);
    }

    #[test]
    fn scratch_handles_empty_and_tiny_graphs() {
        let mut scratch = CsrScratch::new();
        let g = triangle_plus_pendant();
        let rebuilt = scratch.rebuild_from_marked(&g, &[], 1);
        assert_eq!(rebuilt.num_vertices(), 4);
        assert_eq!(rebuilt.num_edges(), 0);
        assert_byte_identical(&g, scratch.rebuild_from_marked(&g, &all_ids(&g), 1));
        scratch.clear();
        assert_eq!(scratch.graph().num_vertices(), 0);
        assert_byte_identical(&g, scratch.rebuild_from_marked(&g, &all_ids(&g), 2));
    }

    #[test]
    fn from_sorted_edges_matches_builder() {
        let n = 60;
        let edges: Vec<(u32, u32)> = dense_edges(n)
            .into_iter()
            .map(|(u, v)| (u as u32, v as u32))
            .collect();
        let mut b = GraphBuilder::new(n);
        b.extend_edges(dense_edges(n));
        assert_byte_identical(&b.build(), &from_sorted_edges(n, edges));
        assert_eq!(from_sorted_edges(5, Vec::new()).num_vertices(), 5);
    }

    #[test]
    fn offsets_are_narrow_below_the_u32_boundary() {
        let g = triangle_plus_pendant();
        assert!(matches!(g.offsets, Offsets::Narrow(_)));
        // memory_bytes audits every field at its real width: 4-byte
        // offsets (n+1), two 4-byte half-edge arrays (2m each), and
        // 8-byte endpoint pairs (m).
        let (n, m) = (g.num_vertices(), g.num_edges());
        assert_eq!(g.memory_bytes(), 4 * (n + 1) + 4 * 2 * m * 2 + 8 * m);
        assert_eq!(g.memory_bytes(), CsrGraph::projected_memory_bytes(n, m));
    }

    /// Exclusive prefix sums of `degree`, in the repr `two_m` dictates.
    fn offsets_from_degrees(degree: &[u32], two_m: usize) -> Offsets {
        let mut out = Offsets::Narrow(Vec::new());
        out.rebuild_from_degrees(degree, two_m);
        out
    }

    #[test]
    fn offsets_repr_is_a_function_of_half_edge_count() {
        let degree = [2u32, 1, 1];
        assert!(matches!(
            offsets_from_degrees(&degree, 4),
            Offsets::Narrow(_)
        ));
        // Past the u32 boundary the same degrees take the wide repr.
        let wide = offsets_from_degrees(&degree, usize::MAX);
        assert!(matches!(wide, Offsets::Wide(_)));
        assert_eq!(
            (0..4).map(|i| wide.get(i)).collect::<Vec<_>>(),
            vec![0, 2, 3, 4]
        );
        // from_wide canonicalizes parallel-layout output to narrow.
        let canon = Offsets::from_wide(vec![0, 2, 3, 4], 4);
        assert_eq!(canon, offsets_from_degrees(&degree, 4));
    }

    #[test]
    fn offsets_rebuild_is_allocation_free_when_warm() {
        let degree = [2u32, 1, 1];
        let mut offs = offsets_from_degrees(&degree, 4);
        let cap = offs.capacity_bytes();
        for _ in 0..3 {
            offs.rebuild_from_degrees(&degree, 4);
            assert_eq!(offs.capacity_bytes(), cap, "warm rebuild re-allocated");
        }
        // Switching width is allowed to allocate; switching back reuses
        // nothing but must still produce the right values.
        offs.rebuild_from_degrees(&degree, usize::MAX);
        assert!(matches!(offs, Offsets::Wide(_)));
        offs.rebuild_from_degrees(&degree, 4);
        assert!(matches!(offs, Offsets::Narrow(_)));
        assert_eq!(offs.get(3), 4);
    }

    #[test]
    fn projected_memory_bytes_matches_built_graphs() {
        let n = 220;
        let mut b = GraphBuilder::new(n);
        b.extend_edges(dense_edges(n));
        let g = b.build();
        assert_eq!(
            g.memory_bytes(),
            CsrGraph::projected_memory_bytes(g.num_vertices(), g.num_edges())
        );
    }
}
