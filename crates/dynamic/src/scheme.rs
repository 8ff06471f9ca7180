//! The Theorem 3.5 dynamic matcher.
//!
//! The worst-case Gupta–Peng window scheme, with the static `(1+ε/4)`
//! recompute time-sliced across each window (Lemma 3.4):
//!
//! * every update applies its graph mutation and, when it deletes a
//!   served pair, prunes the served matching — O(1) work;
//! * at a window boundary the finished rebuild is published, minus the
//!   pairs deleted while it ran; a new rebuild starts by marking the
//!   sparsifier `G_Δ` on the live adjacency lists (no copy of the graph)
//!   and laying it out; and a new window of `max(1, ⌊ε/4·|M|⌋)` updates
//!   opens;
//! * every update advances the rebuild — greedy maximal matching on
//!   `G_Δ`, then the bounded-augmentation [`AugSchedule`] — by a budget
//!   of work units sized so the rebuild finishes within its window. A
//!   rebuild still unfinished at the boundary runs to completion there,
//!   so the publication schedule never slips.
//!
//! Work units are machine-independent: one per adjacency probe while
//! marking, one per sparsifier edge for the layout and for greedy, and
//! blossom half-edge visits (plus one per search) for augmentation.
//! [`UpdateReport::work`] is the work the update actually performed: the
//! budget, overshot by less than one atomic quantum of the rebuild (one
//! forest phase or one single-root search, ≤ 2·|E(G_Δ)| + 1 units), and
//! at a window boundary the next sparsifier's mark and layout, ≤
//! `n'·(2·mark_cap + 1)` units over the `n'` non-isolated vertices. That
//! boundary quantum grows with `n'`, so unlike the budget's bulk share it
//! is not bounded by [`DynamicMatcher::work_bound`], which depends only on
//! Δ and ε.

use crate::adversary::Update;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::scratch::OracleRebuildScratch;
use sparsimatch_core::sparsifier::mark_shared_rng;
use sparsimatch_graph::adjacency::AdjacencyOracle;
use sparsimatch_graph::adjlist::AdjListGraph;
use sparsimatch_graph::csr::{CsrGraph, GraphBuilder};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_matching::bounded_aug::{max_path_len_for_eps, AugSchedule};
use sparsimatch_matching::greedy::greedy_edges_into;
use sparsimatch_matching::Matching;
use sparsimatch_obs::{keys, WorkMeter};

/// Per-update accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct UpdateReport {
    /// Work units this update performed: its O(1) mutation and pruning,
    /// its slice of the background rebuild, and at a window boundary the
    /// publication and the next rebuild's marking and layout (a quantum
    /// that grows with the number of non-isolated vertices).
    pub work: u64,
    /// Whether the output matching was swapped at this update (window
    /// boundary).
    pub swapped: bool,
}

impl UpdateReport {
    /// Mirror into the unified [`WorkMeter`] accounting: one update, its
    /// work units, and the worst single-update work as a high-water mark
    /// (the quantity Theorem 3.5 bounds).
    pub fn mirror_into(&self, meter: &mut WorkMeter) {
        meter.incr(keys::UPDATES);
        meter.add(keys::UPDATE_WORK, self.work);
        meter.record_max(keys::MAX_UPDATE_WORK, self.work);
    }
}

/// Progress of the background rebuild on the sparsifier.
enum Rebuild {
    /// Greedy maximal matching, scanning edge ids from `next_edge`.
    Greedy { next_edge: usize },
    /// Bounded augmentation, running in the scratch searcher.
    Augment(AugSchedule),
    /// Finished; the result is in `fresh`.
    Done,
}

/// Fully dynamic `(1+ε)`-approximate maximum matching over a fixed vertex
/// set.
///
/// ```
/// use sparsimatch_core::params::SparsifierParams;
/// use sparsimatch_dynamic::adversary::Update;
/// use sparsimatch_dynamic::scheme::DynamicMatcher;
/// use sparsimatch_graph::ids::VertexId;
///
/// let params = SparsifierParams::practical(1, 0.5);
/// let mut dm = DynamicMatcher::new(4, params, 42);
/// dm.apply(Update::Insert(VertexId(0), VertexId(1)));
/// dm.apply(Update::Insert(VertexId(2), VertexId(3)));
/// // The served matching is always a valid matching of the current graph.
/// let snapshot = dm.graph().to_csr();
/// assert!(dm.matching().is_valid_for(&snapshot));
/// ```
pub struct DynamicMatcher {
    graph: AdjListGraph,
    params: SparsifierParams,
    output: Matching,
    /// The sparsifier `G_Δ` the current rebuild runs on.
    sparse: CsrGraph,
    /// The rebuild's matching: greedy fills it, augmentation writes its
    /// result back into it.
    fresh: Matching,
    rebuild: Rebuild,
    /// Deletions since the current rebuild's sparsifier was marked,
    /// pruned from its result at publication.
    deletions: Vec<(VertexId, VertexId)>,
    /// Updates remaining in the current window.
    window_left: usize,
    /// Rebuild work units advanced per update in the current window.
    budget: u64,
    /// Certification-sweep units the last finished rebuild spent.
    certify_estimate: u64,
    seed_counter: u64,
    base_seed: u64,
    /// High-water mark of any vertex degree (sizes the sampler overlay
    /// without rescanning; never shrinks, which only wastes capacity).
    max_degree_seen: usize,
    /// Reusable buffers for the rebuilds: the sampler overlay, mark/index
    /// buffers, and blossom searcher persist across windows.
    scratch: OracleRebuildScratch,
}

impl DynamicMatcher {
    /// A matcher over `n` vertices, initially edgeless (the standard
    /// dynamic-model assumption). `params.eps` is the end-to-end target ε.
    pub fn new(n: usize, params: SparsifierParams, seed: u64) -> Self {
        DynamicMatcher {
            graph: AdjListGraph::new(n),
            params,
            output: Matching::new(n),
            sparse: GraphBuilder::new(n).build(),
            fresh: Matching::new(n),
            rebuild: Rebuild::Done,
            deletions: Vec::new(),
            window_left: 1,
            budget: 0,
            certify_estimate: 0,
            seed_counter: 0,
            base_seed: seed,
            max_degree_seen: 0,
            scratch: OracleRebuildScratch::new(),
        }
    }

    /// The served matching (always a valid matching of the current graph).
    pub fn matching(&self) -> &Matching {
        &self.output
    }

    /// The current graph.
    pub fn graph(&self) -> &AdjListGraph {
        &self.graph
    }

    /// Apply one update.
    ///
    /// The returned [`UpdateReport`] charges this update the work it
    /// performed: the budget plus less than one forest phase or search,
    /// and at a window boundary the next sparsifier's mark and layout.
    /// Theorem 3.5 bounds the per-update share by `O(Δ/ε³)`
    /// ([`work_bound`](Self::work_bound)); the boundary's mark and layout
    /// is one step of up to `n'·(2·mark_cap + 1)` units over the `n'`
    /// non-isolated vertices, so on large graphs boundary updates exceed
    /// that bound. The served matching stays valid throughout:
    ///
    /// ```
    /// use sparsimatch_core::params::SparsifierParams;
    /// use sparsimatch_dynamic::adversary::Update;
    /// use sparsimatch_dynamic::scheme::DynamicMatcher;
    /// use sparsimatch_graph::ids::VertexId;
    ///
    /// let mut dm = DynamicMatcher::new(8, SparsifierParams::practical(1, 0.5), 7);
    /// for i in 0..4 {
    ///     let report = dm.apply(Update::Insert(VertexId(2 * i), VertexId(2 * i + 1)));
    ///     assert!(report.work <= 4 * dm.work_bound());
    ///     assert!(dm.matching().is_valid_for(&dm.graph().to_csr()));
    /// }
    /// ```
    pub fn apply(&mut self, update: Update) -> UpdateReport {
        let mut work = 1u64; // the O(1) mutation + bookkeeping
        match update {
            Update::Insert(u, v) => {
                self.graph.insert_edge(u, v);
                self.max_degree_seen = self
                    .max_degree_seen
                    .max(self.graph.degree(u))
                    .max(self.graph.degree(v));
            }
            Update::Delete(u, v) => {
                self.graph.delete_edge(u, v);
                if self.output.mate(u) == Some(v) {
                    self.output.remove_pair(u);
                    work += 1;
                }
                self.deletions.push((u, v));
            }
        }
        work += self.advance(self.budget);
        self.window_left -= 1;
        let swapped = self.window_left == 0;
        if swapped {
            // Window boundary: finish the rebuild if its slices fell short,
            // prune the window's deletions from it, publish it, and start
            // the next one on the current graph.
            work += self.advance(u64::MAX) + self.deletions.len() as u64;
            for (u, v) in self.deletions.drain(..) {
                if self.fresh.mate(u) == Some(v) {
                    self.fresh.remove_pair(u);
                }
            }
            std::mem::swap(&mut self.output, &mut self.fresh);
            work += self.start_rebuild();
        }
        UpdateReport { work, swapped }
    }

    /// [`DynamicMatcher::apply`] that also mirrors the report into a
    /// [`WorkMeter`].
    pub fn apply_metered(&mut self, update: Update, meter: &mut WorkMeter) -> UpdateReport {
        let report = self.apply(update);
        report.mirror_into(meter);
        report
    }

    /// Mark the sparsifier on the current graph with fresh randomness,
    /// lay it out, reset the rebuild to its greedy stage, and size the
    /// next window and its budget. Returns the work units spent.
    fn start_rebuild(&mut self) -> u64 {
        self.seed_counter += 1;
        let mut rng = StdRng::seed_from_u64(
            self.base_seed ^ self.seed_counter.wrapping_mul(0x9E3779B97F4A7C15),
        );
        let n = self.graph.num_vertices();
        let mut work = 0u64;

        // Sparsify straight off the dynamic adjacency (it implements the
        // oracle), visiting only non-isolated vertices — the dynamic
        // structure knows them for free, and skipping the rest is what
        // turns the naive O(n·Δ) construction cost into the refined
        // O(|MCM|·β·Δ) of Observation 2.10 + Lemma 2.2 (n' ≤ (β+2)·|MCM|).
        // Work: one unit per adjacency probe (≤ mark_cap per vertex).
        self.scratch.clear();
        let OracleRebuildScratch {
            sampler,
            indices,
            marks,
            ..
        } = &mut self.scratch;
        sampler.ensure_capacity(self.max_degree_seen.max(1));
        let graph = &self.graph;
        let mark_cap = self.params.mark_cap();
        mark_shared_rng(
            graph,
            self.params.delta,
            mark_cap,
            &mut rng,
            sampler,
            indices,
            |v, deg, marked| {
                marks.extend(marked.iter().map(|&i| (v, graph.neighbor(v, i as usize))));
                work += deg.min(mark_cap) as u64 + 1;
            },
        );
        // Free the finished rebuild's sparsifier before laying out the
        // next, so only one is resident at a time.
        self.sparse = GraphBuilder::new(0).build();
        let mut b = GraphBuilder::with_capacity(n, self.scratch.marks.len());
        for &(u, v) in &self.scratch.marks {
            b.add_edge(u, v);
        }
        self.sparse = b.build();
        let sparse_edges = self.sparse.num_edges() as u64;
        work += sparse_edges;
        self.fresh.reset(n);
        self.rebuild = Rebuild::Greedy { next_edge: 0 };

        // The rebuild costs one greedy pass plus forest phases of
        // ≤ 2·|E(G_Δ)| half-edges each at the caps up to `2⌈4/ε⌉ − 1`, so
        // O(|E(G_Δ)|/ε) units, plus the certification sweep: one search
        // per vertex the phases leave free, which |E(G_Δ)| does not
        // predict. Reserve what the last sweep cost — one window of
        // updates earlier — and spread the total over the Gupta–Peng
        // window.
        let window = ((self.params.eps / 4.0) * self.output.len().max(1) as f64).floor() as usize;
        self.window_left = window.max(1);
        let units_per_edge = 2 + (8.0 / self.params.eps) as u64;
        let estimate = (sparse_edges + 1) * units_per_edge + self.certify_estimate;
        self.budget = estimate.div_ceil(self.window_left as u64);
        work
    }

    /// Advance the rebuild until at least `budget` work units are spent
    /// or it finishes; returns the units spent. Greedy runs the
    /// edge-id-order scan of `greedy_maximal_matching` a range at a time,
    /// one unit per edge; augmentation runs whole [`AugSchedule`] quanta.
    fn advance(&mut self, budget: u64) -> u64 {
        let mut spent = 0u64;
        while spent < budget {
            match &mut self.rebuild {
                Rebuild::Greedy { next_edge } => {
                    let start = *next_edge;
                    let m = self.sparse.num_edges();
                    let end = m.min(start.saturating_add((budget - spent) as usize));
                    greedy_edges_into(&self.sparse, &mut self.fresh, start..end);
                    spent += (end - start) as u64;
                    *next_edge = end;
                    if end == m {
                        self.scratch.searcher.reset_from(&self.fresh);
                        let max_len = max_path_len_for_eps(self.params.eps / 4.0);
                        self.rebuild = Rebuild::Augment(AugSchedule::new(max_len));
                    }
                }
                Rebuild::Augment(schedule) => {
                    spent +=
                        schedule.advance(&self.sparse, &mut self.scratch.searcher, budget - spent);
                    if schedule.is_done() {
                        self.certify_estimate = schedule.certification_work();
                        self.scratch.searcher.write_matching_into(&mut self.fresh);
                        self.rebuild = Rebuild::Done;
                    }
                }
                Rebuild::Done => break,
            }
        }
        spent
    }

    /// Theory bound on the worst-case per-update work: `O(Δ/ε³)` units.
    /// The constants reflect this implementation's splitting: the static
    /// stage runs at ε/4, its augmentation visits `O(m_Δ/(ε/4))` edges
    /// with `m_Δ ≤ 4·|MCM|·Δ`, and the window has `⌊ε/4·|M|⌋` updates —
    /// so the per-update share is about `Δ·(4/ε)²·4/ε = 64·Δ/ε³`.
    pub fn work_bound(&self) -> u64 {
        let eps = self.params.eps;
        (64.0 * self.params.mark_cap() as f64 / (eps * eps * eps)) as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::Update;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};
    use sparsimatch_matching::blossom::maximum_matching;

    fn insert(u: usize, v: usize) -> Update {
        Update::Insert(VertexId::new(u), VertexId::new(v))
    }
    fn delete(u: usize, v: usize) -> Update {
        Update::Delete(VertexId::new(u), VertexId::new(v))
    }

    #[test]
    fn output_always_valid() {
        let mut rng = StdRng::seed_from_u64(1);
        let params = SparsifierParams::practical(2, 0.5);
        let mut dm = DynamicMatcher::new(40, params, 7);
        let mut reference = AdjListGraph::new(40);
        for step in 0..1500 {
            let u = rng.random_range(0..40);
            let v = rng.random_range(0..40);
            if u == v {
                continue;
            }
            let upd = if rng.random_bool(0.6) {
                reference.insert_edge(VertexId::new(u), VertexId::new(v));
                insert(u, v)
            } else {
                reference.delete_edge(VertexId::new(u), VertexId::new(v));
                delete(u, v)
            };
            dm.apply(upd);
            // Validity: every output pair is a current edge (checked on a
            // sample of steps plus the first 50, where churn is highest).
            if step < 50 || step % 25 == 0 {
                let snapshot = dm.graph().to_csr();
                assert!(dm.matching().is_valid_for(&snapshot));
            }
        }

        // A β-bounded host: insert every edge, deleting a random present
        // edge after every seventh insert.
        let mut rng = StdRng::seed_from_u64(3);
        let host = clique_union(
            CliqueUnionConfig {
                n: 80,
                diversity: 2,
                clique_size: 16,
            },
            &mut rng,
        );
        let mut dm = DynamicMatcher::new(80, params, 9);
        let mut present = Vec::new();
        for (i, (_, u, v)) in host.edges().enumerate() {
            dm.apply(Update::Insert(u, v));
            present.push((u, v));
            if i % 7 == 6 {
                let (a, b) = present.swap_remove(rng.random_range(0..present.len()));
                dm.apply(Update::Delete(a, b));
            }
            if i % 50 == 49 {
                assert!(dm.matching().is_valid_for(&dm.graph().to_csr()), "step {i}");
            }
        }
        let snapshot = dm.graph().to_csr();
        assert!(dm.matching().is_valid_for(&snapshot));
        let exact = maximum_matching(&snapshot).len();
        assert!(
            dm.matching().len() as f64 * 2.0 >= exact as f64,
            "served {} vs exact {exact}",
            dm.matching().len()
        );
    }

    #[test]
    fn insert_only_stream_tracks_mcm() {
        let params = SparsifierParams::practical(1, 0.4);
        let mut dm = DynamicMatcher::new(100, params, 3);
        // Build a clique incrementally.
        for u in 0..100 {
            for v in (u + 1)..100 {
                dm.apply(insert(u, v));
            }
        }
        let snapshot = dm.graph().to_csr();
        let exact = maximum_matching(&snapshot).len();
        assert_eq!(exact, 50);
        // After ~5000 inserts the window machinery has cycled many times;
        // the served matching must be within (1+eps) of 50 (whp), plus the
        // stability slack of one window (<= eps/4 * |M|).
        assert!(
            dm.matching().len() as f64 * 1.55 >= exact as f64,
            "served {} vs exact {exact}",
            dm.matching().len()
        );
    }

    #[test]
    fn deletion_of_matched_edge_prunes_output() {
        let params = SparsifierParams::practical(1, 0.5);
        let mut dm = DynamicMatcher::new(4, params, 5);
        dm.apply(insert(0, 1));
        // Force window turnover so (0,1) can enter the output.
        for _ in 0..50 {
            dm.apply(insert(2, 3));
            dm.apply(delete(2, 3));
        }
        if dm.matching().mate(VertexId(0)) == Some(VertexId(1)) {
            dm.apply(delete(0, 1));
            assert!(!dm.matching().is_matched(VertexId(0)));
        }
    }

    #[test]
    fn work_per_update_is_bounded_by_theory_shape() {
        // On a growing clique stream (random insertion order, so the
        // intermediate graphs keep small neighborhood independence — a
        // row-major order would pass through star-like, huge-β states the
        // theorem does not cover), per-update work must stay within a
        // constant factor of the O(Δ/ε³) bound — in particular it must
        // not grow with n.
        use rand::seq::SliceRandom;
        let params = SparsifierParams::practical(3, 0.5);
        let mut dm = DynamicMatcher::new(120, params, 11);
        let mut edges: Vec<(usize, usize)> = (0..120)
            .flat_map(|u| ((u + 1)..120).map(move |v| (u, v)))
            .collect();
        let mut rng = StdRng::seed_from_u64(99);
        edges.shuffle(&mut rng);
        let mut max_work = 0u64;
        for (u, v) in edges {
            let r = dm.apply(insert(u, v));
            max_work = max_work.max(r.work);
        }
        let bound = dm.work_bound();
        assert!(
            max_work <= 4 * bound,
            "max work {max_work} vs theory shape {bound}"
        );
    }

    /// `(one search, mark and layout)`: the atomic quanta on `n`
    /// vertices — a forest phase or single-root search visits ≤ 2
    /// half-edges per sparsifier edge, plus one (`|E(G_Δ)| ≤ n·mark_cap`);
    /// the boundary's mark probes ≤ mark_cap + 1 slots per vertex and its
    /// layout writes ≤ mark_cap edges per vertex.
    fn quanta(n: usize, params: SparsifierParams) -> (u64, u64) {
        let cap = params.mark_cap() as u64;
        (2 * n as u64 * cap + 1, n as u64 * (2 * cap + 1))
    }

    #[test]
    fn per_update_work_stays_near_budget() {
        use rand::seq::SliceRandom;
        let mut rng = StdRng::seed_from_u64(4);
        let host = clique_union(
            CliqueUnionConfig {
                n: 150,
                diversity: 2,
                clique_size: 30,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(2, 0.5);
        let (search, mark_build) = quanta(150, params);
        // Host order passes through star-like, huge-β graphs where the
        // certification sweep outweighs the bulk phases; random order
        // keeps every intermediate graph β-bounded.
        let sorted: Vec<_> = host.edges().map(|(_, u, v)| (u, v)).collect();
        let mut shuffled = sorted.clone();
        shuffled.shuffle(&mut rng);
        for (order, edges) in [("sorted", sorted), ("shuffled", shuffled)] {
            let mut dm = DynamicMatcher::new(150, params, 11);
            let mut max_work = 0u64;
            let mut max_budget = 0u64;
            for (i, (u, v)) in edges.into_iter().enumerate() {
                let budget = dm.budget;
                let report = dm.apply(Update::Insert(u, v));
                // The budget slice overshoots by less than one search; a
                // boundary adds the next mark and layout, never an
                // unfinished rebuild's remainder.
                let limit = 1 + budget + search + if report.swapped { mark_build } else { 0 };
                assert!(
                    report.work <= limit,
                    "{order} update {i}: work {} vs budget {budget} + quanta",
                    report.work
                );
                max_work = max_work.max(report.work);
                max_budget = max_budget.max(dm.budget);
            }
            let sparse_bound = (150 * params.mark_cap()) as u64;
            assert!(
                max_work <= max_budget + 3 * sparse_bound,
                "{order}: max work {max_work} vs budget {max_budget} + quantum {sparse_bound}"
            );
        }
    }

    #[test]
    fn boundary_quantum_grows_with_non_isolated_vertices() {
        // work_bound() depends on Δ and ε only, but a boundary update marks
        // and lays out G_Δ in one step over all n' non-isolated vertices.
        // On this host that quantum exceeds work_bound(); it stays within
        // n'·(2·mark_cap + 1) on top of the budget slice.
        use rand::seq::SliceRandom;
        let n = 600;
        let mut rng = StdRng::seed_from_u64(6);
        let host = clique_union(
            CliqueUnionConfig {
                n,
                diversity: 2,
                clique_size: 40,
            },
            &mut rng,
        );
        let params = SparsifierParams::practical(2, 0.5);
        let mut edges: Vec<_> = host.edges().map(|(_, u, v)| (u, v)).collect();
        edges.shuffle(&mut rng);
        let mut dm = DynamicMatcher::new(n, params, 13);
        let mut max_boundary = 0u64;
        for (u, v) in edges {
            let budget = dm.budget;
            let report = dm.apply(Update::Insert(u, v));
            if report.swapped {
                let non_isolated = (0..n)
                    .filter(|&v| dm.graph().degree(VertexId::new(v)) > 0)
                    .count();
                let (search, mark_build) = quanta(non_isolated, params);
                assert!(report.work <= 1 + budget + search + mark_build);
                max_boundary = max_boundary.max(report.work);
            }
        }
        assert!(
            max_boundary > dm.work_bound(),
            "max boundary work {max_boundary} must exceed work_bound {}",
            dm.work_bound()
        );
    }

    #[test]
    fn metered_updates_mirror_work() {
        let params = SparsifierParams::practical(1, 0.5);
        let mut dm = DynamicMatcher::new(10, params, 17);
        let mut meter = WorkMeter::new();
        let mut total = 0u64;
        let mut worst = 0u64;
        for i in 0..60 {
            let r = dm.apply_metered(insert(i % 9, (i + 1) % 9), &mut meter);
            total += r.work;
            worst = worst.max(r.work);
        }
        assert_eq!(meter.get(keys::UPDATES), 60);
        assert_eq!(meter.get(keys::UPDATE_WORK), total);
        assert_eq!(meter.get_max(keys::MAX_UPDATE_WORK), worst);
    }

    #[test]
    fn swap_reports_at_window_boundaries() {
        let params = SparsifierParams::practical(1, 0.5);
        let mut dm = DynamicMatcher::new(10, params, 13);
        let mut swaps = 0;
        for i in 0..100 {
            let r = dm.apply(insert(i % 9, (i + 1) % 9));
            swaps += r.swapped as u64;
        }
        assert!(swaps > 0, "windows must turn over");
    }
}
