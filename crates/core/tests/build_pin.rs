//! Byte-identity pins for every `G_Δ` build path and the in-memory solve.
//!
//! Each build is reduced to an FNV-1a hash of its CSR arrays (degrees,
//! half-edge targets and edge ids, endpoint list, resident bytes) plus
//! its statistics; the solve to a hash of its matching plus its stats,
//! probes, augmentation work and metered counters. Two inputs: one below
//! every parallel cutoff, and one whose `G_Δ` has ≥ 2^17 edges, so that
//! the parallel mark, extract and greedy stages all run at t > 1 on a
//! multi-core host. The values were captured before the build paths were
//! merged; any change to which edges are marked, how they are laid out,
//! or what the match stage returns moves them.

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_core::backend::Backend;
use sparsimatch_core::lower_bounds::build_plain_sparsifier;
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::scratch::PipelineScratch;
use sparsimatch_core::sparsifier::{
    build_sparsifier, build_sparsifier_parallel, mark_edges_oracle, Sparsifier,
};
use sparsimatch_core::stream_build::{build_sparsifier_streamed, RetryPolicy};
use sparsimatch_graph::csr::{from_edges, CsrGraph};
use sparsimatch_graph::generators::{clique_union, gnp, CliqueUnionConfig};
use sparsimatch_graph::ids::VertexId;
use sparsimatch_obs::WorkMeter;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

fn csr_hash(g: &CsrGraph) -> u64 {
    let mut h = Fnv::new();
    h.word(g.num_vertices() as u64);
    h.word(g.num_edges() as u64);
    h.word(g.memory_bytes() as u64);
    for v in 0..g.num_vertices() {
        let v = VertexId::new(v);
        h.word(g.degree(v) as u64);
        for (t, e) in g.incident(v) {
            h.word(u64::from(t.0));
            h.word(u64::from(e.0));
        }
    }
    for (_, u, v) in g.edges() {
        h.word(u64::from(u.0));
        h.word(u64::from(v.0));
    }
    h.0
}

/// `(csr hash, delta, mark_cap, low-degree vertices, marks placed, edges)`.
type BuildPin = (u64, usize, usize, usize, usize, usize);

fn build_pin(s: &Sparsifier) -> BuildPin {
    let st = &s.stats;
    (
        csr_hash(&s.graph),
        st.delta,
        st.mark_cap,
        st.low_degree_vertices,
        st.marks_placed,
        st.edges,
    )
}

/// Below every cutoff: 2^17 input edges (mark), 2^14 marked edges
/// (extract), 2^17 sparsifier edges (match). Degrees straddle the
/// `2Δ` cap, so about half the vertices sample, and 20 are isolated.
fn small() -> (CsrGraph, SparsifierParams) {
    let mut rng = StdRng::seed_from_u64(0x51);
    let core = gnp(380, 0.1, &mut rng);
    let g = from_edges(400, core.edges().map(|(_, u, v)| (u.index(), v.index())));
    (g, SparsifierParams::with_delta(2, 0.4, 19))
}

/// Above every cutoff: its `G_Δ` keeps ≥ 2^17 edges, while its vertices
/// (degree ~60 > 2Δ) still sample.
fn large() -> (CsrGraph, SparsifierParams) {
    let mut rng = StdRng::seed_from_u64(0x1A);
    let g = clique_union(
        CliqueUnionConfig {
            n: 12_000,
            diversity: 2,
            clique_size: 31,
        },
        &mut rng,
    );
    (g, SparsifierParams::with_delta(2, 0.4, 12))
}

fn inputs() -> [(&'static str, CsrGraph, SparsifierParams); 2] {
    let (gs, ps) = small();
    let (gl, pl) = large();
    [("small", gs, ps), ("large", gl, pl)]
}

#[test]
fn shared_rng_builds_are_pinned() {
    let expect: [(BuildPin, u64, u64); 2] = [
        (
            (2508349782468924539, 19, 38, 219, 10165, 6605),
            7164657260116361778,
            2106889001404661131,
        ),
        (
            (11686614338199001487, 12, 24, 0, 144000, 129535),
            1823912544413295119,
            900804524118333297,
        ),
    ];
    for ((name, g, p), want) in inputs().iter().zip(expect) {
        let shared = build_sparsifier(g, p, &mut StdRng::seed_from_u64(3));
        let mut h = Fnv::new();
        for (u, v) in mark_edges_oracle(g, p, &mut StdRng::seed_from_u64(4)) {
            h.word(u64::from(u.0));
            h.word(u64::from(v.0));
        }
        let plain = build_plain_sparsifier(g, p.delta, &mut StdRng::seed_from_u64(5));
        let got = (build_pin(&shared), h.0, csr_hash(&plain));
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn seeded_builds_are_pinned_at_every_thread_count() {
    let expect: [BuildPin; 2] = [
        (8814679370849402203, 19, 38, 219, 10165, 6614),
        (11673526548120666539, 12, 24, 0, 144000, 129508),
    ];
    for ((name, g, p), want) in inputs().iter().zip(expect) {
        for threads in [1usize, 2, 4] {
            let s = build_sparsifier_parallel(g, p, 17, threads).unwrap();
            assert_eq!(build_pin(&s), want, "{name} t={threads}");
        }
    }
}

#[test]
fn streamed_build_is_pinned() {
    // (build pin, peak resident bytes, sparsifier bytes, probes, scanned)
    type StreamPin = (BuildPin, usize, usize, (u64, u64), u64);
    let expect: [StreamPin; 2] = [
        (
            (8814679370849402203, 19, 38, 219, 10165, 6614),
            167124,
            160340,
            (800, 10165),
            29048,
        ),
        (
            (11673526548120666539, 12, 24, 0, 144000, 129508),
            3320132,
            3156196,
            (24000, 144000),
            1438008,
        ),
    ];
    for ((name, g, p), want) in inputs().iter().zip(expect) {
        let mut src = g.clone();
        let (s, report) =
            build_sparsifier_streamed(&mut src, p, 17, &RetryPolicy::none(), None).unwrap();
        let got = (
            build_pin(&s),
            report.peak_resident_bytes,
            report.sparsifier_bytes,
            (report.probes.degree_probes, report.probes.neighbor_probes),
            report.edges_scanned,
        );
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn delta_solve_is_pinned_at_every_thread_count() {
    // (matching hash, |M|, stats + aug hash, probes hash, counters hash)
    let expect: [(u64, usize, u64, u64, u64); 2] = [
        (
            3664494268489743253,
            190,
            11006712242837248523,
            116463741330629312,
            16102863120700227474,
        ),
        (
            13933237590903596705,
            6000,
            12859390699488886340,
            8369074582564810136,
            11265837416117672908,
        ),
    ];
    for ((name, g, p), want) in inputs().iter().zip(expect) {
        let backend = Backend::Delta(*p);
        for threads in [1usize, 2, 4] {
            let mut meter = WorkMeter::new();
            let mut scratch = PipelineScratch::new();
            let r = backend
                .solve(g, 29, threads, Some(&mut meter), &mut scratch)
                .unwrap();
            let mut pairs = Fnv::new();
            for (u, v) in r.matching.pairs() {
                pairs.word(u64::from(u.0));
                pairs.word(u64::from(v.0));
            }
            let mut stats = Fnv::new();
            let st = &r.sparsifier;
            for x in [
                st.delta,
                st.mark_cap,
                st.low_degree_vertices,
                st.marks_placed,
                st.edges,
                r.aug.augmentations,
                r.aug.searches,
            ] {
                stats.word(x as u64);
            }
            stats.word(r.aug.edge_visits);
            let mut probes = Fnv::new();
            probes.word(r.probes.degree_probes);
            probes.word(r.probes.neighbor_probes);
            let mut counters = Fnv::new();
            for (k, v) in meter.counters() {
                for byte in k.bytes() {
                    counters.word(u64::from(byte));
                }
                counters.word(v);
            }
            let got = (pairs.0, r.matching.len(), stats.0, probes.0, counters.0);
            if *name == "large" {
                assert!(st.edges >= 1 << 17, "large input must clear every cutoff");
            } else {
                assert!(
                    g.num_edges() < 1 << 17 && st.edges < 1 << 14,
                    "small input must sit below every cutoff"
                );
            }
            assert_eq!(got, want, "{name} t={threads}");
        }
    }
}
