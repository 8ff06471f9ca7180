//! Cross-crate integration: the distributed pipeline under fault
//! injection (ISSUE 3 tentpole). The per-algorithm chaos coverage lives
//! in `crates/distsim/tests/chaos.rs`; this file pins the end-to-end
//! pipeline contract: valid matchings under every standing plan,
//! deterministic replay, zero-fault equality with the pipeline run over
//! the sequential perfect-network reference, and the ack/retry
//! resilience layer recovering matching size at a visible (and
//! accounted) round cost.

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch::core::solomon::degree_cap_for;
use sparsimatch::distsim::algorithms::israeli_itai::israeli_itai_matching;
use sparsimatch::distsim::algorithms::matching::{bounded_degree_matching, maximal_matching_only};
use sparsimatch::distsim::algorithms::pipeline::{
    distributed_matching, DistAlgo, DistributedOutcome,
};
use sparsimatch::distsim::algorithms::solomon::distributed_solomon;
use sparsimatch::distsim::algorithms::sparsify::distributed_sparsifier;
use sparsimatch::distsim::{
    FaultPlan, FaultRates, FaultStats, FaultyNetwork, Metrics, ResilienceParams,
};
use sparsimatch::prelude::*;

const ALGOS: [DistAlgo; 3] = [DistAlgo::Approx, DistAlgo::Maximal, DistAlgo::Randomized];

/// The pipeline on one round worker under `plan`.
fn run(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    algo: DistAlgo,
    plan: &FaultPlan,
    resilience: ResilienceParams,
) -> DistributedOutcome {
    distributed_matching(g, params, seed, algo, plan, resilience, 1)
}

/// The same three phases, each on a perfect sequential reference
/// network (`FaultyNetwork` under the empty plan).
fn perfect_reference(
    g: &CsrGraph,
    params: &SparsifierParams,
    seed: u64,
    algo: DistAlgo,
) -> DistributedOutcome {
    let mut metrics = Metrics::new();
    let mut rounds = Vec::new();
    let mut net = FaultyNetwork::new(g, FaultPlan::none());
    let g_delta = distributed_sparsifier(&mut net, params, seed);
    metrics.absorb(net.metrics());
    rounds.push(net.metrics().rounds);
    let mut net = FaultyNetwork::new(&g_delta, FaultPlan::none());
    let cap = degree_cap_for(params.arboricity_bound(), params.eps);
    let composed = distributed_solomon(&mut net, cap);
    metrics.absorb(net.metrics());
    rounds.push(net.metrics().rounds);
    let mut net = FaultyNetwork::new(&composed, FaultPlan::none());
    let matching = match algo {
        DistAlgo::Approx => bounded_degree_matching(&mut net, params.eps).0,
        DistAlgo::Maximal => maximal_matching_only(&mut net),
        DistAlgo::Randomized => israeli_itai_matching(&mut net, seed).0,
    };
    metrics.absorb(net.metrics());
    rounds.push(net.metrics().rounds);
    DistributedOutcome {
        matching,
        metrics,
        phase_rounds: (rounds[0], rounds[1], rounds[2]),
        composed_max_degree: composed.max_degree(),
        faults: FaultStats::default(),
    }
}

fn chaos_graph() -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    clique_union(
        CliqueUnionConfig {
            n: 120,
            diversity: 2,
            clique_size: 24,
        },
        &mut rng,
    )
}

fn standing_plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "drop",
            FaultPlan::new(
                seed,
                FaultRates {
                    drop: 0.3,
                    ..Default::default()
                },
            )
            .with_horizon(40),
        ),
        (
            "mixed",
            FaultPlan::new(
                seed,
                FaultRates {
                    drop: 0.25,
                    duplicate: 0.25,
                    reorder: 0.5,
                    ..Default::default()
                },
            )
            .with_horizon(60),
        ),
        (
            "crash",
            FaultPlan::new(
                seed,
                FaultRates {
                    crash: 0.15,
                    ..Default::default()
                },
            )
            .with_crash_period(4)
            .with_horizon(48),
        ),
    ]
}

fn assert_outcomes_equal(a: &DistributedOutcome, b: &DistributedOutcome, ctx: &str) {
    let pa: Vec<_> = a.matching.pairs().collect();
    let pb: Vec<_> = b.matching.pairs().collect();
    assert_eq!(pa, pb, "{ctx}: matchings differ");
    assert_eq!(a.metrics, b.metrics, "{ctx}: metrics differ");
    assert_eq!(a.phase_rounds, b.phase_rounds, "{ctx}: phase rounds differ");
    assert_eq!(a.faults, b.faults, "{ctx}: fault counters differ");
    assert_eq!(
        a.composed_max_degree, b.composed_max_degree,
        "{ctx}: composed degree differs"
    );
}

#[test]
fn pipeline_stays_valid_and_replayable_under_every_plan() {
    let g = chaos_graph();
    let params = SparsifierParams::with_delta(2, 0.5, 8);
    for algo in ALGOS {
        for (pname, plan) in standing_plans(41) {
            let ctx = format!("{algo:?}/{pname}");
            let out = run(&g, &params, 7, algo, &plan, ResilienceParams::off());
            assert!(out.matching.is_valid_for(&g), "{ctx}: invalid matching");
            let again = run(&g, &params, 7, algo, &plan, ResilienceParams::off());
            assert_outcomes_equal(&out, &again, &ctx);
            // Faults actually happened — the plan is not a silent no-op.
            assert!(
                out.faults.dropped + out.faults.duplicated + out.faults.crashed_rounds > 0,
                "{ctx}: plan injected nothing"
            );
        }
    }
}

#[test]
fn zero_fault_pipeline_equals_perfect_network_exactly() {
    let g = chaos_graph();
    let params = SparsifierParams::with_delta(2, 0.5, 8);
    let plan = FaultPlan::none();
    let off = ResilienceParams::off();

    for algo in ALGOS {
        let perfect = perfect_reference(&g, &params, 7, algo);
        let faulty = run(&g, &params, 7, algo, &plan, off);
        let ctx = format!("{algo:?}");
        assert_outcomes_equal(&perfect, &faulty, &ctx);
        assert_eq!(faulty.faults, FaultStats::default(), "{ctx}");
    }
}

#[test]
fn resilience_recovers_matching_size_at_a_round_cost() {
    let g = chaos_graph();
    let params = SparsifierParams::with_delta(2, 0.5, 8);
    // Heavy early losses: 60% drops in the first 3 rounds hit the
    // one-round sparsifier phases hard.
    let plan = FaultPlan::new(
        2,
        FaultRates {
            drop: 0.6,
            ..Default::default()
        },
    )
    .with_horizon(3);

    let maximal = DistAlgo::Maximal;
    let fragile = run(&g, &params, 7, maximal, &plan, ResilienceParams::off());
    let hardened = run(&g, &params, 7, maximal, &plan, ResilienceParams::retry(3));
    let baseline = run(
        &g,
        &params,
        7,
        maximal,
        &FaultPlan::none(),
        ResilienceParams::off(),
    );

    assert!(fragile.matching.is_valid_for(&g));
    assert!(hardened.matching.is_valid_for(&g));
    // Retries win back sparsifier edges the drops destroyed.
    assert!(
        hardened.matching.len() >= fragile.matching.len(),
        "resilience made things worse: {} < {}",
        hardened.matching.len(),
        fragile.matching.len()
    );
    assert!(hardened.faults.retries > 0, "retry layer never fired");
    // The recovery is paid for in accounted rounds and messages (acks).
    assert!(hardened.metrics.rounds > fragile.metrics.rounds);
    assert!(hardened.metrics.messages > fragile.metrics.messages);
    // And with losses confined to 3 rounds + 3 retries each, the hardened
    // run should land close to the fault-free baseline.
    assert!(
        hardened.matching.len() * 10 >= baseline.matching.len() * 9,
        "hardened {} too far below baseline {}",
        hardened.matching.len(),
        baseline.matching.len()
    );
}

#[test]
fn drop_rate_degrades_matching_size_monotonically_in_expectation() {
    // The sweep experiment's core claim, pinned at test scale: averaged
    // over seeds, matching size does not increase when the drop rate does.
    let g = chaos_graph();
    let params = SparsifierParams::with_delta(2, 0.5, 8);
    let exact = maximum_matching(&g).len();
    let mut means = Vec::new();
    for drop in [0.0, 0.4, 0.95] {
        let mut total = 0usize;
        for seed in 0..5u64 {
            let plan = FaultPlan::new(
                seed,
                FaultRates {
                    drop,
                    ..Default::default()
                },
            )
            .with_horizon(2); // both one-round sparsifier phases disrupted
            let out = run(
                &g,
                &params,
                seed,
                DistAlgo::Maximal,
                &plan,
                ResilienceParams::off(),
            );
            assert!(out.matching.is_valid_for(&g));
            total += out.matching.len();
        }
        means.push(total as f64 / 5.0);
    }
    assert!(
        means[0] >= means[1] && means[1] >= means[2],
        "matching size not degrading with drop rate: {means:?}"
    );
    assert!(means[0] as usize * 2 >= exact, "p=0 sanity bound");
}
