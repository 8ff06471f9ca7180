//! E10 — Theorem 3.5: fully dynamic `(1+ε)` matching with flat worst-case
//! update work, against oblivious and **adaptive** adversaries.
//!
//! Three competitors over the same β-bounded host streams:
//!
//! * the window scheme (this paper) — per-update work `O(β/ε³·log(1/ε))`,
//!   flat in n, up to the atomic quanta of its time-sliced rebuild;
//! * the Barenboim–Maimon-style threshold maximal matching — update work
//!   growing like `√(βn)`, 2-approximate;
//! * naive full recompute — per-update work `Θ(|MCM|·Δ)`.
//!
//! The table reports max / p99 / mean per-update work (machine-independent
//! units, as performed by each update) and the worst audited ratio
//! against exact recomputation.

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_bench::stats::quantile;
use sparsimatch_bench::table::{f3, Table};
use sparsimatch_bench::{scale_from_args, Scale, Violations};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_dynamic::adversary::{Adversary, Policy, StreamAdversary};
use sparsimatch_dynamic::baselines::{NaiveRecompute, ThresholdMaximalMatching};
use sparsimatch_dynamic::harness::run_dynamic;
use sparsimatch_dynamic::scheme::DynamicMatcher;
use sparsimatch_graph::generators::{clique_union, CliqueUnionConfig};
use sparsimatch_matching::blossom::maximum_matching;
use sparsimatch_matching::Matching;

fn main() {
    let scale = scale_from_args();
    let (ns, steps): (&[usize], usize) = match scale {
        Scale::Quick => (&[100, 200], 4000),
        Scale::Full => (&[100, 200, 400, 800], 20000),
    };
    let eps = 0.5;
    let beta = 2;
    let mut violations = Violations::new();
    let mut table = Table::new(&[
        "n",
        "adversary",
        "algo",
        "max work",
        "p99 work",
        "mean work",
        "worst ratio",
    ]);

    println!("E10 / Theorem 3.5: dynamic update work and adaptive robustness");
    println!("host: 2-layer clique union (beta <= 2), eps = {eps}\n");
    let mut scheme_max_by_n = Vec::new();
    let mut threshold_max_by_n = Vec::new();
    for &n in ns {
        let mut rng = StdRng::seed_from_u64(0xE10 + n as u64);
        let host = clique_union(
            CliqueUnionConfig {
                n,
                diversity: beta,
                clique_size: n / 4,
            },
            &mut rng,
        );
        for (adv_name, policy) in [
            ("oblivious", Policy::Oblivious { p_insert: 0.7 }),
            ("adaptive", Policy::AdaptiveDeleteMatched { p_insert: 0.7 }),
        ] {
            // (1) The window scheme.
            let params = SparsifierParams::practical(beta, eps);
            let mut dm = DynamicMatcher::new(n, params, 0xD + n as u64);
            let mut adv = StreamAdversary::new(&host, policy);
            let s = run_dynamic(&mut dm, &mut adv, steps, steps / 8, &mut rng);
            violations.check(s.worst_ratio <= 2.0, || {
                format!(
                    "scheme n={n} {adv_name}: ratio {:.3} blew past 2",
                    s.worst_ratio
                )
            });
            if adv_name == "adaptive" {
                scheme_max_by_n.push(s.max_work);
            }
            table.row(vec![
                n.to_string(),
                adv_name.into(),
                "window scheme".into(),
                s.max_work.to_string(),
                s.p99_work.to_string(),
                f3(s.avg_work),
                f3(s.worst_ratio),
            ]);

            // (2) Threshold maximal matching baseline.
            let mut tm = ThresholdMaximalMatching::new(n, beta);
            let mut adv = StreamAdversary::new(&host, policy);
            let mut works = Vec::with_capacity(steps);
            let mut worst_ratio = 1.0f64;
            for step in 0..steps {
                let upd = adv.next(tm.matching(), &mut rng);
                works.push(tm.apply(upd) as f64);
                if step % (steps / 8) == (steps / 8) - 1 {
                    let snap = graph_of(&tm);
                    let exact = maximum_matching(&snap).len();
                    if exact > 0 {
                        worst_ratio =
                            worst_ratio.max(exact as f64 / tm.matching().len().max(1) as f64);
                    }
                }
            }
            let max_w = works.iter().cloned().fold(0.0f64, f64::max);
            if adv_name == "adaptive" {
                threshold_max_by_n.push(max_w as u64);
            }
            table.row(vec![
                n.to_string(),
                adv_name.into(),
                "threshold MM (BM)".into(),
                (max_w as u64).to_string(),
                (quantile(&works, 0.99) as u64).to_string(),
                f3(works.iter().sum::<f64>() / works.len() as f64),
                f3(worst_ratio),
            ]);
        }

        // (3) Naive recompute, oblivious only (it is slow by design).
        let mut rng2 = StdRng::seed_from_u64(0xE10 + n as u64);
        let mut nr = NaiveRecompute::new(n, SparsifierParams::practical(beta, eps), 3);
        let mut adv = StreamAdversary::new(&host, Policy::Oblivious { p_insert: 0.7 });
        let naive_steps = steps / 10;
        let mut works = Vec::with_capacity(naive_steps);
        for _ in 0..naive_steps {
            let upd = adv.next(&Matching::new(n), &mut rng2);
            works.push(nr.apply(upd) as f64);
        }
        table.row(vec![
            n.to_string(),
            "oblivious".into(),
            "naive recompute".into(),
            (works.iter().cloned().fold(0.0f64, f64::max) as u64).to_string(),
            (quantile(&works, 0.99) as u64).to_string(),
            f3(works.iter().sum::<f64>() / works.len() as f64),
            "-".into(),
        ]);
    }
    table.print();

    // Shape check: the scheme's worst-case work must stay flat while the
    // threshold baseline grows with sqrt(n)-ish.
    if scheme_max_by_n.len() >= 2 {
        let first = scheme_max_by_n[0] as f64;
        let last = *scheme_max_by_n.last().unwrap() as f64;
        let n_growth = ns[ns.len() - 1] as f64 / ns[0] as f64;
        violations.check(last <= first * n_growth.sqrt() + 200.0, || {
            format!("scheme max work grew {first} -> {last}: not flat in n")
        });
        println!(
            "\nscheme max work by n: {:?}; threshold baseline max work by n: {:?}.",
            scheme_max_by_n, threshold_max_by_n
        );
        println!(
            "note: the threshold baseline's √(βn) repair *budget* grows (T = {:?} across n),\n\
             but dense hosts rarely exhaust it — its cost shows in the approximation column\n\
             (drifting toward 2) rather than in realized work.",
            ns.iter()
                .map(|&n| ThresholdMaximalMatching::new(n, beta).threshold())
                .collect::<Vec<_>>()
        );
    }
    violations.finish_json("E10", env!("CARGO_BIN_NAME"), scale, &[&table]);
}

fn graph_of(tm: &ThresholdMaximalMatching) -> sparsimatch_graph::csr::CsrGraph {
    tm.graph_snapshot()
}
