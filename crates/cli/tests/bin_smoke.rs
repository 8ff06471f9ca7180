//! End-to-end smoke tests of the actual `sparsimatch` binary.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sparsimatch"))
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("sparsify"));
}

#[test]
fn bad_subcommand_exits_two() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand"));
}

#[test]
fn generate_analyze_match_roundtrip() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("smoke.el");

    let out = bin()
        .args([
            "generate",
            "clique",
            "--n",
            "40",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);

    let out = bin()
        .args(["analyze", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("vertices:      40"), "{text}");
    assert!(text.contains("edges:         780"), "{text}");

    let out = bin()
        .args(["match", file.to_str().unwrap(), "--exact"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("matching size: 20"), "{text}");

    let out = bin()
        .args([
            "match",
            file.to_str().unwrap(),
            "--beta",
            "1",
            "--eps",
            "0.4",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("probes:"), "{text}");

    std::fs::remove_file(&file).ok();
}

#[test]
fn metrics_timings_env_exposes_stage_spans() {
    // Runs the binary in a subprocess so the env var cannot race other
    // in-process tests that rely on timings staying off.
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("spans.el");
    let metrics = dir.join("spans.json");

    let out = bin()
        .args([
            "generate",
            "clique",
            "--n",
            "200",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let out = bin()
        .args([
            "match",
            file.to_str().unwrap(),
            "--beta",
            "1",
            "--eps",
            "0.4",
            "--seed",
            "3",
            "--threads",
            "2",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .env("SPARSIMATCH_METRICS_TIMINGS", "1")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let text = std::fs::read_to_string(&metrics).unwrap();
    let doc = sparsimatch_obs::Json::parse(&text).unwrap();
    let spans = doc
        .get("meter")
        .unwrap()
        .get("spans")
        .expect("timings env must add the spans section");
    let nanos = |key: &str| -> u64 {
        spans
            .get(key)
            .unwrap_or_else(|| panic!("span {key} missing"))
            .get("total_nanos")
            .unwrap()
            .as_u64()
            .unwrap()
    };
    let mark = nanos("stage.mark");
    let extract = nanos("stage.extract");
    let matching = nanos("stage.match");
    let total = nanos("pipeline.total");
    assert!(mark > 0 && extract > 0 && matching > 0 && total > 0);
    let stage_sum = mark + extract + matching;
    assert!(stage_sum <= total, "stages {stage_sum} > total {total}");
    assert!(
        stage_sum as f64 >= 0.9 * total as f64,
        "stages {stage_sum} fall short of 90% of total {total}"
    );

    for p in [&file, &metrics] {
        std::fs::remove_file(p).ok();
    }
}

/// One stderr line, the expected class message, and the class's stable
/// exit code (see `crates/cli/src/error.rs` for the table).
fn assert_fails(args: &[&str], code: i32, needle: &str) {
    let out = bin().args(args).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(code),
        "{args:?}: wrong exit code, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains(needle), "{args:?}: stderr {err:?}");
    assert_eq!(
        err.trim_end().lines().count(),
        1,
        "stderr must be one line: {err:?}"
    );
    assert!(err.starts_with("error: "), "{err:?}");
}

#[test]
fn missing_file_exits_three() {
    assert_fails(
        &["analyze", "/nonexistent/definitely-not-here.el"],
        3,
        "i/o error",
    );
}

#[test]
fn malformed_edge_list_exits_four() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let junk = dir.join("junk.el");
    std::fs::write(&junk, "3 2\n0 1\nhello world\n").unwrap();
    assert_fails(&["analyze", junk.to_str().unwrap()], 4, "line 3");

    let dup = dir.join("dup.el");
    std::fs::write(&dup, "3 2\n0 1\n1 0\n").unwrap();
    assert_fails(
        &["match", dup.to_str().unwrap(), "--exact"],
        4,
        "duplicate edge",
    );

    let looped = dir.join("loop.el");
    std::fs::write(&looped, "3 1\n2 2\n").unwrap();
    assert_fails(&["analyze", looped.to_str().unwrap()], 4, "self-loop");

    for p in [&junk, &dup, &looped] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn oversized_header_exits_five() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-big-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let big = dir.join("big.el");
    // A header demanding 2^60 vertices must die fast with "too large",
    // not attempt the allocation.
    std::fs::write(&big, "1152921504606846976 1\n0 1\n").unwrap();
    assert_fails(&["analyze", big.to_str().unwrap()], 5, "too large");
    std::fs::remove_file(&big).ok();
}

#[test]
fn bad_thread_count_exits_six() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-thr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("thr.el");
    std::fs::write(&file, "4 2\n0 1\n2 3\n").unwrap();
    assert_fails(
        &[
            "sparsify",
            file.to_str().unwrap(),
            "--beta",
            "1",
            "--eps",
            "0.5",
            "--threads",
            "65",
        ],
        6,
        "between 1 and 64",
    );
    std::fs::remove_file(&file).ok();
}

#[test]
fn invalid_parameter_exits_seven() {
    // NaN / out-of-range probabilities are caught by CLI validation
    // before any generator or fault-plan assertion can fire.
    assert_fails(&["generate", "gnp:NaN", "--n", "10"], 7, "probability");
    assert_fails(&["generate", "gnp:1.5", "--n", "10"], 7, "probability");

    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-param-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("param.el");
    std::fs::write(&file, "4 2\n0 1\n2 3\n").unwrap();
    assert_fails(
        &["distsim", file.to_str().unwrap(), "--drop", "2.0"],
        7,
        "--drop must be a probability",
    );
    std::fs::remove_file(&file).ok();
}

#[test]
fn edcs_backend_matches_end_to_end() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-edcs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("edcs.el");

    let out = bin()
        .args([
            "generate",
            "clique",
            "--n",
            "40",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let out = bin()
        .args([
            "match",
            file.to_str().unwrap(),
            "--backend",
            "edcs",
            "--eps",
            "0.3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("algorithm: edcs+match"), "{text}");
    assert!(text.contains("matching size: 20"), "{text}");
    assert!(text.contains("probes:"), "{text}");

    // EDCS construction is deterministic and ignores the seed, so a rerun
    // under a different seed must be byte-identical.
    let rerun = bin()
        .args([
            "match",
            file.to_str().unwrap(),
            "--backend",
            "edcs",
            "--eps",
            "0.3",
            "--seed",
            "99",
        ])
        .output()
        .unwrap();
    assert!(rerun.status.success(), "{rerun:?}");
    assert_eq!(text, String::from_utf8(rerun.stdout).unwrap());

    std::fs::remove_file(&file).ok();
}

/// The `meter.counters` of one `match` per backend, pinned key for key
/// and value for value. Each backend emits exactly its own keys: EDCS
/// reads no degrees and draws no randomness, so it has no
/// `adjacency.degree_probes` or `sampler.*` counters. The delta values
/// are the same at every `--threads`.
#[test]
fn match_metrics_counters_are_pinned_per_backend() {
    const DELTA: &str = "adjacency.degree_probes=1600 adjacency.neighbor_probes=72800 \
        matching.augmentations=1 matching.edge_visits=304 matching.searches=10 \
        sampler.overlay_writes=72800 sampler.rng_draws=72800 sparsifier.edges=63199";
    const EDCS: &str = "adjacency.neighbor_probes=2228992 matching.augmentations=1 \
        matching.edge_visits=88 matching.searches=5 sparsifier.edges=3147";

    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("golden.el");
    let metrics = dir.join("golden.json");
    let out = bin()
        .args([
            "generate",
            "clique-union:2:200",
            "--n",
            "800",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    // `alloc.*` totals appear only under `--features alloc-count` and are
    // process-wide, so they are not part of the pin.
    let counters = |flags: &[&str]| -> String {
        let out = bin()
            .args(["match", file.to_str().unwrap()])
            .args(flags)
            .args(["--metrics-json", metrics.to_str().unwrap()])
            .env_remove("SPARSIMATCH_METRICS_TIMINGS")
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        let text = std::fs::read_to_string(&metrics).unwrap();
        let doc = sparsimatch_obs::Json::parse(&text).unwrap();
        let input = doc.get("input").unwrap();
        assert_eq!(input.get("edges").unwrap().as_u64(), Some(139_312));
        let Some(sparsimatch_obs::Json::Object(members)) =
            doc.get("meter").unwrap().get("counters")
        else {
            panic!("meter.counters is not an object: {text}");
        };
        members
            .iter()
            .filter(|(k, _)| !k.starts_with("alloc."))
            .map(|(k, v)| format!("{k}={}", v.as_u64().unwrap()))
            .collect::<Vec<_>>()
            .join(" ")
    };

    for threads in ["1", "2"] {
        let flags = [
            "--beta",
            "2",
            "--eps",
            "0.3",
            "--seed",
            "7",
            "--threads",
            threads,
        ];
        assert_eq!(counters(&flags), DELTA, "delta at --threads {threads}");
    }
    assert_eq!(counters(&["--backend", "edcs", "--eps", "0.3"]), EDCS);

    for p in [&file, &metrics] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn backend_parameter_bounds_exit_seven() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-bparam-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bparam.el");
    std::fs::write(&file, "4 2\n0 1\n2 3\n").unwrap();
    let f = file.to_str().unwrap();

    // Latent panics in SparsifierParams::scaled are now typed CLI errors.
    assert_fails(
        &["match", f, "--beta", "0", "--eps", "0.4"],
        7,
        "--beta must be at least 1",
    );
    assert_fails(
        &["match", f, "--beta", "2", "--eps", "1"],
        7,
        "open interval (0, 1)",
    );
    assert_fails(
        &["sparsify", f, "--beta", "0", "--eps", "0.4"],
        7,
        "--beta must be at least 1",
    );
    assert_fails(
        &["distsim", f, "--beta", "2", "--eps", "NaN"],
        7,
        "open interval (0, 1)",
    );

    // EDCS-specific bounds surface the library's own invariant messages.
    assert_fails(
        &[
            "match",
            f,
            "--backend",
            "edcs",
            "--edcs-beta",
            "1",
            "--eps",
            "0.3",
        ],
        7,
        "at least 2",
    );
    assert_fails(
        &[
            "match",
            f,
            "--backend",
            "edcs",
            "--lambda",
            "1.5",
            "--eps",
            "0.3",
        ],
        7,
        "in (0, 1)",
    );
    assert_fails(
        &[
            "match",
            f,
            "--backend",
            "edcs",
            "--edcs-beta",
            "100",
            "--lambda",
            "0.001",
            "--eps",
            "0.3",
        ],
        7,
        "lambda * beta >= 1",
    );

    // Cross-backend knobs are usage errors caught at parse time.
    assert_fails(
        &[
            "match",
            f,
            "--backend",
            "edcs",
            "--beta",
            "3",
            "--eps",
            "0.3",
        ],
        2,
        "use --edcs-beta",
    );
    assert_fails(
        &["match", f, "--backend", "magic", "--eps", "0.3"],
        2,
        "must be delta or edcs",
    );

    std::fs::remove_file(&file).ok();
}

#[test]
fn check_replay_reproduces_a_real_counterexample_byte_identically() {
    use sparsimatch_check::shrink::DEFAULT_CALL_BUDGET;
    use sparsimatch_check::{counterexample_doc, shrink_instance, CheckConfig, Scenario};

    // Mis-parameterize exactly like `sparsimatch-check --delta 1
    // --bound-eps 0.05`: a forced-lossy sparsifier judged against a bound
    // tighter than Theorem 2.1 promises. Search a few seeds for the first
    // violation rather than hardcoding one, so generator changes cannot
    // silently turn this test into a no-op.
    let cfg = CheckConfig {
        bound_eps: Some(0.05),
        delta: Some(1),
        backend: None,
        oracle: None,
    };
    let (scenario, violation) = (0u64..64)
        .find_map(|seed| {
            let s = Scenario::generate(seed, &cfg);
            s.oracle.check(&s.instance, &cfg).map(|v| (s, v))
        })
        .expect("the mis-parameterized config must violate within 64 seeds");
    let slug = violation.check.clone();
    let oracle = scenario.oracle;
    let (small, stats) = shrink_instance(
        &scenario.instance,
        |c| oracle.check(c, &cfg).is_some_and(|v| v.check == slug),
        DEFAULT_CALL_BUDGET,
    );
    let fresh = oracle
        .check(&small, &cfg)
        .expect("shrunk instance violates");
    let doc = counterexample_doc(scenario.seed, oracle, &small, &cfg, &fresh, &stats);

    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("counterexample-{}.json", scenario.seed));
    std::fs::write(&file, doc.to_pretty()).unwrap();

    let out = bin()
        .args(["check", "--replay", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "replay of a just-written reproducer must exit 0: {out:?}"
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains(&format!("[{slug}]")), "{text}");
    assert!(text.contains("byte-identical: yes"), "{text}");

    std::fs::remove_file(&file).ok();
}

#[test]
fn check_replay_of_a_non_reproducing_file_exits_eight() {
    use sparsimatch_check::shrink::ShrinkStats;
    use sparsimatch_check::{
        counterexample_doc, CheckConfig, CheckInstance, OracleKind, Violation,
    };

    // Two disjoint edges are matched perfectly even through a Δ = 1
    // sparsifier, so the recorded "violation" cannot fire on replay.
    let inst = CheckInstance {
        family: "clique".to_string(),
        n: 4,
        beta: 1,
        eps: 0.4,
        delta: Some(1),
        algo_seed: 99,
        edges: vec![(0, 1), (2, 3)],
        updates: Vec::new(),
    };
    let cfg = CheckConfig {
        bound_eps: Some(0.05),
        delta: Some(1),
        backend: None,
        oracle: None,
    };
    let v = Violation {
        check: "stale".to_string(),
        message: "recorded against an older build".to_string(),
    };
    let doc = counterexample_doc(
        3,
        OracleKind::Static,
        &inst,
        &cfg,
        &v,
        &ShrinkStats::default(),
    );

    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-check8-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("counterexample-3.json");
    std::fs::write(&file, doc.to_pretty()).unwrap();

    assert_fails(
        &["check", "--replay", file.to_str().unwrap()],
        8,
        "did not reproduce",
    );
    // A syntactically broken reproducer is malformed input (4), not a
    // check failure.
    let junk = dir.join("junk.json");
    std::fs::write(&junk, "{\"tool\": \"other\"}").unwrap();
    assert_fails(
        &["check", "--replay", junk.to_str().unwrap()],
        4,
        "not a sparsimatch-check reproducer",
    );
    // A missing file is I/O (3).
    assert_fails(
        &["check", "--replay", "/nonexistent/counterexample-0.json"],
        3,
        "No such file",
    );

    for p in [&file, &junk] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn distsim_runs_and_reports_faults() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-dist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("dist.el");
    let metrics = dir.join("dist.json");

    let out = bin()
        .args([
            "generate",
            "clique-union:2:20",
            "--n",
            "80",
            "--seed",
            "4",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let out = bin()
        .args([
            "distsim",
            file.to_str().unwrap(),
            "--algo",
            "baseline",
            "--drop",
            "0.3",
            "--fault-horizon",
            "40",
            "--retries",
            "1",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("matching size:"), "{text}");
    assert!(text.contains("faults:"), "{text}");

    let doc = sparsimatch_obs::Json::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
    assert_eq!(doc.get("command").unwrap().as_str(), Some("distsim"));
    let counters = doc.get("meter").unwrap().get("counters").unwrap();
    let dropped = counters
        .get(sparsimatch_obs::keys::FAULTS_DROPPED)
        .expect("faults.dropped counter missing")
        .as_u64()
        .unwrap();
    assert!(dropped > 0, "a 30% drop plan must drop something");
    assert!(counters
        .get(sparsimatch_obs::keys::FAULTS_RETRIES)
        .is_some());
    let plan = doc.get("fault_plan").unwrap();
    assert_eq!(plan.get("horizon").unwrap().as_u64(), Some(40));

    for p in [&file, &metrics] {
        std::fs::remove_file(p).ok();
    }
}

/// `--threads 2` runs the sharded engine and must produce byte-identical
/// stdout (matching, rounds, messages, bits, fault counters) to the
/// sequential `--threads 1` run — including under an active fault plan.
#[test]
fn distsim_sharded_output_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("shard.el");

    let out = bin()
        .args([
            "generate",
            "clique-union:2:20",
            "--n",
            "80",
            "--seed",
            "4",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let run = |threads: &str| {
        let out = bin()
            .args([
                "distsim",
                file.to_str().unwrap(),
                "--algo",
                "randomized",
                "--pairs",
                "--drop",
                "0.2",
                "--fault-horizon",
                "30",
                "--retries",
                "1",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "t={threads}: {out:?}");
        out.stdout
    };
    let sequential = run("1");
    assert_eq!(run("2"), sequential, "t=2 stdout differs from t=1");
    assert_eq!(run("4"), sequential, "t=4 stdout differs from t=1");

    // Out-of-range thread counts die with the stable threads exit code.
    let out = bin()
        .args(["distsim", file.to_str().unwrap(), "--threads", "65"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(6),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("between 1 and 64"));

    std::fs::remove_file(&file).ok();
}

/// `distsim --threads 1 --pairs` stdout, pinned for every `--algo` on a
/// perfect network and under an active fault plan with retries. The
/// expected text was captured from the sequential simulator, before
/// `--threads 1` ran the sharded engine inline, so it anchors t = 1 (and
/// through the thread-invariance test, every t) to that reference.
#[test]
fn distsim_single_thread_stdout_is_pinned() {
    const PERFECT_APPROX: &str = "\
        algorithm: distributed approx-mcm\n\
        matching size: 40\n\
        rounds: 377  messages: 424411  bits: 3159259\n\
        faults: 0 dropped, 0 duplicated, 0 retries, 0 crashed node-rounds\n\
        0 70\n1 35\n2 74\n3 78\n4 66\n5 37\n6 36\n7 41\n\
        8 33\n9 40\n10 34\n11 47\n12 53\n13 45\n14 38\n15 39\n\
        16 76\n17 75\n18 58\n19 43\n20 59\n21 62\n22 44\n23 52\n\
        24 51\n25 49\n26 65\n27 54\n28 61\n29 68\n30 55\n31 77\n\
        32 63\n42 72\n46 67\n48 69\n50 79\n56 57\n60 71\n64 73\n";

    const PERFECT_BASELINE: &str = "\
        algorithm: distributed maximal (color-scheduled)\n\
        matching size: 39\n\
        rounds: 365  messages: 395923  bits: 1336027\n\
        faults: 0 dropped, 0 duplicated, 0 retries, 0 crashed node-rounds\n\
        0 2\n1 35\n3 78\n4 66\n5 37\n6 36\n7 41\n8 33\n\
        9 40\n10 34\n11 47\n12 53\n13 45\n14 38\n15 39\n16 76\n\
        17 75\n18 58\n19 43\n20 59\n21 62\n22 44\n23 52\n24 51\n\
        25 49\n26 65\n27 54\n28 61\n29 68\n30 55\n31 77\n32 63\n\
        42 72\n46 67\n48 69\n50 79\n56 57\n60 71\n64 73\n";

    const PERFECT_RANDOMIZED: &str = "\
        algorithm: distributed maximal (randomized)\n\
        matching size: 39\n\
        rounds: 12  messages: 13809  bits: 13809\n\
        faults: 0 dropped, 0 duplicated, 0 retries, 0 crashed node-rounds\n\
        0 24\n1 7\n2 8\n3 54\n4 49\n5 14\n6 69\n9 33\n\
        10 30\n11 55\n12 47\n13 22\n15 40\n16 26\n17 27\n18 46\n\
        19 23\n20 39\n21 73\n25 77\n28 35\n29 67\n31 66\n32 65\n\
        34 44\n36 75\n37 45\n38 56\n41 70\n42 76\n43 60\n48 71\n\
        50 62\n51 79\n52 57\n53 68\n58 63\n59 72\n61 64\n";

    const FAULTY_APPROX: &str = "\
        algorithm: distributed approx-mcm\n\
        matching size: 39\n\
        rounds: 762  messages: 781481  bits: 3393563\n\
        faults: 12025 dropped, 2653 duplicated, 8632 retries, 88 crashed node-rounds\n\
        0 2\n1 63\n3 78\n4 33\n5 37\n6 36\n7 41\n8 45\n\
        9 50\n10 34\n11 54\n12 53\n13 46\n14 38\n15 72\n16 76\n\
        17 52\n18 39\n19 47\n20 59\n21 62\n22 43\n23 44\n24 48\n\
        25 49\n26 65\n27 56\n28 74\n29 68\n30 57\n31 66\n32 71\n\
        35 73\n40 67\n42 75\n51 79\n55 70\n60 69\n61 64\n";

    const FAULTY_BASELINE: &str = "\
        algorithm: distributed maximal (color-scheduled)\n\
        matching size: 38\n\
        rounds: 750  messages: 754649  bits: 1676315\n\
        faults: 12025 dropped, 2653 duplicated, 8632 retries, 88 crashed node-rounds\n\
        0 2\n1 35\n3 78\n4 33\n5 37\n6 36\n7 41\n8 45\n\
        9 50\n10 34\n11 54\n12 53\n13 46\n14 38\n15 72\n16 76\n\
        17 52\n18 39\n19 47\n20 59\n21 62\n22 43\n23 44\n24 48\n\
        25 49\n26 65\n27 56\n28 74\n29 68\n30 57\n31 66\n32 71\n\
        40 67\n42 75\n51 79\n55 70\n60 69\n61 64\n";

    const FAULTY_RANDOMIZED: &str = "\
        algorithm: distributed maximal (randomized)\n\
        matching size: 39\n\
        rounds: 50  messages: 35138  bits: 35138\n\
        faults: 5987 dropped, 1304 duplicated, 4208 retries, 88 crashed node-rounds\n\
        0 33\n1 46\n3 74\n4 72\n5 11\n6 49\n7 50\n8 25\n\
        9 15\n10 22\n12 53\n13 31\n14 17\n16 28\n18 76\n19 36\n\
        20 44\n21 78\n23 34\n24 27\n26 61\n29 38\n30 40\n32 35\n\
        37 57\n39 67\n41 65\n42 47\n43 64\n45 70\n48 73\n51 79\n\
        52 56\n54 66\n55 75\n59 63\n60 69\n62 71\n68 77\n";

    let dir = std::env::temp_dir().join(format!("sparsimatch-bin-t1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("t1.el");
    let out = bin()
        .args([
            "generate",
            "clique-union:2:20",
            "--n",
            "80",
            "--seed",
            "4",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");

    let faults = [
        "--drop",
        "0.2",
        "--reorder",
        "0.3",
        "--crash",
        "0.05",
        "--fault-horizon",
        "30",
        "--retries",
        "1",
    ];
    let cases: [(&str, &[&str], &str); 6] = [
        ("approx", &[], PERFECT_APPROX),
        ("baseline", &[], PERFECT_BASELINE),
        ("randomized", &[], PERFECT_RANDOMIZED),
        ("approx", &faults, FAULTY_APPROX),
        ("baseline", &faults, FAULTY_BASELINE),
        ("randomized", &faults, FAULTY_RANDOMIZED),
    ];
    for (algo, flags, expected) in cases {
        let out = bin()
            .args(["distsim", file.to_str().unwrap(), "--algo", algo])
            .args(["--threads", "1", "--pairs"])
            .args(flags)
            .output()
            .unwrap();
        assert!(out.status.success(), "{algo} {flags:?}: {out:?}");
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            expected,
            "--algo {algo} {flags:?}"
        );
    }

    std::fs::remove_file(&file).ok();
}

/// Drive `sparsimatch serve` over stdin/stdout with a scripted session
/// covering every command plus a malformed and an over-deep request;
/// the daemon answers typed errors for the bad lines and stays up.
#[test]
fn serve_scripted_stdio_session() {
    use std::io::Write;
    let deep = "[".repeat(300);
    let script = format!(
        concat!(
            r#"{{"id":1,"cmd":"load_graph","n":12,"family":"clique"}}"#,
            "\n",
            r#"{{"id":2,"cmd":"solve","beta":1,"eps":0.5,"seed":7}}"#,
            "\n",
            "not json\n",
            "{deep}\n",
            r#"{{"id":3,"cmd":"solve","beta":1,"eps":0.5,"seed":7}}"#,
            "\n",
            r#"{{"id":4,"cmd":"update","ops":[["insert",0,1]],"beta":1,"eps":0.5}}"#,
            "\n",
            r#"{{"id":5,"cmd":"query","what":"status"}}"#,
            "\n",
            r#"{{"id":6,"cmd":"metrics"}}"#,
            "\n",
            r#"{{"id":7,"cmd":"shutdown"}}"#,
            "\n",
        ),
        deep = deep
    );
    let mut child = bin()
        .arg("serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 9, "one response per request: {lines:#?}");
    assert!(lines[0].contains(r#""ok":true"#), "{}", lines[0]);
    assert!(lines[1].contains(r#""warm":false"#), "{}", lines[1]);
    assert!(lines[2].contains(r#""code":"parse""#), "{}", lines[2]);
    assert!(lines[3].contains(r#""code":"too_deep""#), "{}", lines[3]);
    assert!(lines[4].contains(r#""warm":true"#), "{}", lines[4]);
    assert!(lines[5].contains(r#""ok":true"#), "{}", lines[5]);
    assert!(lines[6].contains(r#""dynamic":true"#), "{}", lines[6]);
    assert!(lines[7].contains(r#""wire_errors":2"#), "{}", lines[7]);
    assert_eq!(
        lines[8],
        r#"{"id":7,"ok":true,"result":{"stopping":"session"}}"#
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("session closed"), "{stderr}");
}

/// A warm in-daemon solve returns exactly the pairs the one-shot CLI
/// prints for the same family, seed, and parameters.
#[test]
fn serve_solve_is_byte_identical_to_one_shot_match() {
    use std::io::Write;
    let dir = std::env::temp_dir().join(format!("sparsimatch-serve-bin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ident.el");
    let out = bin()
        .args([
            "generate",
            "clique-union:2:20",
            "--n",
            "60",
            "--seed",
            "5",
            "--out",
            file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = bin()
        .args([
            "match",
            file.to_str().unwrap(),
            "--beta",
            "2",
            "--eps",
            "0.5",
            "--seed",
            "7",
            "--pairs",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    let cli_pairs: Vec<&str> = text
        .lines()
        .filter(|l| {
            let mut parts = l.split_whitespace();
            matches!(
                (
                    parts.next().map(|p| p.parse::<u32>().is_ok()),
                    parts.next().map(|p| p.parse::<u32>().is_ok()),
                    parts.next(),
                ),
                (Some(true), Some(true), None)
            )
        })
        .collect();
    assert!(!cli_pairs.is_empty(), "no pairs in {text}");
    let expected_pairs_json: String = cli_pairs
        .iter()
        .map(|l| {
            let mut it = l.split_whitespace();
            format!("[{},{}]", it.next().unwrap(), it.next().unwrap())
        })
        .collect::<Vec<_>>()
        .join(",");

    // Same family/seed loaded in-daemon; the second solve is warm and
    // must carry the identical pair list.
    let script = concat!(
        r#"{"id":1,"cmd":"load_graph","n":60,"family":"clique-union:2:20","seed":5}"#,
        "\n",
        r#"{"id":2,"cmd":"solve","beta":2,"eps":0.5,"seed":7,"pairs":true}"#,
        "\n",
        r#"{"id":3,"cmd":"solve","beta":2,"eps":0.5,"seed":7,"pairs":true}"#,
        "\n",
        r#"{"id":4,"cmd":"shutdown"}"#,
        "\n",
    );
    let mut child = bin()
        .arg("serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{lines:#?}");
    let want = format!(r#""pairs":[{expected_pairs_json}]"#);
    assert!(
        lines[1].contains(&want),
        "cold solve: {}\nwant {want}",
        lines[1]
    );
    assert!(
        lines[2].contains(&want),
        "warm solve: {}\nwant {want}",
        lines[2]
    );
    assert!(lines[2].contains(r#""warm":true"#), "{}", lines[2]);
    std::fs::remove_file(&file).ok();
}

/// Daemon runtime failures (unbindable socket path) exit 9; a bad
/// thread count exits 6 before any I/O happens.
#[test]
fn serve_error_exit_codes() {
    let out = bin()
        .args(["serve", "--socket", "/nonexistent-dir/deeper/s.sock"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(9), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("serve:"), "{err}");

    let out = bin().args(["serve", "--threads", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(6), "{out:?}");

    let out = bin().args(["serve", "--queue-cap", "0"]).output().unwrap();
    assert_eq!(out.status.code(), Some(7), "{out:?}");
}
