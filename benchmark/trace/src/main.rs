//! Traced in-process replay of the benchmark workloads.
//!
//! The end-to-end runner (`benchmark/run.py`) drives only the release
//! `sparsimatch` binary. This program replays the same inputs through the
//! layers' public functions and records a span around every call:
//! `(name, start, end, parent, request id)` plus per-span counts. Spans
//! are kept in memory and written as JSON lines when the replay ends;
//! `run.py` turns them into the per-layer metrics.
//!
//! ```text
//! benchtrace serve   <requests.jsonl> <responses.out> <spans.jsonl> <threads>
//! benchtrace distsim <graph.el> <beta> <eps> <seed> <threads> <result.json> <spans.jsonl>
//! ```
//!
//! `serve` feeds every request line through `parse_request` and
//! `SessionEngine::handle` and writes the rendered response lines, which
//! must equal the daemon's. Around each static `solve` it re-runs the
//! pipeline stage by stage (`build_sparsifier_parallel`,
//! `from_marked_edges`, greedy, bounded augmentation) at one and two
//! threads; around each `update` it applies the same operations to a
//! directly driven `DynamicMatcher`, one span per operation.
//!
//! `distsim` reads the edge list the CLI reads and runs the Thm 3.2
//! pipeline phase by phase on `ShardedNetwork`s wrapped in [`TimedNet`],
//! which records one span per `exchange` (message routing).

use rand::{rngs::StdRng, SeedableRng};
use sparsimatch_core::params::SparsifierParams;
use sparsimatch_core::pipeline::{stage_eps, stage_params};
use sparsimatch_core::solomon::degree_cap_for;
use sparsimatch_core::sparsifier::build_sparsifier_parallel;
use sparsimatch_distsim::algorithms::matching::bounded_degree_matching;
use sparsimatch_distsim::algorithms::solomon::distributed_solomon;
use sparsimatch_distsim::algorithms::sparsify::distributed_sparsifier;
use sparsimatch_distsim::network::{Incoming, Outgoing};
use sparsimatch_distsim::{Metrics, Net, ShardedNetwork};
use sparsimatch_dynamic::{DynamicMatcher, Update};
use sparsimatch_graph::csr::{from_edges, from_marked_edges, CsrGraph};
use sparsimatch_graph::generators::family_from_spec;
use sparsimatch_graph::ids::{EdgeId, VertexId};
use sparsimatch_graph::io::read_edge_list_file;
use sparsimatch_matching::bounded_aug::{eliminate_augmenting_paths_up_to, max_path_len_for_eps};
use sparsimatch_matching::greedy::{greedy_maximal_matching, greedy_maximal_matching_parallel};
use sparsimatch_matching::Matching;
use sparsimatch_obs::{Json, WorkMeter};
use sparsimatch_serve::protocol::{error_response, ok_response, parse_request, Request, UpdateOp};
use sparsimatch_serve::{EngineConfig, SessionEngine};
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    req: u64,
    counts: Vec<(&'static str, u64)>,
}

/// In-memory span store, written out once at the end of a replay.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    fn count(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].counts.push((key, value));
    }

    /// Time `f` as a closed span named `name`.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        (id, out)
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let mut counts = Json::object();
            for &(k, v) in &s.counts {
                counts.set(k, v);
            }
            let mut doc = Json::object();
            doc.set("id", id);
            doc.set("name", s.name);
            doc.set("start_ns", s.start);
            doc.set("end_ns", s.end);
            doc.set("parent", s.parent.map_or(Json::Null, Json::from));
            doc.set("req", s.req);
            doc.set("counts", counts);
            text.push_str(&doc.to_compact());
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

/// Process CPU time (user + system, all threads) in clock ticks, from
/// `/proc/self/stat`.
fn cpu_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let parse = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    parse(11) + parse(12)
}

fn pairs_of(m: &Matching) -> Vec<(u32, u32)> {
    m.pairs().map(|(u, v)| (u.0, v.0)).collect()
}

/// The static solve re-run stage by stage, mirroring the `delta` pipeline:
/// mark + extract at one and two threads, extraction alone at two
/// threads, greedy at one and two threads, then bounded augmentation.
/// Returns the matching size, which must equal the served solve's.
fn solve_breakdown(
    tr: &mut Tracer,
    g: &CsrGraph,
    beta: usize,
    eps: f64,
    seed: u64,
    req: u64,
) -> usize {
    let params = stage_params(&SparsifierParams::practical(beta, eps));
    let mut sparse = None;
    for threads in [1, 2] {
        let (id, s) = tr.span("core.sparsify", None, req, || {
            build_sparsifier_parallel(g, &params, seed, threads).expect("threads is in range")
        });
        tr.count(id, "threads", threads as u64);
        tr.count(id, "input_edges", g.num_edges() as u64);
        tr.count(id, "kept_edges", s.stats.edges as u64);
        tr.count(
            id,
            "probes",
            2 * g.num_vertices() as u64 + s.stats.marks_placed as u64,
        );
        if let Some(prev) = &sparse {
            assert_eq!(
                &s.graph, prev,
                "sparsifier must not depend on the thread count"
            );
        }
        sparse = Some(s.graph);
    }
    let sparse = sparse.expect("two sparsifier builds ran");

    let mut ids: Vec<EdgeId> = sparse
        .edges()
        .map(|(_, u, v)| g.find_edge(u, v).expect("sparsifier edges are input edges"))
        .collect();
    ids.sort_unstable();
    let (id, extracted) = tr.span("graph.extract", None, req, || from_marked_edges(g, &ids, 2));
    tr.count(id, "threads", 2);
    assert_eq!(extracted, sparse, "extraction reproduces the sparsifier");

    let (id, greedy) = tr.span("matching.greedy", None, req, || {
        greedy_maximal_matching(&sparse)
    });
    tr.count(id, "threads", 1);
    let (id, greedy2) = tr.span("matching.greedy", None, req, || {
        greedy_maximal_matching_parallel(&sparse, 2)
    });
    tr.count(id, "threads", 2);
    assert_eq!(
        pairs_of(&greedy),
        pairs_of(&greedy2),
        "greedy is thread-count invariant"
    );

    let mut m = greedy;
    let max_len = max_path_len_for_eps(stage_eps(eps));
    let (id, stats) = tr.span("matching.augment", None, req, || {
        eliminate_augmenting_paths_up_to(&sparse, &mut m, max_len)
    });
    tr.count(id, "edge_visits", stats.edge_visits);
    tr.count(id, "searches", stats.searches as u64);
    tr.count(id, "augmentations", stats.augmentations as u64);
    assert!(
        m.is_valid_for(g),
        "breakdown matching is valid for the input"
    );
    m.len()
}

fn replay_serve(
    requests: &Path,
    responses: &Path,
    spans: &Path,
    threads: usize,
) -> Result<(), String> {
    let text =
        std::fs::read_to_string(requests).map_err(|e| format!("{}: {e}", requests.display()))?;
    let mut tr = Tracer::new();
    let mut engine = SessionEngine::new(EngineConfig {
        threads,
        ..EngineConfig::default()
    });
    let mut resident: Option<CsrGraph> = None;
    let mut direct: Option<DynamicMatcher> = None;
    let mut meter = WorkMeter::new();
    let mut out = String::new();
    for (i, line) in text.lines().enumerate() {
        let req = i as u64;
        let root = tr.open("serve.request", None, req);
        let (_, env) = tr.span("serve.parse", Some(root), req, || parse_request(line));
        let env = env.map_err(|(_, e)| format!("request {i} does not parse: {}", e.message))?;
        let handle_name = match env.request {
            Request::LoadGraph { .. } => "serve.handle.load_graph",
            Request::Solve { .. } => "serve.handle.solve",
            Request::Update { .. } => "serve.handle.update",
            Request::Query { .. } => "serve.handle.query",
            Request::Metrics => "serve.handle.metrics",
            Request::Shutdown { .. } => "serve.handle.shutdown",
        };
        let (_, body) = tr.span(handle_name, Some(root), req, || engine.handle(&env.request));
        let (_, rendered) = tr.span("serve.write", Some(root), req, || match &body {
            Ok(b) => ok_response(env.id, b.clone()),
            Err(e) => error_response(Some(env.id), e.code, &e.message),
        });
        tr.close(root);
        writeln!(out, "{rendered}").expect("writing to a String cannot fail");
        let body = body.map_err(|e| format!("request {i} failed: {}", e.message))?;
        let served_size = body.get("matching_size").and_then(Json::as_u64);

        match &env.request {
            Request::LoadGraph {
                n,
                edges,
                family,
                seed,
            } => {
                resident = Some(match family {
                    Some(spec) => family_from_spec(spec, *n, &mut StdRng::seed_from_u64(*seed))
                        .map_err(|e| e.to_string())?,
                    None => from_edges(*n, edges.iter().map(|&(u, v)| (u as usize, v as usize))),
                });
                direct = None;
            }
            Request::Solve {
                beta, eps, seed, ..
            } if direct.is_none() => {
                let g = resident.as_ref().ok_or("solve before load_graph")?;
                let size = solve_breakdown(&mut tr, g, *beta, *eps, *seed, req);
                if Some(size as u64) != served_size {
                    return Err(format!(
                        "request {i}: breakdown size {size} != served {served_size:?}"
                    ));
                }
            }
            Request::Update {
                ops,
                beta,
                eps,
                seed,
            } => {
                let dm = direct.get_or_insert_with(|| {
                    let g = resident
                        .as_ref()
                        .expect("an update succeeded, so a graph is loaded");
                    let mut dm = DynamicMatcher::new(
                        g.num_vertices(),
                        SparsifierParams::practical(*beta, *eps),
                        *seed,
                    );
                    for (_, u, v) in g.edges() {
                        dm.apply(Update::Insert(u, v));
                    }
                    dm
                });
                for op in ops {
                    let update = match *op {
                        UpdateOp::Insert(u, v) => Update::Insert(VertexId(u), VertexId(v)),
                        UpdateOp::Delete(u, v) => Update::Delete(VertexId(u), VertexId(v)),
                    };
                    let (id, report) = tr.span("dynamic.update", None, req, || {
                        dm.apply_metered(update, &mut meter)
                    });
                    tr.count(id, "work", report.work);
                    tr.count(id, "swapped", u64::from(report.swapped));
                }
                if Some(dm.matching().len() as u64) != served_size {
                    return Err(format!(
                        "request {i}: direct dynamic matcher disagrees with serve"
                    ));
                }
            }
            _ => {}
        }
    }
    std::fs::write(responses, out).map_err(|e| format!("{}: {e}", responses.display()))?;
    tr.write(spans)
        .map_err(|e| format!("{}: {e}", spans.display()))
}

/// A transport wrapper that times every `exchange` (the routing step of a
/// round); the rest of a phase is local computation.
struct TimedNet<'t, N> {
    inner: N,
    origin: Instant,
    exchanges: &'t mut Vec<(u64, u64)>,
}

impl<'g, N: Net<'g>> Net<'g> for TimedNet<'_, N> {
    fn graph(&self) -> &'g CsrGraph {
        self.inner.graph()
    }

    fn metrics(&self) -> Metrics {
        self.inner.metrics()
    }

    fn exchange<M: Clone + Send>(
        &mut self,
        outboxes: Vec<Vec<Outgoing<M>>>,
    ) -> Vec<Vec<Incoming<M>>> {
        let start = self.origin.elapsed().as_nanos() as u64;
        let inboxes = self.inner.exchange(outboxes);
        self.exchanges
            .push((start, self.origin.elapsed().as_nanos() as u64));
        inboxes
    }

    fn charge_gather(&mut self, radius: usize, bits_per_message: u64) {
        self.inner.charge_gather(radius, bits_per_message);
    }

    fn record_clones(&mut self, count: u64) {
        self.inner.record_clones(count);
    }

    fn ball(&self, v: VertexId, radius: usize) -> Vec<VertexId> {
        self.inner.ball(v, radius)
    }

    fn lossless(&self) -> bool {
        self.inner.lossless()
    }
}

/// Run one pipeline phase on a timed sharded network and record it as a
/// span with one `distsim.route` child per exchange.
fn phase<'g, T>(
    tr: &mut Tracer,
    name: &'static str,
    parent: usize,
    g: &'g CsrGraph,
    threads: usize,
    totals: &mut Metrics,
    run: impl FnOnce(&mut TimedNet<'_, ShardedNetwork<'g>>) -> T,
) -> T {
    let mut exchanges = Vec::new();
    let id = tr.open(name, Some(parent), 0);
    let mut net = TimedNet {
        inner: ShardedNetwork::new(g, threads),
        origin: tr.origin,
        exchanges: &mut exchanges,
    };
    let out = run(&mut net);
    let metrics = net.metrics();
    tr.close(id);
    totals.absorb(metrics);
    tr.count(id, "rounds", metrics.rounds);
    for (start, end) in exchanges {
        tr.spans.push(Span {
            name: "distsim.route",
            start,
            end,
            parent: Some(id),
            req: 0,
            counts: Vec::new(),
        });
    }
    out
}

fn replay_distsim(
    graph: &Path,
    params: SparsifierParams,
    seed: u64,
    threads: usize,
    result: &Path,
    spans: &Path,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let (_, g) = tr.span("graph.read", None, 0, || read_edge_list_file(graph));
    let g = g.map_err(|e| format!("{}: {e}", graph.display()))?;

    let cpu_before = cpu_ticks();
    let root = tr.open("distsim.run", None, 0);
    let mut totals = Metrics::new();
    let g_delta = phase(
        &mut tr,
        "distsim.sparsify",
        root,
        &g,
        threads,
        &mut totals,
        |net| distributed_sparsifier(net, &params, seed),
    );
    let cap = degree_cap_for(params.arboricity_bound(), params.eps);
    let composed = phase(
        &mut tr,
        "distsim.solomon",
        root,
        &g_delta,
        threads,
        &mut totals,
        |net| distributed_solomon(net, cap),
    );
    let matching = phase(
        &mut tr,
        "distsim.match",
        root,
        &composed,
        threads,
        &mut totals,
        |net| bounded_degree_matching(net, params.eps).0,
    );
    tr.close(root);
    let cpu = cpu_ticks() - cpu_before;
    tr.count(root, "threads", threads as u64);
    tr.count(root, "cpu_ticks", cpu);
    tr.count(root, "rounds", totals.rounds);
    tr.count(root, "messages", totals.messages);
    tr.count(root, "bits", totals.bits);
    if !matching.is_valid_for(&g) {
        return Err("distsim matching is not valid for the input".into());
    }

    let mut doc = Json::object();
    doc.set("matching_size", matching.len());
    doc.set("rounds", totals.rounds);
    doc.set("messages", totals.messages);
    doc.set("bits", totals.bits);
    std::fs::write(result, doc.to_compact()).map_err(|e| format!("{}: {e}", result.display()))?;
    tr.write(spans)
        .map_err(|e| format!("{}: {e}", spans.display()))
}

fn run(args: &[String]) -> Result<(), String> {
    let num = |s: &str| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
    let int = |s: &str| s.parse::<u64>().map_err(|e| format!("{s:?}: {e}"));
    match args {
        [cmd, requests, responses, spans, threads] if cmd == "serve" => replay_serve(
            Path::new(requests),
            Path::new(responses),
            Path::new(spans),
            int(threads)? as usize,
        ),
        [cmd, graph, beta, eps, seed, threads, result, spans] if cmd == "distsim" => {
            replay_distsim(
                Path::new(graph),
                SparsifierParams::practical(int(beta)? as usize, num(eps)?),
                int(seed)?,
                int(threads)? as usize,
                Path::new(result),
                Path::new(spans),
            )
        }
        _ => Err(
            "usage: benchtrace serve <requests> <responses> <spans> <threads> | \
                  benchtrace distsim <graph> <beta> <eps> <seed> <threads> <result> <spans>"
                .into(),
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchtrace: {e}");
            ExitCode::FAILURE
        }
    }
}
