#!/usr/bin/env python3
"""The sparsimatch benchmark.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the release `sparsimatch`
binary (into $CARGO_TARGET_DIR, default `.bench_build`), makes the
workload's inputs from --seed, and drives the binary only through its
argv and the `serve` unix-socket wire protocol: one process, one
connection, a closed loop (the next request goes out when the previous
reply is in), `--threads 2`. Every output is checked (see checker.py).
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of one workload. `--trace 1`
runs the traced replay instead: for every workload it makes a short,
fixed-length end-to-end pass, then replays the same requests in-process
through `benchmark/trace` (which links the library and records a span
around each layer call), checks that the replay's outputs equal the
end-to-end outputs, and reports the per-layer metrics. See README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checker  # noqa: E402

THREADS = 2
WORK = ".bench_work"

# Why each workload exists is in README.md. `eps` is the end-to-end
# approximation target every solve is checked against.
WORKLOADS = {
    "solve_dense": dict(kind="solve", family="clique", n=3000, beta=1, eps=0.3),
    "solve_passthrough": dict(kind="solve", family="clique-union:2:64", n=20000, beta=2, eps=0.3),
    "dynamic_churn": dict(kind="churn", family="clique-union:2:16", n=1000, beta=2, eps=0.3,
                          batch=8, churn_batches=500, solve_every=64),
    "distsim_approx": dict(kind="distsim", family="clique-union:2:8", n=20000, beta=2, eps=0.5),
}

# Set-up is repeated and its median reported, so one slow start does not
# read as a regression. A distsim set-up (one `generate`, about 20 ms) is
# so short that the host's second-to-second load moves it, so its repeats
# are spread over the run: this many before every distsim run.
SETUP_REPEATS = {"solve": 5, "churn": 9, "distsim": 4}

# Fixed request counts for the traced run, so its counts repeat exactly
# for a given seed.
TRACE_SOLVES = {"solve_dense": 40, "solve_passthrough": 8}


class BenchError(Exception):
    """A correctness violation or an unexpected failure."""


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 1])."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, int(-(-q * len(s) // 1)) - 1))]


def median(values):
    return statistics.median(values)


# ---------------------------------------------------------------- host --

def read_proc_stat():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def host_facts():
    facts = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        facts["cpu_model"] = None
    base = "/sys/devices/system/cpu/cpu0/cache"
    for level in ("2", "3"):
        facts[f"l{level}_cache"] = None
        for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
            try:
                with open(f"{base}/{idx}/level") as f:
                    if f.read().strip() != level:
                        continue
                with open(f"{base}/{idx}/size") as f:
                    facts[f"l{level}_cache"] = f.read().strip()
            except OSError:
                pass
    facts["commit"] = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        facts["commit"] = r.stdout.strip() or None
    # The benchmark may run in a checkout without git metadata, so also
    # fingerprint the sources the binary is built from.
    digest = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock"]
    for top in ("crates", "src"):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for path in paths:
        if os.path.isfile(path):
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    facts["source_sha256"] = digest.hexdigest()
    return facts


def proc_cpu_ticks(pid):
    with open(f"/proc/{pid}/stat") as f:
        rest = f.read().rsplit(")", 1)[1].split()
    return int(rest[11]) + int(rest[12])


def vm_hwm_mib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM missing from /proc status")


# --------------------------------------------------------------- build --

def cargo_build(args):
    r = subprocess.run(["cargo", "build", "--release", "--offline", "-q"] + args,
                       stdout=sys.stderr)
    if r.returncode != 0:
        raise SystemExit(f"benchmark: cargo build {' '.join(args)} failed")


def build(trace):
    if not os.path.isfile("Cargo.toml"):
        raise SystemExit("benchmark: run from the repository root (no Cargo.toml here)")
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cargo_build(["-p", "sparsimatch-cli"])
    binaries = {"sparsimatch": os.path.join(target, "release", "sparsimatch")}
    if trace:
        cargo_build(["--manifest-path", "benchmark/trace/Cargo.toml"])
        binaries["benchtrace"] = os.path.join(target, "release", "benchtrace")
    return binaries


# --------------------------------------------------------------- CLI --

_libc = ctypes.CDLL(None, use_errno=True)


def die_with_parent():
    """Child pre-exec hook: if the benchmark is killed, its daemon and CLI
    children are killed too (PR_SET_PDEATHSIG)."""
    _libc.prctl(1, signal.SIGKILL)

class Tally:
    """Attempted and failed operations, plus correctness violations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.violations = []

    def violation(self, what):
        self.violations.append(what)


def run_cli(binary, args, tally):
    """Run one CLI command; return (wall_s, stdout_text, peak_rss_mib,
    cpu_s). Peak RSS and CPU time come from the child's wait4 rusage."""
    tally.attempted += 1
    start = time.perf_counter()
    p = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         preexec_fn=die_with_parent)
    text = p.stdout.read()
    err = p.stderr.read()
    _, status, rusage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    if p.returncode != 0:
        tally.failed += 1
        raise BenchError(f"sparsimatch {' '.join(args)} exited {p.returncode}: {err.decode().strip()}")
    return wall, text.decode(), rusage.ru_maxrss / 1024.0, rusage.ru_utime + rusage.ru_stime


def generate(binary, wl, seed, path, tally):
    return run_cli(binary, ["generate", wl["family"], "--n", str(wl["n"]), "--seed", str(seed),
                            "--out", path], tally)[0]


# -------------------------------------------------------------- serve --

class Daemon:
    """One `sparsimatch serve` daemon and one connection to it. Every
    request line sent and every reply line received is logged, so the
    traced run can replay the session."""

    def __init__(self, binary, sock_path, log_path):
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [binary, "serve", "--socket", sock_path, "--threads", str(THREADS)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self.log,
            preexec_fn=die_with_parent)
        deadline = time.monotonic() + 30
        while True:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.sock.connect(sock_path)
                break
            except OSError:
                self.sock.close()
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.proc.kill()
                    self.proc.wait()
                    self.log.close()
                    raise BenchError("serve daemon did not come up")
                time.sleep(0.002)
        self.reader = self.sock.makefile("rb")
        self.next_id = 1
        self.sent = []
        self.received = []
        self.client_total = 0.0

    def call(self, tally, cmd, **fields):
        """Send one request; return (reply_dict, latency_s). An error
        reply counts as a failed operation and raises."""
        req = {"id": self.next_id, "cmd": cmd, **fields}
        self.next_id += 1
        line = json.dumps(req, separators=(",", ":")).encode() + b"\n"
        tally.attempted += 1
        start = time.perf_counter()
        self.sock.sendall(line)
        reply = self.reader.readline()
        latency = time.perf_counter() - start
        self.client_total += latency
        self.sent.append(line)
        self.received.append(reply)
        doc = json.loads(reply) if reply else {"ok": False, "error": {"message": "connection closed"}}
        if not doc.get("ok") or doc.get("id") != req["id"]:
            tally.failed += 1
            raise BenchError(f"{cmd} failed: {doc.get('error')}")
        return doc["result"], latency

    def cpu_ticks(self):
        return proc_cpu_ticks(self.proc.pid)

    def peak_rss_mib(self):
        return vm_hwm_mib(self.proc.pid)

    def stop(self):
        """Shut the daemon down and wait for it to exit."""
        try:
            if self.proc.poll() is None:
                self.sock.sendall(b'{"id":0,"cmd":"shutdown","scope":"daemon"}\n')
                self.reader.readline()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.close()
        self.sock.close()
        self.log.close()

    def write_session(self, requests_path, responses_path):
        with open(requests_path, "wb") as f:
            f.writelines(self.sent)
        with open(responses_path, "wb") as f:
            f.writelines(self.received)


def solve_fields(wl, seed):
    return dict(beta=wl["beta"], eps=wl["eps"], seed=seed, pairs=True)


def pairs_of(result):
    return [tuple(p) for p in result.get("pairs", [])]


# ----------------------------------------------------------- workloads --

def run_solve(binaries, name, wl, seed, seconds, n_solves, tally):
    """`serve` with a resident family graph; repeated `solve` requests with
    fresh seeds. Runs for `seconds`, or exactly `n_solves` solves."""
    binary = binaries["sparsimatch"]
    setups = []
    daemon = None
    try:
        for _ in range(SETUP_REPEATS["solve"]):
            if daemon:
                daemon.stop()
            start = time.perf_counter()
            daemon = Daemon(binary, f"{WORK}/d.sock", f"{WORK}/daemon.log")
            daemon.call(tally, "load_graph", n=wl["n"], family=wl["family"], seed=seed)
            cold, _ = daemon.call(tally, "solve", **solve_fields(wl, seed * 1_000_003))
            setups.append(time.perf_counter() - start)
        results = [cold]
        latencies = []
        cpu0, wall0 = daemon.cpu_ticks(), time.perf_counter()
        i = 0
        while (n_solves is None and time.perf_counter() - wall0 < seconds) or \
                (n_solves is not None and i < n_solves):
            i += 1
            result, latency = daemon.call(tally, "solve", **solve_fields(wl, seed * 1_000_003 + i))
            results.append(result)
            latencies.append(latency)
        cpu_s = (daemon.cpu_ticks() - cpu0) / os.sysconf("SC_CLK_TCK")
        cpu_per_wall = cpu_s / (time.perf_counter() - wall0)
        peak = daemon.peak_rss_mib()
    finally:
        if daemon:
            daemon.stop()
    daemon.write_session(f"{WORK}/{name}.requests", f"{WORK}/{name}.responses")

    # Check every solve; edges against the regenerated graph, in one scan.
    distinct = set()
    for r in results:
        for bad in checker.check_matching(pairs_of(r), wl["n"], r["matching_size"], wl["eps"]):
            tally.violation(f"{name} solve: {bad}")
        distinct.update(checker.norm(u, v) for u, v in pairs_of(r))
    graph = f"{WORK}/{name}.el"
    generate(binary, wl, seed, graph, tally)
    missing = checker.missing_edges(graph, distinct)
    if missing:
        tally.violation(f"{name}: {len(missing)} returned pairs are not edges, e.g. {missing[:3]}")
    os.unlink(graph)

    sizes = [r["matching_size"] for r in results[1:]]
    return {
        "setup_s": median(setups),
        "latencies": latencies,
        "ops_per_s": len(latencies) / sum(latencies),
        "cpu_ms_per_op": 1e3 * cpu_s / len(latencies),
        "matching_ratio": median(sizes) / (wl["n"] // 2),
        "peak_rss_mib": peak,
        "cpu_per_wall": cpu_per_wall,
    }


def run_churn(binaries, name, wl, seed, seconds, rounds, tally):
    """`serve` with an empty graph, so the benchmark keeps the edge set.
    One round generates a graph, inserts it in `update` batches, churns
    it for `churn_batches` delete/insert batches, restores every deleted
    edge and checks the final matching. A `query status` follows every
    update and a `solve` runs every `solve_every` updates. Rounds repeat
    on the same connection (a fresh `load_graph` resets the session) until
    `seconds` have passed, or exactly `rounds` times. Each round draws a
    new graph: how costly the window recomputes are depends strongly on
    the graph, so one run averages over many."""
    binary = binaries["sparsimatch"]
    graph = f"{WORK}/{name}.el"
    n = wl["n"]

    def round_edges(r):
        generate(binary, wl, seed * 1000 + r, graph, tally)
        gn, edges = checker.read_edges(graph)
        os.unlink(graph)
        if gn != n:
            tally.violation(f"{name}: generated graph has {gn} vertices, expected {n}")
        return edges

    rng = random.Random(seed)
    b = wl["batch"]
    upd = dict(beta=wl["beta"], eps=wl["eps"], seed=seed)
    update_lat, query_lat, solve_lat, final_sizes = [], [], [], []
    present = []            # edges in the daemon's graph, for O(1) random picks
    index = {}              # edge -> position in `present`

    def add(e):
        index[e] = len(present)
        present.append(e)

    def remove(e):
        i = index.pop(e)
        last = present.pop()
        if i < len(present):
            present[i] = last
            index[last] = i

    def check_pairs(pairs, size, what, reference):
        for bad in checker.check_matching(pairs, n, size, wl["eps"],
                                          lambda u, v: checker.norm(u, v) in index, reference):
            tally.violation(f"{name} {what}: {bad}")

    def update(ops):
        result, latency = daemon.call(tally, "update", ops=ops, **upd)
        update_lat.append(latency)
        for op, u, v in ops:
            (add if op == "insert" else remove)((u, v))
        status, latency = daemon.call(tally, "query")
        query_lat.append(latency)
        if status["m"] != len(present) or status["matching_size"] != result["matching_size"]:
            tally.violation(f"{name}: status {status} disagrees with the update reply {result}")
        if len(update_lat) % wl["solve_every"] == 0:
            r, latency = daemon.call(tally, "solve",
                                     **solve_fields(wl, seed * 1_000_003 + len(solve_lat)))
            solve_lat.append(latency)
            check_pairs(pairs_of(r), r["matching_size"], "snapshot solve", 0)

    def one_round(edges):
        order = list(edges)
        rng.shuffle(order)
        for i in range(0, len(order), b):
            update([["insert", u, v] for u, v in order[i:i + b]])
        pool = []           # deleted edges waiting to be re-inserted
        for _ in range(wl["churn_batches"]):
            inserts = [pool.pop(rng.randrange(len(pool))) for _ in range(min(b // 2, len(pool)))]
            deletes = list(dict.fromkeys(present[rng.randrange(len(present))]
                                         for _ in range(b - len(inserts))))
            pool.extend(deletes)
            update([["delete", u, v] for u, v in deletes] + [["insert", u, v] for u, v in inserts])
        while pool:
            update([["insert", u, v] for u, v in pool[:b]])
            del pool[:b]
        if len(present) != len(edges):
            tally.violation(f"{name}: {len(present)} edges after restoring, expected {len(edges)}")
        final, _ = daemon.call(tally, "query", what="pairs")
        status, _ = daemon.call(tally, "query")
        check_pairs(pairs_of(final), status["matching_size"], "final dynamic matching", None)
        final_sizes.append(status["matching_size"])
        r, _ = daemon.call(tally, "solve", **solve_fields(wl, seed * 1_000_003))
        check_pairs(pairs_of(r), r["matching_size"], "final solve", None)

    setups = []
    daemon = None
    try:
        for _ in range(SETUP_REPEATS["churn"]):
            if daemon:
                daemon.stop()
            start = time.perf_counter()
            edges = round_edges(0)
            daemon = Daemon(binary, f"{WORK}/d.sock", f"{WORK}/daemon.log")
            daemon.call(tally, "load_graph", n=n, edges=[])
            daemon.call(tally, "solve", **solve_fields(wl, seed))
            setups.append(time.perf_counter() - start)
        cpu0, start = daemon.cpu_ticks(), time.perf_counter()
        done = 0
        while done == 0 or (rounds is None and time.perf_counter() - start < seconds) or \
                (rounds is not None and done < rounds):
            if done:
                edges = round_edges(done)
                daemon.call(tally, "load_graph", n=n, edges=[])
                present.clear()
                index.clear()
            one_round(edges)
            done += 1
        cpu_s = (daemon.cpu_ticks() - cpu0) / os.sysconf("SC_CLK_TCK")
        peak = daemon.peak_rss_mib()
    finally:
        if daemon:
            daemon.stop()
    daemon.write_session(f"{WORK}/{name}.requests", f"{WORK}/{name}.responses")

    return {
        "setup_s": median(setups),
        "latencies": update_lat,
        "ops_per_s": b * len(update_lat) / sum(update_lat),
        "cpu_ms_per_op": 1e3 * cpu_s / len(update_lat),
        "matching_ratio": median(final_sizes) / (n // 2),
        "peak_rss_mib": peak,
        "query_latencies": query_lat,
        "client_total": daemon.client_total,
        "solve_latencies": solve_lat,
    }


def parse_distsim(text):
    lines = text.splitlines()
    size = int(lines[1].split(":")[1])
    f = lines[2].split()
    counts = {"rounds": int(f[1]), "messages": int(f[3]), "bits": int(f[5])}
    pairs = [tuple(map(int, line.split())) for line in lines[4:] if line.strip()]
    return size, counts, pairs


def run_distsim(binaries, name, wl, seed, seconds, n_runs, tally):
    """`sparsimatch distsim --algo approx --threads 2` on a generated
    graph, repeated with fresh seeds for `seconds` (at least twice), or
    exactly `n_runs` times. The graph is generated again before every run
    (the same file each time) to sample the set-up time."""
    binary = binaries["sparsimatch"]
    graph = f"{WORK}/{name}.el"
    setups = [generate(binary, wl, seed, graph, tally) for _ in range(SETUP_REPEATS["distsim"])]
    n, edges = checker.read_edges(graph)
    edge_set = set(edges)
    walls, rss, cpu, outputs = [], [], [], []
    start = time.perf_counter()
    while (n_runs is None and (len(walls) < 2 or time.perf_counter() - start < seconds)) or \
            (n_runs is not None and len(walls) < n_runs):
        if walls:
            setups += [generate(binary, wl, seed, graph, tally)
                       for _ in range(SETUP_REPEATS["distsim"])]
        s = seed * 1000 + len(walls)
        wall, text, peak, cpu_s = run_cli(binary, [
            "distsim", graph, "--algo", "approx", "--threads", str(THREADS), "--beta",
            str(wl["beta"]), "--eps", str(wl["eps"]), "--seed", str(s), "--pairs"], tally)
        size, counts, pairs = parse_distsim(text)
        for bad in checker.check_matching(pairs, n, size, wl["eps"],
                                          lambda u, v: checker.norm(u, v) in edge_set):
            tally.violation(f"{name} run {len(walls)}: {bad}")
        walls.append(wall)
        rss.append(peak)
        cpu.append(cpu_s)
        outputs.append(dict(seed=s, matching_size=size, **counts))
    return {
        "setup_s": median(setups),
        "latencies": walls,
        "ops_per_s": median(o["messages"] / w for o, w in zip(outputs, walls)),
        "cpu_ms_per_op": 1e3 * median(cpu),
        "matching_ratio": median(o["matching_size"] for o in outputs) / (n // 2),
        "peak_rss_mib": max(rss),
        "outputs": outputs,
        "graph": graph,
    }


RUNNERS = {"solve": run_solve, "churn": run_churn, "distsim": run_distsim}


def end_to_end(binaries, name, seed, seconds, tally, fixed=None):
    wl = WORKLOADS[name]
    return RUNNERS[wl["kind"]](binaries, name, wl, seed, seconds, fixed, tally)


def e2e_metrics(r):
    lat = r["latencies"]
    return {
        "setup_s": (r["setup_s"], "s"),
        "latency_ms_p50": (1e3 * median(lat), "ms"),
        "cpu_ms_per_op": (r["cpu_ms_per_op"], "ms"),
        "throughput_per_s": (r["ops_per_s"], "1/s"),
        "matching_ratio": (r["matching_ratio"], "ratio"),
        "peak_rss_mib": (r["peak_rss_mib"], "MiB"),
    }


def workload_rows(name, r, tally):
    """The same numbers under their workload-specific names."""
    lat = r["latencies"]
    kind = WORKLOADS[name]["kind"]
    rows = [("setup_s", r["setup_s"], "s")]
    if kind == "solve":
        rows += [("solve_ms_p50", 1e3 * median(lat), "ms"),
                 ("solve_ms_p90", 1e3 * percentile(lat, 0.90), "ms"),
                 ("solve_ms_p99", 1e3 * percentile(lat, 0.99), "ms")]
    elif kind == "churn":
        rows += [("update_ms_p50", 1e3 * median(lat), "ms"),
                 ("update_ms_p99", 1e3 * percentile(lat, 0.99), "ms"),
                 ("update_ops_per_s", r["ops_per_s"], "1/s"),
                 ("query_ms_p50", 1e3 * median(r["query_latencies"]), "ms"),
                 ("solve_ms_p50", 1e3 * median(r["solve_latencies"]), "ms")]
    else:
        rows += [("distsim_s", median(lat), "s"),
                 ("distsim_s_max", max(lat), "s"),
                 ("messages_per_s", r["ops_per_s"], "1/s")]
    rows += [("cpu_ms_per_op", r["cpu_ms_per_op"], "ms"),
             ("matching_ratio", r["matching_ratio"], "ratio"),
             ("error_rate", tally.failed / max(1, tally.attempted), "ratio"),
             ("peak_rss_mib", r["peak_rss_mib"], "MiB")]
    return rows


# -------------------------------------------------------------- trace --

def load_spans(path):
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    for s in spans:
        s["dur"] = (s["end_ns"] - s["start_ns"]) / 1e9
    return spans


def durations(spans, name, **counts):
    return [s["dur"] for s in spans if s["name"] == name and
            all(s["counts"].get(k) == v for k, v in counts.items())]


def trace_serve(binaries, name, tally):
    """Replay a logged serve session in-process; the rendered responses
    must equal the daemon's byte for byte."""
    req, resp = f"{WORK}/{name}.requests", f"{WORK}/{name}.responses"
    out, spans = f"{WORK}/{name}.replay", f"{WORK}/{name}.spans"
    run_cli(binaries["benchtrace"], ["serve", req, out, spans, str(THREADS)], tally)
    with open(resp, "rb") as a, open(out, "rb") as b:
        if a.read() != b.read():
            tally.violation(f"{name}: replayed responses differ from the daemon's")
    return load_spans(spans)


def trace_distsim(binaries, name, r, threads, tally):
    wl = WORKLOADS[name]
    out, spans = f"{WORK}/{name}.t{threads}.result", f"{WORK}/{name}.t{threads}.spans"
    e2e = r["outputs"][0]
    run_cli(binaries["benchtrace"], [
        "distsim", r["graph"], str(wl["beta"]), str(wl["eps"]), str(e2e["seed"]), str(threads),
        out, spans], tally)
    with open(out) as f:
        replay = json.load(f)
    for key in ("matching_size", "rounds", "messages", "bits"):
        if replay[key] != e2e[key]:
            tally.violation(f"{name} t={threads}: replay {key} {replay[key]} != CLI {e2e[key]}")
    return load_spans(spans)


def per_layer(binaries, name, seed, tally):
    """Short fixed-length end-to-end pass plus in-process replay of every
    workload, so each per-layer metric is measured on the workload whose
    end-to-end metric it explains."""
    e2e = {
        "solve_dense": end_to_end(binaries, "solve_dense", seed, 0, tally,
                                  TRACE_SOLVES["solve_dense"]),
        "solve_passthrough": end_to_end(binaries, "solve_passthrough", seed, 0, tally,
                                        TRACE_SOLVES["solve_passthrough"]),
        "dynamic_churn": end_to_end(binaries, "dynamic_churn", seed, 0, tally, 1),
        "distsim_approx": end_to_end(binaries, "distsim_approx", seed, 0, tally, 1),
    }
    dense = trace_serve(binaries, "solve_dense", tally)
    passthrough = trace_serve(binaries, "solve_passthrough", tally)
    churn = trace_serve(binaries, "dynamic_churn", tally)
    dist2 = trace_distsim(binaries, "distsim_approx", e2e["distsim_approx"], 2, tally)
    dist1 = trace_distsim(binaries, "distsim_approx", e2e["distsim_approx"], 1, tally)
    os.unlink(e2e["distsim_approx"]["graph"])

    def warm(spans, name):  # drop the cold solve that set-up already timed
        return durations(spans, name)[1:]

    def count_mean(spans, name, key):
        vals = [s["counts"][key] for s in spans if s["name"] == name]
        return sum(vals) / len(vals)

    def request_totals(spans):
        return [s["dur"] for s in spans if s["name"] == "serve.request"]

    sp_t1 = durations(dense, "core.sparsify", threads=1)
    sp_t2 = durations(dense, "core.sparsify", threads=2)
    pt_sparsify = [s for s in passthrough if s["name"] == "core.sparsify"]
    aug_searches = sum(s["counts"]["searches"] for s in passthrough if s["name"] == "matching.augment")
    aug_found = sum(s["counts"]["augmentations"] for s in passthrough
                    if s["name"] == "matching.augment")
    dyn = [s for s in churn if s["name"] == "dynamic.update"]
    swaps = [s["dur"] for s in dyn if s["counts"]["swapped"]]
    queries = [s for s in churn if s["name"] == "serve.handle.query"]
    query_reqs = {s["req"] for s in queries}
    query_total = [s["dur"] for s in churn if s["name"] == "serve.request" and s["req"] in query_reqs]
    upd = durations(churn, "serve.handle.update")

    run2 = next(s for s in dist2 if s["name"] == "distsim.run")
    run1 = next(s for s in dist1 if s["name"] == "distsim.run")
    route = sum(s["dur"] for s in dist2 if s["name"] == "distsim.route")

    def phase(n):
        return next(s["dur"] for s in dist2 if s["name"] == n)

    def solve_coverage(spans, r):
        # Median in-process request time (parse + handle + write) over the
        # median client-side latency of the same warm solves.
        totals = [s["dur"] for s in spans if s["name"] == "serve.request"][2:]
        return median(totals) / median(r["latencies"])

    churn_r = e2e["dynamic_churn"]
    coverage = {
        "solve_dense": solve_coverage(dense, e2e["solve_dense"]),
        "solve_passthrough": solve_coverage(passthrough, e2e["solve_passthrough"]),
        # Summed over every request of the session; the closing shutdown
        # is in neither sum.
        "dynamic_churn": sum(request_totals(churn)) / churn_r["client_total"],
        "distsim_approx": (durations(dist2, "graph.read")[0] + run2["dur"]) /
        median(e2e["distsim_approx"]["latencies"]),
    }
    clk = os.sysconf("SC_CLK_TCK")
    ms, us = 1e3, 1e6
    metrics = {
        "serve.parse_us_p50": (us * median(durations(churn, "serve.parse")), "us"),
        "serve.query_handle_us_p50": (us * median(s["dur"] for s in queries), "us"),
        "serve.solve_handle_ms_p50": (ms * median(warm(dense, "serve.handle.solve")), "ms"),
        "serve.solve_handle_ms_p50.passthrough":
            (ms * median(warm(passthrough, "serve.handle.solve")), "ms"),
        "serve.update_handle_us_p50": (us * median(upd), "us"),
        "serve.update_handle_ms_p99": (ms * percentile(upd, 0.99), "ms"),
        "serve.wire_us_p50": (us * (median(churn_r["query_latencies"]) - median(query_total)), "us"),
        "serve.cpu_per_wall": (e2e["solve_dense"]["cpu_per_wall"], "ratio"),
        "core.sparsify_ms_t1": (ms * median(sp_t1), "ms"),
        "core.sparsify_ms_t2": (ms * median(sp_t2), "ms"),
        "core.sparsify_speedup_t2": (median(sp_t1) / median(sp_t2), "ratio"),
        "core.sparsify_ms_t2.passthrough":
            (ms * median(durations(passthrough, "core.sparsify", threads=2)), "ms"),
        "core.keep_ratio": (sum(s["counts"]["kept_edges"] for s in pt_sparsify) /
                            sum(s["counts"]["input_edges"] for s in pt_sparsify), "ratio"),
        "core.probes_per_edge": (sum(s["counts"]["probes"] for s in pt_sparsify) /
                                 sum(s["counts"]["input_edges"] for s in pt_sparsify), "ratio"),
        "graph.extract_ms_t2": (ms * median(durations(passthrough, "graph.extract")), "ms"),
        "graph.read_s": (durations(dist2, "graph.read")[0], "s"),
        "matching.greedy_ms_t1": (ms * median(durations(passthrough, "matching.greedy", threads=1)),
                                  "ms"),
        "matching.greedy_ms_t2": (ms * median(durations(passthrough, "matching.greedy", threads=2)),
                                  "ms"),
        "matching.augment_ms": (ms * median(durations(passthrough, "matching.augment")), "ms"),
        "matching.edge_visits": (count_mean(passthrough, "matching.augment", "edge_visits"), "count"),
        "matching.searches": (count_mean(passthrough, "matching.augment", "searches"), "count"),
        "matching.augmentations": (count_mean(passthrough, "matching.augment", "augmentations"),
                                   "count"),
        "matching.aug_yield": (aug_found / aug_searches, "ratio"),
        "dynamic.update_us_p50": (us * median(s["dur"] for s in dyn), "us"),
        "dynamic.swap_updates": (len(swaps), "count"),
        "dynamic.swap_update_ms_p50": (ms * median(swaps), "ms"),
        "dynamic.work_units": (sum(s["counts"]["work"] for s in dyn), "count"),
        "dynamic.snapshot_solve_ms_p50": (ms * median(warm(churn, "serve.handle.solve")), "ms"),
        "distsim.sparsify_s": (phase("distsim.sparsify"), "s"),
        "distsim.solomon_s": (phase("distsim.solomon"), "s"),
        "distsim.match_s": (phase("distsim.match"), "s"),
        "distsim.route_s": (route, "s"),
        "distsim.local_s": (run2["dur"] - route, "s"),
        "distsim.rounds": (run2["counts"]["rounds"], "count"),
        "distsim.messages": (run2["counts"]["messages"], "count"),
        "distsim.bits": (run2["counts"]["bits"], "count"),
        "distsim.cpu_per_wall": (run2["counts"]["cpu_ticks"] / clk / run2["dur"], "ratio"),
        "distsim.speedup_t2": (run1["dur"] / run2["dur"], "ratio"),
        "trace.coverage": (coverage[name], "ratio"),
    }
    return metrics, coverage


# --------------------------------------------------------------- main --

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binaries = build(args.trace == 1)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    problems = checker.selftest(WORK)
    if problems:
        raise SystemExit("benchmark: checker self-test failed: " + "; ".join(problems))

    tally = Tally()
    steal0, total0 = read_proc_stat()
    try:
        if args.trace:
            metrics, coverage = per_layer(binaries, args.workload, args.seed, tally)
        else:
            r = end_to_end(binaries, args.workload, args.seed, args.seconds, tally)
            metrics = e2e_metrics(r)
    except BenchError as e:
        tally.violation(str(e))
        metrics = {}
    steal1, total1 = read_proc_stat()
    steal_frac = (steal1 - steal0) / max(1, total1 - total0)

    host = host_facts()
    host["steal_frac"] = steal_frac
    print("host: " + json.dumps(host, sort_keys=True))
    if args.trace and metrics:
        metrics["host.steal_frac"] = (steal_frac, "ratio")
        print("trace.coverage per workload: " + json.dumps(coverage, sort_keys=True))
    elif metrics:
        for label, value, unit in workload_rows(args.workload, r, tally):
            print(f"{args.workload:18} {label:18} {value:14.6f} {unit}")
    for v in tally.violations:
        print("VIOLATION: " + v)

    correct = not tally.violations and tally.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
