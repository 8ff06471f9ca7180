"""Output checker for the sparsimatch benchmark.

Every matching the benchmark receives -- a served `solve`, the final
dynamic matching, a `distsim --pairs` listing -- goes through
`check_matching`. A matching passes when

* the reported size equals the number of returned pairs,
* every pair joins two distinct vertices in `[0, n)`,
* no vertex appears twice (the pairs are vertex-disjoint),
* every pair is an edge of the graph, and
* `|M| * (1 + eps) >= reference`.

The reference is `floor(n / 2)`, an upper bound on the maximum matching
of any graph on `n` vertices, so the last check can never pass a
matching that misses the `(1 + eps)` guarantee. It is certified for the
benchmark's graphs because each of them has a perfect matching: every
workload family is a union of cliques whose sizes are even.

Edges come from an edge list written by `sparsimatch generate` from the
same family spec and seed (`missing_edges` scans it once for all pairs),
or from the edge set the benchmark itself maintains.

Run `python3 benchmark/checker.py` for the self-test: it feeds the
checker corrupted outputs and fails unless each one is rejected.
"""

import os
import sys
import tempfile


def norm(u, v):
    return (u, v) if u < v else (v, u)


def check_matching(pairs, n, reported, eps, is_edge=None, reference=None):
    """Return a list of violations (empty when the matching passes).

    `is_edge(u, v)` tests edge membership; pass None to check it
    separately with `missing_edges`. `reference` defaults to n // 2.
    """
    bad = []
    if reported != len(pairs):
        bad.append(f"reported size {reported} != {len(pairs)} returned pairs")
    seen = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            bad.append(f"pair ({u}, {v}) is not two distinct vertices of [0, {n})")
            continue
        for x in (u, v):
            if x in seen:
                bad.append(f"vertex {x} is matched twice")
            seen.add(x)
        if is_edge is not None and not is_edge(u, v):
            bad.append(f"pair ({u}, {v}) is not an edge")
    if reference is None:
        reference = n // 2
    if len(pairs) * (1.0 + eps) < reference:
        bad.append(f"|M| = {len(pairs)} misses the reference {reference} by more than 1 + {eps}")
    return bad


def missing_edges(edge_list_path, pairs):
    """The pairs (normalised u < v) that are not edges of the edge list.

    The edge list is `sparsimatch generate` output: an `n m` header, then
    one `u v` line per edge with `u < v`.
    """
    wanted = {b"%d %d\n" % norm(u, v) for u, v in pairs}
    with open(edge_list_path, "rb") as f:
        f.readline()
        for line in f:
            if line in wanted:
                wanted.discard(line)
                if not wanted:
                    break
    return sorted(tuple(map(int, w.split())) for w in wanted)


def read_edges(edge_list_path):
    """All edges of an edge list, as a list of (u, v) with u < v, and n."""
    with open(edge_list_path, "rb") as f:
        n = int(f.readline().split()[0])
        edges = [norm(*map(int, line.split())) for line in f if line.strip()]
    return n, edges


def selftest(workdir="."):
    """Feed the checker corrupted outputs; return the failures."""
    n = 8
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7), (0, 4)}
    is_edge = lambda u, v: norm(u, v) in edges  # noqa: E731
    good = [(0, 1), (2, 3), (4, 5), (6, 7)]
    failures = []
    if check_matching(good, n, 4, 0.3, is_edge):
        failures.append("a valid perfect matching was rejected")
    corrupted = {
        "non-edge pair": ([(0, 2), (4, 5), (6, 7)], 3),
        "vertex matched twice": ([(0, 1), (1, 2), (4, 5), (6, 7)], 4),
        "size mismatch": (good, 5),
        "self-loop": ([(3, 3), (0, 1), (4, 5), (6, 7)], 4),
        "vertex out of range": ([(7, 8), (0, 1), (2, 3), (4, 5)], 4),
        "below the (1 + eps) reference": ([(0, 1), (2, 3)], 2),
    }
    for what, (pairs, size) in corrupted.items():
        if not check_matching(pairs, n, size, 0.3, is_edge):
            failures.append(f"corrupted output accepted: {what}")
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = os.path.join(tmp, "g.el")
        with open(path, "w") as f:
            f.write(f"{n} {len(edges)}\n")
            f.writelines(f"{u} {v}\n" for u, v in sorted(edges))
        if missing_edges(path, [(1, 0), (3, 2)]):
            failures.append("edge-list scan rejected real edges")
        if missing_edges(path, [(1, 0), (5, 1)]) != [(1, 5)]:
            failures.append("edge-list scan accepted a non-edge")
        if read_edges(path) != (n, sorted(edges)):
            failures.append("edge-list reader lost edges")
    return failures


if __name__ == "__main__":
    problems = selftest()
    for p in problems:
        print("checker self-test:", p, file=sys.stderr)
    print("checker self-test:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
