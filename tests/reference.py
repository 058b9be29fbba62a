"""Brute-force references the tests share, and the generators they run them on.

The references recompute what the library claims from the definitions,
with plain loops over elements and sorted lists: a sumset by nested loops,
a progression by its gaps, the two writers' bytes by ``json.dumps`` and
string formatting, and the catalog's checks on one labeling. They share no
code with the library's sumsets, classification, transforms or writers, so
a bug there cannot hide in the expectations. Only ``assert_arithmetic``
asks the library (``classify_arithmetic``); the generators build library
graphs and labelings, and the catalog reference reads the labelings that
``construct_arbitrary`` makes, since it checks the claims, not the
construction. Not a ``test_*.py`` file, so pytest collects nothing from it.

Run as a script, it holds a catalog record stream to the reference::

    PYTHONPATH=src python tests/reference.py records.jsonl [--seed 0]

It prints how many records agree and exits 1 on any disagreement.
"""

import argparse
import json
import math
import random
import sys

from iasi import (
    ConstructionParams,
    Graph,
    LabeledGraph,
    classify_arithmetic,
    construct_arbitrary,
)


def brute_sumset(a, b):
    b = list(b)  # iterated once per element of a
    return sorted({x + y for x in a for y in b})


def is_progression(elements) -> bool:
    """At most one distinct gap between sorted neighbours; the empty set raises."""
    s = sorted(elements)
    assert s, "is_progression of the empty set"
    return len({y - x for x, y in zip(s, s[1:])}) <= 1


def assert_arithmetic(lg):
    report = classify_arithmetic(lg)
    assert report.is_iasi, report.collision
    assert report.arithmetic
    return report


# ------------------------------------------------------------------ writers


def reference_dot_id(name):
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def reference_set(label):
    return "{%s}" % ",".join(str(e) for e in label)


def reference_document(lg, metadata=None):
    doc = {
        "graph": {
            "vertices": list(lg.graph.vertices),
            "edges": [list(e) for e in lg.graph.edges],
        },
        "labels": {v: list(lg.vertex_labels[v]) for v in lg.graph.vertices},
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, indent=2) + "\n"


def reference_dot(lg):
    """The DOT text of ``lg``, each edge labeled with its endpoints' brute-force sumset."""
    labels = lg.vertex_labels
    lines = ["graph G {"]
    for v in lg.graph.vertices:
        lines.append(f'  {reference_dot_id(v)} [label="{reference_set(labels[v])}"];')
    for u, v in lg.graph.edges:
        label = reference_set(brute_sumset(labels[u], labels[v]))
        lines.append(f'  {reference_dot_id(u)} -- {reference_dot_id(v)} [label="{label}"];')
    return "\n".join(lines + ["}"]) + "\n"


# --------------------------------------------------------------- generators


def random_connected_graph(rng, names, edge_count):
    """A random spanning tree on ``names``, then random edges until there are
    ``edge_count``, all drawn from ``rng``."""
    n = len(names)
    edges = {(rng.randrange(i), i) for i in range(1, n)}
    while len(edges) < edge_count:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(names, [(names[a], names[b]) for a, b in sorted(edges)])


def corpus_style(seed, n):
    """An arithmetic IASI of a random connected graph with ``3n // 2`` edges,
    built as the transform-docs corpus builds them: differences d or 2d for
    one d in 1..3, 3 to 6 terms, and the labels set apart by Sidon offsets
    (2pk + k^2 mod p for a prime p >= n), spread wider than any label."""
    rng = random.Random(seed)
    names = [f"v{j:04d}" for j in range(n)]
    graph = random_connected_graph(rng, names, 3 * n // 2)
    d = rng.choice((1, 2, 3))
    diffs = [d * rng.choice((1, 2)) for _ in range(n)]
    lengths = [rng.randint(3, 6) for _ in range(n)]
    stride = 2 * max((k - 1) * df for k, df in zip(lengths, diffs)) + 1
    p = next(q for q in range(n, 2 * n) if all(q % r for r in range(2, math.isqrt(q) + 1)))
    offsets = [2 * p * k + (k * k) % p for k in range(n)]
    rng.shuffle(offsets)
    labels = {
        names[j]: {offsets[j] * stride + t * diffs[j] for t in range(lengths[j])} for j in range(n)
    }
    return LabeledGraph(graph, labels)


# ------------------------------------------------------------------ catalog
#
# The catalog's checks on one labeling, from the definitions: labels are
# sorted tuples of elements, an edge label the brute-force sumset of its
# ends, a difference the gap of a progression. Vertices are in sorted order
# and edges are sorted (u, v) pairs with u < v, so "first" means first in
# that order. Each transform's output structure is built here from its
# definition, and new points are named as the transforms module documents:
# a contraction of (u, v) is "(u*v)", a subdivision point "(u~v)", a line
# or total point for edge (u, v) "(u,v)", with apostrophes appended while
# the name is taken.


def _gap(label):
    """A progression's common difference, read from its first two elements."""
    return label[1] - label[0]


def _fresh(name, taken):
    while name in taken:
        name += "'"
    return name


def _edge_list(edges):
    return sorted({tuple(sorted(e)) for e in edges})


def _edge_labels(labels, edges):
    return {(u, v): tuple(brute_sumset(labels[u], labels[v])) for u, v in edges}


def _first_collision(labels, edge_labels):
    """The first label repeated among the vertices, else among the edges, as a witness."""
    for kind, named in (("vertex", labels), ("edge", edge_labels)):
        seen = {}
        for name in sorted(named):
            label = named[name]
            if label in seen:
                first, second = (list(x) if kind == "edge" else x for x in (seen[label], name))
                return {"kind": kind, "first": first, "second": second, "label": list(label)}
            seen[label] = name
    return None


def _arithmetic(labels, edge_labels) -> bool:
    return all(len(s) >= 3 and is_progression(s) for s in labels.values()) and all(
        map(is_progression, edge_labels.values())
    )


def _verdict(labels, edges):
    """A transform output's outcome and witness: rejected if it leaves a vertex
    without an edge, else a collision, else arithmetic or a discrepancy."""
    edges = _edge_list(edges)
    touched = {x for e in edges for x in e}
    isolated = [v for v in sorted(labels) if v not in touched]
    if isolated:
        return "pass", {"rejected": ["isolated-vertex"] * len(isolated)}
    edge_labels = _edge_labels(labels, edges)
    collision = _first_collision(labels, edge_labels)
    if collision is not None:
        return "pass", {"collision": collision}
    if _arithmetic(labels, edge_labels):
        return "pass", {"arithmetic": True}
    non_ap = [f"{u}-{v}" for (u, v), s in edge_labels.items() if not is_progression(s)]
    return "discrepancy", {"arithmetic": False, "is_iasi": True, "non_ap_edges": sorted(non_ap)}


def _contract(labels, edges, edge):
    u, v = edge
    merged = _fresh(f"({u}*{v})", set(labels) - {u, v})
    out = {x: s for x, s in labels.items() if x not in edge}
    out[merged] = tuple(brute_sumset(labels[u], labels[v]))
    ends = {u: merged, v: merged}
    return out, [(ends.get(x, x), ends.get(y, y)) for x, y in edges if (x, y) != edge]


def _subdivide(labels, edges, edge):
    u, v = edge
    mid = _fresh(f"({u}~{v})", labels)
    out = {**labels, mid: tuple(brute_sumset(labels[u], labels[v]))}
    return out, [e for e in edges if e != edge] + [(u, mid), (mid, v)]


def _reduce(labels, edges, vertex, bridge):
    out = {x: s for x, s in labels.items() if x != vertex}
    return out, [e for e in edges if vertex not in e] + [bridge]


def _edge_points(labels, edges, taken):
    """A new point per edge, labeled with the edge's label, and the pairs of
    points whose edges share an end."""
    points = {}
    taken = set(taken)
    for u, v in edges:
        points[(u, v)] = _fresh(f"({u},{v})", taken)
        taken.add(points[(u, v)])
    out = {points[e]: s for e, s in _edge_labels(labels, edges).items()}
    adjacent = [(points[e], points[f]) for e in edges for f in edges if e < f and set(e) & set(f)]
    return points, out, adjacent


def _line(labels, edges):
    _, out, adjacent = _edge_points(labels, edges, ())
    return out, adjacent


def _total(labels, edges):
    points, out, adjacent = _edge_points(labels, edges, labels)
    incident = [(x, points[e]) for e in edges for x in e]
    return {**labels, **out}, edges + adjacent + incident


def reference_checks(vertex_labels, edges, policy):
    """The catalog's records on one arithmetic IASI of a connected graph,
    after its construct record, as ``json.loads`` reads their lines.

    ``vertex_labels`` maps each vertex name to its elements, and ``edges``
    are pairs of names. Reduce runs at the first vertex of degree 2 whose
    neighbours are not adjacent, if any; line needs two edges.
    """
    labels = {v: tuple(sorted(s)) for v, s in vertex_labels.items()}
    edges = _edge_list(edges)
    assert all(len(s) >= 2 and is_progression(s) for s in labels.values()), labels
    edge_labels = _edge_labels(labels, edges)
    differences = {v: _gap(s) for v, s in labels.items()}
    is_iasi = _first_collision(labels, edge_labels) is None
    arithmetic = _arithmetic(labels, edge_labels)

    violations = []
    for (u, v), label in edge_labels.items():
        if not is_progression(label):
            low, high = sorted((differences[u], differences[v]))
            low_end = v if differences[v] < differences[u] else u
            k, rest = divmod(high, low)
            cause = (
                f"difference {high} is not a multiple of {low}"
                if rest
                else f"multiplier {k} exceeds the cardinality bound {len(labels[low_end])}"
            )
            violations.append(f"edge {(u, v)}: {cause}")
    gcds = {
        "vertex_gcd": math.gcd(*differences.values()),
        "edge_gcd": math.gcd(*(_gap(s) for s in edge_labels.values())),
        "min_vertex_difference": min(differences.values()),
    }

    def outcome(ok):
        return "pass" if ok else "fail"

    checks = [
        ("verify", outcome(is_iasi), {"is_iasi": is_iasi}),
        ("arithmetic", outcome(arithmetic), {"arithmetic": arithmetic}),
        ("multiplier", outcome(not violations), {"violations": violations}),
        ("gcd", outcome(len(set(gcds.values())) == 1), gcds),
        ("transform-contract", *_verdict(*_contract(labels, edges, edges[0]))),
        ("transform-subdivide", *_verdict(*_subdivide(labels, edges, edges[0]))),
    ]
    neighbours = {v: tuple(sorted(x for e in edges if v in e for x in e if x != v)) for v in labels}
    reducible = [
        v for v in sorted(labels) if len(neighbours[v]) == 2 and neighbours[v] not in edges
    ]
    if reducible:
        v = reducible[0]
        reduced = _reduce(labels, edges, v, neighbours[v])
        checks.append(("transform-reduce", *_verdict(*reduced)))
    if len(edges) >= 2:
        checks.append(("transform-line", *_verdict(*_line(labels, edges))))
    checks.append(("transform-total", *_verdict(*_total(labels, edges))))
    gid = ",".join(f"{u}-{v}" for u, v in edges)
    return [
        {"check": f"{name}/{policy}", "graph": gid, "outcome": result, "witness": witness}
        for name, result, witness in checks
    ]


def reference_catalog(lines, seed=0):
    """Hold every record of a catalog stream that follows a construct record
    to ``reference_checks`` on that record's labeling, rebuilt with the
    catalog's construction parameters: base difference 1, three-term labels,
    the record's policy and ``seed``. They are written out here rather than
    read from the catalog, so a change to them there shows as disagreements.

    Returns the number of records compared and the disagreements, each a
    (stream record, reference record) pair with None for a missing side.
    The K3 probe, which follows no construct record, is not compared.
    """
    compared, disagreements, expected = 0, [], []

    def unmatched():
        return [(None, want) for want in expected]

    for line in lines:
        record = json.loads(line)
        check, _, policy = record["check"].partition("/")
        if check in ("construct", "probe-k3-three-index"):
            disagreements += unmatched()
            expected = []
            if check == "construct":
                edges = [tuple(e.split("-")) for e in record["graph"].split(",")]
                graph = Graph(sorted({x for e in edges for x in e}), edges)
                params = ConstructionParams(
                    base_difference=1,
                    label_size_range=(3, 3),
                    multiplier_policy=policy,
                    seed=seed,
                )
                lg = construct_arbitrary(graph, params).labeled_graph
                expected = reference_checks(lg.vertex_labels, edges, policy)
            continue
        compared += 1
        want = expected.pop(0) if expected else None
        if record != want:
            disagreements.append((record, want))
    return compared, disagreements + unmatched()


def main(argv=None):
    parser = argparse.ArgumentParser(description="Hold a catalog record stream to the reference.")
    parser.add_argument("records", help="a JSONL stream written by iasi catalog --records")
    parser.add_argument("--seed", type=int, default=0, help="the sweep's --seed")
    args = parser.parse_args(argv)
    with open(args.records, encoding="utf-8") as lines:
        compared, disagreements = reference_catalog(lines, args.seed)
    for record, want in disagreements[:20]:
        print(f"stream:    {record}\nreference: {want}")
    print(f"{compared} records compared, {len(disagreements)} disagreements")
    return 1 if disagreements or not compared else 0


if __name__ == "__main__":
    sys.exit(main())
