"""Document parsing, DOT export, and the command-line surface."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iasi.io
import iasi.sets
from iasi import (
    U64_MAX,
    APSet,
    ConstructionParams,
    Graph,
    InvalidLabelingError,
    LabelCollisionError,
    LabeledGraph,
    LabelOverflowError,
    NotArithmeticError,
    SchemaError,
    construct_arbitrary,
    contract_edge,
    document_text,
    dot_text,
    export_dot,
    load_document,
    load_graph,
    path_graph,
    reduce_topologically,
    save_document,
    subdivide,
    to_line_graph,
    to_total_graph,
)
from iasi import catalog
from iasi.cli import main
from reference import corpus_style, reference_document, reference_dot


def sample_lg():
    g = Graph(["u", "v", "w"], [("u", "v"), ("v", "w")])
    return LabeledGraph(g, {"u": {0, 1, 2}, "v": {10, 11, 12}, "w": {20, 22, 24}})


def write_doc(tmp_path, payload, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def bare_graph_doc(tmp_path, graph: Graph, name="graph.json"):
    payload = {
        "graph": {
            "vertices": list(graph.vertices),
            "edges": [list(e) for e in graph.edges],
        }
    }
    return write_doc(tmp_path, payload, name)


# --------------------------------------------------------------------- json


def test_document_round_trip(tmp_path):
    lg = sample_lg()
    path = tmp_path / "lg.json"
    save_document(lg, path, metadata={"seed": 7})
    again = load_document(path)
    assert again == lg

    # canonical writer: dump of what we loaded is byte-identical
    save_document(again, tmp_path / "lg2.json", metadata={"seed": 7})
    assert (tmp_path / "lg2.json").read_bytes() == path.read_bytes()


def test_document_text_shape():
    text = document_text(sample_lg())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert list(doc) == ["graph", "labels"]
    assert doc["labels"]["w"] == [20, 22, 24]


SAMPLE_DOCUMENT = """{
  "graph": {
    "vertices": [
      "u",
      "v",
      "w"
    ],
    "edges": [
      [
        "u",
        "v"
      ],
      [
        "v",
        "w"
      ]
    ]
  },
  "labels": {
    "u": [
      0,
      1,
      2
    ],
    "v": [
      10,
      11,
      12
    ],
    "w": [
      20,
      22,
      24
    ]
  }%s
}
"""

SAMPLE_METADATA = """,
  "metadata": {
    "seed": 7,
    "params": {
      "sizes": [
        3,
        5
      ]
    }
  }"""


def test_document_frozen_bytes():
    assert document_text(sample_lg()) == SAMPLE_DOCUMENT % ""
    metadata = {"seed": 7, "params": {"sizes": [3, 5]}}
    assert document_text(sample_lg(), metadata) == SAMPLE_DOCUMENT % SAMPLE_METADATA


def test_metadata_only_present_when_given():
    assert "metadata" not in json.loads(document_text(sample_lg()))
    assert json.loads(document_text(sample_lg(), metadata={"a": 1}))["metadata"] == {"a": 1}


def test_load_graph_ignores_labels(tmp_path):
    path = write_doc(
        tmp_path,
        {
            "graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
            "labels": {"a": [0], "b": [1]},
        },
    )
    g = load_graph(path)
    assert isinstance(g, Graph)
    assert g.vertices == ("a", "b")


@pytest.mark.parametrize(
    "payload,context",
    [
        ({"labels": {}}, "document"),  # missing graph
        ({"graph": {"vertices": [], "edges": []}, "extra": 1}, "document"),
        ({"graph": {"vertices": ["a"], "edges": [], "weights": []}}, "graph"),
        ({"graph": {"vertices": "ab", "edges": []}}, "graph.vertices"),
        ({"graph": {"vertices": ["a", ""], "edges": []}}, "graph.vertices"),
        ({"graph": {"vertices": ["a", "b"], "edges": [["a"]]}}, "graph.edges[0]"),
        ({"graph": {"vertices": ["a", "b"], "edges": [["a", "c"]]}}, "graph.edges[0]"),
        # a duplicate vertex does not hide the unknown endpoint of the second edge
        (
            {"graph": {"vertices": ["a", "a", "b"], "edges": [["a", "b"], ["b", "c"]]}},
            "graph.edges[1]",
        ),
        ({"graph": {"vertices": ["a", "-b"], "edges": [["a", "-b"]]}}, "graph.vertices"),
        # a lone surrogate is a legal JSON escape with no UTF-8 form
        ({"graph": {"vertices": ["a", "\ud800"], "edges": [["a", "\ud800"]]}}, "graph.vertices"),
        ([{"graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]}}], "document"),  # an array
        ({"graph": {"vertices": ["a", "b"], "edges": {}}}, "graph.edges"),
    ],
)
def test_schema_errors_name_the_field(tmp_path, payload, context):
    path = write_doc(tmp_path, payload)
    with pytest.raises(SchemaError) as exc:
        load_graph(path)
    assert exc.value.context == context


@pytest.mark.parametrize(
    "labels,context",
    [
        ({"x": [0, 1, 2]}, "labels"),
        ({"a": "012", "b": [0]}, "labels.a"),
        ({"a": [0, True], "b": [0]}, "labels.a"),
        ({"a": [0, -1], "b": [0]}, "labels.a"),
        ({"a": [0, 1.5], "b": [0]}, "labels.a"),
        ([], "labels"),
    ],
)
def test_label_schema_errors(tmp_path, labels, context):
    path = write_doc(
        tmp_path,
        {"graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]}, "labels": labels},
    )
    with pytest.raises(SchemaError) as exc:
        load_document(path)
    assert exc.value.context == context


def test_missing_labels_section(tmp_path):
    path = write_doc(
        tmp_path, {"graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]}}
    )
    with pytest.raises(SchemaError, match="labels"):
        load_document(path)


def test_partial_labels_rejected(tmp_path):
    path = write_doc(
        tmp_path,
        {
            "graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
            "labels": {"a": [0, 1]},
        },
    )
    with pytest.raises(InvalidLabelingError, match="b"):
        load_document(path)


def test_unsorted_labels_normalize_with_warning(tmp_path):
    path = write_doc(
        tmp_path,
        {
            "graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
            "labels": {"a": [2, 0, 1, 1], "b": [5, 6]},
        },
    )
    with pytest.warns(UserWarning, match="'a'"):
        lg = load_document(path)
    assert tuple(lg.vertex_labels["a"]) == (0, 1, 2)


def test_label_elements_checked_once_per_load(tmp_path, monkeypatch):
    checked = []

    def counting_is_int(value):
        checked.append(value)
        return type(value) is int

    # io's own name is patched too, so an element check made there also counts
    monkeypatch.setattr(iasi.sets, "_is_int", counting_is_int)
    monkeypatch.setattr(iasi.io, "_is_int", counting_is_int, raising=False)
    path = write_doc(
        tmp_path,
        {
            "graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
            "labels": {"a": [0, 1, 2], "b": [5, 6]},
        },
    )
    load_document(path)
    assert checked == [0, 1, 2, 5, 6]


def test_label_above_u64_overflows(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        {
            "graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]},
            "labels": {"a": [0, U64_MAX + 1], "b": [0]},
        },
    )
    with pytest.raises(LabelOverflowError):
        load_document(path)
    code, payload, err = run_cli(capsys, "verify", "--input", path)
    assert code == 2 and payload is None
    assert "64-bit" in err


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"graph": [,]}')
    with pytest.raises(SchemaError) as exc:
        load_graph(path)
    assert str(path) in exc.value.context
    assert exc.value.context.endswith(":1:12")


def test_non_utf8_document_names_file_and_offset(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes('{"graph": {"vertices": ["caf\u00e9"], "edges": []}}'.encode("latin-1"))
    with pytest.raises(SchemaError) as exc:
        load_document(path)
    assert exc.value.context == str(path)
    assert "0xe9 at offset 28" in str(exc.value)
    code, payload, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 2 and payload is None
    assert err.startswith(f"error: {path}: not UTF-8 text")


# ---------------------------------------------------------------------- dot


def test_dot_frozen_sample():
    g = Graph(["u", "v"], [("u", "v")])
    lg = LabeledGraph(g, {"u": {0, 1}, "v": {2, 4}})
    assert dot_text(lg) == (
        "graph G {\n"
        '  "u" [label="{0,1}"];\n'
        '  "v" [label="{2,4}"];\n'
        '  "u" -- "v" [label="{2,3,4,5}"];\n'
        "}\n"
    )
    # a singleton label and multi-digit elements
    g = Graph(["p", "q", "r"], [("p", "q"), ("q", "r")])
    lg = LabeledGraph(g, {"p": {7}, "q": {10, 25, 40}, "r": {100, 1234}})
    assert dot_text(lg) == (
        "graph G {\n"
        '  "p" [label="{7}"];\n'
        '  "q" [label="{10,25,40}"];\n'
        '  "r" [label="{100,1234}"];\n'
        '  "p" -- "q" [label="{17,32,47}"];\n'
        '  "q" -- "r" [label="{110,125,140,1244,1259,1274}"];\n'
        "}\n"
    )


def test_dot_escapes_quotes_and_backslashes_in_names():
    g = Graph(['a"b', "c\\d"], [('a"b', "c\\d")])
    lg = LabeledGraph(g, {'a"b': {0, 1}, "c\\d": {2, 4}})
    assert dot_text(lg) == (
        "graph G {\n"
        '  "a\\"b" [label="{0,1}"];\n'
        '  "c\\\\d" [label="{2,4}"];\n'
        '  "a\\"b" -- "c\\\\d" [label="{2,3,4,5}"];\n'
        "}\n"
    )


def test_dot_export_is_byte_stable(tmp_path):
    lg = sample_lg()
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    export_dot(lg, a)
    export_dot(lg, b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == dot_text(lg)


# The writers against references built from the vertex labels alone
# (tests/reference.py): the document against json.dumps(indent=2) of its dict,
# DOT against a per-element str() join, each edge labeled with the brute-force
# sumset of its ends' labels. Names carry quotes, backslashes, newlines and non-ASCII text,
# but only characters with a UTF-8 form: the writers refuse a lone surrogate
# (test_writers_refuse_names_the_reader_refuses); label elements reach
# U64_MAX // 2, so edge labels reach U64_MAX - 1.
vertex_names = st.text(
    st.one_of(st.characters(codec="utf-8"), st.sampled_from('"\\\n\u00e9\u4e2d\U0001f600')),
    min_size=1,
    max_size=5,
).filter(lambda name: not name.startswith("-"))
label_elements = st.one_of(st.integers(0, 40), st.integers(0, U64_MAX // 2))
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@st.composite
def labeled_graphs(draw):
    names = draw(st.lists(vertex_names, min_size=2, max_size=6, unique=True))
    # a random spanning tree leaves no vertex isolated; extra edges close cycles
    edges = {
        frozenset((names[i], names[draw(st.integers(0, i - 1))])) for i in range(1, len(names))
    }
    pairs = [frozenset(p) for p in zip(names, names[1:] + names[:1])]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    labels = {
        v: draw(st.sets(label_elements, min_size=1, max_size=4)) for v in names
    }
    return LabeledGraph(Graph(names, [tuple(e) for e in edges]), labels)


@settings(max_examples=300, deadline=None)
@given(labeled_graphs(), st.one_of(st.none(), json_values))
def test_writers_match_references(tmp_path_factory, lg, metadata):
    assert document_text(lg, metadata) == reference_document(lg, metadata)
    # and every document written loads back as the labeled graph it was written from
    path = tmp_path_factory.getbasetemp() / "written.json"
    save_document(lg, path, metadata)
    assert load_document(path) == lg
    assert dot_text(lg) == reference_dot(lg)


# The writers' shared label-text memo against the same references, on what it
# serves: a labeling and its five transforms, which carry its labels. Label
# sizes reach 70, so some labels pass the memo's 64-term cap; some labelings
# hold a label that is not a progression, which only the input writes (every
# transform refuses it). Names carry the characters that the writers escape
# or that their % formats would read.
@st.composite
def labelings_with_transforms(draw):
    names = draw(
        st.lists(st.text(st.sampled_from('ab"\\%'), min_size=1, max_size=3),
                 min_size=3, max_size=8, unique=True)
    )
    edges = {
        frozenset((names[i], names[draw(st.integers(0, i - 1))])) for i in range(1, len(names))
    }
    pairs = [frozenset(p) for p in zip(names, names[1:] + names[:1])]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    graph = Graph(names, [tuple(e) for e in edges])
    policy = draw(st.sampled_from(["fixed", "random", "maximal"]))
    # an edge multiplier k gives m + k(n - 1) terms; only k = 1 sizes past 8,
    # so that no label reaches the thousands of terms the references are slow on
    top = 70 if policy == "fixed" else 8
    low = draw(st.integers(3, top))
    params = ConstructionParams(
        label_size_range=(low, draw(st.integers(low, top))),
        multiplier_policy=policy,
        seed=draw(st.integers(0, 2**16)),
    )
    lg = construct_arbitrary(graph, params).labeled_graph
    if draw(st.booleans()):
        # a last gap of 2d + 1 after gaps of d: no longer a progression
        v = draw(st.sampled_from(names))
        label = lg.vertex_labels[v]
        labels = dict(lg.vertex_labels)
        labels[v] = {*label, label.last + 2 * label.difference + 1}
        lg = LabeledGraph(graph, labels)
    return lg


def transformed(lg):
    """``lg`` and each of its five transforms that succeeds, in that order."""
    graph = lg.graph
    edge = graph.edges[0]
    ops = [
        lambda: contract_edge(lg, edge),
        lambda: subdivide(lg, edge),
        lambda: to_line_graph(lg),
        lambda: to_total_graph(lg),
    ]
    for v in graph.vertices:
        if graph.degree(v) == 2 and not graph.has_edge(*graph.neighbors(v)):
            ops.append(lambda v=v: reduce_topologically(lg, v))
            break
    outputs = [lg]
    for op in ops:
        try:
            outputs.append(op())
        except (LabelCollisionError, NotArithmeticError, ValueError):
            continue
    return outputs


@settings(max_examples=200, deadline=None)
@given(labelings_with_transforms())
def test_writers_match_references_through_transforms(lg):
    expected = [(out, reference_document(out), reference_dot(out)) for out in transformed(lg)]
    # in turn twice, so the second pass reads every progression warm; then cold
    for clear in (False, False, True):
        if clear:
            iasi.io._progression_text.cache_clear()
        for out, document, dot in expected:
            assert document_text(out) == document
            assert dot_text(out) == dot


def progression_path(count, length, base=0):
    """A path of ``count`` vertices with distinct ``length``-term labels, so
    its document writes ``count`` progressions and its DOT ``2 * count - 1``."""
    names = [f"v{i}" for i in range(count)]
    # differences 1 and 2 alternate, so every edge label is a progression too
    labels = {
        v: APSet(base + 1000 * i, 1 + i % 2, length) for i, v in enumerate(names)
    }
    return LabeledGraph(Graph(names, list(zip(names, names[1:]))), labels)


def test_label_memo_stays_bounded():
    memo = iasi.io._progression_text
    size = memo.cache_info().maxsize
    memo.cache_clear()
    for k in range(6):
        document_text(progression_path(size // 2, 3, base=10**9 * k))
    info = memo.cache_info()
    assert info.misses == 3 * size
    assert info.currsize <= size
    # a label of 64 terms is kept (one of 65 is not: the test below)
    document_text(progression_path(2, 64))
    info = memo.cache_info()
    assert info.currsize == size and info.misses == 3 * size + 2


@pytest.mark.parametrize("lg", [progression_path(2, 65)], ids=["65-term-labels"])
def test_writes_the_memo_skips_leave_it_as_it_was(lg):
    memo = iasi.io._progression_text
    memo.cache_clear()
    document_text(progression_path(4, 3))
    before = memo.cache_info()
    assert document_text(lg) == reference_document(lg)
    assert dot_text(lg) == reference_dot(lg)
    assert memo.cache_info() == before


def assert_same_lines(text, expected):
    """``text == expected``, failing at the first line that differs: pytest's
    diff of two whole texts of thousands of lines would take minutes."""
    if text != expected:
        lines, expected_lines = text.split("\n"), expected.split("\n")
        for line, expected_line in zip(lines, expected_lines):
            assert line == expected_line
        assert len(lines) == len(expected_lines)


def test_writers_give_the_reference_bytes_on_2000_vertex_documents():
    # the transforms of two corpus-style documents in turn, so the memo fills
    # with the first document's labels and evicts them for the second's, also
    # in calls that write more labels than it holds: each DOT here, and the
    # documents of the line and total graphs. A transform may refuse only
    # with a label collision; any other error fails the test
    memo = iasi.io._progression_text
    memo.cache_clear()
    written = {}
    for seed in (0, 1):
        lg = corpus_style(seed, 2000)
        graph = lg.graph
        edge = graph.edges[0]
        reducible = next(
            v for v in graph.vertices
            if graph.degree(v) == 2 and not graph.has_edge(*graph.neighbors(v))
        )
        ops = {
            "contract": lambda: contract_edge(lg, edge),
            "subdivide": lambda: subdivide(lg, edge),
            "reduce": lambda: reduce_topologically(lg, reducible),
            "line": lambda: to_line_graph(lg),
            "total": lambda: to_total_graph(lg),
        }
        written[seed] = []
        for name, op in ops.items():
            try:
                out = op()
            except LabelCollisionError:
                continue
            written[seed].append(name)
            assert_same_lines(document_text(out), reference_document(out))
            assert_same_lines(dot_text(out), reference_dot(out))
    # seed 1's total graph has a known label collision
    assert written == {
        0: ["contract", "subdivide", "reduce", "line", "total"],
        1: ["contract", "subdivide", "reduce", "line"],
    }
    info = memo.cache_info()
    assert info.currsize == info.maxsize < info.misses


# ---------------------------------------------------------------------- cli


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out else None
    return code, payload, captured.err


def test_cli_construct_then_verify(tmp_path, capsys):
    src = bare_graph_doc(tmp_path, Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]))
    out = str(tmp_path / "labeled.json")
    code, payload, _ = run_cli(
        capsys, "construct", "--input", src, "--output", out, "--seed", "5"
    )
    assert code == 0
    assert payload["is_iasi"] and payload["arithmetic"]
    assert payload["fallback"] is False and payload["capped"] == 0

    doc = json.loads(Path(out).read_text())
    assert doc["metadata"]["seed"] == 5
    assert doc["metadata"]["params"]["policy"] == "fixed"

    code, payload, _ = run_cli(capsys, "verify", "--input", out)
    assert code == 0 and payload["is_iasi"]


def test_cli_construct_reports_capped_multipliers(tmp_path, capsys):
    # a deep path under "maximal" outgrows 64 bits unless multipliers are capped
    src = bare_graph_doc(tmp_path, path_graph(48))
    out = str(tmp_path / "path.json")
    code, payload, _ = run_cli(
        capsys, "construct", "--input", src, "--output", out,
        "--sizes", "3,6", "--policy", "maximal",
    )
    assert code == 0
    assert payload["is_iasi"] and payload["arithmetic"]
    assert payload["capped"] > 0
    code, payload, _ = run_cli(capsys, "verify", "--input", out)
    assert code == 0 and payload["is_iasi"]


def test_cli_construct_size_range(tmp_path, capsys):
    src = bare_graph_doc(tmp_path, Graph(["a", "b"], [("a", "b")]))
    out = str(tmp_path / "x.json")
    code, payload, _ = run_cli(
        capsys, "construct", "--input", src, "--output", out,
        "--sizes", "3,5", "--policy", "random", "--seed", "11",
    )
    assert code == 0
    sizes = {len(v) for v in json.loads(Path(out).read_text())["labels"].values()}
    assert sizes <= {3, 4, 5}


def test_cli_construct_single_size(tmp_path, capsys):
    src = bare_graph_doc(tmp_path, Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]))
    out = str(tmp_path / "x.json")
    code, _, _ = run_cli(capsys, "construct", "--input", src, "--output", out, "--sizes", "4")
    assert code == 0
    sizes = [len(v) for v in json.loads(Path(out).read_text())["labels"].values()]
    assert sizes == [4, 4, 4]


@pytest.mark.parametrize(
    "sizes, message",
    [("3,x", "sizes must be integers"), ("3,4,5", "expected one size or a lo,hi pair")],
)
def test_cli_construct_bad_sizes(tmp_path, capsys, sizes, message):
    src = bare_graph_doc(tmp_path, Graph(["a", "b"], [("a", "b")]))
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--input", src, "--output", str(out), "--sizes", sizes])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_verify_failure_names_collision(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        {
            "graph": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
            "labels": {"a": [0, 2], "b": [0, 1], "c": [0, 1, 2]},
        },
    )
    code, payload, _ = run_cli(capsys, "verify", "--input", path)
    assert code == 1
    assert payload["collision"]["kind"] == "edge"


def test_cli_classify_reports_fields(tmp_path, capsys):
    lg = sample_lg()
    path = tmp_path / "lg.json"
    save_document(lg, path)
    code, payload, _ = run_cli(capsys, "classify", "--input", str(path))
    assert code == 0
    assert payload["arithmetic"] is True
    assert payload["semi_arithmetic"] is False
    assert payload["strict_semi_arithmetic"] is False
    assert payload["per_edge"][0] == {
        "edge": ["u", "v"], "indexing_number": 5, "strong": False, "weak": False
    }


def test_cli_classify_rejects_strict_semi(tmp_path, capsys):
    path = tmp_path / "lg.json"
    save_document(sample_lg(), path)
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--input", str(path), "--strict-semi"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strict-semi" in capsys.readouterr().err


def test_cli_transform_contract(tmp_path, capsys):
    path = tmp_path / "lg.json"
    save_document(sample_lg(), path)
    out = str(tmp_path / "contracted.json")
    code, payload, _ = run_cli(
        capsys, "transform", "--op", "contract", "--edge", "u", "v",
        "--input", str(path), "--output", out,
    )
    assert code == 0
    assert json.loads(Path(out).read_text())["labels"]["(u*v)"] == [10, 11, 12, 13, 14]


def test_cli_transform_contracts_an_edge_of_a_line_graph(tmp_path, capsys):
    path = tmp_path / "lg.json"
    save_document(
        construct_arbitrary(path_graph(4), ConstructionParams()).labeled_graph, path
    )
    line = str(tmp_path / "line.json")
    code, _, _ = run_cli(
        capsys, "transform", "--op", "line", "--input", str(path), "--output", line
    )
    assert code == 0
    assert load_document(line).graph.edges == (("(a,b)", "(b,c)"), ("(b,c)", "(c,d)"))
    out = str(tmp_path / "contracted.json")
    code, payload, err = run_cli(
        capsys, "transform", "--op", "contract", "--edge", "(a,b)", "(b,c)",
        "--input", line, "--output", out,
    )
    assert (code, err) == (0, "")
    assert payload == {"command": "transform", "op": "contract", "output": out}
    assert load_document(out).graph.vertices == ("((a,b)*(b,c))", "(c,d)")


def test_cli_transform_usage_errors(tmp_path, capsys):
    path = tmp_path / "lg.json"
    save_document(sample_lg(), path)
    out = str(tmp_path / "o.json")

    code, _, err = run_cli(capsys, "transform", "--op", "contract",
                           "--input", str(path), "--output", out)
    assert code == 2 and "--edge" in err

    code, _, err = run_cli(capsys, "transform", "--op", "reduce",
                           "--input", str(path), "--output", out)
    assert code == 2 and "--vertex" in err

    # degree precondition violated: u is an endpoint, not degree 2
    code, _, err = run_cli(capsys, "transform", "--op", "reduce", "--vertex", "u",
                           "--input", str(path), "--output", out)
    assert code == 2 and "degree" in err


def test_cli_transform_collision_is_exit_one(tmp_path, capsys):
    path = write_doc(
        tmp_path,
        {
            "graph": {
                "vertices": ["a", "b", "c"],
                "edges": [["a", "b"], ["a", "c"]],
            },
            "labels": {"a": [5, 6, 7], "b": [10, 11, 12], "c": [15, 16, 17]},
        },
    )
    code, payload, _ = run_cli(
        capsys, "transform", "--op", "total",
        "--input", path, "--output", str(tmp_path / "t.json"),
    )
    assert code == 1
    assert payload["error"] == "collision"
    assert payload["collision"]["kind"] in ("vertex", "edge")


# An arithmetic labeling whose total graph collides, a semi-arithmetic
# labeling with a vertex collision that the two readings classify apart, and
# vertex names with dashes whose edges would share one "u-v" key.
GOLDEN_DOCS = {
    "arithmetic": {
        "graph": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["a", "c"]]},
        "labels": {"a": [5, 6, 7], "b": [10, 11, 12], "c": [15, 16, 17]},
    },
    "colliding": {
        "graph": {
            "vertices": ["a", "b", "c", "d"],
            "edges": [["a", "b"], ["b", "c"], ["c", "d"]],
        },
        "labels": {"a": [0, 1, 2], "b": [0, 4, 8], "c": [0, 2, 4], "d": [0, 1, 2]},
    },
    "dashed": {
        "graph": {
            "vertices": ["a", "a-b", "b", "b-c", "c"],
            "edges": [["a", "b-c"], ["a-b", "c"], ["a", "b"], ["b", "c"]],
        },
        "labels": {"a": [0], "a-b": [10], "b": [20], "b-c": [30], "c": [40]},
    },
}

_ARITHMETIC_CLASSES = (
    '{"arithmetic": true, "collision": null, "command": "classify", '
    '"edge_arithmetic": true, "is_iasi": true, "per_edge": ['
    '{"edge": ["a", "b"], "indexing_number": 5, "strong": false, "weak": false}, '
    '{"edge": ["a", "c"], "indexing_number": 5, "strong": false, "weak": false}], '
    '"semi_arithmetic": false, "strict_semi_arithmetic": false, '
    '"sub_minimal_vertices": [], "uniform_k": 5, '
    '"vertex_arithmetic": true, "vertex_uniform_l": 3}\n'
)
_DASHED_CLASSES = (
    '{"arithmetic": false, "collision": null, "command": "classify", '
    '"edge_arithmetic": true, "is_iasi": true, "per_edge": ['
    '{"edge": ["a", "b"], "indexing_number": 1, "strong": true, "weak": true}, '
    '{"edge": ["a", "b-c"], "indexing_number": 1, "strong": true, "weak": true}, '
    '{"edge": ["a-b", "c"], "indexing_number": 1, "strong": true, "weak": true}, '
    '{"edge": ["b", "c"], "indexing_number": 1, "strong": true, "weak": true}], '
    '"semi_arithmetic": false, "strict_semi_arithmetic": false, '
    '"sub_minimal_vertices": ["a", "a-b", "b", "b-c", "c"], "uniform_k": 1, '
    '"vertex_arithmetic": false, "vertex_uniform_l": 1}\n'
)
_VERTEX_COLLISION = '{"first": "a", "kind": "vertex", "label": [0, 1, 2], "second": "d"}'
_COLLIDING_CLASSES = (
    f'{{"arithmetic": false, "collision": {_VERTEX_COLLISION}, "command": "classify", '
    '"edge_arithmetic": false, "is_iasi": false, "per_edge": ['
    '{"edge": ["a", "b"], "indexing_number": 9, "strong": true, "weak": false}, '
    '{"edge": ["b", "c"], "indexing_number": 7, "strong": false, "weak": false}, '
    '{"edge": ["c", "d"], "indexing_number": 7, "strong": false, "weak": false}], '
    '"semi_arithmetic": true, "strict_semi_arithmetic": false, '
    '"sub_minimal_vertices": [], "uniform_k": null, '
    '"vertex_arithmetic": true, "vertex_uniform_l": 3}\n'
)


@pytest.mark.parametrize(
    "doc,argv,code,out,err",
    [
        ("arithmetic", ["verify"], 0,
         '{"collision": null, "command": "verify", "is_iasi": true}\n', ""),
        ("arithmetic", ["classify"], 0, _ARITHMETIC_CLASSES, ""),
        ("dashed", ["classify"], 0, _DASHED_CLASSES, ""),
        ("arithmetic", ["transform", "--op", "total"], 1,
         '{"collision": {"first": ["(a,b)", "b"], "kind": "edge", '
         '"label": [25, 26, 27, 28, 29, 30, 31], "second": ["(a,c)", "a"]}, '
         '"command": "transform", "error": "collision", "op": "total"}\n', ""),
        ("arithmetic", ["transform", "--op", "contract"], 2, "",
         "error: --op contract requires --edge U V\n"),
        ("arithmetic", ["transform", "--op", "reduce"], 2, "",
         "error: --op reduce requires --vertex\n"),
        ("colliding", ["verify"], 1,
         f'{{"collision": {_VERTEX_COLLISION}, "command": "verify", "is_iasi": false}}\n', ""),
        ("colliding", ["classify"], 1, _COLLIDING_CLASSES, ""),
    ],
)
def test_cli_golden_output(tmp_path, capsys, doc, argv, code, out, err):
    path = write_doc(tmp_path, GOLDEN_DOCS[doc])
    if argv[0] == "transform":
        argv = [*argv, "--output", str(tmp_path / "out.json")]
    assert main([*argv, "--input", path]) == code
    assert capsys.readouterr() == (out, err)
    assert not (tmp_path / "out.json").exists()


def test_cli_catalog_flags_probe(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    code, payload, _ = run_cli(
        capsys, "catalog", "--max-n", "3", "--records", str(records)
    )
    assert code == 1  # the K3 probe discrepancy
    assert payload["outcomes"]["fail"] == 0
    assert payload["outcomes"]["discrepancy"] == 1
    lines = records.read_text().splitlines()
    assert len(lines) == payload["records"]
    assert all(set(json.loads(l)) == {"graph", "check", "outcome", "witness"} for l in lines)


def test_cli_crash_exits_3_with_traceback(monkeypatch, capsys):
    def crash(graph, policy, seed):
        raise RuntimeError("planted crash")

    monkeypatch.setattr(catalog, "check_one_graph", crash)
    code, payload, err = run_cli(capsys, "catalog", "--max-n", "3")
    assert code == 3 and payload is None
    assert "Traceback" in err and "RuntimeError: planted crash" in err


def test_cli_catalog_large_needs_opt_in(capsys):
    code, _, err = run_cli(capsys, "catalog", "--max-n", "7")
    assert code == 2 and "--allow-large" in err
    assert "1,893,731 graphs, 1,866,256 of them on 7 vertices" in err


@pytest.mark.parametrize("argv", [["1"], ["9"], ["9", "--allow-large"]])
def test_cli_catalog_max_n_out_of_range(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "--max-n", *argv])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "invalid choice" in err and "2, 3, 4, 5, 6, 7" in err


@pytest.mark.parametrize(
    "bad", [["--max-n", "1"], ["--seed", "-1"], ["--policy", "fixed", "--policy", "fixed"]]
)
def test_cli_catalog_bad_arguments_leave_records_untouched(tmp_path, capsys, bad):
    records = tmp_path / "records.jsonl"
    records.write_bytes(b"earlier sweep\n")
    argv = ["catalog", "--max-n", "3", "--records", str(records), *bad]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert records.read_bytes() == b"earlier sweep\n"


def test_cli_catalog_unwritable_records_checks_nothing(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(catalog, "check_one_graph", lambda *args: calls.append(args))
    code, _, err = run_cli(capsys, "catalog", "--max-n", "5", "--records", str(tmp_path))
    assert code == 2 and "error" in err
    assert calls == []


def test_cli_export_dot(tmp_path, capsys):
    path = tmp_path / "lg.json"
    save_document(sample_lg(), path)
    out = tmp_path / "g.dot"
    code, payload, _ = run_cli(capsys, "export-dot", "--input", str(path), "--output", str(out))
    assert code == 0
    assert out.read_text() == dot_text(sample_lg())


def test_cli_missing_input_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--input", str(tmp_path / "nope.json"))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("role", ["input", "output"])
def test_cli_directory_path_is_usage_error(tmp_path, capsys, role):
    graph = bare_graph_doc(tmp_path, Graph(["u", "v"], [("u", "v")]))
    paths = {"input": graph, "output": str(tmp_path / "out.json"), role: str(tmp_path)}
    code, _, err = run_cli(
        capsys, "construct", "--input", paths["input"], "--output", paths["output"]
    )
    assert code == 2 and "error" in err


def test_cli_construct_rejects_empty_graph(tmp_path, capsys):
    src = write_doc(tmp_path, {"graph": {"vertices": [], "edges": []}})
    out = tmp_path / "out.json"
    code, payload, err = run_cli(capsys, "construct", "--input", src, "--output", str(out))
    assert code == 2 and payload is None
    assert err == "error: invalid graph: empty-graph at ()\n"
    assert not out.exists()


def test_cli_rejects_vertex_name_starting_with_dash(tmp_path, capsys):
    """Such a name could not be given to --edge or --vertex."""
    src = write_doc(tmp_path, {"graph": {"vertices": ["a", "-b"], "edges": [["a", "-b"]]}})
    out = tmp_path / "out.json"
    code, payload, err = run_cli(capsys, "construct", "--input", src, "--output", str(out))
    assert code == 2 and payload is None
    assert err == "error: graph.vertices: vertex name '-b' starts with '-'\n"
    assert not out.exists()


def test_cli_export_dot_rejects_lone_surrogate_name(tmp_path, capsys):
    src = write_doc(
        tmp_path,
        {
            "graph": {"vertices": ["a", "\ud800"], "edges": [["a", "\ud800"]]},
            "labels": {"a": [0, 1, 2], "\ud800": [10, 11, 12]},
        },
    )
    out = tmp_path / "g.dot"
    code, payload, err = run_cli(capsys, "export-dot", "--input", src, "--output", str(out))
    assert code == 2 and payload is None
    assert err == (
        "error: graph.vertices: vertex name '\\ud800' is not UTF-8 text (a lone surrogate)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "write, error",
    [
        # a built graph may still carry a lone surrogate, which no reader accepts
        (
            lambda path: export_dot(
                LabeledGraph(Graph(["a", "\ud800"], [("a", "\ud800")]), {"a": {0}, "\ud800": {1}}),
                path,
            ),
            ValueError,
        ),
        (lambda path: save_document(sample_lg(), path, metadata={"seed": object()}), TypeError),
    ],
    ids=["export_dot", "save_document"],
)
def test_failed_write_leaves_no_file(tmp_path, write, error):
    out = tmp_path / "out"
    with pytest.raises(error):
        write(out)
    assert not out.exists()


@pytest.mark.parametrize(
    "name, message",
    [
        ("-a", "vertex name '-a' starts with '-'"),
        ("", "vertex name '' is empty"),
        ("\ud800", "vertex name '\\ud800' is not UTF-8 text (a lone surrogate)"),
    ],
    ids=["dash", "empty", "surrogate"],
)
@pytest.mark.parametrize("write", [save_document, export_dot], ids=["document", "dot"])
def test_writers_refuse_names_the_reader_refuses(tmp_path, write, name, message):
    lg = LabeledGraph(Graph(["a", name], [("a", name)]), {"a": {0}, name: {1}})
    out = tmp_path / "out"
    with pytest.raises(ValueError) as exc:
        write(lg, out)
    assert str(exc.value) == message
    assert not out.exists()
    # the reader refuses the name with the same message
    with pytest.raises(SchemaError) as exc:
        load_graph(bare_graph_doc(tmp_path, lg.graph))
    assert str(exc.value) == f"graph.vertices: {message}"


def test_cli_requires_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
