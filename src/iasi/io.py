"""Labeling documents (JSON) and DOT export.

Document layout::

    {
      "graph": {"vertices": ["u", "v"], "edges": [["u", "v"]]},
      "labels": {"u": [0, 1, 2], "v": [3, 5, 7]},
      "metadata": {"seed": 7, "...": "..."}
    }

"labels" may be omitted for bare graphs (construction input). Vertex names
are nonempty UTF-8 strings that do not start with "-", so every name can be
given to the command line's ``--edge`` and ``--vertex``; both writers refuse
any other name with ValueError, so what they write loads back. Unknown
fields anywhere are rejected; label arrays must be ascending and are
normalized with a warning when they are not. Serialization is canonical: the text depends
only on the labeled graph and the metadata passed to the writer.
``load_document`` drops metadata, so re-saving a loaded document gives the
same bytes only when the same metadata is passed back. A file that is not
UTF-8 text, or not JSON, raises SchemaError naming the file and the byte
offset, or the line and column, where reading stopped.

Both writers take a progression label's text from one memo, which keeps the
text of the 2,048 progressions written most recently: an associated graph
carries its input's labels, so a document and its transforms write the same
progressions many times. A progression of more than 64 terms and a label
that is not a progression are formatted directly and leave the memo as it
was, so it never holds more than 2,048 x 64 x 21 B (a 20-digit decimal and
its comma), about 2.8 MB of text. The memo changes no byte written.
"""

from __future__ import annotations

import functools
import json
import warnings
from json.encoder import encode_basestring_ascii as _quote

from .errors import GraphValidationError, SchemaError
from .graphs import Graph, LabeledGraph
from .sets import APSet, IntegerSet

__all__ = [
    "load_document",
    "load_graph",
    "save_document",
    "document_text",
    "export_dot",
    "dot_text",
]


def _read_json(path):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # decoded whole, so the error's offset counts bytes from the file's start
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"not UTF-8 text: byte 0x{data[exc.start]:02x} at offset {exc.start} ({exc.reason})",
            context=str(path),
        ) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"malformed JSON: {exc.msg}", context=f"{path}:{exc.lineno}:{exc.colno}"
        ) from exc


def _check_fields(obj, allowed, required, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", context=where)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown field {key!r}", context=where)
    for key in required:
        if key not in obj:
            raise SchemaError(f"missing field {key!r}", context=where)


def _is_utf8(text: str) -> bool:
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _name_problem(vertices) -> str | None:
    """Why the strings ``vertices`` cannot all be a document's vertex names, or
    None if they can: the first name that breaks the first rule broken."""
    if "" in vertices:
        return "vertex name '' is empty"
    dashed = [v for v in vertices if v[0] == "-"]
    if dashed:
        return f"vertex name {dashed[0]!r} starts with '-'"
    # UTF-8 has no form for a surrogate, paired or not: one joined check covers every name
    if not _is_utf8("".join(vertices)):
        bad = next(v for v in vertices if not _is_utf8(v))
        return f"vertex name {bad!r} is not UTF-8 text (a lone surrogate)"
    return None


def _require_names(graph: Graph):
    """A writer's check: ValueError naming the first vertex the reader would refuse."""
    problem = _name_problem(graph.vertices)
    if problem:
        raise ValueError(problem)


def _parse_graph(doc) -> Graph:
    _check_fields(doc, {"graph", "labels", "metadata"}, {"graph"}, "document")
    gobj = doc["graph"]
    _check_fields(gobj, {"vertices", "edges"}, {"vertices", "edges"}, "graph")
    vertices = gobj["vertices"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise SchemaError("vertices must be a list of strings", context="graph.vertices")
    problem = _name_problem(vertices)
    if problem:
        raise SchemaError(problem, context="graph.vertices")
    edges = gobj["edges"]
    if not isinstance(edges, list):
        raise SchemaError("edges must be a list", context="graph.edges")
    parsed = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise SchemaError("each edge must be a pair of strings", context=f"graph.edges[{i}]")
        parsed.append(tuple(e))
    try:
        return Graph(vertices, parsed)
    except GraphValidationError as exc:
        dangling = [v.element for v in exc.violations if v.kind == "dangling-endpoint"]
        if not dangling:
            raise
        u, v = dangling[0]
        unknown = u if u not in vertices else v
        raise SchemaError(
            f"edge {[u, v]} names unknown vertex {unknown!r}",
            context=f"graph.edges[{parsed.index((u, v))}]",
        ) from exc


def _parse_labels(doc, graph: Graph) -> dict:
    if "labels" not in doc:
        raise SchemaError("missing field 'labels'", context="document")
    lobj = doc["labels"]
    if not isinstance(lobj, dict):
        raise SchemaError("labels must be an object", context="labels")
    vset = set(graph.vertices)
    labels = {}
    for v, arr in lobj.items():
        if v not in vset:
            raise SchemaError(f"label for unknown vertex {v!r}", context="labels")
        where = f"labels.{v}"
        if not isinstance(arr, list):
            raise SchemaError("label must be a list of integers", context=where)
        try:
            label = IntegerSet(arr)
        except TypeError as exc:
            raise SchemaError("label must be a list of integers", context=where) from exc
        except ValueError as exc:
            raise SchemaError("label elements must be non-negative", context=where) from exc
        if list(label) != arr:
            warnings.warn(
                f"label array for {v!r} was not strictly ascending; normalized",
                stacklevel=3,
            )
        labels[v] = label
    return labels


def load_document(path) -> LabeledGraph:
    """Parse a labeling document; schema problems name the offending field."""
    doc = _read_json(path)
    graph = _parse_graph(doc)
    return LabeledGraph(graph, _parse_labels(doc, graph))


def load_graph(path) -> Graph:
    """Parse only the graph section (labels, if present, are ignored)."""
    return _parse_graph(_read_json(path))


# The memo's bounds: how many progressions it keeps, and the most terms one may have.
_MEMO_LABELS = 2048
_MEMO_TERMS = 64


@functools.lru_cache(maxsize=_MEMO_LABELS)
def _progression_text(first: int, difference: int | None, length: int) -> str:
    """The ","-joined decimals of a progression's terms, by one %."""
    step = difference or 1
    return ("%d," * length)[:-1] % tuple(range(first, first + length * step, step))


def _decimals(label) -> str:
    """``",".join(str(e) for e in label)``, formatted by one %; an APSet of at
    most 64 terms through the memo (see the module docstring)."""
    if type(label) is APSet:
        text = _progression_text
        if label.length > _MEMO_TERMS:
            text = text.__wrapped__  # the same formatting, past the memo
        return text(label.first, label.difference, label.length)
    # an IntegerSet's own tuple is the % argument
    return ("%d," * len(label))[:-1] % label


# The indent=2 layout of json.dumps for {"graph": {"vertices", "edges"}, "labels"}.
_DOCUMENT = """{
  "graph": {
    "vertices": [
      %s
    ],
    "edges": [
      %s
    ]
  },
  "labels": {
    %s
  }"""


def document_text(lg: LabeledGraph, metadata=None) -> str:
    """The canonical document; its "metadata" field is present only when given.

    The text is ``json.dumps(doc, indent=2) + "\n"`` of the document's dict,
    written directly so that no element passes through the pure-Python
    encoder that ``indent`` selects. Every array here is non-empty (a graph has
    a vertex and an edge, a label an element), so none needs the ``[]`` form.
    A label's elements are laid out from its ``dot_text`` text, with each
    comma followed by the indent. A vertex name the reader would refuse raises
    ValueError first.
    """
    _require_names(lg.graph)
    quoted = {v: _quote(v) for v in lg.graph.vertices}
    edges = [
        "[\n        %s,\n        %s\n      ]" % (quoted[u], quoted[v]) for u, v in lg.graph.edges
    ]
    # a decimal holds no comma, so each comma of a label's text is a separator
    labels = [
        "%s: [\n      %s\n    ]" % (quoted[v], _decimals(label).replace(",", ",\n      "))
        for v, label in lg.vertex_labels.items()
    ]
    text = _DOCUMENT % (
        ",\n      ".join(quoted.values()),
        ",\n      ".join(edges),
        ",\n    ".join(labels),
    )
    if metadata is not None:
        # exact: a JSON string holds no raw newline, so every one is layout
        text += ',\n  "metadata": ' + json.dumps(metadata, indent=2).replace("\n", "\n  ")
    return text + "\n}\n"


def _write(path, text: str):
    """Write ``text`` as UTF-8, encoded before the file is opened: a text that
    cannot be written leaves no file behind, not an empty one."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def save_document(lg: LabeledGraph, path, metadata=None):
    _write(path, document_text(lg, metadata))


def _dot_id(name: str) -> str:
    """A vertex name as a quoted DOT id, with backslashes and quotes escaped."""
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def dot_text(lg: LabeledGraph) -> str:
    """Graphviz source with one node/edge line per element, label attributes set.

    A vertex name a document may not hold raises ValueError first."""
    _require_names(lg.graph)
    ids = {v: _dot_id(v) for v in lg.graph.vertices}
    lines = ["graph G {"]
    lines += [
        '  %s [label="{%s}"];' % (ids[v], _decimals(label))
        for v, label in lg.vertex_labels.items()
    ]
    lines += [
        '  %s -- %s [label="{%s}"];' % (ids[u], ids[v], _decimals(label))
        for (u, v), label in lg.edge_labels.items()
    ]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(lg: LabeledGraph, path):
    """Write DOT; output is canonical, so re-export is byte-identical."""
    _write(path, dot_text(lg))
