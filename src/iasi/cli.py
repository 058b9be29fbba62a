"""Command-line interface.

Each subcommand prints one JSON object on stdout; diagnostics go to stderr.
Exit codes: 0 all checks passed, 1 a check failed or a discrepancy was
found, 2 usage or input error, 3 an unexpected internal error (its
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import fields, is_dataclass

from . import __version__
from .catalog import MAX_CATALOG_N, MIN_CATALOG_N, run_catalog_checks
from .classify import Collision, classify_arithmetic, classify_edges, verify_iasi
from .construct import _POLICIES, ConstructionParams, construct_arbitrary
from .errors import IasiError, LabelCollisionError
from .io import export_dot, load_document, load_graph, save_document
from .transforms import (
    contract_edge,
    reduce_topologically,
    subdivide,
    to_line_graph,
    to_total_graph,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CRASH = 3

_DEFAULT_POLICY = ConstructionParams.multiplier_policy
# what a sweep up to MAX_CATALOG_N vertices checks (OEIS A001187, n = 2..7)
_LARGE_SWEEP = "1,893,731 graphs, 1,866,256 of them on 7 vertices"

# op -> (transform, the args attribute it takes or None, that option's text)
_TRANSFORMS = {
    "contract": (contract_edge, "edge", "--edge U V"),
    "reduce": (reduce_topologically, "vertex", "--vertex"),
    "subdivide": (subdivide, "edge", "--edge U V"),
    "line": (to_line_graph, None, None),
    "total": (to_total_graph, None, None),
}


def _ops_taking(attr: str) -> str:
    return "/".join(op for op, (_, taken, _) in _TRANSFORMS.items() if taken == attr)


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def _report_json(value):
    """A report as JSON-ready values: a collision through its own serializer,
    other reports field by field, and an edge-keyed dict as a list of
    {"edge": [u, v], ...} objects in the dict's own (canonical) edge order."""
    if isinstance(value, Collision):
        return value.to_dict()
    if is_dataclass(value):
        return {f.name: _report_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return [{"edge": list(e), **_report_json(x)} for e, x in value.items()]
    return value


def _parse_sizes(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be integers, got {text!r}")
    if len(values) == 1:
        return (values[0], values[0])
    if len(values) == 2:
        return (values[0], values[1])
    raise argparse.ArgumentTypeError("expected one size or a lo,hi pair")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iasi",
        description="Arithmetic integer additive set-indexers: construct, verify, classify, transform.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="label a graph arithmetically")
    p.add_argument("--input", required=True, help="graph document (labels ignored)")
    p.add_argument("--d0", type=int, default=1, help="base common difference")
    p.add_argument("--sizes", type=_parse_sizes, default=(3, 3), help="label size or lo,hi range")
    p.add_argument("--policy", choices=_POLICIES, default=_DEFAULT_POLICY)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="labeled document to write")

    p = sub.add_parser("verify", help="check vertex and edge label injectivity")
    p.add_argument("--input", required=True)

    p = sub.add_parser("classify", help="full classification report")
    p.add_argument("--input", required=True)

    p = sub.add_parser("transform", help="apply a label-preserving transform")
    p.add_argument("--op", required=True, choices=tuple(_TRANSFORMS))
    p.add_argument(
        "--edge", nargs=2, metavar=("U", "V"), help=f"edge endpoints ({_ops_taking('edge')})"
    )
    p.add_argument("--vertex", help=f"vertex to reduce away ({_ops_taking('vertex')})")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("catalog", help="run the exhaustive small-graph checks")
    p.add_argument("--max-n", type=int, default=4, choices=range(MIN_CATALOG_N, MAX_CATALOG_N + 1))
    p.add_argument(
        "--policy",
        action="append",
        choices=_POLICIES,
        help=f"construction policy; repeat for several (default: {_DEFAULT_POLICY})",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--records", help="JSONL file for per-check records")
    p.add_argument(
        "--allow-large",
        action="store_true",
        help=f"required for --max-n {MAX_CATALOG_N} ({_LARGE_SWEEP})",
    )

    p = sub.add_parser("export-dot", help="write Graphviz DOT with label attributes")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    return parser


def _cmd_construct(args) -> int:
    graph = load_graph(args.input)
    params = ConstructionParams(
        base_difference=args.d0,
        label_size_range=args.sizes,
        multiplier_policy=args.policy,
        seed=args.seed,
    )
    result = construct_arbitrary(graph, params)
    report = classify_arithmetic(result.labeled_graph)
    metadata = {
        "tool_version": __version__,
        "seed": args.seed,
        "params": {
            "d0": args.d0,
            "sizes": list(args.sizes),
            "policy": args.policy,
        },
    }
    save_document(result.labeled_graph, args.output, metadata)
    _emit(
        {
            "command": "construct",
            "output": args.output,
            "is_iasi": report.is_iasi,
            "arithmetic": report.arithmetic,
            "fallback": result.fallback_applied,
            "capped": len(result.capped),
        }
    )
    return EXIT_PASS if report.is_iasi and report.arithmetic else EXIT_FAIL


def _cmd_verify(args) -> int:
    report = verify_iasi(load_document(args.input))
    _emit({"command": "verify", **_report_json(report)})
    return EXIT_PASS if report.is_iasi else EXIT_FAIL


def _cmd_classify(args) -> int:
    lg = load_document(args.input)
    report = classify_arithmetic(lg)
    _emit(
        {
            "command": "classify",
            **_report_json(report),
            "per_edge": _report_json(classify_edges(lg)),
        }
    )
    return EXIT_PASS if report.is_iasi else EXIT_FAIL


def _cmd_transform(args) -> int:
    lg = load_document(args.input)
    transform, attr, flag = _TRANSFORMS[args.op]
    extra = () if attr is None else (getattr(args, attr),)
    if None in extra:
        print(f"error: --op {args.op} requires {flag}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out = transform(lg, *extra)
    except LabelCollisionError as exc:
        _emit(
            {
                "command": "transform",
                "op": args.op,
                "error": "collision",
                "collision": exc.witness.to_dict(),
            }
        )
        return EXIT_FAIL
    save_document(out, args.output, {"tool_version": __version__, "transform": args.op})
    _emit({"command": "transform", "op": args.op, "output": args.output})
    return EXIT_PASS


def _cmd_catalog(args) -> int:
    if args.max_n >= MAX_CATALOG_N and not args.allow_large:
        print(
            f"error: --max-n {MAX_CATALOG_N} sweeps {_LARGE_SWEEP}; pass --allow-large",
            file=sys.stderr,
        )
        return EXIT_USAGE
    policies = tuple(args.policy or (_DEFAULT_POLICY,))
    summary = run_catalog_checks(
        args.max_n, policies=policies, seed=args.seed, records_path=args.records
    )
    if args.records:
        summary["records_file"] = args.records
    _emit({"command": "catalog", **summary})
    bad = summary["outcomes"]["fail"] + summary["outcomes"]["discrepancy"]
    return EXIT_FAIL if bad else EXIT_PASS


def _cmd_export_dot(args) -> int:
    lg = load_document(args.input)
    export_dot(lg, args.output)
    _emit({"command": "export-dot", "output": args.output})
    return EXIT_PASS


_HANDLERS = {
    "construct": _cmd_construct,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "transform": _cmd_transform,
    "catalog": _cmd_catalog,
    "export-dot": _cmd_export_dot,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (OSError, IasiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_CRASH


if __name__ == "__main__":
    sys.exit(main())
