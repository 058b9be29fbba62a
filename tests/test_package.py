"""Package-wide properties of the source tree."""

import argparse
import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import iasi
from iasi.cli import _build_parser


def test_package_imports_only_stdlib_and_itself():
    sources = sorted(Path(iasi.__file__).parent.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "iasi" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}: {name}")
    assert outside == []


def test_package_exports_are_listed_in_each_submodule_all():
    """``iasi`` exports exactly the names in its submodules' ``__all__``."""
    init = Path(iasi.__file__)
    unlisted = []
    unexported = []
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
            continue
        exported = getattr(importlib.import_module(f"iasi.{node.module}"), "__all__", None)
        if exported is None:
            continue
        imported = [a.name for a in node.names]
        unlisted += [f"{node.module}.{name}" for name in imported if name not in exported]
        unexported += [f"{node.module}.{name}" for name in exported if name not in imported]
    assert unlisted == []
    assert unexported == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(Path(iasi.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = {
            name
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)
        }
        unused += [f"{path.name}: {name}" for name in imported if name not in used | exported]
    assert unused == []


def test_only_the_reference_module_defines_brute_force_references():
    """One copy of each shared brute-force reference, none under an old name."""
    old = {"_is_progression", "sumset_is_progression"}
    shared = {
        "assert_arithmetic",
        "brute_sumset",
        "corpus_style",
        "is_progression",
        "random_connected_graph",
        "reference_catalog",
        "reference_checks",
        "reference_document",
        "reference_dot",
        "reference_dot_id",
        "reference_set",
    }
    defined = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id
            else:
                continue
            if name in shared | old:
                defined.append((path.name, name))
    assert sorted(defined) == [("reference.py", name) for name in sorted(shared)]


def test_one_owner_of_the_progression_overflow_rule():
    """A new progression's 64-bit rule on its last term is written once."""
    message = "progression exceeds the 64-bit range"
    sources = sorted(Path(iasi.__file__).parent.glob("*.py"))
    owners = [p.name for p in sources for _ in range(p.read_text(encoding="utf-8").count(message))]
    assert owners == ["sets.py"]


def test_readme_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    shown = re.findall(r"^(\S.*?)\s+# (.+)$", code, re.M)
    assert [want for _, want in shown] == ["IntegerSet({0, 1, 2, 3, 4, 5, 6})", "3"]
    for expr, want in shown:
        assert repr(eval(expr, namespace)) == want, expr


def test_python_dash_m_runs_the_cli(tmp_path):
    """README's ``python3 -m iasi`` entry point, run away from the checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(iasi.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "iasi", "--version"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "iasi 0.1.0\n", "")


# backticked README names that are not library names: a builtin exception,
# a key of `iasi classify`'s output and a parameter of run_catalog_checks
README_NON_LIBRARY_NAMES = {"ValueError", "per_edge", "records_path"}


def test_readme_names_only_what_exists():
    """Every snake_case or CamelCase name in README's inline code is defined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", readme, flags=re.S))
    names = {
        token
        for span in spans
        for token in re.findall(r"[A-Za-z_]\w*", span)
        if "_" in token
        or (re.search("[a-z]", token) and sum(c.isupper() for c in token) >= 2)
    }
    modules = [iasi] + [
        importlib.import_module(f"iasi.{info.name}")
        for info in pkgutil.iter_modules(iasi.__path__)
        if info.name != "__main__"  # importing it runs the CLI
    ]
    defined = set()
    for module in modules:
        for name, value in vars(module).items():
            defined.add(name)
            if inspect.isclass(value) and value.__module__.startswith("iasi"):
                defined |= set(dir(value)) | set(getattr(value, "__dataclass_fields__", ()))
    assert len(names) > 30
    assert sorted(names - defined - README_NON_LIBRARY_NAMES) == []
    assert README_NON_LIBRARY_NAMES <= names


def _readme_cli_section() -> str:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.search(r"^## CLI\n(.*?)^## ", readme, re.S | re.M).group(1)


def test_readme_cli_commands_parse():
    block = re.search(r"```sh\n(.*?)```", _readme_cli_section(), re.S).group(1)
    commands = [
        line.split()
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("iasi ")
    ]
    assert len(commands) >= 6
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit as exc:
            raise AssertionError(f"README command does not parse: {' '.join(argv)}") from exc


def test_readme_cli_options_exist():
    parser = _build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = set(parser._option_string_actions)
    for sub in subcommands.choices.values():
        options |= set(sub._option_string_actions)
    shown = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", _readme_cli_section()))
    assert shown and shown <= options, sorted(shown - options)
