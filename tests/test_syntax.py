"""Every Python file of the package, its tests and the benchmark parses as
Python 3.10, the oldest version ``pyproject.toml`` admits, and names none of
the standard-library modules, attributes and builtins that 3.10 lacks.

The grammar check is ``ast.parse`` with ``feature_version``. The names are
matched against ``NEWER_STDLIB``, a deny-list, so an API newer than 3.10
that the list leaves out still passes here, and only a run on 3.10 finds it.

The package imports nothing but the standard library (``sys.stdlib_module_names``)
and the dependencies ``pyproject.toml`` declares, and the tests add only the
package itself, ``conftest`` and the ``test`` extra: a module that happens to
be installed where the suite runs would pass a local run and break a clean
install.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
SOURCES = sorted(p for folder in ("src", "tests", "perfbench") for p in (ROOT / folder).rglob("*.py"))
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")


def declared(key: str) -> set[str]:
    """The distribution names in ``pyproject.toml``'s array ``key = [...]``;
    each declared distribution here imports under its own name."""
    block = re.search(rf"^{key} = \[(.*?)\]", PYPROJECT, re.MULTILINE | re.DOTALL).group(1)
    return set(re.findall(r'"([A-Za-z0-9_.-]+)', block))


STDLIB = set(sys.stdlib_module_names)
IMPORTABLE = {
    "src": STDLIB | declared("dependencies"),
    "tests": STDLIB | declared("dependencies") | declared("test") | {"ciph", "conftest"},
}

# Standard-library names added after 3.10: a whole module maps to None, a
# module's attributes to the set of new ones. NEWER_BUILTINS are new builtins.
NEWER_STDLIB = {
    "tomllib": None,  # 3.11
    "wsgiref.types": None,  # 3.11
    "typing": {
        "Self", "LiteralString", "Never", "assert_never", "assert_type", "reveal_type",
        "Required", "NotRequired", "TypeVarTuple", "Unpack", "dataclass_transform",
        "get_overloads", "clear_overloads",  # 3.11
        "override", "TypeAliasType",  # 3.12
        "TypeIs", "ReadOnly", "NoDefault", "get_protocol_members", "is_protocol",  # 3.13
    },
    "enum": {
        "StrEnum", "ReprEnum", "EnumCheck", "FlagBoundary", "verify", "member",
        "nonmember", "global_enum", "property", "show_flag_values",  # 3.11
    },
    "datetime": {"UTC"},  # 3.11
    "math": {"cbrt", "exp2"},  # 3.11
    "contextlib": {"chdir"},  # 3.11
    "operator": {"call"},  # 3.11
    "hashlib": {"file_digest"},  # 3.11
    "asyncio": {"TaskGroup", "Runner", "timeout", "timeout_at", "Timeout", "Barrier"},  # 3.11
    "logging": {"getLevelNamesMapping"},  # 3.11
    "itertools": {"batched"},  # 3.12
    "warnings": {"deprecated"},  # 3.13
    "copy": {"replace"},  # 3.13
}
NEWER_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}  # 3.11


def newer_stdlib_names(source: str) -> list[str]:
    """The names of ``NEWER_STDLIB`` and ``NEWER_BUILTINS`` that ``source``
    imports or reads, through ``import m [as a]`` then ``a.name``, or
    ``from m import name``."""
    tree = ast.parse(source)
    modules = {}  # local name -> imported module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in NEWER_STDLIB and NEWER_STDLIB[alias.name] is None:
                    found.append(alias.name)
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in NEWER_STDLIB:
            new = NEWER_STDLIB[node.module]
            found += [f"{node.module}.{a.name}" for a in node.names if new is None or a.name in new]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = modules.get(node.value.id)
            if node.attr in (NEWER_STDLIB.get(module) or ()):
                found.append(f"{module}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append(node.id)
    return found


def test_every_tree_has_sources():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_grammar_is_refused():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"  # exception groups, 3.11
    ast.parse(newer)
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=OLDEST)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_uses_no_newer_stdlib_name(path):
    assert newer_stdlib_names(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("snippet, names", [
    ("import tomllib\n", ["tomllib"]),
    ("from typing import Any, Self\n", ["typing.Self"]),
    ("import enum\nclass Kind(enum.StrEnum):\n    A = 'a'\n", ["enum.StrEnum"]),
    ("import datetime as dt\nnow = dt.datetime.now(dt.UTC)\n", ["datetime.UTC"]),
    ("try:\n    pass\nexcept ExceptionGroup:\n    pass\n", ["ExceptionGroup"]),
    ("import math\nx = math.cbrt(8.0) + math.sqrt(4.0)\n", ["math.cbrt"]),
    ("from contextlib import chdir\n", ["contextlib.chdir"]),
    ("import math\nimport typing\nx: typing.Any = math.sqrt(2.0)\n", []),
])
def test_newer_stdlib_names_are_flagged(snippet, names):
    assert newer_stdlib_names(snippet) == names


def foreign_imports(source: str, allowed: set[str]) -> list[str]:
    """The top-level modules that ``source`` imports absolutely and
    ``allowed`` lacks, in the order of the AST walk."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [name.split(".")[0] for name in names if name.split(".")[0] not in allowed]
    return found


def test_declared_dependencies():
    assert declared("dependencies") == {"numpy"}
    assert declared("test") == {"pytest", "hypothesis"}


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.relative_to(ROOT).parts[0] in IMPORTABLE],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_imports_only_declared_modules(path):
    allowed = IMPORTABLE[path.relative_to(ROOT).parts[0]]
    assert foreign_imports(path.read_text(encoding="utf-8"), allowed) == []


@pytest.mark.parametrize("snippet, folder, names", [
    ("import scipy.linalg\n", "src", ["scipy"]),
    ("from scipy import linalg\n", "src", ["scipy"]),
    ("import math, pytest\n", "src", ["pytest"]),
    ("from . import brackets\nfrom .tensor import Tensor4\nimport numpy as np\n", "src", []),
    ("import pytest\nfrom hypothesis import given\nfrom ciph import Tensor4\n", "tests", []),
    ("def f():\n    import scipy.sparse as sp\n", "tests", ["scipy"]),
])
def test_foreign_imports_are_flagged(snippet, folder, names):
    assert foreign_imports(snippet, IMPORTABLE[folder]) == names
