"""Every Python file of the library, its tests and the benchmark parses under
the Python 3.10 grammar, the oldest in the CI matrix, so 3.11-only syntax
such as ``except*`` fails here on a newer interpreter too. ``ast``'s
``feature_version`` is best effort: it does not reject every newer form
(a starred subscript ``x[*a]`` still parses).

The same files must not use the standard-library names added after 3.10
that are listed in ``NEWER``: a module (``tomllib``), a module attribute
(``typing.Self``, ``datetime.UTC``) or a builtin (``ExceptionGroup``). An
AST walk finds them in imports, in attribute reads on a name bound by
``import``, and in plain name reads. It only reads the files, so a name
reached another way (``getattr``, a re-export) still passes.

Nor may they call ``.to_bytes`` or ``.from_bytes`` without the arguments
that 3.10 requires: ``int.to_bytes`` takes ``length`` and ``byteorder``,
and ``int.from_bytes`` takes ``byteorder``; their defaults are new in
3.11. A call whose arguments are unpacked (``*args``, ``**kwargs``) is not
judged.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for part in ("src/fourblocks", "tests", "perfbench")
    for path in (ROOT / part).rglob("*.py")
)

# module -> its attributes added after 3.10; None marks a whole new module
NEWER = {
    "tomllib": None,
    "typing": {"Self", "LiteralString", "Never", "assert_never", "reveal_type",
               "Required", "NotRequired"},
    "enum": {"StrEnum"},
    "datetime": {"UTC"},
    "asyncio": {"TaskGroup", "timeout"},
    "contextlib": {"chdir"},
    "hashlib": {"file_digest"},
    "operator": {"call"},
    "math": {"exp2", "cbrt"},
}
NEWER_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}
# method -> its parameters that are required before 3.11, in order
REQUIRED_ARGS = {"to_bytes": ("length", "byteorder"), "from_bytes": ("bytes", "byteorder")}


def newer_names(source: str) -> list[str]:
    """Each use of a listed name in source, as "line: name"."""
    found = []
    modules = {}  # local name bound by ``import`` -> module
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in NEWER:
                    if NEWER[alias.name] is None:
                        found.append(f"{node.lineno}: {alias.name}")
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module in NEWER:
            attrs = NEWER[node.module]
            for alias in node.names:
                if attrs is None or alias.name in attrs:
                    found.append(f"{node.lineno}: {node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.attr in NEWER[modules[node.value.id]]):
            found.append(f"{node.lineno}: {modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append(f"{node.lineno}: {node.id}")
    return sorted(found)


def short_byte_calls(source: str) -> list[str]:
    """Each ``.to_bytes`` or ``.from_bytes`` call in source that leaves out
    an argument 3.10 requires, as "line: method without name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in REQUIRED_ARGS):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords):
            continue
        required = REQUIRED_ARGS[node.func.attr]
        given = {kw.arg for kw in node.keywords}
        for name in required[len(node.args):]:
            if name not in given:
                found.append(f"{node.lineno}: {node.func.attr} without {name}")
    return sorted(found)


def test_files_are_found():
    assert {path.relative_to(ROOT).parts[0] for path in FILES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_the_python_3_10_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_uses_no_standard_library_name_added_after_3_10(path):
    assert newer_names(path.read_text()) == []


def test_every_listed_name_is_found():
    source = "\n".join(
        ["import tomllib", "from tomllib import loads", "import math as m", "m.cbrt(8)"]
        + [f"import {module}\n{module}.{attr}" for module, attrs in NEWER.items()
           if attrs for attr in sorted(attrs)]
        + [f"from {module} import {attr}" for module, attrs in NEWER.items()
           if attrs for attr in sorted(attrs)]
        + [f"raise {name}('', [])" for name in sorted(NEWER_BUILTINS)]
    )
    found = {entry.split(": ", 1)[1] for entry in newer_names(source)}
    listed = {f"{module}.{attr}" for module, attrs in NEWER.items() if attrs for attr in attrs}
    assert found == listed | NEWER_BUILTINS | {"tomllib", "tomllib.loads"}
    # a local name that merely shares an attribute's spelling is not flagged
    assert newer_names("import math\nclass C:\n    cbrt = 1\nC.cbrt\nmath.sqrt(4)") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_byte_conversions_pass_the_arguments_3_10_requires(path):
    assert short_byte_calls(path.read_text()) == []


def test_every_short_byte_call_is_found():
    source = "\n".join([
        "x.to_bytes()",
        "x.to_bytes(4)",
        "x.to_bytes(length=4)",
        "x.to_bytes(byteorder='big')",
        "int.from_bytes(b)",
        "int.from_bytes(bytes=b)",
        "int.from_bytes(b, signed=True)",
    ])
    assert short_byte_calls(source) == [
        "1: to_bytes without byteorder",
        "1: to_bytes without length",
        "2: to_bytes without byteorder",
        "3: to_bytes without byteorder",
        "4: to_bytes without length",
        "5: from_bytes without byteorder",
        "6: from_bytes without byteorder",
        "7: from_bytes without byteorder",
    ]
    # full calls, positional or by keyword, and unpacked arguments pass
    assert short_byte_calls("\n".join([
        "x.to_bytes(4, 'big')",
        "x.to_bytes(4, byteorder='little', signed=True)",
        "x.to_bytes(byteorder='big', length=4)",
        "int.from_bytes(b, 'little')",
        "int.from_bytes(bytes=b, byteorder='big')",
        "x.to_bytes(*args)",
        "int.from_bytes(b, **kw)",
        "to_bytes()",
    ])) == []
