"""Only errors.py opens files.

Every read goes through ``errors._read_bytes`` and every write through
``errors._write_bytes``, so the encoding rule and the mapping of I/O failures
to DataError live in one place. This test parses the package and fails on a
file-opening call, or an OSError handler, anywhere else.
"""

import ast
from pathlib import Path

import kpshap

PACKAGE = Path(kpshap.__file__).resolve().parent
OPENING_CALLS = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}
OS_ERRORS = {"OSError", "IOError", "EnvironmentError", "FileNotFoundError", "PermissionError"}

# (module, function) pairs allowed to open files or catch OSError themselves
OPENS_FILES = {
    ("manifest.py", "sha256_file"),  # streams in chunks, never the whole file
    ("skeleton.py", "default_schema"),  # a package resource, not a user file
}
CATCHES_OSERROR = {
    ("manifest.py", "sha256_file"),
    ("cli.py", "cmd_gkr_apply"),  # creating the output directory
    ("oracle.py", "__init__"),  # the oracle child's process and pipes, not files
    ("oracle.py", "_exchange"),
}


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _caught_names(handler: ast.ExceptHandler):
    kinds = handler.type
    nodes = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return {n.id for n in nodes if isinstance(n, ast.Name)}


def _findings(module: Path):
    """(function, what, line) for each file-opening call and OSError handler."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _called_name(child) in OPENING_CALLS:
                found.append((function, f"call to {_called_name(child)}", child.lineno))
            if isinstance(child, ast.ExceptHandler) and (
                child.type is None or _caught_names(child) & OS_ERRORS
            ):
                found.append((function, "OSError handler", child.lineno))
            visit(child, function)

    visit(ast.parse(module.read_text(encoding="utf-8")), None)
    return found


def test_only_errors_py_opens_files():
    modules = sorted(PACKAGE.glob("*.py"))
    assert any(m.name == "errors.py" for m in modules)
    stray = []
    for module in modules:
        if module.name == "errors.py":
            continue
        for function, what, line in _findings(module):
            allowed = CATCHES_OSERROR if what == "OSError handler" else OPENS_FILES
            if (module.name, function) not in allowed:
                stray.append(f"{module.name}:{line} {what} in {function}")
    assert not stray, "use errors._read_bytes/_read_text/_write_bytes instead: " + "; ".join(stray)
