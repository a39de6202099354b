import ast
import pathlib
import warnings

import fastwave


def test_modules_compile_without_warnings():
    # e.g. an invalid escape sequence in a docstring warns at compile time
    for path in sorted(pathlib.Path(fastwave.__file__).parent.rglob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


# Kept without a caller: ROADMAP direction 3 wires both into `kam_iterate`.
UNCALLED_OK = {"melnikov_step_test", "nash_moser_check"}


def _referenced_names(path: pathlib.Path, strings: bool) -> set:
    """Names a module refers to, each top-level definition's own name excluded."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        own = {node.name} if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found = {sub.id}
            elif isinstance(sub, ast.Attribute):
                found = {sub.attr}
            elif isinstance(sub, ast.ImportFrom):
                found = {alias.name for alias in sub.names}
            elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                found = {sub.value}
            else:
                continue
            names |= found - own
    return names


def test_every_public_name_has_a_caller():
    # a public top-level def or class of the package must be named somewhere
    # in the package or in perfbench/ outside its own definition; perfbench's
    # span tables name the functions they time by string, so its strings count
    src = pathlib.Path(fastwave.__file__).parent
    bench = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    modules = sorted(src.glob("*.py"))
    used = set().union(*(_referenced_names(p, False) for p in modules),
                       *(_referenced_names(p, True) for p in sorted(bench.glob("*.py"))))
    uncalled = [f"{p.stem}.{node.name}" for p in modules
                for node in ast.parse(p.read_text()).body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and node.name not in used | UNCALLED_OK]
    assert uncalled == []
