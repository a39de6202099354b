import ast
import collections
import pathlib
import warnings

import fastwave

SRC = pathlib.Path(fastwave.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {p.stem for p in SRC.glob("*.py")}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_modules_compile_without_warnings():
    # e.g. an invalid escape sequence in a docstring warns at compile time
    for path in sorted(SRC.rglob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


# Kept without a caller: ROADMAP direction 5 wires both into `kam_iterate`.
UNCALLED_OK = {"kam.melnikov_step_test", "kam.nash_moser_check"}


def _package_module(node: ast.ImportFrom, in_package: bool):
    """The fastwave module an import-from reads from: "m", "" (the package) or None."""
    if node.level == 1 and in_package:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "fastwave":
        return node.module.partition(".")[2]
    return None


class _Scan:
    """The references one file makes, resolved as far as the file itself allows.

    `imported` holds (module, name) for each `from .m import name` or
    `from fastwave.m import name`; `qualified` holds (module, attr) for each
    `alias.attr` whose alias is bound to `fastwave.m`; `names` counts bare
    names; `attrs` counts attribute names on a base that is not a module.
    """

    def __init__(self, path: pathlib.Path, in_package: bool):
        self.tree = ast.parse(path.read_text())
        aliases, self.module_names = {}, set()
        self.imported = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self.module_names.add(a.asname or a.name.split(".")[0])
                    head, _, stem = a.name.partition(".")
                    if a.asname and head == "fastwave" and stem in MODULES:
                        aliases[a.asname] = stem
            elif isinstance(node, ast.ImportFrom):
                mod = _package_module(node, in_package)
                for a in node.names:
                    if mod == "" and a.name in MODULES:
                        aliases[a.asname or a.name] = a.name
                        self.module_names.add(a.asname or a.name)
                    elif mod is not None:
                        self.imported.add((mod, a.name))
        self.qualified = {(aliases[n.value.id], n.attr) for n in ast.walk(self.tree)
                          if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                          and n.value.id in aliases}
        self.names, self.attrs = self.refs(self.tree)

    def refs(self, node: ast.AST) -> tuple:
        """(bare names, attribute names on a base that is not a module) under node."""
        names, attrs = collections.Counter(), collections.Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                root = sub.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in self.module_names):
                    attrs[sub.attr] += 1
        return names, attrs


def _uncalled() -> tuple:
    """(public names of the package without a caller, every public name)."""
    scans = {stem: _Scan(SRC / f"{stem}.py", True) for stem in sorted(MODULES)}
    bench = [_Scan(p, False) for p in sorted(BENCH.glob("*.py"))]
    everyone = list(scans.values()) + bench
    imported = set().union(*(s.imported | s.qualified for s in everyone))
    attrs = sum((s.attrs for s in everyone), collections.Counter())
    uncalled, public = [], set()
    for stem, scan in scans.items():
        for node in scan.tree.body:
            if not isinstance(node, DEFS) or node.name.startswith("_"):
                continue
            public.add(f"{stem}.{node.name}")
            # a top-level name is called by its bare name in its own module
            # (outside its own body), or through an import of its module
            own_names, _ = scan.refs(node)
            if (scan.names[node.name] <= own_names[node.name]
                    and (stem, node.name) not in imported):
                uncalled.append(f"{stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            # a method is called by its name as an attribute, outside its own
            # body, on a base that is not an imported module (np.sqrt is not
            # a call of Symbol.sqrt)
            for meth in node.body:
                if isinstance(meth, DEFS) and not meth.name.startswith("_"):
                    name = f"{stem}.{node.name}.{meth.name}"
                    public.add(name)
                    own = scan.refs(meth)[1][meth.name]
                    if attrs[meth.name] <= own:
                        uncalled.append(name)
    return uncalled, public


def test_every_public_name_has_a_caller():
    # every public top-level def or class of the package, and every public
    # method of a public class, must be called from the package or from
    # perfbench/; tests do not count
    uncalled, public = _uncalled()
    assert sorted(set(uncalled) - UNCALLED_OK) == []
    # an exemption goes stale when its name is gone or has gained a caller
    assert sorted(UNCALLED_OK - public) == []
    assert sorted(UNCALLED_OK - set(uncalled)) == []
