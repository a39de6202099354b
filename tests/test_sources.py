import ast
import collections
import pathlib
import warnings

import fastwave

SRC = pathlib.Path(fastwave.__file__).parent
BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = {p.stem for p in SRC.glob("*.py")}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# (module, name) of every top-level class of the package
CLASSES = {(p.stem, node.name) for p in SRC.glob("*.py")
           for node in ast.parse(p.read_text()).body if isinstance(node, ast.ClassDef)}


def test_modules_compile_without_warnings():
    # e.g. an invalid escape sequence in a docstring warns at compile time
    for path in sorted(SRC.rglob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")


def _numeric(node: ast.AST) -> bool:
    """Is the expression built of number literals and arithmetic alone?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _numeric(node.operand)
    if isinstance(node, ast.BinOp):
        return _numeric(node.left) and _numeric(node.right)
    return False


def test_every_numeric_constant_states_its_reason():
    # each module-level numeric constant of the package, or each run of them
    # on consecutive lines, sits right under a comment that gives its reason;
    # a constant whose comment calls it unsourced has none and must go
    missing = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, prev_end = text.splitlines(), None
        for node in ast.parse(text).body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if value is None or not _numeric(value):
                prev_end = None
                continue
            if prev_end != node.lineno - 1:
                # the first constant of a run: read the comment lines above it
                i, comment = node.lineno - 2, []
                while i >= 0 and lines[i].lstrip().startswith("#"):
                    comment.append(lines[i])
                    i -= 1
                if not comment or any("unsourced" in c.lower() for c in comment):
                    missing.append(f"{path.stem}:{node.lineno}")
            prev_end = node.end_lineno
    assert missing == []


def test_every_import_is_used():
    # every name an import binds in a package module (at any depth) is read
    # somewhere in that module; `from __future__` imports bind nothing
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.stem}:{node.lineno}:{name}" for name in bound
                       if name not in read]
    assert unused == []


# Kept without a caller: ROADMAP direction 5 wires the step scan into
# `kam_iterate`.  It is an array read of the homological solve's divisor
# table, about 0.2 ms per call on the J=12, L=4 toy state against 10 ms for
# the loop it replaced.
UNCALLED_OK = {"kam.melnikov_step_test"}


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
    `from fastwave.m import name`, and `bound` maps the local name of each to
    it; `qualified` holds (module, attr) for each `alias.attr` whose alias is
    bound to `fastwave.m`; `names` counts bare names; `class_attrs` counts
    (module, class, attr) for each `C.attr` whose base C names a package
    class; `attrs` counts the other attribute names on a base that is not a
    module.
    """

    def __init__(self, path: pathlib.Path, in_package: bool):
        self.tree = ast.parse(path.read_text())
        self.stem = path.stem if in_package else None
        self.aliases, self.module_names = {}, set()
        self.imported, self.bound = set(), {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self.module_names.add(a.asname or a.name.split(".")[0])
                    head, _, stem = a.name.partition(".")
                    if a.asname and head == "fastwave" and stem in MODULES:
                        self.aliases[a.asname] = stem
            elif isinstance(node, ast.ImportFrom):
                mod = _package_module(node, in_package)
                for a in node.names:
                    if mod == "" and a.name in MODULES:
                        self.aliases[a.asname or a.name] = a.name
                        self.module_names.add(a.asname or a.name)
                    elif mod is not None:
                        self.imported.add((mod, a.name))
                        self.bound[a.asname or a.name] = (mod, a.name)
        self.qualified = {(self.aliases[n.value.id], n.attr) for n in ast.walk(self.tree)
                          if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                          and n.value.id in self.aliases}
        self.names, self.attrs, self.class_attrs = self.refs(self.tree)

    def owner(self, base: ast.AST):
        """(module, class) when an attribute's base names a package class, else None.

        The base is a bare name, imported from a package module or defined in
        this one, or `alias.C` with `alias` bound to a package module.
        """
        if isinstance(base, ast.Name):
            ref = self.bound.get(base.id, (self.stem, base.id))
        elif (isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name)
              and base.value.id in self.aliases):
            ref = (self.aliases[base.value.id], base.attr)
        else:
            return None
        return ref if ref in CLASSES else None

    def refs(self, node: ast.AST) -> tuple:
        """(names, attrs, class_attrs) under node, counted as for the whole file."""
        names, attrs = collections.Counter(), collections.Counter()
        class_attrs = collections.Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                cls = self.owner(sub.value)
                if cls is not None:
                    class_attrs[cls + (sub.attr,)] += 1
                    continue
                root = sub.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if not (isinstance(root, ast.Name) and root.id in self.module_names):
                    attrs[sub.attr] += 1
        return names, attrs, class_attrs


def _uncalled() -> tuple:
    """(public names of the package without a caller, every public name)."""
    scans = {stem: _Scan(SRC / f"{stem}.py", True) for stem in sorted(MODULES)}
    bench = [_Scan(p, False) for p in sorted(BENCH.glob("*.py"))]
    everyone = list(scans.values()) + bench
    imported = set().union(*(s.imported | s.qualified for s in everyone))
    attrs = sum((s.attrs for s in everyone), collections.Counter())
    class_attrs = sum((s.class_attrs for s in everyone), collections.Counter())
    uncalled, public = [], set()
    for stem, scan in scans.items():
        for node in scan.tree.body:
            if not isinstance(node, DEFS) or node.name.startswith("_"):
                continue
            public.add(f"{stem}.{node.name}")
            # a top-level name is called by its bare name in its own module
            # (outside its own body), or through an import of its module
            own_names = scan.refs(node)[0]
            if (scan.names[node.name] <= own_names[node.name]
                    and (stem, node.name) not in imported):
                uncalled.append(f"{stem}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            # a method is called, outside its own body, by its name as an
            # attribute on its own class (TorusFunction.zero is not a call of
            # any other class's zero), or on a base that is neither an imported
            # module (np.sqrt is not a call of Symbol.sqrt) nor a package class
            for meth in node.body:
                if isinstance(meth, DEFS) and not meth.name.startswith("_"):
                    name = f"{stem}.{node.name}.{meth.name}"
                    public.add(name)
                    _, own, own_cls = scan.refs(meth)
                    qual = (stem, node.name, meth.name)
                    if (attrs[meth.name] <= own[meth.name]
                            and class_attrs[qual] <= own_cls[qual]):
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


# -- options ---------------------------------------------------------------------

# Defaulted parameters that no call in src/ or perfbench/ sets to another value
# than the default, kept because a test varies them as a reference or an input
# check, because they are the entry point's own, or because the benchmark
# passes them.
OPTION_OK = {
    "cli.main.argv": "the entry point's argument list; None reads sys.argv",
    "craig_wayne.tilde_C.a_max": "test_tilde_C_stable checks that a longer "
                                 "sup range leaves tilde_C unchanged",
    "craig_wayne.tilde_C.k_max": "test_tilde_C_stable checks that a longer "
                                 "sum range leaves tilde_C unchanged",
    "kam.measured_chi.p_lo": "tests fit the rate on a chosen window of steps",
    "kam.measured_chi.p_hi": "tests fit the rate on a chosen window of steps",
    "kam.melnikov_step_test.Nval": "tests scan at a chosen mode radius; the "
                                   "array scan (about 0.2 ms on the J=12, L=4 "
                                   "toy state) waits for its wiring into kam_iterate",
    "magnus.magnus_transform.with_symbols": "perfbench passes it; goes with "
                                            "direction 1b",
    "melnikov.omega_infty_test.n_max_cap": "tests cap the block range to compare "
                                           "the pruned scan with a brute-force one",
    "melnikov.omega_infty_test.collect_census": "tests compare the full offender "
                                                "census with a brute-force scan",
    "psdo.Cutoff.sharpness": "tests check that every admissible cutoff gives the "
                             "same calculus",
    "psdo.entry_decay_exponent.j_lo": "tests fit the decay on a chosen mode window",
    "psdo.entry_decay_exponent.j_hi": "tests fit the decay on a chosen mode window",
    "schrodinger.eigensolve_blocks.require_positive": "tests solve spectra that "
                                                      "are not positive",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    decos = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decos)


def _defaulted(node, bound: bool) -> list:
    """(name, positional index or None, default expression) of each defaulted
    parameter of a def.

    A bound method's first parameter takes no positional index; a dataclass's
    parameters are its init fields, in order.
    """
    if isinstance(node, ast.ClassDef):
        out, i = [], 0
        for st in node.body:
            if not (isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)):
                continue
            v = st.value
            if isinstance(v, ast.Call) and any(k.arg == "init" for k in v.keywords):
                continue                  # field(init=False) is not a parameter
            if v is not None:
                out.append((st.target.id, i, v))
            i += 1
        return out
    a = node.args
    pos = a.posonlyargs + a.args
    shift = 1 if bound else 0
    first = len(pos) - len(a.defaults)
    out = [(p.arg, i - shift, a.defaults[i - first])
           for i, p in enumerate(pos) if i >= first]
    return out + [(p.arg, None, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]


def _is_default(arg: ast.AST, default: ast.AST) -> bool:
    """Is the argument a literal equal to the literal default?"""
    try:
        return ast.literal_eval(arg) == ast.literal_eval(default)
    except (ValueError, TypeError):
        return False


def _sets(call: ast.Call, name: str, index, default) -> bool:
    """Does the call pass the parameter a value other than a literal equal to its
    default (or may it, through * or ** arguments)?"""
    for k in call.keywords:
        if k.arg is None:
            return True
        if k.arg == name:
            return not _is_default(k.value, default)
    if index is None:
        return False
    if any(isinstance(x, ast.Starred) for x in call.args):
        return True
    return len(call.args) > index and not _is_default(call.args[index], default)


def _overrides(call: ast.Call, name: str, index) -> bool:
    """Does the call surely pass the parameter, by name or by a plain position?"""
    if any(k.arg == name for k in call.keywords):
        return True
    plain = 0
    for x in call.args:
        if isinstance(x, ast.Starred):
            break
        plain += 1
    return index is not None and plain > index


def _unset_options() -> tuple:
    """(defaulted parameters that no call sets, defaulted parameters that every
    call surely sets, every defaulted parameter).

    A parameter is named "module.function.param", "module.Class.method.param"
    or, for a constructor, "module.Class.param".  A call reaches a function
    or constructor by the same per-module resolution as the caller guard
    above (and `cls(...)` inside its class); it reaches a method by its
    name as an attribute on a base that is not a module, or, on a package
    class, that class's method only.  A call inside the callee's own body
    does not count.
    """
    scans = {stem: _Scan(SRC / f"{stem}.py", True) for stem in sorted(MODULES)}
    files = list(scans.values()) + [_Scan(p, False) for p in sorted(BENCH.glob("*.py"))]
    # callee key -> [(option prefix, defaulted params, def node)]; the key is
    # (module, name) for a function or constructor, and for a method both the
    # bare name and (module, class, name)
    callees = collections.defaultdict(list)
    for stem, scan in scans.items():
        for node in scan.tree.body:
            if not isinstance(node, DEFS) or node.name.startswith("_"):
                continue
            prefix = f"{stem}.{node.name}"
            if isinstance(node, ast.FunctionDef):
                callees[(stem, node.name)].append((prefix, _defaulted(node, False), node))
                continue
            if _is_dataclass(node):
                # the generated __init__ has no body: every call counts
                callees[(stem, node.name)].append((prefix, _defaulted(node, False), None))
            for meth in node.body:
                if not isinstance(meth, ast.FunctionDef):
                    continue
                decos = {d.id for d in meth.decorator_list if isinstance(d, ast.Name)}
                if meth.name == "__init__":
                    callees[(stem, node.name)].append((prefix, _defaulted(meth, True), meth))
                elif not meth.name.startswith("_") and "property" not in decos:
                    entry = (f"{prefix}.{meth.name}",
                             _defaulted(meth, "staticmethod" not in decos), meth)
                    callees[meth.name].append(entry)
                    callees[(stem, node.name, meth.name)].append(entry)
    options = {f"{prefix}.{name}": False for targets in callees.values()
               for prefix, params, _ in targets for name, *_ in params}
    # the options some call leaves at their default, and those called at all
    kept, called = set(), set()

    def key(scan, func, cls):
        """The callee key of a call's func in this file, or None."""
        if isinstance(func, ast.Name):
            if func.id == "cls" and cls is not None:
                return scan.stem, cls
            if scan.stem is not None and (scan.stem, func.id) in callees:
                return scan.stem, func.id
            return scan.bound.get(func.id)
        if isinstance(func, ast.Attribute):
            owner = scan.owner(func.value)
            if owner is not None:
                return owner + (func.attr,)
            root = func.value
            if isinstance(root, ast.Name) and root.id in scan.aliases:
                return scan.aliases[root.id], func.attr
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in scan.module_names):
                return func.attr
        return None

    def visit(scan, node, enclosing, cls):
        if isinstance(node, ast.Call):
            for prefix, params, callee in callees.get(key(scan, node.func, cls), []):
                if callee not in enclosing:
                    for name, index, default in params:
                        option = f"{prefix}.{name}"
                        options[option] |= _sets(node, name, index, default)
                        called.add(option)
                        if not _overrides(node, name, index):
                            kept.add(option)
        if isinstance(node, DEFS):
            enclosing = enclosing + (node,)
            if isinstance(node, ast.ClassDef):
                cls = node.name
        for child in ast.iter_child_nodes(node):
            visit(scan, child, enclosing, cls)

    for scan in files:
        visit(scan, scan.tree, (), None)
    return (sorted(k for k, v in options.items() if not v), sorted(called - kept),
            set(options))


def test_every_option_is_set_by_a_caller():
    # every defaulted parameter of a public function, method or constructor of
    # the package must be set by some call in the package or in perfbench/ to
    # something other than a literal equal to its default; tests do not
    # count, and a default that every caller keeps belongs in the function body
    unset, _, options = _unset_options()
    assert [o for o in unset if o not in OPTION_OK] == []
    # an exemption goes stale when its parameter is gone or has gained a caller
    assert sorted(set(OPTION_OK) - options) == []
    assert sorted(set(OPTION_OK) - set(unset)) == []


# Defaults that every call in src/ and perfbench/ overrides, kept because a
# test relies on them.
DEFAULT_OK = {
    "kam.kam_step.track_norms": "test_divergent_lie_series_reported takes bare "
                                "steps to check the Lie-series divergence guard",
    "melnikov.estimate_measure.nu": "test_divergent_lie_series_reported runs a "
                                    "bare measure over a diverging step",
    "melnikov.estimate_measure.L_check": "test_divergent_lie_series_reported runs "
                                         "a bare measure over a diverging step",
}


def test_every_default_is_used_by_a_caller():
    # a default that every call in the package and in perfbench/ overrides,
    # by name or by a plain position, is never used there: the parameter
    # belongs without it (tests do not count; a call through * or ** may
    # keep the default)
    _, overridden, _ = _unset_options()
    assert [o for o in overridden if o not in DEFAULT_OK] == []
    # an exemption goes stale when its default is gone or a caller keeps it
    assert sorted(set(DEFAULT_OK) - set(overridden)) == []
