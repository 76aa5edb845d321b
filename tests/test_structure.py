"""Structure of the package: one place reads a profile's form, only core
makes mpfs, nothing sets mpmath's global precision, and numpy loads only
with the Monte Carlo path; no whole-ball power run reaches the sphere sum."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import padic_ialpha
from padic_ialpha import radial
from padic_ialpha.radial import (
    Indicator, LinearCombo, LogPower, Monomial, PowerRun, PowerTail, Table, _Operator,
)

PROFILE_CLASSES = {"Monomial", "LogPower", "Indicator", "Table", "LinearCombo"}


def _class_names(node) -> set:
    """Names in the second argument of isinstance: a name, attribute or tuple."""
    if isinstance(node, ast.Tuple):
        return set().union(*(_class_names(e) for e in node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def profile_type_checks(source: str):
    """(enclosing function, classes) of every isinstance check on a profile class."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            hit = _class_names(node.args[1]) & PROFILE_CLASSES
            if hit:
                found.append((function, sorted(hit)))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_only_sphere_segments_reads_the_profile_type():
    src = Path(padic_ialpha.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    stray = {}
    for path in files:
        for function, classes in profile_type_checks(path.read_text()):
            if function != "sphere_segments":
                stray.setdefault(path.name, []).append((function, classes))
    assert stray == {}


def test_scan_sees_every_form_of_check():
    source = (
        "def f(x):\n"
        "    return isinstance(x, (int, radial.Table)) or isinstance(x, Monomial)\n"
        "def sphere_segments(x):\n"
        "    return isinstance(x, LinearCombo)\n"
        "isinstance(y, LogPower)\n"
    )
    assert profile_type_checks(source) == [
        ("f", ["Table"]), ("f", ["Monomial"]),
        ("sphere_segments", ["LinearCombo"]), (None, ["LogPower"]),
    ]


def test_import_does_not_load_numpy():
    src = Path(padic_ialpha.__file__).resolve().parent.parent
    probe = 'import sys, padic_ialpha, padic_ialpha.cli; print("numpy" in sys.modules)'
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


def imported_names(source: str) -> set:
    """Every name bound by an import statement in source."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_operator_module_does_not_evaluate_spheres_afresh():
    # ialpha reads a profile through its runs, built once per value or
    # estimate, and f(p**N) through radial's point read of them
    src = Path(padic_ialpha.__file__).parent / "ialpha.py"
    names = imported_names(src.read_text())
    assert {"sphere_segments", "_at"} <= names
    assert "eval_sphere" not in names


KERNEL_CALLS = {"power", "expm1", "log", "ln"}


def mpmath_kernel_calls(source: str) -> list:
    """(line, name) of every call mp.power, mp.expm1, mp.log or mp.ln in source."""
    return [
        (node.lineno, node.func.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in KERNEL_CALLS
        and isinstance(node.func.value, (ast.Name, ast.Attribute))
        and (getattr(node.func.value, "id", None) or node.func.value.attr) == "mp"
    ]


def test_p_powers_go_through_the_core_kernel():
    # one exponent arithmetic: every p**x, ln p and 1 - p**x is formed by core
    src = Path(padic_ialpha.__file__).parent
    stray = {
        path.name: calls
        for path in sorted(src.glob("*.py"))
        if path.name != "core.py" and (calls := mpmath_kernel_calls(path.read_text()))
    }
    assert stray == {}


def test_kernel_scan_sees_every_form_of_call():
    source = (
        "mp.power(ctx.prime, x)\n"
        "y = -mp.expm1(x * mp.log(ctx.prime))\n"
        "mpmath.mp.ln(p)\n"
        "math.log(p); np.power(2, x); mp.exp(x)\n"
    )
    assert sorted(mpmath_kernel_calls(source)) == [
        (1, "power"), (2, "expm1"), (2, "log"), (3, "ln"),
    ]


CACHE_DECORATORS = {"cache", "lru_cache"}


def cached_functions(source: str) -> list:
    """Names of the functions decorated with functools' cache or lru_cache."""
    def name(node):
        if isinstance(node, ast.Call):
            node = node.func
        return getattr(node, "attr", None) or getattr(node, "id", None)

    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(name(d) in CACHE_DECORATORS for d in node.decorator_list)
    ]


def test_only_the_constant_tables_are_cached():
    # a cache keyed on the inputs would let repeated calls skip work that a
    # single call pays; what a scan shares lives on its operator and dies
    # with it
    src = Path(padic_ialpha.__file__).parent
    found = {
        f"{path.stem}.{fn}"
        for path in sorted(src.glob("*.py"))
        for fn in cached_functions(path.read_text())
    }
    assert found == {
        "core._ln", "core._mp_context", "series._faulhaber_coefficients",
        "series._phi_numerator",
    }


def test_cache_scan_sees_every_form_of_decorator():
    source = (
        "@cache\ndef a(): pass\n"
        "@functools.lru_cache(maxsize=8)\ndef b(): pass\n"
        "@lru_cache\ndef c(): pass\n"
        "@property\ndef d(self): pass\n"
    )
    assert cached_functions(source) == ["a", "b", "c"]


def _called_name(func):
    """The name a call goes through: f(...) -> f, a.b.f(...) -> f."""
    return getattr(func, "attr", None) or getattr(func, "id", None)


def _is_mp(node) -> bool:
    """node spells mpmath's global context: mp or mpmath.mp."""
    return _called_name(node) == "mp"


PRECISION_SETTERS = {"workprec", "workdps", "extraprec", "extradps"}


def global_precision_uses(source: str) -> list:
    """(line, name) of every with-block that sets mpmath's global precision,
    and of every assignment to mp.prec or mp.dps."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            found += [
                (node.lineno, _called_name(item.context_expr.func))
                for item in node.items
                if isinstance(item.context_expr, ast.Call)
                and _called_name(item.context_expr.func) in PRECISION_SETTERS
            ]
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (node.lineno, t.attr)
                for t in targets
                if isinstance(t, ast.Attribute) and t.attr in ("prec", "dps")
                and _is_mp(t.value)
            ]
    return sorted(found)


def test_no_module_sets_the_global_precision():
    # every mpf the library makes carries the context of its precision, so
    # no result can depend on mp.prec
    src = Path(padic_ialpha.__file__).parent
    stray = {
        path.name: uses
        for path in sorted(src.glob("*.py"))
        if (uses := global_precision_uses(path.read_text()))
    }
    assert stray == {}


def test_precision_scan_sees_every_form_of_setting():
    source = (
        "with ctx.workprec():\n    pass\n"
        "with open(p) as fh, mp.workprec(80):\n    pass\n"
        "with mpmath.workdps(30):\n    pass\n"
        "with extraprec(10):\n    pass\n"
        "mp.prec = 80\n"
        "mpmath.mp.dps += 5\n"
        "context.prec = 80\n"  # a private context: not the global one
        "c = ctx.workprec()\n"  # made, not entered
    )
    assert global_precision_uses(source) == [
        (1, "workprec"), (3, "workprec"), (5, "workdps"), (7, "extraprec"),
        (9, "prec"), (10, "dps"),
    ]


MPF_MAKERS = {"mpf", "make_mpf", "mpmathify", "convert"}
MP_ALLOWED = {"bernfrac"}  # Bernoulli numbers as an (int, int) pair


def mpf_constructions(source: str) -> list:
    """(line, name) of every spelling that makes an mpf or reads mp.

    mpf(...), x.mpf(...), x.make_mpf(...), x.convert(...) and mpmathify,
    and every attribute of mp (mp.pi, mp.sqrt, mp.prec, ...) but bernfrac.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
            node.attr in MPF_MAKERS or _is_mp(node.value) and node.attr not in MP_ALLOWED
        ):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in MPF_MAKERS:
            found.append((node.lineno, node.id))
    return sorted(found)


def test_only_core_makes_mpfs():
    src = Path(padic_ialpha.__file__).parent
    stray = {
        path.name: made
        for path in sorted(src.glob("*.py"))
        if path.name != "core.py" and (made := mpf_constructions(path.read_text()))
    }
    assert stray == {}


def test_mpf_scan_sees_every_form_of_construction():
    source = (
        "x = mp.mpf(1)\n"
        "y = mpf('0.5') + mpmath.mpf(2) + mpmath.mp.mpf(3)\n"
        "z = ctx._mp.make_mpf(v)\n"
        "w = mp.convert(f) + mpmathify(g)\n"
        "u = mp.pi * mp.sqrt(2) + mpmath.mp.e\n"
        "b = mp.bernfrac(4); n = float(x)\n"
    )
    assert mpf_constructions(source) == [
        (1, "mpf"), (2, "mpf"), (2, "mpf"), (2, "mpf"), (3, "make_mpf"),
        (4, "convert"), (4, "mpmathify"), (5, "e"), (5, "pi"), (5, "sqrt"),
    ]


def sphere_term_makers(source: str) -> set:
    """Functions (Class.method) that form sphere terms: they call _log_terms,
    or a run's at(j, ctx)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                name = _called_name(child.func)
                second = child.args[1:2]
                if name == "_log_terms" or name == "at" and second and (
                    isinstance(second[0], ast.Name) and second[0].id == "ctx"
                ):
                    found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_only_the_walk_sums_explicit_spheres():
    # every sphere value is a step of _steps: the K A - B sums of
    # SphereSum's explicit runs, the Monte Carlo oracle's walk, and each
    # point value, the first step of a walk; the one other maker forms the
    # bound below a start sphere.  The runs are data with no methods.
    src = Path(padic_ialpha.__file__).parent
    makers = {
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name in sphere_term_makers(path.read_text())
    }
    assert makers == {"radial._rest", "radial._steps"}
    tree = ast.parse((src / "radial.py").read_text())
    runs = [node for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Run")]
    assert sorted(node.name for node in runs) == ["LogRun", "PowerRun", "ValueRun"]
    assert [f.name for node in runs for f in node.body if isinstance(f, ast.FunctionDef)] == []


def test_sphere_term_scan_sees_every_maker():
    source = (
        "def a(run, ctx):\n    return run.at(3, ctx)\n"
        "class W:\n    def b(self, ctx):\n        return self.run.at(0, ctx)\n"
        "def c(run, L, ctx):\n    return list(_log_terms(run, (1,), L, ctx))\n"
        "def d(kernels, rate):\n    return kernels.at(0, rate)\n"
    )
    assert sphere_term_makers(source) == {"a", "W.b", "c"}


LAYERS = ("core", "series", "radial", "asymptotics", "ialpha", "verify", "cli")


def module_imports(source: str) -> list:
    """(line, module, local) of every import in source: ``module`` as
    written, with a leading dot for a relative import; ``local`` whether the
    import sits inside a function."""
    found = []

    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                found.append((child.lineno, "." * child.level + (child.module or ""), local))
            elif isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name, local) for alias in child.names)
            visit(child, local or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source), False)
    return found


def test_each_module_imports_only_the_layers_below_it():
    src = Path(padic_ialpha.__file__).parent
    assert {path.stem for path in src.glob("*.py")} == {"__init__", *LAYERS}
    stray = {}
    for rank, layer in enumerate(LAYERS):
        for line, module, _ in module_imports((src / f"{layer}.py").read_text()):
            if module.startswith(".") and module[1:] not in LAYERS[:rank]:
                stray.setdefault(layer, []).append((line, module))
    assert stray == {}


def test_only_numpy_is_imported_inside_functions():
    # numpy loads lazily with the Monte Carlo path; every other import is
    # made once, at the top of its module
    src = Path(padic_ialpha.__file__).parent
    stray = {
        path.name: local
        for path in sorted(src.glob("*.py"))
        if (local := [
            (line, module)
            for line, module, inside in module_imports(path.read_text())
            if inside and module != "numpy"
        ])
    }
    assert stray == {}


def test_import_scan_sees_every_form_of_import():
    source = (
        "import math, os.path\n"
        "from .core import x\n"
        "from . import radial\n"
        "from padic_ialpha.series import y\n"
        "def f():\n    from .asymptotics import z\n    import numpy as np\n"
        "class C:\n    def g(self):\n        from .cli import w\n"
    )
    assert module_imports(source) == [
        (1, "math", False), (1, "os.path", False), (2, ".core", False),
        (3, ".", False), (4, "padic_ialpha.series", False),
        (6, ".asymptotics", True), (7, "numpy", True), (10, ".cli", True),
    ]


SERIES_PRIVATE = {"_phi_numerator", "_faulhaber_coefficients", "_power_count"}


def names_used(source: str) -> set:
    """Every name that source reads, binds, imports or takes as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.alias):
            found.add(node.asname or node.name)
    return found


def test_only_the_series_module_forms_the_series_closed_forms():
    # the Eulerian numerators of Phi_k and Faulhaber's integer sums live in
    # series; every other module reads them through phi_sum and _power_sum
    src = Path(padic_ialpha.__file__).parent
    readers = {
        path.stem
        for path in sorted(src.glob("*.py"))
        if names_used(path.read_text()) & SERIES_PRIVATE
    }
    assert readers == {"series"}


def test_each_decision_lives_in_one_module():
    # the expansion builders give their first omitted term, verify forms
    # theorem2's radius power, and series alone reads a kernel entry
    src = Path(padic_ialpha.__file__).parent
    used = {m: names_used((src / f"{m}.py").read_text())
            for m in ("verify", "cli", "asymptotics")}
    assert not used["verify"] & {"general_power", "_omitted_log_term"}
    assert not used["cli"] & {"p_pow", "a1"}
    tree = ast.parse((src / "asymptotics.py").read_text())
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "_RateKernels" not in used["asymptotics"] and "at" not in attributes


def top_level_callers(source: str, names: set) -> set:
    """(top-level definition, name) of every call of one of names in source;
    a call outside every definition has None."""
    found = set()
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        found |= {
            (owner, _called_name(call.func))
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and _called_name(call.func) in names
        }
    return found


def test_one_operator_forms_the_constants():
    # C and U are formed by the operator, which every expansion reads, and
    # by the two public constants; no expansion builds a table of its own
    src = Path(padic_ialpha.__file__).parent
    makers = {
        (path.stem, owner)
        for path in sorted(src.glob("*.py"))
        for owner, _ in top_level_callers(path.read_text(), {"_prefactor", "_unit"})
    }
    assert makers == {
        ("radial", "_Operator"), ("core", "prefactor"), ("core", "unit_kernel_integral"),
    }
    asymptotics = (src / "asymptotics.py").read_text()
    assert top_level_callers(asymptotics, {"_RateKernels"}) == set()


def test_caller_scan_sees_every_form_of_call():
    source = (
        "class Op:\n    def __init__(self):\n        self.C = core._prefactor(1, 2)\n"
        "def f():\n    def g():\n        return _unit(ctx, pa)\n    return g\n"
        "x = _RateKernels(ctx)\n"
        "def h(kernels: _RateKernels):\n    return kernels\n"
    )
    assert top_level_callers(source, {"_prefactor", "_unit", "_RateKernels"}) == {
        ("Op", "_prefactor"), ("f", "_unit"), (None, "_RateKernels"),
    }


def method_calls(source: str, cls: str) -> dict:
    """The names each method of class cls calls; a replace(...) that sets
    hi reads "replace(hi=)"."""
    (node,) = [n for n in ast.parse(source).body
               if isinstance(n, ast.ClassDef) and n.name == cls]
    found = {}
    for method in node.body:
        if isinstance(method, ast.FunctionDef):
            names = found[method.name] = set()
            for call in ast.walk(method):
                if isinstance(call, ast.Call):
                    name = _called_name(call.func)
                    if name == "replace" and any(k.arg == "hi" for k in call.keywords):
                        name = "replace(hi=)"
                    names.add(name)
    return found


def test_sphere_sum_sums_every_closed_part_before_any_walk():
    # __init__ sums the closed parts, _add_log's among them, then walks
    # what is left; a walked run is cut at the top by its hi, not copied
    src = Path(padic_ialpha.__file__).parent
    owners = {
        (path.stem, owner)
        for path in sorted(src.glob("*.py"))
        for owner, _ in top_level_callers(path.read_text(), {"_add_explicit"})
    }
    assert owners == {("radial", "SphereSum")}
    calls = method_calls((src / "radial.py").read_text(), "SphereSum")
    assert {m for m, names in calls.items() if "_add_explicit" in names} == {"__init__"}
    assert not calls["_add_log"] & {"_add_explicit", "replace(hi=)"}


def test_method_call_scan_sees_every_form_of_call():
    source = (
        "class S:\n    def a(self, run):\n        self._add_explicit(run, 1)\n"
        "    def b(self, run):\n"
        "        return [replace(run, hi=0), dataclasses.replace(run, lo=1)]\n"
        "    def c(self):\n        def inner():\n            return f()\n        return inner\n"
        "class T:\n    def d(self):\n        g()\n"
    )
    assert method_calls(source, "S") == {
        "a": {"_add_explicit"}, "b": {"replace(hi=)", "replace"}, "c": {"f"},
    }


def test_no_whole_ball_run_reaches_the_sphere_sum(monkeypatch):
    # a power run on the whole ball |y| <= |x| takes the factored closed
    # form in the operator; only the other runs reach SphereSum, and a
    # profile made of whole-ball runs alone forms none
    sums = []
    make = radial.SphereSum.__init__

    def spy(self, runs, top, *args):
        sums.append((list(runs), top))
        make(self, runs, top, *args)

    monkeypatch.setattr(radial.SphereSum, "__init__", spy)
    op = _Operator(2.3, padic_ialpha.NumericContext(2))
    whole_only = [  # (profile, N)
        (Monomial(0.5), 7), (Indicator(9), 7), (LogPower(0.5, 0.0), -2),
        (Table(3, (1.0, 2.0), PowerTail(1.5, 0.25)), 1),
        (LinearCombo(((1.0, Monomial(0.5)), (2.0, Indicator(50)))), 40),
    ]
    for f, N in whole_only:
        op.at(f, N)
    assert sums == []
    mixed = [
        (LinearCombo(((1.0, Monomial(0.5)), (1.0, LogPower(0.5, 2.5)))), 300),
        (LinearCombo(((1.0, Monomial(1.0)), (-1.5, Indicator(0)))), 40),
        (LogPower(0.5, 0.0), 9), (Table(3, (1.0, 2.0), PowerTail(1.5, 0.25)), 4),
    ]
    for f, N in mixed:
        op.at(f, N)
    assert len(sums) == len(mixed)
    assert not [run for runs, top in sums for run in runs
                if isinstance(run, PowerRun) and run.lo is None and run.hi > top]
