"""Every public name of the package has a caller outside the tests.

A name listed in a module's `__all__` must be loaded at least once in
`src/cdgnn/` or `demos/`. Its own definition, its `__all__` entry and the
re-exports of `__init__.py` do not count. Loads are resolved through the
syntax tree: `ad.exp` counts for `autodiff.exp` only where `ad` is bound to
cdgnn's autodiff, and a bare `exp` only where it is imported from there or
defined in the same module, so neither `np.exp` nor a docstring counts.

The public methods and properties of every `__all__` class need an
attribute load of their name in the same files, outside their own
definition. That match is by name alone, so it can miss an unused method
(any `.shape` counts for `Tensor.shape`) but never flags a used one.

Every value a caller can set (a parameter with a default, a dataclass
field with a default) is listed by name, so adding or removing a knob means
editing that list.

The package's imports are held to its declared dependencies: importing
`cdgnn` and its CLI loads none of `networkx`, `scipy.stats`, `scipy.sparse`
or `numpy.f2py`, only scipy's compiled CSR kernel, which is the module
`scipy.sparse` itself uses, whichever is imported first; and the
third-party packages that `src/cdgnn` imports are exactly those of
`[project].dependencies`. The gain theory, `gains`, imports no other
`cdgnn` module.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cdgnn"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def _reexports() -> dict[str, str]:
    """Name -> defining module of each `from .mod import name` in the
    package's `__init__.py`."""
    out = {}
    for node in _parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                out[alias.asname or alias.name] = node.module
    return out


def _bindings(tree: ast.Module, reexports: dict[str, str]):
    """Local names bound to a package name (local -> (module, name)) and
    local aliases of package modules (alias -> module)."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 1:
                target = mod
            elif mod == "cdgnn" or mod.startswith("cdgnn."):
                target = mod[len("cdgnn."):]
            else:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                if target:
                    names[local] = (target, alias.name)
                elif alias.name in MODULES:
                    modules[local] = alias.name
                elif alias.name in reexports:
                    names[local] = (reexports[alias.name], alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("cdgnn.") and alias.asname:
                    modules[alias.asname] = alias.name[len("cdgnn."):]
    return names, modules


# The nodes whose bodies bind names in a scope of their own.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _local_names(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds in its own
    scope: its arguments, and every name it assigns, loops over, defines
    or otherwise stores, outside the scopes nested in it."""
    names = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = scope.args
        names |= {arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg] if arg is not None}
        stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    else:
        stack = list(scope.generators)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if isinstance(node, _SCOPES):
            names.add(getattr(node, "name", None))
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names - {None}


def _loads(tree: ast.Module, module: str | None,
           reexports: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of every package name the file loads, leaving out
    loads inside that name's own top-level definition and loads of a name
    that an enclosing function or comprehension binds itself (_local_names)."""
    names, modules = _bindings(tree, reexports)
    if module is not None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.setdefault(node.name, (module, node.name))
    used = set()

    def visit(node, own, shadowed):
        hit = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in shadowed:
                hit = names.get(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules
              and node.value.id not in shadowed):
            hit = (modules[node.value.id], node.attr)
        if hit is not None and not (hit[0] == module and hit[1] == own):
            used.add(hit)
        if isinstance(node, _SCOPES) and not isinstance(node, ast.ClassDef):
            shadowed = shadowed | _local_names(node)
        for child in ast.iter_child_nodes(node):
            visit(child, own, shadowed)

    for top in tree.body:
        visit(top, getattr(top, "name", None), frozenset())
    return used


def unused_public_names() -> list[str]:
    reexports = _reexports()
    used = set()
    for name in MODULES:
        used |= _loads(_parse(PACKAGE / f"{name}.py"), name, reexports)
    for path in sorted((ROOT / "demos").glob("*.py")):
        used |= _loads(_parse(path), None, reexports)
    return [f"{m}.{n}" for m in MODULES
            for n in _exports(_parse(PACKAGE / f"{m}.py"))
            if (m, n) not in used]


def _attribute_loads(tree: ast.AST) -> Counter:
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Load))


def unused_public_members(modules: dict[str, ast.Module],
                          others: list[ast.Module]) -> list[str]:
    """`module.Class.name` of each public method or property of an
    `__all__` class of `modules` whose name no attribute load in `modules`
    or `others` reads, outside its own definition."""
    loads = sum(map(_attribute_loads, [*modules.values(), *others]), Counter())
    out = []
    for module, tree in modules.items():
        exports = _exports(tree)
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exports):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_")
                        and loads[fn.name] <= _attribute_loads(fn)[fn.name]):
                    out.append(f"{module}.{cls.name}.{fn.name}")
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    assert unused_public_names() == []


def test_every_public_method_has_a_caller_outside_the_tests():
    modules = {name: _parse(PACKAGE / f"{name}.py") for name in MODULES}
    others = [_parse(p) for p in [PACKAGE / "__init__.py",
                                  *sorted((ROOT / "demos").glob("*.py"))]]
    assert unused_public_members(modules, others) == []


def test_guard_sees_through_aliases_and_ignores_lookalikes(tmp_path):
    tree = ast.parse(
        "import numpy as np\n"
        "from . import autodiff as ad\n"
        "from .models import classify\n"
        "def f(x):\n"
        "    '''exp, sum_all'''\n"
        "    return np.exp(ad.relu(classify(x)))\n")
    assert _loads(tree, "harness", {}) == {
        ("autodiff", "relu"), ("models", "classify")}
    # an argument that shares a package name's name, read in its function
    # or in a nested one, is not a load of that name
    source = ("from . import autodiff as ad\n"
              "from .models import classify\n"
              "def relu(a):\n"
              "    return a\n"
              "def layer(f, relu, classify=None, *, ad=None):\n"
              "    def backward(g):\n"
              "        return g if relu else classify(ad.exp(g))\n"
              "    return (lambda relu: relu)(f) if relu else backward\n")
    assert _loads(ast.parse(source), "harness", {}) == set()
    head = "def head(x):\n    return relu(x)\n"
    assert _loads(ast.parse(source + head), "harness", {}) == {
        ("harness", "relu")}
    # nor is a name the function binds itself: by assignment, as a loop
    # target or as a comprehension target
    relu = "def relu(a):\n    return a\n"
    for body in ("    relu = x > 0\n    return relu\n",
                 "    for relu in x:\n        pass\n    return relu\n",
                 "    return [relu + 1 for relu in x]\n"):
        tree = ast.parse(relu + "def f(x):\n" + body)
        assert _loads(tree, "autodiff", {}) == set(), body
    # a local of a nested scope leaves the enclosing function's loads be
    nested = ("    def inner():\n        relu = 1\n        return relu\n"
              "    return relu(x) + sum(relu for relu in x)\n")
    assert _loads(ast.parse(relu + "def f(x):\n" + nested), "autodiff",
                  {}) == {("autodiff", "relu")}


def test_member_guard_ignores_a_method_that_only_calls_itself():
    tree = ast.parse(
        "__all__ = ['A', 'f']\n"
        "class A:\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def alone(self):\n"
        "        return self.alone()\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def _private(self):\n"
        "        pass\n"
        "class B:\n"
        "    def hidden(self):\n"
        "        pass\n"
        "def f(a):\n"
        "    return a.used, a.size\n")
    assert unused_public_members({"m": tree}, []) == ["m.A.alone"]


def _init_false(value: ast.expr) -> bool:
    return (isinstance(value, ast.Call)
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def settable_values(modules: dict[str, ast.Module]) -> list[str]:
    """Each parameter with a default, as `module.function(name)`, and each
    dataclass field with a default, as `module.Class.name`, in source
    order; methods and nested functions carry their enclosing names. A
    `field(init=False)` is no setting: no caller can pass it."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
                out.extend(f"{prefix}{child.name}({a.arg})" for a in named)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                if any("dataclass" in ast.unparse(d)
                       for d in child.decorator_list):
                    out.extend(f"{prefix}{child.name}.{st.target.id}"
                               for st in child.body
                               if isinstance(st, ast.AnnAssign)
                               and st.value is not None
                               and not _init_false(st.value))
                visit(child, f"{prefix}{child.name}.")

    for module, tree in modules.items():
        visit(tree, f"{module}.")
    return out


SETTABLE = [
    "autodiff.Tensor.__init__(requires_grad)",
    "autodiff._centered(out)",
    "autodiff.hsic_rbf(rows)",
    "autodiff.adam_step(weight_decay)",
    "cli.main(argv)",
    "disentangle.two_branch_forward(dropout_rate)",
    "disentangle.two_branch_forward(rng)",
    "gains.GainParams.mean_relative_degree",
    "gains.monte_carlo_one_layer(noise_ratio)",
    "gains.monte_carlo_one_layer(num_samples)",
    "gains.monte_carlo_one_layer(seed)",
    "gains.theory_check_grid(num_samples)",
    "gains.theory_check_grid(seed)",
    "gains.default_grid_cells(degrees)",
    "gains.default_grid_cells(homophilies)",
    "gains.default_grid_cells(ratios)",
    "gains.gain_improvement_check(depth)",
    "harness.RunConfig.learning_rate",
    "harness.RunConfig.scorer_learning_rate",
    "harness.RunConfig.weight_decay",
    "harness.RunConfig.hidden",
    "harness.RunConfig.dropout",
    "harness.RunConfig.layers",
    "harness.RunConfig.q",
    "harness.RunConfig.lambda_counterfactual",
    "harness.RunConfig.lambda_independence",
    "harness.RunConfig.epochs",
    "harness.RunConfig.patience",
    "harness.RunConfig.batch_size",
    "harness.RunConfig.ego_hops",
    "harness.RunConfig.scorer_hidden",
    "harness.RunConfig.hsic_max_rows",
    "harness.RunConfig.no_shortcut_term",
    "harness.RunConfig.no_causal_term",
    "harness.RunConfig.no_counterfactual_term",
    "harness.RunConfig.no_independence_term",
    "harness.train_cdgnn(cache)",
    "harness._gcn_hidden(dropout)",
    "harness._gcn_hidden(rng)",
    "harness.train_gcn_baseline(cache)",
    "harness.evaluate(hops)",
    "harness.assumption_audit(nodes)",
    "harness.assumption_audit(seed)",
    "harness.run_experiment(dataset)",
    "harness.run_experiment(model)",
    "harness.run_experiment(return_params)",
    "harness.run_variants(dataset)",
    "models.gcn_forward(dropout_rate)",
    "models.gcn_forward(rng)",
    "models.gcn_forward(propagated)",
    "synth.preset(seed)",
    "synth.preset(feature_rule)",
    "synth.relabel_to_heterophily(target)",
    "synth.relabel_to_heterophily(seed)",
    "synth.planted_shortcut(num_egos)",
    "synth.planted_shortcut(num_classes)",
    "synth.planted_shortcut(seed)",
]


def test_every_settable_value_is_listed():
    """A knob added or removed anywhere in `src/cdgnn` shows up here."""
    modules = {name: _parse(PACKAGE / f"{name}.py") for name in MODULES}
    assert settable_values(modules) == SETTABLE


def test_settable_lister_reads_defaults_fields_and_nesting():
    tree = ast.parse(
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, *args, c, d=2, **kw):\n"
        "    def inner(e=3):\n"
        "        pass\n"
        "@dataclass(frozen=True)\n"
        "class C:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    cache: int = field(init=False, repr=False)\n"
        "    def m(self, k=None):\n"
        "        pass\n"
        "class Plain:\n"
        "    w: int = 0\n")
    assert settable_values({"m": tree}) == [
        "m.f(b)", "m.f(d)", "m.f.inner(e)", "m.C.y", "m.C.z", "m.C.m(k)"]


def _python(code: str, *path: Path) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter with `path` and src/ first on its
    module path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in (*path, ROOT / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


KERNEL = "scipy.sparse._sparsetools"
HEAVY = ("networkx", "numpy.f2py", "scipy.stats", "scipy.sparse",
         "scipy._lib._util")


def test_import_loads_none_of_scipy_sparse_stats_f2py_or_networkx():
    proc = _python("import sys, cdgnn, cdgnn.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "cdgnn.cli" in loaded and KERNEL in loaded
    assert [m for m in loaded if m != KERNEL and any(
        m == h or m.startswith(h + ".") for h in HEAVY)] == []


# Random propagation plans with isolated nodes (empty rows), signed zeros
# and edge weights; _csr_rowsum must give the bits of scipy's CSR product.
SAME_KERNEL = """
import sys
import numpy as np
{first}
assert ad._sparsetools is sys.modules["scipy.sparse._sparsetools"]
rng = np.random.default_rng(7)
signed = np.array([0.0, -0.0, 1.0, -1.5])
for trial in range(60):
    n, k = int(rng.integers(1, 40)), int(rng.integers(1, 6))
    m = int(rng.integers(0, 3 * n))
    edges = rng.integers(0, max(n // 2, 1), size=(m, 2))
    plan = ad.PropagationPlan.from_edges(edges, n)
    w = np.where(rng.random((m, 1)) < 0.3, rng.choice(signed, (m, 1)),
                 rng.normal(size=(m, 1)))
    x = np.where(rng.random((n, k)) < 0.3, rng.choice(signed, (n, k)),
                 rng.normal(size=(n, k)))
    for weights in (None, ad.Tensor(w)):
        for cols, und in ((plan.fwd_cols, plan.fwd_und),
                          (plan.bwd_cols, plan.bwd_und)):
            data = ad._edge_data(weights, und)
            got = ad._csr_rowsum(plan.indptr, cols, data, x)
            want = scipy.sparse.csr_array((data, cols, plan.indptr),
                                          shape=(n, n)) @ x
            assert np.array_equal(got.view(np.uint64),
                                  np.ascontiguousarray(want).view(np.uint64))
print("same kernel")
"""


@pytest.mark.parametrize("first", [
    "from cdgnn import autodiff as ad\nimport scipy.sparse",
    "import scipy.sparse\nfrom cdgnn import autodiff as ad",
], ids=["cdgnn_first", "scipy_sparse_first"])
def test_csr_kernel_is_scipy_sparses_own(first):
    """cdgnn's CSR kernel is the module scipy.sparse runs, loaded once,
    whichever of the two is imported first, and gives its bits."""
    proc = _python(SAME_KERNEL.format(first=first))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "same kernel"


def test_missing_csr_kernel_is_one_line_import_error(tmp_path):
    """A scipy tree without the compiled kernel stops `import cdgnn` with
    one ImportError line that names the folder it looked in."""
    (tmp_path / "scipy" / "sparse").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    (tmp_path / "scipy" / "sparse" / "__init__.py").write_text("")
    proc = _python("import cdgnn", tmp_path)
    assert proc.returncode == 1
    folder = tmp_path / "scipy" / "sparse"
    assert proc.stderr.splitlines()[-1] == (
        f"ImportError: scipy's compiled CSR kernel (_sparsetools) is not in {folder}")


def _third_party_imports() -> set[str]:
    """Top-level names of the non-stdlib modules `src/cdgnn` imports."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                out |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add(node.module.split(".")[0])
    return out - set(sys.stdlib_module_names) - {"cdgnn"}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in declared}
    assert _third_party_imports() == names


def _package_imports(tree: ast.Module) -> list[str]:
    """The source of each import in `tree` that loads a cdgnn module."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            hit = node.level > 0 or node.module.split(".")[0] == "cdgnn"
        elif isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "cdgnn" for a in node.names)
        else:
            continue
        if hit:
            out.append(ast.unparse(node))
    return out


def test_gains_imports_no_package_module():
    assert _package_imports(ast.parse(
        "import numpy as np\nimport cdgnn.graphs\n"
        "from . import autodiff as ad\nfrom cdgnn.harness import evaluate\n"
    )) == ["import cdgnn.graphs", "from . import autodiff as ad",
           "from cdgnn.harness import evaluate"]
    assert _package_imports(_parse(PACKAGE / "gains.py")) == []
