"""Source hygiene: no module of the package imports a name it never uses,
no named function takes a parameter its body never reads, no lambda only
forwards its parameters to one call, no power of q has an exponent array,
no table reads a power of q past the lattice reader, nothing under src/
imports scipy, the operator layer reads its position maps by gathers and
locates them in one place, no operator module runs an SVD outside
``operator_norm``, only ``block_norm`` builds the COO entries of a norm,
and every exported name has a caller outside the tests."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "suq2kit"
SOURCES = sorted(SRC.glob("*.py"))
# the package __init__ imports names only to re-export them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_names():
    source = "import os\nimport a.b as ab\nfrom .x import c, d\nd(ab)\n"
    assert unused_imports(source) == ["c", "os"]


def unused_parameters(source: str) -> list:
    """"function(parameter)" for each parameter of a named function or method
    that its body never reads; self and cls are exempt.  Lambdas are skipped,
    because the shift rules fix their signature."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [f"{node.name}({p})" for p in params
                  if p not in read and p not in ("self", "cls")]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_scan_flags_unused_parameters():
    source = ("def f(a, b, *args, c=1, **kw):\n    x = b\n    return kw\n"
              "class K:\n    def m(self, d):\n        d = 2\n"
              "    @classmethod\n    def n(cls, e):\n        return lambda u: e\n")
    assert unused_parameters(source) == ["f(a)", "f(c)", "f(args)", "m(d)"]


def forwarding_lambdas(source: str) -> list:
    """Each lambda whose body is one call passing the lambda's parameters
    without defaults, in order, and nothing else; the callee can be named
    in its place."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        params = [a.arg for a in positional[:len(positional) - len(args.defaults)]]
        call = node.body
        if (args.vararg is None and not args.kwonlyargs and args.kwarg is None
                and not call.keywords
                and [ast.unparse(a) for a in call.args] == params):
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_forwarding_lambdas(path):
    assert forwarding_lambdas(path.read_text()) == []


def test_scan_flags_forwarding_lambdas():
    source = ("a = lambda q, l2: f(q, l2)\nb = lambda q, l2, _g=g: _g(q, l2)\n"
              "c = lambda: T[k]()\nd = lambda q, l2: f(q, l2 + 2)\n"
              "e = lambda q, l2: f(l2, q)\nh = lambda q, l2: f(q, l2, 0)\n"
              "m = lambda q, l2: f(q, l2=l2)\nn = lambda *a: f(*a)\n"
              "o = lambda q, l2: q\n")
    assert forwarding_lambdas(source) == ["lambda q, l2: f(q, l2)",
                                          "lambda q, l2, _g=g: _g(q, l2)",
                                          "lambda: T[k]()"]


def array_powers_of_q(source: str) -> list:
    """Each ``q ** e`` or ``qp.q ** e`` whose exponent is not a literal.

    Such an exponent is an integer array in the table code, where the array
    power runs libm's slow negative-base path; ``qarith.QReader`` gives the
    same values from a lookup table.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)):
            continue
        if ast.unparse(node.left) not in ("q", "qp.q"):
            continue
        try:
            ast.literal_eval(node.right)
        except ValueError:
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_array_powers_of_q(path):
    assert array_powers_of_q(path.read_text()) == []


def test_scan_flags_array_powers_of_q():
    source = ("a = q ** l2\nb = -qp.q ** ((i2 + j2) // 2)\nc = q**2 - q**-2 + q ** 0.5\n"
              "d = s ** l2 + qp.abs_q ** t + x.q ** n\ne = qpow(q, l2)\n")
    assert array_powers_of_q(source) == ["q ** l2", "qp.q ** ((i2 + j2) // 2)"]


def qpow_calls(source: str) -> list:
    """Each call of a function named ``qpow``, bare or as an attribute.

    ``qpow(q, e)`` read q^e at an exponent array e that the caller had to
    form, and reduced e to a range, for every factor; the tables read their
    factors by lattice coordinate through ``qarith.Lattice`` instead.
    """
    return [ast.unparse(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == "qpow"
                 or getattr(node.func, "attr", None) == "qpow")]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "qarith.py"],
                         ids=lambda p: p.name)
def test_no_qpow_calls_outside_qarith(path):
    assert qpow_calls(path.read_text()) == []


def test_scan_flags_qpow_calls():
    source = ("a = qpow(q, l2 + 2)\nb = 1.0 - qarith.qpow(q, (l2 + i2) // 2)\n"
              "c = x.pow(x.lpi, 2)\nd = qpow\ne = np.power(q, l2)\nf = myqpow(q, 2)\n")
    assert qpow_calls(source) == ["qpow(q, l2 + 2)", "qarith.qpow(q, (l2 + i2) // 2)"]


def position_map_hazards(source: str) -> list:
    """"function: statement" for each place that scatters through a
    position map or locates one outside its cache:

    - an assignment or augmented assignment to a subscript whose index
      calls ``_target`` or ``_source``, as in ``sums[op._target(d) + 1] += w``;
    - a call of ``<module>.add.at`` outside ``block_stack``, whose stacked
      SVD is the one place that adds duplicate entries;
    - a ``.shifted(...)`` call outside ``positions``, the one cached lookup.
    """
    found = []

    def subscript_targets(node):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t for target in targets for t in ast.walk(target) if isinstance(t, ast.Subscript)]

    def calls(node, names):
        return any(isinstance(n, ast.Call) and getattr(n.func, "attr", getattr(n.func, "id", None))
                   in names for n in ast.walk(node))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        hazard = False
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            hazard = any(calls(t.slice, ("_target", "_source")) for t in subscript_targets(node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "at":
                hazard = (isinstance(node.func.value, ast.Attribute)
                          and node.func.value.attr == "add" and function != "block_stack")
            elif node.func.attr == "shifted":
                hazard = function != "positions"
        if hazard:
            found.append(f"{function}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_position_maps_are_read_by_gathers():
    assert position_map_hazards((SRC / "peterweyl.py").read_text()) == []


def test_scan_flags_position_map_hazards():
    source = ("def f(op, sums, w, d):\n"
              "    sums[op._target(d) + 1] += w\n"
              "    diag[self._source(d)] = c\n"
              "    a[0], b[_target(d)] = 1, 2\n"
              "    x: float = y[op._source(d)]\n"
              "    z[op._target(d)][0] = 1\n"
              "    t = w.take(op._source(d))\n"
              "    u = left[other._target(e)]\n"
              "    v[i] = op._target(d)\n"
              "    np.add.at(s, op._target(d), w)\n"
              "    numpy.add.at(s, i, w)\n"
              "    np.add(s, w)\n"
              "    space.shifted(source, shift)\n"
              "def block_stack(stack):\n    np.add.at(stack, i, v)\n"
              "class S:\n    def positions(self, source, shift):\n"
              "        return self.shifted(source, shift)\n"
              "    def shifted(self, source, shift):\n        return self.locate(source)\n")
    assert position_map_hazards(source) == [
        "f: sums[op._target(d) + 1] += w", "f: diag[self._source(d)] = c",
        "f: a[0], b[_target(d)] = (1, 2)", "f: z[op._target(d)][0] = 1",
        "f: np.add.at(s, op._target(d), w)", "f: numpy.add.at(s, i, w)",
        "f: space.shifted(source, shift)"]


def svd_reads(source: str) -> list:
    """"function: name" for each read of an SVD routine outside
    ``operator_norm``: an attribute ``svd``, as in ``np.linalg.svd``, or the
    bare name ``svd``.  ``operator_norm`` bounds each sector block before
    its stacked SVD and drops those that cannot hold the norm, so a call
    anywhere else would run the SVD on every block."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if function != "operator_norm" and (
                isinstance(node, ast.Attribute) and node.attr == "svd"
                or isinstance(node, ast.Name) and node.id == "svd"):
            found.append(f"{function}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("name", ["peterweyl.py", "podles.py", "homotopy.py", "suites.py"])
def test_svd_runs_only_inside_operator_norm(name):
    assert svd_reads((SRC / name).read_text()) == []


def test_scan_flags_svd_outside_operator_norm():
    source = ("s = np.linalg.svd(m)\n"
              "def f(m):\n    return numpy.linalg.svd(m, compute_uv=False)[0]\n"
              "def g(m):\n    from numpy.linalg import svd\n    return svd(m)\n"
              "h = linalg.svd\n"
              "def operator_norm(stack):\n    return np.linalg.svd(stack)\n"
              "def k(m):\n    return np.linalg.norm(m, 2), m.svds, np.linalg.eigvalsh(m)\n")
    assert svd_reads(source) == ["<module>: np.linalg.svd", "f: numpy.linalg.svd", "g: svd",
                                 "<module>: linalg.svd"]


def entry_builds(source: str) -> list:
    """"function: call" for each call of ``block_entries``, bare or as an
    attribute, or of an ``entries`` method outside ``block_norm`` and
    ``block_entries``.  ``block_norm`` prunes the weight sectors on the
    sums of its diagonals and builds the COO entries of the kept sectors'
    columns alone, so a call anywhere else would build the entries of
    every sector again."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and function not in ("block_norm", "block_entries")
                and (getattr(node.func, "id", None) == "block_entries"
                     or getattr(node.func, "attr", None) in ("block_entries", "entries"))):
            found.append(f"{function}: {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_block_norm_builds_the_entries_of_a_norm(path):
    assert entry_builds(path.read_text()) == []


def test_scan_flags_entry_builds_outside_block_norm():
    source = ("pair = block_entries(grid)\n"
              "def f(op, cols):\n    return op.entries(cols)\n"
              "def g(grid):\n    return pw.block_entries(grid, None)[0]\n"
              "class K:\n    def norm(self):\n        return self.entries()\n"
              "def block_norm(grid, kept):\n    return block_entries(grid, kept)\n"
              "def block_entries(grid):\n    return [op.entries() for op in grid]\n"
              "def h(op):\n    return op.entries, entries_of(op), op.block_entries_count()\n")
    assert entry_builds(source) == ["<module>: block_entries(grid)", "f: op.entries(cols)",
                                    "g: pw.block_entries(grid, None)", "norm: self.entries()"]


def _scipy_modules(node) -> list:
    """The scipy module names one import statement reads, in any
    ``import scipy...`` or ``from scipy... import`` form."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
    if (isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "scipy"):
        return [node.module]
    return []


def scipy_imports(source: str) -> list:
    """Each scipy module name an import statement reads, wherever the
    statement stands."""
    return [name for node in ast.walk(ast.parse(source)) for name in _scipy_modules(node)]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    # the package runs on numpy alone and exports no scipy matrix; scipy is a
    # dependency of the tests and the benchmark only
    assert scipy_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_peterweyl_imports_scipy(path):
    # implied by test_no_scipy_import, which also covers peterweyl
    if path.name != "peterweyl.py":
        assert scipy_imports(path.read_text()) == []


def test_scan_flags_scipy_imports():
    # at the top level, inside a function, a class body, a condition or an
    # async function alike
    source = ("import scipy\nimport scipy.sparse as sp, numpy\nfrom scipy import linalg\n"
              "from scipy.sparse.csgraph import connected_components\n"
              "def f():\n    import scipy.sparse.linalg\n"
              "class K:\n    from scipy.sparse import csr_matrix\n"
              "    def m(self):\n        import scipy.io\n"
              "if flag:\n    import scipy.special\n"
              "async def g():\n    import scipy.stats\n"
              "import scipyx\nfrom .scipy import x\nfrom numpy import scipy\n")
    assert sorted(scipy_imports(source)) == [
        "scipy", "scipy", "scipy.io", "scipy.sparse", "scipy.sparse", "scipy.sparse.csgraph",
        "scipy.sparse.linalg", "scipy.special", "scipy.stats"]


def module_level_scipy_imports(source: str) -> list:
    """Each scipy module name imported outside every function body, so that
    importing the module imports it: at the top level, under a condition
    or in a class body."""
    found = []

    def visit(node):
        found.extend(_scipy_modules(node))
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child)

    visit(ast.parse(source))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_scipy_is_imported_only_inside_functions(path):
    # implied by test_no_scipy_import: `import suq2kit` loads no scipy
    assert module_level_scipy_imports(path.read_text()) == []


def test_scan_flags_module_level_scipy_imports():
    source = ("import scipy.sparse as sp\nimport numpy\n"
              "def f():\n    import scipy.sparse.linalg\n    from scipy import linalg\n"
              "class K:\n    from scipy.sparse import csr_matrix\n"
              "    def m(self):\n        import scipy\n"
              "if flag:\n    import scipy.special\n"
              "async def g():\n    import scipy.stats\n")
    assert module_level_scipy_imports(source) == ["scipy.sparse", "scipy.sparse",
                                                   "scipy.special"]


def _reads(tree) -> set:
    """Names read as a bare name or as an attribute, except inside the
    definition of the same name, so that a recursive call is no caller."""
    found = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in inside:
                found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def uncalled_exports(package: dict, readme: str, bench: list) -> list:
    """"module.name" for each name in a module's ``__all__`` that nothing
    reads: not the package's modules (the ``__init__`` re-export and the
    name's own definition do not count), not a Python block of the README,
    and not the text of a benchmark file, which may name it in a dotted
    string."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    reads = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            reads |= _reads(tree)
    for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL):
        reads |= _reads(ast.parse(block))
    found = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
                found += [f"{name[:-3]}.{export}" for export in ast.literal_eval(node.value)
                          if export not in reads
                          and not any(re.search(rf"\b{export}\b", text) for text in bench)]
    return found


def test_every_export_has_a_caller():
    package = {p.name: p.read_text() for p in SOURCES}
    bench = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    assert uncalled_exports(package, (ROOT / "README.md").read_text(), bench) == []


def test_scan_flags_exports_without_a_caller():
    package = {
        "a.py": ('__all__ = ["f", "g", "h", "k", "m", "n", "K"]\n'
                 "def f():\n    return f()\n"
                 "def g():\n    pass\n"
                 "h = 1\n"
                 "def k():\n    return g()\n"
                 "def m():\n    pass\n"
                 "def n():\n    pass\n"
                 "class K:\n    def __eq__(self, other):\n        return isinstance(other, K)\n"),
        "b.py": "from . import a\nx = a.h\n",
        "__init__.py": "from .a import f, g, h, k, m, n, K\nm()\n",
    }
    readme = "```python\nfrom pkg import k\nk()\n```\n```sh\nm f\n```\n"
    bench = ['wrap("a.n")\n', "fx = 1\n"]
    assert uncalled_exports(package, readme, bench) == ["a.f", "a.m", "a.K"]
