"""Source hygiene: no module of the package imports a name it never uses,
no named function takes a parameter its body never reads, no lambda only
forwards its parameters to one call, no power of q has an exponent array,
nothing under src/ imports scipy, no norm of one operator goes through a
scipy matrix, and every exported name has a caller outside the tests."""

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
    power runs libm's slow negative-base path; ``qarith.qpow`` gives the same
    values from a lookup table.
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


def matrix_level_norms(source: str) -> list:
    """Each call ``operator_norm(<expr>.matrix, ...)`` or
    ``operator_norm(<expr>.restrict_cols(...), ...)`` with an <expr> other
    than ``self``: the norm of one operator through a scipy export, where
    ``block_norm`` decides it on the operator's diagonals."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "operator_norm":
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Call):
            arg = arg.func if getattr(arg.func, "attr", None) == "restrict_cols" else None
        elif getattr(arg, "attr", None) != "matrix":
            arg = None
        if isinstance(arg, ast.Attribute) and ast.unparse(arg.value) != "self":
            found.append(ast.unparse(node))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_norms_of_one_operator_stay_on_the_operator(path):
    assert matrix_level_norms(path.read_text()) == []


def test_scan_flags_matrix_level_norms():
    source = ("a = operator_norm(x.matrix)\nb = pw.operator_norm((x - y).matrix, 10)\n"
              "c = operator_norm(op.restrict_cols(mask))\n"
              "d = operator_norm(block_matrix([[x.matrix, y.restrict_cols(m)]]))\n"
              "e = x.norm(mask)\nf = operator_norm(mat)\ng = operator_norm(x.matrix.T)\n"
              "h = norm(x.matrix)\ni = operator_norm(restrict_cols(m))\n"
              "j = operator_norm(self.restrict_cols(m))\nk = operator_norm(self.matrix)\n"
              "m = operator_norm(self.x.matrix)\n")
    assert matrix_level_norms(source) == ["operator_norm(x.matrix)",
                                          "pw.operator_norm((x - y).matrix, 10)",
                                          "operator_norm(op.restrict_cols(mask))",
                                          "operator_norm(self.x.matrix)"]


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
