"""Source hygiene: no module of the package imports a name it never uses,
no named function takes a parameter its body never reads, no lambda only
forwards its parameters to one call, no power of q has an exponent array,
and only peterweyl imports scipy."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "suq2kit"
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


def scipy_imports(source: str) -> list:
    """Each module name from scipy that an import statement reads, in any
    ``import scipy...`` or ``from scipy... import`` form."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and node.level == 0
              and node.module.split(".")[0] == "scipy"):
            found.append(node.module)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_peterweyl_imports_scipy(path):
    # the sparse storage of an operator is peterweyl's choice; every other
    # module goes through BandedOperator
    if path.name != "peterweyl.py":
        assert scipy_imports(path.read_text()) == []


def test_scan_flags_scipy_imports():
    source = ("import scipy\nimport scipy.sparse as sp, numpy\nfrom scipy import linalg\n"
              "from scipy.sparse.csgraph import connected_components\n"
              "def f():\n    import scipy.sparse.linalg\n"
              "import scipyx\nfrom .scipy import x\nfrom numpy import scipy\n")
    assert scipy_imports(source) == ["scipy", "scipy.sparse", "scipy", "scipy.sparse.csgraph",
                                     "scipy.sparse.linalg"]
