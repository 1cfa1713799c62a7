"""Outside-in layer tracing for the benchmark.

The tracer wraps the layer entry points of suq2kit from the benchmark's own
files; nothing under ``src/`` knows about it.  Each call of a traced name
becomes a span (name, start, end, parent span, job id) kept in memory; the
spans are aggregated into per-layer call counts, total time and self time
when the run ends.  ``install`` rebinds every module attribute (and class
attribute) that holds a traced object and ``uninstall`` restores each one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# modules searched for bindings of a traced function; a function imported
# by name into another module is wrapped there too
MODULES = ("suq2kit", "suq2kit.qarith", "suq2kit.peterweyl", "suq2kit.podles",
           "suq2kit.homotopy", "suq2kit.kring", "suq2kit.foq", "suq2kit.report",
           "suq2kit.suites", "suq2kit.cli")

SUITE_NAMES = ("relations", "podles", "fredholm", "rotation", "lemma1", "lemma2",
               "lemma3", "degenerate", "koszul", "fusion", "foq")

# (layer, traced names, end-to-end metric it should move, predicted no change)
LAYERS = (
    ("table assembly",
     ("peterweyl.from_shift_rules", "peterweyl._masked_sqrt_ratio"),
     "batch_s on homotopy-pos and sphere-neg", "integer"),
    ("coefficient families",
     ("homotopy.verify_lemma1", "homotopy.verify_lemma2", "homotopy.verify_lemma3",
      "homotopy.degenerate_module_check", "homotopy.build_omega",
      "homotopy.rotation_homotopy_check"),
     "batch_s on homotopy-pos", "integer"),
    ("composition", ("peterweyl.matmul",),
     "batch_s on homotopy-pos", "integer"),
    ("norms and ranks",
     ("peterweyl.operator_norm", "podles.fredholm_index", "podles.commutator_tail"),
     "batch_s and max_job_s on sphere-neg", "integer, mostly homotopy-pos"),
    ("exact integers",
     ("kring.koszul_verify", "kring.smith_normal_form", "kring.int_det",
      "kring._matmul", "kring.fuse"),
     "batch_s on integer", "sphere-neg, homotopy-pos"),
    ("parameter matrices", ("foq.monoidally_equivalent", "foq.solve_su2_parameter"),
     "batch_s on integer (small)", "sphere-neg, homotopy-pos"),
    ("reports",
     ("report.emit_report",) + tuple(f"suites.run_suite.{s}" for s in SUITE_NAMES),
     "batch_s everywhere (small)", "n/a"),
)

NAMES = tuple(n for _, names, _, _ in LAYERS for n in names)

# job root spans are opened by the benchmark around each job, not wrapped
ROOT_PREFIX = "suites.run_suite."
TRACED = tuple(n for n in NAMES if not n.startswith(ROOT_PREFIX))

# traced names that are not plain module functions: (class path, attribute)
_CLASS_ATTRS = {
    "peterweyl.from_shift_rules": ("suq2kit.peterweyl.BandedOperator", "from_shift_rules"),
    "peterweyl.matmul": ("suq2kit.peterweyl.BandedOperator", "__matmul__"),
}

COUNTING_SPAN = "trace.counting"

# exact counters recorded beside the spans
COUNTERS = ("peterweyl.operator_norm.dense_calls", "peterweyl.operator_norm.arpack_calls",
            "peterweyl.operator_norm.bound_calls", "peterweyl.operator_norm.zero_calls",
            "peterweyl.operator_norm.max_dim", "peterweyl.operator_norm.dense_flops",
            "podles.fredholm_index.svd_flops")


def svd_flops(m: int, n: int) -> int:
    """Computed operation count of singular values only (no vectors) of an
    m x n matrix: 4 m n^2 - 4 n^3 / 3 with m >= n (Golub and Van Loan)."""
    m, n = max(m, n), min(m, n)
    return (12 * m * n * n - 4 * n ** 3) // 3


class Tracer:
    """In-memory span recorder.  Spans are lists [name, start, end, parent, job]."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.job = None
        self._stack = []
        self._undo = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        self.spans.append([name, perf_counter(), None, parent, self.job])
        return idx

    def open_job(self, job: int, suite: str) -> int:
        """Open the root span of one job."""
        self.job = job
        return self.open(ROOT_PREFIX + suite)

    def close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name: str, fn, count=None):
        sig = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                # a span of its own, so counting is charged to no layer
                idx = self.open(COUNTING_SPAN)
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments)
                self.close(idx)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    # -- installing and removing the wrappers --------------------------------

    def install(self):
        """Wrap every traced name in every module or class that binds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(m) for m in MODULES]
        for name in TRACED:
            count = _COUNT_HOOKS.get(name)
            if name in _CLASS_ATTRS:
                path, attr = _CLASS_ATTRS[name]
                mod, cls_name = path.rsplit(".", 1)
                cls = getattr(importlib.import_module(mod), cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, count))
                else:
                    new = self.wrap(name, raw, count)
                self._rebind(cls, attr, raw, new)
                continue
            mod_name, attr = name.split(".", 1)
            original = getattr(importlib.import_module(f"suq2kit.{mod_name}"), attr)
            wrapped = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)

    def _rebind(self, owner, attr, original, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def dump(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# -- exact counters -----------------------------------------------------------

def _count_operator_norm(counts, arguments):
    """Classify the path operator_norm takes, by the rule the function uses:
    empty or all-zero -> 0; sqrt(|.|_1 |.|_inf) < 1e-13 -> the bound;
    min(shape) <= exact_dim -> dense SVD; otherwise ARPACK."""
    mat = sp.csr_matrix(arguments["mat"])
    dim = min(mat.shape)
    counts["peterweyl.operator_norm.max_dim"] = max(
        counts["peterweyl.operator_norm.max_dim"], dim)
    if dim == 0 or mat.nnz == 0:
        counts["peterweyl.operator_norm.zero_calls"] += 1
    elif float(np.sqrt(spla.norm(mat, 1) * spla.norm(mat, np.inf))) < 1e-13:
        counts["peterweyl.operator_norm.bound_calls"] += 1
    elif dim <= arguments["exact_dim"]:
        counts["peterweyl.operator_norm.dense_calls"] += 1
        counts["peterweyl.operator_norm.dense_flops"] += svd_flops(*mat.shape)
    else:
        counts["peterweyl.operator_norm.arpack_calls"] += 1


def _count_fredholm_index(counts, arguments):
    op = arguments["op"]
    shape = op.matrix.shape if hasattr(op, "matrix") else op.shape
    if min(shape) > 0:
        counts["podles.fredholm_index.svd_flops"] += svd_flops(*shape)


_COUNT_HOOKS = {"peterweyl.operator_norm": _count_operator_norm,
                "podles.fredholm_index": _count_fredholm_index}


# -- aggregation ----------------------------------------------------------------

def layer_stats(spans) -> dict:
    """{name: [calls, total_s, self_s]} over finished spans.

    Self time is a span's duration minus the durations of its direct child
    spans.  Total time counts only the outermost span of a name, so a name
    that calls itself is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    stats = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += (end - start) - child[idx]
        anc = parent
        while anc is not None and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc is None:
            entry[1] += end - start
    return stats


def per_layer_metrics(stats: dict, counts: dict) -> dict:
    """Flat {metric name: value} for every traced name and counter."""
    out = {}
    for name in NAMES:
        calls, total, self_s = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total
        out[f"{name}.self_s"] = self_s
    out.update({k: counts[k] for k in COUNTERS})
    return out
