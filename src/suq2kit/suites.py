"""Named verification suites and their dispatch.

Each suite bundles the checks certifying one cluster of claims; the catalog
below records, per suite, the claim labels (anchors) its checks can carry.
Thresholds derive from the configured tolerances: identity-style residuals
gate at tol_identity, the pointwise coefficient identities at
tol_identity/10, the endpoint identities at tol_identity/100, and negative
controls must *exceed* 1000 * tol_identity to count as the predicted failure.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import operator
import os
import time
from dataclasses import dataclass

import numpy as np
# numpy.random is imported here, with the package, so that no job pays it
from numpy.random import default_rng

from .qarith import HalfInt, strict_q
from . import peterweyl as pw
from . import podles as po
from . import homotopy as ho
from . import kring as kr
from . import foq as fo
from .report import Check, VerificationReport

__all__ = ["SuiteConfig", "UsageError", "run_suite", "list_suites", "SUITES"]


class UsageError(ValueError):
    """Bad configuration (unknown suite, invalid parameter); exit code 2."""


# decay values below this are double-precision noise, not signal
_FIT_NOISE_FLOOR = 1e-13

# suites that never read q; a q given to one is a usage error
_TAKES_NO_Q = ("koszul", "foq")


@dataclass
class SuiteConfig:
    suite: str
    q: float | None = None
    lmax: HalfInt = HalfInt(40)          # 20 in half-integer units
    tol_identity: float = 1e-10
    tol_decay: float = 1e-8
    t_grid: int = 11
    n: int = 3
    d_trunc: int = 10
    seed: int = 0
    qmatrix: list | None = None          # rows of [re, im] pairs, foq and all suites

    def __post_init__(self):
        self.lmax = HalfInt.of(self.lmax)
        # an infinite tolerance would switch off every max gate it sets
        if not (0.0 < self.tol_identity < np.inf and 0.0 < self.tol_decay < np.inf):
            raise UsageError("tolerances must be positive and finite")
        for name in ("t_grid", "n", "d_trunc", "seed"):
            value = getattr(self, name)
            try:
                setattr(self, name, operator.index(value))
            except TypeError:
                raise UsageError(f"{name} must be an integer, got {value!r}") from None
        if self.t_grid < 2:
            raise UsageError("the t grid must include both endpoints (>= 2 points)")
        if self.n < 2:
            raise UsageError("the fundamental dimension n must be >= 2")
        if self.d_trunc < 1:
            raise UsageError("the truncation degree D must be >= 1")
        if self.seed < 0:
            raise UsageError("the seed must be >= 0")
        if self.q is not None and self.suite in _TAKES_NO_Q:
            raise UsageError(f"suite {self.suite!r} takes no q; --q belongs to the "
                             "suites that read it")
        if self.qmatrix is not None:
            if self.suite not in ("foq", "all"):
                raise UsageError(f"suite {self.suite!r} takes no parameter matrix; "
                                 "--qmatrix belongs to the foq and all suites")
            _validated_qmatrix(self.qmatrix)

    def require_q(self) -> float:
        if self.q is None:
            raise UsageError(f"suite {self.suite!r} needs --q")
        try:
            return strict_q(self.q)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    def echo(self) -> dict:
        return {
            "q": self.q, "lmax": str(self.lmax), "tol_identity": self.tol_identity,
            "tol_decay": self.tol_decay, "t_grid": self.t_grid, "n": self.n,
            "D": self.d_trunc,
        }


def _validated_qmatrix(rows) -> fo.QMatrix:
    """The parameter matrix from its wire format, rows of [re, im] pairs."""
    try:
        entries = np.array([[complex(re, im) for re, im in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise UsageError("the parameter matrix must be a list of rows of [re, im] "
                         f"pairs of numbers: {exc}") from exc
    try:
        return fo.validate_q(entries)
    except ValueError as exc:
        raise UsageError(f"supplied parameter matrix rejected: {exc}") from exc


# ---------------------------------------------------------------------------
# the individual suites
# ---------------------------------------------------------------------------

def _add_fit_check(rep: VerificationReport, name: str, anchor: str, xs, values):
    """Gate the R^2 of a geometric decay fit at 0.99, over the points above
    the double-precision noise floor (saturated differences sit at ~1e-16
    whatever the spin); fewer than three such points add no check."""
    usable = [(x, v) for x, v in zip(xs, values) if v > _FIT_NOISE_FLOOR]
    if len(usable) >= 3:
        _, r2 = po.fit_geometric([p[0] for p in usable], [p[1] for p in usable])
        rep.add(Check(name, anchor, r2, 0.99, mode="min"))


def _suite_relations(cfg: SuiteConfig, rep: VerificationReport):
    q = cfg.require_q()
    space = pw.full_space(cfg.lmax.twice)
    gens = {g: pw.generator_op(g, q, space) for g in pw.GENERATORS}
    for name, value in pw.relation_residuals(gens, q).items():
        rep.add(Check(name, "quantum SU(2) defining relations", value, cfg.tol_identity))
    for x, xs in (("alpha", "alpha*"), ("gamma", "gamma*")):
        rep.add(Check(f"{xs} table is the transpose of the {x} table",
                      "adjoint pairing of the generator tables",
                      (gens[xs] - gens[x].adjoint()).norm(),
                      cfg.tol_identity / 100))


def _suite_podles(cfg: SuiteConfig, rep: VerificationReport):
    q = cfg.require_q()
    space = pw.full_space(cfg.lmax.twice)
    a_op = po.podles_op("A", q, space)
    b_op = po.podles_op("B", q, space)
    for name, value in po.sphere_relation_residuals(a_op, b_op, q).items():
        rep.add(Check(name, "standard Podles sphere relations", value, cfg.tol_identity))
    gamma = pw.generator_op("gamma", q, space)
    comp_a = pw.generator_op("gamma*", q, space) @ gamma
    comp_b = pw.generator_op("alpha*", q, space) @ gamma
    rep.add(Check("A table matches the gamma* gamma composite",
                  "sphere generators vs quadratic words",
                  (a_op - comp_a).interior_residual_norm(2), cfg.tol_identity))
    rep.add(Check("B table matches the alpha* gamma composite",
                  "sphere generators vs quadratic words",
                  (b_op - comp_b).interior_residual_norm(2), cfg.tol_identity))
    haar = pw.haar_state(("gamma*", "gamma"), q)
    # the entry at e^(0)_{0,0}, the first basis vector, on the spin diagonal
    diag = float(a_op.diags[0][0])
    rep.add(Check("Haar state of gamma* gamma equals the A-table diagonal",
                  "Haar state via the GNS orbit",
                  abs(haar - diag),
                  cfg.tol_identity / 100))


def _suite_lemma1(cfg: SuiteConfig, rep: VerificationReport):
    q = cfg.require_q()
    residuals = ho.verify_lemma1(q, cfg.lmax, cfg.t_grid)
    for name, value in residuals.items():
        rep.add(Check(name, "adjoint pairing of the rescaled coefficient families",
                      value, cfg.tol_identity / 10))
    worst = {}
    for ts, _ in ho._t_blocks(q, cfg.t_grid):
        for om in ho.build_omega(q, ts, cfg.lmax):
            for name, value in pw.relation_residuals(om, q).items():
                worst[name] = max(worst.get(name, 0.0), value)
    for name, value in worst.items():
        rep.add(Check(f"omega_t image: {name}",
                      "the interpolated action is a *-homomorphism",
                      value, cfg.tol_identity))


def _suite_lemma2(cfg: SuiteConfig, rep: VerificationReport):
    q = cfg.require_q()
    top = max(40, cfg.lmax.twice // 2)
    l_list = list(range(10, top + 1, 10))
    table = ho.verify_lemma2(q, l_list, cfg.t_grid)
    gated = {name for name, *_ in ho._LEMMA2_FAMILIES}
    for name, sups in table.items():
        for l, s in zip(l_list, sups):
            rep.decay.append((l, name, s))
        if name not in gated:
            rep.add(Check(f"measured (ungated): final of {name}",
                          "uniform coefficient decay in the spin label",
                          sups[-1], None, mode="info"))
            continue
        decreasing, final_ok = ho.decay_verdict(sups, cfg.tol_decay)
        rep.add(Check(f"eventual decrease of {name}",
                      "uniform coefficient decay in the spin label",
                      0.0 if decreasing else 1.0, 0.5))
        rep.add(Check(f"final entry of {name}",
                      "uniform coefficient decay in the spin label",
                      sups[-1], cfg.tol_decay))
        _add_fit_check(rep, f"log-linear decay fit of {name}",
                       "uniform coefficient decay in the spin label", l_list, sups)


def _suite_lemma3(cfg: SuiteConfig, rep: VerificationReport):
    q = cfg.require_q()
    for name, value in ho.verify_lemma3(q, cfg.lmax, signed=True).items():
        rep.add(Check(name, "endpoint matching of the coefficient homotopy",
                      value, cfg.tol_identity / 100))
    if q < 0:
        unsigned = max(ho.verify_lemma3(q, cfg.lmax, signed=False).values())
        rep.add(Check("negative control: unsigned diagonal endpoint identity must fail",
                      "sign factor on the diagonal families",
                      unsigned, 1000 * cfg.tol_identity, mode="min"))


def _suite_fredholm(cfg: SuiteConfig, rep: VerificationReport):
    q = cfg.require_q()
    top = min(cfg.lmax.twice // 2, 30)
    dev_f = dev_fplus = 0
    for lmax in range(1, top + 1):
        mod = po.FredholmModule.standard(q, lmax)
        dev_f = max(dev_f, abs(po.fredholm_index(mod.F)))
        dev_fplus = max(dev_fplus,
                        abs(po.fredholm_index(po.index_pair_operator(lmax)) - 1))
    rep.add(Check(f"index of the bundle swap is 0 for every cutoff <= {top}",
                  "truncation-stable index of the bundle swap", float(dev_f), 0.0))
    rep.add(Check(f"index of the corner on the (0, -2) pair is 1 for every cutoff <= {top}",
                  "truncation-stable index of the bundle swap", float(dev_fplus), 0.0))

    module = po.FredholmModule.standard(q, cfg.lmax)
    rep.add(Check("the swap is a self-adjoint unitary on the truncation",
                  "truncation-stable index of the bundle swap",
                  module.unitary_defect(), cfg.tol_identity / 100))
    lmax_int = cfg.lmax.twice // 2
    cutoffs = list(range(4, lmax_int - 3, 2))
    # the reported tail is the one at cutoff 15 when the truncation reaches
    # past it, else the last tail, named after the cutoff it was measured at
    extra = [15] if lmax_int > 16 else []
    reported_at = (cutoffs + extra)[-1]
    for x in ("A", "B"):
        tails = po.commutator_tails(module, x, cutoffs + extra)
        reported = tails.pop() if extra else tails[-1]
        for c, t in zip(cutoffs, tails):
            rep.decay.append((c, f"[F, {x}] tail", t))
        uptick = max((tails[m + 1] - tails[m] for m in range(len(tails) - 1)), default=0.0)
        rep.add(Check(f"[F, {x}] tails decrease monotonically",
                      "commutator tail compactness proxy", max(uptick, 0.0), 0.0))
        _add_fit_check(rep, f"[F, {x}] tail decays geometrically (fit quality)",
                       "commutator tail compactness proxy", cutoffs, tails)
        rep.add(Check(f"measured: [F, {x}] tail at cutoff {reported_at}",
                      "commutator tail compactness proxy", reported, None, mode="info"))


def _suite_rotation(cfg: SuiteConfig, rep: VerificationReport):
    q = cfg.require_q()
    if q >= 0:
        raise UsageError("suite 'rotation' needs q < 0")
    lmax_int = cfg.lmax.twice // 2
    l_from = min(15, lmax_int - 2)
    out = ho.rotation_homotopy_check(q, cfg.t_grid, lmax_int, l_from)
    rep.add(Check("commutator tail never exceeds the unrotated difference tail",
                  "rotation homotopy tail bound", out["max_tail_excess"],
                  cfg.tol_identity))
    rep.add(Check("factorized corner norm matches the assembled operator",
                  "rotation homotopy tail bound", out["factorized_vs_assembled"],
                  cfg.tol_identity))
    rep.add(Check("block structure diag(omega_0, omega) at t = 0 is exact",
                  "rotation endpoint block structure",
                  out["endpoint_t0_deviation"], 0.0))
    rep.add(Check("block structure diag(omega, omega_0) at t = 1 is exact",
                  "rotation endpoint block structure",
                  out["endpoint_t1_deviation"], 0.0))
    rep.add(Check(f"measured: max commutator tail beyond spin {l_from}",
                  "rotation homotopy tail bound", out["max_tail"], None, mode="info"))
    rep.parameters["rotation_endpoint_convention"] = out["rotation_endpoint_convention"]


def _suite_degenerate(cfg: SuiteConfig, rep: VerificationReport):
    q = cfg.require_q()
    out = ho.degenerate_module_check(q, cfg.lmax)
    rep.add(Check("the swap intertwines the two sector actions on the (+1, -1) pair",
                  "column symmetry degeneracy", out["column_symmetry_residual"],
                  cfg.tol_identity / 100))
    if q > 0:
        rep.add(Check("endpoint action matches the other sector on the (0, -2) pair",
                      "endpoint intertwiner degeneracy",
                      out["endpoint_unsigned_residual"], cfg.tol_identity / 100))
    else:
        rep.add(Check("negative control: endpoint matching must fail for q < 0",
                      "endpoint intertwiner degeneracy",
                      out["endpoint_unsigned_residual"], 1000 * cfg.tol_identity,
                      mode="min"))


def _suite_koszul(cfg: SuiteConfig, rep: VerificationReport):
    cert = kr.koszul_verify(cfg.n, cfg.d_trunc)
    rep.add(Check("multiplication by (n - t) has kernel rank 0",
                  "length-one resolution of the trivial module",
                  float(cert["kernel_rank"]), 0.0))
    rep.add(Check("cokernel is free of rank 1 with no torsion",
                  "length-one resolution of the trivial module",
                  float(abs(cert["cokernel_free_rank"] - 1) + len(cert["cokernel_torsion"])),
                  0.0))
    rep.add(Check("Smith form certificate (U A V = D, unimodular transforms)",
                  "length-one resolution of the trivial module",
                  0.0 if cert["snf_certified"] else 1.0, 0.0))
    rep.add(Check("augmentation annihilates the image and is onto",
                  "length-one resolution of the trivial module",
                  0.0 if (cert["augmentation_annihilates_image"]
                          and cert["augmentation_onto"]) else 1.0, 0.0))
    ok = (cert["K0"] == {"rank": 1, "torsion": [], "generator": "[1]"}
          and cert["K1"] == {"rank": 1, "torsion": [], "generator": "[u]"})
    rep.add(Check("K-groups are Z [1] in even and Z [u] in odd degree",
                  "K-groups of the free orthogonal dual",
                  0.0 if ok else 1.0, 0.0))
    rep.assumptions.extend(kr.KTHEORY_ASSUMPTIONS)


def _suite_fusion(cfg: SuiteConfig, rep: VerificationReport):
    products = {}

    def fuse(k, m):
        # the checks below ask for 229 distinct products 6303 times
        if (k, m) not in products:
            products[k, m] = kr.fuse(k, m)
        return products[k, m]

    bad = sum(fuse(k, m) != kr.fusion_closed_form(k, m)
              for k in range(11) for m in range(11))
    rep.add(Check("iterated rank-one rule matches the closed form (labels <= 10)",
                  "rank-one fusion rule", float(bad), 0.0))
    assoc_bad = 0
    for a in range(9):
        for b in range(9):
            ab = fuse(a, b)
            for c in range(9):
                lhs = {}
                for j, v in ab.items():
                    for j2, v2 in fuse(j, c).items():
                        lhs[j2] = lhs.get(j2, 0) + v * v2
                rhs = {}
                for j, v in fuse(b, c).items():
                    for j2, v2 in fuse(a, j).items():
                        rhs[j2] = rhs.get(j2, 0) + v * v2
                if lhs != rhs:
                    assoc_bad += 1
    rep.add(Check("fusion is associative (labels <= 8, brute force)",
                  "rank-one fusion rule", float(assoc_bad), 0.0))
    dim_bad = 0
    for k in range(11):
        for m in range(11):
            lhs = kr.dim_classical(cfg.n, k) * kr.dim_classical(cfg.n, m)
            rhs = sum(v * kr.dim_classical(cfg.n, j)
                      for j, v in fuse(k, m).items())
            if lhs != rhs:
                dim_bad += 1
    rep.add(Check(f"classical dimension is a ring homomorphism (n = {cfg.n})",
                  "dimension homomorphism", float(dim_bad), 0.0))
    q = cfg.require_q() if cfg.q is not None else -0.5
    worst = 0.0
    for k in range(11):
        for m in range(11):
            lhs = kr.dim_quantum(q, k) * kr.dim_quantum(q, m)
            rhs = sum(v * kr.dim_quantum(q, j) for j, v in fuse(k, m).items())
            # q-dimensions grow like |q|^(-k), so the residual is relative
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    rep.add(Check(f"quantum dimension is multiplicative (q = {q}, relative)",
                  "dimension homomorphism", worst, cfg.tol_identity))


def _suite_foq(cfg: SuiteConfig, rep: VerificationReport):
    worst = 0.0
    for q in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0):
        worst = max(worst, abs(fo.solve_su2_parameter(fo.canonical_su2_qmatrix(q)) - q))
    rep.add(Check("round trip solve(canonical(q)) = q on the q grid",
                  "canonical 2x2 parameter matrix", worst, 1e-12))
    qm3 = fo.validate_q(np.eye(3))
    rep.add(Check("the 3x3 identity solves to -(3 - sqrt 5)/2",
                  "monoidal equivalence invariant",
                  abs(fo.solve_su2_parameter(qm3) - (-(3 - 5 ** 0.5) / 2)), 1e-12))
    # the defining intertwining of the fundamental matrix, as the two exact
    # coefficient equations for an antidiagonal parameter [[0, a], [b, 0]]
    worst = 0.0
    for q in (0.1, -0.1, 0.5, -0.5, 0.9, -0.9, 1.0, -1.0):
        ent = fo.canonical_su2_qmatrix(q).entries
        a, b = ent[0, 1], ent[1, 0]
        worst = max(worst, abs(a / b + q), abs(-q * b / a - 1.0))
    rep.add(Check("canonical entries satisfy the fundamental intertwining equations",
                  "canonical 2x2 parameter matrix", worst, 1e-12))
    rng = default_rng(cfg.seed)
    mats = [fo.random_valid_qmatrix(rng) for _ in range(50)]
    tau_bad = sum(fo.invariant_pair(m).trace < m.n - 1e-8 for m in mats)
    rep.add(Check("trace invariant is at least the matrix dimension (50 random)",
                  "monoidal equivalence invariant", float(tau_bad), 0.0))
    sample = mats[:14]
    eq = np.array([[fo.monoidally_equivalent(x, y) for y in sample] for x in sample])
    # (e @ e)[x, z] counts the y with x ~ y and y ~ z: each is a transitivity
    # violation unless x ~ z
    e = eq.astype(int)
    viol = int((~eq.diagonal()).sum() + (eq != eq.T).sum() + ((e @ e) * ~eq).sum())
    rep.add(Check("equivalence predicate is an equivalence relation (random sample)",
                  "monoidal equivalence invariant", float(viol), 0.0))
    if cfg.qmatrix is not None:
        qm = _validated_qmatrix(cfg.qmatrix)
        solved = fo.solve_su2_parameter(qm)
        inv = fo.invariant_pair(qm)
        rep.parameters["qmatrix_sign"] = inv.sign
        rep.parameters["qmatrix_trace"] = inv.trace
        rep.parameters["qmatrix_solved_q"] = solved
        equivalent = fo.monoidally_equivalent(qm, fo.canonical_su2_qmatrix(solved))
        rep.add(Check("supplied matrix is equivalent to its solved canonical parameter",
                      "monoidal equivalence invariant",
                      0.0 if equivalent else 1.0, 0.0))


_ALL_PARTS = ("relations", "podles", "lemma1", "lemma2", "lemma3",
              "fredholm", "degenerate", "rotation", "koszul", "fusion", "foq")


def _suite_all(cfg: SuiteConfig, rep: VerificationReport):
    q = cfg.require_q()
    for part in _ALL_PARTS:
        if part == "rotation" and q > 0:
            rep.parameters["rotation_skipped"] = "needs q < 0"
            continue
        sub = run_suite(dataclasses.replace(
            cfg, suite=part, q=None if part in _TAKES_NO_Q else cfg.q,
            qmatrix=cfg.qmatrix if part == "foq" else None))
        for c in sub.checks:
            rep.add(Check(f"{part}: {c.name}", c.anchor, c.value, c.threshold, c.mode))
        for a in sub.assumptions:
            if a not in rep.assumptions:
                rep.assumptions.append(a)
        rep.decay.extend((lab, f"{part}: {fam}", v) for lab, fam, v in sub.decay)


# registry: runner, whether q is required, minimum lmax, claim labels
# certified.  Below its minimum lmax a suite cannot build its spaces or has a
# check with nothing to certify: the relation residuals need a nonempty
# interior (relations 1, lemma1 2, podles 3), the commutator tails a nonempty
# cutoff list (fredholm 8), the endpoint identities lmax >= 2 (lemma3,
# degenerate) and the rotation homotopy a tail measured beyond spin
# min(15, lmax - 2) >= 1, since below lmax 3 that "tail" is the whole
# operator (rotation 3).
SUITES = {
    "relations": (_suite_relations, True, 1,
                  ("quantum SU(2) defining relations",
                   "adjoint pairing of the generator tables")),
    "podles": (_suite_podles, True, 3,
               ("standard Podles sphere relations",
                "sphere generators vs quadratic words",
                "Haar state via the GNS orbit")),
    "lemma1": (_suite_lemma1, True, 2,
               ("adjoint pairing of the rescaled coefficient families",
                "the interpolated action is a *-homomorphism")),
    "lemma2": (_suite_lemma2, True, 0,
               ("uniform coefficient decay in the spin label",)),
    "lemma3": (_suite_lemma3, True, 2,
               ("endpoint matching of the coefficient homotopy",
                "sign factor on the diagonal families")),
    "fredholm": (_suite_fredholm, True, 8,
                 ("truncation-stable index of the bundle swap",
                  "commutator tail compactness proxy")),
    "rotation": (_suite_rotation, True, 3,
                 ("rotation homotopy tail bound",
                  "rotation endpoint block structure")),
    "degenerate": (_suite_degenerate, True, 2,
                   ("column symmetry degeneracy",
                    "endpoint intertwiner degeneracy")),
    "koszul": (_suite_koszul, False, 0,
               ("length-one resolution of the trivial module",
                "K-groups of the free orthogonal dual")),
    "fusion": (_suite_fusion, False, 0,
               ("rank-one fusion rule", "dimension homomorphism")),
    "foq": (_suite_foq, False, 0,
            ("monoidal equivalence invariant", "canonical 2x2 parameter matrix")),
}
SUITES["all"] = (_suite_all, True, max(SUITES[p][2] for p in _ALL_PARTS), ())


# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_freed_heap() -> bool:
    """Fix glibc's allocator thresholds where its dynamic rule tops out.

    The mmap threshold goes to 32 MiB, DEFAULT_MMAP_THRESHOLD_MAX on 64-bit,
    and the trim threshold to twice that, as the dynamic rule keeps them.
    Both are set, because setting either one switches the dynamic rule off
    for both.  Returns whether both mallopt calls succeeded; off glibc it
    sets nothing and returns False.
    """
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
    except (AttributeError, ValueError, OSError):   # no confstr, or no such name
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1
            and mallopt(_M_TRIM_THRESHOLD, 64 << 20) == 1)


def run_suite(config: SuiteConfig) -> VerificationReport:
    """Dispatch a named suite; deterministic for a fixed config.

    The first call in a process fixes glibc's allocator thresholds for the
    whole process (mmap 32 MiB, trim 64 MiB), so that the numpy temporaries
    a suite frees are reused, not returned to the kernel and faulted in
    again; up to 64 MiB of freed heap stays resident until the process
    exits.  Off glibc nothing changes, and importing the package sets
    nothing.
    """
    _keep_freed_heap()
    if config.suite not in SUITES:
        raise UsageError(f"unknown suite {config.suite!r}; see the catalog")
    runner, _, min_lmax, _ = SUITES[config.suite]
    if config.lmax < min_lmax:
        raise UsageError(f"suite {config.suite!r} needs lmax >= {min_lmax}, "
                         f"got {config.lmax}")
    report = VerificationReport(suite=config.suite, parameters=config.echo(),
                                seed=config.seed)
    start = time.perf_counter()
    runner(config, report)
    report.wall_time_ms = (time.perf_counter() - start) * 1e3
    if not report.checks:
        raise UsageError(f"suite {config.suite!r} registered no checks")
    return report


def list_suites() -> list:
    """Catalog of suites: name, whether q is required, minimum lmax, claim labels."""
    out = []
    for name, (_, needs_q, min_lmax, anchors) in SUITES.items():
        if name == "all":
            anchors = tuple(sorted({a for nm, (*_, an) in SUITES.items()
                                    if nm != "all" for a in an}))
        out.append({"suite": name, "needs_q": needs_q, "min_lmax": min_lmax,
                    "anchors": list(anchors)})
    return out
