"""Identity catalog and verification harness.

Each identity pairs two independently computed sides (series vs series, or
series vs quadrature), each a Side, applies the combined absolute/relative
tolerance rule and produces an IdentityReport.  The combined rule matters
because several identities have sides that legitimately approach zero, where
relative error is meaningless.  Every arm reads its parameters by _param.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Mapping

from . import bilateral, classical, quadrature
from .bilateral import _product_model, _sum_pairs
from .classical import OslerParams
from .errors import InvalidGrid, InvalidParams, QsincError
from .qcore import (
    BaileyParams,
    MultibasicParams,
    QParams,
    SeriesParams,
    Side,
    _binomial_factor,
    _cpow,
    qpoch_inf,
    theta_product,
)


class IdentityId(Enum):
    """Every verifiable identity in the catalog."""

    Main = "main"
    Symmetric = "symmetric"
    QBinomialForm = "qbinomial"
    Osler = "osler"
    ClassicalSumInt = "classical-sum-int"
    AppellLerch = "appell-lerch"
    Invariance = "invariance"
    Fourier = "fourier"
    WeightedM = "weighted"
    Bailey = "bailey"
    BaileyBinomial = "bailey-binomial"
    Multibasic = "multibasic"
    FunctionalEq1 = "functional-eq1"
    FunctionalEq2 = "functional-eq2"
    BaseIntegral = "base-integral"
    TripleProduct = "triple-product"
    PoissonVanishing = "poisson"


# Default tolerances: each extra numerical layer costs about one digit.
_SERIES_TOL = 1e-8
_QUAD_TOL = 1e-7
_CLASSICAL_TOL = 1e-6

# The identity table: each IdentityId's arm, default tolerance and catalog
# description, registered once by the _arm decorator on the arm.
_IDENTITIES: dict[IdentityId, tuple[Callable, float, str]] = {}


def _arm(ident: IdentityId, tol: float, description: str):
    def register(arm: Callable) -> Callable:
        _IDENTITIES[ident] = (arm, tol, description)
        return arm
    return register


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking one identity at one parameter point.

    lhs_diag and rhs_diag are the sides' Side.diagnostics(); a point whose
    sides were not computed has only a status and a reason, in lhs_diag.
    """

    id: IdentityId
    params: dict[str, Any]
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    lhs_diag: dict[str, Any] = field(default_factory=dict)
    rhs_diag: dict[str, Any] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def rule(self) -> str:
        """The deciding pass rule: "abs" when abs_err <= tol, else "rel"."""
        return "abs" if self.abs_err <= self.tol else "rel"


def make_report(ident: IdentityId, params: Mapping[str, Any], lhs: complex,
                rhs: complex, tol: float, lhs_diag=None, rhs_diag=None,
                elapsed: float = 0.0, *, status: str | None = None,
                reason: str = "") -> IdentityReport:
    """Compare two side values: pass when abs_err <= tol, or when
    rel_err <= tol and a side exceeds tol.

    A status ("inconclusive", "invalid_params") marks a point whose sides
    were not computed: it fails with infinite errors, and lhs_diag holds
    the status and the reason.
    """
    lhs, rhs = complex(lhs), complex(rhs)
    if status is None:
        abs_err = abs(lhs - rhs)
        scale = max(abs(lhs), abs(rhs))
        rel_err = abs_err / scale if scale > 0.0 else 0.0
        passed = abs_err <= tol or (scale > tol and rel_err <= tol)
    else:
        abs_err = rel_err = math.inf
        passed = False
        lhs_diag = {"status": status, "reason": reason}
    return IdentityReport(id=ident, params=dict(params), lhs=lhs, rhs=rhs,
                          abs_err=abs_err, rel_err=rel_err, tol=tol,
                          passed=passed, lhs_diag=lhs_diag or {},
                          rhs_diag=rhs_diag or {}, elapsed=elapsed)


def _param(params: Mapping[str, Any], name: str, default: Any = None,
           kind: type = complex, lo: float = -math.inf,
           hi: float = math.inf) -> Any:
    """params[name], or default, as a finite number of kind: complex, as
    given, not cast; float, in the open interval (lo, hi); or int.  Any
    other value, a missing one included, is InvalidParams."""
    value = params.get(name, default)
    if value is None:
        raise InvalidParams(f"missing parameter {name}")
    # The builtin types first: an ABC check costs more than all the rest.
    real = isinstance(value, (int, float)) or isinstance(value, numbers.Real)
    try:
        finite = ((real or isinstance(value, (complex, numbers.Complex)))
                  and cmath.isfinite(value))
    except OverflowError:  # an int past the float range
        finite = False
    if kind is complex and finite:
        return value
    if kind is float and real and finite and lo < value < hi:
        return float(value)
    if kind is int and real and finite and float(value).is_integer():
        return int(value)
    raise InvalidParams(
        f"need real {lo:g} < {name} < {hi:g}, got {value}" if kind is float
        else f"{name} must be an integer, got {value}" if kind is int
        else f"{name} must be a finite number, got {value}")


def _qparams(params: Mapping[str, Any], binomial: bool = False) -> QParams:
    """The base pair (p, q); for the q-binomial arms (binomial), the pair
    (p, q = p^alpha) of reals 0 < alpha, p < 1."""
    if binomial:
        alpha, p = (_param(params, k, kind=float, lo=0.0, hi=1.0)
                    for k in ("alpha", "p"))
        q = p ** alpha
    else:
        p, q = _param(params, "p"), _param(params, "q")
    return QParams(p=p, q=q,
                   allow_extreme=bool(params.get("allow_extreme", False)))


def _series_params(params: Mapping[str, Any],
                   z_default: complex | None = None) -> SeriesParams:
    return SeriesParams(z=_param(params, "z", z_default), qp=_qparams(params),
                        a=_param(params, "a", 0.0), b=_param(params, "b", 0.0))


def verify(ident: IdentityId, params: Mapping[str, Any],
           tol: float | None = None) -> IdentityReport:
    """Evaluate both sides of one identity and report the comparison.

    Every sum and integral is computed to the one target precision
    eps = min(tol/100, 1e-10); a tol that is not positive and finite is
    InvalidParams, before either side runs, as for the CLI's --tol, and so
    is a parameter that is not a finite number of its kind (_param).
    InvalidParams (violated hypotheses) propagates to the caller; numerical
    failures (no convergence, quadrature failure) yield an inconclusive
    report with passed=False and the failure reason in the diagnostics.
    """
    if tol is None:
        tol = DEFAULT_TOL[ident]
    if not 0.0 < tol < math.inf:
        raise InvalidParams(f"tol must be positive and finite, got {tol}")
    eps = min(tol / 100.0, 1e-10)
    start = time.perf_counter()
    try:
        lhs, rhs = _IDENTITIES[ident][0](params, eps)
    except InvalidParams:
        raise
    except QsincError as exc:
        return make_report(ident, params, 0.0, 0.0, tol,
                           elapsed=time.perf_counter() - start,
                           status="inconclusive",
                           reason=f"{type(exc).__name__}: {exc}")
    return make_report(ident, params, lhs.value, rhs.value, tol,
                       lhs.diagnostics(), rhs.diagnostics(),
                       elapsed=time.perf_counter() - start)


# --- arms: each returns the (lhs, rhs) Sides of its identity --------------

@_arm(IdentityId.Main, _QUAD_TOL,
      "bilateral product series equals its companion dt/t integral")
def _arm_main(params, eps):
    sp = _series_params(params)
    rhs = quadrature.main_integral(sp, eps)  # checks Re z > 0 first
    return bilateral.main_series(sp, eps), rhs


@_arm(IdentityId.Symmetric, _QUAD_TOL,
      "symmetric form: sum over Z equals integral over R")
def _arm_symmetric(params, eps):
    sp = _series_params(params)
    return (bilateral.symmetric_series(sp, eps),
            quadrature.symmetric_integral(sp, eps))


@_arm(IdentityId.QBinomialForm, _QUAD_TOL,
      "q-binomial rewriting of the symmetric form")
def _arm_qbinomial(params, eps):
    # [a; b + alpha x]_p over the theta denominator in base q = p^alpha:
    # the multibasic sum and integral with the one factor (p, a, b).
    a, b, z = (_param(params, k) for k in ("a", "b", "z"))
    qp = _qparams(params, binomial=True)
    mp = MultibasicParams(factors=((qp.p, a, b),), q=qp.q, z=z)
    return (bilateral.multibasic_series(mp, eps),
            quadrature.multibasic_integral(mp, eps))


@_arm(IdentityId.Osler, _CLASSICAL_TOL,
      "generalized binomial sum on the unit circle vs closed form")
def _arm_osler(params, eps):
    op = OslerParams(a=_param(params, "a", kind=float),
                     b=_param(params, "b", 0.0, float),
                     alpha=_param(params, "alpha", kind=float),
                     theta=_param(params, "theta", 0.0, float))
    v = cmath.exp(1j * op.theta)
    return (classical.osler_sum(op, eps),
            Side((1.0 / op.alpha) * (1.0 + v) ** op.a, "closed-form"))


@_arm(IdentityId.ClassicalSumInt, _CLASSICAL_TOL,
      "classical binomial-power sum equals integral")
def _arm_classical_sum_int(params, eps):
    a = _param(params, "a", kind=float, lo=0.0)
    alpha = _param(params, "alpha", kind=float)
    l = _param(params, "l", kind=int)
    if l < 1:
        raise InvalidParams(f"need l >= 1, got {l}")
    if not 0.0 < alpha <= 2.0 / l:
        raise InvalidParams(f"need 0 < alpha <= 2/l = {2.0 / l}, got {alpha}")
    return (classical.classical_sum(a, alpha, l, eps),
            classical.classical_integral(a, alpha, l, eps))


@_arm(IdentityId.AppellLerch, _SERIES_TOL,
      "p=q^2 specialization equals the Appell-Lerch form")
def _arm_appell_lerch(params, eps):
    a, q = (complex(_param(params, k)) for k in ("a", "q"))
    qp = QParams(p=q * q, q=q)
    rhs = bilateral.appell_lerch_rhs(a, q, eps)  # rejects a = 0 before q^2/a
    sp = SeriesParams(qp=qp, a=q * q / a, b=a * q * q, z=1.0)
    return bilateral.main_series(sp, eps), rhs


@_arm(IdentityId.Invariance, 1e-9,
      "symmetric series depends only on b/z and a*z")
def _arm_invariance(params, eps):
    sp = _series_params(params)
    c = complex(_param(params, "c", 1.3 + 0.4j))
    if c == 0:
        raise InvalidParams("move factor c must be nonzero")
    moved = replace(sp, a=sp.a / c, b=sp.b * c, z=sp.z * c)
    return (bilateral.symmetric_series(sp, eps),
            bilateral.symmetric_series(moved, eps))


@_arm(IdentityId.Fourier, _CLASSICAL_TOL,
      "Fourier transform equals the sinh-kernel series")
def _arm_fourier(params, eps):
    y = _param(params, "y", kind=float)
    sp = _series_params(params, z_default=1.0)
    return (quadrature.fourier_integral(sp, y, eps),
            bilateral.fourier_series_side(sp, y, eps))


@_arm(IdentityId.WeightedM, _QUAD_TOL,
      "q^(mx)-weighted integral equals the weighted sum")
def _arm_weighted(params, eps):
    m = _param(params, "m", kind=int)
    sp = _series_params(params, z_default=1.0)
    return (bilateral.weighted_series(sp, m, eps),
            quadrature.weighted_integral(sp, m, eps))


@_arm(IdentityId.Bailey, _SERIES_TOL,
      "four-product bilateral transformation, left vs right")
def _arm_bailey(params, eps):
    a1, a2, b1, b2, z = (_param(params, k)
                         for k in ("a1", "a2", "b1", "b2", "z"))
    bp = BaileyParams(qp=_qparams(params), a1=a1, a2=a2, b1=b1, b2=b2, z=z)
    return (bilateral.bailey_series(bp, "left", eps),
            bilateral.bailey_series(bp, "right", eps))


@_arm(IdentityId.BaileyBinomial, _SERIES_TOL,
      "q-binomial form of the four-product transformation")
def _arm_bailey_binomial(params, eps):
    qp = _qparams(params, binomial=True)
    a1, b1, a2, b2 = (_param(params, k) for k in ("a1", "b1", "a2", "b2"))
    # sum_n [a1; b1+alpha n]_p [a2; b2+alpha n]_p p^(alpha n(n-1) + theta n)
    # is the four-product sum at the mapped factors and z = p^theta.
    b1p, a1p, c1 = _binomial_factor(qp.p, a1, b1)
    b2p, a2p, c2 = _binomial_factor(qp.p, a2, b2)
    bp = BaileyParams(qp=qp, a1=a1p, a2=a2p, b1=b1p, b2=b2p,
                      z=_cpow(qp.p, _param(params, "theta", 0.0)))
    return (bilateral.bailey_series(bp, "left", eps).scaled(c1 * c2),
            bilateral.bailey_series(bp, "right", eps).scaled(c1 * c2))


def _multibasic_params(params: Mapping[str, Any]) -> MultibasicParams:
    """Factor groups (p_j, a_j, b_j), j = 1, 2, ..., read for as long as any
    key of the group is given; a partly given group is InvalidParams."""
    groups = []
    for j in itertools.count(1):
        names = (f"p{j}", f"a{j}", f"b{j}")
        if not any(name in params for name in names):
            break
        groups.append(tuple(_param(params, name) for name in names))
    factors, z = tuple(groups), _param(params, "z", 1.0)
    if "q" in params:
        return MultibasicParams(factors=factors, q=_param(params, "q"), z=z)
    return MultibasicParams.from_alpha_sum(
        factors, _param(params, "alpha_sum", kind=float, lo=0.0, hi=1.0), z)


@_arm(IdentityId.Multibasic, _CLASSICAL_TOL,
      "multibasic q-binomial sum equals integral")
def _arm_multibasic(params, eps):
    mp = _multibasic_params(params)
    return (bilateral.multibasic_series(mp, eps),
            quadrature.multibasic_integral(mp, eps))


@_arm(IdentityId.FunctionalEq1, 1e-9,
      "contiguous relation in b: f(a,b,z)=f(a,bp,z)-b f(a,bp,qz)")
def _arm_functional_eq1(params, eps):
    sp = _series_params(params)
    p, q = sp.qp.p, sp.qp.q
    t1 = bilateral.main_series(replace(sp, b=sp.b * p), eps)
    t2 = bilateral.main_series(replace(sp, b=sp.b * p, z=sp.z * q), eps)
    return bilateral.main_series(sp, eps), t1 + t2.scaled(-sp.b)


@_arm(IdentityId.FunctionalEq2, 1e-9,
      "contiguous relation in a: f(a,b,z)=f(ap,b,z)-a f(ap,b,z/q)")
def _arm_functional_eq2(params, eps):
    sp = _series_params(params)
    p, q = sp.qp.p, sp.qp.q
    t1 = bilateral.main_series(replace(sp, a=sp.a * p), eps)
    t2 = bilateral.main_series(replace(sp, a=sp.a * p, z=sp.z / q), eps)
    return bilateral.main_series(sp, eps), t1 + t2.scaled(-sp.a)


@_arm(IdentityId.BaseIntegral, 1e-10,
      "base dt/t integral equals (q;q)_inf ln(1/q)")
def _arm_base_integral(params, eps):
    q = _param(params, "q")
    lhs = quadrature.base_integral(q, eps)  # checks q first
    return lhs, Side(qpoch_inf(q, q) * math.log(1.0 / abs(q)), "product")


@_arm(IdentityId.TripleProduct, 1e-10,
      "triple product equals the bilateral theta sum")
def _arm_triple_product(params, eps):
    z, q = (complex(_param(params, k)) for k in ("z", "q"))
    return (Side(theta_product(z, q), "product"),
            _sum_pairs(*_product_model((), q, z), eps))


@_arm(IdentityId.PoissonVanishing, 1e-8,
      "Fourier transform vanishes at y = 2 pi m")
def _arm_poisson(params, eps):
    m = _param(params, "m", 1, int)
    if m == 0:
        raise InvalidParams("m must be a nonzero integer")
    sp = _series_params(params, z_default=1.0)
    return (quadrature.fourier_integral(sp, 2.0 * math.pi * m, eps),
            Side(0.0, "closed-form"))


CATALOG: dict[IdentityId, str] = {i: _IDENTITIES[i][2] for i in IdentityId}
DEFAULT_TOL: dict[IdentityId, float] = {i: _IDENTITIES[i][1]
                                        for i in IdentityId}


def expand_grid(grid: Mapping[str, list]) -> list[dict[str, Any]]:
    """Cartesian product of a parameter grid, deterministic key order."""
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise InvalidGrid("grid must be nonempty in every dimension")
    keys = sorted(grid)
    return [dict(zip(keys, combo))
            for combo in itertools.product(*(grid[k] for k in keys))]


def sweep_points(ident: IdentityId, points: list[dict[str, Any]],
                 tol: float | None = None,
                 threads: int = 1) -> tuple[list[IdentityReport], dict[str, Any]]:
    """Run verify over every point; failures are recorded, not raised.

    Reports come back in point order regardless of execution parallelism.
    """
    if not points:
        raise InvalidGrid("point list must be nonempty")

    def run(point: dict[str, Any]) -> IdentityReport:
        try:
            return verify(ident, point, tol=tol)
        except InvalidParams as exc:
            return make_report(
                ident, point, 0.0, 0.0,
                tol if tol is not None else DEFAULT_TOL[ident],
                status="invalid_params", reason=str(exc))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(run, points))
    else:
        reports = [run(point) for point in points]
    finite = [r.rel_err for r in reports if math.isfinite(r.rel_err)]
    summary = {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "max_rel_err": max(finite) if finite else math.inf,
    }
    return reports, summary
