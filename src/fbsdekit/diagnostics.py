"""Convergence-constant evaluation for the Markovian iteration.

Given the Lipschitz, monotonicity, and growth constants of the FBSDE
coefficients, this module evaluates every constant appearing in the
contraction analysis of the iteration: the auxiliary exponential-sum
functions ``Gamma0``/``Gamma1`` (with their discrete-grid versions; the
sup in ``Gamma1`` is taken in closed form), the step-size dependent
constants ``A1..A5``, ``B1``, ``B2``, ``D1..D3``, the horizon constants
``L0``/``L1``, the growth-recursion functions ``c0``/``c1``/``L2``, and
the iteration-contraction factor ``c2`` (an infimum over a free
parameter ``lambda1``).  ``check_conditions`` bundles the three
sufficient conditions

* ``L0 < 1/e``       (uniform Lipschitz bound across iterations),
* ``c1(L1) < 1``     (uniform linear-growth bound),
* ``c2(L1, L1) < 1`` (contraction of the iteration map),

into one report, so a user can test whether the scheme's convergence
guarantees apply to given coefficient constants.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InvalidArgument

__all__ = [
    "AssumptionConstants",
    "DiagnosticsReport",
    "gamma0",
    "gamma0_disc",
    "gamma1",
    "gamma1_disc",
    "compute_A_constants",
    "compute_D_constants",
    "compute_L0_L1",
    "compute_c_functions",
    "compute_c2",
    "compute_c2_at",
    "z_field_lipschitz_factor",
    "check_conditions",
    "parse_constants",
    "report_to_json",
    "report_to_table",
]

_SERIES_CUTOFF = 1e-8
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class AssumptionConstants:
    """Coefficient constants of the standing regularity assumptions.

    ``k_b`` and ``k_f`` are one-sided monotonicity constants (may be
    negative).  The remaining Lipschitz constants are squared: e.g.
    ``|b(x1,y1,z1)-b(x2,y2,z2)|^2 <= K|dx|^2 + b_y|dy|^2 + b_z|dz|^2``.
    ``Sigma`` bounds the squared diffusion magnitude, ``T`` is the horizon.
    """

    k_b: float
    k_f: float
    K: float
    b_y: float
    b_z: float
    sigma_x: float
    sigma_y: float
    f_x: float
    f_z: float
    g_x: float
    b_0: float
    sigma_0: float
    f_0: float
    g_0: float
    Sigma: float
    T: float

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if math.isnan(value):
                raise InvalidArgument(f"{field.name} must not be NaN")
            if field.name not in ("k_b", "k_f", "T") and value < 0.0:
                raise InvalidArgument(f"{field.name} must be nonnegative")
        if not 0.0 < self.T < math.inf:
            raise InvalidArgument("T must be finite and positive")


@dataclass(frozen=True)
class DiagnosticsReport:
    A1: float
    A2: float
    A3: float
    A4: float
    A5: float
    B1: float
    B2: float
    D1: float
    D2: float
    D3: float
    L0: float
    L1: float
    Lbar: float
    c0_at_L1: float
    c1_at_L1: float
    L2_at_L1: float
    c2_at_L1L1: float
    conditionL0: bool
    conditionC1: bool
    conditionC2: bool
    lambda2: float
    lambda3: float
    lambda1_star: float
    h: float


def gamma0(x):
    """``(e^x - 1) / x`` with the limit value 1 at ``x = 0``.

    Infinite arguments take their limit values (0 at ``-inf``, ``inf`` at
    ``+inf``); these arise when upstream horizon constants overflow.
    """
    x = np.asarray(x, dtype=np.float64)
    small = np.abs(x) < _SERIES_CUTOFF
    safe = np.where(small, 1.0, x)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.where(small, 1.0 + 0.5 * x, np.expm1(safe) / safe)
        out = np.where(x == np.inf, np.inf, out)
        out = np.where(x == -np.inf, 0.0, out)
    return out if out.ndim else float(out)


def gamma0_disc(i, x, h):
    """``((1 + x h)^i - 1) / x`` with the limit value ``i h`` at ``x = 0``."""
    x_arr = np.asarray(x, dtype=np.float64)
    i_arr = np.asarray(i, dtype=np.float64)
    small = np.abs(x_arr) < _SERIES_CUTOFF
    safe = np.where(small, 1.0, x_arr)
    base = 1.0 + safe * h
    with np.errstate(over="ignore", invalid="ignore"):
        # exp(i log1p(xh)) is accurate for tiny x h; fall back to a plain
        # power when 1 + x h <= 0 (log undefined there).
        powered = np.where(
            base > 0.0,
            np.exp(i_arr * np.log1p(np.where(base > 0.0, safe * h, 0.0))),
            np.power(base, i_arr),
        )
        out = np.where(small, i_arr * h, (powered - 1.0) / safe)
    return out if out.ndim else float(out)


def _prod(a, b):
    """Product with the convention ``0 * inf = 0`` (vanishing couplings
    beat overflowing bounds)."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def _exp(x):
    """``math.exp(x)``, with ``inf`` where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _golden_section_min(fn, lo, hi, iters=80):
    """Golden-section minimum of ``fn`` on ``[lo, hi]``: ``(value, argument)``."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
        if b - a < 1e-12 * max(1.0, abs(a)):
            break
    return (fc, c) if fc < fd else (fd, d)


def gamma1(x, y):
    """``sup over 0 < theta < 1`` of ``G(theta) = theta e^(theta x) Gamma0(theta y)``.

    ``G(theta) = (e^(theta (x + y)) - e^(theta x)) / y``, whose derivative
    vanishes at most once: at ``theta* = -log1p(y/x) / y``, or ``-1/x`` when
    ``y = 0``.  As ``G(0) = 0 < G`` on ``(0, 1]``, a ``theta*`` inside
    ``(0, 1)`` is the maximum; the sup is ``max(G(1), G(theta*))``.
    Overflow or NaN gives ``inf``.
    """
    def value(theta):
        with np.errstate(over="ignore", invalid="ignore"):
            return theta * np.exp(theta * x) * gamma0(theta * y)

    best = value(1.0)
    ratio = y / x if x != 0.0 else math.nan
    if -1.0 < ratio < math.inf:
        # log1p(r)/r -> 1 keeps theta* right where y/x underflows to 0
        theta = -1.0 / x if ratio == 0.0 else -math.log1p(ratio) / ratio / x
        if 0.0 < theta < 1.0:
            best = max(best, value(theta))
    return float(best) if math.isfinite(best) else math.inf


def gamma1_disc(n, x, y, h):
    """``max over 0 <= i <= n`` of ``(1 + x h)^i Gamma0^i(y)``."""
    i = np.arange(n + 1, dtype=np.float64)
    base = 1.0 + x * h
    with np.errstate(over="ignore", invalid="ignore"):
        if base > 0.0:
            growth = np.exp(i * np.log1p(x * h))
        else:
            growth = np.power(base, i)
        vals = growth * gamma0_disc(i, y, h)
    return float(np.max(vals))


def default_lambdas(c: AssumptionConstants, h: float):
    """The canonical multiplier choice ``lambda2 = sqrt(h)``,
    ``lambda3 = 1 - (1 + K) sqrt(h) - K h`` (makes ``A3 = 1``)."""
    lambda2 = math.sqrt(h)
    lambda3 = 1.0 - (1.0 + c.K) * math.sqrt(h) - c.K * h
    return lambda2, lambda3


def compute_A_constants(c: AssumptionConstants, h: float):
    """The step-size dependent constants ``A1..A5`` and ``B1``, ``B2``.

    They are taken at the default multipliers, where ``A3`` evaluates to 1.
    """
    if h < 0.0:
        raise InvalidArgument("h must be nonnegative")
    lambda2, lambda3 = default_lambdas(c, h)
    if lambda3 <= 0.0:
        raise InvalidArgument(
            f"lambda3={lambda3} <= 0: step size too large for the default "
            f"multipliers, need (1 + K) sqrt(h) + K h < 1"
        )
    if lambda2 <= 0.0:
        raise InvalidArgument("lambda2 = sqrt(h) must be positive")
    kh = c.K * h
    a1 = 2.0 * c.k_b + c.sigma_x + 1.0 + kh
    a2 = c.b_y + c.sigma_y + kh
    a3 = lambda2 + lambda3 + (1.0 + 1.0 / lambda2) * kh
    a4 = 2.0 * c.k_f + 1.0 + c.f_z / lambda3 + (1.0 + 1.0 / lambda2) * kh
    a5 = c.f_x + (1.0 + 1.0 / lambda2) * kh
    b1 = c.b_0 + c.sigma_0 + kh
    b2 = c.f_0 + c.K * c.f_0 * h
    return a1, a2, a3, a4, a5, b1, b2


def _bar_constants(c: AssumptionConstants):
    """Step-size limits of the ``A``/``B`` constants (h -> 0, lambda3 -> 1)."""
    a1 = 2.0 * c.k_b + c.sigma_x + 1.0
    a2 = c.b_y + c.sigma_y
    a4 = 2.0 * c.k_f + 1.0 + c.f_z
    a5 = c.f_x
    b1 = c.b_0 + c.sigma_0
    b2 = c.f_0
    return a1, a2, a4, a5, b1, b2


def compute_D_constants(c: AssumptionConstants, h: float, lbar: float):
    """Z-coupling constants; all vanish when ``b_z = 0``.

    Zero factors win over an infinite ``lbar`` (which the horizon
    constants produce for strongly coupled inputs), so the collapse
    identities stay exact instead of turning into NaN.
    """
    if c.b_z == 0.0:
        return 0.0, 0.0, 0.0
    factor = (c.b_z * h + c.b_z) * lbar
    return tuple(
        factor * s if s != 0.0 else 0.0
        for s in (c.sigma_x, c.sigma_y, c.sigma_0)
    )


def z_field_lipschitz_factor(c: AssumptionConstants) -> float:
    """Squared-Lipschitz ratio between the gradient field and the value
    field under the differentiation construction:
    ``L(v) = (2 sigma_x + 2 sigma_y + 2 Sigma) L(u)``."""
    return 2.0 * c.sigma_x + 2.0 * c.sigma_y + 2.0 * c.Sigma


def compute_L0_L1(c: AssumptionConstants):
    """Horizon constants controlling the uniform Lipschitz bound."""
    coupling = c.b_y + c.sigma_y + z_field_lipschitz_factor(c) * c.b_z
    gterm = c.g_x + c.f_x * c.T
    exponent = coupling * gterm * c.T + (
        2.0 * c.k_b + 2.0 * c.k_f + 3.0 + c.sigma_x + c.f_z
    ) * c.T
    # constants may be numpy scalars, whose products warn on overflow
    with np.errstate(over="ignore"):
        l0 = coupling * gterm * c.T * math.exp(min(exponent, 709.0))
        if exponent > 709.0:
            l0 = math.inf if coupling * gterm > 0.0 else 0.0
        l1 = gterm * max(
            math.exp(exponent + 1.0) if exponent + 1.0 <= 709.0 else math.inf, 1.0
        )
    return l0, l1


def _c0_bracket(c: AssumptionConstants, a4: float, a5: float):
    """``s -> T (g_x Gamma1(A4 T, s) + A5 T Gamma0(A4 T) Gamma0(s))``, the
    ``c0`` shape shared by ``compute_c_functions`` and ``compute_c2_at``;
    its factors free of ``s`` are computed once."""
    T = c.T
    weight = a5 * T * gamma0(a4 * T)
    return lambda s: T * (c.g_x * gamma1(a4 * T, s) + weight * gamma0(s))


def compute_c_functions(c: AssumptionConstants, growth: float, lbar: float):
    """Continuous (h -> 0) versions of ``c0``, ``c1``, ``L2`` at growth
    coefficient ``growth``, with ``lbar`` the uniform Lipschitz bound."""
    a1, a2, a4, a5, b1, b2 = _bar_constants(c)
    d1, d2, d3 = compute_D_constants(c, 0.0, lbar)
    T = c.T
    c0 = _c0_bracket(c, a4, a5)((a1 + d1) * T + _prod(a2 + d2, growth) * T)
    c1 = _prod(a2 + d2, c0)
    l2 = (
        _prod(_exp(max(a4, 0.0) * T), c.g_0)
        + b2 * T * gamma0(a4 * T)
        + _prod(b1 + d3, c0)
    )
    return c0, c1, l2


def _c2_of_lambda1(c: AssumptionConstants, lip: float, growth: float, lbar: float):
    """``lambda1 -> compute_c2_at(c, lambda1, lip, growth, lbar)``, with the
    factors free of ``lambda1`` computed once."""
    a1, a2, a4, a5, _, _ = _bar_constants(c)
    d1, d2, _ = compute_D_constants(c, 0.0, lbar)
    T = c.T
    with np.errstate(over="ignore"):
        bracket = _c0_bracket(c, a4, a5)
        exponent = ((a1 + d1) + _prod(a2 + d2, growth)) * T
        prefactor = np.float64(max(math.exp(min(exponent, 709.0)), 1.0))
        coupling = a2 + _prod(_prod(c.b_z, lbar), c.sigma_y)
        lip_term = _prod(a2 + c.b_z * z_field_lipschitz_factor(c), lip)

    def c2(lambda1):
        with np.errstate(over="ignore"):
            coefficient = (1.0 + 1.0 / lambda1) * coupling
            arg = a1 + 1.0 + (1.0 + lambda1) * lip_term
            return float(_prod(prefactor * coefficient, bracket(arg * T)))

    return c2


def compute_c2_at(
    c: AssumptionConstants, lambda1: float, lip: float, growth: float, lbar: float
) -> float:
    """Continuous (h -> 0) iteration-contraction factor at fixed lambda1."""
    if lambda1 <= 0.0:
        raise InvalidArgument("lambda1 must be positive")
    return _c2_of_lambda1(c, lip, growth, lbar)(lambda1)


def compute_c2(c: AssumptionConstants, lip: float, growth: float, lbar: float):
    """Infimum of the contraction factor over ``lambda1`` in ``[1e-6, 1e6]``.

    ``log c2`` is convex in ``lambda1``, so one golden-section search over
    ``log lambda1`` finds the infimum.  ``c2`` is a positive constant times
    ``(1 + 1/lambda1)``, whose log is convex, times the bracket at
    ``s = arg T``, which is affine in ``lambda1``.  The bracket is a sum,
    with nonnegative weights, of ``Gamma0(s) = int_0^1 e^(u s) du`` and
    ``Gamma1(A4 T, s)``, a sup over ``theta`` of functions log-convex in
    ``s``; both are log-convex, hence so is the sum.  The lower end is
    evaluated too, and ties go to the smaller ``lambda1``.  Returns
    ``(value, minimizing lambda1)``, with ``compute_c2_at`` exactly
    ``value`` at that ``lambda1``.
    """
    c2 = _c2_of_lambda1(c, lip, growth, lbar)
    value, log_star = _golden_section_min(
        lambda u: c2(math.exp(u)), math.log(1e-6), math.log(1e6)
    )
    lower = c2(1e-6)
    if lower <= value:
        return lower, 1e-6
    return value, math.exp(log_star)


def _default_report_h(c: AssumptionConstants) -> float:
    """A step size compatible with the default multipliers; a ``K`` too
    large to form it raises :class:`InvalidArgument`."""
    if c.K == 0.0:
        h_max = 1.0
    else:
        try:
            root = math.sqrt((1.0 + c.K) ** 2 + 4.0 * c.K)
        except OverflowError:
            raise InvalidArgument(
                f"K={c.K} is too large to form the report step size"
            ) from None
        s = (-(1.0 + c.K) + root) / (2.0 * c.K)
        h_max = s * s
    return min(c.T / 100.0, h_max / 4.0)


def check_conditions(c: AssumptionConstants) -> DiagnosticsReport:
    """Evaluate the three sufficient conditions and all derived constants.

    ``Lbar`` is fixed at ``1.01 * L1`` (any value above ``L1`` is
    admissible; a fixed margin keeps reports reproducible).  The ``A``,
    ``B``, ``D`` constants are reported at step size ``h = T/100``, shrunk
    if needed to keep the default multipliers valid.
    """
    h = _default_report_h(c)
    lambda2, lambda3 = default_lambdas(c, h)
    a1, a2, a3, a4, a5, b1, b2 = compute_A_constants(c, h)
    l0, l1 = compute_L0_L1(c)
    lbar = 1.01 * l1
    d1, d2, d3 = compute_D_constants(c, h, lbar)
    c0_l1, c1_l1, l2_l1 = compute_c_functions(c, growth=l1, lbar=lbar)
    c2_l1, lambda1_star = compute_c2(c, lip=l1, growth=l1, lbar=lbar)
    return DiagnosticsReport(
        A1=a1, A2=a2, A3=a3, A4=a4, A5=a5, B1=b1, B2=b2,
        D1=d1, D2=d2, D3=d3,
        L0=l0, L1=l1, Lbar=lbar,
        c0_at_L1=c0_l1, c1_at_L1=c1_l1, L2_at_L1=l2_l1, c2_at_L1L1=c2_l1,
        conditionL0=bool(l0 < math.exp(-1.0)),
        conditionC1=bool(c1_l1 < 1.0),
        conditionC2=bool(c2_l1 < 1.0),
        lambda2=lambda2, lambda3=lambda3, lambda1_star=lambda1_star, h=h,
    )


_CONSTANT_FIELDS = [field.name for field in fields(AssumptionConstants)]


def parse_constants(text: str) -> AssumptionConstants:
    """Parse a flat ``key = value`` file into :class:`AssumptionConstants`.

    Blank lines and ``#`` comments are ignored.  Unknown, repeated or
    missing keys, and unparseable values, raise :class:`InvalidArgument`
    naming the offender.
    """
    values = {}
    lines = {}  # the line that set each key
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgument(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONSTANT_FIELDS:
            raise InvalidArgument(f"line {lineno}: unknown constant {key!r}")
        first = lines.setdefault(key, lineno)
        if first != lineno:
            raise InvalidArgument(f"line {lineno}: constant {key!r} already set "
                                  f"on line {first}")
        try:
            values[key] = float(val.strip())
        except ValueError:
            raise InvalidArgument(
                f"line {lineno}: cannot parse value for {key!r}: {val.strip()!r}"
            ) from None
    missing = [k for k in _CONSTANT_FIELDS if k not in values]
    if missing:
        raise InvalidArgument(f"missing constants: {', '.join(missing)}")
    return AssumptionConstants(**values)


def report_to_json(report: DiagnosticsReport) -> str:
    return json.dumps(asdict(report), indent=2)


def report_to_table(report: DiagnosticsReport) -> str:
    rows = []
    for key, value in asdict(report).items():
        if isinstance(value, bool):
            rendered = "yes" if value else "no"
        elif isinstance(value, float):
            rendered = f"{value:.9g}"
        else:
            rendered = str(value)
        rows.append((key, rendered))
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
