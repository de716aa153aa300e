"""Benchmark FBSDEs with known decoupling fields.

Each problem packages the forward coefficients ``b`` and ``sigma``, the
driver ``f``, the terminal condition ``g`` with its gradient ``grad_g``,
and (when available) the analytic decoupling fields ``u`` and ``v`` with
``v(t, x) = grad_x u(t, x) sigma(t, x, u(t, x))``.  ``grad_g`` is
required: the forward sweep reads the terminal gradient process as
``grad_g sigma``.  The backward component is scalar throughout; the
gradient process is a ``dim_w`` row vector.

Coefficient callables are vectorized over paths; ``dim_x`` is ``len(x0)``:

* ``b(t, x, y, z)``     with ``x: (n, dim_x)``, ``y: (n,)``,
  ``z: (n, dim_w)`` returning ``(n, dim_x)``,
* ``sigma(t, x, y)``    returning ``(n, dim_x, dim_w)``,
* ``f(t, x, y, z)``     returning ``(n,)``,
* ``g(x)``, ``grad_g(x)`` returning ``(n,)`` and ``(n, dim_x)``.

The decoupled reference advances by one call per fine step,
``ProblemSpec.reference_step(t, x, dw, h)`` with ``x: (n, dim_x)``,
``dw: (n, dim_w)`` and a float step ``h``, returning the Euler state
``x + b(t, x, u, v) h + sigma(t, x, u) dw`` of shape ``(n, dim_x)``, where
``u`` and ``v`` are the analytic fields at ``(t, x)``.  It reads them at
each coarse node with ``ProblemSpec.analytic_fields(t, x)``, both in one
call.

The solver takes its coefficients bound to one step's states,
``ProblemSpec.at(t, x)``: ``b(y, z)``, ``f(y, z)`` and ``diffusion(y)``,
the last an action of ``sigma(t, x, y)`` with ``apply(w)`` (``sigma w``,
shape ``(n, dim_x)``), ``gradient(g)`` (``g^T sigma``, shape
``(n, dim_w)``) and ``finite()``.  By default these compose the callables
above.  A problem may carry a :class:`ClosedForm` that restates the
reference step, ``at`` and the fields and shares work between the
coefficients: example1 and example2 do.  Their ``at`` computes the
state-only terms of the driver once per step, on its first call, and
applies their scalar times identity diffusions elementwise, without
forming the ``(n, dim_x, dim_w)`` matrices.  Each of their formulas of ``b``,
``sigma``, ``f``, ``u`` and ``v`` is written once: the step calls it, and
the public callables evaluate through ``at`` and one function of both
fields, so these closed forms equal the composition by construction.  A
spec built with other ``b``, ``sigma``, ``f``, ``u`` or ``v`` drops its
closed form, so ``closed_form is None`` exactly when the spec composes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .brownian import _finite_real, _positive_horizon, _positive_int
from .diagnostics import AssumptionConstants
from .errors import InvalidArgument

__all__ = [
    "ClosedForm",
    "ProblemSpec",
    "example1_problem",
    "example2_problem",
    "decoupled_test_problem",
    "example1_assumption_constants",
]


@dataclass(frozen=True)
class ClosedForm:
    """A problem's coefficients written out to share work between them.

    ``step(t, x, dw, h)``, ``at(t, x)`` and ``fields(t, x)`` must return,
    bit for bit, what :meth:`ProblemSpec.reference_step`,
    :meth:`ProblemSpec.at` and :meth:`ProblemSpec.analytic_fields` compose
    from ``coefficients``, the ``(b, sigma, f, analytic_u, analytic_v)``
    they restate: the same formulas, the same operand order in every
    product, the same association in every sum, and the association
    ``x + drift * h + sigma dw`` of the step.  ``fields`` gives ``(u, v)``
    in one call.  example1 and example2 keep this by construction, as
    their callables are built from the formulas the closed form calls; a
    closed form written by hand must keep it itself.  A spec built with
    other callables drops it as stale.
    """

    step: Callable
    at: Callable
    fields: Callable
    coefficients: tuple


@dataclass(frozen=True)
class _StepCoefficients:
    """One step's coefficients bound to its time and states."""

    b: Callable
    f: Callable
    diffusion: Callable


class _MatrixDiffusion:
    """The action of diffusion matrices of shape ``(n, dim_x, dim_w)``."""

    def __init__(self, matrices):
        self.matrices = matrices

    def apply(self, w):
        return np.einsum("nic,nc->ni", self.matrices, w)

    def gradient(self, g):
        return np.einsum("ni,nic->nc", g, self.matrices)

    def finite(self):
        return bool(np.all(np.isfinite(self.matrices)))


class _ScaledIdentity:
    """The action of the diffusion ``scale * I``; ``scale`` is ``(n, 1)``."""

    def __init__(self, scale):
        self.scale = scale

    def apply(self, w):
        return self.scale * w

    def gradient(self, g):
        # the matrix contraction sums onto +0.0, so a zero component of
        # the gradient process is +0.0 whatever the sign of the scale
        return g * self.scale + 0.0

    def finite(self):
        return bool(np.all(np.isfinite(self.scale)))

    def matrices(self, dim):
        """The ``(n, dim, dim)`` matrices ``scale * I``."""
        return self.scale[:, :, None] * np.eye(dim)


@dataclass(frozen=True)
class ProblemSpec:
    """A benchmark FBSDE; its state dimension ``dim_x`` is ``len(x0)``."""

    name: str
    dim_w: int
    x0: np.ndarray
    horizon: float
    b: Callable
    sigma: Callable
    f: Callable
    g: Callable
    grad_g: Callable
    analytic_u: Optional[Callable] = None
    analytic_v: Optional[Callable] = None
    # Dropped when the spec is built unless b, sigma, f and analytic_u/v are
    # the callables it restates: ``dataclasses.replace`` of any of them (a
    # variant, a counting or timing wrapper) builds a spec that composes.
    closed_form: Optional[ClosedForm] = None

    def __post_init__(self):
        if self.closed_form is not None and self.closed_form.coefficients != (
            self.b, self.sigma, self.f, self.analytic_u, self.analytic_v
        ):
            object.__setattr__(self, "closed_form", None)

    @property
    def dim_x(self) -> int:
        return self.x0.shape[0]

    @property
    def has_analytic_solution(self) -> bool:
        return self.analytic_u is not None and self.analytic_v is not None

    def reference_step(self, t, x, dw, h):
        """Euler step of the decoupled reference from ``x`` at time ``t``.

        Drift and diffusion are taken at the analytic fields ``u(t, x)``
        and ``v(t, x)``; returns ``x + b h + sigma dw``.
        """
        if self.closed_form is not None:
            return self.closed_form.step(t, x, dw, h)
        u_vals = self.analytic_u(t, x)
        coefficients = self.at(t, x)
        drift = coefficients.b(u_vals, self.analytic_v(t, x))
        return x + drift * h + coefficients.diffusion(u_vals).apply(dw)

    def analytic_fields(self, t, x):
        """``(u(t, x), v(t, x))``, the analytic fields at ``(t, x)``."""
        if self.closed_form is not None:
            return self.closed_form.fields(t, x)
        return self.analytic_u(t, x), self.analytic_v(t, x)

    def at(self, t, x):
        """The coefficients at time ``t`` bound to the states ``x``.

        Returns ``b(y, z)``, ``f(y, z)`` and ``diffusion(y)``, the action
        of ``sigma(t, x, y)`` (see the module docstring).
        """
        if self.closed_form is not None:
            return self.closed_form.at(t, x)
        return _StepCoefficients(
            b=lambda y, z: self.b(t, x, y, z),
            f=lambda y, z: self.f(t, x, y, z),
            diffusion=lambda y: _MatrixDiffusion(
                np.asarray(self.sigma(t, x, y), dtype=np.float64)
            ),
        )


def _closed_form_problem(name, x0, T, g, grad_g, fields, at, step):
    """A problem whose public callables come from its closed form.

    ``fields(t, x)`` gives ``(u, v)``; ``b``, ``sigma`` and ``f`` evaluate
    ``at(t, x)``, ``sigma`` as the matrices of its diffusion.  The
    factory's ``step`` calls the same formulas as ``at`` and ``fields``, so
    the :class:`ClosedForm` equals the composition by construction.
    """
    dim = x0.shape[0]

    def b(t, x, y, z):
        return at(t, x).b(y, z)

    def sigma(t, x, y):
        return at(t, x).diffusion(y).matrices(dim)

    def f(t, x, y, z):
        return at(t, x).f(y, z)

    def analytic_u(t, x):
        return fields(t, x)[0]

    def analytic_v(t, x):
        return fields(t, x)[1]

    return ProblemSpec(
        name=name, dim_w=dim, x0=x0, horizon=T,
        b=b, sigma=sigma, f=f, g=g, grad_g=grad_g,
        analytic_u=analytic_u, analytic_v=analytic_v,
        closed_form=ClosedForm(
            step, at, fields, (b, sigma, f, analytic_u, analytic_v)
        ),
    )


def example1_problem(
    kappa_y: float = 0.1,
    kappa_z: float = 0.1,
    sigma_bar: float = 1.0,
    rate: float = 1.0,
    dim: int = 4,
    horizon: float = 0.25,
    x0_scalar: float = np.pi / 4,
) -> ProblemSpec:
    """Fully coupled drift with Y-coupled diffusion.

    The drift feels both Y and Z (``kappa_y``, ``kappa_z`` set the coupling
    strengths), the diffusion is ``sigma_bar * y`` times the identity, and
    the exact value process is ``exp(-rate (T - t)) sum_i sin(x_i)``.
    """
    d = _positive_int(dim, "dim")
    T = _positive_horizon(horizon)
    kappa_y = _finite_real(kappa_y, "kappa_y")
    kappa_z = _finite_real(kappa_z, "kappa_z")
    sigma_bar = _finite_real(sigma_bar, "sigma_bar")
    rate = _finite_real(rate, "rate")
    x0_scalar = _finite_real(x0_scalar, "x0_scalar")

    def g(x):
        return np.sin(x).sum(axis=1)

    def grad_g(x):
        return np.cos(x)

    def fields(t, x):
        s = g(x)
        return (
            np.exp(-rate * (T - t)) * s,
            np.exp(-2.0 * rate * (T - t)) * sigma_bar * s[:, None] * np.cos(x),
        )

    def drift(y, z):
        return kappa_y * sigma_bar * y[:, None] + kappa_z * z

    def scale(y):
        return (sigma_bar * y)[:, None]

    def at(t, x):
        @functools.cache
        def state_terms():
            s = g(x)
            decay3 = np.exp(-3.0 * rate * (T - t))
            return (
                0.5 * decay3 * sigma_bar**2 * s**3,
                kappa_z * sigma_bar * decay3 * s * np.square(np.cos(x)).sum(axis=1),
            )

        def f_at(y, z):
            cubic, cross = state_terms()
            return -rate * y + cubic - kappa_y * z.sum(axis=1) - cross

        return _StepCoefficients(
            b=drift, f=f_at, diffusion=lambda y: _ScaledIdentity(scale(y))
        )

    def step(t, x, dw, h):
        y, z = fields(t, x)
        return x + drift(y, z) * h + scale(y) * dw

    return _closed_form_problem(
        "example1", np.full(d, x0_scalar), T, g, grad_g, fields, at, step
    )


def example2_problem(horizon: float = 0.25, x0_scalar: float = 1.5) -> ProblemSpec:
    """One-dimensional drift coupled in Z only (no Y in the drift).

    The exact value process is ``sin(t + x)`` and the gradient process is
    ``cos^2(t + x)``; every coefficient is written in ``sin(t + x)`` and
    ``cos(t + x)``.
    """
    T = _positive_horizon(horizon)
    x0_scalar = _finite_real(x0_scalar, "x0_scalar")

    def trig_fields(sin_w, cos_w):
        return sin_w[:, 0], np.square(cos_w)

    def fields(t, x):
        w = t + x
        return trig_fields(np.sin(w), np.cos(w))

    def g(x):
        return fields(T, x)[0]

    def grad_g(x):
        return np.cos(T + x)

    def drift(sin_w, cos_w, z):
        return -0.5 * sin_w * cos_w * (np.square(sin_w) + z)

    def at(t, x):
        w = t + x
        cos_w = np.cos(w)
        return _StepCoefficients(
            b=lambda y, z: drift(np.sin(w), cos_w, z),
            f=lambda y, z: y * z[:, 0] - cos_w[:, 0],
            diffusion=lambda y: _ScaledIdentity(cos_w),
        )

    def step(t, x, dw, h):
        w = t + x
        sin_w, cos_w = np.sin(w), np.cos(w)
        _, v = trig_fields(sin_w, cos_w)
        return x + drift(sin_w, cos_w, v) * h + cos_w * dw

    return _closed_form_problem(
        "example2", np.array([x0_scalar]), T, g, grad_g, fields, at, step
    )


def decoupled_test_problem(
    kind: str, horizon: float = 0.25, value: float = 1.0
) -> ProblemSpec:
    """Degenerate problems with closed-form fields, used as regression oracles.

    ``brownian-linear`` is standard Brownian motion with ``g(x) = x``, so
    the value process is the martingale ``u(t, x) = x`` with unit gradient
    process.  ``constant`` has ``g`` constant, so the value process is that
    constant and the gradient process vanishes.
    """
    T = float(horizon)

    def b(t, x, y, z):
        return np.zeros_like(x)

    def sigma(t, x, y):
        return np.ones((x.shape[0], 1, 1))

    def f(t, x, y, z):
        return np.zeros(x.shape[0])

    terminal = {
        "brownian-linear": (lambda x: x[:, 0].copy(), np.ones_like),
        "constant": (lambda x: np.full(x.shape[0], value), np.zeros_like),
    }
    if kind not in terminal:
        raise InvalidArgument(f"unknown test problem kind {kind!r}")
    g, grad_g = terminal[kind]
    # the fields never move off g: u(t, x) = g(x) and, as sigma = 1,
    # v(t, x) = grad_g(x)
    return ProblemSpec(
        name=kind, dim_w=1, x0=np.array([0.0]), horizon=T,
        b=b, sigma=sigma, f=f, g=g, grad_g=grad_g,
        analytic_u=lambda t, x: g(x), analytic_v=lambda t, x: grad_g(x),
    )


def example1_assumption_constants(
    kappa_y: float = 0.1,
    kappa_z: float = 0.1,
    sigma_bar: float = 1.0,
    rate: float = 1.0,
    dim: int = 4,
    horizon: float = 0.25,
) -> AssumptionConstants:
    """Effective Lipschitz/growth constants for the fully coupled example.

    Operator norms are used for the matrix-valued diffusion, and the
    Y-argument is restricted to the range the truncated fields can take,
    ``|y| <= dim`` (the terminal condition is a sum of ``dim`` sines and
    the exact value process only shrinks it).  Squared Lipschitz constants
    of multi-term coefficients carry the usual term-count factors from
    ``(a+b)^2 <= 2a^2 + 2b^2``.
    """
    d = float(dim)
    y_max = d * max(sigma_bar, 1.0)
    # x-gradient of the driver: (3/2) s^2 |grad s| for the cubic term plus
    # the kappa_z correction, with |s| <= d and |grad s| <= sqrt(d).
    f_x_lip = 1.5 * sigma_bar**2 * d**2 * math.sqrt(d) + kappa_z * sigma_bar * (
        math.sqrt(d) * d + 2.0 * d
    )
    return AssumptionConstants(
        k_b=0.0,
        k_f=-rate,
        K=max(2.0 * kappa_y**2 * sigma_bar**2 * d, 4.0 * rate**2),
        b_y=2.0 * kappa_y**2 * sigma_bar**2 * d,
        b_z=2.0 * kappa_z**2,
        sigma_x=0.0,
        sigma_y=sigma_bar**2,
        f_x=4.0 * f_x_lip**2,
        f_z=4.0 * kappa_y**2 * d,
        g_x=d,
        b_0=0.0,
        sigma_0=0.0,
        f_0=4.0 * (kappa_z * sigma_bar * d * d) ** 2,
        g_0=d**2,
        Sigma=(sigma_bar * y_max) ** 2,
        T=float(horizon),
    )
