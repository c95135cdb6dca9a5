"""Forward-mode automatic differentiation with dual numbers.

A :class:`Dual` carries a value and a tangent (directional derivative).
Both slots may hold scalars or numpy arrays of matching shape, so a whole
heatmap can be pushed through an operator as a single dual with one seeded
tangent direction.

Array code in the package follows one contract: leading axes are a batch,
trailing axes are the event.  The jacobians below rely on it to seed every
requested column at every given point in one batched call of ``f``.

Numerical code elsewhere in the package is written against the small helper
functions below (``where``, ``relu``, ``asum`` ...) which dispatch on the
input type: plain floats/arrays take the fast numpy path, duals propagate
tangents.  Branches (``where``, clipping, bounce selection) carry the tangent
of the chosen branch only, i.e. subgradient semantics at the kink.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Dual",
    "value",
    "tangent",
    "where",
    "relu",
    "clip",
    "absolute",
    "asum",
    "amean",
    "exp",
    "log",
    "log1p",
    "sqrt",
    "stack",
    "jacobian_forward",
    "jacobian_fd",
]


class Dual:
    """Dual number ``value + eps * tangent`` over scalars or numpy arrays.

    Duals do not compare: a branch compares primal values, ``value(x)``.
    """

    __slots__ = ("value", "tangent")

    # keep numpy from absorbing us into object arrays; binary ops with
    # ndarrays are handled by the reflected operators below
    __array_ufunc__ = None

    def __init__(self, value, tangent=0.0):
        self.value = value
        self.tangent = tangent

    def __repr__(self):
        return f"Dual({self.value!r}, {self.tangent!r})"

    # ---- arithmetic -------------------------------------------------
    def __add__(self, other):
        ov, ot = _parts(other)
        return Dual(self.value + ov, self.tangent + ot)

    __radd__ = __add__

    def __sub__(self, other):
        ov, ot = _parts(other)
        return Dual(self.value - ov, self.tangent - ot)

    def __rsub__(self, other):
        ov, ot = _parts(other)
        return Dual(ov - self.value, ot - self.tangent)

    def __mul__(self, other):
        ov, ot = _parts(other)
        return Dual(self.value * ov, self.tangent * ov + self.value * ot)

    __rmul__ = __mul__

    def __truediv__(self, other):
        ov, ot = _parts(other)
        inv = 1.0 / ov
        return Dual(self.value * inv, (self.tangent * ov - self.value * ot) * inv * inv)

    def __rtruediv__(self, other):
        ov, ot = _parts(other)
        inv = 1.0 / self.value
        return Dual(ov * inv, (ot * self.value - ov * self.tangent) * inv * inv)

    def __neg__(self):
        return Dual(-self.value, -self.tangent)

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("dual powers must be plain numbers")
        return Dual(self.value ** p, p * self.value ** (p - 1) * self.tangent)

    def __abs__(self):
        sign = np.sign(self.value)
        return Dual(self.value * sign, self.tangent * sign)

    # ---- array plumbing ----------------------------------------------
    def __getitem__(self, idx):
        t = self.tangent[idx] if isinstance(self.tangent, np.ndarray) else self.tangent
        return Dual(self.value[idx], t)

    def reshape(self, *shape):
        t = self.tangent
        if isinstance(t, np.ndarray):
            t = t.reshape(*shape)
        return Dual(self.value.reshape(*shape), t)

    @property
    def shape(self):
        return np.shape(self.value)


def _parts(x):
    if isinstance(x, Dual):
        return x.value, x.tangent
    return x, 0.0


# ---- dispatching helpers (fast path for floats/ndarrays) --------------


def value(x):
    """Primal value of ``x`` (identity for non-duals)."""
    return x.value if isinstance(x, Dual) else x


def tangent(x):
    return x.tangent if isinstance(x, Dual) else 0.0


def where(cond, a, b):
    """Select ``a`` where ``cond`` else ``b``; tangent follows the winner.

    A scalar ``cond`` returns ``a`` or ``b`` itself, without a trip through
    ``np.where``.
    """
    if isinstance(cond, (bool, np.bool_)):
        return a if cond else b
    if isinstance(a, Dual) or isinstance(b, Dual):
        av, at = _parts(a)
        bv, bt = _parts(b)
        return Dual(np.where(cond, av, bv), np.where(cond, at, bt))
    return np.where(cond, a, b)


def relu(x):
    """max(x, 0); a float array with no sign bit set (no negative, no -0.0)
    is returned as it is, not copied."""
    if isinstance(x, Dual):
        keep = x.value > 0
        return Dual(np.where(keep, x.value, 0.0), np.where(keep, x.tangent, 0.0))
    if isinstance(x, np.ndarray) and x.dtype.kind == "f" and not np.signbit(x).any():
        return x
    return np.maximum(x, 0.0)


def clip(x, lo, hi):
    return where(value(x) < lo, lo + 0.0 * x, where(value(x) > hi, hi + 0.0 * x, x))


def absolute(x):
    return abs(x) if isinstance(x, Dual) else np.abs(x)


def asum(x, axis=None):
    # np.add.reduce is what np.sum runs, minus its Python dispatch layer
    if isinstance(x, Dual):
        t = np.broadcast_to(x.tangent, np.shape(x.value))
        return Dual(np.add.reduce(x.value, axis=axis), np.add.reduce(t, axis=axis))
    return np.add.reduce(x, axis=axis)


def amean(x, axis=None):
    total = asum(x, axis)
    return total / (np.size(value(x)) // np.size(value(total)))


def exp(x):
    if isinstance(x, Dual):
        e = np.exp(x.value)
        return Dual(e, e * x.tangent)
    return np.exp(x)


def log(x):
    return Dual(np.log(x.value), x.tangent / x.value) if isinstance(x, Dual) else np.log(x)


def log1p(x):
    return Dual(np.log1p(x.value), x.tangent / (1.0 + x.value)) if isinstance(x, Dual) else np.log1p(x)


def sqrt(x):
    if isinstance(x, Dual):
        s = np.sqrt(x.value)
        return Dual(s, 0.5 * x.tangent / s)
    return np.sqrt(x)


def stack(xs, axis=-1):
    """``np.stack`` for values and duals, by default along a new last axis; a dual iff any is."""
    vals = np.stack([np.asarray(value(x), dtype=float) for x in xs], axis=axis)
    if not any(isinstance(x, Dual) for x in xs):
        return vals
    shape = np.shape(value(xs[0]))
    return Dual(vals, np.stack([np.broadcast_to(tangent(x), shape) for x in xs], axis=axis))


# ---- jacobians ---------------------------------------------------------


def _seeds(n, cols):
    """(k, n) unit rows of the identity, one per requested input index."""
    index = np.arange(n) if cols is None else np.asarray(list(cols))
    return (index[:, None] == np.arange(n)).astype(float)


def jacobian_forward(f, x, cols=None):
    """Jacobians of ``f`` at the points ``x`` by forward mode, shape (..., m, k).

    ``f`` maps ``(..., n)`` to ``(..., m)`` and ``x`` is ``(..., n)``, leading
    axes a batch.  One call on a dual holding k C-ordered copies of each
    point, each seeded with one unit tangent, gives all k columns.  ``cols``
    picks the input indices (useful for sampling pixels of large heatmaps).
    """
    x = np.asarray(x, dtype=float)
    seeds = _seeds(x.shape[-1], cols)
    copies = np.repeat(x[..., None, :], len(seeds), axis=-2)
    out = f(Dual(copies, np.broadcast_to(seeds, copies.shape).copy()))
    return np.array(np.broadcast_to(tangent(out), np.shape(value(out))), dtype=float).swapaxes(-1, -2)


def jacobian_fd(f, x, h=1e-4, cols=None):
    """Central finite-difference Jacobians (..., m, k), the oracle for forward mode.

    ``f`` and ``x`` are as above; the k stencils at all points take two calls,
    on ``x + h*E`` and ``x - h*E`` for the (k, n) unit rows ``E``.  Truncation
    error is O(h^2); keep probe points at least ``h`` away from any branch
    boundary or the stencil straddles the kink.
    """
    x = np.asarray(x, dtype=float)[..., None, :]
    step = h * _seeds(x.shape[-1], cols)
    fp = np.asarray(f(x + step), dtype=float)
    fm = np.asarray(f(x - step), dtype=float)
    return ((fp - fm) / (2.0 * h)).swapaxes(-1, -2)


def max_relative_error(j_ref, j_test):
    """max |a-b| / max(1, |a|) per Jacobian (last two axes); the acceptance comparator."""
    j_ref = np.asarray(j_ref, dtype=float)
    j_test = np.asarray(j_test, dtype=float)
    denom = np.maximum(1.0, np.abs(j_ref))
    return np.max(np.abs(j_ref - j_test) / denom, axis=(-2, -1))


def softplus(x):
    """log(1 + exp(x)) in a form stable for large |x| and dual-friendly."""
    return relu(x) + log1p(exp(-absolute(x)))

