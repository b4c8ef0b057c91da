"""Central finite differences with truncation/roundoff-balanced steps.

First derivatives use h1 = eps^(1/3) * max(1, |x|), second derivatives
h2 = eps^(1/4) * max(1, |x|).  Each derivative has one stencil table,
the offsets of its points from x in steps, and one formula combining
f's values there.  How f is called depends only on x:

- rows of shape (..., n), each with its own step: f is called once on
  the (..., s, n) array of every row's s stencil points, so it must
  broadcast over leading axes;
- one point of shape (n,): f is called point by point in stencil order,
  so one-point callables (a shot of `exp_map`) can be differenced too.

A caller that cares about a chart domain passes the chart's broadcasting
`contains_fn` as `inside`.  It tests every stencil point other than x in
one call, and the first that fails, in (row, stencil) order, raises
StencilLeavesDomain.

`filled` is the library's one place a missing derivative is made: for a
transition (`d`, `d2` from `map`), a field's chart callables (`d`, `d2`
from `value`) and a connection chart (`d_dir` from `tensor`), each
guarded by the owning chart's domain.  Its slots always pass rows, one
point as a block of one, so a filled derivative has the same bits alone
and in a block.
"""
from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from .errors import StencilLeavesDomain

EPS = float(np.finfo(float).eps)
H1 = EPS ** (1.0 / 3.0)
H2 = EPS ** 0.25


def _norm(x: np.ndarray) -> np.ndarray:
    """|x| of each row, from one BLAS dot per row as np.linalg.norm takes
    it of one point, so a row's step has the same bits alone and in a block."""
    x = np.ascontiguousarray(x, float)
    return np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, 0])


def step1(x) -> np.ndarray:
    """The first-derivative step h1 max(1, |x|) of each row of x."""
    return H1 * np.maximum(1.0, _norm(x))


def _values(f: Callable, x: np.ndarray, h: np.ndarray, E: np.ndarray, inside):
    """f at the stencil points x + h E[..., i, :] with the stencil axis
    first, and h shaped to divide f's value at one of them."""
    D = h[..., None, None] * E
    S = x[..., None, :] + D
    if inside is not None:
        bad = D.any(axis=-1) & ~np.asarray(inside(S, 0.0))
        if bad.any():
            p = S.reshape(-1, S.shape[-1])[bad.argmax()]
            raise StencilLeavesDomain(f"stencil point {p} outside chart domain")
    if S.ndim > 2:
        F = np.asarray(f(S), float)
    else:
        F = np.stack([np.asarray(f(p), float) for p in S])
    F = np.moveaxis(F, S.ndim - 2, 0)
    return F, h.reshape(h.shape + (1,) * (F.ndim - 1 - h.ndim))


def jacobian(f: Callable, x, *, inside=None) -> np.ndarray:
    """Jacobian of f at x by central differences, columns stacked; f is
    evaluated at x + h e_0, x - h e_0, x + h e_1, ... in that order."""
    x = np.asarray(x, float)
    E = np.stack([s * e for e in np.eye(x.shape[-1]) for s in (1.0, -1.0)])
    F, h = _values(f, x, step1(x), E, inside)
    return np.moveaxis((F[0::2] - F[1::2]) / (2.0 * h), 0, -1)


def second_derivative(f: Callable, x, *, inside=None) -> np.ndarray:
    """Symmetric second derivative T[..., j, k] = d^2 f / dx_j dx_k at x;
    f is evaluated at x, then for each j at x + h e_j, x - h e_j and
    x + h (±e_j ± e_k) for k < j, signs (+, +), (+, -), (-, +), (-, -)."""
    x = np.asarray(x, float)
    n = x.shape[-1]
    I = np.eye(n)
    E = [-0.0 * I[0]]  # x itself: adding -0.0 keeps its signed zeros
    for j in range(n):
        E += [I[j], -I[j]] + [s * I[j] + t * I[k] for k in range(j)
                              for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    F, h = _values(f, x, H2 * np.maximum(1.0, _norm(x)), np.array(E), inside)
    hh = np.float_power(h, 2)  # rounded as Python rounds a float's h**2
    T = np.zeros(F.shape[1:] + (n, n))
    for j in range(n):
        i = 1 + 2 * j * j  # E[i] = e_j, E[i + 1] = -e_j, then 4 per k < j
        T[..., j, j] = (F[i] - 2.0 * F[0] + F[i + 1]) / hh
        for k in range(j):
            a = i + 2 + 4 * k
            T[..., j, k] = T[..., k, j] = (F[a] - F[a + 1] - F[a + 2] + F[a + 3]) / (4.0 * hh)
    return T


def directional(f: Callable, x, u, *, inside=None) -> np.ndarray:
    """Directional derivative of f at x along u (linear in |u|, zero for
    u = 0); f is evaluated at x + h u, then x - h u."""
    x, u = np.asarray(x, float), np.asarray(u, float)
    nu = _norm(u)
    E = np.stack([u, -u], axis=-2)
    F, h = _values(f, x, step1(x) / np.where(nu > 0.0, nu, 1.0), E, inside)
    return (F[0] - F[1]) / (2.0 * h)


def filled(obj, source: str, inside):
    """A copy of the dataclass `obj` in which each derivative slot it has
    among `d`, `d2` and `d_dir` that is None holds central differences of
    its callable `source`, every stencil point checked by `inside`, the
    owning chart's broadcasting `contains_fn`.

    A filled slot passes rows: a point x goes in as the block [x] and its
    row comes back.  It looks up `source` and the difference function at
    each call, not here, so a wrapper installed on either later (a tracer
    counting calls) sees every call.
    """
    obj = replace(obj)
    if getattr(obj, "d", False) is None:
        obj.d = lambda x: jacobian(getattr(obj, source), [x], inside=inside)[0]
    if getattr(obj, "d2", False) is None:
        obj.d2 = lambda x: second_derivative(getattr(obj, source), [x], inside=inside)[0]
    if getattr(obj, "d_dir", False) is None:
        obj.d_dir = lambda x, u: directional(getattr(obj, source), [x], [u], inside=inside)[0]
    return obj
