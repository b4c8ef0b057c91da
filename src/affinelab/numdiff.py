"""Central finite differences with truncation/roundoff-balanced steps.

First derivatives use h1 = eps^(1/3) * max(1, |x|), second derivatives
h2 = eps^(1/4) * max(1, |x|).  Callers that care about chart domains pass
an `inside` predicate; a stencil point failing it raises
StencilLeavesDomain.

Each derivative accepts one point x of shape (n,) or rows of shape
(..., n), which are differenced one at a time (each with its own step)
and stacked, so a missing analytic derivative filled in from these
broadcasts like the analytic ones.  This serves the library's one
derivative policy: `filled` is the one place a missing derivative is
made, for a transition (`d`, `d2` from `map`), a field's chart callables
(`d`, `d2` from `value`) and a connection chart (`d_dir` from `tensor`),
each guarded by the owning chart's domain.
"""
from __future__ import annotations

import functools
from dataclasses import replace
from typing import Callable

import numpy as np

from .errors import StencilLeavesDomain

EPS = float(np.finfo(float).eps)
H1 = EPS ** (1.0 / 3.0)
H2 = EPS ** 0.25


def step1(x: np.ndarray) -> float:
    return H1 * max(1.0, float(np.linalg.norm(x)))


def step2(x: np.ndarray) -> float:
    return H2 * max(1.0, float(np.linalg.norm(x)))


def _guard(inside, pts):
    if inside is None:
        return
    for p in pts:
        if not inside(p):
            raise StencilLeavesDomain(f"stencil point {p} outside chart domain")


def _rowwise(one):
    """Lift a derivative at one point to rows of points.

    `one(f, x, *vecs, **kw)` takes x and the vectors `vecs` of shape (n,)
    (its options are keyword-only); the lifted function also takes them
    broadcast to (..., n), applies `one` row by row and prepends the
    leading axes to its result.
    """

    @functools.wraps(one)
    def lifted(f, x, *vecs, **kw):
        x = np.asarray(x, float)
        if x.ndim < 2 and all(np.ndim(v) < 2 for v in vecs):
            return one(f, x, *vecs, **kw)
        shape = np.broadcast_shapes(x.shape, *(np.shape(v) for v in vecs))
        n = shape[-1]
        rows = [np.broadcast_to(a, shape).reshape(-1, n) for a in (x, *vecs)]
        out = [one(f, *row, **kw) for row in zip(*rows)]
        return np.stack(out).reshape(shape[:-1] + out[0].shape)

    return lifted


@_rowwise
def jacobian(f: Callable, x: np.ndarray, *, inside=None) -> np.ndarray:
    """Jacobian of f at x by central differences, columns stacked; f is
    evaluated at x + h e_0, x - h e_0, x + h e_1, ... in that order."""
    h = step1(x)
    cols = []
    for e in h * np.eye(x.size):
        _guard(inside, (x + e, x - e))
        cols.append((np.asarray(f(x + e), float) - np.asarray(f(x - e), float)) / (2.0 * h))
    return np.stack(cols, axis=-1)


@_rowwise
def second_derivative(f: Callable, x: np.ndarray, *, inside=None) -> np.ndarray:
    """Symmetric second derivative T[..., j, k] = d^2 f / dx_j dx_k at x."""
    n = x.size
    h = step2(x)
    f0 = np.asarray(f(x), float)
    T = np.zeros(f0.shape + (n, n))
    for j in range(n):
        ej = np.zeros_like(x)
        ej[j] = h
        _guard(inside, (x + ej, x - ej))
        T[..., j, j] = (np.asarray(f(x + ej), float) - 2.0 * f0 + np.asarray(f(x - ej), float)) / h**2
        for k in range(j):
            ek = np.zeros_like(x)
            ek[k] = h
            _guard(inside, (x + ej + ek, x + ej - ek, x - ej + ek, x - ej - ek))
            m = (
                np.asarray(f(x + ej + ek), float)
                - np.asarray(f(x + ej - ek), float)
                - np.asarray(f(x - ej + ek), float)
                + np.asarray(f(x - ej - ek), float)
            ) / (4.0 * h**2)
            T[..., j, k] = m
            T[..., k, j] = m
    return T


@_rowwise
def directional(f: Callable, x: np.ndarray, u: np.ndarray, *, inside=None):
    """Directional derivative of f at x along u (linear in |u|)."""
    u = np.asarray(u, float)
    nu = float(np.linalg.norm(u))
    if nu == 0.0:
        return np.zeros_like(np.asarray(f(x), float))
    h = step1(x) / nu
    _guard(inside, (x + h * u, x - h * u))
    return (np.asarray(f(x + h * u), float) - np.asarray(f(x - h * u), float)) / (2.0 * h)


def filled(obj, source: str, inside):
    """A copy of the dataclass `obj` in which each derivative slot it has
    among `d`, `d2` and `d_dir` that is None holds central differences of
    its callable `source`, every stencil point checked by `inside`.

    A filled slot looks up `source` and the difference function at each
    call, not here, so a wrapper installed on either later (a tracer
    counting calls) sees every call.
    """
    obj = replace(obj)
    if getattr(obj, "d", False) is None:
        obj.d = lambda x: jacobian(getattr(obj, source), x, inside=inside)
    if getattr(obj, "d2", False) is None:
        obj.d2 = lambda x: second_derivative(getattr(obj, source), x, inside=inside)
    if getattr(obj, "d_dir", False) is None:
        obj.d_dir = lambda x, u: directional(getattr(obj, source), x, u, inside=inside)
    return obj
