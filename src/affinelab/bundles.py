"""Derived atlases whose fiber transforms by the base transition Jacobian.

A bundle point is stored flat: the first n entries are base coordinates, the
remaining n*k entries an (n, k) fiber matrix in row-major order.  k = 1
gives the tangent bundle (velocity column), k = n the frame bundle (frame
matrix).  `lift` builds (x, G) -> (f(x), df(x) G), written into one array,
and its Jacobian once, for the bundle transitions and
`killing.natural_lift`.  Bundle tests and transitions take (..., n + n k)
inputs.  A base test family (`partial(f, p)` tests) lifts to one lifted test
family, a map family (`partial(f, p)` maps sharing `d` and `d2`, the torus
shifts) to one lifted map family, and each other distinct base test or
transition lifts once, so a bundle atlas's hop table (`Atlas.hop_targets`)
has the base's families and charts that share one hop in one call.  Each
base atlas has one tangent and one frame atlas, built on first use; a frame
chart also requires |det G| > DET_GUARD.
"""
from __future__ import annotations

from functools import cache, partial

import numpy as np

from .atlas import Atlas, Chart, Transition, _family, _vec

DET_GUARD = 1e-12


def pack(x: np.ndarray, G: np.ndarray) -> np.ndarray:
    x = _vec(x)
    return np.concatenate([x, np.asarray(G, float).reshape(x.shape[:-1] + (-1,))], axis=-1)


def unpack(z: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    z = _vec(z)
    return z[..., :n], z[..., n:].reshape(z.shape[:-1] + (n, k))


def lift_jacobian(J: np.ndarray, d2: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Jacobian of the lift (x, G) -> (f(x), df(x) G) at (x, G), given
    J = df(x) and d2 = d2f(x): [[J, 0], [d2f . G, kron(J, I_k)]] on flat
    (n + n k) states, over the leading axes of G."""
    n, k = G.shape[-2:]
    lead = G.shape[:-2]
    N = n + n * k
    out = np.zeros(lead + (N, N))
    out[..., :n, :n] = J
    # fiber rows vs base columns: d(df(x) G) along e_j = d2f(e_j, .) G
    for j in range(n):
        out[..., n:, j] = (d2[..., :, j, :] @ G).reshape(lead + (n * k,))
    # fiber rows vs fiber columns: df(x) acts column-wise
    out[..., n:, n:] = np.einsum("...ab,cd->...acbd", J, np.eye(k)).reshape(lead + (n * k, n * k))
    return out


def lift(f, df, d2f, n: int, k: int):
    """(value, d) of the lift (x, G) -> (f(x), df(x) G) on flat (..., n + n k)
    rows, from f, its Jacobian df and second derivative d2f: a base
    transition lifts to a bundle transition, a vector field to its natural
    lift (Kobayashi-Nomizu I, VI.1).  `value` writes both parts into one
    new array; given (p, z), it lifts the map family f(p, x)."""

    def value(*args):
        *p, z = args
        lead = z.shape[:-1]
        out = np.empty(z.shape)
        out[..., :n] = f(*p, z[..., :n])
        out[..., n:] = (np.asarray(df(z[..., :n]), float) @ z[..., n:].reshape(lead + (n, k))
                        ).reshape(lead + (n * k,))
        return out

    def d(z):
        x, G = unpack(z, n, k)
        return lift_jacobian(np.asarray(df(x), float), np.asarray(d2f(x), float), G)

    return value, d


def bundle_atlas(base: Atlas, k: int, kind: str, det_guard: float = 0.0) -> Atlas:
    """Atlas of the rank-k column bundle over `base`.

    `det_guard` > 0 additionally requires |det G| above the guard (frame
    bundle).  Sample boxes extend the base box by the fiber box.
    """
    n = base.dim
    fiber, half = (np.eye(n)[:, :k].ravel(), 0.3) if det_guard > 0 else (np.zeros(n * k), 1.0)

    def guarded(inside, z):  # a frame chart also requires |det G| > det_guard
        if det_guard > 0.0:
            inside = inside & ~(np.abs(np.linalg.det(unpack(z, n, k)[1])) <= det_guard)
        return inside

    @cache  # one test per distinct base test, so charts that share it test rows together
    def lifted(base_contains):
        f, p = _family(base_contains)
        if p is not None:  # a family member lifts into the lifted family
            return partial(lifted_family(f), p)
        return lambda z, margin=0.0: guarded(base_contains(z[..., :n], margin), z)

    @cache
    def lifted_family(f):
        return lambda p, z, margin=0.0: guarded(f(p, z[..., :n], margin), z)

    charts = []
    for cid, c in base.charts.items():
        bc = Chart(
            id=cid,
            dim=n + n * k,
            contains_fn=lifted(c.contains_fn),
            sample_lo=np.concatenate([c.sample_lo, fiber - half]),
            sample_hi=np.concatenate([c.sample_hi, fiber + half]),
            priority=c.priority,
        )
        charts.append(bc)

    @cache  # one per base map; a family member lifts into the lifted family
    def lifted_tr(fmap, d, d2):
        value, dz = lift(fmap, d, d2, n, k)
        f, p = _family(fmap)
        return Transition(value if p is None else partial(lifted_maps(f, d), p), dz)

    @cache
    def lifted_maps(f, df):
        """The lift of the map family f(p, x), whose members share df."""
        return lift(f, df, None, n, k)[0]

    out = Atlas(f"{kind}({base.name})", n + n * k, charts)
    for cid, c in base.charts.items():
        for tid, tr in c.transitions.items():
            out.chart(cid).add_transition(tid, lifted_tr(tr.map, tr.d, tr.d2))
    return out


def tangent_atlas(base: Atlas) -> Atlas:
    cached = getattr(base, "_tangent_atlas", None)
    if cached is None:
        cached = bundle_atlas(base, 1, "T")
        base._tangent_atlas = cached
    return cached


def frame_atlas(base: Atlas) -> Atlas:
    cached = getattr(base, "_frame_atlas", None)
    if cached is None:
        cached = bundle_atlas(base, base.dim, "Fr", det_guard=DET_GUARD)
        base._frame_atlas = cached
    return cached
