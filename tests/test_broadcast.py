"""Chart callables broadcast over leading axes.

The batched integrator evaluates one chart's callables on an (m, N)
block of rows: the geodesic spray, every catalog vector field, the
fields the library builds (constant fields, brackets, the kappa-inverse
fields on the frame bundle) and natural lifts to the frame bundle.  The
connection tensors those fields evaluate (`tensor`, and `d_dir` with
points and directions broadcast together) take blocks too.  For
each such callable, the block result must equal the 1-D evaluations
stacked row by row.  Matrix products may
run through different kernels for one row and for a block, so values
agree to a few units of rounding, set from the float64 epsilon.
Each derivative filled in by finite differences evaluates its stencil as
a block: one call on the (..., s, n) stencil points of all its rows, a
single point as a block of one.  The callables differenced here give the
same bits on a (1, s, n) block as on an (m, s, n) block, so the fills'
block results equal the stacked 1-D results exactly.
"""
import numpy as np
import pytest

from affinelab.atlas import Chart, Transition
from affinelab.bundles import tangent_atlas
from affinelab.catalog import default_catalog
from affinelab.connection import ConnChart, ConnectionField
from affinelab.flows import constant_field
from affinelab.frame_bundle import kappa_inverse_field
from affinelab.geodesics import geodesic_field
from affinelab.killing import bracket, natural_lift

ROWS = 7
ULPS = 8 * np.finfo(float).eps
CAT = default_catalog()
MANIFOLDS = CAT.manifold_names()


def _stacked(fn, block, *args):
    return np.stack([np.asarray(fn(row, *args), float) for row in block])


def _assert_rowwise(fn, block, *args):
    got = np.asarray(fn(block, *args), float)
    want = _stacked(fn, block, *args)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=ULPS * max(1.0, np.abs(want).max()))


def _overlap_block(atlas, cid, tid, rng):
    return np.stack([p.coords for p in atlas.overlap_samples(cid, tid, ROWS, rng)])


@pytest.mark.parametrize("manifold", MANIFOLDS)
def test_geodesic_spray_broadcasts(manifold, rng):
    atlas = CAT.atlas(manifold)
    for cname in CAT.connection_names(manifold):
        field = geodesic_field(CAT.connection(manifold, cname))
        for cid in atlas.charts:
            if not field.has_chart(cid):
                continue
            x = np.stack([p.coords for p in atlas.sample_points(cid, ROWS, rng)])
            z = np.concatenate([x, rng.normal(size=x.shape)], axis=-1)
            _assert_rowwise(field.chart_field(cid).value, z)


@pytest.mark.parametrize("manifold", MANIFOLDS)
def test_connection_tensors_broadcast(manifold, rng):
    atlas = CAT.atlas(manifold)
    for cname in CAT.connection_names(manifold):
        conn = CAT.connection(manifold, cname)
        for cid in atlas.charts:
            if not conn.has_chart(cid):
                continue
            cc = conn._chart(cid)
            x = np.stack([p.coords for p in atlas.sample_points(cid, ROWS, rng)])
            u = rng.normal(size=x.shape)
            _assert_rowwise(cc.tensor, x)
            got = cc.d_dir(x, u)
            want = np.stack([cc.d_dir(r, s) for r, s in zip(x, u)])
            np.testing.assert_allclose(got, want, rtol=0, atol=ULPS * max(1.0, np.abs(want).max()))
            # x and u broadcast together: every point against every direction
            got = cc.d_dir(x[:, None, :], u[None, :3, :])
            want = np.stack([[cc.d_dir(r, s) for s in u[:3]] for r in x])
            np.testing.assert_allclose(got, want, rtol=0, atol=ULPS * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("manifold", MANIFOLDS)
def test_contains_fn_broadcasts(manifold, rng):
    atlas = CAT.atlas(manifold)
    for chart in atlas.charts.values():
        # a box three times the sample box, so rows fall on both sides of the boundary
        mid, half = 0.5 * (chart.sample_lo + chart.sample_hi), 1.5 * (chart.sample_hi - chart.sample_lo)
        block = rng.uniform(mid - half, mid + half, size=(4 * ROWS, atlas.dim))
        for margin in (0.0, 0.1):
            got = np.asarray(chart.contains_fn(block, margin))
            want = np.array([bool(chart.contains_fn(row, margin)) for row in block])
            assert got.shape == (len(block),)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("manifold", MANIFOLDS)
def test_transitions_broadcast(manifold, rng):
    atlas = CAT.atlas(manifold)
    for cid, tid in atlas.overlap_pairs():
        tr = atlas.chart(cid).transitions[tid]
        block = _overlap_block(atlas, cid, tid, rng)
        for fn in (tr.map, tr.d, tr.d2):
            _assert_rowwise(fn, block)


@pytest.mark.parametrize("manifold", MANIFOLDS)
def test_tangent_bundle_broadcasts(manifold, rng):
    atlas = CAT.atlas(manifold)
    tm = tangent_atlas(atlas)
    for cid, tid in atlas.overlap_pairs():
        tr = tm.chart(cid).transitions[tid]
        x = _overlap_block(atlas, cid, tid, rng)
        z = np.concatenate([x, rng.normal(size=x.shape)], axis=-1)
        _assert_rowwise(tr.map, z)
        _assert_rowwise(tr.d, z)
        for margin in (0.0, 0.1):
            got = tm.chart(cid).contains_fn(z, margin)
            np.testing.assert_array_equal(got, [tm.chart(cid).contains_fn(row, margin) for row in z])


@pytest.mark.parametrize("manifold", MANIFOLDS)
def test_finite_difference_fills_broadcast(manifold, rng):
    atlas = CAT.atlas(manifold)
    for cid, tid in atlas.overlap_pairs():
        c = atlas.chart(cid)
        fresh = Chart(cid, c.dim, c.contains_fn, c.sample_lo, c.sample_hi)
        fresh.add_transition(tid, Transition(map=c.transitions[tid].map))
        block = _overlap_block(atlas, cid, tid, rng)
        for fn in (fresh.transitions[tid].d, fresh.transitions[tid].d2):
            np.testing.assert_array_equal(fn(block), _stacked(fn, block))
    for cname in CAT.connection_names(manifold):
        conn = CAT.connection(manifold, cname)
        spray = geodesic_field(conn)  # declares no derivatives
        cids = [cid for cid in atlas.charts if conn.has_chart(cid)]
        fd_conn = ConnectionField(atlas, cname, {cid: ConnChart(tensor=conn._chart(cid).tensor)
                                                 for cid in cids})
        for cid in cids:
            x = np.stack([p.coords for p in atlas.sample_points(cid, ROWS, rng)])
            z = np.concatenate([x, rng.normal(size=x.shape)], axis=-1)
            for fn in (spray.chart_field(cid).d, spray.chart_field(cid).d2):
                np.testing.assert_array_equal(fn(z), _stacked(fn, z))
            u = rng.normal(size=x.shape)
            d_dir = fd_conn._chart(cid).d_dir
            np.testing.assert_array_equal(d_dir(x, u), np.stack([d_dir(r, s) for r, s in zip(x, u)]))


def _field_charts(manifold, fields=None):
    atlas = CAT.atlas(manifold)
    if fields is None:
        fields = [CAT.field(manifold, fname) for fname in CAT.field_names(manifold)]
    for field in fields:
        for cid in atlas.charts:
            if field.has_chart(cid):
                yield field, cid


def _built_fields(manifold):
    """The catalog's fields and the fields the library's constructors
    build from them: a constant field and brackets."""
    atlas = CAT.atlas(manifold)
    fields = [CAT.field(manifold, fname) for fname in CAT.field_names(manifold)]
    return fields + [constant_field(atlas, "const", np.arange(1.0, atlas.dim + 1.0))] + [
        bracket(a, b) for a, b in zip(fields, fields[1:])]


@pytest.mark.parametrize("manifold", MANIFOLDS)
def test_vector_fields_broadcast(manifold, rng):
    atlas = CAT.atlas(manifold)
    for field, cid in _field_charts(manifold, _built_fields(manifold)):
        cf = field.chart_field(cid)
        x = np.stack([p.coords for p in atlas.sample_points(cid, ROWS, rng)])
        for fn in (cf.value, cf.d, cf.d2):
            _assert_rowwise(fn, x)


@pytest.mark.parametrize("manifold", MANIFOLDS)
def test_natural_lift_broadcasts(manifold, rng):
    atlas = CAT.atlas(manifold)
    n = atlas.dim
    for field, cid in _field_charts(manifold):
        lift = natural_lift(field).chart_field(cid)
        x = np.stack([p.coords for p in atlas.sample_points(cid, ROWS, rng)])
        g = np.eye(n) + rng.uniform(-0.2, 0.2, size=(ROWS, n, n))
        z = np.concatenate([x, g.reshape(ROWS, n * n)], axis=-1)
        for fn in (lift.value, lift.d):
            _assert_rowwise(fn, z)


@pytest.mark.parametrize("manifold", MANIFOLDS)
def test_kappa_inverse_fields_broadcast(manifold, rng):
    atlas = CAT.atlas(manifold)
    n = atlas.dim
    for cname in CAT.connection_names(manifold):
        conn = CAT.connection(manifold, cname)
        fld = kappa_inverse_field(conn, rng.normal(size=n), rng.normal(size=(n, n)))
        for cid in atlas.charts:
            if not fld.has_chart(cid):
                continue
            cf = fld.chart_field(cid)
            x = np.stack([p.coords for p in atlas.sample_points(cid, ROWS, rng)])
            g = np.eye(n) + rng.uniform(-0.2, 0.2, size=(ROWS, n, n))
            z = np.concatenate([x, g.reshape(ROWS, n * n)], axis=-1)
            for fn in (cf.value, cf.d):
                _assert_rowwise(fn, z)
