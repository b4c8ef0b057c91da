"""The one finite-difference fill: a missing derivative of a transition, a
field's chart callables or a connection chart comes from `numdiff.filled`,
which looks up its difference function and its source callable at each
call, so wrappers installed after construction see every call."""
import numpy as np
import pytest

import affinelab
from affinelab import numdiff
from affinelab.atlas import Atlas, Chart, Point, Transition, all_space, disk_domain
from affinelab.bundles import pack
from affinelab.connection import ConnChart, ConnectionField
from affinelab.errors import StencilLeavesDomain
from affinelab.flows import ChartField, IntegratorConfig, VectorField, _run_block
from affinelab.frame_bundle import Frame, kappa_inverse_family
from test_benchmark_hooks import _load_tracing


def test_traced_fill_counts_every_difference_and_field_call():
    # the tracer swaps numdiff's functions and the chart callables after the
    # catalog exists; a fill that bound either when built would count 0
    catalog = affinelab.Catalog()
    tracer = _load_tracing().Tracer()
    tracer.install(affinelab, catalog)
    try:
        tracer.reset()
        shear = catalog.field("plane", "shear")  # polar chart: `value` only
        cf = shear.chart_field("polar")
        counted, blocks = cf.value, []
        cf.value = lambda x: blocks.append(np.shape(x)) or counted(x)  # uninstall restores it
        p = Point("polar", [1.0, 0.3])
        shear.jac(p)
        shear.hess(p)
    finally:
        tracer.uninstall()
    assert tracer.counts["numdiff.fd_calls"] == 2
    # one call per fill on a block of one row's stencil: jacobian 2n = 4
    # points, second_derivative 1 + 2n + 4 = 9
    assert tracer.counts["flows.field_evals"] == 2
    assert blocks == [(1, 4, 2), (1, 9, 2)]


def _chart():
    return Chart("c", 2, all_space, [-1.0, -1.0], [1.0, 1.0])


def _transition():
    chart = _chart()
    chart.add_transition("c", Transition(map=lambda x: 2.0 * x))
    return chart.transitions["c"]


def _chart_field():
    fld = VectorField(Atlas("a", 2, [_chart()]), "sq", {"c": ChartField(value=lambda x: x * x)})
    return fld.chart_field("c")


def _conn_chart():
    conn = ConnectionField(Atlas("a", 2, [_chart()]), "zero",
                           {"c": ConnChart(tensor=lambda x: np.zeros(np.shape(x)[:-1] + (2, 2, 2)))})
    return conn._chart("c")


@pytest.mark.parametrize("build, source, slot, fd, args", [
    (_transition, "map", "d", "jacobian", ()),
    (_transition, "map", "d2", "second_derivative", ()),
    (_chart_field, "value", "d", "jacobian", ()),
    (_chart_field, "value", "d2", "second_derivative", ()),
    (_conn_chart, "tensor", "d_dir", "directional", ([1.0, 0.0],)),
])
def test_fill_looks_up_difference_and_source_when_called(monkeypatch, build, source, slot, fd,
                                                          args):
    obj = build()
    calls = []
    # a slot passes a point as a block of one row and returns row 0
    monkeypatch.setattr(numdiff, fd,
                        lambda f, x, *u, inside: calls.append(f) or np.array(["differenced"]))

    def swapped(x):
        return x

    monkeypatch.setattr(obj, source, swapped)
    assert getattr(obj, slot)(np.array([0.2, 0.3]), *args) == "differenced"
    assert calls == [swapped]


# -- rows: one call of f on every row's stencil -----------------------------------

def _curved_tensor(x):
    """B_x(v, w) = -<v, w> x / (1 + |x|^2): T[i, j, k] = -delta_jk x_i / (1 + |x|^2)."""
    g = -x / (1.0 + (x * x).sum(-1))[..., None]
    return g[..., :, None, None] * np.eye(2)


def _curved_d_dir(x, u):
    x, u = np.broadcast_arrays(x, u)
    q = 1.0 + (x * x).sum(-1)[..., None]
    dg = -(u / q - 2.0 * x * (x * u).sum(-1)[..., None] / q**2)
    return dg[..., :, None, None] * np.eye(2)


def _curved(d_dir):
    atlas = Atlas("r2", 2, [Chart("c", 2, all_space, [-1.0, -1.0], [1.0, 1.0])])
    return ConnectionField(atlas, "curved", {"c": ConnChart(tensor=_curved_tensor, d_dir=d_dir)})


def test_filled_d_dir_carries_kappa_inverse_rows_as_one_block(rng):
    # the kappa^-1 family's Jacobian calls d_dir on every coordinate direction
    # of every row at once, so the fill from `tensor` differences whole blocks
    rows, N = 10, 6
    starts = [Frame("c", rng.uniform(-1.0, 1.0, 2),
                    np.eye(2) + rng.uniform(-0.2, 0.2, (2, 2))).packed() for _ in range(rows)]
    params = [pack(0.5 * rng.normal(size=2), 0.3 * rng.normal(size=(2, 2))) for _ in range(rows)]
    cfg = IntegratorConfig(step=1e-2)
    eye = np.broadcast_to(np.eye(N), (rows, N, N))
    W_fd, W_exact = (_run_block(kappa_inverse_family(_curved(d_dir)), starts, 1.0, cfg, eye,
                                params=params)[1] for d_dir in (None, _curved_d_dir))
    # central differences in d_dir err by about h1^2 + eps / h1, 7e-11 relative
    # (0.8e-11 to 1.4e-11 measured over four seeds), and the flow carries that into W
    np.testing.assert_allclose(W_fd, W_exact, rtol=0, atol=1e-9 * np.abs(W_exact).max())
    family = kappa_inverse_family(_curved(None))
    alone = [_run_block(family, [z], 1.0, cfg, np.eye(N)[None], params=[q])[1][0]
             for z, q in zip(starts, params)]
    assert W_fd.tobytes() == np.array(alone).tobytes()


@pytest.mark.parametrize("slot, table", [
    ("d", [(0, 1.0, None, 0.0), (0, -1.0, None, 0.0), (1, 1.0, None, 0.0), (1, -1.0, None, 0.0)]),
    ("d2", [(0, 0.0, None, 0.0), (0, 1.0, None, 0.0), (0, -1.0, None, 0.0),
            (1, 1.0, None, 0.0), (1, -1.0, None, 0.0),
            (1, 1.0, 0, 1.0), (1, 1.0, 0, -1.0), (1, -1.0, 0, 1.0), (1, -1.0, 0, -1.0)]),
])
def test_rows_stencil_guard_names_the_first_point_outside_in_row_order(slot, table):
    # rows 2 and 3 sit near the unit circle, where their stencils leave the
    # disk chart; the fill names row 2's first point outside, in stencil order
    disk = Chart("disk", 2, disk_domain(1.0), [-0.5, -0.5], [0.5, 0.5])
    fld = VectorField(Atlas("d", 2, [disk]), "sq", {"disk": ChartField(value=lambda x: x * x)})
    X = np.array([[0.1, 0.2], [-0.3, 0.4], [0.0, 1.0 - 1e-6], [1.0 - 1e-6, 0.0]])
    h = (numdiff.H1 if slot == "d" else numdiff.H2) * max(1.0, float(np.linalg.norm(X[2])))
    stencil = []
    for j, s, k, t in table:
        p = X[2].copy()
        p[j] += s * h
        if k is not None:
            p[k] += t * h
        stencil.append(p)
    first = next(p for p in stencil if np.linalg.norm(p) >= 1.0)
    with pytest.raises(StencilLeavesDomain) as got:
        getattr(fld.chart_field("disk"), slot)(X)
    assert str(got.value) == f"stencil point {first} outside chart domain"
