"""The one finite-difference fill: a missing derivative of a transition, a
field's chart callables or a connection chart comes from `numdiff.filled`,
which looks up its difference function and its source callable at each
call, so wrappers installed after construction see every call."""
import numpy as np
import pytest

import affinelab
from affinelab import numdiff
from affinelab.atlas import Atlas, Chart, Point, Transition, all_space
from affinelab.connection import ConnChart, ConnectionField
from affinelab.flows import ChartField, VectorField
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
        p = Point("polar", [1.0, 0.3])
        shear.jac(p)
        shear.hess(p)
    finally:
        tracer.uninstall()
    assert tracer.counts["numdiff.fd_calls"] == 2
    # jacobian 2n = 4 values, second_derivative 1 + 2n + 4 = 9
    assert tracer.counts["flows.field_evals"] == 13


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
    monkeypatch.setattr(numdiff, fd, lambda f, x, *u, inside: calls.append(f) or "differenced")

    def swapped(x):
        return x

    monkeypatch.setattr(obj, source, swapped)
    assert getattr(obj, slot)(np.array([0.2, 0.3]), *args) == "differenced"
    assert calls == [swapped]
