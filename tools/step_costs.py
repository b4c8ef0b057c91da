"""Print what one RK4 step, one spray call, one kappa^{-1} value, one step of
`FlowWord.second` and one chart hand-off cost, and the probes' work.

    PYTHONPATH=src python tools/step_costs.py

    step SPACE KIND ROWS US   microseconds per RK4 step of a ROWS-row block on the round
                              sphere: SPACE base (rot_z), tangent (the geodesic spray) or
                              frame (H_lambda), KIND plain or variational (identity
                              columns); rows start near chart a's centre and never hop
    spray MANIFOLD ROWS US    microseconds per call of the geodesic field's chart `value`
                              (the fused sprays of sphere chart a and halfplane, the
                              derived flat one of torus chart t00) on ROWS sampled rows,
                              one row as a 1-D state as a one-row run steps it
    frame MANIFOLD ROWS US    microseconds per call of H_lambda's chart `value`, the
                              kappa^{-1} family with one parameter row (lambda, 0)
                              bound (the `frame` callables of sphere chart a and
                              halfplane), on ROWS sampled frames, one row as a 1-D state
    second MANIFOLD ROWS US   microseconds per RK4 step of `FlowWord.second` (images, df
                              and the second-order columns d2 f(v, .)) of the sphere word
                              Fl[rot_y, -1] at step STEP, as `exp_aut` builds it, on ROWS
                              rows started in chart a
    hop US events E           microseconds in Atlas.hop_targets per call (per hop event)
    probe MANIFOLD steps S events E row_hops H
                              the probes of `dump_rows.py --probes` (its `probe_rows`):
                              RK4 calls, hop searches and rows that changed chart

Times are the best of REPEATS runs; the counts come from this script's own
wrappers on `flows._rk4` and `Atlas.hop_targets`, on for the probe runs only.
"""
import time
import timeit

import numpy as np

import affinelab as al
from affinelab import flows
from affinelab.bundles import pack
from dump_rows import probe_rows

STEP, STEPS, REPEATS = 1e-3, 100, 5
CALLS = 1000  # spray or frame calls per timed run


def step_lines(cat):
    conn = cat.connection("sphere", "round")
    rng = np.random.default_rng(0)
    spaces = (("base", cat.field("sphere", "rot_z"), lambda x: x),
              ("tangent", al.geodesics.geodesic_field(conn), lambda x: pack(x, 0.5 * x[:, None])),
              ("frame", al.standard_horizontal(conn, [1.0, 0.5]),
               lambda x: pack(x, np.eye(2) + 0.2 * np.outer(x, x))))
    cfg = al.IntegratorConfig(step=STEP)
    for name, field, state in spaces:
        for rows in (1, 16):
            starts = [al.Point("a", state(x)) for x in rng.uniform(-0.5, 0.5, (rows, 2))]
            eye = np.eye(starts[0].coords.size)
            for kind, w0 in (("plain", None), ("variational", np.tile(eye, (rows, 1, 1)))):
                run = lambda: flows._run_block(field, starts, STEPS * STEP, cfg, w0)
                s = min(timeit.repeat(run, number=1, repeat=REPEATS))
                yield f"step {name} {kind} {rows} {s / STEPS * 1e6:.1f}"


def call_lines(cat, kind, field_of, fiber, charts):
    """`kind` lines: microseconds per call of the chart `value` of field_of(connection)
    on 1 and 16 rows, sampled base points followed by `fiber` normal components."""
    rng = np.random.default_rng(0)
    for manifold, cname, cid in charts:
        conn = cat.connection(manifold, cname)
        value = field_of(conn).chart_field(cid).value
        for rows in (1, 16):
            xs = np.array([p.coords for p in conn.atlas.sample_points(cid, rows, rng)])
            z = np.concatenate([xs, rng.normal(size=(rows, fiber))], axis=-1)
            z = z[0] if rows == 1 else z
            s = min(timeit.repeat(lambda: value(z), number=CALLS, repeat=REPEATS))
            yield f"{kind} {manifold} {rows} {s / CALLS * 1e6:.2f}"


def spray_lines(cat):
    return call_lines(cat, "spray", al.geodesics.geodesic_field, 2,
                      (("sphere", "round", "a"), ("halfplane", "hyperbolic", "hp"),
                       ("torus", "flat", "t00")))


def frame_lines(cat):
    return call_lines(cat, "frame", lambda conn: al.standard_horizontal(conn, [1.0, 0.5]), 4,
                      (("sphere", "round", "a"), ("halfplane", "hyperbolic", "hp")))


def second_lines(cat):
    atlas = cat.atlas("sphere")
    rng = np.random.default_rng(0)
    word = al.FlowWord(atlas, [(cat.field("sphere", "rot_y"), -1.0)], al.IntegratorConfig(step=STEP))
    steps = round(1.0 / STEP)
    for rows in (1, 10):
        points = [al.Point("a", x) for x in rng.uniform(-0.5, 0.5, (rows, 2))]
        vs = rng.normal(size=(rows, 2))
        s = min(timeit.repeat(lambda: word.second(points, vs), number=1, repeat=REPEATS))
        yield f"second sphere {rows} {s / steps * 1e6:.1f}"


def probe_lines():
    rk4, hop_targets, count = flows._rk4, al.Atlas.hop_targets, {}

    def counted_rk4(*args):
        count["steps"] += 1
        return rk4(*args)

    def timed_hops(self, cids, X, margin):
        t0 = time.perf_counter()
        targets, Y = hop_targets(self, cids, X, margin)
        count["s"] += time.perf_counter() - t0
        count["events"] += 1
        count["row_hops"] += sum(t is not None for t in targets)
        return targets, Y

    flows._rk4, al.Atlas.hop_targets = counted_rk4, timed_hops
    try:
        runs = []
        for _ in range(REPEATS):  # the same work each time
            count.update(steps=0, events=0, row_hops=0, s=0.0)
            lines, last, was = [], None, dict(count)
            for row in probe_rows():  # a block's first row comes after its whole probe
                if row.split()[0] != last:
                    last = row.split()[0]
                    lines.append(f"probe {last}" + "".join(
                        f" {k} {count[k] - was[k]}" for k in ("steps", "events", "row_hops")))
                    was = dict(count)
            runs.append(count["s"])
    finally:
        flows._rk4, al.Atlas.hop_targets = rk4, hop_targets
    return [f"hop {min(runs) / count['events'] * 1e6:.1f} events {count['events']}", *lines]


if __name__ == "__main__":
    cat = al.default_catalog()
    print(*step_lines(cat), *spray_lines(cat), *frame_lines(cat), *second_lines(cat),
          *probe_lines(), sep="\n")
