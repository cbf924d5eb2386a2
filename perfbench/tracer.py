"""Outside-in tracing of the wavecontrol layers, for the benchmark's traced run.

The program has no tracing of its own.  ``install`` replaces the public
entry points of ``solver``, ``linear_control``, ``least_squares``,
``nonlinearity``, ``fields`` and ``cli`` with wrappers that record one
span per call: name, start, end, parent span and a few attributes read
from the arguments or the result.  Each name is patched where callers
look it up at call time (``linear_control.solve_forward`` as well as
``solver.solve_forward``, which ``solve_backward`` calls), so every call
is seen exactly once.  Spans stay in memory; ``layer_metrics`` reduces
them at the end.  The solver is single-threaded (the sweep runs
serially), so one stack gives the parent of each span.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

# Leapfrog update per interior node and time step, counted from the
# expressions in solver._march_1d/_march_2d: flops of the Laplacian
# update, of the potential term and of the source term.
MARCH_FLOPS = {1: 6, 2: 8}
POTENTIAL_FLOPS = 3
SOURCE_FLOPS = 2
# Compulsory float64 traffic per interior node and step: read y^n and
# y^{n-1}, write y^{n+1}, plus one read each of A^n and S^n when present.
WORD = 8

UNIT_STEP_TOL = 0.05     # |lambda - 1| at or below this counts as a full Newton step


class Tracer:
    """Span recorder; a span is [id, name, parent, start, end, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, on_call=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            if on_call is not None:
                span[5] = on_call(*args, **kwargs)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if on_result is not None:
                span[5] = on_result(result)
            return result

        return traced

    def dump(self, path):
        """Write the spans as JSON lines (id, name, parent, start, end, attrs)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _march_attrs(grid, potential, source, init):
    return (grid.dim, math.prod(grid.interior_shape), grid.nt,
            potential is not None, source is not None)


def _cg_attrs(result):
    _x, iters, converged, _history = result
    return (iters, bool(converged))


def _ls_attrs(result):
    lams = [rec.lam for rec in result.records if math.isfinite(rec.lam)]
    return (len(result.records) - 1, lams)


def install(tracer: Tracer):
    """Patch the package's layer entry points.

    Returns a function that undoes the patches, and the names that were not
    found (a later version of the package may rename or merge them; their
    layers then read zero).
    """
    from wavecontrol import cli, fields, least_squares, linear_control, solver

    saved, missing = [], []

    def patch_shared(owners, attr, name, **hooks):
        # one wrapper for every module that imported the same function
        found = [owner for owner in owners if hasattr(owner, attr)]
        if len(found) < len(owners):
            missing.append(f"{attr} for {name}")
        if not found:
            return
        wrapped = tracer.wrap(name, getattr(found[0], attr), **hooks)
        for owner in found:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def patch(owner, attr, name, **hooks):
        patch_shared([owner], attr, name, **hooks)

    patch_shared([solver, linear_control], "solve_forward", "solver.march",
                 on_call=_march_attrs)
    patch(linear_control, "solve_backward", "solver.backward")
    patch(linear_control, "terminal_state", "solver.terminal_state")
    patch(least_squares, "residual_field", "solver.residual")

    patch(linear_control, "_gramian_rho", "linear_control.gramian")
    patch(linear_control, "_cg", "linear_control.cg", on_result=_cg_attrs)
    patch(linear_control, "_pcg", "linear_control.cg", on_result=_cg_attrs)
    patch(least_squares, "solve_null_control", "linear_control.null_control")

    patch(least_squares, "line_search", "least_squares.line_search")
    patch(cli, "ls_solve", "least_squares.loop", on_result=_ls_attrs)

    original_builtin = cli.builtin

    def traced_builtin(name, **params):
        # Nonlinearity is frozen: trace g and g' on a copy
        nl = original_builtin(name, **params)
        return dataclasses.replace(nl, g=tracer.wrap("nonlinearity.g", nl.g),
                                   dg=tracer.wrap("nonlinearity.dg", nl.dg))

    saved.append((cli, "builtin", original_builtin))
    cli.builtin = traced_builtin

    field = fields.SpaceTimeField
    patch(field, "__post_init__", "fields.field_init")
    patch(field, "time_reversed", "fields.time_reversed")
    for attr in ("sine_coefficients", "from_sine_coefficients"):
        patch_shared([fields, linear_control], attr, "fields.dst")
    for attr in ("v_norm", "l2_qt", "linf_l1", "linf_lp", "linf_v"):
        patch_shared([fields, least_squares], attr, "fields.norms")
    for attr in ("v_norm", "l2_qt"):
        patch(linear_control, attr, "fields.norms")

    patch(cli, "_sweep_point", "cli.sweep_point")
    for attr in ("_write_csv", "iterate_rows", "method_summary"):
        patch(cli, attr, "cli.report")

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo, missing


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted list."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def layer_metrics(spans) -> dict:
    """Counts, self times, percentiles and ratios per layer, from the spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[2] >= 0:
            child_time[span[2]] += span[4] - span[3]
    by_name = {}
    for span, covered in zip(spans, child_time):
        entry = by_name.setdefault(span[1], {"calls": 0, "total": 0.0, "self": 0.0,
                                             "durations": [], "attrs": []})
        duration = span[4] - span[3]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - covered
        entry["durations"].append(duration)
        entry["attrs"].append(span[5])

    def layer(name):
        entry = by_name.get(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                   "durations": [], "attrs": []})
        entry["durations"].sort()
        return entry

    march = layer("solver.march")
    node_steps = flops = traffic = 0
    for dim, nodes, nt, has_a, has_s in march["attrs"]:
        node_steps += nodes * nt
        flops += nodes * nt * (MARCH_FLOPS[dim] + POTENTIAL_FLOPS * has_a
                               + SOURCE_FLOPS * has_s)
        traffic += nodes * nt * WORD * (3 + has_a + has_s)
    gramian = layer("linear_control.gramian")
    cg = layer("linear_control.cg")
    cg_iters = [a[0] for a in cg["attrs"]]
    loop = layer("least_squares.loop")
    outer = sum(a[0] for a in loop["attrs"])
    lams = [lam for a in loop["attrs"] for lam in a[1]]
    sweep = layer("cli.sweep_point")
    ms = 1e3

    return {
        "solver.march.calls": march["calls"],
        "solver.march.ms_p50": ms * _percentile(march["durations"], 50),
        "solver.march.ms_p99": ms * _percentile(march["durations"], 99),
        "solver.march.self_s": march["self"],
        "solver.march.ns_per_node_step": 1e9 * march["self"] / node_steps if node_steps else 0.0,
        "solver.march.bytes_computed": traffic,
        "solver.march.flops_computed": flops,
        "solver.march.flops_per_byte": flops / traffic if traffic else 0.0,
        "solver.backward.self_s": layer("solver.backward")["self"],
        "solver.residual.calls": layer("solver.residual")["calls"],
        "solver.residual.self_s": layer("solver.residual")["self"],
        "solver.terminal_state.self_s": layer("solver.terminal_state")["self"],
        "linear_control.gramian.applies": gramian["calls"],
        "linear_control.gramian.ms_p50": ms * _percentile(gramian["durations"], 50),
        "linear_control.gramian.ms_p98": ms * _percentile(gramian["durations"], 98),
        "linear_control.gramian.self_s": gramian["self"],
        "linear_control.cg.solves": cg["calls"],
        "linear_control.cg.iters_total": sum(cg_iters),
        "linear_control.cg.iters_max": max(cg_iters, default=0),
        "linear_control.cg.converged_ratio":
            sum(a[1] for a in cg["attrs"]) / cg["calls"] if cg["calls"] else 0.0,
        "linear_control.cg.self_s": cg["self"],
        "linear_control.null_control.self_s": layer("linear_control.null_control")["self"],
        "least_squares.outer_iters": outer,
        "least_squares.unit_step_ratio":
            sum(abs(lam - 1.0) <= UNIT_STEP_TOL for lam in lams) / len(lams) if lams else 0.0,
        "least_squares.line_search.calls": layer("least_squares.line_search")["calls"],
        "least_squares.line_search.self_s": layer("least_squares.line_search")["self"],
        "least_squares.loop.self_s": loop["self"],
        "nonlinearity.g.calls": layer("nonlinearity.g")["calls"],
        "nonlinearity.dg.calls": layer("nonlinearity.dg")["calls"],
        "nonlinearity.g.s": layer("nonlinearity.g")["total"],
        "nonlinearity.dg.s": layer("nonlinearity.dg")["total"],
        "fields.field_init.calls": layer("fields.field_init")["calls"],
        "fields.field_init.s": layer("fields.field_init")["total"],
        "fields.time_reversed.s": layer("fields.time_reversed")["self"],
        "fields.dst.calls": layer("fields.dst")["calls"],
        "fields.dst.s": layer("fields.dst")["total"],
        "fields.norms.s": layer("fields.norms")["self"],
        "cli.sweep.points": sweep["calls"],
        "cli.sweep.point_s_p50": _percentile(sweep["durations"], 50),
        "cli.report.s": layer("cli.report")["total"],
    }
