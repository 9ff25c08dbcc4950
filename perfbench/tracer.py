"""Spans around agreelab's public functions, recorded from outside.

`Tracer.install` replaces each traced name, in every module that binds
it, with a wrapper that records a span: name, start, end, parent span
and operation id.  Spans stay in memory until `write`; `restore` puts
every original binding back.  `layer_metrics` reduces the spans of one
pass to the per-layer metrics listed in `LAYER_METRICS`.

A binding that does not exist (a later version may rename or drop a
function) is skipped and listed in `Tracer.missing`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

# (module, name in that module, span name).  A name is wrapped in every
# module that binds it, because callers look it up where they imported it.
BINDINGS = [
    *[("agreelab._kernels", n, "kernels.det") for n in ("affine_path", "affine_path_numpy")],
    *[("agreelab._kernels", n, "kernels.noise") for n in ("affine_path_noise", "affine_path_noise_numpy")],
    ("agreelab.sim", "rk4_transition", "sim.rk4_transition"),
    *[(m, "integrate", "sim.integrate") for m in ("agreelab.sim", "agreelab.cli", "agreelab.scenarios")],
    *[(m, "run_ensemble", "sim.ensemble") for m in ("agreelab.sim", "agreelab.cli", "agreelab.scenarios")],
    *[(m, "ensemble_member", "sim.member") for m in ("agreelab.sim", "agreelab.cli")],
    *[(m, "integrate_stochastic", "sim.stochastic") for m in ("agreelab.sim", "agreelab.scenarios")],
    ("agreelab.sim", "Trajectory.write_csv", "sim.csv_write"),
    ("agreelab.sim", "Trajectory.read_csv", "sim.csv_read"),
    *[("agreelab.protocol", n, "protocol.build") for n in ("build_classic", "build_2dof")],
    *[(m, n, f"protocol.{n}") for n in ("modal_analysis", "check_agreement", "check_cancellation")
      for m in ("agreelab.protocol", "agreelab.cli")],
    *[(m, "classic_noise_disagreement_variance", "protocol.classic_noise_disagreement_variance")
      for m in ("agreelab.protocol", "agreelab.scenarios")],
    *[("agreelab.protocol", n, f"lti.{n}") for n in ("tf_to_ss", "tf_feedback", "tf_cancel", "tf_zeros", "tf_poles")],
    *[(m, "lyapunov_solve", "numerics.lyapunov") for m in ("agreelab.protocol", "agreelab.lti")],
    *[(m, "poly_roots", "numerics.poly_roots") for m in ("agreelab.protocol", "agreelab.lti")],
    *[(m, "routh_hurwitz_stable", "numerics.routh_hurwitz") for m in ("agreelab.design", "agreelab.cli")],
    *[(m, "modal_transform", "graph.modal_transform")
      for m in ("agreelab.graph", "agreelab.cli", "agreelab.protocol", "agreelab.scenarios")],
    ("agreelab.graph", "find_graphs_by_spectrum", "graph.spectrum_search"),
    *[(m, "design_filter", "design.design_filter") for m in ("agreelab.design", "agreelab.cli")],
    *[(m, "feasible", "design.feasible") for m in ("agreelab.design", "agreelab.cli")],
    *[(m, "load_config", "config.load") for m in ("agreelab.config", "agreelab.cli")],
    *[(m, "run_scenario", "scenarios.run_scenario") for m in ("agreelab.scenarios", "agreelab.cli")],
    ("agreelab.cli", "main", "cli.main"),
]

# (metric, unit, better) for every per-layer metric a traced pass reports.
LAYER_METRICS = [
    ("kernels.det_s", "s", "lower"),
    ("kernels.det_calls", "count", "lower"),
    ("kernels.det_state_steps", "count", "lower"),
    ("kernels.noise_s", "s", "lower"),
    ("kernels.noise_calls", "count", "lower"),
    ("kernels.noise_state_steps", "count", "lower"),
    ("kernels.ns_per_state_step", "ns", "lower"),
    ("kernels.flops", "flop_computed", "lower"),
    ("kernels.bytes", "B_computed", "lower"),
    ("sim.rk4_transition_s", "s", "lower"),
    ("sim.integrate_s", "s", "lower"),
    ("sim.integrate_calls", "count", "lower"),
    ("sim.ensemble_s", "s", "lower"),
    ("sim.ensemble_self_s", "s", "lower"),
    ("sim.member_s", "s", "lower"),
    ("sim.member_calls", "count", "lower"),
    ("sim.paths_integrated", "count", "lower"),
    ("sim.useful_path_ratio", "ratio", "higher"),
    ("sim.csv_write_s", "s", "lower"),
    ("sim.csv_write_rows", "count", "lower"),
    ("sim.csv_write_bytes", "B", "lower"),
    ("sim.csv_read_s", "s", "lower"),
    ("sim.csv_read_rows", "count", "lower"),
    ("protocol.build_s", "s", "lower"),
    ("protocol.build_calls", "count", "lower"),
    ("protocol.nstates_max", "count", "lower"),
    ("protocol.analysis_s", "s", "lower"),
    ("lti.s", "s", "lower"),
    ("lti.calls", "count", "lower"),
    ("numerics.lyapunov_s", "s", "lower"),
    ("numerics.lyapunov_calls", "count", "lower"),
    ("numerics.lyapunov_max_n", "count", "lower"),
    ("numerics.routh_hurwitz_s", "s", "lower"),
    ("numerics.routh_hurwitz_calls", "count", "lower"),
    ("numerics.poly_roots_s", "s", "lower"),
    ("numerics.poly_roots_calls", "count", "lower"),
    ("graph.modal_transform_s", "s", "lower"),
    ("graph.modal_transform_calls", "count", "lower"),
    ("graph.spectrum_search_s", "s", "lower"),
    ("graph.spectrum_search_subsets", "count", "lower"),
    ("graph.spectrum_search_matches", "count", "higher"),
    ("design.design_filter_s", "s", "lower"),
    ("design.design_filter_calls", "count", "lower"),
    ("design.feasible_s", "s", "lower"),
    ("design.feasible_calls", "count", "lower"),
    ("design.feasible_ratio", "ratio", "higher"),
    ("config.load_s", "s", "lower"),
    ("config.load_calls", "count", "lower"),
    ("scenarios.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _kernel_attrs(args, kwargs, result):
    phi, g = args[0], args[1]
    blow = result[1]
    steps = g.shape[0] if blow < 0 else blow
    attrs = {"n": int(phi.shape[0]), "steps": int(steps)}
    if len(args) == 6:  # affine_path_noise(phi, g, bn, w, x0, limit)
        attrs["m"] = int(args[2].shape[1])
    return attrs


def _csv_write_attrs(args, kwargs, result):
    return {"rows": int(args[0].times.size), "bytes": os.path.getsize(args[1])}


# What a span records about its call, from the arguments and the result.
ATTRS = {
    "kernels.det": _kernel_attrs,
    "kernels.noise": _kernel_attrs,
    "sim.ensemble": lambda a, k, r: {"paths": int(r.count)},
    "sim.csv_write": _csv_write_attrs,
    "sim.csv_read": lambda a, k, r: {"rows": int(r.times.size)},
    "protocol.build": lambda a, k, r: {"n": int(r.dynamics.A.shape[0])},
    "numerics.lyapunov": lambda a, k, r: {"n": int(r.shape[0])},
    "graph.spectrum_search": lambda a, k, r: {"n": int(a[0]), "matches": len(r)},
    "design.feasible": lambda a, k, r: {"ok": bool(r)},
}

SPAN_NAME, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_OP, SPAN_ATTRS = range(6)


class Tracer:
    """Records spans for calls through the wrapped bindings."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.spans: list[list] = []
        self.op = None  # operation id stamped on new spans
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[SPAN_START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span[SPAN_END] = time.perf_counter_ns()
                span[SPAN_ATTRS] = {"error": type(e).__name__}
                raise
            finally:
                stack.pop()
            span[SPAN_END] = time.perf_counter_ns()
            if attrs is not None:
                try:
                    span[SPAN_ATTRS] = attrs(args, kwargs, result)
                except Exception as e:  # a changed signature must not break the traced call
                    span[SPAN_ATTRS] = {"attrs_error": f"{type(e).__name__}: {e}"}
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in self.bindings:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[leaf]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def write(self, path, origin_ns: int) -> None:
        """Spans as JSON lines, times in ns from `origin_ns`."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[SPAN_NAME], s[SPAN_START] - origin_ns, s[SPAN_END] - origin_ns,
                                     s[SPAN_PARENT], s[SPAN_OP], s[SPAN_ATTRS]]) + "\n")


def self_times(spans) -> list[float]:
    """Seconds of each span not covered by its children (single thread,
    so children never overlap)."""
    dur = [(s[SPAN_END] - s[SPAN_START]) / 1e9 for s in spans]
    own = list(dur)
    for i, s in enumerate(spans):
        if s[SPAN_PARENT] >= 0:
            own[s[SPAN_PARENT]] -= dur[i]
    return own


def layer_metrics(spans, requested_paths: int) -> dict:
    """Per-layer metrics of one pass (all but trace.overhead_s, which
    needs an untraced pass to compare with)."""
    dur = [(s[SPAN_END] - s[SPAN_START]) / 1e9 for s in spans]
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[SPAN_NAME], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, [])]

    def total(*names, of=dur):
        return float(sum(of[i] for i in idx(*names)))

    def attr_sum(name, key):
        return sum((spans[i][SPAN_ATTRS] or {}).get(key, 0) for i in idx(name))

    def attr_max(name, key):
        return max([(spans[i][SPAN_ATTRS] or {}).get(key, 0) for i in idx(name)], default=0)

    m = {}
    work = {"det": [0, 0.0, 0.0], "noise": [0, 0.0, 0.0]}  # state steps, flops, bytes
    for kind in work:
        for i in idx(f"kernels.{kind}"):
            a = spans[i][SPAN_ATTRS] or {}
            n, k, w = a.get("n", 0), a.get("steps", 0), a.get("m", 0)
            work[kind][0] += n * k
            # per step: phi @ x (+ bn @ w_k) + g_k; phi, g_k, x (and bn, w_k)
            # read and x written, as if nothing stayed in cache
            work[kind][1] += k * (2 * n * n + n + (2 * n * w + n if w else 0))
            work[kind][2] += 8 * k * (n * n + 3 * n + (n * w + w if w else 0))
        m[f"kernels.{kind}_s"] = total(f"kernels.{kind}")
        m[f"kernels.{kind}_calls"] = len(idx(f"kernels.{kind}"))
        m[f"kernels.{kind}_state_steps"] = work[kind][0]
    state_steps = work["det"][0] + work["noise"][0]
    kernel_s = m["kernels.det_s"] + m["kernels.noise_s"]
    m["kernels.ns_per_state_step"] = kernel_s * 1e9 / state_steps if state_steps else 0.0
    m["kernels.flops"] = work["det"][1] + work["noise"][1]
    m["kernels.bytes"] = work["det"][2] + work["noise"][2]

    m["sim.rk4_transition_s"] = total("sim.rk4_transition")
    m["sim.integrate_s"] = total("sim.integrate")
    m["sim.integrate_calls"] = len(idx("sim.integrate"))
    m["sim.ensemble_s"] = total("sim.ensemble")
    ensembles = set(idx("sim.ensemble"))
    kernel_children = sum(dur[i] for i in idx("kernels.det", "kernels.noise")
                          if spans[i][SPAN_PARENT] in ensembles)
    m["sim.ensemble_self_s"] = m["sim.ensemble_s"] - kernel_children
    m["sim.member_s"] = total("sim.member")
    m["sim.member_calls"] = len(idx("sim.member"))
    entries = ("sim.integrate", "sim.member", "sim.stochastic", "sim.ensemble")
    entry_set = set(idx(*entries))

    def nested_in_entry(i):
        p = spans[i][SPAN_PARENT]
        while p >= 0:
            if p in entry_set:
                return True
            p = spans[p][SPAN_PARENT]
        return False

    paths = sum((spans[i][SPAN_ATTRS] or {}).get("paths", 1) for i in entry_set if not nested_in_entry(i))
    m["sim.paths_integrated"] = paths
    m["sim.useful_path_ratio"] = requested_paths / paths if paths else 0.0
    m["sim.csv_write_s"] = total("sim.csv_write")
    m["sim.csv_write_rows"] = attr_sum("sim.csv_write", "rows")
    m["sim.csv_write_bytes"] = attr_sum("sim.csv_write", "bytes")
    m["sim.csv_read_s"] = total("sim.csv_read")
    m["sim.csv_read_rows"] = attr_sum("sim.csv_read", "rows")

    m["protocol.build_s"] = total("protocol.build")
    m["protocol.build_calls"] = len(idx("protocol.build"))
    m["protocol.nstates_max"] = attr_max("protocol.build", "n")
    m["protocol.analysis_s"] = total(
        "protocol.modal_analysis", "protocol.check_agreement", "protocol.check_cancellation",
        "protocol.classic_noise_disagreement_variance", of=own)
    lti = [n for n in by_name if n.startswith("lti.")]
    m["lti.s"] = total(*lti)
    m["lti.calls"] = len(idx(*lti))

    m["numerics.lyapunov_s"] = total("numerics.lyapunov")
    m["numerics.lyapunov_calls"] = len(idx("numerics.lyapunov"))
    m["numerics.lyapunov_max_n"] = attr_max("numerics.lyapunov", "n")
    m["numerics.routh_hurwitz_s"] = total("numerics.routh_hurwitz")
    m["numerics.routh_hurwitz_calls"] = len(idx("numerics.routh_hurwitz"))
    m["numerics.poly_roots_s"] = total("numerics.poly_roots")
    m["numerics.poly_roots_calls"] = len(idx("numerics.poly_roots"))

    m["graph.modal_transform_s"] = total("graph.modal_transform")
    m["graph.modal_transform_calls"] = len(idx("graph.modal_transform"))
    m["graph.spectrum_search_s"] = total("graph.spectrum_search")
    m["graph.spectrum_search_subsets"] = sum(
        2 ** (a["n"] * (a["n"] - 1) // 2)
        for a in ((spans[i][SPAN_ATTRS] or {}) for i in idx("graph.spectrum_search")) if "n" in a)
    m["graph.spectrum_search_matches"] = attr_sum("graph.spectrum_search", "matches")

    m["design.design_filter_s"] = total("design.design_filter")
    m["design.design_filter_calls"] = len(idx("design.design_filter"))
    m["design.feasible_s"] = total("design.feasible")
    feasible = idx("design.feasible")
    m["design.feasible_calls"] = len(feasible)
    ok = sum(1 for i in feasible if (spans[i][SPAN_ATTRS] or {}).get("ok"))
    m["design.feasible_ratio"] = ok / len(feasible) if feasible else 0.0

    m["config.load_s"] = total("config.load")
    m["config.load_calls"] = len(idx("config.load"))
    m["scenarios.self_s"] = total("scenarios.run_scenario", of=own)
    m["cli.self_s"] = total("cli.main", of=own)
    return m
