"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload writes its inputs as files in the documented formats (JSON
experiment and design configs, graph text), then runs a fixed list of
named operations on them through the `agreelab` command or the public
library API.  Each operation returns a JSON-able summary of what it
produced.  `Workload.check` turns those summaries into a list of
``(operation, problem)`` pairs; an empty list means every output is right.

Checks are of two kinds:

* invariants that hold for any seed (exit codes, finiteness, CSV read-back
  against ``metrics.json``, closed forms computed here with numpy alone);
* comparison against ``reference.json``, recorded at the default seed.
  Operations whose inputs do not depend on the seed are compared for
  every seed, the others only at the default seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
# Relative tolerance against the recorded reference.  Loose enough for a
# reordered floating-point sum, tight enough to catch a changed result.
REL_TOL = 1e-6
ABS_TOL = 1e-9

# Parameters shared by the generated networks: the dart scenarios' agents.
INTEGRATOR = {"num": [1.0], "den": [0.0, 1.0]}
LAG_CONTROLLER = {"num": [-16.0, -7.586], "den": [0.4143, 1.0]}
NETWORK_FILTER = {"omega_n": 3.0, "tau": 5.0, "zeta": 2.0}
CLASSIC_GAIN = 2.65

# Sub-streams of the workload seed, one per generated input.
_STREAM_NOISE, _STREAM_NETWORK, _STREAM_SEARCH = 1, 2, 3


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def noise_master_seed(seed: int) -> int:
    return int(derived_rng(seed, _STREAM_NOISE).integers(0, 2**31 - 1))


def seeded_graph(rng: np.random.Generator, n: int, chords: int) -> list[list[int]]:
    """Connected graph on nodes 1..n: the path 1-2-...-n plus `chords`
    distinct extra edges drawn uniformly (fewer if the graph is full)."""
    edges = {(i, i + 1) for i in range(1, n)}
    target = min(len(edges) + chords, n * (n - 1) // 2)
    while len(edges) < target:
        i, j = sorted(int(v) for v in rng.choice(n, size=2, replace=False) + 1)
        edges.add((i, j))
    return [list(e) for e in sorted(edges)]


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def run_cli(argv: list[str]) -> dict:
    """`agreelab <argv>` in this process; exit code and stdout lines."""
    import agreelab.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = agreelab.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue().splitlines()}


def normalized_adjacency_spectrum(n: int, edges) -> np.ndarray:
    """Eigenvalues of D^-1/2 A D^-1/2 (the spectrum of D^-1 A), descending."""
    A = np.zeros((n, n))
    for i, j in edges:
        A[i - 1, j - 1] = A[j - 1, i - 1] = 1.0
    s = 1.0 / np.sqrt(A.sum(axis=1))
    return np.sort(np.linalg.eigvalsh(A * np.outer(s, s)))[::-1]


def _relabelled(n: int, edges):
    for perm in itertools.permutations(range(1, n + 1)):
        yield tuple(sorted(tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in edges))


def canonical_edges(n: int, edges) -> tuple:
    """Smallest relabelling of an edge list: one form per isomorphism class."""
    return min(_relabelled(n, edges))


def automorphisms(n: int, edges) -> int:
    own = tuple(sorted(tuple(sorted(e)) for e in edges))
    return sum(form == own for form in _relabelled(n, edges))


def is_connected(n: int, edges) -> bool:
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


# -- comparison helpers ------------------------------------------------------


def _close(a: float, b: float, rtol: float, atol: float = ABS_TOL) -> bool:
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between a recorded and a fresh output, numbers (also
    inside text lines) within REL_TOL, everything else exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{where}: keys {sorted(set(expected) ^ set(actual))} differ"]
        return [d for k in sorted(expected) for d in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)}, expected {len(expected)}"]
        return [d for i, (e, a) in enumerate(zip(expected, actual)) for d in compare(e, a, f"{where}[{i}]")]
    if isinstance(expected, str) and isinstance(actual, str):
        te, ta = expected.split(), actual.split()
        same = len(te) == len(ta) and all(
            x == y or (_number(x) is not None and _number(y) is not None
                       and _close(_number(x), _number(y), REL_TOL))
            for x, y in zip(te, ta)
        )
        return [] if same else [f"{where}: {actual!r}, expected {expected!r}"]
    numeric = (int, float)
    if (isinstance(expected, numeric) and isinstance(actual, numeric)
            and not isinstance(expected, bool) and not isinstance(actual, bool)):
        return [] if _close(float(expected), float(actual), REL_TOL) else [
            f"{where}: {actual!r}, expected {expected!r}"]
    return [] if expected == actual else [f"{where}: {actual!r}, expected {expected!r}"]


def _finite_values(values: dict, allow_null=()) -> list[str]:
    bad = []
    for k, v in values.items():
        if v is None and k in allow_null:
            continue
        if isinstance(v, str):
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            bad.append(f"{k} = {v!r} is not a finite number")
    return bad


def _stdout_matches_metrics(lines: list[str], metrics: dict) -> list[str]:
    """Each `key value` line the CLI prints must equal metrics.json."""
    bad = []
    for line in lines:
        key, _, text = line.partition(" ")
        if key not in metrics:
            continue
        v = metrics[key]
        ok = text == str(v) if v is None or isinstance(v, str) else (
            _number(text) is not None and _close(_number(text), float(v), 1e-15, 0.0))
        if not ok:
            bad.append(f"printed {line!r} but metrics.json has {v!r}")
    return bad


# -- workloads ---------------------------------------------------------------


class Workload:
    """One benchmark workload; subclasses fill in the four hooks."""

    name = ""
    requested_paths = 0  # trajectories the workload asks the program for
    seed_free_ops: tuple = ()  # operations whose inputs ignore the seed

    def prepare(self, seed: int, workdir: Path) -> dict:
        """Write the inputs; return {"summary": JSON-able facts, ...}."""
        raise NotImplementedError

    def operations(self, inputs: dict) -> list:
        """[(operation name, callable returning a JSON-able output)]."""
        raise NotImplementedError

    def sizes(self, inputs: dict) -> dict:
        raise NotImplementedError

    def invariants(self, summary: dict, outputs: dict) -> list:
        """Seed-independent checks: [(operation, problem)]."""
        raise NotImplementedError

    def comparable(self, op: str, output):
        """The part of an output that must match the reference."""
        return output

    def check(self, summary: dict, outputs: dict, seed: int, reference: dict) -> list:
        try:
            problems = list(self.invariants(summary, outputs))
        except Exception as e:  # a malformed output counts as a failure, not a crash
            problems = [("check", f"invariant check raised {type(e).__name__}: {e}")]
        for op, expected in reference.get(self.name, {}).get("outputs", {}).items():
            if seed != DEFAULT_SEED and op not in self.seed_free_ops:
                continue
            if op not in outputs:
                problems.append((op, "no output"))
                continue
            diffs = compare(self.comparable(op, expected), self.comparable(op, outputs[op]), op)
            problems += [(op, d) for d in diffs]
        return problems


def _cli_result(op: str, result: dict, rc: int = 0) -> list:
    return [] if result["rc"] == rc else [(op, f"exit code {result['rc']}, expected {rc}")]


def _metrics_checks(op: str, result: dict, allow_null=()) -> list:
    problems = _cli_result(op, result)
    problems += [(op, p) for p in _finite_values(result["metrics"], allow_null)]
    problems += [(op, p) for p in _stdout_matches_metrics(result["stdout"], result["metrics"])]
    return problems


def _built_sizes(configs: dict, realizations: int = 1) -> dict:
    return {
        proto: {
            "nstates": int(cfg.build_loop().dynamics.A.shape[0]),
            "nsteps": int(round(cfg.horizon / cfg.dt)),
            "realizations": realizations,
        }
        for proto, cfg in configs.items()
    }


class NoiseEnsemble(Workload):
    """`agreelab simulate` on the built-in noise scenario, shortened."""

    name = "noise-ensemble"
    protocols = ("classic", "twodof")
    horizon = 20.0
    realizations = 30  # the smallest count that still yields a drift slope
    requested_paths = 2 * realizations

    def prepare(self, seed, workdir):
        raw = json.loads(resources.files("agreelab.data").joinpath("noise.json").read_text())
        configs = {}
        for proto in self.protocols:
            cfg = raw[proto]
            cfg["sim"].update(T=self.horizon, realizations=self.realizations)
            configs[proto] = write_json(workdir / f"noise_{proto}.json", cfg)
        return {"summary": {"noise_seed": noise_master_seed(seed)},
                "configs": configs, "workdir": workdir}

    def operations(self, inputs):
        def simulate(proto):
            out = inputs["workdir"] / f"out_{proto}"
            result = run_cli(["simulate", str(inputs["configs"][proto]), "--out", str(out),
                              "--seed", str(inputs["summary"]["noise_seed"])])
            result["metrics"] = json.loads((out / "metrics.json").read_text())
            return result

        return [(f"simulate-{p}", lambda p=p: simulate(p)) for p in self.protocols]

    def realizations_per_s(self, op_s: dict) -> float:
        """Realizations requested over the time of the simulate operations."""
        return self.requested_paths / sum(op_s[f"simulate-{p}"] for p in self.protocols)

    def sizes(self, inputs):
        import agreelab.config

        configs = {p: agreelab.config.load_config(path) for p, path in inputs["configs"].items()}
        return _built_sizes(configs, self.realizations)

    def invariants(self, summary, outputs):
        problems = []
        slopes = {}
        for proto in self.protocols:
            op = f"simulate-{proto}"
            if op not in outputs:
                continue
            result = outputs[op]
            # a noisy sample path may never enter the settling band
            problems += _metrics_checks(op, result, allow_null=("settling_time_s",))
            if result["metrics"].get("seed") != summary["noise_seed"]:
                problems.append((op, "metrics.json does not record the seed it was given"))
            slopes[proto] = result["metrics"].get("drift_slope")
        if all(isinstance(slopes.get(p), float) for p in self.protocols):
            if not 0.0 < slopes["twodof"] < slopes["classic"]:
                problems.append(("simulate-twodof",
                                 f"drift slopes classic {slopes['classic']}, twodof "
                                 f"{slopes['twodof']}: expected 0 < twodof < classic"))
        return problems


class DeterministicScenarios(Workload):
    """`agreelab reproduce` on the noise-free scenarios, then every
    trajectory CSV read back."""

    name = "deterministic-scenarios"
    scenarios = ("nominal", "dist", "dist-pi")
    protocols = ("classic", "twodof")
    requested_paths = len(scenarios) * len(protocols)
    # trajectory features that reproduce reports and a CSV reader can recompute
    csv_features = ("final_consensus", "gap_at_20", "gap_at_60", "sup_norm_20_40", "sup_norm_40_60")

    seed_free_ops = tuple(f"reproduce-{s}" for s in scenarios) + tuple(
        f"read-{s}-{p}" for s in scenarios for p in ("classic", "twodof"))

    def prepare(self, seed, workdir):
        return {"summary": {}, "workdir": workdir}

    def _csv(self, workdir: Path, scenario: str, proto: str) -> Path:
        stem = scenario.replace("-", "_")
        return workdir / stem / f"{stem}_{proto}.csv"

    def operations(self, inputs):
        workdir = inputs["workdir"]

        def reproduce(scenario):
            out = workdir / scenario.replace("-", "_")
            result = run_cli(["reproduce", scenario, "--out", str(out)])
            result["metrics"] = json.loads((out / "metrics.json").read_text())
            return result

        def read(scenario, proto):
            import agreelab.sim

            traj = agreelab.sim.Trajectory.read_csv(self._csv(workdir, scenario, proto))
            t, y = traj.times, traj.outputs
            dt = t[1] - t[0]
            out = {"rows": int(t.size), "agents": int(y.shape[1]),
                   "final_consensus": float(np.mean(y[-1]))}
            if t[-1] >= 60.0 - dt / 2:
                for at in (20.0, 60.0):
                    row = y[int(round(at / dt))]
                    out[f"gap_at_{at:g}"] = float(np.max(row) - np.min(row))
                for lo, hi in ((20.0, 40.0), (40.0, 60.0)):
                    mask = (t >= lo) & (t <= hi)
                    out[f"sup_norm_{lo:g}_{hi:g}"] = float(np.max(np.abs(y[mask])))
            return out

        ops = [(f"reproduce-{s}", lambda s=s: reproduce(s)) for s in self.scenarios]
        ops += [(f"read-{s}-{p}", lambda s=s, p=p: read(s, p))
                for s in self.scenarios for p in self.protocols]
        return ops

    def sizes(self, inputs):
        import agreelab.scenarios

        return {s: _built_sizes(agreelab.scenarios.load_scenario(s)) for s in self.scenarios}

    def invariants(self, summary, outputs):
        problems = []
        for s in self.scenarios:
            op = f"reproduce-{s}"
            if op not in outputs:
                continue
            metrics = outputs[op]["metrics"]
            problems += _metrics_checks(op, outputs[op])
            for p in self.protocols:
                read = outputs.get(f"read-{s}-{p}")
                if read is None:
                    continue
                shared = [f for f in self.csv_features if f"{p}_{f}" in metrics and f in read]
                if not shared:
                    problems.append((f"read-{s}-{p}", "no metric to check the CSV against"))
                for f in shared:
                    if not _close(read[f], metrics[f"{p}_{f}"], 1e-12, 0.0):
                        problems.append((f"read-{s}-{p}", f"CSV gives {f} = {read[f]!r}, "
                                         f"metrics.json {metrics[f'{p}_{f}']!r}"))
        return problems


class LargeNetwork(Workload):
    """A seeded 60-agent network: both loops built and integrated, the
    Lyapunov noise variance, and the agreement certificate."""

    name = "large-network"
    protocols = ("classic", "twodof")
    agents = 60
    chords = 60
    dt = 1e-3
    horizon = 60.0
    onset = 5.0
    requested_paths = len(protocols)

    def prepare(self, seed, workdir):
        import agreelab.config

        rng = derived_rng(seed, _STREAM_NETWORK)
        n = self.agents
        edges = seeded_graph(rng, n, self.chords)
        y0 = [float(v) for v in rng.uniform(-2.0, 2.0, n)]
        disturbed = int(rng.integers(1, n + 1))
        amplitude = float(rng.uniform(0.5, 1.5))
        d = [{"kind": "zero"}] * n
        d[disturbed - 1] = {"kind": "step", "amplitude": amplitude, "onset": self.onset}
        common = {"graph": {"n": n, "edges": edges},
                  "signals": {"d": d, "n": {"kind": "zero"}},
                  "sim": {"dt": self.dt, "T": self.horizon, "y0": y0}}
        per_protocol = {
            "classic": {"agents": {"plant": INTEGRATOR},
                        "protocol": {"type": "classic", "k": CLASSIC_GAIN,
                                     "filter": {"num": [1.0], "den": [1.0]}}},
            "twodof": {"agents": {"plant": INTEGRATOR, "controller": LAG_CONTROLLER},
                       "protocol": {"type": "twodof", "network_filter": NETWORK_FILTER}},
        }
        paths = {p: write_json(workdir / f"network_{p}.json", {**common, **extra})
                 for p, extra in per_protocol.items()}
        configs = {p: agreelab.config.load_config(path) for p, path in paths.items()}
        summary = {"n": n, "edges": edges, "y0_mean": float(np.mean(y0)),
                   "disturbed_agent": disturbed, "amplitude": amplitude,
                   "onset": self.onset, "horizon": self.horizon, "dt": self.dt}
        return {"summary": summary, "paths": paths, "configs": configs, "loops": {}}

    def operations(self, inputs):
        import agreelab.protocol
        import agreelab.sim

        configs, loops = inputs["configs"], inputs["loops"]

        def build(p):
            loops[p] = configs[p].build_loop()
            return {}

        def integrate(p):
            c = configs[p]
            y = agreelab.sim.integrate(loops[p], c.signals_d, c.signals_n, c.y0, c.dt, c.horizon).outputs
            return {"rows": int(y.shape[0]), "finite": bool(np.all(np.isfinite(y))),
                    "final_mean": float(np.mean(y[-1])), "final_gap": float(np.ptp(y[-1]))}

        def variance():
            c = configs["classic"]
            return {"value": agreelab.protocol.classic_noise_disagreement_variance(c.graph, CLASSIC_GAIN)}

        ops = [(f"build-{p}", lambda p=p: build(p)) for p in self.protocols]
        ops += [(f"integrate-{p}", lambda p=p: integrate(p)) for p in self.protocols]
        ops.append(("noise-variance", variance))
        ops.append(("check-twodof", lambda: run_cli(["check", str(inputs["paths"]["twodof"])])))
        return ops

    def sizes(self, inputs):
        return {p: {"nstates": int(loop.dynamics.A.shape[0]),
                    "nsteps": int(round(self.horizon / self.dt)), "realizations": 1}
                for p, loop in inputs["loops"].items()}

    @staticmethod
    def expected_variance(n: int, edges, gain: float) -> float:
        """Mean per-agent disagreement variance of ydot = -kLy + kD^(1/2) w,
        from the Laplacian's eigenvectors: (k / 2n) sum_i v_i' D v_i / lambda_i
        over the nonzero eigenvalues."""
        A = np.zeros((n, n))
        for i, j in edges:
            A[i - 1, j - 1] = A[j - 1, i - 1] = 1.0
        deg = A.sum(axis=1)
        lam, V = np.linalg.eigh(np.diag(deg) - A)
        V = V[:, 1:]
        return float(gain / (2 * n) * np.sum((V * V * deg[:, None]).sum(axis=0) / lam[1:]))

    def invariants(self, summary, outputs):
        problems = []
        rows = int(round(summary["horizon"] / summary["dt"])) + 1
        finals = {}
        for p in self.protocols:
            op = f"integrate-{p}"
            if op not in outputs:
                continue
            r = outputs[op]
            if not r["finite"] or r["rows"] != rows:
                problems.append((op, f"{r['rows']} rows (expected {rows}), finite={r['finite']}"))
            finals[p] = r
        if "classic" in finals:
            # the agreement mode of ydot = -kLy + d integrates mean(d) exactly
            n = summary["n"]
            expected = summary["y0_mean"] + summary["amplitude"] * (
                summary["horizon"] - summary["onset"]) / n
            if not _close(finals["classic"]["final_mean"], expected, 1e-9):
                problems.append(("integrate-classic", f"final mean {finals['classic']['final_mean']!r}, "
                                 f"expected {expected!r}"))
        if len(finals) == 2 and not finals["twodof"]["final_gap"] < finals["classic"]["final_gap"]:
            problems.append(("integrate-twodof", "2DOF final disagreement gap is not below classic's"))
        if "noise-variance" in outputs:
            value = outputs["noise-variance"]["value"]
            expected = self.expected_variance(summary["n"], summary["edges"], CLASSIC_GAIN)
            if not (isinstance(value, float) and _close(value, expected, 1e-8)):
                problems.append(("noise-variance", f"{value!r}, expected {expected!r}"))
        if "check-twodof" in outputs:
            r = outputs["check-twodof"]
            problems += _cli_result("check-twodof", r)
            modes = [ln for ln in r["stdout"] if ln.startswith("mode ")]
            if r["stdout"][:1] != ["agreement PASS"]:
                problems.append(("check-twodof", "certificate does not print PASS"))
            if len(modes) != summary["n"] or not all(ln.endswith(" ok") for ln in modes):
                problems.append(("check-twodof", f"{len(modes)} mode lines, not all ok"))
        return problems


class Synthesis(Workload):
    """Filter design (feasible, worst-case, infeasible), the dart spectrum
    report, and topology recovery from two spectra."""

    name = "synthesis"
    bounds = {"omega_n": [0.5, 5.0], "tau": [0.5, 10.0], "zeta": [0.5, 4.0]}
    # At the worst-case mode alpha = -1 the design cubic is Hurwitz only if
    # 2 zeta wn tau + 4 zeta^2 + 2 zeta / (wn tau) > 1; in this box the left
    # side stays below 0.25, so no grid point is feasible.
    infeasible_bounds = {"omega_n": [0.5, 1.0], "tau": [0.5, 2.0], "zeta": [0.01, 0.02]}
    search_nodes = 6
    # Every connected 6-node graph with exactly two automorphisms has a
    # spectrum no other connected 6-node graph shares (checked by
    # enumerating all 2^15 edge sets), so the search matches 6!/2 = 360
    # labelled graphs whatever the seed, and does the same work.
    search_automorphisms = 2
    search_ops = ("search-dart", "search-seeded")
    seed_free_ops = ("design-dart", "design-worst-case", "design-infeasible",
                     "spectrum-dart", "search-dart")
    exit_codes = {"design-dart": 0, "design-worst-case": 0, "design-infeasible": 3,
                  "spectrum-dart": 0}

    def prepare(self, seed, workdir):
        dart = Path(str(resources.files("agreelab.data").joinpath("dart.graph")))
        lines = [ln.split() for ln in dart.read_text().splitlines() if ln.strip()]
        dart_n = int(next(ln[1] for ln in lines if ln[0] == "n"))
        dart_edges = [[int(ln[1]), int(ln[2])] for ln in lines if ln[0] == "e"]
        rng = derived_rng(seed, _STREAM_SEARCH)
        n = self.search_nodes
        while True:
            edges = seeded_graph(rng, n, int(rng.integers(0, n)))
            if automorphisms(n, edges) == self.search_automorphisms:
                break
        designs = {
            "design-dart": {"bounds": self.bounds, "graph": {"file": str(dart)}},
            "design-worst-case": {"bounds": self.bounds},
            "design-infeasible": {"bounds": self.infeasible_bounds},
        }
        summary = {
            "bounds": self.bounds,
            "dart": {"n": dart_n, "edges": dart_edges,
                     "spectrum": normalized_adjacency_spectrum(dart_n, dart_edges).tolist()},
            "seeded": {"n": n, "edges": edges,
                       "spectrum": normalized_adjacency_spectrum(n, edges).tolist()},
        }
        return {"summary": summary, "dart": dart,
                "designs": {op: write_json(workdir / f"{op}.json", d) for op, d in designs.items()}}

    def operations(self, inputs):
        import agreelab.graph

        summary = inputs["summary"]

        def search(which):
            target = summary[which]
            graphs = agreelab.graph.find_graphs_by_spectrum(target["n"], target["spectrum"])
            return {"matches": [[list(e) for e in g.edge_list] for g in graphs]}

        ops = [(op, lambda path=path: run_cli(["design", str(path)]))
               for op, path in inputs["designs"].items()]
        ops.append(("spectrum-dart", lambda: run_cli(["spectrum", str(inputs["dart"])])))
        ops += [(f"search-{w}", lambda w=w: search(w)) for w in ("dart", "seeded")]
        return ops

    def sizes(self, inputs):
        s = inputs["summary"]
        return {"design_runs": len(inputs["designs"]),
                "search_nodes": [s["dart"]["n"], s["seeded"]["n"]]}

    def comparable(self, op, output):
        if op not in self.search_ops:
            return output
        # the program may label a match differently; its class must not change
        return sorted(list(map(list, canonical_edges(len({v for e in m for v in e}), m)))
                      for m in output["matches"])

    @staticmethod
    def _cubic_stable(wn, tau, zeta, alpha) -> bool:
        """Mode denominator of the filter family, roots by numpy."""
        roots = np.roots([tau, 2 * zeta * wn * tau + 1, tau * wn**2 + 2 * zeta * wn, wn**2 * (1 - alpha)])
        return bool(np.max(roots.real) < 0.0)

    def _design_problems(self, op, lines, alphas) -> list:
        values = dict(ln.split(" ", 1) for ln in lines[:4])
        wn, tau, zeta, h2 = (float(values[k]) for k in ("omega_n", "tau", "zeta", "h2_drift"))
        problems = []
        for key, v in (("omega_n", wn), ("tau", tau), ("zeta", zeta)):
            lo, hi = self.bounds[key]
            if not lo * (1 - 1e-12) <= v <= hi * (1 + 1e-12):
                problems.append((op, f"{key} = {v} outside {self.bounds[key]}"))
        closed_form = wn**3 / ((2 * wn * tau + 4 * zeta) * (2 * wn * tau * zeta + 1))
        if not _close(h2, closed_form, 1e-9):
            problems.append((op, f"h2_drift {h2!r}, closed form {closed_form!r}"))
        mode_lines = [ln.split() for ln in lines[4:]]
        printed = [float(ln[1]) for ln in mode_lines]
        if len(printed) != len(alphas) or not np.allclose(printed, alphas, rtol=0, atol=1e-9):
            problems.append((op, f"mode lines for alphas {printed}, expected {list(alphas)}"))
        for ln in mode_lines:
            alpha = float(ln[1])
            if ln[2:] == ["marginal", "ok"] and alpha >= 1.0 - 1e-9:
                continue
            if ln[2:] != ["stable"] or not self._cubic_stable(wn, tau, zeta, alpha):
                problems.append((op, f"mode {' '.join(ln)}: design is not stable there"))
        return problems

    def _search_problems(self, op, target, matches) -> list:
        n, want = target["n"], np.asarray(target["spectrum"])
        problems = []
        forms = [canonical_edges(n, m) for m in matches]
        if len(set(forms)) != len(forms):
            problems.append((op, "isomorphic graphs reported twice"))
        if canonical_edges(n, target["edges"]) not in forms:
            problems.append((op, "the graph the target spectrum came from is missing"))
        for m in matches:
            if not is_connected(n, m) or np.max(np.abs(normalized_adjacency_spectrum(n, m) - want)) > 1e-8:
                problems.append((op, f"match {m} is disconnected or has another spectrum"))
        return problems

    def invariants(self, summary, outputs):
        problems = []
        for op, rc in self.exit_codes.items():
            if op in outputs:
                problems += _cli_result(op, outputs[op], rc)
        worst_case = np.linspace(-1.0, 1.0, 21)
        for op, alphas in (("design-dart", summary["dart"]["spectrum"]), ("design-worst-case", worst_case)):
            if op in outputs and outputs[op]["rc"] == 0:
                problems += self._design_problems(op, outputs[op]["stdout"], alphas)
        if "design-infeasible" in outputs and outputs["design-infeasible"]["stdout"]:
            problems.append(("design-infeasible", "printed a design for an infeasible box"))
        if "spectrum-dart" in outputs:
            dart = summary["dart"]
            lines = dict(ln.split(" ", 1) for ln in outputs["spectrum-dart"]["stdout"])
            deg = np.bincount(np.ravel(dart["edges"]), minlength=dart["n"] + 1)[1:]
            expect = {"nodes": [dart["n"]], "edges": [len(dart["edges"])],
                      "spectrum": dart["spectrum"], "gamma": deg / np.sqrt(deg.sum())}
            for key, want in expect.items():
                got = [float(v) for v in lines.get(key, "").split()]
                if len(got) != len(want) or not np.allclose(got, want, rtol=0, atol=1e-9):
                    problems.append(("spectrum-dart", f"{key} line {lines.get(key)!r}"))
            if lines.get("connected") != "true":
                problems.append(("spectrum-dart", "dart graph not reported connected"))
        for which in ("dart", "seeded"):
            op = f"search-{which}"
            if op in outputs:
                problems += self._search_problems(op, summary[which], outputs[op]["matches"])
        return problems


WORKLOADS = {w.name: w for w in (NoiseEnsemble(), DeterministicScenarios(), LargeNetwork(), Synthesis())}
