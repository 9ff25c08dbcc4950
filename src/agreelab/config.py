"""Experiment configuration: a JSON file with nested sections.

Rational functions are entered as ascending coefficient lists, graphs
either inline or as a path to a graph text file.  Unknown keys are
rejected everywhere so that typos fail loudly.  The design config of
`agreelab design` is parsed here too (`load_design`).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .design import FilterParams, make_filter
from .graph import Graph, modal_transform, read_graph
from .lti import RationalTF
from .protocol import AgentModel, ClassicConfig, TwoDofConfig, build_2dof, build_classic
from .sim import SignalSpec

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "load_design"]


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message

    def __reduce__(self):
        return ConfigError, (self.path, self.message)


def _require_keys(obj: dict, path: str, required: set, optional: set = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected an object")
    unknown = set(obj) - required - set(optional)
    if unknown:
        raise ConfigError(path, f"unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(path, f"missing keys {sorted(missing)}")


def _is_int(obj: Any) -> bool:
    """JSON integers only: not booleans, not floats such as 2.0."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _number(obj: Any, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(path, "expected a number")
    if not abs(obj) <= sys.float_info.max:  # NaN, +-Infinity, ints past float range
        raise ConfigError(path, "expected a finite number")
    return float(obj)


def _number_list(obj: Any, path: str) -> list[float]:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(path, "expected a non-empty list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def _parse_tf(obj: Any, path: str) -> RationalTF:
    _require_keys(obj, path, {"num", "den"})
    try:
        return RationalTF(_number_list(obj["num"], f"{path}.num"),
                          _number_list(obj["den"], f"{path}.den"))
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(path, str(e)) from None


def _parse_graph(obj: Any, path: str, base_dir: Path) -> Graph:
    if isinstance(obj, dict) and "file" in obj:
        _require_keys(obj, path, {"file"})
        if not isinstance(obj["file"], str):
            raise ConfigError(f"{path}.file", "expected a path string")
        target = Path(obj["file"])
        if not target.is_absolute():
            target = base_dir / target
        try:
            return read_graph(target)
        except (OSError, ValueError) as e:
            raise ConfigError(path, f"cannot read graph file: {e}") from None
    _require_keys(obj, path, {"n", "edges"})
    n = obj["n"]
    if not _is_int(n) or n < 1:
        raise ConfigError(f"{path}.n", "expected a positive integer")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise ConfigError(f"{path}.edges", "expected a list of [i, j] pairs")
    pairs = []
    for i, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2 and all(map(_is_int, e))):
            raise ConfigError(f"{path}.edges[{i}]", "expected a pair [i, j] of integers")
        pairs.append((e[0], e[1]))
    try:
        return Graph(n, pairs)
    except ValueError as e:
        raise ConfigError(f"{path}.edges", str(e)) from None


def _parse_signal(obj: Any, path: str) -> SignalSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(path, "expected a signal object with a 'kind'")
    kind = obj["kind"]
    if kind == "zero":
        _require_keys(obj, path, {"kind"})
        return SignalSpec.zero()
    if kind == "step":
        _require_keys(obj, path, {"kind", "amplitude"}, {"onset"})
        return SignalSpec.step(
            _number(obj["amplitude"], f"{path}.amplitude"),
            _number(obj.get("onset", 0.0), f"{path}.onset"),
        )
    if kind == "white_noise":
        _require_keys(obj, path, {"kind", "intensity"}, {"onset"})
        return SignalSpec.white_noise(
            _number(obj["intensity"], f"{path}.intensity"),
            _number(obj.get("onset", 0.0), f"{path}.onset"),
        )
    raise ConfigError(f"{path}.kind", f"unknown signal kind {kind!r}")


def _parse_signal_bank(obj: Any, path: str, nu: int) -> list[SignalSpec]:
    if obj is None:
        return [SignalSpec.zero()] * nu
    if isinstance(obj, dict):
        return [_parse_signal(obj, path)] * nu
    if isinstance(obj, list):
        if len(obj) != nu:
            raise ConfigError(path, f"expected {nu} per-agent signals, got {len(obj)}")
        return [_parse_signal(o, f"{path}[{i}]") for i, o in enumerate(obj)]
    raise ConfigError(path, "expected a signal object or per-agent list")


@dataclass(frozen=True)
class ExperimentConfig:
    graph: Graph
    agents: list[AgentModel]
    protocol: ClassicConfig | TwoDofConfig
    signals_d: list[SignalSpec]
    signals_n: list[SignalSpec]
    dt: float
    horizon: float
    y0: list[float]
    seed: int
    realizations: int

    @staticmethod
    def from_dict(data: dict, base_dir: str | Path = ".") -> "ExperimentConfig":
        base_dir = Path(base_dir)
        _require_keys(
            data, "config", {"graph", "agents", "protocol", "sim"}, {"signals"}
        )
        graph = _parse_graph(data["graph"], "config.graph", base_dir)
        nu = graph.n

        agents_obj = data["agents"]
        if isinstance(agents_obj, dict):
            agents_list = [agents_obj] * nu
        elif isinstance(agents_obj, list):
            if len(agents_obj) != nu:
                raise ConfigError(
                    "config.agents", f"expected {nu} agents, got {len(agents_obj)}"
                )
            agents_list = agents_obj
        else:
            raise ConfigError("config.agents", "expected an object or per-agent list")
        agents = []
        for i, a in enumerate(agents_list):
            path = f"config.agents[{i}]"
            _require_keys(a, path, {"plant"}, {"controller"})
            plant = _parse_tf(a["plant"], f"{path}.plant")
            ctrl = _parse_tf(a["controller"], f"{path}.controller") if "controller" in a else None
            agents.append(AgentModel(plant=plant, local_controller=ctrl))

        proto_obj = data["protocol"]
        if not isinstance(proto_obj, dict) or "type" not in proto_obj:
            raise ConfigError("config.protocol", "expected an object with a 'type'")
        ptype = proto_obj["type"]
        if ptype == "classic":
            _require_keys(proto_obj, "config.protocol", {"type", "k"}, {"filter"})
            k = proto_obj["k"]
            gains = _number_list(k, "config.protocol.k") if isinstance(k, list) else _number(k, "config.protocol.k")
            filt = (
                _parse_tf(proto_obj["filter"], "config.protocol.filter")
                if "filter" in proto_obj
                else RationalTF.constant(1.0)
            )
            protocol = ClassicConfig(gains=gains, shared_filter=filt)
        elif ptype == "twodof":
            _require_keys(proto_obj, "config.protocol", {"type", "network_filter"})
            nf = proto_obj["network_filter"]
            if isinstance(nf, dict) and {"omega_n", "tau", "zeta"} <= set(nf):
                _require_keys(nf, "config.protocol.network_filter", {"omega_n", "tau", "zeta"})
                try:
                    filter_params = FilterParams(
                        _number(nf["omega_n"], "config.protocol.network_filter.omega_n"),
                        _number(nf["tau"], "config.protocol.network_filter.tau"),
                        _number(nf["zeta"], "config.protocol.network_filter.zeta"),
                    )
                except ValueError as e:
                    raise ConfigError("config.protocol.network_filter", str(e)) from None
                fa = make_filter(filter_params)
            else:
                fa = _parse_tf(nf, "config.protocol.network_filter")
            protocol = TwoDofConfig(network_filter=fa)
        else:
            raise ConfigError("config.protocol.type", f"unknown protocol {ptype!r}")

        signals = data.get("signals", {})
        _require_keys(signals, "config.signals", set(), {"d", "n"})
        signals_d = _parse_signal_bank(signals.get("d"), "config.signals.d", nu)
        signals_n = _parse_signal_bank(signals.get("n"), "config.signals.n", nu)

        sim_obj = data["sim"]
        _require_keys(sim_obj, "config.sim", {"dt", "T"}, {"y0", "seed", "realizations"})
        dt = _number(sim_obj["dt"], "config.sim.dt")
        horizon = _number(sim_obj["T"], "config.sim.T")
        if dt <= 0 or horizon <= 0:
            raise ConfigError("config.sim", "dt and T must be positive")
        y0 = sim_obj.get("y0", [0.0] * nu)
        y0 = _number_list(y0, "config.sim.y0")
        if len(y0) != nu:
            raise ConfigError("config.sim.y0", f"expected {nu} entries")
        seed = sim_obj.get("seed", 0)
        if not _is_int(seed) or seed < 0:
            raise ConfigError("config.sim.seed", "expected a nonnegative integer")
        realizations = sim_obj.get("realizations", 1)
        if not _is_int(realizations) or realizations < 1:
            raise ConfigError("config.sim.realizations", "expected a positive integer")

        return ExperimentConfig(
            graph=graph,
            agents=agents,
            protocol=protocol,
            signals_d=signals_d,
            signals_n=signals_n,
            dt=dt,
            horizon=horizon,
            y0=y0,
            seed=seed,
            realizations=realizations,
        )

    def build_loop(self):
        build = build_classic if isinstance(self.protocol, ClassicConfig) else build_2dof
        return build(self.graph, self.agents, self.protocol)

    @property
    def has_noise(self) -> bool:
        return any(s.is_stochastic for s in self.signals_n)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError("config", f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON in {path}: {e}") from None
    return ExperimentConfig.from_dict(data, base_dir=path.parent)


def load_design(path: str | Path) -> tuple[dict, list[float] | None]:
    """The bounds and the alphas of a design config; the alphas of its
    graph if it names one, None if it gives neither."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError("design config", str(e)) from None
    _require_keys(data, "design config", {"bounds"}, {"alphas", "graph"})
    bounds = data["bounds"]
    _require_keys(bounds, "design config.bounds", {"omega_n", "tau", "zeta"})
    for key, pair in bounds.items():
        where = f"design config.bounds.{key}"
        lo_hi = _number_list(pair, where)  # finite numbers
        if len(lo_hi) != 2 or not 0.0 < lo_hi[0] <= lo_hi[1]:
            raise ConfigError(where, "expected [lo, hi] with 0 < lo <= hi")
    alphas = None
    if "alphas" in data and "graph" in data:
        raise ConfigError("design config", "give either alphas or graph, not both")
    if "alphas" in data:
        alphas = _number_list(data["alphas"], "design config.alphas")
        for i, alpha in enumerate(alphas):  # eigenvalues of D^-1 A lie in [-1, 1]
            if abs(alpha) > 1.0 + 1e-9:
                raise ConfigError(f"design config.alphas[{i}]", "expected a value in [-1, 1]")
    elif "graph" in data:
        g = _parse_graph(data["graph"], "design config.graph", path.parent)
        alphas = modal_transform(g).alphas.tolist()
    return bounds, alphas
