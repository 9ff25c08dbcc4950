"""Built-in reproduction scenarios.

Each scenario is a data file under ``agreelab/data`` holding a classic
and a 2DOF experiment configuration for the five-integrator dart-graph
network (gain k = 2.65, local controller -(7.586 s + 16)/(s + 0.4143),
network filter parameters (3, 5, 2)).  The noise scenario injects
per-link unit-intensity measurement noise scaled to the calibrated link
intensity nu/(2 k |E|), which makes the expected agreement-mode drift
of the classic design exactly k/nu.  The disturbance scenarios' files
also hold the windows, in seconds, of their ramp-slope, sup-norm and gap
metrics.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .graph import modal_transform
from .protocol import classic_noise_disagreement_variance
from .sim import SETTLING_BAND, EnsembleStats, Trajectory, integrate
from .sim import least_squares_slope, run_ensemble, settling_time

__all__ = ["SCENARIOS", "load_scenario", "run_config", "run_scenario"]

SCENARIOS = ("nominal", "noise", "dist", "dist-pi")


def _data_text(name: str) -> str:
    return resources.files("agreelab.data").joinpath(name).read_text()


def _load(name: str) -> tuple[dict[str, ExperimentConfig], dict]:
    """The scenario's classic and 2DOF configurations, and its metric
    windows in seconds ({} where the scenario has none)."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    raw = json.loads(_data_text(name.replace("-", "_") + ".json"))
    configs = {key: ExperimentConfig.from_dict(raw[key]) for key in ("classic", "twodof")}
    return configs, raw.get("metric_windows", {})


def load_scenario(name: str) -> dict[str, ExperimentConfig]:
    return _load(name)[0]


def run_config(
    cfg: ExperimentConfig, seed: int, realizations: int, keep: int = 1
) -> tuple[list[Trajectory], float, EnsembleStats | None, float | None]:
    """Every run of a configuration: (paths, reference, stats, drift slope).
    A noisy one is the ensemble of its agreement-mode projection, with
    members 0..keep-1 as paths, the final consensus of its noise-free twin
    as the reference, and its drift slope (None where the slope is
    undefined, see EnsembleStats.drift_slope).
    A noise-free one is one path, its final mean output, None and None."""
    loop = cfg.build_loop()
    if not cfg.has_noise:
        traj = integrate(loop, cfg.signals_d, cfg.signals_n, cfg.y0, cfg.dt, cfg.horizon)
        return [traj], float(np.mean(traj.outputs[-1])), None, None
    stats = run_ensemble(
        loop, cfg.signals_d, cfg.signals_n, cfg.y0, cfg.dt, cfg.horizon,
        seed=seed, realizations=realizations, projection=modal_transform(cfg.graph).U[0],
        keep=keep,
    )
    return stats.paths, stats.reference, stats, stats.drift_slope()


def _mean_output_slope(traj: Trajectory, window: tuple[float, float]) -> float:
    lo, hi = window
    mask = (traj.times >= lo) & (traj.times <= hi)
    return least_squares_slope(traj.times[mask], traj.outputs[mask].mean(axis=1))


def _max_gap(traj: Trajectory, t: float) -> float:
    k = traj.index_at(t)
    row = traj.outputs[k]
    return float(np.max(row) - np.min(row))


def _sup_norm(traj: Trajectory, lo: float, hi: float) -> float:
    mask = (traj.times >= lo) & (traj.times <= hi)
    return float(np.max(np.abs(traj.outputs[mask])))


def run_scenario(
    name: str,
    out_dir: str | Path,
    seed: int | None = None,
    realizations: int | None = None,
) -> dict:
    """Run one built-in scenario; returns the metrics dict and leaves
    one trajectory CSV per protocol in out_dir."""
    configs, windows = _load(name)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics: dict = {"scenario": name}
    trajectories: dict[str, Trajectory] = {}

    for proto, cfg in configs.items():
        use_seed = cfg.seed if seed is None else seed
        metrics[f"{proto}_seed"] = use_seed
        R = cfg.realizations if realizations is None else realizations
        paths, reference, stats, slope = run_config(cfg, use_seed, R)
        trajectories[proto] = paths[0]
        if stats is not None:
            norms = np.linalg.norm(stats.finals - reference, axis=1)
            metrics[f"{proto}_drift_slope"] = slope
            metrics[f"{proto}_final_consensus"] = reference
            metrics[f"{proto}_median_disagreement_norm_at_{cfg.horizon:g}"] = float(
                np.median(norms)
            )
            metrics[f"{proto}_realizations"] = R

    if name == "nominal":
        for proto in configs:
            traj = trajectories[proto]
            metrics[f"{proto}_settling_time_s"] = settling_time(traj)
            metrics[f"{proto}_final_consensus"] = float(np.mean(traj.outputs[-1]))
        metrics["settling_band"] = SETTLING_BAND
    elif name == "noise":
        if metrics["classic_drift_slope"] is not None:
            metrics["drift_slope_ratio"] = (
                metrics["twodof_drift_slope"] / metrics["classic_drift_slope"]
            )
        key = f"median_disagreement_norm_at_{configs['classic'].horizon:g}"
        metrics["disagreement_norm_ratio"] = (
            metrics[f"twodof_{key}"] / metrics[f"classic_{key}"]
        )
        cfg = configs["classic"]
        gain = float(np.asarray(cfg.protocol.gains).reshape(-1)[0])
        per_link = classic_noise_disagreement_variance(cfg.graph, gain, "per-link")
        per_agent = classic_noise_disagreement_variance(cfg.graph, gain, "per-agent")
        metrics["noise_model"] = "per-link"
        metrics["noise_variance_lyapunov_per_link"] = per_link
        metrics["noise_variance_lyapunov_per_agent"] = per_agent
        metrics["noise_variance_selected"] = per_link
        metrics["noise_link_intensity"] = cfg.graph.n / (gain * 2 * len(cfg.graph.edges))
    elif name in ("dist", "dist-pi"):
        for proto in configs:
            traj = trajectories[proto]
            metrics[f"{proto}_ramp_slope"] = _mean_output_slope(traj, windows["ramp_slope"])
            for lo, hi in windows["sup_norm"]:
                metrics[f"{proto}_sup_norm_{lo:g}_{hi:g}"] = _sup_norm(traj, lo, hi)
            for t in windows["gap_at"]:
                metrics[f"{proto}_gap_at_{t:g}"] = _max_gap(traj, t)
        metrics["ramp_slope_ratio"] = (
            metrics["twodof_ramp_slope"] / metrics["classic_ramp_slope"]
        )

    for proto, traj in trajectories.items():
        traj.write_csv(out_dir / f"{name.replace('-', '_')}_{proto}.csv")
    return metrics
