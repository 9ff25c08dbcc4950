"""Built-in reproduction scenarios.

Each scenario is a data file under ``agreelab/data`` holding a classic
and a 2DOF experiment configuration for the five-integrator dart-graph
network (gain k = 2.65, local controller -(7.586 s + 16)/(s + 0.4143),
network filter parameters (3, 5, 2)).  The noise scenario injects
per-link unit-intensity measurement noise scaled to the calibrated link
intensity nu/(2 k |E|), which makes the expected agreement-mode drift
of the classic design exactly k/nu.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .graph import modal_transform
from .protocol import classic_noise_disagreement_variance
from .sim import EnsembleStats, SignalSpec, Trajectory, integrate, run_ensemble, settling_time

__all__ = ["SCENARIOS", "load_scenario", "run_scenario"]

SCENARIOS = ("nominal", "noise", "dist", "dist-pi")

# late window, in seconds, of the ramp-slope fit in the disturbance scenarios
_RAMP_WINDOW = (40.0, 60.0)


def _data_text(name: str) -> str:
    return resources.files("agreelab.data").joinpath(name).read_text()


def load_scenario(name: str) -> dict[str, ExperimentConfig]:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIOS}")
    raw = json.loads(_data_text(name.replace("-", "_") + ".json"))
    return {
        key: ExperimentConfig.from_dict(raw[key]) for key in ("classic", "twodof")
    }


def _run_noisy(
    cfg: ExperimentConfig, loop, seed: int, realizations: int
) -> tuple[EnsembleStats, float]:
    """Every run of a noisy configuration: the ensemble of its
    agreement-mode projection, with member 0 as the sample path, and the
    final consensus of its noise-free twin."""
    zero = [SignalSpec.zero()] * cfg.graph.n
    twin = integrate(loop, cfg.signals_d, zero, cfg.y0, cfg.dt, cfg.horizon)
    reference = float(np.mean(twin.outputs[-1]))
    stats = run_ensemble(
        loop, cfg.signals_d, cfg.signals_n, cfg.y0, cfg.dt, cfg.horizon,
        seed=seed, realizations=realizations, projection=modal_transform(cfg.graph).U[0],
    )
    return stats, reference


def _mean_output_slope(traj: Trajectory, window: tuple[float, float]) -> float:
    lo, hi = window
    mask = (traj.times >= lo) & (traj.times <= hi)
    t = traj.times[mask]
    m = traj.outputs[mask].mean(axis=1)
    tbar = t.mean()
    return float(np.dot(t - tbar, m - m.mean()) / np.dot(t - tbar, t - tbar))


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
    configs = load_scenario(name)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics: dict = {"scenario": name}
    trajectories: dict[str, Trajectory] = {}

    for proto, cfg in configs.items():
        loop = cfg.build_loop()
        use_seed = cfg.seed if seed is None else seed
        metrics[f"{proto}_seed"] = use_seed
        if cfg.has_noise:
            R = cfg.realizations if realizations is None else realizations
            stats, ref = _run_noisy(cfg, loop, use_seed, R)
            norms = np.linalg.norm(stats.finals - ref, axis=1)
            metrics[f"{proto}_drift_slope"] = (
                stats.drift_slope() if R >= 30 else None
            )
            metrics[f"{proto}_final_consensus"] = ref
            metrics[f"{proto}_median_disagreement_norm_at_{cfg.horizon:g}"] = float(
                np.median(norms)
            )
            metrics[f"{proto}_realizations"] = R
            trajectories[proto] = stats.sample
        else:
            traj = integrate(
                loop, cfg.signals_d, cfg.signals_n, cfg.y0, cfg.dt, cfg.horizon
            )
            trajectories[proto] = traj

    if name == "nominal":
        for proto in configs:
            traj = trajectories[proto]
            metrics[f"{proto}_settling_time_s"] = settling_time(traj)
            metrics[f"{proto}_final_consensus"] = float(np.mean(traj.outputs[-1]))
        metrics["settling_band"] = 0.02
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
        gain = float(np.asarray(cfg.classic.gains).reshape(-1)[0])
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
            metrics[f"{proto}_ramp_slope"] = _mean_output_slope(traj, _RAMP_WINDOW)
            metrics[f"{proto}_sup_norm_20_40"] = _sup_norm(traj, 20.0, 40.0)
            metrics[f"{proto}_sup_norm_40_60"] = _sup_norm(traj, 40.0, 60.0)
            metrics[f"{proto}_gap_at_20"] = _max_gap(traj, 20.0)
            metrics[f"{proto}_gap_at_60"] = _max_gap(traj, 60.0)
        metrics["ramp_slope_ratio"] = (
            metrics["twodof_ramp_slope"] / metrics["classic_ramp_slope"]
        )

    for proto, traj in trajectories.items():
        traj.write_csv(out_dir / f"{name.replace('-', '_')}_{proto}.csv")
    return metrics
