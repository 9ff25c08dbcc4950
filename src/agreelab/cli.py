"""Command-line interface.

Subcommands: spectrum, check, simulate, design, reproduce.  Exit codes
are a stable contract: 0 success, 1 configuration error, 2 integration
divergence, 3 infeasible design.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config, load_design
from .design import design_filter, feasible, h2_drift
from .graph import is_connected, modal_transform, read_graph
from .protocol import TwoDofConfig, check_agreement, check_cancellation, modal_analysis
from .scenarios import SCENARIOS, run_config, run_scenario
from .sim import SimulationDiverged, settling_time

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the config-error exit code."""

    def error(self, message):
        raise ConfigError("cli", message)


def _write_json_atomic(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _realizations(text: str) -> int:
    """--realizations takes a positive integer, as config.sim.realizations does."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    """--seed takes a nonnegative integer, as config.sim.seed does."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def cmd_spectrum(args) -> int:
    try:
        g = read_graph(args.graph_file)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    connected = is_connected(g)
    print(f"nodes {g.n}")
    print(f"edges {len(g.edges)}")
    print(f"connected {str(connected).lower()}")
    if not connected:
        print("warning: graph is disconnected; modal data unavailable", file=sys.stderr)
        return EXIT_OK
    md = modal_transform(g)
    print("spectrum " + " ".join(_fmt(a) for a in md.alphas))
    print("gamma " + " ".join(_fmt(v) for v in md.gamma))
    return EXIT_OK


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    if not isinstance(cfg.protocol, TwoDofConfig):
        raise ConfigError("config.protocol", "check applies to twodof configurations")
    analysis = modal_analysis(cfg.graph, cfg.agents, cfg.protocol)
    cert = check_agreement(cfg.protocol.network_filter, analysis.alphas)
    print(f"agreement {'PASS' if cert.passed else 'FAIL'}")
    for alpha in analysis.alphas:
        reasons = [r for a, r in cert.failures if a == float(alpha)]
        status = "fail: " + "; ".join(reasons) if reasons else "ok"
        print(f"mode alpha={_fmt(float(alpha))} {status}")
    if cert.passed:
        poles = " ".join(f"{p.real:.6g}{p.imag:+.6g}j" for p in cert.agreement_poles)
        print(f"agreement_poles {poles if poles else '(none)'}")
        for pole in cert.agreement_poles:
            v0 = check_cancellation(pole, analysis.local_sensitivities)
            vd = check_cancellation(pole, analysis.disturbance_transfers)
            print(f"cancellation y0-path at {pole:.6g}: {v0.verdict}")
            print(f"cancellation disturbance-path at {pole:.6g}: {vd.verdict}")
    return EXIT_OK


def _simulate_config(cfg: ExperimentConfig, out_dir: Path, seed: int, realizations: int) -> dict:
    # the metrics need member 0, the drift slope the whole ensemble,
    # and members 0..R-1 are kept for their CSVs when R <= 10
    trajs, ref, _, drift_slope = run_config(
        cfg, seed, realizations, keep=realizations if realizations <= 10 else 1
    )
    metrics: dict = {"seed": seed, "drift_slope": drift_slope}
    primary = trajs[0]

    try:
        metrics["settling_time_s"] = settling_time(primary)
    except RuntimeError:
        metrics["settling_time_s"] = None
    metrics["final_consensus"] = float(np.mean(primary.outputs[-1]))
    norm_key = f"disagreement_norm_at_{cfg.horizon:g}"
    metrics[norm_key] = float(np.linalg.norm(primary.outputs[-1] - ref))
    if realizations <= 10:
        for r, traj in enumerate(trajs):
            traj.write_csv(out_dir / f"trajectory_r{r:03d}.csv")
    return metrics


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg.seed if args.seed is None else args.seed
    realizations = cfg.realizations if args.realizations is None else args.realizations
    try:
        metrics = _simulate_config(cfg, out_dir, seed, realizations)
    except SimulationDiverged as e:
        _write_json_atomic(out_dir / "metrics.json", {"diverged_at_s": e.time, "seed": seed})
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    _write_json_atomic(out_dir / "metrics.json", metrics)
    for key in ("settling_time_s", "final_consensus", "drift_slope"):
        print(f"{key} {metrics[key]}")
    return EXIT_OK


def cmd_design(args) -> int:
    bounds, alphas = load_design(args.config)
    try:
        params = design_filter(bounds, alphas)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    print(f"omega_n {_fmt(params.omega_n)}")
    print(f"tau {_fmt(params.tau)}")
    print(f"zeta {_fmt(params.zeta)}")
    print(f"h2_drift {_fmt(h2_drift(params))}")
    grid = alphas if alphas is not None else np.linspace(-1.0, 1.0, 21).tolist()
    for alpha in grid:
        if alpha >= 1.0 - 1e-9:
            status = "marginal ok"
        else:
            status = "stable" if feasible(params, [alpha]) else "unstable"
        print(f"alpha {_fmt(float(alpha))} {status}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out if args.out else f"reproduce_{args.scenario.replace('-', '_')}")
    try:
        metrics = run_scenario(
            args.scenario, out_dir, seed=args.seed, realizations=args.realizations
        )
    except SimulationDiverged as e:
        _write_json_atomic(out_dir / "metrics.json", {"diverged_at_s": e.time})
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    _write_json_atomic(out_dir / "metrics.json", metrics)
    for key in sorted(metrics):
        print(f"{key} {metrics[key]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="agreelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="graph spectral report")
    p.add_argument("graph_file")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("check", help="agreement certificate and cancellation report")
    p.add_argument("config")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run one experiment configuration")
    p.add_argument("config")
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--realizations", type=_realizations, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("design", help="network-filter synthesis")
    p.add_argument("config")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("reproduce", help="built-in reproduction scenarios")
    p.add_argument("scenario", choices=SCENARIOS)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--realizations", type=_realizations, default=None)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, MemoryError) as e:  # also an unwritable path, a grid too large
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
