import json

import numpy as np
import pytest

from agreelab import _kernels, sim
from agreelab.cli import main
from agreelab.config import ConfigError, ExperimentConfig
from agreelab.graph import Graph, format_graph_text
from agreelab.scenarios import load_scenario, run_scenario
from agreelab.sim import Trajectory, ensemble_member

DART_EDGES = [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3], [2, 4]]


def base_config(protocol="classic"):
    cfg = {
        "graph": {"n": 5, "edges": DART_EDGES},
        "agents": {"plant": {"num": [1.0], "den": [0.0, 1.0]}},
        "protocol": {"type": "classic", "k": 2.65, "filter": {"num": [1.0], "den": [1.0]}},
        "signals": {"d": {"kind": "zero"}, "n": {"kind": "zero"}},
        "sim": {
            "dt": 0.001,
            "T": 10.0,
            "y0": [1.5, 0.75, 0.0, -0.75, -1.5],
            "seed": 0,
            "realizations": 1,
        },
    }
    if protocol == "twodof":
        cfg["agents"] = {
            "plant": {"num": [1.0], "den": [0.0, 1.0]},
            "controller": {"num": [-16.0, -7.586], "den": [0.4143, 1.0]},
        }
        cfg["protocol"] = {
            "type": "twodof",
            "network_filter": {"omega_n": 3.0, "tau": 5.0, "zeta": 2.0},
        }
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def noisy_config(T=8.0):
    cfg = base_config("classic")
    cfg["signals"]["n"] = {"kind": "white_noise", "intensity": 0.05, "onset": 1.0}
    cfg["sim"]["T"] = T
    return cfg


def count_kernel_calls(monkeypatch) -> list[str]:
    """Stepping-kernel calls ("affine_path") and noise draws
    ("draw_increments") from now on, in call order."""
    calls = []
    for owner, name in ((_kernels, "affine_path"), (sim._Prepared, "draw_increments")):
        original = getattr(owner, name)

        def counted(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestConfigParsing:
    def test_roundtrip_identity(self):
        cfg = ExperimentConfig.from_dict(base_config("twodof"))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_top_level_key(self):
        bad = base_config()
        bad["misc"] = 1
        with pytest.raises(ConfigError, match="unknown keys"):
            ExperimentConfig.from_dict(bad)

    def test_unknown_nested_key_has_path(self):
        bad = base_config()
        bad["sim"]["step"] = 0.1
        with pytest.raises(ConfigError, match="config.sim"):
            ExperimentConfig.from_dict(bad)

    def test_wrong_y0_length(self):
        bad = base_config()
        bad["sim"]["y0"] = [1.0, 2.0]
        with pytest.raises(ConfigError, match="y0"):
            ExperimentConfig.from_dict(bad)

    def test_graph_from_file(self, tmp_path):
        g = Graph(3, [(1, 2), (2, 3)])
        (tmp_path / "g.graph").write_text(format_graph_text(g))
        cfg = base_config()
        cfg["graph"] = {"file": "g.graph"}
        cfg["sim"]["y0"] = [0.0, 0.0, 0.0]
        parsed = ExperimentConfig.from_dict(cfg, base_dir=tmp_path)
        assert parsed.graph == g

    def test_per_agent_lists(self):
        cfg = base_config("twodof")
        agent = {
            "plant": {"num": [1.0], "den": [0.0, 1.0]},
            "controller": {"num": [-8.777, -4.74], "den": [0.0, 1.0]},
        }
        cfg["agents"] = [agent] * 5
        parsed = ExperimentConfig.from_dict(cfg)
        assert len(parsed.agents) == 5

    def test_signal_bank_lists(self):
        cfg = base_config()
        cfg["signals"]["d"] = [{"kind": "step", "amplitude": 1.0, "onset": 5.0}] + [
            {"kind": "zero"}
        ] * 4
        parsed = ExperimentConfig.from_dict(cfg)
        assert parsed.signals_d[0].kind == "step"
        assert parsed.signals_d[1].kind == "zero"

    def test_network_filter_coefficient_form(self):
        cfg = base_config("twodof")
        cfg["protocol"]["network_filter"] = {"num": [9.0], "den": [9.0, 57.0, 61.0, 5.0]}
        parsed = ExperimentConfig.from_dict(cfg)
        assert parsed.filter_params is None
        assert parsed.twodof.network_filter(0.0) == pytest.approx(1.0)


class TestSpectrumCommand:
    def test_dart_report(self, tmp_path, capsys):
        g = Graph(5, [tuple(e) for e in DART_EDGES])
        path = tmp_path / "dart.graph"
        path.write_text(format_graph_text(g))
        assert main(["spectrum", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nodes 5" in out
        assert "edges 6" in out
        assert "connected true" in out
        spectrum = [float(v) for v in out.splitlines()[3].split()[1:]]
        expected = [1.0, 0.2287135538781687, 0.0, -0.5, -0.7287135538781689]
        assert np.allclose(spectrum, expected, atol=1e-12)

    def test_single_edge(self, tmp_path, capsys):
        path = tmp_path / "e.graph"
        path.write_text(format_graph_text(Graph(2, [(1, 2)])))
        assert main(["spectrum", str(path)]) == 0
        out = capsys.readouterr().out
        spectrum = [float(v) for v in out.splitlines()[3].split()[1:]]
        assert np.allclose(spectrum, [1.0, -1.0])

    def test_triangle(self, tmp_path, capsys):
        path = tmp_path / "t.graph"
        path.write_text(format_graph_text(Graph(3, [(1, 2), (1, 3), (2, 3)])))
        assert main(["spectrum", str(path)]) == 0
        spectrum = [float(v) for v in capsys.readouterr().out.splitlines()[3].split()[1:]]
        assert np.allclose(spectrum, [1.0, -0.5, -0.5])

    def test_single_node_is_a_clear_error(self, tmp_path, capsys):
        path = tmp_path / "one.graph"
        path.write_text("n 1\n")
        assert main(["spectrum", str(path)]) == 1
        assert capsys.readouterr().err == "error: modal transform undefined: isolated node present\n"

    def test_disconnected_warns_not_errors(self, tmp_path, capsys):
        path = tmp_path / "d.graph"
        path.write_text(format_graph_text(Graph(4, [(1, 2), (3, 4)])))
        assert main(["spectrum", str(path)]) == 0
        err = capsys.readouterr().err
        assert "warning" in err

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["spectrum", str(tmp_path / "missing.graph")]) == 1


class TestCheckCommand:
    def test_reference_twodof_config(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config("twodof"))
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "agreement PASS" in out
        assert "agreement_poles 0+0j" in out
        assert "cancellation disturbance-path at 0+0j: CANCELLATION-EXCLUDED" in out
        assert "cancellation y0-path at 0+0j: NECESSARY-CONDITION-HOLDS" in out

    def test_failing_filter(self, tmp_path, capsys):
        cfg = base_config("twodof")
        cfg["protocol"]["network_filter"] = {"num": [2.0], "den": [1.0, 1.0]}
        path = write_config(tmp_path, cfg)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "agreement FAIL" in out
        assert "alpha=1 fail" in out

    def test_classic_config_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config("classic"))
        assert main(["check", path]) == 1
        assert "twodof" in capsys.readouterr().err


class TestSimulateCommand:
    def test_nominal_classic_metrics(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config("classic"))
        out_dir = tmp_path / "out"
        assert main(["simulate", path, "--out", str(out_dir)]) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["settling_time_s"] == pytest.approx(1.433, rel=0.10)
        assert metrics["final_consensus"] == pytest.approx(0.0, abs=1e-9)
        assert metrics["seed"] == 0
        traj = Trajectory.read_csv(out_dir / "trajectory_r000.csv")
        assert traj.outputs.shape == (10001, 5)

    def test_nominal_twodof_metrics(self, tmp_path):
        path = write_config(tmp_path, base_config("twodof"))
        out_dir = tmp_path / "out2"
        assert main(["simulate", path, "--out", str(out_dir)]) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["settling_time_s"] == pytest.approx(1.432, rel=0.10)

    def test_zero_initial_conditions_zero_output(self, tmp_path):
        cfg = base_config("classic")
        cfg["sim"]["y0"] = [0.0] * 5
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "zero"
        assert main(["simulate", path, "--out", str(out_dir)]) == 0
        traj = Trajectory.read_csv(out_dir / "trajectory_r000.csv")
        assert np.max(np.abs(traj.outputs)) == 0.0

    def test_divergence_exit_code(self, tmp_path):
        cfg = base_config("twodof")
        cfg["protocol"]["network_filter"] = {"num": [2.0], "den": [1.0, 1.0]}
        cfg["sim"]["T"] = 40.0
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "div"
        assert main(["simulate", path, "--out", str(out_dir)]) == 2
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["diverged_at_s"] > 0

    def test_config_error_exit_code(self, tmp_path):
        cfg = base_config("classic")
        cfg["protocol"]["k"] = -1.0
        path = write_config(tmp_path, cfg)
        assert main(["simulate", path, "--out", str(tmp_path / "x")]) == 1

    def test_realization_flag_and_noise_metrics(self, tmp_path):
        path = write_config(tmp_path, noisy_config())
        out_dir = tmp_path / "noisy"
        assert main(["simulate", path, "--out", str(out_dir), "--realizations", "30"]) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["drift_slope"] is not None
        assert f"disagreement_norm_at_8" in metrics
        # only up to 10 trajectory files written
        written = sorted(out_dir.glob("trajectory_r*.csv"))
        assert len(written) == 0

    def test_ensemble_integrates_each_path_once(self, tmp_path, monkeypatch):
        # 30 members, member 0 among them, plus the noise-free twin
        path = write_config(tmp_path, noisy_config(T=2.0))
        calls = count_kernel_calls(monkeypatch)
        assert main(["simulate", path, "--out", str(tmp_path / "o"), "--realizations", "30"]) == 0
        assert calls.count("draw_increments") == 30
        assert calls.count("affine_path") == 31

    def test_trajectory_files_are_ensemble_members(self, tmp_path):
        cfg = noisy_config(T=2.0)
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "members"
        assert main(["simulate", path, "--out", str(out_dir), "--realizations", "3", "--seed", "4"]) == 0
        loaded = ExperimentConfig.from_dict(cfg)
        loop = loaded.build_loop()
        for r in range(3):
            member = ensemble_member(
                loop, loaded.signals_d, loaded.signals_n, loaded.y0, loaded.dt, loaded.horizon, 4, r
            )
            traj = Trajectory.read_csv(out_dir / f"trajectory_r{r:03d}.csv")
            assert np.array_equal(traj.outputs, member.outputs)
        assert not (out_dir / "trajectory_r003.csv").exists()

    @pytest.mark.parametrize("noisy", [True, False])
    def test_zero_realizations_is_config_error(self, tmp_path, capsys, noisy):
        cfg = noisy_config() if noisy else base_config()
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "zero"
        assert main(["simulate", path, "--out", str(out_dir), "--realizations", "0"]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (out_dir / "metrics.json").exists()


class TestDesignCommand:
    def test_pinned_point(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"bounds": {"omega_n": [3.0, 3.0], "tau": [5.0, 5.0], "zeta": [2.0, 2.0]}},
            "design.json",
        )
        assert main(["design", path]) == 0
        out = capsys.readouterr().out
        assert "omega_n 3" in out
        assert "h2_drift" in out

    def test_infeasible_exit_code(self, tmp_path):
        path = write_config(
            tmp_path,
            {"bounds": {"omega_n": [5e-4, 1e-3], "tau": [10.0, 20.0], "zeta": [5e-4, 1e-3]}},
            "design.json",
        )
        assert main(["design", path]) == 3

    @pytest.mark.parametrize(
        "cfg",
        [
            {"bounds": {"omega_n": [0.5, 5.0], "tau": [0.5, 10.0]}},
            {"bounds": {"omega_n": [5.0, 0.5], "tau": [0.5, 10.0], "zeta": [0.5, 4.0]}},
            {"bounds": [[0.5, 5.0], [0.5, 10.0]]},
            {"bounds": {"omega_n": [0.5, 5.0], "tau": 5, "zeta": [0.5, 4.0]}},
            {"bounds": {"omega_n": [0.5, 5.0], "tau": [0.5, 10.0], "zeta": [0.5, 4.0]},
             "alphas": 5},
        ],
        ids=["missing-zeta", "lo-above-hi", "two-pairs", "scalar-tau", "scalar-alphas"],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, cfg):
        path = write_config(tmp_path, cfg, "design.json")
        assert main(["design", path]) == 1
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, section, key, value",
        [
            ("simulate", "sim", "dt", float("nan")),
            ("simulate", "sim", "T", float("inf")),
            ("simulate", "sim", "y0", [float("nan"), 0.75, 0.0, -0.75, -1.5]),
            ("design", None, "alphas", [float("nan"), -0.5]),
            ("design", None, "alphas", [float("-inf")]),
        ],
        ids=["dt-nan", "T-inf", "y0-nan", "alphas-nan", "alphas-minus-inf"],
    )
    def test_nonfinite_number_is_config_error(self, tmp_path, capsys, command, section, key, value):
        # json reads NaN and Infinity; they must not reach the numerics
        if command == "simulate":
            cfg = base_config()
            args = ["--out", str(tmp_path / "run")]
        else:
            cfg = {"bounds": {"omega_n": [0.5, 5.0], "tau": [0.5, 10.0], "zeta": [0.5, 4.0]}}
            args = []
        (cfg[section] if section else cfg)[key] = value
        path = write_config(tmp_path, cfg, f"{command}.json")
        assert main([command, path, *args]) == 1
        captured = capsys.readouterr()
        assert "config error:" in captured.err
        assert captured.out == ""

    def test_graph_spectrum_bounds(self, tmp_path, capsys):
        cfg = {
            "bounds": {"omega_n": [0.5, 5.0], "tau": [0.5, 10.0], "zeta": [0.5, 4.0]},
            "graph": {"n": 5, "edges": DART_EDGES},
        }
        path = write_config(tmp_path, cfg, "design.json")
        assert main(["design", path]) == 0
        out = capsys.readouterr().out
        assert "h2_drift" in out


class TestReproduceCommand:
    def test_nominal(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        assert main(["reproduce", "nominal", "--out", str(out_dir)]) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["classic_settling_time_s"] == pytest.approx(1.433, rel=0.10)
        assert metrics["twodof_settling_time_s"] == pytest.approx(1.432, rel=0.10)
        for name in ("nominal_classic.csv", "nominal_twodof.csv"):
            traj = Trajectory.read_csv(out_dir / name)
            assert traj.outputs.shape[1] == 5

    def test_unknown_scenario(self):
        assert main(["reproduce", "warp"]) == 1

    def test_zero_realizations_is_config_error(self, tmp_path, capsys):
        assert main(["reproduce", "nominal", "--out", str(tmp_path / "r"), "--realizations", "0"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_noise_runs_twin_and_member_zero_only(self, tmp_path, monkeypatch):
        calls = count_kernel_calls(monkeypatch)
        run_scenario("noise", tmp_path / "noise", realizations=1)
        assert calls.count("draw_increments") == 2
        assert calls.count("affine_path") == 4

    def test_noise_sample_csv_is_member_zero(self, tmp_path):
        out_dir = tmp_path / "noise"
        assert main(["reproduce", "noise", "--out", str(out_dir), "--realizations", "1", "--seed", "8"]) == 0
        for proto, cfg in load_scenario("noise").items():
            member = ensemble_member(
                cfg.build_loop(), cfg.signals_d, cfg.signals_n, cfg.y0, cfg.dt, cfg.horizon, 8, 0
            )
            traj = Trajectory.read_csv(out_dir / f"noise_{proto}.csv")
            assert np.array_equal(traj.outputs, member.outputs)


def test_cli_usage_error_is_config_exit():
    assert main(["unknown-subcommand"]) == 1
