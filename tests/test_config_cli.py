import functools
import json
import pickle
import warnings

import numpy as np
import pytest

from agreelab import sim
from agreelab.cli import main
from agreelab.config import ConfigError, ExperimentConfig
from agreelab.graph import Graph
from agreelab.scenarios import load_scenario, run_config, run_scenario
from agreelab.sim import SimulationDiverged, Trajectory, integrate, run_ensemble
from helpers import format_graph_text
from test_sim import JUMP_RTOL, reference_member

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


def member_paths(cfg: ExperimentConfig, seed: int, realizations: int) -> list[np.ndarray]:
    """Outputs of members 0..realizations-1 of a noisy configuration."""
    stats = run_ensemble(
        cfg.build_loop(), cfg.signals_d, cfg.signals_n, cfg.y0, cfg.dt, cfg.horizon,
        seed=seed, realizations=realizations, projection=np.ones(cfg.graph.n), keep=realizations,
    )
    return [path.outputs for path in stats.paths]


def diverging_config(y0, onset):
    """A 2DOF loop whose network filter makes it unstable, with noise."""
    cfg = base_config("twodof")
    cfg["protocol"]["network_filter"] = {"num": [2.0], "den": [1.0, 1.0]}
    cfg["signals"]["n"] = {"kind": "white_noise", "intensity": 0.05, "onset": onset}
    cfg["sim"].update(T=40.0, y0=y0, seed=3)
    return cfg


@functools.lru_cache(maxsize=None)
def oracle_divergence_time(cfg_json: str, member: int | None) -> float:
    """When member `member` of master seed sim.seed (None: the noise-free
    twin), stepped alone by the per-member oracle, crosses the divergence
    limit; inf if it never does."""
    cfg = ExperimentConfig.from_dict(json.loads(cfg_json))
    seed, n = (cfg.seed, cfg.signals_n) if member is not None else (None, [sim.SignalSpec.zero()] * cfg.graph.n)
    try:
        reference_member(cfg.build_loop(), cfg.signals_d, n, cfg.y0, cfg.dt, cfg.horizon, seed, member)
    except SimulationDiverged as err:
        return err.time
    return np.inf


def count_paths(monkeypatch) -> dict:
    """From now on: the realizations whose noise streams are opened
    ("streams", in call order), the member-steps the jump engine takes
    ("member_steps": the grid nodes after node 0 of every path it runs)
    and the noise-free twins `run_ensemble` integrates ("twins": its
    `integrate` calls)."""
    counts = {"streams": [], "member_steps": 0, "twins": 0}
    seed_of, run, integrate_twin = sim.member_seed, sim._Jumps.run, sim.integrate

    def counted_seed(master_seed, realization):
        counts["streams"].append(realization)
        return seed_of(master_seed, realization)

    def counted_run(self, seed, members):
        for s, y in run(self, seed, members):
            counts["member_steps"] += y.shape[0] * (y.shape[1] - (s == 0))
            yield s, y

    def counted_integrate(*args):
        counts["twins"] += 1
        return integrate_twin(*args)

    monkeypatch.setattr(sim, "member_seed", counted_seed)
    monkeypatch.setattr(sim._Jumps, "run", counted_run)
    monkeypatch.setattr(sim, "integrate", counted_integrate)
    return counts


class TestConfigParsing:
    def test_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(ConfigError("sim.dt", "must be positive")))
        assert type(err) is ConfigError
        assert err.path == "sim.dt" and str(err) == "sim.dt: must be positive"

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

    @pytest.mark.parametrize(
        "graph",
        [
            {"n": 5, "edges": [[1.7, 2]] + DART_EDGES[1:]},
            {"n": 5, "edges": [[1, 2], ["1", 3]] + DART_EDGES[2:]},
            {"n": 5, "edges": DART_EDGES[:2] + [[True, 4]] + DART_EDGES[3:]},
            {"n": 5, "edges": DART_EDGES[:5] + [[2, 4.0]]},
            {"n": True, "edges": []},
        ],
        ids=["float-endpoint", "string-endpoint", "bool-endpoint", "integral-float-endpoint", "bool-n"],
    )
    def test_non_integer_graph_is_config_error(self, tmp_path, capsys, graph):
        cfg = base_config()
        cfg["graph"] = graph
        path = write_config(tmp_path, cfg)
        assert main(["simulate", path, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("config error: config.graph.")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["simulate", "check"])
    @pytest.mark.parametrize("file", [123, ["a"]], ids=["number", "list"])
    def test_non_string_graph_file_is_config_error(self, tmp_path, capsys, command, file):
        cfg = base_config()
        cfg["graph"] = {"file": file}
        args = ["--out", str(tmp_path / "run")] if command == "simulate" else []
        assert main([command, write_config(tmp_path, cfg), *args]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: config.graph.file: expected a path string\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text, line, token", [("n 3\ne 1 2\ne 2 x\n", 3, "x"), ("n 3.5\n", 1, "3.5")])
    def test_non_integer_in_graph_file_names_its_line(self, tmp_path, capsys, text, line, token):
        (tmp_path / "g.graph").write_text(text)
        cfg = base_config()
        cfg["graph"] = {"file": "g.graph"}
        assert main(["simulate", write_config(tmp_path, cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == (
            f"config error: config.graph: cannot read graph file: line {line}: expected an integer, got {token!r}\n")

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
        assert parsed.protocol.network_filter(0.0) == pytest.approx(1.0)


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

    @pytest.mark.parametrize("text, line, token", [("n 3\ne 1 2\ne 2 x\n", 3, "x"), ("n 3.5\n", 1, "3.5")])
    def test_non_integer_names_its_line(self, tmp_path, capsys, text, line, token):
        path = tmp_path / "bad.graph"
        path.write_text(text)
        assert main(["spectrum", str(path)]) == 1
        assert capsys.readouterr().err == f"error: line {line}: expected an integer, got {token!r}\n"


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

    def test_improper_local_controller_rejected_by_check_and_simulate(self, tmp_path, capsys):
        # agent 3's controller -(s^2 + s + 1)/(s + 1) cannot be realized:
        # check must not certify a network that simulate cannot build
        cfg = base_config("twodof")
        improper = {**cfg["agents"], "controller": {"num": [-1.0, -1.0, -1.0], "den": [1.0, 1.0]}}
        cfg["agents"] = [cfg["agents"]] * 2 + [improper] + [cfg["agents"]] * 2
        path = write_config(tmp_path, cfg)
        for argv in (["check", path], ["simulate", path, "--out", str(tmp_path / "out")]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert "agreement PASS" not in captured.out
            assert "agent 3: local controller unrealizable (improper Fd)" in captured.err


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

    def test_step_past_the_horizon_never_acts(self, tmp_path):
        # (s + 1)/(s + 2) plants feed the disturbance through to the outputs
        cfg = base_config("classic")
        cfg["agents"]["plant"] = {"num": [1.0, 1.0], "den": [2.0, 1.0]}
        written = []
        for d in ({"kind": "zero"}, {"kind": "step", "amplitude": 1.0, "onset": 100.0}):
            cfg["signals"]["d"] = d
            out_dir = tmp_path / f"run{len(written)}"
            assert main(["simulate", write_config(tmp_path, cfg), "--out", str(out_dir)]) == 0
            written.append((out_dir / "metrics.json").read_text())
        assert written[0] == written[1]

    def test_one_agent_classic_network_is_its_plant(self, tmp_path):
        # L = 0: the lone integrator integrates its 0.5 step from t = 1 s
        cfg = base_config("classic")
        cfg["graph"] = {"n": 1, "edges": []}
        cfg["signals"]["d"] = {"kind": "step", "amplitude": 0.5, "onset": 1.0}
        cfg["sim"]["y0"] = [1.0]
        out_dir = tmp_path / "one"
        assert main(["simulate", write_config(tmp_path, cfg), "--out", str(out_dir)]) == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["final_consensus"] == pytest.approx(5.5, rel=1e-14)
        traj = Trajectory.read_csv(out_dir / "trajectory_r000.csv")
        want = 1.0 + 0.5 * np.maximum(traj.times - 1.0, 0.0)
        assert np.max(np.abs(traj.outputs[:, 0] - want)) <= 1e-13

    def test_one_agent_twodof_network_is_rejected(self, tmp_path, capsys):
        # check and simulate give the one reason: the lone agent has no neighbor to average
        cfg = base_config("twodof")
        cfg["graph"] = {"n": 1, "edges": []}
        cfg["sim"]["y0"] = [1.0]
        path = write_config(tmp_path, cfg)
        for argv in (["check", path], ["simulate", path, "--out", str(tmp_path / "one")]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err == "error: 2DOF protocol needs every agent to have a neighbor\n"
            assert captured.out == ""

    def test_step_count_past_the_float_range(self, tmp_path, capsys):
        cfg = base_config("classic")
        cfg["sim"].update(dt=1e-300, T=1e10)
        assert main(["simulate", write_config(tmp_path, cfg), "--out", str(tmp_path / "long")]) == 1
        assert capsys.readouterr().err == "error: horizon too long for the step size\n"

    def test_grid_too_large_to_allocate(self, tmp_path, capsys):
        # 1e15 steps: numpy refuses the 7 PiB time grid at once
        cfg = base_config("classic")
        cfg["sim"].update(dt=1e-12, T=1e3)
        assert main(["simulate", write_config(tmp_path, cfg), "--out", str(tmp_path / "huge")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_onset_past_the_float_range(self, tmp_path):
        cfg = base_config("classic")
        cfg["sim"].update(dt=1e-10, T=1e-6)
        cfg["signals"]["d"] = {"kind": "step", "amplitude": 1.0, "onset": 1e300}
        assert main(["simulate", write_config(tmp_path, cfg), "--out", str(tmp_path / "onset")]) == 0

    def test_divergence_exit_code(self, tmp_path):
        cfg = base_config("twodof")
        cfg["protocol"]["network_filter"] = {"num": [2.0], "den": [1.0, 1.0]}
        cfg["sim"]["T"] = 40.0
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "div"
        assert main(["simulate", path, "--out", str(out_dir)]) == 2
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert metrics["diverged_at_s"] > 0

    def diverged_at(self, tmp_path, cfg, realizations) -> float:
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "div"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["simulate", path, "--out", str(out_dir), "--realizations", str(realizations)])
        assert rc == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return json.loads((out_dir / "metrics.json").read_text())["diverged_at_s"]

    @pytest.mark.parametrize("realizations", [3, 20, 30])
    def test_divergence_time_is_earliest_member(self, tmp_path, realizations):
        # unstable loop from rest: the twin stays at zero and only the noise
        # drives the members away, each at its own time
        cfg = diverging_config(y0=[0.0] * 5, onset=1.0)
        key = json.dumps(cfg)
        times = [oracle_divergence_time(key, r) for r in range(realizations)]
        assert oracle_divergence_time(key, None) == np.inf
        assert np.argmin(times) != 0
        assert self.diverged_at(tmp_path, cfg, realizations) == min(times)

    def test_divergence_time_counts_the_twin(self, tmp_path):
        # from a nonzero start the twin diverges too, but a member first
        cfg = diverging_config(y0=base_config()["sim"]["y0"], onset=0.0)
        key = json.dumps(cfg)
        times = [oracle_divergence_time(key, r) for r in range(3)]
        twin = oracle_divergence_time(key, None)
        assert min(times) < twin < np.inf and np.argmin(times) != 0
        assert self.diverged_at(tmp_path, cfg, 3) == min(times)

    def test_twin_turns_measurement_steps_off(self, tmp_path):
        # measurement channels that mix a step and noise: the disagreement
        # is taken against the twin with every measurement channel at zero
        cfg = noisy_config(T=2.0)
        noise = cfg["signals"]["n"]
        cfg["signals"]["n"] = [{"kind": "step", "amplitude": 0.3, "onset": 0.5}] + [noise] * 4
        out_dir = tmp_path / "mixed"
        assert main(["simulate", write_config(tmp_path, cfg), "--out", str(out_dir), "--realizations", "2"]) == 0
        c = ExperimentConfig.from_dict(cfg)
        twin = reference_member(
            c.build_loop(), c.signals_d, [sim.SignalSpec.zero()] * 5, c.y0, c.dt, c.horizon, None, 0
        )
        member = member_paths(c, c.seed, 1)[0]
        metrics = json.loads((out_dir / "metrics.json").read_text())
        # the engine's twin agrees with the stepped one to rounding
        want = float(np.linalg.norm(member[-1] - np.mean(twin[-1])))
        assert metrics["disagreement_norm_at_2"] == pytest.approx(
            want, rel=0.0, abs=3 * JUMP_RTOL * np.max(np.abs(twin)))

    def test_config_error_exit_code(self, tmp_path):
        cfg = base_config("classic")
        cfg["protocol"]["k"] = -1.0
        path = write_config(tmp_path, cfg)
        assert main(["simulate", path, "--out", str(tmp_path / "x")]) == 1

    def test_out_naming_a_file_is_an_error(self, tmp_path, capsys):
        path = write_config(tmp_path, base_config("classic"))
        (tmp_path / "afile").write_text("")
        assert main(["simulate", path, "--out", str(tmp_path / "afile")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_one_step_horizon_has_no_drift_slope(self, tmp_path, capsys):
        # [T/2, T] holds one grid node, so the slope is undefined, not an error
        path = write_config(tmp_path, noisy_config(T=0.001))
        out_dir = tmp_path / "short"
        assert main(["simulate", path, "--out", str(out_dir), "--realizations", "30"]) == 0
        assert json.loads((out_dir / "metrics.json").read_text())["drift_slope"] is None
        assert "drift_slope None" in capsys.readouterr().out

    def test_ensemble_integrates_each_path_once(self, tmp_path, monkeypatch):
        # 30 members, member 0 among them, on the jump engine; the uniform
        # loop's noise-free twin is one modal `integrate` run beside them
        path = write_config(tmp_path, noisy_config(T=2.0))
        counts = count_paths(monkeypatch)
        assert main(["simulate", path, "--out", str(tmp_path / "o"), "--realizations", "30"]) == 0
        assert counts["streams"] == list(range(30))
        assert counts["member_steps"] == 30 * 2000
        assert counts["twins"] == 1

    def test_mid_size_ensemble_integrates_every_member(self, tmp_path, monkeypatch):
        # between the CSV and the drift-slope sizes: still all R members and the twin
        path = write_config(tmp_path, noisy_config(T=2.0))
        counts = count_paths(monkeypatch)
        assert main(["simulate", path, "--out", str(tmp_path / "o"), "--realizations", "20"]) == 0
        assert counts["streams"] == list(range(20))
        assert counts["member_steps"] == 20 * 2000
        assert counts["twins"] == 1

    def test_trajectory_files_are_ensemble_members(self, tmp_path):
        cfg = noisy_config(T=2.0)
        path = write_config(tmp_path, cfg)
        out_dir = tmp_path / "members"
        assert main(["simulate", path, "--out", str(out_dir), "--realizations", "3", "--seed", "4"]) == 0
        members = member_paths(ExperimentConfig.from_dict(cfg), 4, 3)
        for r, member in enumerate(members):
            traj = Trajectory.read_csv(out_dir / f"trajectory_r{r:03d}.csv")
            assert np.array_equal(traj.outputs, member)
        assert not (out_dir / "trajectory_r003.csv").exists()

    @pytest.mark.parametrize("noisy", [True, False])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, noisy):
        cfg = noisy_config() if noisy else base_config()
        out_dir = tmp_path / "run"
        cfg["sim"]["seed"] = -1
        assert main(["simulate", write_config(tmp_path, cfg), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("config error: config.sim.seed:")
        cfg["sim"]["seed"] = 0
        assert main(["simulate", write_config(tmp_path, cfg), "--out", str(out_dir), "--seed", "-1"]) == 1
        assert "config error: cli: argument --seed:" in capsys.readouterr().err
        assert not out_dir.exists()

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
            # alphas are eigenvalues of D^-1 A, so they lie in [-1, 1]
            {"bounds": {"omega_n": [3.0, 3.0], "tau": [5.0, 5.0], "zeta": [2.0, 2.0]},
             "alphas": [1.5, 0.2]},
            {"bounds": {"omega_n": [3.0, 3.0], "tau": [5.0, 5.0], "zeta": [2.0, 2.0]},
             "alphas": [0.2, -1.5]},
        ],
        ids=["missing-zeta", "lo-above-hi", "two-pairs", "scalar-tau", "scalar-alphas",
             "alpha-above-one", "alpha-below-minus-one"],
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

    @pytest.mark.parametrize("slack, code", [(5e-10, 0), (1e-8, 1)])
    def test_alpha_range_has_slack(self, tmp_path, capsys, slack, code):
        cfg = {
            "bounds": {"omega_n": [3.0, 3.0], "tau": [5.0, 5.0], "zeta": [2.0, 2.0]},
            "alphas": [0.2, 1.0 + slack, -1.0 - slack],
        }
        assert main(["design", write_config(tmp_path, cfg, "design.json")]) == code
        if code:
            assert capsys.readouterr().err.startswith("config error: design config.alphas[1]: ")

    @pytest.mark.parametrize("file", [123, ["a"]], ids=["number", "list"])
    def test_non_string_graph_file_is_config_error(self, tmp_path, capsys, file):
        cfg = {"bounds": {"omega_n": [0.5, 5.0], "tau": [0.5, 10.0], "zeta": [0.5, 4.0]}, "graph": {"file": file}}
        assert main(["design", write_config(tmp_path, cfg, "design.json")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: design config.graph.file: expected a path string\n"
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


class TestRunConfig:
    def test_noise_free_is_one_path(self):
        cfg = ExperimentConfig.from_dict(base_config("twodof"))
        paths, reference, stats, slope = run_config(cfg, seed=0, realizations=3, keep=3)
        expected = integrate(cfg.build_loop(), cfg.signals_d, cfg.signals_n, cfg.y0, cfg.dt, cfg.horizon)
        assert len(paths) == 1
        assert np.array_equal(paths[0].outputs, expected.outputs)
        assert reference == float(np.mean(expected.outputs[-1]))
        assert stats is None and slope is None

    def test_noisy_is_the_ensemble(self):
        cfg = ExperimentConfig.from_dict(noisy_config(T=2.0))
        paths, reference, stats, slope = run_config(cfg, seed=4, realizations=3, keep=2)
        assert paths is stats.paths and len(paths) == 2
        assert reference == stats.reference
        assert slope is None  # below the 30 realizations a slope needs
        assert np.array_equal(paths[1].outputs, member_paths(cfg, 4, 2)[1])


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

    def test_out_naming_a_file_is_an_error(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        assert main(["reproduce", "nominal", "--out", str(tmp_path / "afile")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_scenario(self):
        assert main(["reproduce", "warp"]) == 1

    def test_zero_realizations_is_config_error(self, tmp_path, capsys):
        assert main(["reproduce", "nominal", "--out", str(tmp_path / "r"), "--realizations", "0"]) == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["noise", "nominal"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, scenario):
        out_dir = tmp_path / "r"
        assert main(["reproduce", scenario, "--out", str(out_dir), "--seed", "-1"]) == 1
        assert "config error: cli: argument --seed:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_noise_runs_twin_and_member_zero_only(self, tmp_path, monkeypatch):
        counts = count_paths(monkeypatch)
        run_scenario("noise", tmp_path / "noise", realizations=1)
        assert counts["streams"] == [0, 0]
        cfg = load_scenario("noise")["classic"]
        # member 0 of each protocol on the jump engine, each twin modal
        assert counts["member_steps"] == 2 * round(cfg.horizon / cfg.dt)
        assert counts["twins"] == 2

    def test_noise_sample_csv_is_member_zero(self, tmp_path):
        out_dir = tmp_path / "noise"
        assert main(["reproduce", "noise", "--out", str(out_dir), "--realizations", "1", "--seed", "8"]) == 0
        for proto, cfg in load_scenario("noise").items():
            traj = Trajectory.read_csv(out_dir / f"noise_{proto}.csv")
            assert np.array_equal(traj.outputs, member_paths(cfg, 8, 1)[0])


def test_cli_usage_error_is_config_exit():
    assert main(["unknown-subcommand"]) == 1
