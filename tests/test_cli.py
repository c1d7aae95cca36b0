import copy
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import colonykit
from colonykit import (
    ConfigError,
    Field,
    LogisticDecay,
    ModelParams,
    SeedFailureError,
    SimConfig,
    Trajectory,
    UniformPerturbed,
    cli,
)
from colonykit.cli import main
from colonykit.config import parse_config

GOOD_CONFIG = """\
params:
  D: 1.0
  sigma: 0.32
  l: 20.0
motility:
  family: logistic_decay
  steepness: 8.0
  center: 1.0
seed: 3
analyze:
  j_max: 30
expand:
  modes: [5, 6, 7]
simulate:
  n: 64
  t_end: 3.0
  steady_tol: 1.0e-10
  snapshot_every: 1.0
  init:
    kind: uniform_perturbed
    amplitude: 0.01
continuation:
  j: 6
  sigma_min: 0.45
  n: 64
"""

# only the required keys; everything else takes the library's defaults
MINIMAL_CONFIG = """\
params: {sigma: 0.3}
motility: {family: logistic_decay}
"""


class TestConfigParsing:
    def test_full_config(self):
        cfg = parse_config(GOOD_CONFIG)
        assert cfg.params.sigma == 0.32
        assert cfg.motility == LogisticDecay(steepness=8.0, center=1.0)
        assert cfg.seed == 3
        assert cfg.analyze.j_max == 30
        assert cfg.expand.modes == (5, 6, 7)
        assert isinstance(cfg.simulate.init, UniformPerturbed)
        assert cfg.simulate.init.seed == 3  # inherits the global seed
        assert cfg.simulate.sim_config(cfg.params, cfg.motility).n == 64
        assert cfg.continuation.j == 6
        assert cfg.continuation.options == {"n": 64}

    def test_minimal_simulate_section_takes_library_defaults(self):
        cfg = parse_config(MINIMAL_CONFIG + "simulate:\n  init: {kind: uniform_perturbed}\n")
        p, m = cfg.params, cfg.motility
        assert p == ModelParams(sigma=0.3)
        assert m == LogisticDecay()
        assert cfg.simulate.sim_config(p, m) == SimConfig(
            params=p, motility=m, init=UniformPerturbed(seed=0))

    def test_unknown_key_reports_line(self):
        bad = GOOD_CONFIG.replace("  j_max: 30", "  j_max: 30\n  extra_knob: 1")
        with pytest.raises(ConfigError, match=r"analyze\.extra_knob \(line 12\)"):
            parse_config(bad)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="params.sigma"):
            parse_config("params: {D: 1.0, l: 20.0}\nmotility: {family: logistic_decay}\n")

    def test_type_error_reports_path(self):
        bad = GOOD_CONFIG.replace("sigma: 0.32", "sigma: fast")
        with pytest.raises(ConfigError, match="params.sigma"):
            parse_config(bad)

    def test_domain_validation_propagates(self):
        bad = GOOD_CONFIG.replace("sigma: 0.32", "sigma: -1.0")
        with pytest.raises(ConfigError, match="sigma"):
            parse_config(bad)

    def test_unknown_motility_family(self):
        bad = GOOD_CONFIG.replace("family: logistic_decay", "family: quadratic")
        with pytest.raises(ConfigError, match="family"):
            parse_config(bad)

    def test_seed_override(self):
        cfg = parse_config(GOOD_CONFIG, seed_override=42)
        assert cfg.seed == 42

    def test_hash_stable(self):
        assert parse_config(GOOD_CONFIG).config_hash == parse_config(GOOD_CONFIG).config_hash

    def test_expand_modes_rejects_booleans(self):
        # True is an int in Python; it used to become a row with j = True
        with pytest.raises(ConfigError, match="expand.modes"):
            parse_config(GOOD_CONFIG.replace("modes: [5, 6, 7]", "modes: [true, 6]"))

    @pytest.mark.parametrize("dt, expected", [("auto", None), ("0.5", 0.5), ("1", 1.0)])
    def test_simulate_dt(self, dt, expected):
        cfg = parse_config(GOOD_CONFIG.replace("  t_end: 3.0", f"  t_end: 3.0\n  dt: {dt}"))
        assert cfg.simulate.options.get("dt") == expected


def test_cli_import_leaves_heavy_scipy_modules_out():
    # a fresh interpreter, so modules other tests imported do not count
    src = Path(colonykit.__file__).resolve().parents[1]
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    code = ("import sys, colonykit.cli; "
            "print([m for m in ('scipy.signal', 'scipy.integrate', 'scipy.stats') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == "[]"


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "experiment.yaml"
    path.write_text(GOOD_CONFIG)
    return path


class TestCommands:
    def test_analyze(self, config_file, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["analyze", "--config", str(config_file), "--out", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["i_c"] == 11
        assert payload["i_a"] == 6
        assert payload["classification"] == "unstable"
        lines = (out / "modes.csv").read_text().splitlines()
        assert lines[0].startswith("# toolkit_version=")
        assert lines[3] == "j,lambda_j,sigma_j,a_j,rho_max_real"
        assert len(lines) == 4 + 30

    def test_expand(self, config_file, tmp_path):
        out = tmp_path / "results"
        assert main(["expand", "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "expansion.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[4:]]
        assert [r[0] for r in rows] == ["5", "6", "7"]
        verdicts = {r[0]: r[-1] for r in rows}
        assert verdicts["6"] == "stable_admissible"
        assert verdicts["5"] == verdicts["7"] == "unstable_wrong_mode"
        by_mode = {r[0]: r for r in rows}
        assert float(by_mode["7"][2]) == pytest.approx(-8.5523, rel=2e-3)
        assert by_mode["6"][9] != ""  # eta reported for the admissible mode
        assert by_mode["5"][9] == ""

    def test_simulate_outputs_and_determinism(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config_file), "--out", str(out2)]) == 0
        assert (out1 / "snapshots.csv").read_bytes() == (out2 / "snapshots.csv").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["t_final"] == 3.0
        events_lines = (out1 / "events.jsonl").read_text().splitlines()
        assert "meta" in json.loads(events_lines[0])

    def test_snapshot_csv_bytes_match_per_value_writer(self, tmp_path):
        def reference_writer(path, cfg, traj):
            # one repr per value, the writer's definition of its output
            x = traj.final.x
            with path.open("w") as fh:
                for line in cli._meta_lines(cfg):
                    fh.write(line + "\n")
                fh.write("t,x,u,v\n")
                for i, t in enumerate(traj.times):
                    u, v = traj.u_history[i], traj.v_history[i]
                    for k in range(x.size):
                        fh.write(f"{float(t)!r},{float(x[k])!r},{float(u[k])!r},{float(v[k])!r}\n")

        u_hist = np.array([[1e-05, -1.5e-07, 1e+16, -3.0, 0.1 + 0.2],
                           [2.0, -0.0, 1.5e-07, 123456789.0, -1e-300]])
        v_hist = np.array([[1.0, 1e+16, 5e-324, -2.5, 1 / 3],
                           [-1e-05, 7.0, 0.0, 1e22, 2.0 ** 0.5]])
        traj = Trajectory(times=np.array([0.0, 1e-05]), u_history=u_hist, v_history=v_hist,
                          l=1e-4, final=Field(u=u_hist[-1], v=v_hist[-1], l=1e-4), steady=False)
        cfg = parse_config(GOOD_CONFIG)
        cli._write_snapshots_csv(tmp_path / "fast.csv", cfg, traj)
        reference_writer(tmp_path / "ref.csv", cfg, traj)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert "\n0.0,2.5e-05,-1.5e-07,1e+16\n" in (tmp_path / "fast.csv").read_text()

    def test_simulate_binary_snapshots(self, config_file, tmp_path):
        binary_cfg = GOOD_CONFIG.replace("  t_end: 3.0", "  t_end: 2.0\n  snapshot_format: binary")
        path = tmp_path / "bin.yaml"
        path.write_text(binary_cfg)
        out = tmp_path / "results"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        blob = (out / "snapshots.bin").read_bytes()
        n, l = struct.unpack_from("<Qd", blob, 0)
        assert n == 64 and l == 20.0
        record = 8 + 2 * (n + 1) * 8
        assert (len(blob) - 16) % record == 0
        t0 = struct.unpack_from("<d", blob, 16)[0]
        assert t0 == 0.0
        u0 = np.frombuffer(blob, dtype="<f8", count=n + 1, offset=24)
        assert np.all(np.abs(u0 - 1.0) <= 0.01)

    def test_continue(self, config_file, tmp_path):
        out = tmp_path / "results"
        assert main(["continue", "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "branch_j6.csv").read_text().splitlines()
        assert lines[3] == "j,sigma,amplitude,newton_iters,residual"
        rows = [line.split(",") for line in lines[4:]]
        assert len(rows) >= 2
        sigmas = [float(r[1]) for r in rows]
        assert sigmas[0] > sigmas[-1]
        assert all(float(r[4]) <= 1e-10 for r in rows)

    def test_continue_passes_only_keys_the_file_sets(self, tmp_path, monkeypatch):
        calls = []

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            raise SeedFailureError("recorded")

        monkeypatch.setattr(cli, "trace_branch", record)
        path = tmp_path / "cont.yaml"
        path.write_text(MINIMAL_CONFIG + "continuation: {j: 6, sigma_min: 0.45}\n")
        assert main(["continue", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        [(args, kwargs)] = calls
        assert args == (6, ModelParams(sigma=0.3), LogisticDecay(), 0.45)
        assert kwargs == {}  # ds, n and seed_offset keep trace_branch's defaults

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("params: {sigma: 0.3}\nmotility: {family: logistic_decay}\nbogus: 1\n")
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # continuation on a mode with no branch
        cfg = GOOD_CONFIG.replace("  j: 6", "  j: 12")
        path = tmp_path / "nobranch.yaml"
        path.write_text(cfg)
        assert main(["continue", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("old, new", [
        ("D: 1.0", "D: .nan"),
        ("sigma: 0.32", "sigma: .nan"),
        ("l: 20.0", "l: .inf"),
        ("center: 1.0", "center: .nan"),
    ])
    def test_nonfinite_number_is_config_error(self, tmp_path, capsys, old, new):
        path = tmp_path / "nonfinite.yaml"
        path.write_text(GOOD_CONFIG.replace(old, new))
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "must be a finite number" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dt", ["-1.0", "0", "0.0", "-3", "fast"])
    def test_nonpositive_dt_is_config_error(self, tmp_path, capsys, dt):
        path = tmp_path / "dt.yaml"
        path.write_text(GOOD_CONFIG.replace("  t_end: 3.0", f"  t_end: 3.0\n  dt: {dt}"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "simulate.dt (line 17): must be a number > 0 or 'auto'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("old, new, argv, key", [
        ("seed: 3", "seed: -1", [], "seed (line 9)"),
        ("    amplitude: 0.01", "    amplitude: 0.01\n    seed: -2", [], "simulate.init.seed (line 22)"),
        ("seed: 3", "seed: 3", ["--seed", "-1"], "--seed"),
    ], ids=["config", "init", "flag"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, old, new, argv, key):
        path = tmp_path / "seed.yaml"
        path.write_text(GOOD_CONFIG.replace(old, new))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"), *argv]) == 2
        assert f"{key}: must be >= 0" in capsys.readouterr().err

    def test_motility_underflowing_at_one_is_config_error(self, tmp_path, capsys):
        # r(1) = 0 in floating point: the linear analysis would divide by it
        path = tmp_path / "flat.yaml"
        path.write_text(GOOD_CONFIG.replace("center: 1.0", "center: -200"))
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "r(1) underflows to 0" in capsys.readouterr().err

    def test_missing_section_is_config_error(self, tmp_path):
        cfg = "params: {sigma: 0.3}\nmotility: {family: logistic_decay}\n"
        path = tmp_path / "nosim.yaml"
        path.write_text(cfg)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_analyze_monotone_motility_empty_table(self, tmp_path):
        cfg = (
            "params: {D: 1.0, sigma: 0.2, l: 20.0}\n"
            "motility: {family: exponential_decay, r0: 2.718281828459045, rate: 1.0}\n"
        )
        path = tmp_path / "monotone.yaml"
        path.write_text(cfg)
        out = tmp_path / "results"
        assert main(["analyze", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "analysis.json").read_text())
        assert payload["classification"] == "stable_by_monotonicity"
        assert "i_c" not in payload
        lines = (out / "modes.csv").read_text().splitlines()
        assert len(lines) == 4  # metadata + header only

    def test_reproduce_not_applicable_config(self, tmp_path, capsys):
        cfg = GOOD_CONFIG.replace("steepness: 8.0", "steepness: 7.0")
        path = tmp_path / "k7.yaml"
        path.write_text(cfg)
        out = tmp_path / "results"
        assert main(["reproduce-paper", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads((out / "reproduction_report.json").read_text())
        assert payload["applicable"] is False
        assert all(r["status"] == "n/a" for r in payload["results"])


# every key of GOOD_CONFIG, plus an initial-condition seed
FUZZ_BASE = yaml.safe_load(GOOD_CONFIG.replace("    amplitude: 0.01", "    amplitude: 0.01\n    seed: 5"))


def _paths(tree, path=()):
    """Paths to every mapping value and list entry below tree."""
    for key, val in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
        yield path + (key,)
        if isinstance(val, (dict, list)):
            yield from _paths(val, path + (key,))


def _at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


FUZZ_PATHS = list(_paths(FUZZ_BASE))
FUZZ_MAPPINGS = [()] + [path for path in FUZZ_PATHS if isinstance(_at(FUZZ_BASE, path), dict)]
BAD_VALUES = {
    "wrong_type": st.sampled_from(["text", {"x": 1}, [[1.0]]]),
    "bool": st.booleans(),
    "negative_int": st.integers(max_value=-1),
    "nonfinite": st.sampled_from([math.nan, math.inf, -math.inf]),
}


@pytest.mark.parametrize("kind", [*BAD_VALUES, "unknown_key"])
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_config_is_config_error(tmp_path, kind, data):
    """Each mutation at each place in the config: simulate exits 2 with a
    configuration error, never 0 with a bogus result and never a traceback.
    A negative center is the one mutation that may be valid."""
    path = tmp_path / "mutated.yaml"
    targets = FUZZ_MAPPINGS if kind == "unknown_key" else FUZZ_PATHS
    for target in targets:
        cfg = copy.deepcopy(FUZZ_BASE)
        if kind == "unknown_key":
            _at(cfg, target)["unknown_" + data.draw(st.text("abcxyz_", min_size=1))] = 1
        else:
            _at(cfg, target[:-1])[target[-1]] = data.draw(BAD_VALUES[kind])
        path.write_text(yaml.safe_dump(cfg))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")])
        valid = {0, 2} if (kind, target) == ("negative_int", ("motility", "center")) else {2}
        assert rc in valid, (target, _at(cfg, target) if target else cfg)
