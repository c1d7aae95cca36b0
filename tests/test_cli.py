import builtins
import copy
import errno
import importlib
import importlib.machinery
import importlib.util
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import colonykit
from colonykit import _compiled
from colonykit import (
    BlowUpError,
    ConfigError,
    LogisticDecay,
    ModelParams,
    SeedFailureError,
    SimConfig,
    Trajectory,
    UniformPerturbed,
    cli,
)
from colonykit.cli import main
from colonykit.config import load_config, parse_config
from colonykit.pde_solver import initial_field
from colonykit.reproduce import CriterionResult, format_report

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

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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
        assert cfg.simulate.init.seed == 3  # the noise seed is the global seed
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

    @pytest.mark.parametrize("old, new, read", [
        ("l: 20.0", "l: 2e1", lambda cfg: cfg.params.l == 20.0),
        ("D: 1.0", "D: 1E-3", lambda cfg: cfg.params.D == 0.001),
        ("steepness: 8.0", "steepness: 1.0e308", lambda cfg: cfg.motility.steepness == 1e308),
        ("center: 1.0", "center: -5e0", lambda cfg: cfg.motility.center == -5.0),
    ], ids=["2e1", "1E-3", "1.0e308", "-5e0"])
    def test_exponent_without_dot_or_sign_is_a_float(self, old, new, read):
        # YAML 1.1 reads these as strings; the loader takes YAML 1.2's floats
        assert read(parse_config(GOOD_CONFIG.replace(old, new)))

    def test_overflowing_exponent_is_not_finite(self):
        with pytest.raises(ConfigError, match=r"params\.sigma \(line 3\): must be a finite number"):
            parse_config(GOOD_CONFIG.replace("sigma: 0.32", "sigma: 1e999"))

    def test_expand_modes_rejects_booleans(self):
        # True is an int in Python; it used to become a row with j = True
        with pytest.raises(ConfigError, match="expand.modes"):
            parse_config(GOOD_CONFIG.replace("modes: [5, 6, 7]", "modes: [true, 6]"))

    @pytest.mark.parametrize("modes", ["[true, 6]", "[0]", "stable"])
    def test_expand_modes_errors_report_line(self, modes):
        with pytest.raises(ConfigError, match=r"^expand\.modes \(line 13\): "):
            parse_config(GOOD_CONFIG.replace("modes: [5, 6, 7]", f"modes: {modes}"))

    @pytest.mark.parametrize("text, key", [
        (GOOD_CONFIG.replace("  snapshot_every: 1.0", "  snapshot_every: 1.0\n  b_max: 50.0"),
         "simulate.b_max (line 19)"),
        (GOOD_CONFIG + "  seed_offset: 0.01\n", "continuation.seed_offset (line 26)"),
        (GOOD_CONFIG + "  ds: 1.0e-3\n", "continuation.ds (line 26)"),
        (GOOD_CONFIG + "reproduce:\n  n: 128\n", "reproduce (line 26)"),
        (GOOD_CONFIG.replace("    amplitude: 0.01", "    amplitude: 0.01\n    seed: 3"),
         "simulate.init.seed (line 22)"),
    ], ids=["b_max", "seed_offset", "ds", "reproduce", "init_seed"])
    def test_retired_keys_are_unknown(self, text, key):
        with pytest.raises(ConfigError, match=re.escape(f"unknown key {key}")):
            parse_config(text)

    @pytest.mark.parametrize("command, old, new, message", [
        ("simulate", "  t_end: 3.0", "  t_end: 3.0\n  dt: auto",
         "simulate.dt (line 17): expected float, got 'auto'"),
        ("expand", "modes: [5, 6, 7]", "modes: unstable",
         "expand.modes (line 13): expected list, got 'unstable'"),
    ], ids=["dt_auto", "modes_unstable"])
    def test_retired_spellings_exit_2(self, tmp_path, capsys, command, old, new, message):
        # leaving the key out asks for the library default instead
        path = tmp_path / "retired.yaml"
        path.write_text(GOOD_CONFIG.replace(old, new))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("dt, expected", [(None, None), ("0.5", 0.5), ("1", 1.0)])
    def test_simulate_dt(self, dt, expected):
        line = "" if dt is None else f"\n  dt: {dt}"
        cfg = parse_config(GOOD_CONFIG.replace("  t_end: 3.0", "  t_end: 3.0" + line))
        assert cfg.simulate.options.get("dt") == expected

    def test_expand_without_modes_takes_every_mode(self):
        assert parse_config(MINIMAL_CONFIG).expand.modes is None
        assert parse_config(MINIMAL_CONFIG + "expand: {}\n").expand.modes is None

    def test_merge_keys_are_accepted(self):
        cfg = parse_config(MINIMAL_CONFIG
                           + "simulate: {<<: &res {n: 128}, init: {kind: uniform_perturbed}}\n"
                           "continuation: {<<: *res, j: 6, sigma_min: 0.45}\n")
        assert cfg.continuation.options == {"n": 128}
        assert cfg.simulate.options == {"n": 128}

    def test_shipped_configs_keep_their_hashes(self):
        hashes = {path.name: load_config(path).config_hash for path in CONFIGS.glob("*.yaml")}
        assert hashes == {
            "analyze_reference.yaml": "545bac8912045a09",
            "continue_mode6.yaml": "96cf8ea9bd7dbe57",
            "simulate_mode4_transition.yaml": "bc3fac06c8a164e3",
        }


# a YAML-punctuation alphabet for random edits of a config's text
EDIT_CHARS = ":-?,[]{}#&*!|>'\"%@`~ \t\n0123456789.eax"


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, len(GOOD_CONFIG)), st.integers(0, 2),
                                st.sampled_from(EDIT_CHARS)), min_size=1, max_size=4))
def test_edited_config_text_raises_only_config_error(edits):
    """1-4 character insertions, deletions or replacements anywhere in the
    text parse to a config or raise ConfigError, never another exception."""
    text = GOOD_CONFIG
    for pos, op, char in edits:
        pos = min(pos, len(text))
        text = text[:pos] + ("" if op == 1 else char) + text[pos + (op > 0):]
    try:
        parse_config(text)
    except ConfigError:
        pass


def fresh_interpreter(code):
    """Standard output of ``code`` run in a fresh interpreter on this
    colonykit, so modules other tests imported do not count."""
    src = Path(colonykit.__file__).resolve().parents[1]
    paths = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    return run.stdout.strip()


def loaded_after_import(module, names):
    """Which of ``names`` a fresh interpreter has loaded after ``import module``."""
    return fresh_interpreter(f"import sys, {module}; "
                             f"print([m for m in {tuple(names)!r} if m in sys.modules])")


def compiled_files_present():
    """Whether scipy's directory holds both extension modules _compiled loads."""
    root = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    return all(any((root / package / (name + suffix)).is_file()
                   for suffix in importlib.machinery.EXTENSION_SUFFIXES)
               for package, name in (("linalg", "_flapack"), ("special", "_special_ufuncs")))


def test_cli_import_leaves_heavy_scipy_modules_out():
    # the peak finder's core is loaded on the first peak count, not at import,
    # and orjson on the first CSV write
    names = ("scipy.signal", "scipy.integrate", "scipy.stats", "scipy.signal._peak_finding_utils",
             "multiprocessing", "concurrent.futures.process", "orjson")
    for module in ("colonykit", "colonykit.cli"):
        assert loaded_after_import(module, names) == "[]", module
    # a CSV write loads orjson and nothing that starts processes
    code = f"""if True:
        import sys, tempfile
        from pathlib import Path
        import numpy as np
        from colonykit import Trajectory, cli
        from colonykit.config import parse_config
        traj = Trajectory(times=np.arange(3.0), u_history=np.ones((3, 9)),
                          v_history=np.ones((3, 9)), l=8.0, steady=False)
        with tempfile.TemporaryDirectory() as out:
            cli._write_snapshots_csv(Path(out) / "snapshots.csv", parse_config({GOOD_CONFIG!r}), traj)
        print([m for m in ("orjson", "multiprocessing", "concurrent.futures.process")
               if m in sys.modules])
    """
    assert fresh_interpreter(code) == "['orjson']"


@pytest.mark.skipif(not compiled_files_present(),
                    reason="this scipy has no _flapack or _special_ufuncs extension file, "
                           "so colonykit imports the public scipy modules")
def test_import_runs_no_scipy_package_init():
    # the four compiled callables come without scipy.linalg's and
    # scipy.special's __init__, and so without scipy._lib._array_api
    names = ("scipy.linalg", "scipy.special", "scipy._lib._array_api")
    for module in ("colonykit", "colonykit.cli"):
        assert loaded_after_import(module, names) == "[]", module


def test_compiled_import_then_scipy_gives_the_public_callables():
    # colonykit first, as the CLI does; scipy imported later reuses the
    # extension modules colonykit registered, and still works
    code = """if True:
        import numpy as np
        from colonykit import _compiled
        import scipy.linalg, scipy.linalg.lapack, scipy.special
        for name in ("dgtsv", "dgbtrf", "dgbtrs"):
            assert getattr(_compiled, name) is getattr(scipy.linalg.lapack, name), name
        assert _compiled.expit is scipy.special.expit
        ab = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]])
        x = scipy.linalg.solve_banded((1, 1), ab, np.array([5.0, 6.0, 5.0]))
        assert np.allclose(x, 1.0), x
        assert scipy.special.expit(0.0) == 0.5
        print("ok")
    """
    assert fresh_interpreter(code) == "ok"


def test_peak_count_then_scipy_signal_import_gives_the_public_core():
    # a peak count loads find_peaks's compiled core; scipy.signal imported
    # later reuses that module, and find_peaks still works
    code = """if True:
        import numpy as np
        from colonykit import Field, _compiled, count_peaks
        u = 1.0 + 0.02 * np.cos(6 * np.pi * np.linspace(0.0, 1.0, 65))
        assert count_peaks(Field(u=u, v=np.ones_like(u), l=20.0)) == 3.0
        from scipy.signal import _peak_finding, find_peaks
        local_maxima, prominences = _compiled.peak_finding()
        assert _peak_finding._local_maxima_1d is local_maxima
        assert _peak_finding._peak_prominences is prominences
        peaks = find_peaks(np.array([0.0, 2.0, 0.0, 1.0, 1.0, 0.0, 0.5, 0.0]), prominence=0.75)[0]
        assert peaks.tolist() == [1, 3], peaks
        print("ok")
    """
    assert fresh_interpreter(code) == "ok"


@pytest.mark.parametrize("package, attrs, public", [
    ("linalg", ("dgtsv", "dgbtrf", "dgbtrs"), "scipy.linalg.lapack"),
    ("special", ("expit",), "scipy.special"),
    ("signal", ("_local_maxima_1d", "_peak_prominences"), "scipy.signal._peak_finding_utils"),
])
def test_compiled_import_falls_back_to_the_public_module(package, attrs, public):
    full = f"scipy.{package}._no_such_module"
    got = _compiled.load(package, "_no_such_module", attrs, public)
    module = importlib.import_module(public)
    assert len(got) == len(attrs)
    assert all(g is getattr(module, a) for g, a in zip(got, attrs))
    assert full not in sys.modules


def per_value_csv(path, cfg, traj):
    """One repr per value: the snapshot writer's definition of its output."""
    x = traj.final.x
    with path.open("w") as fh:
        for line in cli._meta_lines(cfg):
            fh.write(line + "\n")
        fh.write("t,x,u,v\n")
        for i, t in enumerate(traj.times):
            u, v = traj.u_history[i], traj.v_history[i]
            for k in range(x.size):
                fh.write(f"{float(t)!r},{float(x[k])!r},{float(u[k])!r},{float(v[k])!r}\n")


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

    def test_expand_without_modes_lists_modes_1_to_i_c(self, tmp_path):
        # configs/analyze_reference.yaml sets no expand.modes: the table
        # holds every mode with sigma_j > 0, 1 .. i_c = 11
        out = tmp_path / "results"
        config = CONFIGS / "analyze_reference.yaml"
        assert main(["expand", "--config", str(config), "--out", str(out)]) == 0
        rows = (out / "expansion.csv").read_text().splitlines()[4:]
        assert [row.split(",")[0] for row in rows] == [str(j) for j in range(1, 12)]

    def test_simulate_outputs_and_determinism(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(config_file), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(config_file), "--out", str(out2)]) == 0
        assert (out1 / "snapshots.csv").read_bytes() == (out2 / "snapshots.csv").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["t_final"] == 3.0
        events_lines = (out1 / "events.jsonl").read_text().splitlines()
        assert "meta" in json.loads(events_lines[0])

    def test_simulate_without_a_pattern_reports_mode_0(self, tmp_path, capsys):
        # at sigma = 0.7 the uniform state is stable: the run ends steady on
        # it, with no pattern left for a dominant mode or a peak to name
        path = tmp_path / "uniform.yaml"
        path.write_text(GOOD_CONFIG.replace("sigma: 0.32", "sigma: 0.7")
                        .replace("  n: 64\n  t_end: 3.0", "  n: 256\n  t_end: 100.0"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--seed", "0"]) == 0
        assert "steady=True dominant_mode=0 peaks=0.0" in capsys.readouterr().out
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steady"] is True and summary["t_final"] < 100.0
        assert (summary["dominant_mode"], summary["peak_count"]) == (0, 0.0)

    def test_seed_flag_decides_the_noise_and_the_headers(self, tmp_path):
        path = tmp_path / "seeded.yaml"
        path.write_text(GOOD_CONFIG.replace("  t_end: 3.0", "  t_end: 1.0"))
        cfg = parse_config(path.read_text())
        initial = {}
        for seed in (5, 6):
            out = tmp_path / str(seed)
            assert main(["simulate", "--config", str(path), "--out", str(out),
                         "--seed", str(seed)]) == 0
            lines = (out / "snapshots.csv").read_text().splitlines()
            assert lines[2] == f"# seed={seed}"
            assert json.loads((out / "summary.json").read_text())["meta"]["seed"] == seed
            events = (out / "events.jsonl").read_text().splitlines()
            assert json.loads(events[0])["meta"]["seed"] == seed
            rows = np.array([[float(x) for x in line.split(",")] for line in lines[4:]])
            initial[seed] = rows[rows[:, 0] == 0.0][:, 2:]
            want = initial_field(UniformPerturbed(amplitude=0.01, seed=seed), cfg.params,
                                 cfg.motility, 64)
            assert np.array_equal(initial[seed], np.column_stack((want.u, want.v)))
        assert not np.array_equal(initial[5], initial[6])

    def test_simulate_ends_at_t_end_off_the_snapshot_grid(self, tmp_path):
        path = tmp_path / "off_grid.yaml"
        path.write_text(GOOD_CONFIG.replace("  t_end: 3.0", "  t_end: 2.5"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["t_final"] == 2.5 and summary["t_end_reached"]
        last_row = (tmp_path / "o" / "snapshots.csv").read_text().splitlines()[-1]
        assert last_row.startswith("2.5,20.0,")

    def test_snapshot_csv_bytes_match_per_value_writer(self, tmp_path):
        u_hist = np.array([[1e-05, -1.5e-07, 1e+16, -3.0, 0.1 + 0.2],
                           [2.0, -0.0, 1.5e-07, 123456789.0, -1e-300]])
        v_hist = np.array([[1.0, 1e+16, 5e-324, -2.5, 1 / 3],
                           [-1e-05, 7.0, 0.0, 1e22, 2.0 ** 0.5]])
        traj = Trajectory(times=np.array([0.0, 1e-05]), u_history=u_hist, v_history=v_hist,
                          l=1e-4, steady=False)
        cfg = parse_config(GOOD_CONFIG)
        cli._write_snapshots_csv(tmp_path / "fast.csv", cfg, traj)
        per_value_csv(tmp_path / "ref.csv", cfg, traj)
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

    def test_failed_binary_write_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "bin.yaml"
        path.write_text(GOOD_CONFIG.replace("  t_end: 3.0",
                                            "  t_end: 3.0\n  snapshot_format: binary"))
        calls = []

        def pack(*args):
            calls.append(args)
            if len(calls) == 3:  # after the header and the first snapshot
                raise OSError(errno.ENOSPC, "No space left on device")
            return struct.pack(*args)

        monkeypatch.setattr(cli, "struct", SimpleNamespace(pack=pack))
        out = tmp_path / "results"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert len(calls) == 3 and list(out.iterdir()) == []

    def test_failed_csv_write_leaves_no_output(self, config_file, tmp_path, monkeypatch, capsys):
        real_open, writes = Path.open, []

        class FillingDisk:
            """The header and the first snapshot fit, the second does not."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                writes.append(data)
                if len(writes) == 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return self.fh.write(data)

        def open_filling(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            return FillingDisk(fh) if path.name == "snapshots.csv" else fh

        monkeypatch.setattr(Path, "open", open_filling)
        out = tmp_path / "results"
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert writes[1].startswith(b"0.0,0.0,") and writes[2].startswith(b"1.0,0.0,")
        assert len(writes) == 3 and list(out.iterdir()) == []

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
        assert kwargs == {}  # n keeps trace_branch's default

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("params: {sigma: 0.3}\nmotility: {family: logistic_decay}\nbogus: 1\n")
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"params: {sigma: 0.3\nmotility: {family: logistic_decay}\n",
        b"--- 1\n--- 2\n",
        b"params: *undefined\n",
        b"params: &x {D: 1.0, l: *x}\n",
        b"? [a, b]\n: 1\n",
        b"params: {sigma: 0.3}\nmotility: {family: logistic_decay}\n1: a\nfoo: b\n",
        b"params: {sigma: 0.3}\nmotility: {family: logistic_decay}\n# \xff\xfe\n",
    ], ids=["syntax", "two_documents", "undefined_alias", "recursive_alias", "unhashable_key",
            "mixed_unknown_keys", "invalid_utf8"])
    def test_malformed_file_is_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "malformed.yaml"
        path.write_bytes(content)
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # continuation on a mode with no branch
        cfg = GOOD_CONFIG.replace("  j: 6", "  j: 12")
        path = tmp_path / "nobranch.yaml"
        path.write_text(cfg)
        assert main(["continue", "--config", str(path), "--out", str(tmp_path / "o")]) == 1

    def test_resonant_expansion_exit_code(self, tmp_path, capsys):
        # mode 1's second harmonic is resonant at this l (tests/test_asymptotics.py)
        l = math.pi / math.sqrt((-5.0 + math.sqrt(73.0)) / 8.0)
        path = tmp_path / "resonant.yaml"
        path.write_text(MINIMAL_CONFIG.replace("{sigma: 0.3}", f"{{sigma: 0.3, l: {l!r}}}")
                        + "expand: {modes: [1]}\n")
        assert main(["expand", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "resonant" in err

    @pytest.mark.parametrize("epsilon", ["1.0e+154", "1.0e+200"])
    def test_non_finite_asymptotic_seed_exit_code(self, tmp_path, capsys, epsilon):
        # the second-order profiles overflow: epsilon ** 2 * d1 at 1e154,
        # epsilon ** 2 itself at 1e200
        path = tmp_path / "seed.yaml"
        path.write_text(GOOD_CONFIG.replace(
            "    kind: uniform_perturbed\n    amplitude: 0.01",
            f"    kind: asymptotic_mode\n    j: 3\n    epsilon: {epsilon}"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not finite" in err
        assert "Traceback" not in err

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
        message = "expected float, got 'fast'" if dt == "fast" else f"must be > 0.0, got {float(dt)}"
        assert err == f"configuration error: simulate.dt (line 17): {message}\n"

    @pytest.mark.parametrize("old, new, argv, message", [
        ("seed: 3", "seed: -1", [], "seed (line 9): must be >= 0, got -1"),
        # the noise seed is seed: an init seed is a retired key
        ("    amplitude: 0.01", "    amplitude: 0.01\n    seed: -2", [],
         "unknown key simulate.init.seed (line 22)"),
        ("seed: 3", "seed: 3", ["--seed", "-1"], "--seed: must be >= 0, got -1"),
    ], ids=["config", "init", "flag"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, old, new, argv, message):
        path = tmp_path / "seed.yaml"
        path.write_text(GOOD_CONFIG.replace(old, new))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o"), *argv]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    def test_motility_underflowing_at_one_is_config_error(self, tmp_path, capsys):
        # r(1) = 0 in floating point: the linear analysis would divide by it
        path = tmp_path / "flat.yaml"
        path.write_text(GOOD_CONFIG.replace("center: 1.0", "center: -200"))
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "r(1) underflows to 0" in capsys.readouterr().err

    def test_missing_section_is_config_error(self, tmp_path, capsys):
        cfg = "params: {sigma: 0.3}\nmotility: {family: logistic_decay}\n"
        path = tmp_path / "nosim.yaml"
        path.write_text(cfg)
        for command, section in (("simulate", "simulate"), ("continue", "continuation")):
            assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err == f"configuration error: config has no '{section}' section\n"
            assert not (tmp_path / "o").exists()  # found before --out is made

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

    def test_reproduce_not_applicable_config(self, config_file, tmp_path, capsys):
        # reproduce-paper runs the reference setup only: it takes no config or seed
        out = tmp_path / "results"
        for argv in (["--config", str(config_file)], ["--seed", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(["reproduce-paper", *argv, "--out", str(out)])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_signal_solve_exit_code(self, tmp_path, capsys):
        # 1 + dt rounds away beside D dt / h^2: the signal matrix is the
        # Neumann Laplacian's, which LAPACK finds singular in the first step
        path = tmp_path / "huge_d.yaml"
        path.write_text(GOOD_CONFIG.replace("D: 1.0", "D: 1.0e+300")
                        .replace("n: 64", "n: 16").replace("t_end: 3.0", "t_end: 1.0"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "error: signal solve singular at t=0.1\n"

    def test_singular_density_solve_exit_code(self, tmp_path, capsys):
        # 1 rounds away beside dt r(v) / h^2: the density matrix is
        # -dt Lap_h diag(r), singular as the Neumann Laplacian is
        path = tmp_path / "huge_r.yaml"
        path.write_text(GOOD_CONFIG.replace("steepness: 8.0\n  center: 1.0",
                                            "r0: 1.0e+300\n  rate: 1.0")
                        .replace("family: logistic_decay", "family: exponential_decay"))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == "error: density solve singular at t=0.1\n"

    @pytest.mark.parametrize("command", ["analyze", "expand", "simulate", "continue"])
    def test_tiny_length_is_config_error(self, tmp_path, capsys, command):
        # h^2 underflowed to 0 in simulate, and (pi j / l)^2 overflowed elsewhere
        path = tmp_path / "tiny_l.yaml"
        path.write_text(GOOD_CONFIG.replace("l: 20.0", "l: 1.0e-300"))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "configuration error: params: l must be finite and >= 1e-100, got 1e-300\n"

    @pytest.mark.parametrize("command, edits", [
        ("analyze", [("l: 20.0", "l: 1.0e+12"), ("analyze:\n  j_max: 30\n", "")]),
        ("expand", [("l: 20.0", "l: 1.0e+12")]),
        ("continue", [("l: 20.0", "l: 1.0e+12")]),
        ("analyze", [("j_max: 30", "j_max: 1000000000000")]),
    ], ids=["analyze-l", "expand-l", "continue-l", "analyze-j_max"])
    def test_huge_scan_window_fails_at_once(self, tmp_path, command, edits):
        # these scan windows asked for about 1e12 modes, months of scanning; run
        # in a child with a timeout, so a regression fails instead of hanging
        text = GOOD_CONFIG
        for old, new in edits:
            text = text.replace(old, new)
        path = tmp_path / "huge.yaml"
        path.write_text(text)
        run = subprocess.run(
            [sys.executable, "-m", "colonykit.cli", command, "--config", str(path),
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=str(Path(colonykit.__file__).resolve().parents[1])),
            capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert run.stderr == "error: the scan window exceeds MAX_SCAN_MODES = 100000 modes\n"

    @pytest.mark.parametrize("edits, message", [
        ([("t_end: 3.0", "t_end: 3.0\n  dt: 1.0e-9")],
         "error: the run would take over MAX_STEPS = 1e+08 steps of dt = 1e-09\n"),
        ([("snapshot_every: 1.0", "snapshot_every: 1.0e-9")],
         "error: the snapshots would hold over MAX_SNAPSHOT_VALUES = 1e+08 values\n"),
        ([("n: 64\n  t_end", "n: 10000000000000\n  t_end")],
         "error: the snapshots would hold over MAX_SNAPSHOT_VALUES = 1e+08 values\n"),
    ], ids=["steps", "snapshots", "n"])
    def test_unbounded_run_fails_at_once(self, tmp_path, edits, message):
        # 3e9 steps, 3e9 snapshots of 130 values each, or 4 snapshots of
        # 2e13 values each, rejected before the initial field is allocated;
        # run in a child with a timeout, so a regression fails instead of hanging
        text = GOOD_CONFIG
        for old, new in edits:
            text = text.replace(old, new)
        path = tmp_path / "unbounded.yaml"
        path.write_text(text)
        run = subprocess.run(
            [sys.executable, "-m", "colonykit.cli", "simulate", "--config", str(path),
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=str(Path(colonykit.__file__).resolve().parents[1])),
            capture_output=True, text=True, timeout=5)
        assert run.returncode == 1
        assert run.stderr == message

    def test_unallocatable_grid_is_runtime_error(self, tmp_path):
        # continue has no size bound; a grid past any address space is one
        # numpy refuses at once, reported as a runtime failure
        path = tmp_path / "huge_n.yaml"
        path.write_text(GOOD_CONFIG.replace("0.45\n  n: 64", "0.45\n  n: 1000000000000000"))
        run = subprocess.run(
            [sys.executable, "-m", "colonykit.cli", "continue", "--config", str(path),
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=str(Path(colonykit.__file__).resolve().parents[1])),
            capture_output=True, text=True, timeout=60)
        assert run.returncode == 1
        assert run.stderr.startswith("error: Unable to allocate ")
        assert run.stderr.count("\n") == 1
        assert os.listdir(tmp_path / "o") == []

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_unusable_out_is_runtime_error(self, config_file, tmp_path, capsys, command, below):
        # --out names an existing file, or a directory that would have to be made inside one
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "results" if below else blocker
        assert main([command, "--config", str(config_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err

    @pytest.mark.parametrize("command, computation", [
        ("simulate", "simulate"), ("continue", "trace_branch"),
        ("reproduce-paper", "run_reproduction"),
    ])
    def test_unusable_out_fails_before_the_computation(self, config_file, tmp_path, monkeypatch,
                                                        capsys, command, computation):
        calls = []
        monkeypatch.setattr(cli, computation, lambda *args, **kwargs: calls.append(args))
        blocker = tmp_path / "taken"
        blocker.write_text("")
        config = [] if command == "reproduce-paper" else ["--config", str(config_file)]
        assert main([command, *config, "--out", str(blocker)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    def test_failure_after_the_files_keeps_them(self, config_file, tmp_path, monkeypatch,
                                                capsys):
        # the files are complete when the wrote line fails to print
        def print_failing(*args, **kwargs):
            if args and str(args[0]).startswith("wrote "):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")
            builtins.print(*args, **kwargs)

        monkeypatch.setattr(cli, "print", print_failing, raising=False)
        out = tmp_path / "results"
        assert main(["analyze", "--config", str(config_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert sorted(f.name for f in out.iterdir()) == ["analysis.json", "modes.csv"]

    def test_unwritable_output_is_runtime_error(self, config_file, tmp_path, capsys):
        out = tmp_path / "results"
        (out / "snapshots.csv").mkdir(parents=True)
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert [f.name for f in out.iterdir()] == ["snapshots.csv"]

    # each file a command writes, with the files written before it; a bare
    # command id fails at the command's first file
    @pytest.mark.parametrize("command, name, earlier", [
        ("analyze", "modes.csv", []),
        ("analyze", "analysis.json", ["modes.csv"]),
        ("expand", "expansion.csv", []),
        ("simulate", "snapshots.csv", []),
        ("simulate", "snapshots.bin", []),
        ("simulate", "events.jsonl", ["snapshots.csv"]),
        ("simulate", "summary.json", ["events.jsonl", "snapshots.csv"]),
        ("continue", "branch_j6.csv", []),
        ("reproduce-paper", "reproduction_report.json", []),
    ], ids=["analyze", "analyze-analysis.json", "expand", "simulate", "simulate-snapshots.bin",
            "simulate-events.jsonl", "simulate-summary.json", "continue", "reproduce-paper"])
    def test_failed_table_write_leaves_no_file(self, config_file, tmp_path, monkeypatch, capsys,
                                               command, name, earlier):
        # the file is made, then its first write fails: a full disk
        real_open, listings = Path.open, []

        class FullDisk:
            def __init__(self, fh):
                self.fh = fh
                listings.append(sorted(f.name for f in out.iterdir()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

            writelines = write

        def open_failing(path, *args, **kwargs):
            fh = real_open(path, *args, **kwargs)
            return FullDisk(fh) if path.name == name else fh

        if name == "snapshots.bin":
            config_file.write_text(GOOD_CONFIG.replace(
                "  t_end: 3.0", "  t_end: 3.0\n  snapshot_format: binary"))
        monkeypatch.setattr(cli, "run_reproduction", lambda progress: [
            CriterionResult(1, "critical values", "pass", "as published")])
        monkeypatch.setattr(Path, "open", open_failing)
        out = tmp_path / "results"
        config = [] if command == "reproduce-paper" else ["--config", str(config_file)]
        assert main([command, *config, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert listings == [sorted([*earlier, name])]  # the earlier files were complete
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("failed", [False, True], ids=["all_pass", "one_fails"])
    def test_reproduce_paper_writes_the_report(self, tmp_path, monkeypatch, capsys, failed):
        results = [CriterionResult(1, "critical values", "pass", "i_c=11 i_a=6"),
                   CriterionResult(2, "mode selection", "fail" if failed else "pass",
                                   "dominant mode 6", {"t": 1.0})]
        calls = []

        def run_reproduction(progress=None):
            calls.append(progress)
            return results

        monkeypatch.setattr(cli, "run_reproduction", run_reproduction)
        out = tmp_path / "repro"
        report = out / "reproduction_report.json"
        assert main(["reproduce-paper", "--out", str(out)]) == (3 if failed else 0)
        assert calls == [print]  # the progress lines go to stdout
        assert list(out.iterdir()) == [report]
        payload = {"results": [
            {"id": 1, "name": "critical values", "status": "pass", "detail": "i_c=11 i_a=6"},
            {"id": 2, "name": "mode selection", "status": "fail" if failed else "pass",
             "detail": "dominant mode 6"},
        ]}
        assert report.read_text() == json.dumps(payload, indent=2) + "\n"
        assert capsys.readouterr().out == f"{format_report(results)}\nwrote {report}\n"


def _signed(magnitudes):
    return st.tuples(st.booleans(), magnitudes).map(lambda s: -s[1] if s[0] else s[1])


# values orjson spells as repr does: 0, or a magnitude in [1e-4, 1e16)
IN_RANGE = st.one_of(st.sampled_from([0.0, -0.0]),
                     st.integers(-10 ** 15, 10 ** 15).map(float),
                     _signed(st.floats(1e-4, 1e16, exclude_max=True)))
# finite values the two spell differently, as 1e-05 against 0.00001
OUT_OF_RANGE = _signed(st.floats(0.0, 1e-4, exclude_min=True, exclude_max=True)
                       | st.floats(1e16, allow_infinity=False))


def fallbacks_and_bytes(path, traj):
    """Write traj with the CSV writer and with per_value_csv beside it;
    the number of snapshots the writer formats with _snapshot_rows, and
    whether the two files hold the same bytes."""
    cfg = parse_config(GOOD_CONFIG)
    with mock.patch.object(cli, "_snapshot_rows", wraps=cli._snapshot_rows) as rows:
        cli._write_snapshots_csv(path, cfg, traj)
    ref = path.with_suffix(".ref")
    per_value_csv(ref, cfg, traj)
    return rows.call_count, path.read_bytes() == ref.read_bytes()


class TestSnapshotCsvBytes:
    """The CSV writer's bytes are per_value_csv's: orjson formats a snapshot
    whose x, u and v are all in range, _snapshot_rows any other."""

    @pytest.mark.parametrize("kind", ["in_range", "out_of_range", "mixed"])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_bytes_match_per_value_writer(self, tmp_path, kind, data):
        n = data.draw(st.integers(1, 12), label="n")
        snapshots = data.draw(st.integers(1, 4), label="snapshots")
        # l / n >= 1e-3 keeps every x in range
        l = data.draw(st.floats(0.012, 1e3), label="l")
        values = st.lists(OUT_OF_RANGE if kind == "out_of_range" else IN_RANGE,
                          min_size=2 * (n + 1), max_size=2 * (n + 1))
        u, v = np.array([data.draw(values) for _ in range(snapshots)]).reshape(
            snapshots, 2, n + 1).transpose(1, 0, 2).copy()
        out_of_range = snapshots if kind == "out_of_range" else 0
        if kind == "mixed":
            # one value out of range in each drawn snapshot, the others in range
            for i in data.draw(st.sets(st.integers(0, snapshots - 1)), label="mixed"):
                history = data.draw(st.sampled_from([u, v]))
                history[i, data.draw(st.integers(0, n))] = data.draw(OUT_OF_RANGE)
                out_of_range += 1
        times = np.cumsum(data.draw(st.lists(st.floats(0.0, 1e6), min_size=snapshots,
                                             max_size=snapshots)))
        traj = Trajectory(times=times, u_history=u, v_history=v, l=l, steady=False)
        assert fallbacks_and_bytes(tmp_path / "snapshots.csv", traj) == (out_of_range, True)

    def test_range_edges(self, tmp_path):
        below, top = np.nextafter(1e-4, 0.0), np.nextafter(1e16, 0.0)
        # in range: both zeros, both ends, integral floats, a repr with 17 digits
        u_in = [0.0, -0.0, 1e-4, -top, 2.0, -3.0, 123456789.0, 2.0 ** 53, 0.1 + 0.2]
        v_in = [1.0, 1e15, -1e-4, top, 1e6, 12345.678, 7.0, -0.0, 1 / 3]
        # the first snapshot has one value out of range, the last is all in range
        u = np.array([u_in[:-1] + [below], u_in, u_in])
        v = np.array([v_in, [*v_in[:-1], 1e16], v_in])
        traj = Trajectory(times=np.array([0.0, 5e-5, 1e-4]), u_history=u, v_history=v,
                          l=8.0, steady=False)
        path = tmp_path / "snapshots.csv"
        assert fallbacks_and_bytes(path, traj) == (2, True)
        rows = path.read_text().splitlines()[4:]
        # t below 1e-4 is always repr's spelling
        assert rows[0].startswith("0.0,0.0,0.0,1.0") and rows[9].startswith("5e-05,0.0,")
        assert rows[8].endswith(",9.999999999999999e-05,0.3333333333333333")
        assert rows[17].endswith(",1e+16")
        assert rows[18:21] == ["0.0001,0.0,0.0,1.0", "0.0001,1.0,-0.0,1000000000000000.0",
                               "0.0001,2.0,0.0001,-0.0001"]
        assert rows[21] == "0.0001,3.0,-9999999999999998.0,9999999999999998.0"
        assert rows[25] == "0.0001,7.0,9007199254740992.0,-0.0"

    def test_non_finite_values_are_reprs(self, tmp_path):
        # orjson writes null for nan and inf, so they take _snapshot_rows
        u = np.array([[np.nan, 1.0, -np.inf], [1.0, 1.0, 1.0]])
        v = np.array([[np.inf, 2.0, 0.5], [2.0, 2.0, 2.0]])
        traj = Trajectory(times=np.array([0.0, 1.0]), u_history=u, v_history=v, l=2.0,
                          steady=False)
        path = tmp_path / "snapshots.csv"
        assert fallbacks_and_bytes(path, traj) == (1, True)
        assert path.read_text().splitlines()[4:7] == ["0.0,0.0,nan,inf", "0.0,1.0,1.0,2.0",
                                                      "0.0,2.0,-inf,0.5"]


class TestSnapshotWriterProcesses:
    """The CSV writer formats and writes every snapshot in the calling
    process; it starts none, and leaves no file beside its output."""

    def test_parent_memory_does_not_grow_with_the_csv(self, tmp_path):
        # 101 snapshots at n = 4096, over 20 MB of CSV, in a fresh
        # interpreter; odd rows over many decades (formatted by
        # _snapshot_rows), even rows in range (by orjson).  The rows are
        # drawn one at a time, so the peak before the writer is close to
        # what is resident.  The peak is VmHWM, not ru_maxrss: a spawned
        # process's ru_maxrss starts from the peak of the process that
        # spawned it, here pytest's
        code = f"""if True:
            from pathlib import Path
            import numpy as np
            from colonykit import Trajectory, cli
            from colonykit.config import parse_config

            def peak_kb():
                with open("/proc/self/status") as fh:
                    return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

            rng = np.random.default_rng(0)
            u, v = np.empty((2, 101, 4097))
            for i, row in enumerate((*u, *v)):
                scale = 10.0 ** rng.integers(-30, 30, row.size) if i % 2 else 1.0
                row[:] = rng.uniform(0.5, 1.5, row.size) * scale
            traj = Trajectory(times=np.arange(101.0), u_history=u, v_history=v, l=7.0,
                              steady=False)
            cfg = parse_config({GOOD_CONFIG!r})
            out = Path({str(tmp_path)!r})
            before = peak_kb()
            cli._write_snapshots_csv(out / "snapshots.csv", cfg, traj)
            grown = peak_kb() - before
            names = sorted(p.name for p in out.iterdir())
            print(grown, (out / "snapshots.csv").stat().st_size, names)
        """
        grown_kb, size, names = fresh_interpreter(code).split(" ", 2)
        assert int(size) > 20e6
        assert names == "['snapshots.csv']"
        assert int(grown_kb) < 6 * 1024, f"the peak RSS grew by {int(grown_kb) / 1024:.1f} MB"

    def test_simulate_error_before_the_writer_leaves_no_output(self, config_file, tmp_path,
                                                                monkeypatch):
        def blow_up(sim_config):
            raise BlowUpError("solution norm exceeded bound")

        monkeypatch.setattr(cli, "simulate", blow_up)
        out = tmp_path / "results"
        assert main(["simulate", "--config", str(config_file), "--out", str(out)]) == 1
        assert list(out.iterdir()) == []


# every key of GOOD_CONFIG
FUZZ_BASE = yaml.safe_load(GOOD_CONFIG)


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
