"""Tests of the benchmark's own code: statistics, span arithmetic and the
output checks.  Run with ``python3 -m pytest bench``."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    branch_slope,
    check_cli_outputs,
    check_pattern,
    check_snapshots,
    read_snapshots,
)
from run import median, quartiles  # noqa: E402
from tracing import CountingModel, Tracer, merge, summarize  # noqa: E402


# --- statistics ------------------------------------------------------------


def test_median_and_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert median(values) == 3.0
    assert quartiles(values) == (1.5, 4.5)


def test_even_count_median_and_single_value_quartiles():
    assert median([1.0, 2.0, 3.0, 10.0]) == 2.5
    assert quartiles([1.0, 2.0, 3.0, 10.0]) == (1.25, 8.25)
    assert quartiles([7.0]) == (7.0, 7.0)


# --- spans and self time ---------------------------------------------------


class FakeClock:
    def __init__(self, stamps):
        self.stamps = iter(stamps)

    def __call__(self):
        return next(self.stamps)


def test_self_time_is_span_minus_direct_children():
    # main [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    tr = Tracer(clock=FakeClock([0, 1, 3, 4, 5, 6, 8, 10]))
    with tr.span("main"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("c"):
                pass
    s = summarize(tr.spans)["spans"]
    assert s["main"] == {"n": 1, "total_s": 10, "self_s": 4}
    assert s["b"] == {"n": 1, "total_s": 4, "self_s": 3}
    assert s["c"]["self_s"] == 1
    assert summarize(tr.spans)["edges"] == {"main>a": 1, "main>b": 1, "b>c": 1}


def test_wrap_closes_span_on_exception_and_merge_sums():
    tr = Tracer(clock=FakeClock([0, 2, 10, 13]))

    def boom():
        raise RuntimeError

    with pytest.raises(RuntimeError):
        tr.wrap("f", boom)()
    tr.wrap("f", lambda: None)()
    one = tr.summary()
    assert one["spans"]["f"] == {"n": 2, "total_s": 5, "self_s": 5}
    both = merge([one, one])
    assert both["spans"]["f"] == {"n": 4, "total_s": 10, "self_s": 10}


def test_counting_model_records_array_calls_by_order_only():
    class Model:
        def evaluate(self, v, order=0):
            return v

    tr = Tracer()
    m = CountingModel(Model(), tr)
    m.evaluate(1.0, 1)
    m.evaluate(np.ones(3), 0)
    m.evaluate(np.ones(3), 1)
    with tr.span("sim"):
        m.evaluate(np.ones(3), 0)
    s = tr.summary()
    assert s["spans"]["motility.evaluate.order0"]["n"] == 2
    assert s["spans"]["motility.evaluate.order1"]["n"] == 1
    assert s["edges"] == {"sim>motility.evaluate.order0": 1}


# --- output checks ---------------------------------------------------------


def test_pattern_check_passes_and_fails():
    assert check_pattern(True, 6, 3.0, [(3, 6)], 1e-8) == []
    bad = check_pattern(True, 6, 3.0, [(3, 6), (6, 4)], 1e-8)
    assert len(bad) == 1 and "events" in bad[0]
    assert len(check_pattern(False, 4, 2.0, [], 1e-3)) == 4


def test_branch_slope_uses_only_the_near_onset_window():
    sigma0 = 0.3
    dist = np.array([1e-3, 2e-3, 4e-3, 0.1])
    amps = 2.0 * dist
    amps[-1] = 99.0  # outside the window, ignored
    assert branch_slope(sigma0, sigma0 - dist, amps) == pytest.approx(2.0)
    assert math.isnan(branch_slope(sigma0, [sigma0 + 1.0], [1.0]))


def _write_run(out: Path, u_rows, x, config_hash="abc123", seed=7):
    out.mkdir(parents=True, exist_ok=True)
    lines = ["# toolkit_version=0.1.0", f"# config_hash={config_hash}", f"# seed={seed}", "t,x,u,v"]
    for i, u in enumerate(u_rows):
        for k in range(x.size):
            lines.append(f"{0.5 * i!r},{float(x[k])!r},{float(u[k])!r},1.0")
    (out / "snapshots.csv").write_text("\n".join(lines) + "\n")
    meta = {"toolkit_version": "0.1.0", "config_hash": config_hash, "seed": seed}
    (out / "summary.json").write_text(json.dumps({"meta": meta, "steady": False}))
    (out / "events.jsonl").write_text(json.dumps({"meta": meta}) + "\n")


def _conserving_rows(x):
    # the trapezoid sum of cos(pi x / l) over the grid vanishes, so every
    # amplitude gives the same mass
    return [1.0 + a * np.cos(np.pi * x / x[-1]) for a in (0.0, 0.01, 0.02)]


def test_csv_reader_and_mass_check_pass(tmp_path):
    x = np.linspace(0.0, 20.0, 9)
    _write_run(tmp_path, _conserving_rows(x), x)
    meta, rows = read_snapshots(tmp_path / "snapshots.csv")
    assert meta == {"toolkit_version": "0.1.0", "config_hash": "abc123", "seed": "7"}
    assert rows.shape == (27, 4)
    assert check_cli_outputs(tmp_path, 8, 3, "abc123", 7) == []


def test_mass_check_fails_on_drift(tmp_path):
    x = np.linspace(0.0, 20.0, 9)
    rows = _conserving_rows(x)
    rows[2] = rows[2].copy()
    rows[2][4] += 1e-9
    _write_run(tmp_path, rows, x)
    bad = check_cli_outputs(tmp_path, 8, 3, "abc123", 7)
    assert len(bad) == 1 and "mass" in bad[0]


def test_snapshot_check_fails_on_missing_rows_nan_and_metadata(tmp_path):
    x = np.linspace(0.0, 20.0, 9)
    _write_run(tmp_path, _conserving_rows(x), x)
    meta, rows = read_snapshots(tmp_path / "snapshots.csv")
    assert "expected 3 snapshots" in check_snapshots(meta, rows[:-1], 8, 3, "abc123", 7)[0]
    assert check_snapshots(meta, rows, 8, 4, "abc123", 7) != []
    broken = rows.copy()
    broken[5, 2] = np.nan
    assert check_snapshots(meta, broken, 8, 3, "abc123", 7) == ["CSV holds non-finite values"]
    assert len(check_cli_outputs(tmp_path, 8, 3, "other", 7)) == 3
    assert len(check_cli_outputs(tmp_path, 8, 3, "abc123", 8)) == 3
