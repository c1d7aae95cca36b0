"""Output checks for the benchmark workloads.

Each check returns a list of failure messages; an empty list means the
outputs are correct.  A failed check counts the operation as failed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RESIDUAL_MAX = 1e-7        # stationary residual max-norm of a settled pattern
ETA_REL_TOL = 1e-6         # closed-form eta against quadrature
SLOPE_REL_TOL = 0.10       # near-onset branch slope against a^2 / |sigma2|
SLOPE_WINDOW = 5e-3        # sigma0 - sigma range used for the slope fit
MASS_REL_TOL = 1e-12       # trapezoid mass drift of u at sigma = 0


def check_pattern(steady: bool, dominant: int, peaks: float, mode_events, residual: float) -> list[str]:
    """pattern-settle: steady mode 6 with 3 peaks, reached by one 3->6 event."""
    bad = []
    if not steady:
        bad.append("run did not become steady")
    if dominant != 6 or peaks != 3.0:
        bad.append(f"final pattern is mode {dominant} with {peaks} peaks, expected mode 6 with 3.0")
    if list(mode_events) != [(3, 6)]:
        bad.append(f"dominant-mode events {list(mode_events)}, expected exactly [(3, 6)]")
    if not residual <= RESIDUAL_MAX:
        bad.append(f"stationary residual {residual:.3e} above {RESIDUAL_MAX:g}")
    return bad


def branch_slope(sigma0: float, sigmas, amps_sq) -> float:
    """Least-squares slope through the origin of the squared mode amplitude
    against sigma0 - sigma, over points within SLOPE_WINDOW below onset."""
    dist = sigma0 - np.asarray(sigmas, dtype=float)
    keep = (dist > 0) & (dist <= SLOPE_WINDOW)
    xs = dist[keep]
    ys = np.asarray(amps_sq, dtype=float)[keep]
    if xs.size == 0:
        return float("nan")
    return float(xs @ ys / (xs @ xs))


def check_atlas(i_c: int, i_a: int, etas: dict, mode6_reached: bool, slope: float,
                predicted: float) -> list[str]:
    """bifurcation-atlas: critical modes at k=8, eta agreement for every k,
    and the criterion-12 slope of the k=8 mode-6 branch."""
    bad = []
    if (i_c, i_a) != (11, 6):
        bad.append(f"k=8 gives i_c={i_c}, i_a={i_a}, expected 11 and 6")
    for k, (closed, quad) in etas.items():
        if not abs(closed - quad) <= ETA_REL_TOL * abs(quad):
            bad.append(f"k={k}: eta {closed!r} vs quadrature {quad!r}")
    if not mode6_reached:
        bad.append("k=8 mode-6 branch did not reach sigma_min")
    if not abs(slope - predicted) <= SLOPE_REL_TOL * predicted:
        bad.append(f"k=8 mode-6 near-onset slope {slope:.4f} vs a^2/|sigma2| {predicted:.4f}")
    return bad


def read_snapshots(path: Path) -> tuple[dict, np.ndarray]:
    """Metadata header (``# key=value`` lines) and the numeric t,x,u,v rows
    of a CSV snapshot file."""
    meta = {}
    with Path(path).open() as fh:
        for line in fh:
            if not line.startswith("#"):
                if line.strip() != "t,x,u,v":
                    raise ValueError(f"unexpected column header {line.strip()!r}")
                break
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return meta, rows


def check_snapshots(meta: dict, rows: np.ndarray, n: int, snapshots: int,
                    config_hash: str, seed: int) -> list[str]:
    """Snapshot count, n+1 finite rows each, one time per snapshot, the
    same grid in every snapshot, and conservation of the trapezoid mass of
    u against the first snapshot."""
    bad = []
    if meta.get("config_hash") != config_hash or meta.get("seed") != str(seed):
        bad.append(f"CSV header {meta} does not carry config hash {config_hash} and seed {seed}")
    if rows.shape != (snapshots * (n + 1), 4):
        return bad + [f"CSV has {rows.shape} values, expected {snapshots} snapshots of {n + 1} rows"]
    if not np.all(np.isfinite(rows)):
        return bad + ["CSV holds non-finite values"]
    snaps = rows.reshape(snapshots, n + 1, 4)
    t, x, u = snaps[:, :, 0], snaps[:, :, 1], snaps[:, :, 2]
    if np.any(t != t[:, :1]):
        bad.append("a snapshot mixes several times")
    if np.any(x != x[:1]):
        bad.append("snapshots differ in their grid")
    mass = 0.5 * np.sum((u[:, 1:] + u[:, :-1]) * np.diff(x, axis=1), axis=1)
    drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
    if not drift <= MASS_REL_TOL:
        bad.append(f"mass of u drifts by {drift:.3e} relative, above {MASS_REL_TOL:g}")
    return bad


def check_cli_outputs(out_dir: Path, n: int, snapshots: int, config_hash: str, seed: int) -> list[str]:
    """kymograph-cli: the CSV snapshots, summary.json and events.jsonl."""
    out_dir = Path(out_dir)
    want = {"config_hash": config_hash, "seed": seed}
    bad = []
    try:
        meta, rows = read_snapshots(out_dir / "snapshots.csv")
        bad += check_snapshots(meta, rows, n, snapshots, config_hash, seed)
    except (OSError, ValueError) as exc:
        bad.append(f"snapshots.csv unreadable: {exc}")
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
        if {k: summary["meta"].get(k) for k in want} != want:
            bad.append(f"summary.json meta {summary['meta']} does not match {want}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        bad.append(f"summary.json unreadable: {exc}")
    try:
        lines = [json.loads(s) for s in (out_dir / "events.jsonl").read_text().splitlines()]
        if {k: lines[0]["meta"].get(k) for k in want} != want:
            bad.append(f"events.jsonl meta {lines[0]['meta']} does not match {want}")
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        bad.append(f"events.jsonl unreadable: {exc}")
    return bad
