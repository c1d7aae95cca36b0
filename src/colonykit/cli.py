"""Command-line front end.

Subcommands wrap the library modules into config-driven, reproducible
experiments:

    analyze          mode scan and uniform-state classification
    expand           per-mode expansion coefficient table
    simulate         time integration with snapshot/event output
    continue         steady-state branch tracing
    reproduce-paper  one-shot benchmark reproduction report

Exit codes: 0 success, 1 runtime failure, 2 configuration error,
3 reproduction mismatch.  A command that fails leaves none of the files it
named.  Every CSV and JSON output of a config command embeds a metadata
header (toolkit version, config hash, seed) so results are traceable;
the binary snapshot stream and the reproduction report carry none.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import expansion_coefficients
from .config import ExperimentConfig, load_config
from .continuation import trace_branch
from .errors import ColonyKitError, ConfigError
from .linear_analysis import classify_uniform_state, scan_modes
from .pde_solver import count_peaks, modal_spectrum, simulate
from .reproduce import format_report, run_reproduction

__all__ = ["main"]


def _json_meta(cfg: ExperimentConfig) -> dict:
    return {"toolkit_version": __version__, "config_hash": cfg.config_hash, "seed": cfg.seed}


def _meta_lines(cfg: ExperimentConfig) -> list[str]:
    return [f"# {key}={value}" for key, value in _json_meta(cfg).items()]


def _csv_header(cfg: ExperimentConfig, columns: list[str]) -> str:
    """The metadata lines, then the column names."""
    return "".join(line + "\n" for line in _meta_lines(cfg)) + ",".join(columns) + "\n"


def _write_csv(path: Path, cfg: ExperimentConfig, header: list[str], rows) -> None:
    """The header, then one line per row."""
    with path.open("w") as fh:
        fh.write(_csv_header(cfg, header))
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def cmd_analyze(cfg: ExperimentConfig, out) -> int:
    classification = classify_uniform_state(cfg.params, cfg.motility, cfg.analyze.j_max)
    summary_json = {
        "meta": _json_meta(cfg),
        "classification": classification.kind.value,
        "unstable_modes": list(classification.unstable_modes),
        "max_growth_rate": classification.max_growth_rate,
    }
    rows = []
    try:
        summary = scan_modes(cfg.params, cfg.motility, cfg.analyze.j_max)
        summary_json.update(
            i_c=summary.i_c,
            i_a=summary.i_a,
            sigma_a=summary.sigma_a,
            sigma_c=summary.sigma_c,
            lambda_star=summary.lambda_star,
            ordering=list(summary.ordering),
        )
        rows = [
            (mi.j, mi.lambda_j, mi.sigma_j, mi.a_j, mi.rho_pair[0].real)
            for mi in summary.modes
        ]
    except ColonyKitError as exc:
        # no instability window: the classification stands alone
        summary_json["scan_note"] = str(exc)
    print(f"classification: {summary_json['classification']}")
    if "i_c" in summary_json:
        print(
            f"i_c={summary_json['i_c']} i_a={summary_json['i_a']} "
            f"sigma_a={summary_json['sigma_a']:.6g} sigma_c={summary_json['sigma_c']:.6g}"
        )
    _write_csv(out("modes.csv"), cfg, ["j", "lambda_j", "sigma_j", "a_j", "rho_max_real"], rows)
    out("analysis.json").write_text(json.dumps(summary_json, indent=2) + "\n")
    return 0


def cmd_expand(cfg: ExperimentConfig, out) -> int:
    summary = scan_modes(cfg.params, cfg.motility)
    modes = cfg.expand.modes
    if modes is None:
        modes = tuple(range(1, summary.i_c + 1))
    expansions = [expansion_coefficients(j, cfg.params, cfg.motility, summary) for j in modes]
    rows = []
    for e in expansions:
        rows.append(
            (e.j, e.sigma0, e.sigma2, e.a, e.c, e.d1, e.d2, e.d3, e.d4,
             "" if e.eta is None else e.eta, e.verdict.value)
        )
    for e in expansions:
        print(f"j={e.j}: sigma0={e.sigma0:.6g} sigma2={e.sigma2:.6g} {e.verdict.value}")
    _write_csv(
        out("expansion.csv"), cfg,
        ["j", "sigma0", "sigma2", "a", "c", "d1", "d2", "d3", "d4", "eta_if_admissible", "verdict"],
        rows,
    )
    return 0


def _float_reprs(a) -> list[str]:
    """repr of every element of a 1-D float array: a list's repr joins its
    floats' reprs with ", ", and one such call is far cheaper than a repr
    per element."""
    return repr(a.tolist())[1:-1].split(", ")


def _snapshot_rows(x_cols: list[str], t: float, u, v) -> str:
    """The rows t,x,u,v of one snapshot, every value the repr of the float."""
    t_col = repr(t) + ","
    return "".join([f"{t_col}{x_col}{u_val},{v_val}\n" for x_col, u_val, v_val
                    in zip(x_cols, _float_reprs(u), _float_reprs(v))])


def _write_snapshots_csv(path: Path, cfg: ExperimentConfig, traj) -> None:
    """The snapshots as CSV rows (see _snapshot_rows), in order after the
    header.  A snapshot whose x, u and v are each 0 or of magnitude in
    [1e-4, 1e16) is formatted by orjson, whose shortest round-trip digits
    are repr's in that range; outside it the two spell numbers differently
    (1e-05 against 0.00001, 1e+16 against 1e16, and orjson writes null for
    nan and inf), so such a snapshot is formatted by _snapshot_rows."""
    # imported here, not with the CLI, so it adds nothing to another command's set-up
    import orjson
    x = traj.final.x
    x_cols = [s + "," for s in _float_reprs(x)]
    xuv = np.empty((x.size, 3))  # C-contiguous, as orjson requires
    xuv[:, 0] = x
    with path.open("wb") as fh:
        fh.write(_csv_header(cfg, ["t", "x", "u", "v"]).encode())
        for t, u, v in zip(traj.times.tolist(), traj.u_history, traj.v_history):
            xuv[:, 1], xuv[:, 2] = u, v
            size = np.abs(xuv)
            if not np.all((xuv == 0.0) | ((size >= 1e-4) & (size < 1e16))):
                fh.write(_snapshot_rows(x_cols, t, u, v).encode())
                continue
            t_col = repr(t).encode() + b","
            text = orjson.dumps(xuv, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2]
            fh.write(t_col + text.replace(b"],[", b"\n" + t_col) + b"\n")


def _write_snapshots_binary(path: Path, cfg: ExperimentConfig, traj) -> None:
    """Little-endian stream: header uint64 n, float64 l, then per snapshot
    float64 t followed by u then v (n+1 float64 each)."""
    n = traj.final.n
    with path.open("wb") as fh:
        fh.write(struct.pack("<Qd", n, traj.l))
        for t, u, v in zip(traj.times.tolist(), traj.u_history, traj.v_history):
            fh.write(struct.pack("<d", t) + u.astype("<f8").tobytes() + v.astype("<f8").tobytes())


def cmd_simulate(cfg: ExperimentConfig, out) -> int:
    traj = simulate(cfg.simulate.sim_config(cfg.params, cfg.motility))
    spec = modal_spectrum(traj.final)
    summary = {
        "meta": _json_meta(cfg),
        "steady": traj.steady,
        "t_end_reached": not traj.steady,
        "t_final": float(traj.times[-1]),
        "dominant_mode": spec.dominant,
        "peak_count": count_peaks(traj.final),
        "settle_time": traj.settle_time,
    }
    print(
        f"t_final={summary['t_final']:.6g} steady={traj.steady} "
        f"dominant_mode={spec.dominant} peaks={summary['peak_count']}"
    )
    if cfg.simulate.snapshot_format == "binary":
        _write_snapshots_binary(out("snapshots.bin"), cfg, traj)
    else:
        _write_snapshots_csv(out("snapshots.csv"), cfg, traj)
    with out("events.jsonl").open("w") as fh:
        fh.write(json.dumps({"meta": _json_meta(cfg)}) + "\n")
        for ev in traj.events:
            fh.write(json.dumps({"kind": ev.kind, "time": ev.time, "old": ev.old, "new": ev.new}) + "\n")
    out("summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return 0


def cmd_continue(cfg: ExperimentConfig, out) -> int:
    cs = cfg.continuation
    curve = trace_branch(cs.j, cfg.params, cfg.motility, cs.sigma_min, **cs.options)
    rows = [
        (curve.j, bp.sigma, bp.amplitude, bp.newton_iters, bp.residual)
        for bp in curve.points
    ]
    print(f"{len(curve.points)} points, termination {curve.termination.value}")
    _write_csv(out(f"branch_j{curve.j}.csv"), cfg,
               ["j", "sigma", "amplitude", "newton_iters", "residual"], rows)
    return 0


def cmd_reproduce(cfg: None, out) -> int:
    results = run_reproduction(progress=print)
    print(format_report(results))
    payload = {
        "results": [
            {"id": r.cid, "name": r.name, "status": r.status, "detail": r.detail}
            for r in results
        ],
    }
    out("reproduction_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if all(r.passed for r in results) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colonykit",
        description="Stability analysis, asymptotics, simulation, and continuation "
        "for the 1-D density-suppressed-motility colony model",
    )
    parser.add_argument("--version", action="version", version=f"colonykit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    out_option = argparse.ArgumentParser(add_help=False)
    out_option.add_argument("--out", default="out", help="output directory (default: ./out)")

    # section: the config section the command needs, if any
    for name, func, section, help_text in (
        ("analyze", cmd_analyze, None, "mode scan and uniform-state classification"),
        ("expand", cmd_expand, None, "expansion coefficient table"),
        ("simulate", cmd_simulate, "simulate", "integrate the time-dependent model"),
        ("continue", cmd_continue, "continuation", "trace a steady-state branch"),
    ):
        sp = sub.add_parser(name, help=help_text, parents=[out_option])
        sp.add_argument("--config", required=True, help="experiment configuration file (YAML)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")
        sp.set_defaults(func=func, section=section)

    # the reference setup only: no config, no seed
    sp = sub.add_parser("reproduce-paper", help="run the benchmark reproduction table",
                        parents=[out_option])
    sp.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    """Load the config, make --out, run the command, then name its files.
    A command prints its results, then writes each file to out(name)."""
    args = build_parser().parse_args(argv)
    written = []

    def out(name: str) -> Path:
        written.append(Path(args.out) / name)
        return written[-1]

    try:
        cfg = None
        if "config" in args:
            cfg = load_config(args.config, seed_override=args.seed)
            if args.section and getattr(cfg, args.section) is None:
                raise ConfigError(f"config has no '{args.section}' section")
        Path(args.out).mkdir(parents=True, exist_ok=True)
        try:
            code = args.func(cfg, out)
        except BaseException:
            # a failed command leaves none of its files; what is in the way stays
            for path in written:
                with suppress(OSError):
                    if path.is_file():
                        path.unlink()
            raise
        print("wrote " + ", ".join(map(str, written)))
        return code
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ColonyKitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
