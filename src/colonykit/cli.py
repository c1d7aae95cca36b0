"""Command-line front end.

Subcommands wrap the library modules into config-driven, reproducible
experiments:

    analyze          mode scan and uniform-state classification
    expand           per-mode expansion coefficient table
    simulate         time integration with snapshot/event output
    continue         steady-state branch tracing
    reproduce-paper  one-shot benchmark reproduction report

Exit codes: 0 success, 1 runtime failure, 2 configuration error,
3 reproduction mismatch.  Every output file embeds a metadata header
(toolkit version, config hash, seed) so results are traceable.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from pathlib import Path


from . import __version__
from .asymptotics import expansion_coefficients
from .config import ExperimentConfig, load_config
from .continuation import trace_branch
from .errors import ColonyKitError, ConfigError
from .linear_analysis import classify_uniform_state, scan_modes
from .pde_solver import count_peaks, modal_spectrum, simulate
from .reproduce import format_report, run_reproduction

__all__ = ["main"]


def _meta_lines(cfg: ExperimentConfig) -> list[str]:
    return [
        f"# toolkit_version={__version__}",
        f"# config_hash={cfg.config_hash}",
        f"# seed={cfg.seed}",
    ]


def _write_csv(path: Path, cfg: ExperimentConfig, header: list[str], rows) -> None:
    with path.open("w") as fh:
        for line in _meta_lines(cfg):
            fh.write(line + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")


def _json_meta(cfg: ExperimentConfig) -> dict:
    return {"toolkit_version": __version__, "config_hash": cfg.config_hash, "seed": cfg.seed}


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_analyze(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    out = _out_dir(args)
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
    _write_csv(out / "modes.csv", cfg, ["j", "lambda_j", "sigma_j", "a_j", "rho_max_real"], rows)
    (out / "analysis.json").write_text(json.dumps(summary_json, indent=2) + "\n")
    print(f"classification: {summary_json['classification']}")
    if "i_c" in summary_json:
        print(
            f"i_c={summary_json['i_c']} i_a={summary_json['i_a']} "
            f"sigma_a={summary_json['sigma_a']:.6g} sigma_c={summary_json['sigma_c']:.6g}"
        )
    print(f"wrote {out / 'modes.csv'} and {out / 'analysis.json'}")
    return 0


def cmd_expand(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    out = _out_dir(args)
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
    _write_csv(
        out / "expansion.csv", cfg,
        ["j", "sigma0", "sigma2", "a", "c", "d1", "d2", "d3", "d4", "eta_if_admissible", "verdict"],
        rows,
    )
    for e in expansions:
        print(f"j={e.j}: sigma0={e.sigma0:.6g} sigma2={e.sigma2:.6g} {e.verdict.value}")
    print(f"wrote {out / 'expansion.csv'}")
    return 0


def _float_reprs(a) -> list[str]:
    """repr of every element of a 1-D float array: a list's repr joins its
    floats' reprs with ", ", and one such call is far cheaper than a repr
    per element."""
    return repr(a.tolist())[1:-1].split(", ")


def _write_snapshots_csv(path: Path, cfg: ExperimentConfig, traj) -> None:
    """One row t,x,u,v per node and snapshot, every value written as the
    repr of the float; each snapshot goes out in one write."""
    x_cols = [s + "," for s in _float_reprs(traj.final.x)]
    with path.open("w") as fh:
        for line in _meta_lines(cfg):
            fh.write(line + "\n")
        fh.write("t,x,u,v\n")
        for t, u, v in zip(traj.times.tolist(), traj.u_history, traj.v_history):
            t_col = repr(t) + ","
            fh.write("".join([t_col + x_col + u_val + "," + v_val + "\n" for x_col, u_val, v_val
                              in zip(x_cols, _float_reprs(u), _float_reprs(v))]))


def _write_snapshots_binary(path: Path, cfg: ExperimentConfig, traj) -> None:
    """Little-endian stream: header uint64 n, float64 l, then per snapshot
    float64 t followed by u then v (n+1 float64 each)."""
    n = traj.final.n
    with path.open("wb") as fh:
        fh.write(struct.pack("<Qd", n, traj.l))
        for i, t in enumerate(traj.times):
            fh.write(struct.pack("<d", float(t)))
            fh.write(traj.u_history[i].astype("<f8").tobytes())
            fh.write(traj.v_history[i].astype("<f8").tobytes())


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if cfg.simulate is None:
        raise ConfigError("config has no 'simulate' section")
    out = _out_dir(args)
    traj = simulate(cfg.simulate.sim_config(cfg.params, cfg.motility))
    if cfg.simulate.snapshot_format == "binary":
        _write_snapshots_binary(out / "snapshots.bin", cfg, traj)
        snap_path = out / "snapshots.bin"
    else:
        _write_snapshots_csv(out / "snapshots.csv", cfg, traj)
        snap_path = out / "snapshots.csv"
    with (out / "events.jsonl").open("w") as fh:
        fh.write(json.dumps({"meta": _json_meta(cfg)}) + "\n")
        for ev in traj.events:
            fh.write(json.dumps({"kind": ev.kind, "time": ev.time, "old": ev.old, "new": ev.new}) + "\n")
    spec = modal_spectrum(traj.final)
    summary = {
        "meta": _json_meta(cfg),
        "steady": traj.steady,
        "t_end_reached": traj.t_end_reached,
        "t_final": float(traj.times[-1]),
        "dominant_mode": spec.dominant,
        "peak_count": count_peaks(traj.final),
        "settle_time": traj.settle_time,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(
        f"t_final={summary['t_final']:.6g} steady={traj.steady} "
        f"dominant_mode={spec.dominant} peaks={summary['peak_count']}"
    )
    print(f"wrote {snap_path}, {out / 'events.jsonl'}, {out / 'summary.json'}")
    return 0


def cmd_continue(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed)
    if cfg.continuation is None:
        raise ConfigError("config has no 'continuation' section")
    out = _out_dir(args)
    cs = cfg.continuation
    curve = trace_branch(cs.j, cfg.params, cfg.motility, cs.sigma_min, **cs.options)
    rows = [
        (curve.j, bp.sigma, bp.amplitude, bp.newton_iters, bp.residual)
        for bp in curve.points
    ]
    path = out / f"branch_j{curve.j}.csv"
    _write_csv(path, cfg, ["j", "sigma", "amplitude", "newton_iters", "residual"], rows)
    print(f"{len(curve.points)} points, termination {curve.termination.value}")
    print(f"wrote {path}")
    return 0


def cmd_reproduce(args) -> int:
    if args.config is not None:
        cfg = load_config(args.config, seed_override=args.seed)
    else:
        cfg = None
    out = _out_dir(args)
    results, applicable = run_reproduction(config=cfg, progress=print)
    report = format_report(results, applicable)
    print(report)
    payload = {
        "applicable": applicable,
        "results": [
            {"id": r.cid, "name": r.name, "status": r.status, "detail": r.detail}
            for r in results
        ],
    }
    (out / "reproduction_report.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out / 'reproduction_report.json'}")
    if applicable and any(r.status == "fail" for r in results):
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colonykit",
        description="Stability analysis, asymptotics, simulation, and continuation "
        "for the 1-D density-suppressed-motility colony model",
    )
    parser.add_argument("--version", action="version", version=f"colonykit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config_required=True):
        sp.add_argument("--config", required=config_required, default=None,
                        help="experiment configuration file (YAML)")
        sp.add_argument("--out", default="out", help="output directory (default: ./out)")
        sp.add_argument("--seed", type=int, default=None, help="override the config seed")

    sp = sub.add_parser("analyze", help="mode scan and uniform-state classification")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("expand", help="expansion coefficient table")
    common(sp)
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("simulate", help="integrate the time-dependent model")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("continue", help="trace a steady-state branch")
    common(sp)
    sp.set_defaults(func=cmd_continue)

    sp = sub.add_parser("reproduce-paper", help="run the benchmark reproduction table")
    common(sp, config_required=False)
    sp.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ColonyKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
