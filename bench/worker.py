"""One benchmark operation in a fresh process; started by run.py.

    python3 bench/worker.py --workload NAME --seed N --report PATH
                            --out DIR [--trace] [--setup-only]

The report (JSON) holds CLOCK_MONOTONIC stamps taken at the first call into
the workload's main layer (``t_main``) and when its outputs are complete
(``t_done``); run.py subtracts its own stamp from just before the process
started.  Output checks run after ``t_done`` and are not timed.  With
``--setup-only`` the process stops at ``t_main``.  With ``--trace`` calls
into the package are wrapped (see tracing.py) and the report carries the
span summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import monotonic as now

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[1]

SIGMA = 0.30
D = 1.0
LENGTH = 20.0
STEEPNESS = 8.0

# pattern-settle: the published mode-3 protocol, seeded by a 1e-9 relative
# perturbation drawn from the seed
PATTERN_N = 256
PATTERN_NOISE = 1e-9

# bifurcation-atlas: steepness values on which every trace succeeds today
ATLAS_STEEPNESS = (6.0, 8.0, 10.0)
ATLAS_SIGMA_MIN = 0.05
ATLAS_N = 1024

# step-cost probe: horizons giving ~1.5k steps at each size
PROBE = ((256, 8.0), (512, 2.0), (1024, 0.5))


class SetupDone(Exception):
    """Raised at the first main-layer call of a --setup-only run."""


def pattern_settle(seed, T, setup_only, report, out):
    import numpy as np

    import colonykit as ck
    from colonykit.asymptotics import second_order_profiles

    p = ck.ModelParams(D=D, sigma=SIGMA, l=LENGTH)
    m = ck.LogisticDecay(steepness=STEEPNESS, center=1.0)
    summary = T.wrap("linear_analysis.scan_modes", ck.scan_modes)(p, m)
    e = T.wrap("asymptotics.expansion_coefficients", ck.expansion_coefficients)(3, p, m, summary)
    x = np.linspace(0.0, p.l, PATTERN_N + 1)
    u, v = T.wrap("asymptotics.second_order_profiles", second_order_profiles)(
        e, 0.01, x, u1_scale=1.5)
    rng = np.random.default_rng(seed)
    u = u * (1.0 + PATTERN_NOISE * rng.uniform(-1.0, 1.0, x.size))
    v = v * (1.0 + PATTERN_NOISE * rng.uniform(-1.0, 1.0, x.size))
    cfg = ck.SimConfig(
        params=p, motility=T.model(m), init=ck.ExplicitField(ck.Field(u=u, v=v, l=p.l)),
        n=PATTERN_N, t_end=2500.0, steady_tol=1e-8, snapshot_every=1.0,
    )
    report["t_main"] = now()
    if setup_only:
        return
    report["attempted"] = 1
    traj = T.wrap("pde_solver.simulate", ck.simulate)(cfg)
    report["t_done"] = now()

    from checks import check_pattern

    events = [(ev.old, ev.new) for ev in traj.events if ev.kind == "dominant_mode"]
    report["failures"] += check_pattern(
        traj.steady, ck.modal_spectrum(traj.final).dominant, ck.count_peaks(traj.final),
        events, max(ck.stationary_residual(traj.final, p, m)),
    )
    report["extra"] = {"snapshots": len(traj.times), "t_final": float(traj.times[-1])}


def bifurcation_atlas(seed, T, setup_only, report, out):
    # deterministic: the seed does not enter
    import colonykit as ck

    p = ck.ModelParams(D=D, sigma=SIGMA, l=LENGTH)
    scan = T.wrap("linear_analysis.scan_modes", ck.scan_modes)
    expand = T.wrap("asymptotics.expansion_coefficients", ck.expansion_coefficients)
    quadrature = T.wrap("asymptotics.eta_by_quadrature", ck.eta_by_quadrature)
    models = {}
    for k in ATLAS_STEEPNESS:
        m = ck.LogisticDecay(steepness=k, center=1.0)
        summary = scan(p, m)
        expansions = [expand(j, p, m, summary) for j in range(1, summary.i_c + 1)]
        models[k] = (m, summary, expansions, quadrature(p, m, summary))
    report["t_main"] = now()
    if setup_only:
        return
    trace = T.wrap("continuation.trace_branch", ck.trace_branch)
    curves = {}
    for k, (m, summary, _, _) in models.items():
        traced_m = T.model(m)
        for j in range(1, summary.i_c + 1):
            report["attempted"] += 1
            try:
                curves[k, j] = trace(j, p, traced_m, ATLAS_SIGMA_MIN, n=ATLAS_N, summary=summary)
            except Exception as exc:  # one failed trace must not end the atlas
                report["failures"].append(f"trace_branch(k={k}, j={j}) raised {exc!r}")
    report["t_done"] = now()

    from checks import branch_slope, check_atlas

    _, summary8, expansions8, _ = models[8.0]
    e6 = expansions8[5]
    curve6 = curves.get((8.0, 6))
    slope = float("nan")
    if curve6 is not None:
        slope = branch_slope(e6.sigma0, curve6.sigmas,
                             [ck.modal_spectrum(bp.field).amplitude(6) ** 2 for bp in curve6.points])
    report["failures"] += check_atlas(
        summary8.i_c, summary8.i_a,
        {k: (es[s.i_a - 1].eta, q) for k, (_, s, es, q) in models.items()},
        curve6 is not None and curve6.termination == ck.Termination.REACHED_SIGMA_MIN,
        slope, e6.a ** 2 / abs(e6.sigma2),
    )
    report["extra"] = {
        "branches": len(curves),
        "reached": sum(c.termination == ck.Termination.REACHED_SIGMA_MIN for c in curves.values()),
        "points": sum(len(c.points) for c in curves.values()),
        "newton_iters": sum(bp.newton_iters for c in curves.values() for bp in c.points),
    }


def kymograph_cli(seed, T, setup_only, report, out: Path):
    """``colonykit simulate`` as the console script runs it: import
    colonykit.cli, then main(argv).  The names cli imported are wrapped, so
    spans nest under cli.main and its self time is the writers and glue."""
    import dataclasses

    with T.span("cli.import"):
        import colonykit.cli as cli

    config = out / "kymograph.yaml"
    seen = {}

    def load_config(*args, **kwargs):
        cfg = load_inner(*args, **kwargs)
        seen["config_hash"] = cfg.config_hash
        return dataclasses.replace(cfg, motility=T.model(cfg.motility))

    def simulate(sim_config):
        report["t_main"] = now()
        if setup_only:
            raise SetupDone
        traj = simulate_inner(sim_config)
        seen["snapshots"] = len(traj.times)
        return traj

    load_inner = cli.load_config
    simulate_inner = T.wrap("cli.simulate", cli.simulate)
    cli.load_config = T.wrap("cli.load_config", load_config)
    cli.simulate = simulate
    cli.modal_spectrum = T.wrap("cli.modal_spectrum", cli.modal_spectrum)
    cli.count_peaks = T.wrap("cli.count_peaks", cli.count_peaks)

    argv = ["simulate", "--config", str(config), "--out", str(out / "result"), "--seed", str(seed)]
    if not setup_only:
        report["attempted"] = 1
    try:
        with T.span("cli.main"):
            rc = cli.main(argv)
    except SetupDone:
        return
    report["t_done"] = now()
    if rc != 0:
        report["failures"].append(f"colonykit {' '.join(argv)} exited with {rc}")
    report["extra"] = {
        "bytes_written": sum(f.stat().st_size for f in (out / "result").iterdir()),
        **seen,
    }


def step_probe(seed, T, setup_only, report, out):
    """Time per step at three sizes over short fixed horizons."""
    import colonykit as ck

    p = ck.ModelParams(D=D, sigma=SIGMA, l=LENGTH)
    m = T.model(ck.LogisticDecay(steepness=STEEPNESS, center=1.0))
    report["t_main"] = now()
    for n, horizon in PROBE:
        cfg = ck.SimConfig(params=p, motility=m, init=ck.UniformPerturbed(amplitude=0.01, seed=seed),
                           n=n, t_end=horizon, snapshot_every=horizon)
        report["attempted"] += 1
        T.wrap(f"probe.simulate.n{n}", ck.simulate)(cfg)
    report["t_done"] = now()


WORKLOADS = {
    "pattern-settle": pattern_settle,
    "bifurcation-atlas": bifurcation_atlas,
    "kymograph-cli": kymograph_cli,
    "step-probe": step_probe,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--report", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    T = Tracer() if args.trace else NullTracer()
    report = {"t_main": None, "t_done": None, "attempted": 0, "failures": [], "extra": {}}
    WORKLOADS[args.workload](args.seed, T, args.setup_only, report, args.out)

    import colonykit

    source = Path(colonykit.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        report["failures"].append(f"imported colonykit from {source}, not from this checkout")
    report["trace"] = T.summary()
    args.report.write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
