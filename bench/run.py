"""colonykit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see bench/README.md for why each was chosen):

    pattern-settle     library simulate of the mode-3 protocol at n=256 until steady
    bifurcation-atlas  scan, expansions, eta quadrature and every branch trace
                       at three motility steepness values
    kymograph-cli      `colonykit simulate`, n=1024, 401 CSV snapshots

Every operation runs in a fresh process (worker.py) with BLAS/OpenMP pinned
to one thread.  With --trace 0 operations repeat until --seconds would be
exceeded and the end-to-end metrics are medians over them.  With --trace 1
one traced operation of every workload and the step-cost probe give the
per-layer metrics, and one untraced operation of the named workload gives
the tracing overhead.

The last line of standard output is the result as one JSON object; the line
before it records the machine, the versions and the seed.  Exits 2 without a
result when the colonykit sources are not beside the bench directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

WORKLOADS = ("pattern-settle", "bifurcation-atlas", "kymograph-cli")
MIN_OPS = 3            # operations per measured run, even past --seconds
MIN_SETUPS = 5         # set-up samples per measured run (extra set-up-only processes)
RUN_BUDGET_S = 170.0   # hard stop for every process a run starts

KYMOGRAPH_N = 1024
KYMOGRAPH_T_END = 2.0
KYMOGRAPH_EVERY = 0.005
KYMOGRAPH_SNAPSHOTS = round(KYMOGRAPH_T_END / KYMOGRAPH_EVERY) + 1
KYMOGRAPH_CONFIG = f"""\
params: {{D: 1.0, sigma: 0.0, l: 20.0}}
motility: {{family: logistic_decay, steepness: 8.0, center: 1.0}}
seed: 0
simulate:
  n: {KYMOGRAPH_N}
  t_end: {KYMOGRAPH_T_END}
  snapshot_every: {KYMOGRAPH_EVERY}
  snapshot_format: csv
  init: {{kind: uniform_perturbed, amplitude: 0.01}}
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}
LAYER_UNITS = (
    ("pde_solver.simulate_s", "s"),
    ("pde_solver.steps", "count"),
    ("pde_solver.step_us", "us"),
    ("pde_solver.step_us.n256", "us"),
    ("pde_solver.step_us.n512", "us"),
    ("pde_solver.step_us.n1024", "us"),
    ("pde_solver.snapshots", "count"),
    ("pde_solver.diagnostics_s", "s"),
    ("motility.evaluate_s", "s"),
    ("motility.evaluate_calls.order0", "count"),
    ("motility.evaluate_calls.order1", "count"),
    ("continuation.trace_branch_s", "s"),
    ("continuation.points", "count"),
    ("continuation.newton_iters", "count"),
    ("continuation.jacobians", "count"),
    ("continuation.residuals", "count"),
    ("continuation.s_per_point", "s"),
    ("continuation.useful_ratio", "ratio"),
    ("continuation.reached_ratio", "ratio"),
    ("linear_analysis.scan_modes_s", "s"),
    ("asymptotics.expansion_s", "s"),
    ("asymptotics.eta_quadrature_s", "s"),
    ("asymptotics.seed_profile_s", "s"),
    ("config.load_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("trace.overhead_s", "s"),
)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Op:
    seed: int
    elapsed_s: float            # process start to exit, seen from here
    rss_mb: float
    setup_s: float | None = None
    wall_s: float | None = None
    attempted: int = 1
    failures: list = field(default_factory=list)
    trace: dict | None = None
    extra: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return min(self.attempted, len(self.failures))


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child and return its resource usage, killing it at the deadline."""
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_op(workload: str, seed: int, deadline: float, trace=False, setup_only=False) -> Op:
    tag = f"{workload}-{seed}-{'t' if trace else 'u'}{'-setup' if setup_only else ''}"
    out = WORK / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if workload == "kymograph-cli":
        (out / "kymograph.yaml").write_text(KYMOGRAPH_CONFIG)
    report_path = out / "report.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--report", str(report_path), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with (out / "log.txt").open("w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        usage = _wait(proc, deadline)
        elapsed = time.monotonic() - t0
    op = Op(seed, elapsed, usage.ru_maxrss / 1024.0)
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError):
        report = None
    if proc.returncode != 0 or report is None:
        tail = (out / "log.txt").read_text()[-2000:]
        op.failures.append(f"worker exited with {proc.returncode}: {tail}")
    if report is not None:
        if report["t_main"] is not None:
            op.setup_s = report["t_main"] - t0
        if report["t_done"] is not None:
            op.wall_s = report["t_done"] - t0
        op.attempted = max(1, report["attempted"])
        op.failures += report["failures"]
        op.trace = report["trace"]
        op.extra = report["extra"]
        if workload == "kymograph-cli" and not setup_only and report["t_done"] is not None:
            from checks import check_cli_outputs

            op.failures += check_cli_outputs(
                out / "result", KYMOGRAPH_N, KYMOGRAPH_SNAPSHOTS,
                op.extra.get("config_hash"), seed)
    if op.failures:
        print(f"{tag}: " + "; ".join(op.failures), file=sys.stderr)
    else:
        shutil.rmtree(out, ignore_errors=True)
    return op


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def measured_run(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    seeds = itertools.count(seed * 1000)  # distinct, reproducible per-operation seeds
    ops = []
    while len(ops) < MIN_OPS or (time.monotonic() - start
                                 + median([o.elapsed_s for o in ops]) <= seconds):
        ops.append(run_op(workload, next(seeds), deadline))
    setups = [o.setup_s for o in ops if o.setup_s is not None]
    while len(setups) < MIN_SETUPS:
        probe = run_op(workload, next(seeds), deadline, setup_only=True)
        if probe.setup_s is None:
            ops.append(probe)  # a set-up that fails counts as a failed operation
            break
        setups.append(probe.setup_s)
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    walls = [o.wall_s for o in ops if o.wall_s is not None] or [o.elapsed_s for o in ops]
    metrics = {
        "wall_s": median(walls),
        "setup_s": median(setups) if setups else median([o.elapsed_s for o in ops]),
        "peak_rss_mb": median([o.rss_mb for o in ops]),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return ops, metrics


def layer_metrics(traced: dict, probe: Op) -> dict:
    """Per-layer metrics from one traced operation of every workload and
    the step-cost probe."""
    from tracing import merge
    from worker import PROBE

    total = merge([op.trace for op in traced.values() if op.trace])
    probe_total = merge([probe.trace] if probe.trace else [])

    def span(name, key="total_s", summary=total):
        return summary["spans"].get(name, {}).get(key, 0)

    def calls(parent, child, summary=total):
        return summary["edges"].get(f"{parent}>{child}", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    sim, trace = "pde_solver.simulate", "continuation.trace_branch"
    order0, order1 = "motility.evaluate.order0", "motility.evaluate.order1"
    steps = calls(sim, order0)
    jacobians = calls(trace, order1)
    atlas = traced["bifurcation-atlas"].extra
    kymo = traced["kymograph-cli"].extra
    points, newton_iters = atlas.get("points", 0), atlas.get("newton_iters", 0)
    out = {
        "pde_solver.simulate_s": span(sim),
        "pde_solver.steps": steps,
        "pde_solver.step_us": 1e6 * ratio(span(sim), steps),
    }
    for n, _ in PROBE:
        name = f"probe.simulate.n{n}"
        out[f"pde_solver.step_us.n{n}"] = 1e6 * ratio(
            span(name, summary=probe_total), calls(name, order0, probe_total))
    out.update({
        "pde_solver.snapshots": kymo.get("snapshots", 0),
        "pde_solver.diagnostics_s": span("cli.modal_spectrum") + span("cli.count_peaks"),
        "motility.evaluate_s": span(order0) + span(order1),
        "motility.evaluate_calls.order0": span(order0, "n"),
        "motility.evaluate_calls.order1": span(order1, "n"),
        "continuation.trace_branch_s": span(trace),
        "continuation.points": points,
        "continuation.newton_iters": newton_iters,
        "continuation.jacobians": jacobians,
        # every Jacobian assembly also evaluates r once; the rest are residuals
        "continuation.residuals": calls(trace, order0) - jacobians,
        "continuation.s_per_point": ratio(span(trace), points),
        "continuation.useful_ratio": ratio(newton_iters, jacobians),
        "continuation.reached_ratio": ratio(atlas.get("reached", 0), atlas.get("branches", 0)),
        "linear_analysis.scan_modes_s": span("linear_analysis.scan_modes"),
        "asymptotics.expansion_s": span("asymptotics.expansion_coefficients"),
        "asymptotics.eta_quadrature_s": span("asymptotics.eta_by_quadrature"),
        "asymptotics.seed_profile_s": span("asymptotics.second_order_profiles"),
        "config.load_s": span("cli.load_config"),
        "cli.import_s": span("cli.import"),
        "cli.main_s": span("cli.main"),
        "cli.self_s": span("cli.main", "self_s"),
        "cli.bytes_written": kymo.get("bytes_written", 0),
    })
    return out


def traced_run(workload: str, seed: int, deadline: float):
    seed = seed * 1000  # the first operation seed of a measured run
    plain = run_op(workload, seed, deadline)
    traced = {w: run_op(w, seed, deadline, trace=True) for w in WORKLOADS}
    probe = run_op("step-probe", seed, deadline, trace=True)
    ops = [plain, *traced.values(), probe]
    metrics = layer_metrics(traced, probe)
    own = traced[workload]
    metrics["trace.overhead_s"] = (own.wall_s or own.elapsed_s) - (plain.wall_s or plain.elapsed_s)
    return ops, metrics


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "colonykit" / "__init__.py").is_file():
        print(f"no colonykit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        ops, metrics = traced_run(args.workload, args.seed, deadline)
        units = dict(LAYER_UNITS)
    else:
        ops, metrics = measured_run(args.workload, args.seed, args.seconds, deadline)
        units = END_TO_END_UNITS
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    env = environment(args.seed)
    walls = [o.wall_s for o in ops if o.wall_s is not None]
    env.update(workload=args.workload, trace=args.trace, operations=len(ops),
               op_seeds=[o.seed for o in ops], op_wall_s=[o.wall_s for o in ops],
               op_wall_s_quartiles=quartiles(walls) if walls else None)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
