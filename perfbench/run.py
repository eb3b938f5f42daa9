"""gpnam benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

NAME is one of train_reg_auto, train_clf_lcd, predict_bulk, or ``all``.
Each workload's inputs are generated from the seed. The real ``gpnam``
commands run as child processes of this script, one at a time (a closed loop
with one client), for about T seconds. Every output is checked.

With ``--trace 0`` each command is timed from spawn to exit and its peak RSS
is read from ``os.wait4``; a fixed reference computation (``reference.py``)
runs before every cycle, and the gated ``cycle_rel`` is the cycle's wall time
over the reference's. With ``--trace 1`` each command instead runs under
the span tracer (``traced_cli.py``), alternating with untraced runs of the same
commands so the tracing overhead can be reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a table and a JSON report with the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads as wl_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".perfbench_work"

# Set-up runs at least SETUP_REPEATS times and until SETUP_MIN_S have passed,
# so that cheap set-ups still give a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# Fewest cycles per run, so the slowest workload still gets a median of 3.
MIN_CYCLES = 3
# A run must end within 180 s; commands still running at this point are killed.
RUN_BUDGET_S = 170.0
PREDICT_SAMPLE = 1_000
PREDICT_RTOL = 1e-9
STARTUP_SAMPLES = 3

# name, unit, better: the gated end-to-end metrics, reported on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cycle_rel", "x", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("holdout_error", "score", "lower"),
    ("ok_share", "share", "higher"),
)


@dataclass
class CmdRun:
    name: str
    code: int
    wall_s: float
    rss_mb: float
    errors: list = field(default_factory=list)
    summary: dict | None = None

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.errors


class Runner:
    """Starts each command as a child process and waits for it to end."""

    def __init__(self, threads: int, deadline: float):
        pinned = str(threads)
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS=pinned,
                        OPENBLAS_NUM_THREADS=pinned, MKL_NUM_THREADS=pinned)
        self.deadline = deadline

    def run(self, argv, out_path: Path):
        """Return (exit code, wall seconds, peak RSS in MB). A command that
        outlives the run's deadline is killed and reported with exit -9."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return -9, 0.0, 0.0
        err_path = out_path.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if proc.returncode not in (0, 3):
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            print(f"perfbench: {' '.join(map(str, argv[:4]))} ... exited "
                  f"{proc.returncode}: {tail}", file=sys.stderr)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def reference(self, name, work: Path) -> float | None:
        """Wall time of the workload's fixed reference computation, or None
        if it failed."""
        code, wall, _ = self.run([sys.executable, str(HERE / "reference.py"), name, str(work)],
                                 work / "reference.out")
        return wall if code == 0 else None

    def gpnam(self, args, out_path: Path, summary_path: Path | None = None):
        if summary_path is None:
            argv = [sys.executable, "-m", "gpnam.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(summary_path), "--", *args]
        return self.run(argv, out_path)


class Checker:
    """Output checks of one workload. The first cycle's outputs are checked
    in full; later cycles must reproduce them byte for byte."""

    def __init__(self, wl: wl_mod.Workload, seed: int):
        self.wl = wl
        self.seed = seed
        self.first: dict = {}
        self.holdout_error = None

    def check(self, cmd: wl_mod.Command, code: int, stdout_path: Path) -> list:
        # exit 3 (solver did not converge) still saves the model, so the
        # outputs are checked; the command still counts as failed
        allowed = (0, 3) if cmd.name == "train" else (0,)
        if code not in allowed:
            return [f"{cmd.name}: exit code {code}"]
        try:
            return getattr(self, "_" + cmd.name)(stdout_path)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{cmd.name}: unreadable output ({exc!r})"]

    def _same(self, key, value) -> list:
        if key not in self.first:
            self.first[key] = value
            return []
        return [] if self.first[key] == value else [f"{key}: output differs from the first cycle"]

    def _train(self, stdout_path):
        doc = json.loads(stdout_path.read_text(encoding="utf-8"))
        errors = []
        if not any(m["metric"] == self.wl.facts["eval_metric"] for m in doc["validation"]):
            errors.append("train: report lacks the validation metric")
        if self.wl.name == "train_reg_auto" and len(doc["bandwidth_search"]) != 5:
            errors.append("train: bandwidth search did not try 5 scales")
        return errors + self._same("model", self.wl.facts["model"].read_bytes())

    def _evaluate(self, stdout_path):
        doc = json.loads(stdout_path.read_text(encoding="utf-8"))
        name = self.wl.facts["eval_metric"]
        rows = [m for m in doc["metrics"] if m["metric"] == name]
        if len(rows) != 1 or not math.isfinite(rows[0]["value"]):
            return [f"evaluate: no finite {name}"]
        if rows[0]["n"] != self.wl.facts["eval_rows"]:
            return [f"evaluate: scored {rows[0]['n']} rows"]
        value = rows[0]["value"]
        self.holdout_error = value if name == "rmse" else 1.0 - value
        return self._same("evaluate", value)

    def _shapes(self, stdout_path):
        path = self.wl.facts["shapes"]
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = self.wl.facts["d"] * wl_mod.SHAPE_POINTS
        errors = []
        if lines[0] != "feature,x,f" or len(lines) - 1 != expected:
            errors.append(f"shapes: {len(lines) - 1} data rows, expected {expected}")
        if not all(math.isfinite(float(line.rsplit(",", 1)[1])) for line in lines[1:]):
            errors.append("shapes: non-finite shape value")
        density = path.with_name(path.stem + "_density" + path.suffix)
        if not density.is_file():
            errors.append("shapes: density CSV missing")
        return errors + self._same("shapes", path.read_bytes())

    def _predict(self, stdout_path):
        facts = self.wl.facts
        raw = facts["preds"].read_bytes()
        if "predict" in self.first:
            return self._same("predict", raw)
        lines = raw.decode("utf-8").splitlines()
        kept = facts["kept"]
        if lines[0] != "row_id,prediction" or len(lines) - 1 != kept.size:
            return [f"predict: {len(lines) - 1} rows, expected {kept.size}"]
        ids = np.array([int(line.split(",", 1)[0]) for line in lines[1:]])
        preds = np.array([float(line.split(",", 1)[1]) for line in lines[1:]])
        if not np.array_equal(ids, kept):
            return ["predict: row ids differ from the rows that should survive"]
        if not np.all(np.isfinite(preds)):
            return ["predict: non-finite prediction"]
        errors = self._against_scalar_path(preds)
        if errors:
            return errors
        self.holdout_error = float(np.sqrt(np.mean((preds - facts["y"][kept]) ** 2)))
        return self._same("predict", raw)

    def _against_scalar_path(self, preds):
        """Compare sampled predictions with gpnam.model.predict_raw, the
        independent one-row path."""
        from gpnam import model as model_mod

        mdl = model_mod.load(self.wl.facts["model"])
        rng = np.random.default_rng(self.seed)
        kept, X = self.wl.facts["kept"], self.wl.facts["X"]
        picks = rng.choice(kept.size, size=min(PREDICT_SAMPLE, kept.size), replace=False)
        for k in picks:
            ref = model_mod.predict_raw(mdl, X[kept[k]])
            if abs(preds[k] - ref) > PREDICT_RTOL * max(abs(ref), 1.0):
                return [f"predict: row {kept[k]} gives {preds[k]!r}, predict_raw {ref!r}"]
        return []


# --- statistics --------------------------------------------------------------

def tail_percentile(samples):
    """Highest of the usual percentiles with at least 10 samples beyond it,
    as (percentile, value), or None when there are too few samples."""
    n = len(samples)
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(round(p * n / 100.0, 9))  # nearest-rank percentile
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def timing(samples) -> dict:
    tail = tail_percentile(samples)
    return {"median": statistics.median(samples) if samples else None, "n": len(samples),
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]}}


# --- environment record ------------------------------------------------------

def environment(threads: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    import gpnam

    return {"nproc": os.cpu_count(), "cpu_model": cpu, "blas": blas_name,
            "pinned_threads": threads, "python": platform.python_version(),
            "numpy": np.__version__, "gpnam_backend": gpnam.BACKEND,
            "git_commit": git_commit()}


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


# --- one workload ------------------------------------------------------------

def _digest(work: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.iterdir()) if p.suffix in (".csv", ".json")}


def set_up(name, work, seed, runner, repeats, min_s):
    """Generate the inputs (and, for predict_bulk, train its model) at least
    ``repeats`` times and for at least ``min_s`` seconds. Returns the
    workload, set-up times and set-up command runs. Every repeat must write
    byte-identical files."""
    times, runs, digests = [], [], []
    while len(times) < repeats or sum(times) < min_s:
        rep = len(times)
        t0 = time.perf_counter()
        wl = wl_mod.build(name, work, seed)
        for cmd in wl.facts.get("setup_commands", ()):
            code, wall, rss = runner.gpnam(cmd.argv, work / f"setup{rep}.out")
            runs.append(CmdRun("setup_" + cmd.name, code, wall, rss,
                               [] if code == 0 else [f"set-up {cmd.name}: exit code {code}"]))
        times.append(time.perf_counter() - t0)
        digests.append(_digest(work))
    if any(d != digests[0] for d in digests):
        runs.append(CmdRun("setup", 0, 0.0, 0.0, ["set-up files differ between repeats"]))
    return wl, times, runs


def run_cycle(wl, runner, checker, work, cycle, traced):
    runs = []
    for cmd in wl.commands:
        out = work / f"c{cycle}_{cmd.name}.out"
        summary_path = work / f"c{cycle}_{cmd.name}.spans.json" if traced else None
        code, wall, rss = runner.gpnam(cmd.argv, out, summary_path)
        run = CmdRun(cmd.name, code, wall, rss, checker.check(cmd, code, out))
        if traced and summary_path.is_file():
            run.summary = json.loads(summary_path.read_text(encoding="utf-8"))
        elif traced:
            run.errors.append(f"{cmd.name}: traced run wrote no span summary")
        runs.append(run)
    return runs


def closed_loop(seconds, one_cycle):
    """Run cycles back to back. After MIN_CYCLES, start another only while it
    is expected to finish within ``seconds``."""
    cycles, walls = [], []
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        cycles.append(one_cycle(len(cycles)))
        walls.append(time.perf_counter() - c0)
        if (len(cycles) >= MIN_CYCLES
                and time.perf_counter() - t0 + statistics.median(walls) > seconds):
            return cycles


def run_workload(name, seed, seconds, trace, threads, work):
    deadline = time.monotonic() + RUN_BUDGET_S
    runner = Runner(threads, deadline)
    wl, setup_times, setup_runs = set_up(name, work, seed, runner,
                                         *((1, 0.0) if trace else (SETUP_REPEATS, SETUP_MIN_S)))
    checker = Checker(wl, seed)
    if trace:
        cycles = closed_loop(seconds, lambda i: (
            run_cycle(wl, runner, checker, work, 2 * i, False),
            run_cycle(wl, runner, checker, work, 2 * i + 1, True)))
        plain = [c[0] for c in cycles]
        traced = [c[1] for c in cycles]
        startup = []
        for k in range(STARTUP_SAMPLES):
            code, wall, _ = runner.run([sys.executable, "-c", "import gpnam.cli"],
                                       work / f"startup{k}.out")
            if code == 0:
                startup.append(wall)
        all_runs = [r for c in plain + traced for r in c]
        metrics, table = per_layer_metrics(plain, traced, startup)
    else:
        pairs = closed_loop(seconds, lambda i: (
            runner.reference(name, work), run_cycle(wl, runner, checker, work, i, False)))
        refs = [p[0] for p in pairs]
        cycles = [p[1] for p in pairs]
        if None in refs:
            setup_runs.append(CmdRun("reference", 1, 0.0, 0.0, ["reference computation failed"]))
        all_runs = [r for c in cycles for r in c]
        metrics, table = end_to_end_metrics(wl, cycles, refs, setup_times, setup_runs,
                                            checker, all_runs)
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "loop": "closed, one client",
              "cycles": len(cycles), "setup_repeats": len(setup_times),
              "commands": {n: timing([r.wall_s for r in all_runs if r.name == n])
                           for n in dict.fromkeys(r.name for r in all_runs)}}
    if not trace:
        report["cycle_walls"] = [sum(r.wall_s for r in c) for c in cycles]
        report["reference_walls"] = refs
    problems = [e for r in setup_runs + all_runs for e in r.errors]
    failed = sum(not r.ok for r in all_runs)
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    result = {"correct": not problems and all(m["value"] is not None for m in metrics.values()),
              "attempted": len(all_runs), "failed": failed, "metrics": metrics}
    return result, report, table


def _median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(wl, cycles, refs, setup_times, setup_runs, checker, all_runs):
    walls = [sum(r.wall_s for r in c) for c in cycles]
    cycle_s = _median(walls)
    values = {
        "setup_s": _median(setup_times),
        # the reference runs right before each cycle, so machine-wide
        # slowdowns scale both and cancel in the ratio
        "cycle_rel": _median([w / r for w, r in zip(walls, refs) if r]),
        "peak_rss_mb": _median([max(r.rss_mb for r in c) for c in cycles]),
        "holdout_error": checker.holdout_error,
        "ok_share": sum(r.ok for r in all_runs) / len(all_runs),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    table = [("cycle_s", cycle_s, "s"), ("reference_s", _median([r for r in refs if r]), "s")] + \
        named_metrics(wl, all_runs, setup_times, setup_runs, checker)
    return metrics, table


def named_metrics(wl, all_runs, setup_times, setup_runs, checker):
    """Per-command metrics (train_s, evaluate_s, ...) for the table; None
    where the workload does not run the command."""
    def walls(name):
        return [r.wall_s for r in all_runs if r.name == name]

    def rss(name):
        return _median([r.rss_mb for r in all_runs if r.name == name])

    predict = _median(walls("predict"))
    metric = wl.facts.get("eval_metric")
    holdout = checker.holdout_error
    return [
        ("setup_s", _median(setup_times), "s"),
        ("train_s", _median(walls("train")), "s"),
        ("train_rss_mb", rss("train"), "MB"),
        ("set-up train_s", _median([r.wall_s for r in setup_runs if r.name == "setup_train"]), "s"),
        ("evaluate_s", _median(walls("evaluate")), "s"),
        ("shapes_s", _median(walls("shapes")), "s"),
        ("predict_rows_per_s", wl_mod.BULK_ROWS / predict if predict else None, "rows/s"),
        ("predict_rss_mb", rss("predict"), "MB"),
        ("holdout_rmse", holdout if metric != "auc" else None, "target"),
        ("holdout_auc", 1.0 - holdout if metric == "auc" and holdout is not None else None, "1"),
        ("failed_share", sum(not r.ok for r in all_runs) / len(all_runs), "share"),
    ]


# --- per-layer metrics from the traced cycles ---------------------------------

# name, unit. Each is read from one traced cycle; see _cycle_values.
PER_LAYER = (
    ("kernels.gram_apply.calls", "count"),
    ("kernels.gram_apply.s", "s"),
    ("kernels.gram_apply.bytes_computed", "B"),
    ("solvers.solve_ridge_cg.s", "s"),
    ("solvers.cg.iterations", "count"),
    ("solvers.ridge_fits", "count"),
    ("solvers.ridge_fits_kept_ratio", "ratio"),
    ("kernels.featurize.calls", "count"),
    ("kernels.featurize.s", "s"),
    ("kernels.featurize.cos_evals", "count"),
    ("solvers.fit_logistic_sgd.self_s", "s"),
    ("solvers.sgd.epochs", "count"),
    ("solvers.logistic_objective.calls", "count"),
    ("solvers.logistic_objective.s", "s"),
    ("solvers.converged_share", "ratio"),
    ("data.load_features.s", "s"),
    ("data.load_features.rows", "count"),
    ("data.rows_dropped", "count"),
    ("data.load_csv.s", "s"),
    ("data.load_csv.rows", "count"),
    ("data.standardize.s", "s"),
    ("data.split.s", "s"),
    ("rff.pair_feature_map.calls", "count"),
    ("rff.pair_feature_map.s", "s"),
    ("solvers.stack_features.self_s", "s"),
    ("solvers.stack_features.hwm_delta_mb", "MB"),
    ("data.load_features.hwm_delta_mb", "MB"),
    ("data.load_csv.hwm_delta_mb", "MB"),
    ("cli.main.self_s", "s"),
    ("model.predict.s", "s"),
    ("model.save.s", "s"),
    ("model.load.s", "s"),
    ("model.shape_function.s", "s"),
    ("model.write_shape_csv.s", "s"),
    ("metrics.s", "s"),
    ("rff.build_basis.s", "s"),
    ("proc.startup_s", "s"),
    ("trace.untraced_cycle_s", "s"),
    ("trace.traced_cycle_s", "s"),
    ("trace.overhead_s", "s"),
)


def _cycle_values(cycle) -> dict:
    """Span statistics of one traced cycle, summed over its commands, keyed
    ``<function>.<field>``, plus work counters and ``<layer>.s``. A key is
    absent when the function was never called."""
    values: dict = {}

    def add(key, v):
        values[key] = values.get(key, 0.0) + v

    ridge_trains = 0
    for run in cycle:
        summary = run.summary or {"stats": {}, "counts": {}, "layer_s": {}}
        for key, st in summary["stats"].items():
            for field_name, v in st.items():
                add(f"{key}.{field_name}", v)
        for key, v in summary["counts"].items():
            add(key, v)
        for layer, v in summary["layer_s"].items():
            add(f"{layer}.s", v)
        ridge_trains += "solvers.solve_ridge_cg" in summary["stats"]
    fits = values.get("solvers.solve_ridge_cg.calls")
    if fits:
        values["solvers.ridge_fits"] = fits
        # each train keeps the weights of one ridge fit
        values["solvers.ridge_fits_kept_ratio"] = ridge_trains / fits
    sgd_fits = values.get("solvers.fit_logistic_sgd.calls")
    if sgd_fits:
        values["solvers.converged_share"] = values["solvers.sgd.converged"] / sgd_fits
    return values


def per_layer_metrics(plain, traced, startup):
    """Median over traced cycles of each layer metric. A layer the workload
    never calls reads 0 in the JSON line and n/a in the table."""
    cycles = [_cycle_values(c) for c in traced]
    plain_s = _median([sum(r.wall_s for r in c) for c in plain])
    traced_s = _median([sum(r.wall_s for r in c) for c in traced])
    run_values = {"proc.startup_s": _median(startup), "trace.untraced_cycle_s": plain_s,
                  "trace.traced_cycle_s": traced_s, "trace.overhead_s": traced_s - plain_s}
    metrics, table = {}, []
    for name, unit in PER_LAYER:
        value = run_values[name] if name in run_values else \
            _median([c[name] for c in cycles if name in c])
        table.append((name, value, unit))
        metrics[name] = {"value": 0 if value is None else value, "unit": unit}
    return metrics, table


# --- entry point ---------------------------------------------------------------

def print_table(title, rows):
    print(title)
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl_mod.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running command is killed and waited for and
    # the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "gpnam" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'gpnam'} not found; run from a checkout of the "
              "gpnam repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    threads = len(os.sched_getaffinity(0))
    env = environment(threads)
    names = wl_mod.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    WORK_BASE.mkdir(exist_ok=True)
    try:
        for name in names:
            work = Path(tempfile.mkdtemp(prefix=name + "-", dir=WORK_BASE))
            try:
                result, report, table = run_workload(name, args.seed, args.seconds,
                                                     args.trace, threads, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print_table(f"{name} (seed {args.seed}, {report['cycles']} cycles, "
                        f"{'traced' if args.trace else 'untraced'})", table)
            if not args.trace:
                print_table("  gated:", [(n, result["metrics"][n]["value"], u)
                                         for n, u, _ in END_TO_END])
            report["environment"] = env
            print(json.dumps({"report": report}))
            results[name] = result
    finally:
        try:
            WORK_BASE.rmdir()
        except OSError:  # another run is using it
            pass
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
