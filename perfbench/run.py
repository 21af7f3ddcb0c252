"""hypfield benchmark: seeded CLI workloads, checked outputs, layer tracing.

Run from the repository root:

    python3 perfbench/run.py --workload derive-verify --seed 1 --seconds 32 --trace 0

``--trace 0`` runs the workload's jobs as ``hypfield`` subprocesses, one at a
time (closed loop, one client), in passes of the whole job list until
``--seconds`` would be exceeded (always at least one pass), and reports the
end-to-end metrics: ``setup_s`` is the median of the ``hypfield --version``
processes run before every pass, each job is timed by its fastest pass, and
job times are corrected towards a host on which ``reference_s()`` takes
``REFERENCE_S`` (see README.md).  ``--trace 1`` runs the same jobs in this
process through ``hypfield.cli.main`` -- a traced, an untraced and a traced
pass -- and reports the per-layer metrics of the last pass; the exact counts
of the two traced passes must agree.  ``--workload all`` runs every workload
in turn.  The last line of stdout is one JSON object; the exit code is 0 only
if every output check passed.  Details land in ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import EXACT_COUNTS, LAYER_METRICS, Tracer
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

SETUP_PER_PASS = 2  # hypfield --version processes before every pass
# a process that imports numpy and nothing of the program: setup_s is
# corrected to a host on which it takes SETUP_REFERENCE_S
SETUP_REFERENCE = ["-c", "import numpy"]
SETUP_REFERENCE_S = 0.150
REFERENCE_S = 0.040  # seconds: job times are corrected to this reference_s()
# how much of the reference's slowdown the jobs share, as a power: about the
# slope of log job time on log reference time over 100 runs (README.md)
REFERENCE_WEIGHT = 0.75
IMPORT_REPS = 5
JOB_TIMEOUT = 60.0  # seconds; a job past it is killed and counts as failed
RUN_BUDGET = 170.0  # seconds; every run must end within 180

# generic end-to-end metrics reported on every workload
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class JobTimeout(BaseException):
    """Raised by SIGALRM in an in-process job; not an Exception, so the
    program's own handlers cannot swallow it."""


class Run:
    """Budget and failure bookkeeping shared by the jobs of one run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failures = []
        self._checked = {}  # (job name, stdout) -> error; outputs repeat across passes

    def timeout(self) -> float:
        return min(JOB_TIMEOUT, self.t0 + RUN_BUDGET - time.perf_counter())

    def record(self, job, rc, out, err, timed_out) -> None:
        self.attempted += 1
        if timed_out:
            error = "timed out"
        elif rc != 0:
            error = f"exit code {rc}: {err.strip()[-300:]}"
        else:
            key = (job.name, out)
            if key not in self._checked:
                self._checked[key] = job.check(out)
            error = self._checked[key]
        if error:
            self.failures.append(f"{job.name}: {error}")


def _command(args: list) -> list:
    if args[0] in ("-c", "-X"):  # interpreter options: a Python snippet
        return [sys.executable] + args
    return [sys.executable, "-m", "hypfield.cli"] + args


def run_process(args: list, stdin=None, timeout: float = JOB_TIMEOUT):
    """(exit code, stdout, stderr, wall seconds, timed out) of one process."""
    if timeout <= 0:
        return None, "", "", 0.0, True
    t0 = time.perf_counter()
    with subprocess.Popen(
        _command(args), cwd=ROOT, env=ENV, text=True, start_new_session=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        try:
            out, err = proc.communicate(stdin, timeout=timeout)
            timed_out = False
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):  # it may have just exited
                os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            timed_out = True
    return proc.returncode, out, err, time.perf_counter() - t0, timed_out


def run_untimed(args: list) -> str:
    """Stdout of a set-up job (not measured); raises if it fails."""
    rc, out, err, _, timed_out = run_process(args)
    if rc != 0 or timed_out:
        raise RuntimeError(f"set-up job {' '.join(args)} failed: {err.strip()[-300:]}")
    return out


def measure_setup() -> tuple:
    """Wall times of one ``hypfield --version`` process and of one
    SETUP_REFERENCE process."""
    walls = []
    for args in (["--version"], SETUP_REFERENCE):
        rc, out, err, wall, timed_out = run_process(args)
        if rc != 0 or timed_out or (args == ["--version"] and not out.strip()):
            raise RuntimeError(f"{' '.join(args)} failed: {err.strip()[-300:]}")
        walls.append(wall)
    return tuple(walls)


def reference_s() -> float:
    """Wall time of a fixed pure-Python computation that no change to the
    program can speed up: the product of two dense bivariate polynomials
    stored as dicts of exponent tuples, the kind of work polyring does."""
    a = {(i, j): 7 * i + j + 1 for i in range(30) for j in range(30 - i)}
    t0 = time.perf_counter()
    prod = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            k = (i1 + i2, j1 + j2)
            prod[k] = prod.get(k, 0) + c1 * c2
    return time.perf_counter() - t0


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# untraced: subprocess jobs, end-to-end metrics

def run_workload(name: str, seed: int, seconds: float):
    run = Run()
    wl = WORKLOADS[name](seed, run_untimed)
    setups = []  # (--version, SETUP_REFERENCE) walls, SETUP_PER_PASS before every pass
    refs = []  # reference_s() before every job
    passes = []  # per pass: job name -> wall seconds
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        setups += [measure_setup() for _ in range(SETUP_PER_PASS)]
        walls = {}
        for job in wl.jobs:
            refs.append(reference_s())
            rc, out, err, wall, timed_out = run_process(job.args, job.stdin, run.timeout())
            run.record(job, rc, out, err, timed_out)
            walls[job.name] = wall
        passes.append(walls)
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds or run.timeout() <= 0:
            break
    # The host's speed drifts by a third between runs, on a time scale of
    # minutes.  Each job is timed by its fastest pass, and job times are
    # corrected by how much slower than REFERENCE_S the reference computation
    # ran in this run, raised to REFERENCE_WEIGHT (see README.md).  The
    # reference is taken at the quantile 1/(passes + 1) of its many short
    # samples, where the fastest of `passes` draws falls on average, so both
    # sides of the ratio are the same statistic.
    ref_s = statistics.quantiles(refs, n=len(passes) + 1)[0]
    scale = (REFERENCE_S / ref_s) ** REFERENCE_WEIGHT
    # Start-up time drifts with the host's file and page-fault costs, which
    # the reference computation does not see; a process that imports numpy
    # does, so setup_s is corrected by it in full (README.md).
    setup_ref_s = statistics.median(r for _, r in setups)
    unscaled_setup_s = statistics.median(v for v, _ in setups)
    setup_s = unscaled_setup_s * SETUP_REFERENCE_S / setup_ref_s
    per_job = {n: scale * min(p[n] for p in passes) for n in passes[0]}
    e2e = {
        "setup_s": setup_s,
        "wall_s": sum(per_job.values()),
        # ru_maxrss of waited-for children is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    named = {
        metric: (fn(per_job, scale * unscaled_setup_s), unit)
        for metric, (unit, fn) in wl.named.items()
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    details = {
        "passes": len(passes),
        "reference_quantile_s": ref_s,
        "scale": scale,
        "setup_reference_s": setup_ref_s,
        "setup_samples_s": setups,
        "reference_s": refs,
        "unscaled_job_wall_s": passes,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    lines = [f"{k:24s} {v['value']:12.4f} {v['unit']}" for k, v in metrics.items()]
    lines += [f"{k:24s} {v:12.4f} {u}" for k, (v, u) in named.items()]
    lines += [
        f"{'passes':24s} {len(passes):12d}",
        f"{'reference_s':24s} {ref_s:12.4f} s",
        f"{'unscaled wall_s':24s} {e2e['wall_s'] / scale:12.4f} s",
        f"{'setup reference':24s} {setup_ref_s:12.4f} s",
        f"{'unscaled setup_s':24s} {unscaled_setup_s:12.4f} s",
    ]
    return run, metrics, details, lines


# ---------------------------------------------------------------------------
# traced: the same jobs in-process, per-layer metrics

def _on_alarm(signum, frame):
    raise JobTimeout()


def run_inprocess(cli, job, timeout: float):
    """(exit code, stdout, stderr, wall seconds, timed out) of one in-process job."""
    if timeout <= 0:
        return None, "", "", 0.0, True
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(job.stdin or "")
    rc, timed_out = 0, False
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.args[0] == "-c":
                exec(job.args[1], {"__name__": "perfbench_job"})
            else:
                rc = cli.main(job.args)
    except JobTimeout:
        timed_out = True
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # a traceback is a failed job, not a failed benchmark
        rc = 1
        err.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
        sys.stdin = saved_stdin
    return rc, out.getvalue(), err.getvalue(), wall, timed_out


_IMPORT_RE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$")


def measure_imports() -> dict:
    """Cumulative import time of numpy, and of hypfield without numpy."""
    numpy_s, hypfield_s = [], []
    for _ in range(IMPORT_REPS):
        rc, _, err, _, timed_out = run_process(["-X", "importtime", "-c", "import hypfield.cli"])
        if rc != 0 or timed_out:
            raise RuntimeError(f"import hypfield.cli failed: {err.strip()[-300:]}")
        cumulative = {}
        for line in err.splitlines():
            m = _IMPORT_RE.match(line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        np_s = cumulative.get("numpy", 0.0)
        numpy_s.append(np_s)
        hypfield_s.append(cumulative.get("hypfield", 0.0) + cumulative["hypfield.cli"] - np_s)
    return {
        "setup.import_numpy_s": statistics.median(numpy_s),
        "setup.import_hypfield_s": statistics.median(hypfield_s),
    }


def run_traced(name: str, seed: int):
    run = Run()
    imports = measure_imports()
    sys.path.insert(0, str(SRC))
    import hypfield.cli as cli  # noqa: E402  (the checkout's copy, after the path)

    wl = WORKLOADS[name](seed, run_untimed)

    tracer = Tracer()

    def one_pass(traced: bool) -> float:
        wall = 0.0
        for job in wl.jobs:
            root = tracer.begin_job(job.name) if traced else None
            try:
                rc, out, err, w, timed_out = run_inprocess(cli, job, run.timeout())
            finally:
                if traced:
                    tracer.end_job(root)
            run.record(job, rc, out, err, timed_out)
            wall += w
        return wall

    # traced, untraced, traced: the first pass also warms the interpreter's
    # heap, so the overhead compares the two warm passes
    tracer.install()
    try:
        first = tracer.begin_pass()
        one_pass(traced=True)
        cold = tracer.layer_metrics(first)
        tracer.uninstall()
        untraced_s = one_pass(traced=False)
        tracer.install()
        first = tracer.begin_pass()
        traced_s = one_pass(traced=True)
        last = len(tracer.name)
        layers = tracer.layer_metrics(first)
    finally:
        tracer.uninstall()

    run.attempted += 1  # the repeat check counts as one more checked job
    differ = [f"{m} {cold[m]} then {layers[m]}" for m in EXACT_COUNTS if layers[m] != cold[m]]
    if differ:
        run.failures.append("trace: counts differ on a repeat pass: " + "; ".join(differ))
    layers.update(imports)
    layers["trace.overhead_s"] = traced_s - untraced_s
    metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYER_METRICS.items()}

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    tracer.write(spans_path)
    details = {
        "untraced_inprocess_s": untraced_s,
        "traced_inprocess_s": traced_s,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    lines = []
    group = None
    for k, v in metrics.items():
        module = k.split(".")[0]
        if module != group:
            lines.append(f"[{module}]")
            group = module
        value = v["value"]
        text = f"{value:12d}" if isinstance(value, int) else f"{value:12.4f}"
        lines.append(f"  {k:42s} {text} {v['unit']}")
    lines.append(
        f"tracing overhead: {traced_s:.3f} s traced vs {untraced_s:.3f} s untraced in-process "
        f"({100 * (traced_s / untraced_s - 1):+.1f}%)"
    )
    if wl.expressions:
        times = tracer.spans_of("rewriter.reduce_expr", first, last)
        slowest = sorted(zip(times, wl.expressions), reverse=True)[:5]
        details["slowest_expressions"] = [{"s": t, "expr": e} for t, e in slowest]
        lines.append("slowest reduce expressions:")
        lines += [f"  {1000 * t:10.1f} ms  {e}" for t, e in slowest]
    return run, metrics, details, lines


# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in its own process, so peak RSS and imports stay apart."""
    attempted = failed = 0
    metrics = {}
    for name in sorted(WORKLOADS):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if not lines or not lines[-1].startswith("{"):
            print(f"error: {name} produced no result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypfield" / "cli.py").is_file():
        print(f"error: no hypfield sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    name = args.workload
    try:
        if args.trace:
            run, metrics, details, lines = run_traced(name, args.seed)
        else:
            run, metrics, details, lines = run_workload(name, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 1

    env = environment(name, args.seed, args.trace)
    failed_ratio = len(run.failures) / run.attempted
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"== {name}: {run.attempted} jobs, {len(run.failures)} failed "
          f"(failed_ratio {failed_ratio:.4f})")
    for line in lines:
        print("  " + line)
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            dict(env, attempted=run.attempted, failures=run.failures,
                 failed_ratio=failed_ratio, metrics=metrics, details=details),
            indent=2,
        )
    )
    correct = not run.failures
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
