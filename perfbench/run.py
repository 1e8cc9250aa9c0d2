"""Benchmark of the `ffree` command line, one workload per run.

    python3 perfbench/run.py --workload mc-scaling --seed 3 --seconds 42 --trace 0

Run from the root of a source checkout. Every task is a real `ffree` CLI call
in a fresh process (`python3 -m ffree.cli` on `src/`), so the import cost and
the per-process caches are paid as a user pays them. Tasks run one at a time.

--trace 0 repeats the workload's task list while the next pass fits in
--seconds and reports the end-to-end metrics: wall_ref and cpu_ref (the sum
over tasks of each task's median wall or CPU time, over the median time of the
fixed reference job, perfbench/reference.py, run after every task),
peak_rss_mb (highest peak RSS of any task process) and setup_s (median wall
time of a process that imports `ffree.cli` and builds its parser, rescaled by
the reference job to the host speed of REFERENCE_S).

--trace 1 alternates an untraced pass with a traced one (perfbench/tracer.py)
and reports the per-layer metrics of the traced passes, plus
trace_overhead_s = traced wall minus untraced wall.

Every output is checked (perfbench/checks.py) and must repeat byte for byte
across the passes of a run. The last stdout line is the JSON result; the line
before it records the per-task figures and the machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1
TASK_LIMIT_S = 30.0
# exact-qf for C4 at n=5 does not terminate (the simplex cycles); every other
# exact task finishes in under 7 s, so 3 s keeps the standing failure cheap
C4_LIMIT_S = 3.0
SETUP_SAMPLES = 3   # before the first pass; one more follows every task
SETUP_ARGV = ("-c", "import ffree.cli; ffree.cli.build_parser()")
REFERENCE_ARGV = (str(ROOT / "perfbench" / "reference.py"),)
# the reference job's median wall time on the 2-vCPU Xeon VM the benchmark was
# calibrated on; setup_s is given in seconds at that host speed
REFERENCE_S = 0.4
EXACT_TOL = "0.01"


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]
    seeded: bool = True
    limit_s: float = TASK_LIMIT_S
    known_failure: bool = False   # a standing defect: hitting the limit is expected


def _exact(command: str, pattern: str, **kw) -> Task:
    return Task((command, "--pattern", pattern, "--n", "5", "--tol", EXACT_TOL),
                seeded=False, **kw)


# Trial counts and tolerances fit a pass into the run length; the scaling
# trial counts keep every seed's slope well inside the check's 0.15 (the C4
# slope sits about 0.08 off target at n <= 128, so C4 needs the larger count).
# The lemma2 trial counts average out how much the number of copies, and so
# the work, varies from seed to seed.
WORKLOADS: dict[str, list[Task]] = {
    "mc-scaling": [
        Task(("scaling", "--pattern", "triangle", "--n-list", "16,32,64,128",
              "--trials", "100", "--tol", "0.02")),
        Task(("scaling", "--pattern", "C4", "--n-list", "16,32,64,128",
              "--trials", "200", "--tol", "0.02")),
        Task(("mu-sweep", "--pattern", "C4", "--n", "32",
              "--p-grid", "0.02,0.04,0.06,0.08,0.1", "--trials", "200",
              "--format", "json")),
    ],
    "alteration": [
        Task(("lemma2", "--pattern", "C4", "--n", "200", "--p", "0.05",
              "--family-size", "10", "--trials", "10")),
        Task(("lemma2", "--pattern", "K4", "--n", "120", "--p", "0.25",
              "--family-size", "10", "--trials", "8")),
        Task(("alter", "--pattern", "triangle", "--n", "1000", "--p", "0.01")),
        Task(("refute", "--pattern", "triangle", "--n", "240", "--p", "0.00145",
              "--family-size", "10", "--budget", "20")),
        Task(("sample", "--n", "2000", "--p", "0.01")),
    ],
    "exact-chain": [
        _exact("gap", "triangle"),
        _exact("gap", "C5"),
        _exact("exact-qf", "P3"),
        _exact("exact-qf", "P4"),
        _exact("exact-qf", "C4", limit_s=C4_LIMIT_S, known_failure=True),
    ],
}


def task_seed(seed: int, workload: str, index: int) -> str:
    digest = hashlib.blake2b(f"{seed}/{workload}/{index}".encode(), digest_size=8).digest()
    return str(int.from_bytes(digest, "big"))


@dataclass
class Run:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    timed_out: bool
    stdout: bytes
    stderr: bytes


def _exited(pidfd: int, timeout: float) -> bool:
    return bool(select.select([pidfd], [], [], timeout)[0])


def run_process(argv: list[str], limit_s: float, tmp: Path) -> Run:
    """Run one process to completion or to its time limit, with its rusage."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    # one BLAS thread: `ffree` makes no threaded BLAS call, and numpy's idle
    # BLAS pool otherwise spins for ~0.13 s of CPU at import, on the other core
    # or on the task's own depending on what else the host runs
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # bytecode caching on, whatever the caller's environment says, as for an
    # installed package: every process after the first imports from .pyc
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timed_out = not _exited(pidfd, limit_s)
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGTERM)
                if not _exited(pidfd, 2.0):
                    signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        except BaseException:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            raise
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            os.close(pidfd)
        wall = time.perf_counter() - start
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
               proc.returncode, timed_out, out_path.read_bytes(), err_path.read_bytes())


class Workload:
    """One workload's task list, run pass by pass, with every outcome checked."""

    def __init__(self, name: str, seed: int, tmp: Path):
        self.name, self.tmp = name, tmp
        self.tasks = WORKLOADS[name]
        self.argvs = [list(t.argv) + (["--seed", task_seed(seed, name, i)] if t.seeded else [])
                      for i, t in enumerate(self.tasks)]
        self.digests: list[str | None] = [None] * len(self.tasks)
        self.runs: list[list[Run]] = [[] for _ in self.tasks]
        self.refs: list[list[Run]] = [[] for _ in self.tasks]   # reference job after each run
        self.ref_digest: str | None = None
        self.outcomes: list[list[str]] = [[] for _ in self.tasks]
        self.attempted = self.failed = self.known_failures = 0
        self.setup_walls: list[float] = []

    def sample_setup(self):
        run = run_process(list(SETUP_ARGV), TASK_LIMIT_S, self.tmp)
        self.attempted += 1
        if run.returncode != 0 or run.timed_out:
            self.failed += 1
            print(f"setup process failed: exit code {run.returncode}", file=sys.stderr)
        self.setup_walls.append(run.wall_s)

    def run_reference(self) -> Run:
        run = run_process(list(REFERENCE_ARGV), TASK_LIMIT_S, self.tmp)
        self.attempted += 1
        digest = hashlib.sha256(run.stdout).hexdigest()
        self.ref_digest = self.ref_digest or digest
        if run.returncode != 0 or run.timed_out or digest != self.ref_digest:
            self.failed += 1
            print(f"reference job failed or changed its output: exit code {run.returncode}",
                  file=sys.stderr)
        return run

    def run_pass(self, traced: bool, reference: bool = False) -> float:
        """Run every task once, each followed by the reference job and a
        set-up sample if `reference`; return the tasks' total wall time."""
        total = 0.0
        for i, (task, argv) in enumerate(zip(self.tasks, self.argvs)):
            if traced:
                cmd = [str(ROOT / "perfbench" / "tracer.py"),
                       str(self.tmp / f"spans-{i}.json"), f"{self.name}/{i}", *argv]
            else:
                cmd = ["-m", "ffree.cli", *argv]
            run = run_process(cmd, task.limit_s, self.tmp)
            total += run.wall_s
            if not traced:
                self.runs[i].append(run)
            if reference:
                self.refs[i].append(self.run_reference())
                self.sample_setup()
            self._judge(i, task, run, traced)
        return total

    def _judge(self, i: int, task: Task, run: Run, traced: bool):
        self.attempted += 1
        reason = checks.check_task(task.argv[0], run.returncode, run.stdout, run.timed_out)
        digest = hashlib.sha256(run.stdout).hexdigest()
        if self.digests[i] is None:
            self.digests[i] = digest
        elif digest != self.digests[i] and reason is None:
            reason = f"{'traced' if traced else 'untraced'} output differs from the first pass"
        if reason is None:
            outcome = "ok"
        elif task.known_failure and run.timed_out:
            outcome = "known failure: hit the time limit"
            self.known_failures += 1
        else:
            outcome = f"failed: {reason}"
            self.failed += 1
            tail = run.stderr.decode(errors="replace").strip().splitlines()[-3:]
            print(f"ffree {' '.join(self.argvs[i])}: {reason}", *tail, sep="\n  ",
                  file=sys.stderr)
        self.outcomes[i].append(outcome)

    def known_failures_per_pass(self) -> int:
        return sum(1 for o in self.outcomes if o and o[0].startswith("known"))

    def span_files(self) -> list[str]:
        return [str(p) for i in range(len(self.tasks))
                if (p := self.tmp / f"spans-{i}.json").exists()]

    def reference(self, field: str) -> float:
        """Median `field` of every reference job in the run."""
        return median([getattr(r, field) for refs in self.refs for r in refs])

    def relative(self, field: str) -> float:
        """Sum over tasks of each task's median `field`, over the reference's."""
        tasks = sum(median([getattr(r, field) for r in runs]) for runs in self.runs)
        return tasks / self.reference(field)

    def task_report(self) -> list[dict]:
        return [{"argv": argv,
                 "pass_wall_s": [r.wall_s for r in runs],
                 "pass_cpu_s": [r.cpu_s for r in runs],
                 "pass_ref_wall_s": [r.wall_s for r in refs],
                 "wall_s": median([r.wall_s for r in runs]),
                 "cpu_s": median([r.cpu_s for r in runs]),
                 "rss_mb": max(r.rss_mb for r in runs),
                 "outcomes": sorted(set(outcomes))}
                for argv, runs, refs, outcomes in zip(self.argvs, self.runs, self.refs,
                                                      self.outcomes)]


def measure(w: Workload, seconds: float, trace_on: bool) -> tuple[dict, int]:
    """Repeat passes while the next one fits in `seconds`; return metrics and passes."""
    if not trace_on:
        run_process(list(SETUP_ARGV), TASK_LIMIT_S, w.tmp)   # fill the bytecode cache
        run_process(list(REFERENCE_ARGV), TASK_LIMIT_S, w.tmp)
        for _ in range(SETUP_SAMPLES):
            w.sample_setup()
    start = time.perf_counter()
    walls = {False: [], True: []}
    layers: list[dict] = []
    while True:
        t0 = time.perf_counter()
        walls[False].append(w.run_pass(traced=False, reference=not trace_on))
        if trace_on:
            walls[True].append(w.run_pass(traced=True))
            layers.append(tracer.aggregate(w.span_files()))
            for path in w.span_files():
                os.unlink(path)
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - t0) > seconds:
            break
    if trace_on:
        metrics = {name: {"value": median([m[name] for m in layers]), "unit": unit}
                   for name, unit in tracer.METRICS.items()}
        metrics["trace_overhead_s"] = {
            "value": median(walls[True]) - median(walls[False]), "unit": "s"}
        metrics["known_failures"] = {"value": w.known_failures_per_pass(), "unit": "count"}
        return metrics, len(walls[False])
    return {
        "wall_ref": {"value": w.relative("wall_s"), "unit": "ref"},
        "cpu_ref": {"value": w.relative("cpu_s"), "unit": "ref"},
        "peak_rss_mb": {"value": max(r.rss_mb for runs in w.runs for r in runs), "unit": "MB"},
        "setup_s": {"value": median(w.setup_walls) / w.reference("wall_s") * REFERENCE_S,
                    "unit": "s"},
    }, len(walls[False])


def machine() -> dict:
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "src_sha256": src.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running task is killed and reaped, temp files removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not (ROOT / "src" / "ffree" / "cli.py").is_file():
        print(f"error: no ffree sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    wrong = checks.selftest()
    if wrong:
        print("error: output checks fail their self-test: " + ", ".join(wrong), file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        w = Workload(args.workload, args.seed, Path(tmp))
        metrics, passes = measure(w, args.seconds, bool(args.trace))
    tasks = w.task_report()

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "default_seed": DEFAULT_SEED,
        "seconds": args.seconds, "trace": args.trace, "passes": passes,
        "machine": machine(), "tasks": tasks,
        "known_failures": w.known_failures,
        "fail_ratio": w.failed / w.attempted,
        "wall_s": sum(t["wall_s"] for t in tasks),
        "cpu_s": sum(t["cpu_s"] for t in tasks),
        "setup_raw_s": None if args.trace else median(w.setup_walls),
        "reference_wall_s": None if args.trace else w.reference("wall_s"),
    }))
    print(json.dumps({"correct": w.failed == 0, "attempted": w.attempted,
                      "failed": w.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
