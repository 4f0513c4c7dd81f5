"""fedcast benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fed-lstm --seed 1 --seconds 40 --trace 0

The program is imported from the checkout's ``src`` directory. The command
writes the workload's inputs from ``--seed``, times set-up, makes one
untimed warm-up run, then repeats timed runs until about ``--seconds``
seconds have passed since it started (at least three). With ``--trace 0``
it reports the end-to-end metrics named in BENCHMARK.json: the run time in
units of a reference memory pass (``run_rel``), set-up time, test NRMSE and
peak memory; with ``--trace 1``
it alternates untraced and traced runs and reports the per-layer metrics.
Every run is checked: it must not raise, every metric must be finite, the
test NRMSE must beat the untrained initial weights, and every repeat must
write byte-identical deterministic artifacts. A run that fails a check
counts in ``failed``.

Human-readable lines, the environment record and the result go to standard
output; the last line is the JSON result. Inputs, artifacts, the result with
its environment record and, in traced mode, every span are written under
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import mmap
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fed-lstm", "central-cnn", "cohort-mlp")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-CPU machine two OpenBLAS threads gave the
# same medians as one on fed-lstm and central-cnn, and a second thread can
# only add waits for a descheduled sibling. One thread also keeps figures
# comparable across machines with different CPU counts.
BLAS_THREADS = 1
# Set-up is repeated at least this often and for at least this long before
# the first run, then once and for at least SETUP_BETWEEN_SECONDS after every
# timed run; the fastest repeat is reported.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
SETUP_BETWEEN_SECONDS = 0.3
# The memory pass run_rel is measured in: negate and sum a 64 MiB float64
# buffer, larger than a core's share of the last-level cache,
# REFERENCE_SWEEPS times (~0.1 s). Timed REFERENCE_PASSES times after the
# warm-up run and after every timed run; the median pass is the unit.
REFERENCE_BYTES = 64 * 2**20
REFERENCE_SWEEPS = 4
REFERENCE_PASSES = 3
# glibc mallopt parameters and the values set before the program is
# imported: no mmap for blocks under 1 GiB and no trimming of the heap top,
# so memory freed by one run is reused by the next instead of being handed
# back to the kernel and faulted in again page by page.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_SETTINGS = {M_MMAP_THRESHOLD: 1 << 30, M_TRIM_THRESHOLD: 2**31 - 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def keep_freed_memory() -> str:
    """Apply MALLOC_SETTINGS; returns what the environment record says.

    Without them a fed-lstm run took ~150k minor page faults, 35-45 % of its
    wall time on a 2-vCPU VM, and the cost of a fault there varied from
    minute to minute. Peak RSS moved by under 5 % on every workload.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        ok = all(libc.mallopt(param, value) == 1
                 for param, value in MALLOC_SETTINGS.items())
    except (OSError, AttributeError):
        return "default (no glibc mallopt)"
    return "glibc, freed memory kept" if ok else "default (mallopt refused)"


def environment(seed: int, malloc: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "malloc": malloc,
        "git_commit": commit,
        "src_sha256": source_digest(),
        "workload_seed": seed,
    }


def source_digest() -> str:
    """sha256 over src/ file names and bytes: the version when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@contextmanager
def step_marks():
    """Time stamps of one untraced run: its start, every step, its end.

    A step is a call of ``fedcast.nn.training.loss_and_grad``, the name both
    training loops look up; the mark costs one ``perf_counter()`` call. The
    gaps between marks split the run into segments that every repeat of a
    workload and seed runs alike. If the name is gone the run has one
    segment.
    """
    from fedcast.nn import training

    original = getattr(training, "loss_and_grad", None)
    marks = [perf_counter()]
    if original is not None:
        def marked(*args, **kwargs):
            marks.append(perf_counter())
            return original(*args, **kwargs)

        training.loss_and_grad = marked
    try:
        yield marks
    finally:
        marks.append(perf_counter())
        if original is not None:
            training.loss_and_grad = original


def fastest_run_s(segments: list[list[float]]) -> float:
    """Sum over segments of their fastest time across repeats.

    Runs that split into different numbers of segments are compared whole.
    """
    if len({len(s) for s in segments}) != 1:
        return min(sum(s) for s in segments)
    return sum(min(column) for column in zip(*segments))


class MemoryPass:
    """A fixed memory-bound kernel: the unit run_rel is measured in.

    Other tenants of a shared host slowed the workloads by up to 2.5x for
    minutes at a time, mostly by contending for memory bandwidth. Over ten
    processes per workload on such a host, run_s spread by 10 % (IQR /
    median) on fed-lstm, 32 % on central-cnn and 24 % on cohort-mlp, and
    run_s / median pass by 4 %, 9 % and 10 %; divided by the fastest pass
    instead, by 22 %, 12 % and 10 %, as the pass alone sped up by 1.5x for
    seconds at a time. Compute-bound references (a 768x768 GEMM,
    LSTM-sized matmuls) did not follow the workloads.

    The buffer is a separate anonymous mapping, resident for the whole
    process, so peak_rss_mb can leave it out exactly.
    """

    def __init__(self):
        import numpy as np

        self._map = mmap.mmap(-1, REFERENCE_BYTES)
        self.buffer = np.frombuffer(self._map, dtype=np.float64)
        self.buffer.fill(1.0)
        self.times: list[float] = []

    def measure(self, passes: int = REFERENCE_PASSES) -> None:
        import numpy as np

        for _ in range(passes):
            start = perf_counter()
            for _ in range(REFERENCE_SWEEPS):
                np.negative(self.buffer, out=self.buffer)
                self.buffer.sum()
            self.times.append(perf_counter() - start)


class Repeats:
    """Runs the workload repeatedly and applies the correctness checks."""

    def __init__(self, wl, workload, inputs, work_dir, pooled_train, baseline):
        self.wl = wl
        self.workload = workload
        self.inputs = inputs
        self.work_dir = work_dir
        self.pooled_train = pooled_train
        self.baseline = baseline
        self.reference_hashes = None
        self.attempted = 0
        self.failed = 0
        # (run id, run_s, Outcome, traced) of the timed runs that passed
        # every check.
        self.ok = []
        # Segment times (see step_marks) of the timed untraced runs in ok.
        self.segments = []

    def once(self, tracer=None, timed=True) -> float | None:
        """One run; returns its wall time, or None when it failed a check.

        An untimed run is checked but left out of the reported figures.
        """
        self.attempted += 1
        out_dir = self.work_dir / f"run-{self.attempted}"
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            if tracer is None:
                with step_marks() as marks:
                    self.wl.run(self.inputs, out_dir)
                run_s = marks[-1] - marks[0]
            else:
                with tracer.run(self.attempted):
                    self.wl.run(self.inputs, out_dir)
                run_s = tracer.last_run_s
            outcome = self.wl.read_outcome(self.workload, out_dir, self.pooled_train)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        problems = self.check(run_s, outcome)
        if self.reference_hashes is None:
            self.reference_hashes = outcome.hashes
        shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            print(f"run {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        if timed:
            self.ok.append((self.attempted, run_s, outcome, tracer is not None))
            if tracer is None:
                self.segments.append([b - a for a, b in zip(marks, marks[1:])])
        return run_s

    def check(self, run_s, outcome) -> list[str]:
        problems = []
        values = [run_s, outcome.test_nrmse, outcome.train_windows]
        if outcome.server_total_mb is not None:
            values.append(outcome.server_total_mb)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite metric in {values}")
        if not outcome.test_nrmse < self.baseline:
            problems.append(
                f"test_nrmse {outcome.test_nrmse!r} is not below the untrained "
                f"weights' {self.baseline!r}"
            )
        if not outcome.hashes:
            problems.append("no deterministic artifacts written")
        elif self.reference_hashes is not None and outcome.hashes != self.reference_hashes:
            differ = sorted(k for k in outcome.hashes
                            if outcome.hashes[k] != self.reference_hashes.get(k))
            problems.append(f"artifacts differ from the first run: {differ}")
        return problems


def measure(args, work_dir: Path) -> tuple[dict, dict]:
    """Run the workload; returns (result line, details for the work dir)."""
    import tracing
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    deadline = perf_counter() + args.seconds
    inputs = wl.write_inputs(workload, args.seed, work_dir / "inputs")

    setup_s = []

    def time_setup(repeats=1, seconds=0.0):
        """Set up at least repeats times and for at least seconds."""
        until = perf_counter() + seconds
        done = 0
        while done < repeats or perf_counter() < until:
            start = perf_counter()
            result = wl.setup(inputs)
            setup_s.append(perf_counter() - start)
            done += 1
        return result

    if args.trace == 0:
        config, clients = time_setup(SETUP_REPEATS, SETUP_SECONDS)
    else:
        config, clients = time_setup()
    pooled_train = sum(c.train.count for c in clients)
    baseline = wl.untrained_nrmse(config, clients)
    repeats = Repeats(wl, workload, inputs, work_dir, pooled_train, baseline)
    tracer = tracing.Tracer()

    # The first run pays one-off costs (allocator growth; it took ~25 %
    # longer than the next on fed-lstm) and writes the artifacts later runs
    # must reproduce. It is checked but not timed.
    repeats.once(timed=False)
    reference = MemoryPass() if args.trace == 0 else None
    if reference is not None:
        reference.measure()
    # Timed runs, traced and untraced in turn in traced mode, while the next
    # one is expected to end before the deadline; at least three.
    times = []
    while len(times) < 3 or perf_counter() + statistics.median(times) <= deadline:
        traced = args.trace == 1 and len(times) % 2 == 0
        run_s = repeats.once(tracer if traced else None)
        times.append(run_s if run_s is not None else 0.0)
        if reference is not None:
            # Spread set-up repeats and reference passes over the whole
            # process, as the runs are.
            time_setup(seconds=SETUP_BETWEEN_SECONDS)
            reference.measure()

    untraced = [(t, o) for _, t, o, is_traced in repeats.ok if not is_traced]
    traced = sorted((t, run_id, o) for run_id, t, o, is_traced in repeats.ok if is_traced)
    values: dict[str, float] = {}
    samples = {"setup_s": len(setup_s), "error_rate": repeats.attempted}
    extra = []
    if args.trace == 0 and untraced:
        # Times are the fastest of their repeats, run_s segment by segment:
        # a slower program makes every repeat of a segment slower, the
        # fastest included, while other tenants of the host slow some
        # repeats and not others. run_rel divides out what is left of the
        # host's speed in this process (see MemoryPass).
        values["run_s"] = fastest_run_s(repeats.segments)
        values["memory_pass_s"] = statistics.median(reference.times)
        values["run_rel"] = values["run_s"] / values["memory_pass_s"]
        values["setup_s"] = min(setup_s)
        values["train_windows_per_s"] = untraced[0][1].train_windows / values["run_s"]
        values["test_nrmse"] = statistics.median(o.test_nrmse for _, o in untraced)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
            - REFERENCE_BYTES) / 1e6
        extra += ["run_s", "memory_pass_s", "train_windows_per_s"]
        samples["memory_pass_s"] = len(reference.times)
        if untraced[0][1].server_total_mb is not None:
            values["server_total_mb"] = untraced[0][1].server_total_mb
            extra.append("server_total_mb")
        samples.update(dict.fromkeys(
            ("run_rel", "run_s", "train_windows_per_s", "test_nrmse",
             "server_total_mb"),
            len(untraced)))
    elif args.trace == 1 and untraced and traced:
        # Per-layer figures come from the traced run with the median wall
        # time, so its self times add up to its own run_s.
        _, run_id, outcome = traced[(len(traced) - 1) // 2]
        values = tracer.run_metrics(run_id)
        values["experiment.artifact_bytes"] = outcome.artifact_bytes
        values["trace_overhead_ratio"] = (
            min(t for t, _, _ in traced) / min(t for t, _ in untraced))
        tracer.write(work_dir / "spans.csv")

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    wanted = declared["end_to_end" if args.trace == 0 else "per_layer"]
    units = {"run_s": "s", "memory_pass_s": "s",
             "train_windows_per_s": "windows/s", "server_total_mb": "MB"}
    shown = [(m["name"], values.get(m["name"]), m["unit"]) for m in wanted]
    shown += [(name, values[name], units[name]) for name in extra]
    shown.append(("error_rate", repeats.failed / repeats.attempted, "1"))
    for name, value, unit in shown:
        text = "missing" if value is None else f"{value:.6g}"
        print(f"{args.workload:12s} {name:44s} {text:>14} {unit:10s} n={samples.get(name, 1)}")

    correct = repeats.failed == 0 and all(
        value is not None and math.isfinite(value) for _, value, _ in shown)
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in wanted}
    result = {"correct": correct, "attempted": repeats.attempted,
              "failed": repeats.failed, "metrics": metrics}
    details = {"result": result, "untrained_nrmse": baseline,
               "setup_s": setup_s, "run_s": times,
               "memory_pass_s": reference.times if reference else []}
    return result, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fedcast" / "__init__.py").is_file():
        print(f"error: no fedcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    malloc = keep_freed_memory()
    sys.path.insert(0, str(ROOT / "src"))
    import fedcast

    if not Path(fedcast.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported fedcast from {fedcast.__file__}", file=sys.stderr)
        return 2
    env = environment(args.seed, malloc)
    print("env " + json.dumps(env, sort_keys=True))
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    result, details = measure(args, work_dir)
    with open(work_dir / "result.json", "w") as fh:
        json.dump({"env": env, **details}, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
