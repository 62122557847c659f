"""The schreierlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One client works in a closed loop: each experiment is one
``cli.main(argv)`` call, and the next starts when the previous report is
written.  A job is a workload's fixed list of experiments; jobs repeat
while another one fits into ``--seconds`` (at least one always runs).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (the job's time
with each experiment at its fastest repeat in the run), ``setup_s`` (the
fastest of the set-up processes timed between the jobs, each an
interpreter start, ``import schreierlab`` and the workload's inputs) and
``peak_rss_mb``.  Both times are plain ``perf_counter`` seconds; README.md
says why the fastest repeat and not the median is reported.
``--trace 1`` first runs untraced jobs for half the
budget, then installs the tracer, repeats set-up in-process and runs
traced jobs for the other half; it reports the per-layer metrics of one
set-up plus one job.  The metric names and units are read from
``BENCHMARK.json``.

Every output is checked (see ``check.py``); the last line of standard
output is the JSON result.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import check
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
BLAS_THREADS = 1
SETUP_TIMEOUT_S = 120
WORKLOADS = ("theta-intervals", "large-actions")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def configure_environment() -> dict:
    """Fix BLAS threads and the package path, for this process and children."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def time_setup(workload: str, seed: int, directory: Path, env: dict) -> float:
    """Seconds of one fresh set-up process that writes its inputs to ``directory``."""
    command = [sys.executable, str(HERE / "setup_inputs.py"), workload, str(seed), str(directory)]
    start = perf_counter()
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    seconds = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return seconds


class JobResult:
    def __init__(self, seconds: float, experiment_seconds: list[float], outputs: list[dict]):
        self.seconds = seconds
        self.experiment_seconds = experiment_seconds
        self.outputs = outputs


def run_job(job: list[list[str]], inputs: Path, scope=nullcontext) -> JobResult:
    """Run each experiment through cli.main, then read the reports back."""
    from schreierlab import cli

    reports = inputs / "reports"
    reports.mkdir(exist_ok=True)
    paths = [reports / f"exp{k}.json" for k in range(len(job))]
    codes, times = [], []
    with scope():
        for argv, path in zip(job, paths):
            path.unlink(missing_ok=True)
            t = perf_counter()
            try:
                codes.append(cli.main(argv + ["--out", str(path)]))
            except Exception as exc:  # a crash is a failed experiment, not a failed benchmark
                codes.append(f"{type(exc).__name__}: {exc}")
            times.append(perf_counter() - t)
    seconds = sum(times)
    outputs = []
    for argv, code, path in zip(job, codes, paths):
        report = json.loads(path.read_text(encoding="utf-8")) if path.exists() else None
        outputs.append(check.normalize({"argv": argv, "exit_code": code, "report": report}, str(inputs)))
    return JobResult(seconds, times, outputs)


def run_phase(job, inputs: Path, budget: float, scope=nullcontext, setup=None):
    """Repeat the job while another one fits into the budget.

    With ``setup`` (a callable returning seconds), one set-up is timed after
    each job, so set-up samples span the run as the jobs do.  Returns the
    job results and the set-up seconds.
    """
    results, setups = [], []
    start = perf_counter()
    while True:
        results.append(run_job(job, inputs, scope))
        if setup is not None:
            setups.append(setup())
        typical = statistics.median(r.seconds for r in results) + (statistics.median(setups) if setups else 0.0)
        if perf_counter() - start + typical > budget:
            return results, setups


def check_outputs(workload: str, seed: int, phases: list[list[JobResult]]) -> tuple[int, int, list[str]]:
    """Count attempted and failed experiments over all jobs of all phases.

    Every job must reproduce the first job of the first phase exactly (so
    the traced phase must reproduce the untraced one); the reference is
    compared for the default seed.
    """
    reference = check.load_reference(workload)
    use_reference = seed == check.DEFAULT_SEED
    first = [o["report"] for o in phases[0][0].outputs]
    attempted = failed = 0
    problems = []
    for p, phase in enumerate(phases):
        for j, result in enumerate(phase):
            for k, output in enumerate(result.outputs):
                found = check.invariants(output)
                if use_reference:
                    found += check.against_reference(output, reference[k])
                if output["report"] != first[k]:
                    found.append("differs from the first job's output")
                attempted += 1
                if found:
                    failed += 1
                    problems.append(f"phase {p} job {j} experiment {k} {output['argv']}: {found[:3]}")
    return attempted, failed, problems


# -- environment echo ----------------------------------------------------------


def _blas_threads():
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "schreierlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# -- metrics ---------------------------------------------------------------------


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def best_job_seconds(jobs: list[JobResult]) -> float:
    """The job's time with each experiment at its fastest repeat."""
    return sum(min(times) for times in zip(*(r.experiment_seconds for r in jobs)))


def end_to_end(setup_samples, jobs) -> dict:
    """Fastest-repeat job and set-up times; peak memory."""
    return {
        "wall_s": best_job_seconds(jobs),
        "setup_s": min(setup_samples),
        "peak_rss_mb": _peak_rss_mb(),
    }


def per_layer(tracer_, setup_seg, job_segs, plain, traced) -> dict:
    """Median over traced jobs of each per-layer figure, plus the CLI
    command times taken from the untraced jobs."""
    per_job = [tracer.segment_metrics(tracer_, setup_seg, seg) for seg in job_segs]
    values = {
        key: statistics.median(m.get(key, 0.0) for m in per_job)
        for key in set().union(*per_job)
    }
    untraced: dict[str, list[float]] = {}
    for result in plain:
        for output, seconds in zip(result.outputs, result.experiment_seconds):
            command = output["argv"][0]
            untraced.setdefault(f"cli.{command}_s", []).append(seconds)
    values.update((key, statistics.median(v)) for key, v in untraced.items())
    values["trace.overhead_ratio"] = best_job_seconds(traced) / best_job_seconds(plain)
    return values


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]


def _layer_table(values: dict, jobs: int) -> list[str]:
    seconds = {layer: values[f"self.{layer}_s"] for layer in tracer.LAYER_NAMES}
    total = sum(seconds.values())
    lines = [f"self time by layer (one set-up plus one job, median of {jobs} jobs):"]
    for layer, value in seconds.items():
        lines.append(f"  {layer:<14}{value:10.4f} s {100.0 * value / total:6.1f} %")
    return lines


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "schreierlab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'schreierlab'}; run from a checkout", file=sys.stderr)
        return 2
    env = configure_environment()
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _run(args, env, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, env, run_dir: Path) -> int:
    if args.trace == 0:
        # the first set-up writes the inputs the jobs use; the later ones are discarded
        inputs = run_dir / "inputs"
        setup_samples = [time_setup(args.workload, args.seed, inputs, env)]
        scratch = run_dir / "setup"

        def setup() -> float:
            try:
                return time_setup(args.workload, args.seed, scratch, env)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)

    import schreierlab
    import workloads

    if not Path(schreierlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported schreierlab from {schreierlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(json.dumps({"environment": environment()}))

    if args.trace == 0:
        job = workloads.load_job(inputs)
        workloads.use_cache(args.workload, inputs)
        jobs, later_setups = run_phase(job, inputs, args.seconds, setup=setup)
        setup_samples += later_setups
        phases = [jobs]
        values = end_to_end(setup_samples, jobs)
        declared = _declared("end_to_end")
        counts = {
            "setup_samples": len(setup_samples),
            "jobs": len(jobs),
            "experiments_per_job": len(job),
            "setup_seconds": setup_samples,
            "job_seconds": [r.seconds for r in jobs],
            "median_setup_seconds": statistics.median(setup_samples),
            "median_job_seconds": statistics.median(r.seconds for r in jobs),
        }
    else:
        plain_inputs = run_dir / "plain"
        job = workloads.build_inputs(args.workload, args.seed, plain_inputs)
        plain, _ = run_phase(job, plain_inputs, args.seconds / 2)
        tracer_ = tracer.Tracer()
        tracer.install(tracer_)
        if tracer_.missing:
            print(f"warning: not traced, no longer in the package: {tracer_.missing}")
        traced_inputs = run_dir / "traced"
        with tracer_.segment("setup") as setup_seg:
            traced_job = workloads.build_inputs(args.workload, args.seed, traced_inputs)
        traced, _ = run_phase(traced_job, traced_inputs, args.seconds / 2, lambda: tracer_.segment("job"))
        job_segs = tracer_.segments[1:]
        phases = [plain, traced]
        values = per_layer(tracer_, setup_seg, job_segs, plain, traced)
        declared = _declared("per_layer")
        counts = {
            "untraced_jobs": len(plain),
            "traced_jobs": len(traced),
            "experiments_per_job": len(job),
            "untraced_job_seconds": [r.seconds for r in plain],
            "traced_job_seconds": [r.seconds for r in traced],
        }
        for line in _layer_table(values, len(job_segs)):
            print(line)
        tracer_.write_spans(WORK / f"spans-{args.workload}.tsv")

    attempted, failed, problems = check_outputs(args.workload, args.seed, phases)
    for problem in problems[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    print(json.dumps({"samples": counts, "fail_ratio": failed / attempted}))
    metrics = {}
    for spec in declared:
        value = values.get(spec["name"], 0.0)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<44}{value:>18.6g} {spec['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
