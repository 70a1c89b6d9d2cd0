"""egf-lab benchmark runner.

    python3 perfbench/run.py --workload march --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The load is a closed loop with one client: a single process feeds
the workload's generated configs to ``egf_lab.cli.run`` / ``sweep_configs``
back to back, each call waiting for the previous one.  Passes over the
workload repeat until ``--seconds`` have elapsed (at least MIN_PASSES).
Every run is checked against its oracle and every output file is hashed;
the hashes must repeat across passes.

Times are calibrated against a fixed probe timed around every invocation,
so that the shared host's slow and fast phases cancel (see ``probe``).
``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, plus the tracing overhead.  The last line of stdout is the result as
one JSON object.  Scratch files live in ``.bench_out/`` of the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_job, output_digest  # noqa: E402
from tracing import (  # noqa: E402
    LAYER_METRICS,
    REPEATED_COUNTS,
    Tracer,
    instrument,
    layer_metrics,
)
from workloads import WHY, make_jobs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MIN_SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
PROBE_REF_S = 0.015  # the probe's time in the fast phases of a shared 2-core x86-64 host

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("run_s.p50", "s"),
    ("run_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    beyond it, i.e. the (TAIL_BEYOND + 1)-th largest sample."""
    if len(samples) <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {len(samples)}")
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def measure_setup() -> tuple[float, float]:
    """(raw, calibrated) wall time of a fresh interpreter importing egf_lab.cli."""
    before = probe()
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import egf_lab.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True,
        timeout=120, stdout=subprocess.DEVNULL,
    )
    raw = time.perf_counter() - started
    speed = 0.5 * (before + probe()) / PROBE_REF_S
    return raw, raw / speed


def environment(seed: int) -> dict:
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def probe() -> float:
    """Seconds taken by a fixed mix of small numpy operations and interpreted
    loops that never touches egf_lab.

    The host's speed swings by up to ~1.7x over seconds to minutes as other
    tenants load it.  A timing divided by the mean of the probes just before
    and after it, over PROBE_REF_S, is in seconds at the speed where the
    probe takes PROBE_REF_S: that removes the swings and keeps the effect of
    program changes.
    """
    x = np.linspace(0.0, 1.0, 1024)
    started = time.perf_counter()
    for _ in range(500):
        d = np.roll(x, 1) - x
        y = np.where(d > 0, d, -d) * 0.5 + x * x
        total = 0
        for j in range(150):
            total += j * (j & 7)
        _ = [float(v) for v in y[:32]]
    return time.perf_counter() - started


class Pass:
    """Per-invocation samples, machine speed and output checks of one pass.

    ``samples`` are raw seconds; ``speeds[i]`` is the mean of the probe times
    just before and just after invocation i, over PROBE_REF_S.
    """

    def __init__(self, samples: list[float], probes: list[float], failures: list[str]):
        self.samples = samples
        self.speeds = [(a + b) / (2.0 * PROBE_REF_S) for a, b in zip(probes, probes[1:])]
        self.failures = failures

    @property
    def wall(self) -> float:
        return sum(self.samples)

    def calibrated(self) -> list[float]:
        return [s / v for s, v in zip(self.samples, self.speeds)]


def run_pass(cli, jobs, passdir: Path, reference: dict, tracer=None) -> Pass:
    """Run every job once, then check outputs against oracles and hashes.

    ``reference`` maps job index to the output digest of the first pass and
    is filled on that pass.
    """
    samples, aggregates, crashes, probes = [], [], {}, []
    for idx, job in enumerate(jobs):
        outdir = passdir / f"{idx:02d}-{job.name}"
        if tracer is not None:
            tracer.run_id = idx
        aggregate = None
        probes.append(probe())
        t0 = time.perf_counter()
        try:
            if job.kind == "run":
                cli.run(job.configs[0], outdir, quiet=True)
            else:
                aggregate, _ = cli.sweep_configs(job.configs, outdir, job.axis)
        except Exception as exc:  # a crash is a failed run, not a dead benchmark
            crashes[idx] = f"{type(exc).__name__}: {exc}"
        samples.append(time.perf_counter() - t0)
        aggregates.append(aggregate)
    probes.append(probe())

    failures = []
    for idx, job in enumerate(jobs):
        outdir = passdir / f"{idx:02d}-{job.name}"
        problems = [crashes[idx]] if idx in crashes else check_job(
            job, outdir, aggregates[idx]
        )
        digest = output_digest(outdir)
        if reference.setdefault(idx, digest) != digest:
            problems.append("output bytes differ from the first pass")
        if problems:
            failures.append(f"{job.name}: {'; '.join(problems)}")
    shutil.rmtree(passdir, ignore_errors=True)
    return Pass(samples, probes, failures)


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "egf_lab" / "cli.py").is_file():
        print(f"perfbench: no egf_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from egf_lab import cli

    env = environment(args.seed)
    log(f"env {json.dumps(env, sort_keys=True)}")
    log(f"workload {args.workload}: {WHY[args.workload]}")

    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = make_jobs(args.workload, args.seed, workdir)
        reference: dict = {}
        setup: list[tuple[float, float]] = []
        untraced: list[Pass] = []
        traced: list[tuple[Pass, dict]] = []
        last_tracer = None
        deadline = time.perf_counter() + args.seconds
        while args.trace == 0:
            if len(untraced) >= MIN_PASSES and time.perf_counter() >= deadline:
                break
            # one set-up sample per pass spreads them over the whole run
            setup.append(measure_setup())
            untraced.append(run_pass(cli, jobs, workdir / "pass", reference))
            done = untraced[-1]
            log(f"pass {len(untraced)}: wall {done.wall:.4f} s raw, "
                f"{sum(done.calibrated()):.4f} s calibrated")
        while args.trace == 1:
            if len(traced) >= MIN_TRACED_PASSES and time.perf_counter() >= deadline:
                break
            untraced.append(run_pass(cli, jobs, workdir / "pass", reference))
            last_tracer = Tracer()
            restore = instrument(last_tracer)
            try:
                done = run_pass(cli, jobs, workdir / "pass", reference, last_tracer)
            finally:
                restore()
            traced.append((done, layer_metrics(last_tracer.spans)))
            log(f"pass pair {len(traced)}: untraced {untraced[-1].wall:.4f} s, "
                f"traced {done.wall:.4f} s")
        while len(setup) < MIN_SETUP_SAMPLES and args.trace == 0:
            setup.append(measure_setup())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + [p for p, _ in traced]
    attempted = sum(len(p.samples) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures:
        log(f"FAILED {f}")
    log(f"fail_ratio = {len(failures)}/{attempted} = {len(failures) / attempted:.4g}"
        f" over {len(passes)} passes")

    correct = not failures
    if args.trace == 0:
        samples = [s for p in untraced for s in p.calibrated()]
        tail_value, tail_pct = tail(samples)
        metrics = {
            "setup_s": statistics.median(c for _, c in setup),
            "wall_s": statistics.median(sum(p.calibrated()) for p in untraced),
            "run_s.p50": statistics.median(samples),
            "run_s.tail": tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        raw_samples = [s for p in untraced for s in p.samples]
        raw = {
            "setup_s": statistics.median(r for r, _ in setup),
            "wall_s": statistics.median(p.wall for p in untraced),
            "run_s.p50": statistics.median(raw_samples),
            "run_s.tail": tail(raw_samples)[0],
        }
        log("median machine speed per pass "
            f"{['%.3f' % statistics.median(p.speeds) for p in untraced]}")
        log(f"uncalibrated {json.dumps(raw)}")
        log(f"run_s.tail is p{tail_pct:.1f} of {len(samples)} samples")
        record = {"tail_percentile": tail_pct, "samples": len(samples),
                  "uncalibrated": raw}
    else:
        per_pass = [m for _, m in traced]
        for name in REPEATED_COUNTS:
            values = {m[name] for m in per_pass}
            if len(values) != 1:
                correct = False
                log(f"FAILED count {name} differs between traced passes: {values}")
        metrics = {
            name: statistics.median(m[name] for m in per_pass)
            for name, _ in LAYER_METRICS
        }
        overhead = (statistics.median(sum(p.calibrated()) for p, _ in traced)
                    - statistics.median(sum(p.calibrated()) for p in untraced))
        metrics["bench.tracing_overhead_s"] = overhead
        units = dict(LAYER_METRICS, **{"bench.tracing_overhead_s": "s"})
        spans_path = OUT / f"spans-{args.workload}.jsonl"
        last_tracer.dump(spans_path)
        log(f"spans of the last traced pass in {spans_path}")
        record = {"spans": len(last_tracer.spans)}

    for name, value in metrics.items():
        log(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "workload": args.workload,
                   "why": WHY[args.workload], **record, **result}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
