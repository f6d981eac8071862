"""Benchmark harness for vlqc: times the package's public pipeline end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wide_ensemble --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --smoke        # every workload at toy size

Each workload runs as a closed loop in this process: one client runs jobs
back to back until ``--seconds`` would be exceeded. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates traced and untraced jobs and
reports the per-layer metrics, writing every span to
``.bench_out/trace-<workload>-seed<seed>.jsonl``. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("wide_ensemble", "reference_session", "verify_suite")

SETUP_SAMPLES_AT_START = 3
MIN_JOBS = 4
CHILD_TIMEOUT_S = 900

# first_job_s and fail_rate are printed too, but are not bounded metrics:
# first_job_s is one sample per run, and fail_rate is 0 when all is well
END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "analyze_s": "s",
    "simulate_s": "s",
    "peak_rss_mb": "MiB",
}

# (metric, unit, how it is measured); "span:<name>" sums that span per job,
# "count:<name>" reads a per-job counter, anything else is derived below.
PER_LAYER = (
    ("ensemble_io.parse_ensemble_s", "s", "span:ensemble_io.parse_ensemble"),
    ("ensemble_io.ensemble_hash_s", "s", "span:ensemble_io.ensemble_hash"),
    ("ensemble_io.input_bytes", "bytes", "count:ensemble_io.input_bytes"),
    ("ensemble_io.errors", "count", "errors"),
    ("codec.select_independent_s", "s", "span:codec.select_independent"),
    ("codec.kept_ratio", "ratio", "kept / messages"),
    ("codec.build_codebook_s", "s", "span:codec.build_codebook"),
    ("codec.build_codebook_self_s", "s", "computed: build_codebook - select_independent - gram_schmidt"),
    ("codec.density_matrix_s", "s", "span:codec.density_matrix"),
    ("codec.encode_s", "s", "span:codec.encode"),
    ("codec.decode_s", "s", "span:codec.decode"),
    ("codec.errors", "count", "errors"),
    ("linalg.gram_schmidt_s", "s", "span:linalg.gram_schmidt"),
    ("linalg.hermitian_eigenvalues_s", "s", "span:linalg.hermitian_eigenvalues"),
    ("linalg.errors", "count", "errors"),
    ("metrics.von_neumann_entropy_s", "s", "span:metrics.von_neumann_entropy"),
    ("metrics.compile_report_s", "s", "span:metrics.compile_report"),
    ("metrics.compile_report_self_s", "s", "computed: compile_report - density_matrix - von_neumann_entropy"),
    ("metrics.errors", "count", "errors"),
    ("cli.report_document_s", "s", "span:cli.report_document"),
    ("cli.report_bytes", "bytes", "count:cli.report_bytes"),
    ("cli.errors", "count", "errors"),
    ("sidechannel.build_huffman_s", "s", "span:sidechannel.build_huffman"),
    ("sidechannel.decode_lengths_s", "s", "span:sidechannel.decode_lengths"),
    ("sidechannel.stream_bits", "bits", "count:sidechannel.stream_bits"),
    ("sidechannel.errors", "count", "errors"),
    ("protocol.run_session_s", "s", "span:protocol.run_session"),
    ("protocol.run_session_self_s", "s", "computed: run_session - ensemble_hash - alice_send - bob_receive"),
    ("protocol.alice_send_s", "s", "span:protocol.alice_send"),
    ("protocol.bob_receive_s", "s", "span:protocol.bob_receive"),
    ("protocol.records", "count", "count:protocol.records"),
    ("protocol.distinct_sent", "count", "count:protocol.distinct_sent"),
    ("protocol.reuse_ratio", "ratio", "records / distinct_sent"),
    ("protocol.verify_lossless_s", "s", "span:protocol.verify_lossless"),
    ("protocol.transcript_lines_s", "s", "span:protocol.transcript_lines"),
    ("protocol.transcript_bytes", "bytes", "count:protocol.transcript_bytes"),
    ("protocol.replay_decode_s", "s", "span:protocol.replay_decode"),
    ("protocol.errors", "count", "errors"),
    ("verify.run_all_s", "s", "span:verify.run_all"),
    ("verify.subjects", "count", "count:verify.subjects"),
    ("verify.check_codebook_consistency_s", "s", "span:verify.check_codebook_consistency"),
    ("verify.check_session_s", "s", "span:verify.check_session"),
    ("verify.errors", "count", "errors"),
    ("harness.traced_job_s", "s", "median traced job, pipeline part only"),
    ("harness.trace_overhead_s", "s", "traced job_s - untraced job_s"),
)

SELF_TIMES = {
    "codec.build_codebook_self_s": ("codec.build_codebook", ("codec.select_independent", "linalg.gram_schmidt")),
    "metrics.compile_report_self_s": (
        "metrics.compile_report",
        ("codec.density_matrix", "metrics.von_neumann_entropy"),
    ),
    "protocol.run_session_self_s": (
        "protocol.run_session",
        ("ensemble_io.ensemble_hash", "protocol.alice_send", "protocol.bob_receive"),
    ),
}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import vlqc\n"
    "print(time.perf_counter() - t, vlqc.__file__)\n"
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, wrong package)."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0, help="measurement window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy input sizes, for a quick end-to-end check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment


def _blas_threads():
    """(library, thread count) of the OpenBLAS numpy loaded, or (None, None)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return os.path.basename(path), int(fn())
    return None, None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment(workload: str, seed: int, sizes) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_lib, blas_threads = _blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_library": blas_lib,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "sizes": vars(sizes),
    }


# ---------------------------------------------------------------------------
# set-up


def time_import() -> float:
    """Seconds to import vlqc in a fresh interpreter, from this checkout's sources."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if done.returncode != 0:
        raise SetupError(f"importing vlqc failed:\n{done.stderr.strip()}")
    seconds, path = done.stdout.split(maxsplit=1)
    if not Path(path.strip()).resolve().is_relative_to(SRC):
        raise SetupError(f"vlqc was imported from {path.strip()}, not from {SRC}")
    return float(seconds)


class SetupTimer:
    """Times set-up again and again: a fresh ``import vlqc``, then building the inputs.

    Samples are taken at the start and before each untraced job, so that
    their median covers the same machine conditions as the job medians.
    """

    def __init__(self, bw, workload: str, seed: int, sizes):
        self._generate = lambda: bw.generate(workload, seed, sizes)
        self.import_s: list[float] = []
        self.input_s: list[float] = []

    def sample(self):
        self.import_s.append(time_import())
        t0 = time.perf_counter()
        inputs = self._generate()
        self.input_s.append(time.perf_counter() - t0)
        return inputs

    @property
    def setup_s(self) -> float:
        return median(self.import_s) + median(self.input_s)


def load_package():
    if not (SRC / "vlqc" / "__init__.py").is_file():
        raise SetupError(f"no vlqc sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import vlqc

    if not Path(vlqc.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"vlqc was imported from {vlqc.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# one workload


def median(values):
    return statistics.median(values) if values else 0.0


def run_loop(bw, inputs, deadline: float, trace: bool, tracer, checks, setup_timer):
    """Closed loop of jobs; returns [(kind, JobOutput)] in run order and the first job's peak RSS.

    The first job is untraced. With tracing, later jobs alternate traced and
    untraced so both see the same machine conditions. A job is started only
    if the previous job of its kind, checks included, would still end
    before ``deadline`` (a perf_counter value), and at least MIN_JOBS jobs
    always run. Untraced runs take a set-up sample before each job.
    """
    from bench_trace import no_span

    first_digests: dict = {}
    jobs = []
    last_wall: dict[str, float] = {}
    while True:
        if not jobs:
            kind = "first"
        elif trace:
            kind = "traced" if jobs[-1][0] != "traced" else "untraced"
        else:
            kind = "untraced"
        estimate = last_wall.get(kind, last_wall.get("first", 0.0))
        if len(jobs) >= MIN_JOBS and time.perf_counter() + estimate > deadline:
            break
        t0 = time.perf_counter()
        if not trace:
            setup_timer.sample()
        gc.collect()
        if kind == "traced":
            tracer.start_job(f"job{len(jobs)}")
            with tracer.span("harness.job"):
                job = bw.run_job(inputs, tracer.span)
                bw.check_job(inputs, job, checks, first_digests, tracer.span)
                bw.trace_job(inputs, job, tracer)
        else:
            job = bw.run_job(inputs, no_span)
            bw.check_job(inputs, job, checks, first_digests, no_span)
        last_wall[kind] = time.perf_counter() - t0
        # keep only the timings: retained outputs would grow the heap that
        # the garbage collector walks, and slow every later job
        job.units, job.properties = [], []
        if not jobs:
            # later jobs reuse memory freed by earlier ones, so the high-water
            # mark after the first job is the one a one-shot CLI call reaches
            first_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        jobs.append((kind, job))
    return jobs, first_rss_mb


def end_to_end_metrics(setup_s, jobs, first_rss_mb):
    warm = [job for kind, job in jobs if kind == "untraced"]
    values = {
        "setup_s": setup_s,
        "job_s": median([j.job_s for j in warm]),
        "analyze_s": median([j.analyze_s for j in warm]),
        "simulate_s": median([j.simulate_s for j in warm]),
        "peak_rss_mb": first_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(tracer, jobs):
    totals = tracer.job_totals()
    traced_jobs = list(tracer.counters)
    errors = tracer.errors_by_layer()

    def span_median(name):
        return median([totals[j][name] for j in traced_jobs if name in totals.get(j, {})])

    def counter(job_id, name):
        return tracer.counters[job_id].get(name)

    def counter_median(name):
        return median([v for j in traced_jobs if (v := counter(j, name)) is not None])

    def ratio_median(num, den):
        return median(
            [counter(j, num) / counter(j, den) for j in traced_jobs if counter(j, den)]
        )

    def self_median(parent, children):
        return median(
            [
                totals[j][parent] - sum(totals[j].get(c, 0.0) for c in children)
                for j in traced_jobs
                if parent in totals.get(j, {})
            ]
        )

    # run_job times only the pipeline, spans included; checks and the
    # separately timed calls come after it, so traced and untraced job_s
    # cover the same work
    traced_job_s = median([job.job_s for kind, job in jobs if kind == "traced"])
    untraced_job_s = median([job.job_s for kind, job in jobs if kind == "untraced"])

    out = {}
    for name, unit, how in PER_LAYER:
        if how.startswith("span:"):
            value = span_median(how[5:])
        elif how.startswith("count:"):
            value = counter_median(how[6:])
        elif how == "errors":
            value = errors.get(name.split(".", 1)[0], 0)
        elif name in SELF_TIMES:
            value = self_median(*SELF_TIMES[name])
        elif name == "codec.kept_ratio":
            value = ratio_median("codec.kept", "codec.messages")
        elif name == "protocol.reuse_ratio":
            value = ratio_median("protocol.records", "protocol.distinct_sent")
        elif name == "harness.traced_job_s":
            value = traced_job_s
        elif name == "harness.trace_overhead_s":
            value = traced_job_s - untraced_job_s
        else:
            raise AssertionError(name)
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(args) -> int:
    try:
        load_package()
        import bench_workloads as bw
        from bench_trace import Tracer

        sizes = (bw.SMOKE_SIZES if args.smoke else bw.SIZES)[args.workload]
        time_import()  # warm-up: file-system caches, bytecode
        setup_timer = SetupTimer(bw, args.workload, args.seed, sizes)
        for _ in range(SETUP_SAMPLES_AT_START):
            inputs = setup_timer.sample()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed, sizes)
    tracer = Tracer()
    checks = bw.Checks()
    deadline = time.perf_counter() + args.seconds
    if args.trace and args.workload != "verify_suite":
        # inside the window, so that a traced run lasts as long as an untraced one
        tracer.start_job("verify")
        bw.trace_verify_once(inputs, checks, tracer)
    jobs, first_rss_mb = run_loop(bw, inputs, deadline, bool(args.trace), tracer, checks, setup_timer)

    counts = {kind: sum(1 for k, _ in jobs if k == kind) for kind in ("first", "untraced", "traced")}
    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  jobs {counts}")
    if args.trace:
        metrics = per_layer_metrics(tracer, jobs)
        descriptions = {name: how for name, _, how in PER_LAYER}
        for name, m in metrics.items():
            print(f"{name:<40} {m['value']:<14.6g} {m['unit']:<6} {descriptions[name]}")
        summary = tracer.summary()
        print("# span summary: name, calls, total_s, self_s, errors")
        for name, row in sorted(summary.items()):
            print(f"#   {name:<40} {row['calls']:>7} {row['total_s']:>11.4f} {row['self_s']:>11.4f} {row['errors']:>3}")
        OUT_DIR.mkdir(exist_ok=True)
        dump_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(
            dump_path,
            header={"environment": env},
            footer={"summary": summary, "per_layer": metrics},
        )
        print(f"# spans written to {dump_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(setup_timer.setup_s, jobs, first_rss_mb)
        samples = len(setup_timer.import_s)
        notes = {
            "setup_s": f"median of {samples} fresh imports + median of {samples} input builds",
            "job_s": f"median of {counts['untraced']} warm jobs",
            "analyze_s": f"median of {counts['untraced']} warm jobs",
            "simulate_s": f"median of {counts['untraced']} warm jobs",
            "peak_rss_mb": "ru_maxrss after set-up and the first job",
        }
        for name, m in metrics.items():
            print(f"{name:<14} {m['value']:<14.6g} {m['unit']:<6} {notes.get(name, '')}")
        print(f"{'first_job_s':<14} {jobs[0][1].job_s:<14.6g} {'s':<6} the first job in this process; one sample")
    rate = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"{'fail_rate':<14} {rate:<14.6g} {'ratio':<6} {checks.failed} failed of {checks.attempted} checks")
    for failure in checks.failures[:10]:
        print(f"# FAILED: {failure}")
    print(json.dumps({"environment": env}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checks.failed == 0 and checks.attempted > 0,
                "attempted": max(checks.attempted, 1),
                "failed": checks.failed if checks.attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_every_workload(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            print(f"perfbench: workload {workload} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{workload}.{name}": m
                    for workload, r in results.items()
                    for name, m in r["metrics"].items()
                },
            }
        )
    )
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_every_workload(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
