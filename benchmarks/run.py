"""Run one workload of the ludercheck benchmark and print its metrics.

Usage:
    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop: one process and one client, which sends the
next case only after the previous one returned.  Cases run in whole cycles
until S seconds have passed; each new cycle gets fresh inputs from the seed.
Every verdict is checked.  With ``--trace 0`` the run reports end-to-end
metrics, with no tracing active; with ``--trace 1`` it alternates untraced
and traced cycles on the same inputs and reports per-layer metrics.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the run's details:
seed, environment, sample counts and the metrics that are not gated.
"""

import time

# Set-up time counts from here, so it includes importing numpy and ludercheck.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run: this process's own, plus fresh interpreters.
SETUP_SAMPLES = 5

#: Seed held out for checking a later claim on inputs it was not tuned on.
HELD_OUT_SEED = 20261017

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdict_ms.p50": "ms",
    "verdict_ms.p90": "ms",
    "verdicts_per_s": "1/s",
    "report_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "linalg.hermitian_eig.calls": "count/case",
    "linalg.hermitian_eig.self_ms": "ms/case",
    "linalg.hermitian_eig.us_per_call": "us",
    "linalg.projector_from_vectors.self_ms": "ms/case",
    "quantum.spectral_decompose.calls": "count/case",
    "quantum.spectral_decompose.self_ms": "ms/case",
    "quantum.build_sigma.self_ms": "ms/case",
    "quantum.build_sigma_prime.self_ms": "ms/case",
    "quantum.DensityMatrix.constructions": "count/case",
    "quantum.DensityMatrix.self_ms": "ms/case",
    "quantum.measure_pure.calls": "count/case",
    "quantum.measure_pure.self_ms": "ms/case",
    "quantum.PureState.constructions": "count/case",
    "quantum.PureState.self_ms": "ms/case",
    "apparatus.measure_sampled.calls": "count/case",
    "apparatus.measure_sampled.self_ms": "ms/case",
    "apparatus.channel_exact.calls": "count/case",
    "apparatus.channel_exact.self_ms": "ms/case",
    "protocol.prepare_ensemble.self_ms": "ms/case",
    "protocol.run_stage.self_ms": "ms/case",
    "protocol.discriminate.self_ms": "ms/case",
    "protocol.selection_yield": "ratio",
    "protocol.transcript_records": "count/case",
    "scenarios.instantiate.ms": "ms/setup",
    "scenarios.build_consecutive.self_ms": "ms/setup",
    "cli.build_report.self_ms": "ms/case",
    "cli.json_encode.ms": "ms/case",
    "cli.report_bytes": "B/case",
    "trace.overhead_share": "ratio",
}

LAYERS = ("linalg", "quantum", "apparatus", "protocol", "scenarios", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-cases", type=int, default=None, metavar="N",
                        help="run only the first N cases of each cycle "
                             "(reduced-size smoke runs)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return args


class Loop:
    """Runs cases one at a time and keeps the correctness tally."""

    def __init__(self, workloads, args):
        self.workloads = workloads
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.detected_at: dict[str, int] = {}

    def build(self, cycle):
        cases = self.workloads.WORKLOADS[self.args.workload](
            self.workloads.cycle_rng(self.args.seed, cycle)
        )
        return cases[: self.args.max_cases]

    def run(self, case):
        """One case; None when it raised."""
        self.attempted += 1
        try:
            outcome = self.workloads.run_case(case)
        except Exception as exc:  # a failed case is counted, not fatal
            self.failed += 1
            print(f"case {case.name} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None
        key = f"{case.name}:{outcome.detected_at}"
        self.detected_at[key] = self.detected_at.get(key, 0) + 1
        if outcome.problem is not None:
            self.failed += 1
            print(f"case {case.name} is wrong: {outcome.problem}", file=sys.stderr)
        return outcome


def percentile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def setup_probe(workload, seed):
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_end_to_end(loop, cases, setup_s, args):
    """Untraced cycles until the time is up; returns metrics and details."""
    setups = [setup_s] + [
        setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    loop.run(cases[0])  # warm-up: first-call costs stay out of the timings
    verdict_s = []
    # Report times by the case's place in the cycle.  A few-millisecond
    # exact-mode report varies by a quarter from cycle to cycle, so each
    # place keeps its median rather than adding into a cycle total.
    report_s = [[] for _ in cases]
    drawn = 0
    started = time.perf_counter()
    cycle = 0
    while True:
        for place, case in enumerate(cases):
            outcome = loop.run(case)
            if outcome is None:
                continue
            if outcome.problem is None:
                verdict_s.append(outcome.verdict_s)
                drawn += outcome.drawn
            report_s[place].append(outcome.report_s)
        if time.perf_counter() - started >= args.seconds:
            break
        cycle += 1
        cases = loop.build(cycle)
    if not verdict_s:
        return None, {}
    verdict_ms = [s * 1e3 for s in verdict_s]
    metrics = {
        "setup_s": statistics.median(setups),
        "verdict_ms.p50": statistics.median(verdict_ms),
        "verdict_ms.p90": percentile(verdict_ms, 90),
        "verdicts_per_s": len(verdict_s) / sum(verdict_s),
        "report_s": sum(statistics.median(times) for times in report_s if times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "setup_s_samples": setups,
        "verdict_samples": len(verdict_s),
        "verdict_samples_beyond_p90": sum(
            ms > metrics["verdict_ms.p90"] for ms in verdict_ms
        ),
        "cycles": cycle + 1,
        "failed_share": loop.failed / loop.attempted,
    }
    if drawn:
        details["trajectories_per_s"] = drawn / sum(verdict_s)
    return metrics, details


def measure_per_layer(loop, tracing, args):
    """Untraced then traced cycle on the same inputs, until the time is up."""
    tracer = tracing.Tracer()
    case_totals: dict[str, list] = {}
    setup_totals: dict[str, list] = {}
    with tracer.active():
        cases = loop.build(0)
    tracer.fold(setup_totals)
    builds = 1
    loop.run(cases[0])  # warm-up
    untraced_s = traced_s = 0.0
    traced = drawn = kept = records = report_bytes = 0

    def run_untraced():
        nonlocal untraced_s
        for case in cases:
            outcome = loop.run(case)
            untraced_s += outcome.verdict_s if outcome else 0.0

    def run_traced():
        nonlocal traced, traced_s, drawn, kept, records, report_bytes
        with tracer.active():
            for case in cases:
                outcome = loop.run(case)
                tracer.fold(case_totals)
                if outcome is None:
                    continue
                traced += 1
                traced_s += outcome.verdict_s
                drawn += outcome.drawn
                kept += outcome.kept
                records += outcome.transcript_records
                report_bytes += outcome.report_bytes

    started = time.perf_counter()
    cycle = 0
    while True:
        # Alternate which pass goes first, so warm caches favour neither.
        for run_pass in (run_untraced, run_traced)[:: 1 if cycle % 2 == 0 else -1]:
            run_pass()
        if time.perf_counter() - started >= args.seconds:
            break
        cycle += 1
        with tracer.active():
            cases = loop.build(cycle)
        tracer.fold(setup_totals)
        builds += 1

    if not traced:
        return None, {}
    eig_calls, eig_self, _ = case_totals.get("linalg.hermitian_eig", [0, 0.0, 0.0])
    derived = {
        "linalg.hermitian_eig.us_per_call": eig_self * 1e6 / eig_calls if eig_calls else 0.0,
        "protocol.selection_yield": kept / drawn if drawn else 0.0,
        "protocol.transcript_records": records / traced,
        "cli.report_bytes": report_bytes / traced,
        "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
    }
    # The other names read <span>.<statistic>: calls and constructions count
    # spans, self_ms sums self time and ms inclusive time, per traced case or,
    # for set-up metrics, per traced set-up.
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in derived:
            metrics[name] = derived[name]
            continue
        span, _, statistic = name.rpartition(".")
        totals, count = (setup_totals, builds) if unit == "ms/setup" else (case_totals, traced)
        calls, self_s, inclusive_s = totals.get(span, (0, 0.0, 0.0))
        if statistic in ("calls", "constructions"):
            metrics[name] = calls / count
        else:
            metrics[name] = (self_s if statistic == "self_ms" else inclusive_s) * 1e3 / count

    case_s = sum(entry[1] for entry in case_totals.values())
    layer_share = {
        layer: sum(e[1] for n, e in case_totals.items() if n.startswith(layer + "."))
        / case_s
        for layer in LAYERS
    }
    self_share = {n: e[1] / case_s for n, e in case_totals.items()}
    details = {
        "traced_cases": traced,
        "setups_traced": builds,
        "layer_self_share": layer_share,
        "span_self_share": dict(sorted(self_share.items(), key=lambda kv: -kv[1])),
        "reason_check": reason_check(args.workload, layer_share, self_share),
        "failed_share": loop.failed / loop.attempted,
    }
    return metrics, details


def reason_check(workload, layer_share, self_share):
    """Whether the trace agrees with the reason the workload was chosen."""
    top = max(self_share, key=self_share.get)
    if workload == "spin6-exact":
        holds = top == "linalg.hermitian_eig"
        claim = f"largest self time is linalg.hermitian_eig (top: {top})"
    elif workload == "sampled-builtins":
        collapse = ("quantum.measure_pure", "apparatus.measure_sampled",
                    "quantum.PureState")
        share = sum(self_share.get(n, 0.0) for n in collapse)
        rest = max((v for n, v in self_share.items() if n not in collapse), default=0.0)
        holds = share > rest
        claim = (f"measure_pure + measure_sampled + PureState self share "
                 f"{share:.3f} exceeds any other span ({rest:.3f})")
    else:
        layer = max(layer_share, key=layer_share.get)
        holds = layer_share[layer] <= 0.5
        claim = (f"no layer exceeds half the case time "
                 f"(largest: {layer} {layer_share[layer]:.3f})")
    return {"claim": claim, "holds": holds}


def environment(seed):
    """Python, numpy, BLAS and its threads, cores, CPU model, and the code."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def blas_threads(np):
    """Threads of numpy's bundled OpenBLAS, or None when it cannot be asked."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_digest():
    """SHA-256 over the package sources, which names the code without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ludercheck").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def print_table(metrics, units, details):
    for name, value in metrics.items():
        print(f"{name:40s} {value:16.6g} {units[name]}")
    for name in ("failed_share", "trajectories_per_s"):
        if name in details:
            unit = "ratio" if name == "failed_share" else "1/s"
            print(f"{name:40s} {details[name]:16.6g} {unit}")


def main(argv=None):
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    loop = Loop(workloads, args)
    if args.trace:
        import tracing

        metrics, details = measure_per_layer(loop, tracing, args)
        units = PER_LAYER_UNITS
    else:
        cases = loop.build(0)
        setup_s = time.perf_counter() - _STARTED
        metrics, details = measure_end_to_end(loop, cases, setup_s, args)
        units = END_TO_END_UNITS
    if metrics is None:
        print(f"error: all {loop.attempted} cases failed", file=sys.stderr)
        return 1
    details = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "detected_at": loop.detected_at,
        **details,
        "environment": environment(args.seed),
    }
    print(f"ludercheck benchmark: {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print_table(metrics, units, details)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
