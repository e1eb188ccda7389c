#!/usr/bin/env python3
"""e6painleve benchmark: closed loop, one caller, in one process.

    python3 perfbench/run.py --workload words --seed 1 --seconds 30 --trace 0

Workloads: words, orbits, verify (see perfbench/README.md), or ``all`` to run
the three in turn and print every metric under its per-workload name.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics of BENCHMARK.json with
``--trace 0`` and its per_layer metrics with ``--trace 1``.  The line before
it is a report with per-workload metric names, sample counts, failures,
checker self-tests, the JSON-defect probes and size counters.

``--trace 0`` makes passes over a fixed list of inputs until the time is up
and times each input by its best run, segment by segment (``split_best``).
Its times and rates are scaled to a reference machine speed, measured in
the same run by a fixed reference kernel in fresh interpreters
(``time_scale``).
``--trace 1`` runs each pass twice, back to back: once plain and once with
span recorders on the library's public functions.  Per-layer numbers come
from the traced runs, and the tracing overhead is the ratio of traced to
plain time on identical inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A fresh interpreter imports the package and the CLI and builds every
#: generator table; it prints the seconds this took.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import e6painleve, e6painleve.cli
from e6painleve.birational import generator_step
from e6painleve.weylgroup import SYMBOLS, generator_picmap
for s in SYMBOLS:
    generator_picmap(s)
    generator_step(s)
print(time.perf_counter() - t0)
"""
#: Set-up measurements per run, SETUP_PER_PASS before each of the first passes.
SETUP_RUNS = 18
SETUP_PER_PASS = 2

#: The machine-speed references: pure-Python work like the library's, run
#: in an isolated interpreter that imports nothing from the repository, so
#: no change to the library can speed it up or slow it down.  ``small`` is
#: small Fractions and 10x10 integer matrix products, like ``words`` and
#: ``verify``; ``bigint`` is arithmetic on 8000-bit Fractions and a
#: 10000-bit decimal conversion, like ``orbits``.  The program prints the
#: seconds of each of its REFERENCE_REPEATS runs of the named kernel.
REFERENCE_CODE = """
import random, sys, time
from fractions import Fraction
rng = random.Random(7)
A = Fraction(rng.getrandbits(6000) | 1, rng.getrandbits(6000) | 1)
B = Fraction(rng.getrandbits(6000) | 1, rng.getrandbits(6000) | 1)
SMALL = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(40)]
M = [[(i * j) % 7 - 3 for j in range(10)] for i in range(10)]
BIG = [Fraction(rng.getrandbits(8000) | 1, rng.getrandbits(8000) | 1) for _ in range(4)]
DIGITS = rng.getrandbits(10000)
def small():
    s = Fraction(0)
    for x in SMALL:
        for y in SMALL[:10]:
            s += x * y
    p = M
    for _ in range(3):
        p = [[sum(p[i][k] * M[k][j] for k in range(10)) for j in range(10)] for i in range(10)]
    return s, A * B + A, p
def bigint():
    a, b, c, d = BIG
    return (a * b + c) * d - a, str(DIGITS)
kernel = {"small": small, "bigint": bigint}[sys.argv[1]]
for _ in range(int(sys.argv[2])):
    t0 = time.perf_counter()
    kernel()
    print(time.perf_counter() - t0)
"""
REFERENCE_REPEATS = 20
#: A reference probe runs between operations every REFERENCE_EVERY_S, so
#: that the probes see the machine over the whole run, as the inputs' best
#: times do; short runs top up to REFERENCE_MIN probes at the end.
REFERENCE_EVERY_S = 2.0
REFERENCE_MIN = 3
#: Each kernel's best time on the reference machine (a shared 2-core virtual
#: machine, Python 3.11): times are reported as if measured at that speed.
REFERENCE_S = {"small": 0.0020, "bigint": 0.0032}

#: Per-workload names of the end-to-end metrics in the report: generic name
#: -> (name, unit scale, unit).
REPORT_NAMES = {
    "words": {
        "ops_per_s": ("elements_per_s", 1, "1/s"),
        "op_p50_ms": ("element_p50_ms", 1, "ms"),
        "op_tail_ms": ("element_tail_ms", 1, "ms"),
        "items_per_s": ("letters_per_s", 1, "1/s"),
    },
    "orbits": {
        "ops_per_s": ("orbits_per_s", 1, "1/s"),
        "op_p50_ms": ("orbit_p50_s", 1e-3, "s"),
        "op_tail_ms": ("orbit_tail_s", 1e-3, "s"),
        "items_per_s": ("states_per_s", 1, "1/s"),
    },
    "verify": {
        "ops_per_s": ("suites_per_s", 1, "1/s"),
        "op_p50_ms": ("suite_p50_s", 1e-3, "s"),
        "op_tail_ms": ("suite_tail_s", 1e-3, "s"),
        "items_per_s": ("samples_per_s", 1, "1/s"),
    },
}


def setup_seconds() -> float:
    """Set-up time of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


def reference_best(kernel: str) -> float:
    """Best time of a reference kernel in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", REFERENCE_CODE, kernel, str(REFERENCE_REPEATS)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return min(float(line) for line in done.stdout.split())


def time_scale(kernel: str, reference: list[float]) -> float:
    """Factor that turns this run's times into times at the reference speed.

    A shared machine's speed drifts by a third from one minute to the next,
    and every input's best time drifts with it; scaling by the reference
    kernel's speed in the same run takes much of that out.  The kernel's
    speed is the mean of its three best probes, as the inputs' times are
    their best over the run.
    """
    best = sorted(reference)[:3]
    return REFERENCE_S[kernel] / (sum(best) / len(best))


def run_pass(workload, marks=None, between=None) -> list[tuple]:
    """Run every input once; a record is (op, seconds, output, exception, stamps).

    The stamps are the clock at the start, at each of ``marks`` and at the
    end.  A failed operation is timed up to the moment it raises.
    ``between`` is called after each operation, outside its time.
    """
    records = []
    times = marks.times if marks is not None else []
    # Move what earlier passes kept out of the collector's way, so that its
    # pauses do not grow with the records of the run.
    gc.collect()
    gc.freeze()
    for op in workload.inputs:
        times.clear()
        t0 = time.perf_counter()
        try:
            output, error = workload.run(op), None
        except Exception as exc:  # counted as a failed operation, never fatal
            output, error = None, exc
        t1 = time.perf_counter()
        records.append((op, t1 - t0, output, error, [t0, *times, t1]))
        if between is not None:
            between()
    return records


def another_pass(start: float, k: int, seconds: float) -> bool:
    """Whether pass ``k`` should start: at the mean pass time so far, it
    would end nearer ``seconds`` after ``start`` than stopping now."""
    if k == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / k / 2 < seconds


def split_best(runs: list[list[float]]) -> float:
    """Best time of one input over its runs, taken segment by segment.

    The stamps of each run split it into the same segments.  The machine
    may be shared: a slow spell of a few seconds slows whatever runs in it,
    some work by 2x.  A whole run of a second or more rarely misses every
    spell, but each short segment is fast in some run, seconds apart from
    the others.  The input's time is the sum of its segments' best times.
    Runs whose number of stamps differs from the most common one are left
    out.
    """
    by_length: dict[int, list] = defaultdict(list)
    for stamps in runs:
        by_length[len(stamps)].append(stamps)
    same = max(by_length.values(), key=len)
    return sum(min(s[i + 1] - s[i] for s in same) for i in range(len(same[0]) - 1))


@contextlib.contextmanager
def unlimited_int_digits():
    """Let checks parse integers past CPython's 4300-digit default, then restore it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def evaluate(workload, records):
    """Check every output; returns (one passed (op, output) per input, failure counts).

    An output equal to one that passed for the same input passes without
    checking it again.
    """
    from workloads import CHECK_ERRORS

    passed, failures = {}, Counter()
    with unlimited_int_digits():
        for op, _, output, error, _ in records:
            if error is not None:
                failures[f"{type(error).__name__}: {str(error)[:80]}"] += 1
                continue
            if op in passed and passed[op] == output:
                continue
            try:
                workload.check(op, output)
            except CHECK_ERRORS as exc:
                failures[f"check: {str(exc)[:80]}"] += 1
                continue
            passed.setdefault(op, output)
    return list(passed.items()), failures


def percentile(times: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(times)
    index = max(0, math.ceil(pct * len(ordered) / 100) - 1)
    return ordered[index], len(ordered) - 1 - index


def size_counters() -> dict[str, int]:
    from e6painleve import decompose, word_to_picmap

    from workloads import PHI_WORD

    sizes = {"size.src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "e6painleve").glob("*.py"))}
    for n in (1, 16, 64):
        sizes[f"size.phi_pow{n}_letters"] = len(decompose(word_to_picmap(PHI_WORD * n)))
    return sizes


def run_probes(workload):
    """Untimed JSON orbits past 4300 digits; each outcome and exception type."""
    from workloads import CHECK_ERRORS

    outcomes = []
    for op in getattr(workload, "probes", ()):
        try:
            output = workload.run(op)
        except Exception as exc:  # the defect being counted
            outcomes.append({"argv": op.argv(), "ok": False, "exception": type(exc).__name__, "message": str(exc)[:100]})
            continue
        try:
            with unlimited_int_digits():
                workload.check(op, output)
        except CHECK_ERRORS as exc:
            outcomes.append({"argv": op.argv(), "ok": False, "exception": None, "message": str(exc)[:100]})
        else:
            outcomes.append({"argv": op.argv(), "ok": True, "exception": None, "message": ""})
    return outcomes


def layer_metrics(tracer, records, untraced, probes, cli_outputs: bool) -> dict[str, float]:
    """Per-layer values from the traced records, per operation unless named otherwise."""
    from spans import COUNT_KEYS, TARGETS

    n = len(records)
    summary = tracer.summary()
    values: dict[str, float] = {}
    module_self: Counter = Counter()
    for module, func, count_in, count_out in TARGETS:
        name = f"{module}.{func}"
        entry = summary.get(name, {})
        values[f"{name}.calls"] = entry.get("calls", 0) / n
        values[f"{name}.busy_ms"] = 1e3 * entry.get("busy_s", 0.0) / n
        values[f"{name}.self_ms"] = 1e3 * entry.get("self_s", 0.0) / n
        module_self[module] += entry.get("self_s", 0.0)
        for key in COUNT_KEYS.get(count_in, ()) + COUNT_KEYS.get(count_out, ()):
            values[f"{name}.{key}"] = sum(tracer.counts[name][key]) / n
    for module, self_s in module_self.items():
        values[f"layer.{module}.self_ms"] = 1e3 * self_s / n
    samples = sum(tracer.counts["birational.maps_equal"]["samples"])
    rejected = sum(tracer.counts["birational.maps_equal"]["rejected"])
    values["birational.maps_equal.accept_ratio"] = samples / (samples + rejected) if samples + rejected else 0.0
    bits = tracer.counts["models.phi_orbit"]["final_bits"] + tracer.counts["models.psi_orbit"]["final_bits"]
    values["models.orbit.final_bits"] = statistics.median(bits) if bits else 0
    values["models.orbit.final_bits_max"] = max(bits, default=0)
    values["cli.main.output_bytes"] = sum(len(r[2][1]) for r in records if r[2] is not None) / n if cli_outputs else 0.0
    exceptions = Counter(type(r[3]).__name__ for r in records + untraced if r[3] is not None)
    exceptions.update(p["exception"] for p in probes if p["exception"])
    values["cli.main.exceptions"] = sum(exceptions.values()) if cli_outputs else 0
    values["cli.main.exceptions.ValueError"] = exceptions["ValueError"] if cli_outputs else 0
    traced_s = sum(r[1] for r in records)
    values["trace.overhead_frac"] = traced_s / sum(r[1] for r in untraced) - 1
    values["trace.cover_frac"] = sum(e.get("root_s", 0.0) for e in summary.values()) / traced_s
    values["trace.ops"] = n
    return values


def best_times(workload, records):
    """Per distinct input: its best time (``split_best``) and its work items."""
    runs: dict = defaultdict(list)
    items: dict = {}
    for op, _, output, error, stamps in records:
        runs[op].append(stamps)
        if error is None and op not in items:
            items[op] = workload.items(op, output)
    return {op: split_best(r) for op, r in runs.items()}, items


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    import workloads
    from e6painleve.birational import generator_step
    from e6painleve.weylgroup import SYMBOLS, generator_picmap

    for s in SYMBOLS:  # lazy tables are built before timing
        generator_picmap(s)
        generator_step(s)
    workload = workloads.WORKLOADS[name](seed)

    setup, reference = [], []
    start = time.perf_counter()
    passes = 0
    if trace:
        from spans import Tracer

        # Each pass runs untraced and then traced, back to back, so that a
        # slow spell of the machine hits both and the overhead compares like
        # with like.
        tracer = Tracer()
        untraced, traced = [], []
        while another_pass(start, passes, seconds):
            untraced += run_pass(workload)
            tracer.install()
            try:
                traced += run_pass(workload)
            finally:
                tracer.uninstall()
            passes += 1
        tracer.write(ROOT / ".perfbench" / f"spans-{name}-{seed}.json")
        records = untraced + traced
    else:
        from spans import Marks

        marks = Marks(workload.marks)
        records = []
        next_probe = start

        def probe_when_due() -> None:
            nonlocal next_probe
            if time.perf_counter() >= next_probe:
                reference.append(reference_best(workload.reference))
                next_probe = time.perf_counter() + REFERENCE_EVERY_S

        marks.install()
        try:
            while another_pass(start, passes, seconds):
                if len(setup) < SETUP_RUNS:
                    setup += [setup_seconds() for _ in range(SETUP_PER_PASS)]
                records += run_pass(workload, marks, probe_when_due)
                passes += 1
        finally:
            marks.uninstall()
        setup += [setup_seconds() for _ in range(SETUP_RUNS - len(setup))]
        reference += [reference_best(workload.reference) for _ in range(REFERENCE_MIN - len(reference))]

    passed, failures = evaluate(workload, records)
    self_test = workload.self_test(passed) if passed else ["no passing output to corrupt"]
    probes = run_probes(workload)
    sizes = size_counters()

    best, items = best_times(workload, records)
    # The traced run reports per-layer times as measured, without scaling.
    scale = time_scale(workload.reference, reference) if reference else 1.0
    times = [t * scale for t in best.values()]
    tail, beyond = percentile(times, workload.tail_pct)
    generic = {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail,
        "items_per_s": sum(items.values()) / sum(times),
    }

    report_metrics = {}
    for key, (short, unit_scale, unit) in REPORT_NAMES[name].items():
        entry = {"value": generic[key] * unit_scale, "unit": unit, "samples": len(times)}
        if key == "op_tail_ms":
            entry |= {"percentile": workload.tail_pct, "beyond": beyond}
        report_metrics[f"{name}.{short}"] = entry
    failed = sum(failures.values())
    probe_failed = sum(not p["ok"] for p in probes)
    report_metrics[f"{name}.failed_frac"] = {
        "value": (failed + probe_failed) / (len(records) + len(probes)),
        "unit": "ratio", "samples": len(records) + len(probes),
    }
    if setup:
        report_metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s", "samples": len(setup)}

    if trace:
        values = layer_metrics(tracer, traced, untraced, probes, workload.cli) | sizes
        declared = spec["per_layer"]
    else:
        values = generic | {"setup_s": statistics.median(setup)}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    report = {
        "workload": name, "seed": seed, "trace": int(trace), "loop": "closed, one caller",
        "seconds": seconds, "passes": passes, "runs": len(records), "inputs": len(times),
        "metrics": report_metrics, "failures": dict(failures),
        "self_test": self_test or "every checker rejected its corrupted output",
        "probes": probes, "size": sizes,
    }
    if trace:
        report["trace_overhead_frac"] = values["trace.overhead_frac"]
    else:
        report["time_scale"] = {
            "factor": scale, "kernel": workload.reference, "reference_s": REFERENCE_S[workload.reference],
            "probes_best_s": sorted(reference)[:3],
        }
    result = {
        "correct": not failures and not self_test,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("words", "orbits", "verify", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "e6painleve" / "__init__.py").is_file():
        sys.stderr.write(f"e6painleve sources not found under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = ("words", "orbits", "verify") if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        report, result = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps({"report": report}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        if args.trace:
            combined["metrics"] |= {f"{name}.{k}": v for k, v in result["metrics"].items()}
        else:
            combined["metrics"] |= {k: {"value": v["value"], "unit": v["unit"]} for k, v in report["metrics"].items()}
    print(json.dumps(result if len(names) == 1 else combined))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
