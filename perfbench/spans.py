"""Span recorder for the traced benchmark run, and time marks for the untraced one.

``Tracer`` wraps public functions of the e6painleve modules from outside the package:
each wrapper records a span [name, start, end, parent] and the counts the
benchmark names, keeping everything in memory.  A function is rebound in
every e6painleve module whose globals hold it, so calls made through another
module's import (``to_alpha_coords`` inside ``decompose``) and calls through
a module's own global (``phi_step`` inside ``phi_orbit``) are both recorded.
Nothing under ``src/`` changes; ``uninstall`` restores the original bindings,
and ``write`` saves the spans when the run ends.  ``Marks`` rebinds
functions the same way but only records the clock at entry and exit.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _letters(args):
    # Materialize the word once so the wrapped function sees the same letters.
    word = tuple(args[0])
    return (word,) + args[1:], {"letters": len(word)}


def _letters_out(result):
    word = result[0] if result and isinstance(result[0], tuple) else result
    return {"letters_out": len(word)}


def _samples(result):
    return {"samples": result.samples, "rejected": result.rejected}


def _bits(c) -> int:
    x = getattr(c, "num", c)  # ProjectiveCoord (phi) or Fraction (psi)
    return abs(x.numerator).bit_length() + x.denominator.bit_length()


def _final_bits(result):
    return {"final_bits": max(_bits(c) for c in result.entries[-1].point)}


#: Keys each counter produces, so an uncalled function still reports zeros.
COUNT_KEYS = {
    _letters: ("letters",),
    _letters_out: ("letters_out",),
    _samples: ("samples", "rejected"),
    _final_bits: ("final_bits",),
}

#: (module, function, count on the arguments, count on the result).
TARGETS = (
    ("piclattice", "to_alpha_coords", None, None),
    ("weylgroup", "word_to_picmap", _letters, None),
    ("weylgroup", "translation_norm", None, None),
    ("decompose", "decompose", None, _letters_out),
    ("periodmap", "root_variable_evolution", None, None),
    ("birational", "eval_word", _letters, None),
    ("birational", "maps_equal", None, _samples),
    ("models", "phi_step", None, None),
    ("models", "psi_step", None, None),
    ("models", "phi_orbit", None, _final_bits),
    ("models", "psi_orbit", None, _final_bits),
    ("models", "verify_equivalence", None, None),
    ("verify", "coxeter_suite", None, None),
    ("verify", "birational_suite", None, None),
    ("verify", "period_suite", None, None),
    ("verify", "equivalence_suite", None, None),
    ("cli", "main", None, None),
)


def _rebind(original, wrapper, restore: list) -> None:
    """Bind ``wrapper`` wherever an e6painleve module's globals hold ``original``."""
    for key, module in list(sys.modules.items()):
        if key == "e6painleve" or key.startswith("e6painleve."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))


def _restore(restore: list) -> None:
    for module, attr, original in reversed(restore):
        setattr(module, attr, original)
    restore.clear()


class Marks:
    """Time stamps at the entry and exit of chosen library functions.

    They split one operation into segments, so that ``run.split_best`` can
    take each segment's best time over repeated runs of the operation.  A
    wrapper costs two clock reads and two appends per call.  A target the
    package no longer has is skipped.
    """

    def __init__(self, targets) -> None:
        self.targets = targets
        self.times: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        times, clock = self.times, time.perf_counter
        for module_name, func_name in self.targets:
            original = getattr(sys.modules.get(f"e6painleve.{module_name}"), func_name, None)
            if original is None:
                continue

            def wrapper(*args, _fn=original, **kwargs):
                times.append(clock())
                try:
                    return _fn(*args, **kwargs)
                finally:
                    times.append(clock())

            _rebind(original, wrapper, self._restore)

    def uninstall(self) -> None:
        _restore(self._restore)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        #: counts[span name][key] is the list of values, one per call.
        self.counts: dict[str, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count_in, count_out):
        spans, stack, counts = self.spans, self._stack, self.counts[name]

        def wrapper(*args, **kwargs):
            if count_in is not None:
                args, extra = count_in(args)
                for key, value in extra.items():
                    counts[key].append(value)
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if count_out is not None:
                for key, value in count_out(result).items():
                    counts[key].append(value)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, func_name, count_in, count_out in TARGETS:
            original = getattr(sys.modules[f"e6painleve.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, count_in, count_out)
            _rebind(original, wrapper, self._restore)

    def uninstall(self) -> None:
        _restore(self._restore)

    def write(self, path) -> None:
        """Write the spans as JSON, times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[name, start - t0, end - t0, parent] for name, start, end, parent in self.spans]
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}))

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy, self and root seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the run has one caller.  Root
        time counts spans with no traced parent.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent), children in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - children
            if parent < 0:
                entry["root_s"] += end - start
        return out
