"""Spans around calls into the package's modules, from outside the package.

A wrapper is installed at every name where the program looks a traced
function up: module globals bound by `from .x import f` as well as methods
on classes. Each call records a span (metric, start, end, parent) in flat
arrays that stay in memory until the run writes them out. A traced name
that a later version of the program removed or renamed is skipped, and its
metric is reported as absent.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (defining module, name, metric, counter, everywhere). "Class.method" names a
# method. With `everywhere` the wrapper replaces the function under every
# opqkd module global bound to it; otherwise only the defining module's own
# global is replaced, which is where that module looks it up.
SITES = (
    ("qcore", "RngStream.__init__", "qcore.rng_s", "qcore.rng_streams", False),
    ("qcore", "RngStream.integers", "qcore.rng_s", None, False),
    ("qcore", "RngStream.random", "qcore.rng_s", None, False),
    ("qcore", "RngStream.permutation", "protocol.check_subset_s", None, False),
    ("qcore", "tensor", "qcore.tensor_s", "qcore.tensor_calls", True),
    ("qcore", "MeasurementBasis.__init__", "qcore.basis_s", "qcore.basis_builds", False),
    ("stateset", "build_symmetric", "stateset.build_s", None, True),
    ("stateset", "build_3x3", "stateset.build_s", None, True),
    ("stateset", "StateSet.__init__", "stateset.build_s", None, False),
    ("stateset", "bob_basis", "stateset.bob_basis_s", None, True),
    ("stateset", "check_conditions", "stateset.conditions_s", None, True),
    ("stateset", "is_four_fold_symmetric", "stateset.symmetry_s", None, True),
    ("stateset", "stateset_from_text", "stateset.parse_s", None, True),
    ("stateset", "stateset_to_text", "stateset.serialize_s", None, True),
    ("adversary", "make_strategy", "adversary.strategy_setup_s", None, True),
    # Only the strategy constructors' lookup: inside exact enumeration the
    # conditional bases stay part of analysis.exact_s.
    ("adversary", "conditional_b_basis", "adversary.strategy_setup_s", None, False),
    ("adversary", "EveStrategy.first_leg", "adversary.first_leg_s", None, False),
    ("adversary", "EveStrategy.second_leg", "adversary.second_leg_s", None, False),
    ("adversary", "projective_measure", "adversary.eve_measure_s", None, False),
    ("protocol", "projective_measure", "protocol.bob_measure_s", "protocol.bob_measurements", False),
    ("protocol", "run_round", "protocol.round_self_s", None, True),
    ("protocol", "run_session", "protocol.records_s", None, True),
    ("protocol", "summarize_session", "protocol.summary_s", None, True),
    ("analysis", "monte_carlo_estimate", "analysis.mc_self_s", None, True),
    ("analysis", "exact_undetected_prob", "analysis.exact_s", None, True),
    ("cli", "_key_material", "cli.key_pack_s", None, False),
    ("cli", "_report_text", "cli.format_s", None, False),
    ("cli", "_csv_text", "cli.format_s", None, False),
    ("cli", "_write_atomic", "cli.write_s", None, False),
    ("cli", "main", "cli.main_self_s", None, False),
)

TIME_METRICS = tuple(dict.fromkeys(site[2] for site in SITES))
COUNT_METRICS = tuple(dict.fromkeys(site[3] for site in SITES if site[3]))


class Tracer:
    def __init__(self) -> None:
        self.metric_ids = {name: k for k, name in enumerate(TIME_METRICS)}
        self.metric = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, metric: str, counter: str | None):
        metric_id = self.metric_ids[metric]
        spans_metric, spans_parent = self.metric, self.parent
        spans_start, spans_end, stack, counts = self.start, self.end, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans_metric)
            spans_metric.append(metric_id)
            spans_parent.append(stack[-1] if stack else -1)
            spans_end.append(0.0)
            stack.append(index)
            if counter:
                counts[counter] += 1
            spans_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                spans_end[index] = clock()
                stack.pop()

        return traced

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every site that exists in the imported program."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "opqkd" or name.startswith("opqkd.")}
        installed: set[str] = set()
        counted: set[str] = set()
        for module_name, name, metric, counter, everywhere in SITES:
            module = package.get(f"opqkd.{module_name}")
            owner_name, _, method = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or (method not in vars(owner)):
                continue
            original = vars(owner)[method]
            wrapper = self._wrap(original, metric, counter)
            if owner_name or not everywhere:
                self._replace(owner, method, wrapper)
            else:
                for mod in package.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, wrapper)
            installed.add(metric)
            if counter:
                counted.add(counter)
        self.absent = (set(TIME_METRICS) - installed) | (set(COUNT_METRICS) - counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self, pauses=()) -> dict[str, float]:
        """Self time per metric: each span's duration minus the durations of
        its direct children, summed over all spans recorded. Each pause
        (start, end), a stretch the benchmark itself spent inside the
        program's time, is taken off the innermost span it fell in."""
        metric = np.array(self.metric, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        start, end = np.array(self.start), np.array(self.end)
        duration = end - start
        has_parent = parent >= 0
        own = duration - np.bincount(parent[has_parent], weights=duration[has_parent],
                                     minlength=len(duration))
        for pause_start, pause_end in pauses:
            k = int(np.searchsorted(start, pause_start, side="right")) - 1
            while k >= 0 and end[k] < pause_end:
                k = int(parent[k])
            if k >= 0:
                own[k] -= pause_end - pause_start
        totals = np.bincount(metric, weights=own, minlength=len(TIME_METRICS))
        return {name: float(totals[k]) for k, name in enumerate(TIME_METRICS)}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(TIME_METRICS),
            metric=np.array(self.metric, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
        )
