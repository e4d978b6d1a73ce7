"""In-memory span tracing of the signgame layers, installed from outside.

The tracer never edits package code. It rebinds the timed functions in
every loaded ``signgame`` module (``game.py`` holds its own reference to
``agents.update_parameters``, so rebinding the defining module alone would
miss calls), and puts the originals back when the traced run ends.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (span name, module, attribute) for every traced function. Several
# functions may share a span name: the three exchange protocols are one layer.
TRACED = (
    ("stochastic.generator", "signgame.stochastic", "RngStream.generator"),
    ("datagen.generate_dataset", "signgame.datagen", "generate_dataset"),
    ("agents.init_agent", "signgame.agents", "init_agent"),
    ("agents.update_parameters", "signgame.agents", "update_parameters"),
    ("agents.posterior_concentrations", "signgame.agents", "posterior_concentrations"),
    ("agents.sample_categories", "signgame.agents", "sample_categories"),
    ("agents.observation_log_likelihood", "signgame.agents", "observation_log_likelihood"),
    ("game.run_game", "signgame.game", "run_game"),
    ("game.run_iteration", "signgame.game", "run_iteration"),
    ("game.exchange", "signgame.game", "mh_exchange"),
    ("game.exchange", "signgame.game", "rejection_exchange"),
    ("game.exchange", "signgame.game", "gibbs_word"),
    ("metrics.adjusted_rand_index", "signgame.metrics", "adjusted_rand_index"),
    ("metrics.kappa", "signgame.metrics", "kappa"),
    ("experiment.run_full_grid", "signgame.experiment", "run_full_grid"),
    ("experiment.run_cell", "signgame.experiment", "run_cell"),
    ("experiment.run_trial", "signgame.experiment", "run_trial"),
    ("experiment.write_reports", "signgame.experiment", "write_reports"),
)

# Functions that run in the parent process of a ``jobs > 1`` run. Worker
# processes inherit any wrapper by fork but their spans would be lost, so a
# parallel run is traced with these alone.
PARENT_SIDE = ("experiment.run_full_grid", "experiment.run_cell", "experiment.write_reports")


def span_summary(names, name_of, parent, start, end) -> dict:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children. Spans come from one thread, so children never overlap and
    their durations add up to the part of the parent they cover.
    """
    name_of = np.asarray(name_of, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    own = dur - covered
    k = len(names)
    calls = np.bincount(name_of, minlength=k)
    total = np.bincount(name_of, weights=dur, minlength=k)
    self_s = np.bincount(name_of, weights=own, minlength=k)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(names)
    }


class Tracer:
    """Records spans (name, start, end, parent) and named counts in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.counts: dict[str, int] = {}
        self._ids: dict[str, int] = {}
        self._name_of = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._open: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn):
        """Return fn timed as a span called name."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_of, parent, start, end, open_ = self._name_of, self._parent, self._start, self._end, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(open_[-1] if open_ else -1)
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        return span_summary(self.names, self._name_of, self._parent, self._start, self._end)


def _signgame_modules():
    return [mod for name, mod in list(sys.modules.items()) if name == "signgame" or name.startswith("signgame.")]


class Rebinder:
    """Replaces objects wherever a signgame module refers to them; undoes it on exit."""

    def __init__(self):
        self._undo: list[tuple] = []

    def replace(self, module: str, attr: str, make) -> bool:
        """Rebind module.attr (``Class.method`` allowed) to make(original).

        Returns False, changing nothing, when the name does not exist.
        """
        owner = sys.modules.get(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            return False
        new = make(original)
        if path:
            self._set(owner, leaf, new)
            return True
        for mod in _signgame_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, new)
        return True

    def _set(self, owner, key, new) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _count_sign_changes(tracer: Tracer, run_iteration):
    """Counts listener sign changes and proposals around each iteration.

    Every object gets one proposal per speaker per exchanging iteration;
    the joint ``gibbs`` pass makes none. Counting by the protocol rather
    than by calls keeps the ratio fixed when the exchange is vectorized.
    """

    def counted(state, *args, **kwargs):
        before_a, before_b = state.agent_a.signs.copy(), state.agent_b.signs.copy()
        out = run_iteration(state, *args, **kwargs)
        if getattr(state.mode, "value", state.mode) != "gibbs":
            tracer.count("game.sign_proposals", before_a.size + before_b.size)
            tracer.count(
                "game.sign_changes",
                int(np.count_nonzero(before_a != state.agent_a.signs) + np.count_nonzero(before_b != state.agent_b.signs)),
            )
        return out

    return counted


def _count_pools(tracer: Tracer, executor):
    class CountedPool(executor):
        def __init__(self, *args, **kwargs):
            tracer.count("experiment.pools_started")
            super().__init__(*args, **kwargs)

    return CountedPool


def install(rebinder: Rebinder, tracer: Tracer, parent_side_only: bool = False) -> list[str]:
    """Wrap the traced functions; returns the span names that could not be found."""
    found: dict[str, bool] = {}
    for name, module, attr in TRACED:
        if parent_side_only and name not in PARENT_SIDE:
            continue
        ok = rebinder.replace(module, attr, lambda fn, name=name: tracer.wrap(name, fn))
        found[name] = found.get(name, False) or ok
    if not parent_side_only:
        found["game.sign_change_ratio"] = rebinder.replace(
            "signgame.game", "run_iteration", lambda fn: _count_sign_changes(tracer, fn)
        )
    found["experiment.pools_started"] = rebinder.replace(
        "signgame.experiment", "ProcessPoolExecutor", lambda cls: _count_pools(tracer, cls)
    )
    return sorted(name for name, ok in found.items() if not ok)
