"""Spans around the calls into each spdcqkd module, for the traced run.

The wrappers are installed by module attribute from here; the program's
source is not edited.  Each wrapped call records its layer, start, end and
parent span in memory; `Tracer.layers` turns them into per-layer self time
(span time minus the time of its child spans), call counts and counters.

Per-term `StateVector` methods are not wrapped: table build makes thousands
of them per session, and their overhead would distort `config_sweep`.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _table_sizes(args, tables):
    return (("scenarios", len(tables.scen_cum)), ("groups", len(tables.grp_off)),
            ("rows", len(tables.row_cum)))


# (layer, module, attribute, counter).  A counter maps (args, result) of one
# call to (name, value) pairs; every byte count here is computed, not measured.
LAYERS = [
    ("kernels.sample_rounds", "_kernels", "sample_rounds",
     lambda args, res: (("rounds", args[0].shape[0]),)),
    ("protocol.uniform_block", "protocol", "_uniform_block",
     lambda args, res: (("bytes", 64 * args[2]),)),  # 8 float64 draws per round
    ("protocol.tally_update", "protocol", "_Tally.update", None),
    ("protocol.build_tables", "protocol", "_build_tables", _table_sizes),
    ("optics.joint_threshold_branches", "optics", "joint_threshold_branches", None),
    ("optics.qnd_count", "optics", "qnd_count", None),
    ("optics.rotate_polarization", "optics", "rotate_polarization", None),
    ("attack.split_channel", "attack", "split_channel", None),
    ("attack.attack_four_photon", "attack", "attack_four_photon", None),
    ("source.spdc_state", "source", "spdc_state", None),
    ("protocol.transcript_lines", "protocol", "_transcript_lines",
     lambda args, res: (("bytes", sum(map(len, res)) + len(res)),)),
    ("kernels.fnv1a64", "_kernels", "fnv1a64", lambda args, res: (("bytes", len(args[0])),)),
    ("protocol.run_session", "protocol", "run_session", None),
    ("protocol.parse_transcript", "protocol", "_parse_transcript", None),
    ("protocol.replay", "protocol", "replay",
     lambda args, res: (("bytes_read", os.path.getsize(args[1])),)),
]

# Hashing is split by the span that asked for it: the writer or the replay.
_SPLIT_BY_PARENT = {"kernels.fnv1a64": {"protocol.run_session": "writer",
                                        "protocol.replay": "replay"}}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.active = False
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._counts: list[tuple[int, str, float]] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, counter=None):
        nid = len(self.names)
        self.names.append(layer)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self._start)
            self._name.append(nid)
            self._parent.append(self._stack[-1] if self._stack else -1)
            self._end.append(0.0)
            self._stack.append(idx)
            self._start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[idx] = perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, result):
                    self._counts.append((idx, key, value))
            return result

        return traced

    def _label(self, i: int) -> str:
        name = self.names[self._name[i]]
        split = _SPLIT_BY_PARENT.get(name)
        if split is None:
            return name
        p = self._parent[i]
        while p >= 0:
            tag = split.get(self.names[self._name[p]])
            if tag:
                return f"{name}.{tag}"
            p = self._parent[p]
        return f"{name}.other"

    def layers(self) -> dict[str, dict[str, float]]:
        """Totals per layer: self_s, calls and every counter."""
        n = len(self._start)
        dur = [self._end[i] - self._start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self._parent[i] >= 0:
                child[self._parent[i]] += dur[i]
        labels = [self._label(i) for i in range(n)]
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            out[labels[i]]["self_s"] += dur[i] - child[i]
            out[labels[i]]["calls"] += 1
        for i, key, value in self._counts:
            out[labels[i]][key] += value
        return out


def _resolve(module: str, attr: str):
    """(owner, name, object) for 'module.attr' or 'module.Class.attr', or None."""
    try:
        owner = importlib.import_module(f"spdcqkd.{module}")
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    obj = getattr(owner, leaf, None) if owner is not None else None
    return None if obj is None else (owner, leaf, obj)


def install(tracer: Tracer):
    """Wrap every layer entry point; returns (restore, absent layer names).

    A module-level function is replaced in every spdcqkd module that bound
    it, so callers that imported it by name are traced too.
    """
    patches = []
    absent = []
    for layer, module, attr, counter in LAYERS:
        found = _resolve(module, attr)
        if found is None:
            absent.append(layer)
            continue
        owner, leaf, orig = found
        wrapper = tracer.wrap(layer, orig, counter)
        if isinstance(owner, type):
            targets = [(owner, leaf)]
        else:
            targets = [(mod, key) for name, mod in list(sys.modules.items())
                       if name == "spdcqkd" or name.startswith("spdcqkd.")
                       for key, value in list(vars(mod).items()) if value is orig]
        for target, key in targets:
            patches.append((target, key, orig))
            setattr(target, key, wrapper)

    def restore():
        for target, key, orig in reversed(patches):
            setattr(target, key, orig)

    return restore, absent
