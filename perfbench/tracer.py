"""Spans around every public pbw function, recorded from outside the package.

`Tracer.install` replaces each function listed in a pbw module's `__all__`
by a wrapper, in every pbw namespace that binds it (so `normalize` is
wrapped in `normalizer`, `holonomy`, `cli` and the package alike), and
wraps `TensorElement.__init__` on the class as `tensor.construct`.  A
wrapper records a span only while `Tracer.item` is set, so set-up, input
generation and the correctness gates stay out of the trace.

A span is (name, item id, parent span, start, end).  Spans are appended to
flat arrays in call order, kept in memory, and written out once with
`write`: a JSON header `<stem>.json` plus the five arrays back to back in
`<stem>.bin`.  A layer's self time is its span's duration minus the
durations of its child spans; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from collections import defaultdict
from pathlib import Path

FIELDS = (("name", "H"), ("item", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))
SETUP_ITEM = -1


class Tracer:
    def __init__(self):
        self.item: int | None = None
        self.names: list[str] = []
        self.spans = {field: array(code) for field, code in FIELDS}
        self.terms_peak = 0        # largest TensorElement built
        self.add_terms = 0         # operand terms summed over tensor.add calls
        self.remainder_peak = 0    # largest holonomy remainder after a step
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every pbw module, in every namespace."""
        modules = [package] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(package.__name__ + ".")]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, fn in sorted(vars(mod).items()):
                if not isinstance(fn, types.FunctionType):
                    continue
                home = sys.modules.get(fn.__module__)
                if home not in modules or fn.__name__ not in getattr(home, "__all__", ()):
                    continue
                if id(fn) not in wrappers:
                    layer = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrappers[id(fn)] = self._wrap(layer, fn, self._observer(layer))
                self._patch(mod, attr, wrappers[id(fn)])
        cls = package.tensor.TensorElement
        construct = self._wrap("tensor.construct", cls.__init__, self._see_element)
        self._patch(cls, "__init__", construct)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _observer(self, layer: str):
        return {"tensor.add": self._see_add,
                "holonomy.transport_step": self._see_step}.get(layer)

    def _see_element(self, args, result) -> None:
        self.terms_peak = max(self.terms_peak, len(args[0].terms))

    def _see_add(self, args, result) -> None:
        self.add_terms += len(args[0].terms) + len(args[1].terms)

    def _see_step(self, args, result) -> None:
        self.remainder_peak = max(self.remainder_peak, len(result.remainder.terms))

    def _wrap(self, layer: str, fn, observe):
        name_id = len(self.names)
        self.names.append(layer)
        s = self.spans
        names, items, parents, starts, ends = (s[f] for f, _ in FIELDS)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            item = tracer.item
            if item is None:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(name_id)
            items.append(item)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return span

    # -- output ---------------------------------------------------------------

    def write(self, stem: Path, meta: dict) -> None:
        stem.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.spans["start"]),
                  "fields": [list(f) for f in FIELDS], "byteorder": sys.byteorder, **meta}
        stem.with_suffix(".json").write_text(json.dumps(header, sort_keys=True) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as f:
            for field, _ in FIELDS:
                self.spans[field].tofile(f)

    def layers(self) -> dict[str, dict[str, float]]:
        return aggregate(self.names, self.spans)


def load(stem: Path) -> tuple[list[str], dict[str, array]]:
    """Read back what `Tracer.write` wrote."""
    header = json.loads(stem.with_suffix(".json").read_text())
    spans = {}
    with open(stem.with_suffix(".bin"), "rb") as f:
        for field, code in header["fields"]:
            arr = array(code)
            arr.fromfile(f, header["spans"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            spans[field] = arr
    return header["names"], spans


def aggregate(names: list[str], spans: dict[str, array]) -> dict[str, dict[str, float]]:
    """Per layer: calls and self time inside items, and the same for set-up
    (spans with item SETUP_ITEM) under the keys setup_calls / setup_self_s."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    own = array("d", (e - s for s, e in zip(start, end)))
    for idx, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[idx] - start[idx]
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "setup_calls": 0, "setup_self_s": 0.0})
    for name_id, item, t in zip(spans["name"], spans["item"], own):
        stats = out[names[name_id]]
        if item == SETUP_ITEM:
            stats["setup_calls"] += 1
            stats["setup_self_s"] += t
        else:
            stats["calls"] += 1
            stats["self_s"] += t
    return out
