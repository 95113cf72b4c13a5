"""Spans around the package's layer functions, installed from outside.

``install`` replaces each traced function in every loaded ``inclogic``
module that binds it, so calls between modules (``eval_fast`` calling
``max_subteam``, ``parse_script`` calling ``parse_formula``) are caught as
well as the benchmark's own calls.  Spans are kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function): the layers of the per-layer table.  For eval_fast and
# ind_implies the table's time is self time, so that the engine and the
# closure are not counted again inside max_subteam and find_counterexample.
LAYERS = (
    ("parser", "parse_formula"),
    ("models", "parse_model"),
    ("models", "parse_team"),
    ("semantics", "eval_fast"),
    ("semantics", "max_subteam"),
    ("semantics", "eval_naive"),
    ("normalform", "normal_form"),
    ("normalform", "render"),
    ("approx", "build_approx"),
    ("approx", "prefix_truth"),
    ("proofs.script", "parse_script"),
    ("proofs.script", "check_script"),
    ("inddep", "ind_implies"),
    ("inddep", "find_counterexample"),
)
SELF_TIMED = {"semantics.eval_fast", "inddep.ind_implies"}


def layer_name(module: str, func: str) -> str:
    return f"{module.split('.')[0]}.{func}"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id, ok)
        self.stack: list[int] = []
        self.active = False
        self.op = -1
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            ok = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.op, ok)
            tracer.measure(name, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def measure(self, name: str, out):
        if name == "normalform.normal_form":
            self.counts["normalform.nf_vars"] += len(out.w) + len(out.x)
        elif name == "approx.build_approx":
            self.counts["approx.prefix_len"] += len(out.prefix)

    def install(self):
        import importlib

        targets = {}
        for module, func in LAYERS:
            mod = importlib.import_module(f"inclogic.{module}")
            original = getattr(mod, func)
            targets[id(original)] = self.wrap(layer_name(module, func), original)
        for modname, mod in list(sys.modules.items()):
            if modname != "inclogic" and not modname.startswith("inclogic."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = targets.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)

    # -- results

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, total seconds, self seconds, failed calls."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {layer_name(m, f): {"calls": 0, "total": 0.0, "self": 0.0, "failed": 0}
                 for m, f in LAYERS}
        for i, (name, start, end, _, _, ok) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child_time[i]
            row["failed"] += not ok
        return table

    def metrics(self) -> dict[str, dict]:
        table = self.layer_table()
        out = {}
        for name, row in table.items():
            seconds = row["self"] if name in SELF_TIMED else row["total"]
            out[f"{name}.s"] = {"value": seconds, "unit": "s"}
            out[f"{name}.calls"] = {"value": row["calls"], "unit": "count"}
        pt = table["approx.prefix_truth"]
        out["normalform.nf_vars"] = {"value": self.counts["normalform.nf_vars"], "unit": "vars"}
        out["approx.prefix_len"] = {"value": self.counts["approx.prefix_len"], "unit": "vars"}
        out["approx.prefix_truth.guard_trips"] = {"value": pt["failed"], "unit": "count"}
        decided = (pt["calls"] - pt["failed"]) / pt["calls"] if pt["calls"] else 0.0
        out["approx.prefix_truth.decided_ratio"] = {"value": decided, "unit": "ratio"}
        return out

    def print_table(self, out=sys.stdout):
        table = self.layer_table()
        print(f"{'layer':34} {'calls':>9} {'total s':>10} {'self s':>10}", file=out)
        for name, row in table.items():
            print(f"{name:34} {row['calls']:9d} {row['total']:10.4f} {row['self']:10.4f}",
                  file=out)

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "ok"]) + "\n")
            for name, start, end, parent, op, ok in self.spans:
                fh.write(json.dumps([name, round(start - t0, 7), round(end - t0, 7),
                                     parent, op, ok]) + "\n")
