"""Run the cogarq CLI in this process with every layer's public functions wrapped.

Usage: python3 traced.py TRACE_JSON CONFIG [CLI OPTIONS...]

Each module of the package is one layer.  Coarse calls (a sweep point, a
region estimate, a solve, a simulator run) are kept as spans: name, layer,
start, end and parent.  Per-slot calls (graph updates, protocol decisions,
belief updates, the invariant checker) are only counted and timed per
enclosing span, so memory stays bounded however many slots are run.  A
function is re-bound in every module that imported it by name, so a call
is recorded whichever module makes it.  Self time, a call's duration minus
that of the wrapped calls inside it, is summed per layer.  The whole
process, imports included, is one root span of the `cli` layer, so the
layers' self times add up to the process's wall time.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

LAYERS = (
    "channel", "mdp", "virtual_state", "pu_system", "pu_tracker",
    "cd_graph", "cd_protocol", "simulator", "cli",
)
# Recorded one span per call; every other wrapped function is aggregated.
SPANS = {
    "cli.main", "cli.load_config", "cli.run_experiment", "cli._sweep_point",
    "channel.optimize_rate", "channel.region_probabilities",
    "channel.classify_su_outcomes", "channel.draw_gain_arrays",
    "mdp.enumerate_space", "mdp.build_kernel", "mdp.evaluate_policy",
    "mdp.solve_constrained", "simulator.run", "simulator.check_trace_invariants",
}
# The label constructors run several times per slot and cost less than a
# wrapper would; their time stays with the calling layer.
SKIP = {"cd_graph.su", "cd_graph.pu"}
# Public methods wrapped on their class, beside the functions in __all__.
METHODS = (("pu_system", "PuConfig", "transmit_prob"),
           ("simulator", "TraceInvariantChecker", "feed"))
EXTRA = (("cli", "_sweep_point"),)  # the unit of a sweep point
# Per-slot calls whose durations are sampled for a median.
SAMPLED = {"cd_graph.record_slot", "simulator.TraceInvariantChecker.feed"}


class Sampler:
    """Every stride-th value; the stride doubles whenever `cap` are held."""

    def __init__(self, cap: int = 4096):
        self.values: list[float] = []
        self.cap = cap
        self.stride = 1
        self.n = 0

    def add(self, v: float):
        self.n += 1
        if self.n % self.stride == 0:
            self.values.append(v)
            if len(self.values) >= self.cap:
                self.values = self.values[1::2]
                self.stride *= 2


def _graph_size(counters, args, result):
    g = args[0]
    counters["max_nodes"] = max(counters["max_nodes"], len(g.su_nodes) + len(g.pu_nodes))
    counters["max_edges"] = max(counters["max_edges"], g.edge_count())


def _root_retx(counters, args, result):
    counters["root_retx"] += result.kind == "ROOT_RETX"


def _summer(key):
    def hook(counters, args, result):
        counters[key] += result
    return hook


HOOKS = {
    "cd_graph.record_slot": _graph_size,
    "cd_graph.prune_unreachable": _summer("discarded_su"),
    "cd_protocol.select_label": _root_retx,
    "cd_protocol.on_new_cycle": _summer("trimmed_su"),
}
DESCRIBE = {
    "simulator.run": lambda args, kw, res: {"scheme": args[0].value, "n_slots": args[4]},
    "mdp.enumerate_space": lambda args, kw, res: {
        "states": res.n, "reachable": int(res.reachable.sum())},
}


class Tracer:
    def __init__(self, t0: float):
        self.t0 = t0
        self.spans = [{"name": "cli.process", "layer": "cli", "parent": None, "start": 0.0}]
        self.stack = [[0.0, 0]]  # per active call: [time in wrapped children, span index]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.aggs: dict[str, dict] = {}  # name -> {span index: [calls, total s]}
        self.samples: dict[str, Sampler] = {}
        self.counters = defaultdict(int)

    def span(self, fn, name, layer):
        spans, stack, self_s, t0 = self.spans, self.stack, self.self_s, self.t0
        describe = DESCRIBE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "layer": layer, "parent": stack[-1][1]}
            frame = [0.0, len(spans)]
            spans.append(rec)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[0]
                stack[-1][0] += dur
                rec["start"], rec["end"] = start - t0, end - t0
            if describe is not None:
                rec.update(describe(args, kwargs, result))
            return result

        return wrapper

    def agg(self, fn, name, layer):
        stack, self_s, counters = self.stack, self.self_s, self.counters
        per_span = self.aggs.setdefault(name, {})
        sampler = self.samples.setdefault(name, Sampler()) if name in SAMPLED else None
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self_s[layer] += dur - frame[0]
                parent[0] += dur
                acc = per_span.get(parent[1])
                if acc is None:
                    per_span[parent[1]] = [1, dur]
                else:
                    acc[0] += 1
                    acc[1] += dur
                if sampler is not None:
                    sampler.add(dur)
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def wrap(self, fn, name, layer):
        return (self.span if name in SPANS else self.agg)(fn, name, layer)

    def install(self):
        modules = {layer: importlib.import_module(f"cogarq.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            names = list(getattr(mod, "__all__", ())) + [n for m, n in EXTRA if m == layer]
            for attr in names:
                fn = getattr(mod, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and name not in SKIP:
                    wrapped[fn] = self.wrap(fn, name, layer)
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self.wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}", layer))

    def close(self):
        end = time.perf_counter() - self.t0
        root = self.spans[0]
        root["end"] = end
        self.self_s["cli"] += end - self.stack[0][0]

    def dump(self, path: str):
        data = {
            "self_s": self.self_s,
            "spans": self.spans,
            "aggs": {name: {str(k): v for k, v in per.items()} for name, per in self.aggs.items()},
            "samples": {name: s.values for name, s in self.samples.items()},
            "counters": dict(self.counters),
        }
        with open(path, "w") as fh:
            json.dump(data, fh)


def main(argv: list[str]) -> int:
    trace_path, rest = argv[0], argv[1:]
    tracer = Tracer(T0)
    tracer.install()
    from cogarq import cli

    code = cli.main(rest)
    tracer.close()
    tracer.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
