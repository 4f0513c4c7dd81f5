"""Outside-in span tracer for fedcast.

The tracer wraps public functions of each fedcast module at the name its
caller looks up (for example ``fedcast.federation.train_local``, which
``run_federated`` calls, or ``fedcast.nn.engine.matmul``, which
``nn.models`` reaches through ``eg.matmul``). Nothing inside ``src/`` knows
about it: wrappers are installed only for the duration of one traced run and
removed afterwards, so untraced runs execute the unmodified program.

A span is (run id, span id, parent span id, layer, name, start, end). Spans
are kept in memory and written out when the benchmark ends. A layer is the
module that defines the wrapped function, without the ``fedcast.`` prefix.
An engine op's backward pass is timed by swapping the returned tensor's
``_backward`` closure for a timed copy, so it shows up as a child span of
``Tensor.backward``.

Self time of a span is its duration minus the durations of its child spans
(the program is single-threaded, so children never overlap). The self times
of all layers plus the root span's own self time (``unattributed_s``) add up
to the traced run's wall time exactly.
"""

from __future__ import annotations

import csv
import functools
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from fedcast import cli, experiment, federation
from fedcast.nn import engine, models, params, training

ENGINE_OPS = (
    "matmul", "add", "sub", "mul", "square", "tanh", "sigmoid", "relu",
    "narrow", "reshape", "mean_all", "spatial_mean", "conv2d",
)

LAYERS = (
    "cli", "experiment", "synthetic", "dataio", "federation", "aggregation",
    "nn.training", "nn.models", "nn.params", "nn.engine", "metrics",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work counters recorded at a wrapped call: counter name -> value from
# (args, kwargs, result).
COUNTERS = {
    "dataio.load_csv": ("dataio.rows_read", lambda a, k, r: len(r)),
    "dataio.preprocess_clients": (
        "dataio.windows",
        lambda a, k, r: sum(c.train.count + c.validation.count + c.test.count
                            for c in r),
    ),
    "nn.training.evaluate": (
        "nn.training.evaluate_windows",
        lambda a, k, r: _arg(a, k, 2, "windows").count,
    ),
    "nn.models.predict": (
        "nn.models.predict_windows", lambda a, k, r: len(_arg(a, k, 2, "inputs"))
    ),
    "nn.params.serialize_params": ("nn.params.bytes_written", lambda a, k, r: len(r)),
    "aggregation.aggregate": (
        "aggregation.updates", lambda a, k, r: len(_arg(a, k, 3, "updates"))
    ),
    "federation.sample_clients": ("federation.sampled_clients", lambda a, k, r: len(r)),
    "federation.account_communication": (
        "federation.server_total_mb", lambda a, k, r: r.server_total_bytes / 1e6
    ),
}


def _call_sites():
    """(owner, attribute) pairs to wrap: every name a caller looks up."""
    sites = [(cli, n) for n in ("main", "load_config", "run_experiment")]
    sites += [(experiment, n) for n in (
        "run_experiment", "materialize_data", "generate_synthetic", "load_csv",
        "preprocess_clients", "run_federated", "run_centralized", "fine_tune", "account_communication", "predict", "evaluate_forecasts",
        "serialize_params",
    )]
    sites += [(federation, n) for n in (
        "train_local", "train_with_early_stopping", "evaluate", "aggregate",
        "sample_clients", "init_model", "concat_windows",
    )]
    sites += [(training, n) for n in (
        "loss_and_grad", "evaluate", "predict", "forward_graph", "leaf_tensors",
    )]
    sites += [(models, "forward_graph")]
    sites += [(engine.Tensor, "backward"), (params.ParameterVector, "view")]
    return sites


class Tracer:
    """Records spans of traced runs; one instance per benchmark process."""

    def __init__(self):
        # Finished spans: (run_id, span_id, parent_id, layer, name, start, end).
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.last_run_s = 0.0  # wall time of the last traced run
        self._stack: list[int] = []
        self._next_id = 0
        self._run_id = -1

    def _call(self, fn, layer: str, name: str, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((self._run_id, sid, parent, layer, name, start, end))
        counter = COUNTERS.get(name)
        if counter is not None:
            self.counts[self._run_id][counter[0]] += counter[1](args, kwargs, result)
        return result

    def _timed(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(fn, layer, name, args, kwargs)

        return wrapper

    def _engine_op(self, fn, name: str):
        bwd_name = name + ".bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self._call(fn, "nn.engine", name, args, kwargs)
            backward = out._backward
            if backward is not None:
                out._backward = lambda g: self._call(
                    backward, "nn.engine", bwd_name, (g,), {}
                )
            return out

        return wrapper

    @contextmanager
    def run(self, run_id: int):
        """Trace one workload run: install wrappers, open the root span.

        The root span has layer None; it is the run's wall time.
        """
        patched = []
        for owner, attr in _call_sites():
            original = getattr(owner, attr)
            layer = original.__module__.removeprefix("fedcast.")
            name = f"{layer}.{original.__name__}"
            patched.append((owner, attr, original))
            setattr(owner, attr, self._timed(original, layer, name))
        for op in ENGINE_OPS:
            original = getattr(engine, op)
            patched.append((engine, op, original))
            setattr(engine, op, self._engine_op(original, f"nn.engine.{op}"))
        self._run_id = run_id
        self._stack = [self._next_id]
        root = self._next_id
        self._next_id += 1
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.spans.append((run_id, root, None, None, "run", start, end))
            self.last_run_s = end - start
            self._stack = []
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every recorded span as CSV (times in seconds)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "span", "parent", "layer", "name", "start", "end"])
            writer.writerows(self.spans)

    def run_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer metrics of one traced run (see LAYERS.md for names)."""
        return layer_metrics([s for s in self.spans if s[0] == run_id],
                             self.counts[run_id])


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics from one run's spans and counters."""
    counts = defaultdict(float, counts)
    by_id = {s[1]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] += s[6] - s[5]
            children[s[2]].append(s)
    incl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    root = None
    for s in spans:
        own = (s[6] - s[5]) - child_time[s[1]]
        if s[3] is None:
            root = s
            continue
        incl[s[4]] += s[6] - s[5]
        calls[s[4]] += 1
        self_by_name[s[4]] += own
        self_by_layer[s[3]] += own

    m: dict[str, float] = {}
    m["traced_run_s"] = root[6] - root[5]
    m["unattributed_s"] = m["traced_run_s"] - child_time[root[1]]
    for layer, value in self_by_layer.items():
        m[f"{layer}.self_s"] = value

    m["synthetic.generate_s"] = incl["synthetic.generate_synthetic"]
    m["dataio.load_csv_s"] = incl["dataio.load_csv"]
    m["dataio.rows_read"] = counts["dataio.rows_read"]
    m["dataio.preprocess_s"] = incl["dataio.preprocess_clients"]
    m["dataio.windows"] = counts["dataio.windows"]

    bwd_total = 0.0
    for op in ENGINE_OPS:
        m[f"nn.engine.{op}.fwd_s"] = incl[f"nn.engine.{op}"]
        m[f"nn.engine.{op}.bwd_s"] = incl[f"nn.engine.{op}.bwd"]
        m[f"nn.engine.{op}.calls"] = calls[f"nn.engine.{op}"]
        bwd_total += incl[f"nn.engine.{op}.bwd"]
    m["nn.engine.backward_s"] = incl["nn.engine.backward"]
    m["nn.engine.backward_overhead_s"] = incl["nn.engine.backward"] - bwd_total

    m["nn.training.loss_and_grad_s"] = incl["nn.training.loss_and_grad"]
    m["nn.training.steps"] = calls["nn.training.loss_and_grad"]
    steps = _gaps(spans, children, by_id, "nn.training.loss_and_grad", to_parent_end=False)
    m["nn.training.step_ms.p50"] = 1e3 * statistics.median(steps) if steps else 0.0
    m["nn.training.train_local_s"] = incl["nn.training.train_local"]
    m["nn.training.train_with_early_stopping_s"] = incl["nn.training.train_with_early_stopping"]
    m["nn.training.evaluate_s"] = incl["nn.training.evaluate"]
    m["nn.training.evaluate_windows"] = counts["nn.training.evaluate_windows"]
    m["nn.training.loop_self_s"] = (self_by_name["nn.training.train_local"]
                                    + self_by_name["nn.training.train_with_early_stopping"])

    m["nn.models.predict_s"] = incl["nn.models.predict"]
    m["nn.models.predict_windows"] = counts["nn.models.predict_windows"]

    m["nn.params.serialize_s"] = incl["nn.params.serialize_params"]
    m["nn.params.bytes_written"] = counts["nn.params.bytes_written"]
    m["nn.params.view_calls"] = calls["nn.params.view"]
    m["nn.params.view_s"] = incl["nn.params.view"]

    m["aggregation.aggregate_s"] = incl["aggregation.aggregate"]
    m["aggregation.calls"] = calls["aggregation.aggregate"]
    m["aggregation.updates"] = counts["aggregation.updates"]

    rounds = _gaps(spans, children, by_id, "federation.sample_clients", to_parent_end=True)
    m["federation.round_s.p50"] = statistics.median(rounds) if rounds else 0.0
    m["federation.rounds"] = calls["federation.sample_clients"]
    m["federation.sampled_clients"] = counts["federation.sampled_clients"]
    m["federation.fine_tune_s"] = incl["federation.fine_tune"]
    m["federation.server_total_mb"] = counts["federation.server_total_mb"]

    m["metrics.evaluate_forecasts_s"] = incl["metrics.evaluate_forecasts"]
    m["experiment.load_config_s"] = incl["experiment.load_config"]
    return m


def _gaps(spans, children, by_id, name, to_parent_end):
    """Intervals between consecutive starts of `name` under one parent.

    A step runs from one loss_and_grad call to the next in the same training
    call; a round from one sample_clients call to the next in the same
    session, the last round ending with the session (to_parent_end).
    """
    gaps = []
    parents = {s[2] for s in spans if s[4] == name}
    for parent in parents:
        starts = sorted(s[5] for s in children[parent] if s[4] == name)
        if to_parent_end:
            starts.append(by_id[parent][6])
        gaps.extend(b - a for a, b in zip(starts, starts[1:]))
    return gaps
