"""Outside-in span tracing of the grouprobe modules.

The tracer replaces public functions and methods of the program with thin
wrappers, so no file of the program changes.  A function is replaced under
every name a grouprobe module binds it to, because a caller looks the name
up in its own module: `optim.train` calls `sgd_step` through
`grouprobe.optim.sgd_step`, and `multitask_loss` calls `end_loss` through
`grouprobe.objectives.end_loss`.

Each span has a trace id, its own id, its parent's id, a name, and start
and end times.  One trace id covers one (cell, seed) training run or one
CLI command; spans outside any run carry trace id 0.  Spans stay in memory
and are written out after the timed region.  A layer's self time is the
duration of its spans minus the part their child spans cover.

A layer whose attribute no longer exists is skipped and reported as
missing, so a renamed function shows up as lost coverage (the parent's self
time grows, or the uncovered time does) rather than as an error.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (layer, module, attribute).  Several attributes may feed one layer.
FUNCTION_LAYERS = [
    ("synthgen.LabeledDataset.take", "grouprobe.synthgen", "LabeledDataset.take"),
    ("synthgen.AuxDataset.take", "grouprobe.synthgen", "AuxDataset.take"),
    ("synthgen.sample", "grouprobe.synthgen", "sample_group_dataset"),
    ("synthgen.sample", "grouprobe.synthgen", "make_balanced_test"),
    ("synthgen.sample", "grouprobe.synthgen", "noise_dataset"),
    ("synthgen.io.write", "grouprobe.synthgen", "LabeledDataset.to_csv"),
    ("synthgen.io.write", "grouprobe.synthgen", "LabeledDataset.to_npz"),
    ("synthgen.io.read", "grouprobe.synthgen", "LabeledDataset.from_csv"),
    ("synthgen.io.read", "grouprobe.synthgen", "LabeledDataset.from_npz"),
    ("optim.sgd_step", "grouprobe.optim", "sgd_step"),
    ("optim.train", "grouprobe.optim", "train"),
    ("linmodel.project_l1", "grouprobe.linmodel", "project_l1"),
    ("linmodel.rescale_l1", "grouprobe.linmodel", "rescale_l1"),
    ("linmodel.normalize_frobenius", "grouprobe.linmodel", "normalize_frobenius"),
    ("linmodel.ModelParams.feasible", "grouprobe.linmodel", "ModelParams.feasible"),
    ("linmodel.ModelParams.copy", "grouprobe.linmodel", "ModelParams.copy"),
    ("objectives.end_loss", "grouprobe.objectives", "end_loss"),
    ("objectives.recon_loss", "grouprobe.objectives", "recon_loss"),
    ("objectives.multitask_loss", "grouprobe.objectives", "multitask_loss"),
    ("objectives.activation_l1_penalty", "grouprobe.objectives", "activation_l1_penalty"),
    ("baselines.train_erm", "grouprobe.baselines", "train_erm"),
    ("baselines.train_jtt", "grouprobe.baselines", "train_jtt"),
    ("baselines.train_group_dro", "grouprobe.baselines", "train_group_dro"),
    ("baselines.train_reg_mtl", "grouprobe.baselines", "train_reg_mtl"),
    ("baselines.train_aux_only", "grouprobe.baselines", "train_aux_only"),
    ("evalsel.evaluate", "grouprobe.evalsel", "evaluate"),
    ("evalsel.select_checkpoint", "grouprobe.evalsel", "select_checkpoint"),
    ("evalsel.pareto_front", "grouprobe.evalsel", "pareto_front"),
    ("experiments.run_experiment", "grouprobe.experiments", "run_experiment"),
    ("experiments.run_sweep", "grouprobe.experiments", "run_sweep"),
    ("experiments.run_cell", "grouprobe.experiments", "_run_cell"),
    ("experiments.artifact_write", "grouprobe.experiments", "atomic_write_text"),
    ("experiments.artifact_write", "grouprobe.experiments", "atomic_via_tmp"),
    ("oracle.finite_diff_param_grads", "grouprobe.oracle", "finite_diff_param_grads"),
    ("oracle.normal_cdf_inv", "grouprobe.oracle", "normal_cdf_inv"),
]

# Generators whose every `next` is a span.
GENERATOR_LAYERS = [
    ("optim.heterogeneous_batches.next", "grouprobe.optim", "heterogeneous_batches"),
]

# A call to one of these starts a new trace id unless a run is already open.
RUN_BOUNDARIES = {
    "experiments.run_cell", "baselines.train_erm", "baselines.train_jtt",
    "baselines.train_group_dro", "baselines.train_reg_mtl", "baselines.train_aux_only",
}

# Layers whose first positional argument (after self for methods) is a
# path whose size after the call counts as bytes written.
_BYTES_OF_ARG = {"experiments.artifact_write": 0, "synthgen.io.write": 1}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # layer -> [calls, self_ns, total_ns]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, span_id, parent_id, start_ns, child_ns]
        self._next_span = 1
        self._trace_id = 0
        self._next_trace = 1
        self.root_ns = 0  # time covered by top-level spans since reset_root

    # -- recording ---------------------------------------------------------

    def enter(self, name: str, new_trace: bool = False) -> bool:
        opened = False
        if new_trace and self._trace_id == 0:
            self._trace_id = self._next_trace
            self._next_trace += 1
            opened = True
        parent = self._stack[-1][1] if self._stack else 0
        self._stack.append([name, self._next_span, parent, time.perf_counter_ns(), 0])
        self._next_span += 1
        return opened

    def exit(self, closes_trace: bool = False) -> None:
        end = time.perf_counter_ns()
        name, span_id, parent, start, child = self._stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0]
        st[0] += 1
        st[1] += dur - child
        st[2] += dur
        if self._stack:
            self._stack[-1][4] += dur
        else:
            self.root_ns += dur
        self.spans.append((self._trace_id, span_id, parent, name, start, end))
        if closes_trace:
            self._trace_id = 0

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, new_trace: bool = False):
        return _Span(self, name, new_trace)

    def reset_root(self) -> None:
        """Start measuring top-level span coverage from now on."""
        self.root_ns = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed layer that exists in the imported program."""
        for layer, modname, attr in FUNCTION_LAYERS:
            self._wrap(layer, modname, attr, self._function_wrapper)
        for layer, modname, attr in GENERATOR_LAYERS:
            self._wrap(layer, modname, attr, self._generator_wrapper)

    def _wrap(self, layer, modname, attr, make) -> None:
        try:
            mod = importlib.import_module(modname)
        except ImportError:
            self.missing.append(f"{modname}.{attr}")
            return
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        if owner is None or leaf not in vars(owner):
            self.missing.append(f"{modname}.{attr}")
            return
        raw = vars(owner)[leaf]
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(make(layer, raw.__func__)))
            return
        wrapper = make(layer, raw)
        if owner_name:
            setattr(owner, leaf, wrapper)
            return
        # rebind the function under every name a grouprobe module gives it
        for m in list(sys.modules.values()):
            if m is None or not getattr(m, "__name__", "").startswith("grouprobe"):
                continue
            for key, value in list(vars(m).items()):
                if value is raw:
                    setattr(m, key, wrapper)

    def _function_wrapper(self, layer: str, fn):
        tracer = self
        new_trace = layer in RUN_BOUNDARIES
        path_arg = _BYTES_OF_ARG.get(layer)
        project = layer == "linmodel.project_l1"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = tracer.enter(layer, new_trace)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(opened)
                if path_arg is not None and len(args) > path_arg:
                    try:
                        tracer.count(layer + ".bytes", os.path.getsize(args[path_arg]))
                    except OSError:
                        pass
                if project:
                    v, tau = args[0], args[1] if len(args) > 1 else kwargs["tau"]
                    tracer.count("linmodel.project_l1.active", float(abs(v).sum()) > tau)

        return wrapper

    def _generator_wrapper(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(layer + ".iterators")
            return _TimedIterator(tracer, layer, fn(*args, **kwargs))

        return wrapper


class _Span:
    __slots__ = ("tracer", "name", "new_trace", "opened")

    def __init__(self, tracer, name, new_trace):
        self.tracer, self.name, self.new_trace = tracer, name, new_trace

    def __enter__(self):
        self.opened = self.tracer.enter(self.name, self.new_trace)
        return self

    def __exit__(self, *exc):
        self.tracer.exit(self.opened)
        return False


class _TimedIterator:
    """Iterator over a generator that records each successful `next` as a span.

    The final, exhausted `next` is not recorded; its time stays with the
    caller's self time.
    """

    def __init__(self, tracer, layer, gen):
        self.tracer, self.layer, self.gen = tracer, layer, gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        tracer.enter(self.layer)
        try:
            item = next(self.gen)
        except StopIteration:
            tracer._stack.pop()
            raise
        except BaseException:
            tracer.exit()
            raise
        tracer.exit()
        return item


def write_spans(spans, path) -> None:
    """Write spans as CSV: trace_id,span_id,parent_id,name,start_ns,end_ns."""
    with open(path, "w") as fh:
        fh.write("trace_id,span_id,parent_id,name,start_ns,end_ns\n")
        for s in spans:
            fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]}\n")
