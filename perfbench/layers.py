"""Timing wrappers swapped in for the airfed functions the engine calls.

``protocol._run_engine`` and the scenario runners look every call up through
the module object at call time (``learner.sgd_user_iterations``,
``channel.draw_noise``, ...), so replacing a module attribute with a wrapper
times that layer without any change to the package.  Each wrapper keeps
self time (its duration minus the part covered by nested wrapped calls),
inclusive time, a call count and, where a count function is given, an exact
work count computed from the call's arguments.
"""

import inspect
import time
from collections import defaultdict

import numpy as np

# Clock points behind setup_s and iter_s: (module, attribute, group).  These
# are required; the benchmark fails when one is missing.
SETUP_POINTS = (("protocol", "load_run_data", "protocol.load_run_data"),
                ("protocol", "partition_for_run",
                 "protocol.partition_for_run"),
                ("protocol", "build_topology", "protocol.build_topology"))
ITER_POINT = ("learner", "evaluate", "learner.evaluate")


def _fading_work(a):
    M, K, N = np.size(a["betas"]), int(a["K"]), int(a["N"])
    normals = 0 if a.get("unit") else 2 * M * K * N
    return {"channel.normals": normals, "channel.tensor_bytes": M * K * N * 16}


def _noise_work(a):
    normals = 2 * int(a["K"]) * int(a["N"]) if a["sigma_z2"] > 0 else 0
    return {"channel.normals": normals}


# Optional layer wrappers: (module, attribute, group, work count function).
# A wrapper whose attribute is gone reports its metrics as absent.
LAYER_POINTS = (
    ("channel", "draw_channels_from_betas", "channel.draw", _fading_work),
    ("channel", "draw_noise", "channel.noise", _noise_work),
    ("channel", "uplink_and_combine", "channel.combine", None),
    ("channel", "pack_complex", "channel.pack_recover", None),
    ("channel", "unpack_complex", "channel.pack_recover", None),
    ("channel", "recover_cluster_update", "channel.pack_recover", None),
    ("learner", "sgd_user_iterations", "learner.sgd", None),
    ("learner", "loss_and_gradient", "learner.grad", None),
    ("learner", "make_synthetic", "learner.make_synthetic", None),
    ("learner", "partition_iid", "learner.partition", None),
    ("learner", "partition_noniid", "learner.partition", None),
    ("topology", "place_users", "topology.place_users", None),
    ("rng", "substream", "rng.substream", None),
    ("bounds", "lemma_variance_oracle", "bounds.oracle", None),
)


class ClockError(RuntimeError):
    """A clock point behind setup_s or iter_s is missing or was not hit."""


class Tracer:
    """Replaces module attributes by timing wrappers until ``restore``."""

    def __init__(self, modules):
        self.modules = modules
        self._saved = []
        self._stack = []            # child time accumulated per open call
        self.installed = set()     # groups with at least one wrapper
        self.missing = []
        self.uncounted = set()
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.returns = defaultdict(list)   # perf_counter at each return

    def wrap(self, module_name, attr, group, work=None):
        module = self.modules[module_name]
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return False
        sig = inspect.signature(fn) if work else None

        def timed(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                dur = t1 - t0
                child = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dur
                self.self_s[group] += dur - child
                self.total_s[group] += dur
                self.calls[group] += 1
                self.returns[group].append(t1)
                if work is not None:
                    self._count(work, sig, args, kwargs)

        setattr(module, attr, timed)
        self._saved.append((module, attr, fn))
        self.installed.add(group)
        return True

    def _count(self, work, sig, args, kwargs):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            done = work(bound.arguments)
        except (TypeError, KeyError, ValueError):
            # the signature changed: the count is no longer computable
            self.uncounted.add(work.__name__)
            return
        for key, n in done.items():
            self.counts[key] += n
            self.maxima[key] = max(self.maxima[key], n)

    def restore(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()


def clock_tracer(modules):
    """Tracer on the four clock points only; raises naming a missing one."""
    tracer = Tracer(modules)
    for mod, attr, group in SETUP_POINTS + (ITER_POINT,):
        if not tracer.wrap(mod, attr, group):
            tracer.restore()
            raise ClockError(f"clock point airfed.{mod}.{attr} is missing")
    return tracer


def layer_tracer(modules):
    """Tracer on the clock points plus every layer wrapper that exists."""
    tracer = clock_tracer(modules)
    for mod, attr, group, work in LAYER_POINTS:
        tracer.wrap(mod, attr, group, work)
    return tracer
