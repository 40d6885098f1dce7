"""Span tracer that wraps pinlab's public functions from outside the package.

``Tracer.install`` replaces every public function of the pinlab modules, at
every place its name can be looked up (module attributes, names imported by
value into other modules, the ``QuenchedSystem`` methods on the class, and
the per-check entries ``theorems.run_check`` dispatches to) with a wrapper
that records one span per call.  ``uninstall`` puts every original object
back.  Nothing under ``src/`` is edited.

A span is ``[name, start, end, parent, run_id]`` with perf_counter times and
``parent`` the index of the enclosing span (-1 for none).  Spans stay in
memory; the caller writes them out when the run ends.  The tracer assumes
one thread, which is what the benchmark runs (``threads = 1``).

Work counters are taken from call arguments; ``terms`` is the nominal dense
work computed from sizes, not a count of executed operations.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
import types

MODULES = ("numerics", "model", "quenched", "oracle", "disorder_mc",
           "theorems", "config", "outputs", "cli")

# kernels that get a nominal work count (terms) and ns_per_term
KERNELS = ("quenched.init", "quenched.cumulants", "quenched.contact_law",
           "quenched.max_excursion_cdf", "quenched.two_replica_avoidance_log",
           "disorder_mc.sample_log_z", "disorder_mc.sample_cumulants",
           "disorder_mc.sample_kappa1_path")

WRAPPED_MARK = "__perfbench_original__"


def _tri(n: int) -> int:
    """n(n+1)/2: terms of one dense prefix DP of size n."""
    return n * (n + 1) // 2


def _sq_sum(n: int) -> int:
    """sum_{k<=n} k^2, about n^3/3: a k-by-k step for every k <= n."""
    return n * (n + 1) * (2 * n + 1) // 6


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []   # (owner, key, original, is_item)
        self._systems: set = set()
        self._samples: set = set()
        self._sigs: dict = {}

    def new_run(self):
        """Start a new run id with fresh counters and repeat bookkeeping."""
        self.run_id += 1
        self.counters = {}
        self._systems = set()
        self._samples = set()

    # -- recording -------------------------------------------------------

    def _add(self, key: str, value: float):
        self.counters[key] = self.counters.get(key, 0) + value

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.run_id])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, label: str, fn):
        count = self._counter_for(label, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args, kwargs)
            idx = tracer.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        setattr(traced, WRAPPED_MARK, fn)
        return traced

    # -- counters from call arguments ---------------------------------------

    def _bind(self, fn, args, kwargs) -> dict:
        sig = self._sigs.get(fn)
        if sig is None:
            sig = self._sigs[fn] = inspect.signature(fn)
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _counter_for(self, label: str, fn):
        def terms(value):
            self._add(label + ".terms", value)

        def sampled(cfg, h, n, width):
            self._add("disorder_mc.sample_evals", cfg.samples)
            for i in range(cfg.samples):
                key = (float(h), int(n), int(cfg.master_seed), i)
                if key in self._samples:
                    self._add("disorder_mc.sample_repeats", 1)
                else:
                    self._samples.add(key)
            terms(cfg.samples * _tri(int(n)) * width)

        def on_init(a):
            import numpy as np
            n, omega = int(a["n"]), a["omega"]
            if omega is None:
                digest = "zeros"
            else:
                om = np.asarray(getattr(omega, "omega", omega), dtype=float)
                digest = hashlib.sha1(
                    np.ascontiguousarray(om[:n]).tobytes()).hexdigest()
            key = (float(a["h"]), n, digest)
            self._add("quenched.builds", 1)
            if key in self._systems:
                self._add("quenched.build_repeats", 1)
            else:
                self._systems.add(key)
            terms(_tri(n))

        def on_excursion(a):
            n, m = a["self"].n, int(a["m"])
            terms(0 if m >= n else m * (m + 1) // 2 + (n - m) * m)

        by_label = {
            "quenched.init": on_init,
            "quenched.cumulants":
                lambda a: terms(_tri(a["self"].n) * (int(a["r_max"]) + 1)),
            "quenched.contact_law": lambda a: terms(_sq_sum(a["self"].n)),
            "quenched.max_excursion_cdf": on_excursion,
            "quenched.two_replica_avoidance_log":
                lambda a: terms(_sq_sum(int(a["window"]))),
            "disorder_mc.sample_log_z":
                lambda a: sampled(a["cfg"], a["h"], a["n"], 1),
            "disorder_mc.sample_cumulants":
                lambda a: sampled(a["cfg"], a["h"], a["n"],
                                  int(a["r_max"]) + 1),
            "disorder_mc.sample_kappa1_path":
                lambda a: sampled(a["cfg"], a["h"], a["n"], 2),
            "model.sample_disorder_block":
                lambda a: self._add("model.sample_disorder_block.rows",
                                    int(a["count"])),
            "outputs.atomic_write_text":
                lambda a: self._add("outputs.bytes",
                                    len(str(a["text"]).encode("utf-8"))),
        }
        hook = by_label.get(label)
        if hook is None:
            return None
        return lambda args, kwargs: hook(self._bind(fn, args, kwargs))

    # -- patching ----------------------------------------------------------

    def _set(self, owner, key, value, is_item: bool):
        if is_item:
            original = owner[key]
            owner[key] = value
        else:
            original = getattr(owner, key)
            setattr(owner, key, value)
        self._patched.append((owner, key, original, is_item))

    def install(self):
        """Wrap every public pinlab function wherever it can be looked up."""
        mods = {m: importlib.import_module(f"pinlab.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for name, value in vars(mod).items():
                if (isinstance(value, types.FunctionType)
                        and not name.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._wrap(f"{short}.{name}", value)
        owners = [importlib.import_module("pinlab"), *mods.values()]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._set(owner, name, wrappers[value], False)
        cls = mods["quenched"].QuenchedSystem
        for name, value in list(vars(cls).items()):
            if isinstance(value, types.FunctionType) and (
                    name == "__init__" or not name.startswith("_")):
                label = "quenched." + ("init" if name == "__init__" else name)
                self._set(cls, name, self._wrap(label, value), False)
        checks = mods["theorems"]._CHECKS
        for cid, fn in list(checks.items()):
            self._set(checks, cid, self._wrap(f"theorems.{cid}", fn), True)

    def uninstall(self):
        for owner, key, original, is_item in reversed(self._patched):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def unrestored(self) -> list[str]:
        """Names that do not hold their original object, or still hold a
        wrapper anywhere in pinlab; empty after a clean ``uninstall``."""
        bad = []
        for owner, key, original, is_item in self._patched:
            now = owner[key] if is_item else getattr(owner, key)
            if now is not original:
                bad.append(f"{getattr(owner, '__name__', 'checks')}.{key}")
        mods = [importlib.import_module("pinlab")] + [
            importlib.import_module(f"pinlab.{m}") for m in MODULES]
        quenched = importlib.import_module("pinlab.quenched")
        theorems = importlib.import_module("pinlab.theorems")
        places = [vars(m) for m in mods]
        places += [vars(quenched.QuenchedSystem), theorems._CHECKS]
        for place in places:
            for key, value in place.items():
                if hasattr(value, WRAPPED_MARK):
                    bad.append(f"wrapper left at {key}")
        return bad


# ---------------------------------------------------------------------------
# analysis of recorded spans (pure python)

def self_times(spans: list) -> list[float]:
    """Duration of each span minus the part its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def by_label(spans: list) -> dict[str, dict]:
    """calls, inclusive s (outermost occurrence only) and self_s per name."""
    selfs = self_times(spans)
    stats: dict[str, dict] = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[0], {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += selfs[i]
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        if p < 0:
            st["s"] += s[2] - s[1]
    return stats


def outermost_s(spans: list, prefix: str) -> float:
    """Inclusive time of spans named prefix* not nested in another one."""
    total = 0.0
    for s in spans:
        if not s[0].startswith(prefix):
            continue
        p = s[3]
        while p >= 0 and not spans[p][0].startswith(prefix):
            p = spans[p][3]
        if p < 0:
            total += s[2] - s[1]
    return total
