"""Layer tracer: spans around dqdsim's public functions, from outside src/.

Every traced function is replaced on every dqdsim module that binds it, not
only on the module that defines it: cli, greens and oracle import these
names directly, so patching the defining module alone would record nothing
for calls made through those bindings.

Spans (name, start, end, parent span, command id) stay in memory until the
benchmark writes them out. A span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) of every traced layer, named module.function.
LAYERS = (
    ("spectral", "build_kernel_table"),
    ("greens", "solve_dyson"),
    ("greens", "compute_fluctuation"),
    ("greens", "pole_expansion_lorentzian"),
    ("greens", "steady_state_fluctuation"),
    ("greens", "wbl_steady_fluctuation"),
    ("greens", "wbl_greens"),
    ("greens", "bm_fluctuation"),
    ("oracle", "discretize"),
    ("oracle", "exact_greens"),
    ("boundstate", "find_bound_states"),
    ("state", "propagator_coefficients"),
    ("state", "evolve_density"),
    ("entanglement", "fermionic_eof"),
    ("entanglement", "steady_state_eof"),
    ("cli", "main"),
)
LAYER_NAMES = tuple(f"{m}.{f}" for m, f in LAYERS)

# Work counters beyond calls and self time: layer -> (stat, unit).
EXTRA_STATS = {
    "spectral.build_kernel_table": ("rows", "count"),
    "greens.solve_dyson": ("steps", "count"),
    "boundstate.find_bound_states": ("roots", "count"),
    "greens.wbl_greens": ("useful_ratio", "ratio"),
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _owner(array):
    """The array that owns the memory of a numpy array or view."""
    return array if array.base is None else array.base


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, command id)
        self.command = 0
        self._open = []  # [span index, child time] of open spans
        self._patched = []  # (module, attribute, original)
        self.reset()

    def reset(self):
        """Start the counters of a new pass; spans are kept."""
        self.stats = {name: {"calls": 0, "self_s": 0.0} for name in LAYER_NAMES}
        for name, (stat, _) in EXTRA_STATS.items():
            self.stats[name][stat] = 0
        # id(owner of a wbl_greens V) -> [V array, reached the output]
        self._wbl_v = {}

    def _after(self, name, args, kwargs, out):
        st = self.stats[name]
        if name == "spectral.build_kernel_table":
            st["rows"] += len(_arg(args, kwargs, 1, "taus"))
        elif name == "greens.solve_dyson":
            st["steps"] += _arg(args, kwargs, 1, "grid").n_steps
        elif name == "boundstate.find_bound_states":
            st["roots"] += len(out)
        elif name == "greens.wbl_greens":
            v = _owner(out.v_seq)
            self._wbl_v[id(v)] = [v, False]
        elif name == "state.propagator_coefficients" and self._wbl_v:
            v = _arg(args, kwargs, 1, "v")
            entry = self._wbl_v.get(id(_owner(v))) if hasattr(v, "base") else None
            if entry is not None:
                entry[1] = True

    def _wrap(self, name, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1][0] if open_ else -1
            spans.append(None)
            frame = [index, 0.0]
            open_.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                if open_:
                    open_[-1][1] += end - start
                spans[index] = (name, start, end, parent, self.command)
                st = self.stats[name]
                st["calls"] += 1
                st["self_s"] += (end - start) - frame[1]
            self._after(name, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Replace every dqdsim binding of every layer function."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dqdsim" or n.startswith("dqdsim."))]
        for mod_name, fn_name in LAYERS:
            original = getattr(importlib.import_module(f"dqdsim.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def pass_stats(self) -> dict:
        """Flat layer.stat -> value of the pass since the last reset."""
        flat = {}
        for name in LAYER_NAMES:
            for stat, value in self.stats[name].items():
                if stat != "useful_ratio":
                    flat[f"{name}.{stat}"] = value
        calls = self.stats["greens.wbl_greens"]["calls"]
        useful = sum(1 for _, reached in self._wbl_v.values() if reached)
        flat["greens.wbl_greens.useful_ratio"] = useful / calls if calls else 0.0
        return flat

    def write_spans(self, path):
        """Tab-separated spans: index, name, start, end, parent, command."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tcommand\n")
            for i, (name, start, end, parent, cmd) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{cmd}\n")
