"""Run one tcmsim CLI invocation with spans around each module's entry points.

Usage: python trace_child.py SPANS_JSON CLI_ARG...

The package itself is not modified.  Each entry point is replaced where
its callers look it up: module-level functions in every tcmsim module that
holds a reference to them (``from .x import f`` copies the reference), and
methods and constructors on their class.  Spans (name, start, end, parent,
error) stay in memory and are written once, after the CLI returns,
together with size counts read from the objects the entry points build.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index, error]
        self._stack = []
        self.counts = {
            "fock_field.window_size": 0,
            "symmetric.multisets": 0,
            "closed_form.literal_xs_from_stats.elements": 0,
            "closed_form.consistent_configs": 0,
            "oracle.sectors": 0,
            "oracle.max_sector_dim": 0,
            "oracle.sector_dim_sq_sum": 0,
        }

    def wrap(self, name, fn, after=None, failed=None):
        """Wrap fn in a span; after(args, result) records counts and
        failed(result) marks a span that returned a failure."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if failed is not None and failed(result):
                record[4] = True
            if after is not None:
                after(args, result)
            return result

        return traced


def _replace_function(modules, qualname, tracer, after=None):
    """Wrap a module-level function in every module that references it."""
    module_name, _, attr = qualname.partition(".")
    home = modules.get(f"tcmsim.{module_name}")
    fn = getattr(home, attr, None)
    if fn is None:
        return
    wrapped = tracer.wrap(qualname, fn, after=after)
    for module in modules.values():
        for key, value in list(vars(module).items()):
            if value is fn:
                setattr(module, key, wrapped)


def _replace_method(modules, qualname, tracer, after=None):
    """Wrap Class.method, or the constructor when qualname names the class."""
    parts = qualname.split(".")
    cls = getattr(modules.get(f"tcmsim.{parts[0]}"), parts[1], None)
    if cls is None:
        return
    attr = parts[2] if len(parts) > 2 else "__init__"
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(qualname, raw.__func__, after=after)))
    else:
        setattr(cls, attr, tracer.wrap(qualname, raw, after=after))


def install(tracer: Tracer):
    """Wrap the entry points named in the benchmark's per-layer metrics."""
    import tcmsim.cli  # noqa: F401  (loads every tcmsim module)

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "tcmsim" or name.startswith("tcmsim.")}
    counts = tracer.counts

    def window(args, field):
        counts["fock_field.window_size"] = max(counts["fock_field.window_size"],
                                               field.window.size)

    def elements(args, result):
        counts["closed_form.literal_xs_from_stats.elements"] += len(args[2]["Sn"])

    def configs(args, result):
        counts["closed_form.consistent_configs"] += len(args[0].configs)

    def multisets(args, result):
        ev = args[0]
        counts["symmetric.multisets"] += math.comb(ev.n_values + ev.mode_count - 1,
                                                   ev.mode_count)

    def sectors(args, result):
        dims = [s.basis.dim for s in args[0].sectors]
        counts["oracle.sectors"] += len(dims)
        counts["oracle.max_sector_dim"] = max([counts["oracle.max_sector_dim"], *dims])
        counts["oracle.sector_dim_sq_sum"] += sum(d * d for d in dims)

    for qualname, after in (
            ("analysis.mode_sweep", None),
            ("analysis.deviation_report", None),
            ("pipeline.compute_observables", None),
            ("pipeline.oracle_series", None),
            ("pipeline.observables_from_density", None),
            ("fock_field.coherent_field", window),
            ("closed_form.assemble", None),
            ("closed_form.literal_xs_from_stats", elements),
            ("reduced_density.partial_trace", None),
            ("entanglement.concurrence", None),
            ("entanglement.eof", None),
            ("oracle.rho_atom_exact", None)):
        _replace_function(modules, qualname, tracer, after)

    for qualname, after in (
            ("closed_form.ConsistentBlocks", configs),
            ("closed_form.ConsistentBlocks.fill", None),
            ("symmetric.SymmetricLiteralEvaluator", multisets),
            ("symmetric.SymmetricLiteralEvaluator.raw_densities", None),
            ("reduced_density.TwoAtomDensity.from_unnormalized", None),
            ("oracle.ExactEvolver", sectors),
            ("oracle.ExactEvolver.state_at", None),
            ("oracle.OracleState.total_norm", None)):
        _replace_method(modules, qualname, tracer, after)

    return tracer.wrap("cli.main", modules["tcmsim.cli"].main,
                       failed=lambda code: code != 0)


def main() -> int:
    out_path, cli_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli_main = install(tracer)
    code = cli_main(cli_args)
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(out_path, "w") as fh:
        json.dump({"names": names,
                   "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in tracer.spans],
                   "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
