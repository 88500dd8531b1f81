"""Per-layer call counts, self times and work counters for a traced pass.

The tracer wraps qtab's functions and kernel methods from outside the library.
A wrapped function is replaced in every ``qtab`` module that binds it, since
``from .qpoly import solve_linear_system`` copies the name into ``qtab.solver``
and patching only the defining module would record nothing.  Kernel methods
(``QPoly.__mul__`` and the like) are replaced on their class.

Each name maps to one aggregated ``Stat``: a call count and a self time, the
time inside the call minus the time of wrapped calls nested in it.  Work
counters are updated after the call returns, and their cost is charged to no
layer.  Generators are timed on every resume, so a lazy enumeration is charged
to the layer that produces the items, not to the one that consumes them.
"""

from __future__ import annotations

import inspect
import sys
import time
from typing import Callable, Iterator

import qtab
import qtab.cli
from qtab import distributions, extensions, paths, posets, ppartitions, qpoly, solver, togglebij


class Stat:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


def _coefficient_sum(poly: object) -> int:
    if isinstance(poly, qpoly.QTPoly):
        return sum(c for _, _, c in poly.terms)
    return sum(poly.coeffs)


class Tracer:
    """Installs the wrappers, collects the numbers and restores the originals."""

    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = [[0.0]]
        self._undo: list[tuple[object, str, object]] = []
        self._seen_posets: set[tuple[int, tuple]] = set()

    # -- wrapping ----------------------------------------------------------

    def _wrap(
        self,
        fn: Callable,
        name: str,
        before: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        perf = time.perf_counter
        timed = self._timed

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[0]
                stack[-1][0] += elapsed  # not the caller's self time
            if after is not None:
                counted = perf()
                after(result, args)
                stack[-1][0] += perf() - counted  # nobody's self time
            if inspect.isgenerator(result):
                return timed(result, stat)
            return result

        return wrapper

    def _timed(self, items: Iterator, stat: Stat) -> Iterator:
        stack = self._stack
        perf = time.perf_counter
        try:
            while True:
                frame = [0.0]
                stack.append(frame)
                start = perf()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    elapsed = perf() - start
                    stack.pop()
                    stat.self_s += elapsed - frame[0]
                    stack[-1][0] += elapsed
                yield item
        finally:
            items.close()

    def function(self, fn: Callable, name: str, **hooks: Callable) -> None:
        """Replace ``fn`` in every qtab module that binds it."""
        wrapper = self._wrap(fn, name, **hooks)
        bound = 0
        for module_name, module in list(sys.modules.items()):
            if module_name != "qtab" and not module_name.startswith("qtab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))
                    bound += 1
        if not bound:
            raise RuntimeError(f"{fn.__qualname__} is bound in no qtab module")

    def method(self, cls: type, attr: str, name: str, **hooks: Callable) -> None:
        """Replace a method on its class; classmethods keep their binding."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(raw.__func__, name, **hooks)))
        else:
            setattr(cls, attr, self._wrap(raw, name, **hooks))
        self._undo.append((cls, attr, raw))

    def module(self, mod: object, name: str) -> None:
        """Wrap every public function defined in ``mod`` under one name."""
        for attr, value in list(vars(mod).items()):
            if (
                inspect.isfunction(value)
                and value.__module__ == mod.__name__
                and not attr.startswith("_")
            ):
                self.function(value, name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- counters ----------------------------------------------------------

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _max(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def _after_mul(self, result: qpoly.QPoly, args: tuple) -> None:
        if result is NotImplemented:  # Python retries with the other operand
            return
        a, b = args
        self._add("qpoly.mul.terms", len(a.coeffs) * (len(b.coeffs) if isinstance(b, qpoly.QPoly) else 1))
        if result.coeffs:
            self._max("qpoly.mul.max_deg", len(result.coeffs) - 1)
            self._max("qpoly.coef_bits.max", max(max(result.coeffs), -min(result.coeffs)).bit_length())

    def _after_gcd(self, result: qpoly.QPoly, args: tuple) -> None:
        self._add("gcd.nontrivial", int(result.degree > 0))

    def _after_solve(self, result: object, args: tuple) -> None:
        matrix, rhs = args
        cols = len(matrix[0]) if matrix else 0
        self._add("qpoly.solve.cells", len(matrix) * (cols + 1))
        self._add(
            "solve.nonzero",
            sum(1 for row in matrix for entry in row if entry) + sum(1 for entry in rhs if entry),
        )
        if result.consistent:
            self._add("solver.pivots", cols - len(result.free_columns))

    def _before_ideals(self, args: tuple) -> None:
        if "_ideals" not in vars(args[0]):
            self._add("ideals.miss", 1)

    def _after_ideals(self, result: tuple, args: tuple) -> None:
        poset = args[0]
        key = (poset.n, poset.covers)
        if key not in self._seen_posets:
            self._seen_posets.add(key)
            self._add("posets.ideals", len(result))

    def _objects(self, layer: str) -> Callable:
        return lambda result, args: self._add(layer, _coefficient_sum(result))

    # -- installation and report -------------------------------------------

    def install(self) -> None:
        QPoly, RatFunc = qpoly.QPoly, qpoly.RatFunc
        self.method(QPoly, "__mul__", "qpoly.mul", after=self._after_mul)
        self.method(QPoly, "__rmul__", "qpoly.mul", after=self._after_mul)
        self.method(QPoly, "exact_div", "qpoly.exact_div")
        self.function(qpoly.poly_gcd, "qpoly.gcd", after=self._after_gcd)
        self.method(RatFunc, "__init__", "qpoly.ratfunc")
        self.function(qpoly.solve_linear_system, "qpoly.solve", after=self._after_solve)

        self.function(
            posets.order_ideals, "posets.order_ideals",
            before=self._before_ideals, after=self._after_ideals,
        )
        self.method(posets.Poset, "__init__", "posets.build")
        for builder in (
            posets.build_shape, posets.build_rectangle, posets.build_shifted,
            posets.build_propeller, posets.build_minuscule,
        ):
            self.function(builder, "posets.build")

        ext_objects = self._objects("extensions.objects")
        self.function(extensions.gf_comaj, "extensions.gf_comaj", after=ext_objects)
        self.function(extensions.gf_bsv, "extensions.gf_bsv", after=ext_objects)
        for enumerator in (
            extensions._extension_positions,
            extensions.enumerate_linear_extensions,
            extensions.enumerate_bsv,
        ):
            self.function(enumerator, "extensions.enumerate")

        pp_objects = self._objects("ppartitions.objects")
        for fn in (ppartitions.rpp_size_gf, ppartitions.rpp_size_series, ppartitions.gf_bsv_rpp):
            self.function(fn, f"ppartitions.{fn.__name__}", after=pp_objects)

        for ensemble in (
            distributions.ensemble_lin, distributions.ensemble_rpp,
            distributions.ensemble_uniform, distributions.ensemble_rank,
        ):
            self.function(ensemble, "distributions.ensemble")
        self.method(distributions.Statistic, "from_function", "distributions.statistic")
        self.function(distributions.statistic_ddeg, "distributions.statistic")
        self.function(distributions.statistic_toggle, "distributions.statistic")
        self.function(distributions.expectation, "distributions.expectation")
        self.function(distributions.check_toggle_symmetry, "distributions.check_toggle_symmetry")

        self.function(
            solver.toggle_solve, "solver.toggle_solve",
            after=lambda result, args: self._add("solve.consistent", int(result.consistent)),
        )
        self.function(
            solver.build_system, "solver.build_system",
            after=lambda result, args: self._add("solver.system.rows", len(result[0])),
        )
        for fn in (solver.verify_refinements, solver.statistic_row, solver.statistic_diagonal):
            self.function(fn, "solver.other")

        self.module(togglebij, "togglebij")
        self.module(paths, "paths")
        self.function(qtab.cli.main, "cli")

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer measures, zero when unused."""

        def stat(name: str) -> Stat:
            return self.stats.get(name) or Stat()

        def frac(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        count = self.counts.get
        out: dict[str, float] = {}
        for name in (
            "qpoly.mul", "qpoly.exact_div", "qpoly.gcd", "qpoly.ratfunc", "qpoly.solve",
            "posets.order_ideals", "extensions.gf_comaj", "extensions.gf_bsv",
            "ppartitions.rpp_size_gf", "distributions.ensemble",
            "distributions.expectation", "solver.toggle_solve", "togglebij", "paths",
        ):
            out[f"{name}.calls"] = stat(name).calls
            out[f"{name}.s"] = stat(name).self_s
        for name in (
            "posets.build", "extensions.enumerate", "ppartitions.rpp_size_series",
            "ppartitions.gf_bsv_rpp", "distributions.statistic",
            "distributions.check_toggle_symmetry", "solver.build_system",
        ):
            out[f"{name}.s"] = stat(name).self_s
        for name in (
            "qpoly.mul.terms", "qpoly.mul.max_deg", "qpoly.coef_bits.max",
            "qpoly.solve.cells", "posets.ideals", "extensions.objects",
            "ppartitions.objects", "solver.system.rows", "solver.pivots",
        ):
            out[name] = count(name, 0)
        out["qpoly.gcd.nontrivial_frac"] = frac(count("gcd.nontrivial", 0), stat("qpoly.gcd").calls)
        out["qpoly.solve.nonzero_frac"] = frac(count("solve.nonzero", 0), count("qpoly.solve.cells", 0))
        out["posets.order_ideals.miss_frac"] = frac(count("ideals.miss", 0), stat("posets.order_ideals").calls)
        out["solver.consistent_frac"] = frac(count("solve.consistent", 0), stat("solver.toggle_solve").calls)
        out["cli.self_s"] = stat("cli").self_s
        out["covered_s"] = sum(s.self_s for s in self.stats.values())
        return out
