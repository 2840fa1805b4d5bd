"""Spans around derivcover's public functions, recorded from outside.

`Tracer.install` replaces each traced function where it is defined and at
every module attribute of the derivcover package that refers to it (for
example `apply_operator`, which dclass and cover import by name), and
`uninstall` puts the originals back.  A span is (name, start, end, parent,
check id); spans stay in memory in flat arrays until `write`.

A span's self time is its duration minus the durations of its children.
Calls are strictly nested in this single-threaded process, so the self
times of all spans add up to the summed duration of the top-level spans,
and adding the time outside any span gives the traced wall time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from typing import Callable

# (span name, module, attribute); "Class.method" attributes are methods.
SPANS = [
    ("poly.mul", "poly", "MPoly.__mul__"),
    ("poly.pow", "poly", "MPoly.__pow__"),
    ("poly.add", "poly", "MPoly.__add__"),
    ("poly.gcd", "poly", "mpoly_gcd"),
    ("poly.div_exact", "poly", "div_exact"),
    ("poly.ratfunc_make", "poly", "RatFunc.make"),
    ("poly.evaluate", "poly", "RatFunc.evaluate"),
    ("jets.context", "jets", "JetContext.__init__"),
    ("jets.derive", "jets", "derive"),
    ("jets.apply_operator", "jets", "apply_operator"),
    ("dclass.is_in_dn", "dclass", "is_in_dn"),
    ("dclass.dn_defect", "dclass", "dn_defect"),
    ("dclass.polarization_defect", "dclass", "polarization_defect"),
    ("dclass.odd_extraction_check", "dclass", "odd_extraction_check"),
    ("dclass.inductive_subsum", "dclass", "inductive_subsum"),
    ("dclass.find_witness", "dclass", "find_witness"),
    ("dclass.probe_zero", "dclass", "probe_zero"),
    ("cover.rn_preservation", "cover", "rn_preservation"),
    ("cover.rn_reduct_check", "cover", "rn_reduct_check"),
    ("cover.sigma_ring_defect", "cover", "sigma_ring_defect"),
    ("cover.psi_defines_otimes", "cover", "psi_defines_otimes"),
    ("cosets.affine_relation", "cosets", "affine_relation"),
    ("cosets.solve_nullspace", "cosets", "solve_nullspace"),
    ("parse", "parse", "parse_operator"),
    ("parse", "parse", "parse_func_list"),
    ("parse", "parse", "parse_ratfunc"),
    ("cli.run", "cli", "run"),
    ("cli.render", "cli", "Report.to_text"),
    ("cli.render", "cli", "Report.to_json"),
]

# Per-layer metrics reported by a traced run: (name, unit, better).
PER_LAYER = [
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.self_s", "s", "lower"),
    ("poly.mul.term_pairs", "count", "lower"),
    ("poly.mul.terms_out", "count", "lower"),
    ("poly.pow.self_s", "s", "lower"),
    ("poly.add.self_s", "s", "lower"),
    ("poly.peak_terms", "count", "lower"),
    ("poly.max_degree", "count", "lower"),
    ("poly.gcd.calls", "count", "lower"),
    ("poly.gcd.self_s", "s", "lower"),
    ("poly.gcd.trivial_share", "ratio", "lower"),
    ("poly.div_exact.calls", "count", "lower"),
    ("poly.div_exact.self_s", "s", "lower"),
    ("poly.ratfunc_make.self_s", "s", "lower"),
    ("poly.evaluate.calls", "count", "lower"),
    ("poly.evaluate.self_s", "s", "lower"),
    ("poly.evaluate.vars_assigned", "count", "lower"),
    ("poly.evaluate.vars_used_ratio", "ratio", "higher"),
    ("jets.context.builds", "count", "lower"),
    ("jets.context.self_s", "s", "lower"),
    ("jets.context.symbols", "count", "lower"),
    ("jets.symbols_used_ratio", "ratio", "higher"),
    ("jets.derive.calls", "count", "lower"),
    ("jets.derive.self_s", "s", "lower"),
    ("jets.apply_operator.calls", "count", "lower"),
    ("jets.apply_operator.self_s", "s", "lower"),
    ("dclass.is_in_dn.self_s", "s", "lower"),
    ("dclass.dn_defect.self_s", "s", "lower"),
    ("dclass.polarization_defect.self_s", "s", "lower"),
    ("dclass.odd_extraction_check.self_s", "s", "lower"),
    ("dclass.inductive_subsum.self_s", "s", "lower"),
    ("dclass.find_witness.calls", "count", "lower"),
    ("dclass.find_witness.self_s", "s", "lower"),
    ("dclass.find_witness.evaluations", "count", "lower"),
    ("dclass.find_witness.first_try_share", "ratio", "higher"),
    ("dclass.probe_zero.calls", "count", "lower"),
    ("dclass.probe_zero.self_s", "s", "lower"),
    ("cover.rn_preservation.self_s", "s", "lower"),
    ("cover.rn_reduct_check.self_s", "s", "lower"),
    ("cover.sigma_ring_defect.self_s", "s", "lower"),
    ("cover.psi_defines_otimes.self_s", "s", "lower"),
    ("cosets.affine_relation.calls", "count", "lower"),
    ("cosets.affine_relation.self_s", "s", "lower"),
    ("cosets.solve_nullspace.self_s", "s", "lower"),
    ("cosets.nullspace_rows", "count", "lower"),
    ("parse.calls", "count", "lower"),
    ("parse.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("trace.outside_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.checks_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.check = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.check_id = -1
        self.counts: Counter = Counter()
        self._contexts: list = []
        self._used: dict[int, set[int]] = {}
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers

    def _span(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        kind = self.name_id(name)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            idx = len(self.kind)
            self.kind.append(kind)
            self.parent.append(stack[-1])
            self.check.append(self.check_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if count is not None and result is not NotImplemented:
                count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_mul(self, args, result) -> None:
        a, b = args
        c = self.counts
        c["poly.mul.calls"] += 1
        if hasattr(b, "terms"):
            c["poly.mul.term_pairs"] += len(a.terms) * len(b.terms)
            if result.terms:
                c["poly.max_degree"] = max(c["poly.max_degree"], a.total_degree() + b.total_degree())
        c["poly.mul.terms_out"] += len(result.terms)
        c["poly.peak_terms"] = max(c["poly.peak_terms"], len(result.terms))

    def _count_pow(self, args, result) -> None:
        c = self.counts
        c["poly.peak_terms"] = max(c["poly.peak_terms"], len(result.terms))
        c["poly.max_degree"] = max(c["poly.max_degree"], args[0].total_degree() * args[1])

    def _count_add(self, args, result) -> None:
        self.counts["poly.peak_terms"] = max(self.counts["poly.peak_terms"], len(result.terms))

    def _count_gcd(self, args, result) -> None:
        parent = self._stack[-1]
        if parent < 0 or self.names[self.kind[parent]] != "poly.gcd":
            self.counts["poly.gcd.top_level"] += 1
            self.counts["poly.gcd.trivial"] += result.is_constant()

    def _count_evaluate(self, args, result) -> None:
        f, assignment = args[0], args[1]
        self.counts["poly.evaluate.vars_assigned"] += len(assignment)
        self.counts["poly.evaluate.vars_used"] += len(set(f.num.variables()) | set(f.den.variables()))

    def _count_context(self, args, result) -> None:
        ctx = args[0]
        self.counts["jets.context.symbols"] += ctx.num_vars
        self._contexts.append(ctx)

    def _count_rows(self, args, result) -> None:
        self.counts["cosets.nullspace_rows"] += len(args[0])

    def _shifted_symbol(self, fn: Callable) -> Callable:
        used = self._used

        def wrapper(ctx, letter, v):
            symbol = fn(ctx, letter, v)
            used.setdefault(id(ctx), set()).add(symbol)
            return symbol

        return wrapper

    def end_check(self) -> None:
        """Fold the symbol use of the contexts built since the last call."""
        for ctx in self._contexts:
            self.counts["jets.symbols.allocated"] += ctx.num_vars - len(ctx.gens)
            self.counts["jets.symbols.used"] += len(self._used.get(id(ctx), ()))
        self._contexts.clear()
        self._used.clear()

    # -- install / uninstall

    def install(self) -> None:
        counters = {
            "poly.mul": self._count_mul,
            "poly.pow": self._count_pow,
            "poly.add": self._count_add,
            "poly.gcd": self._count_gcd,
            "poly.evaluate": self._count_evaluate,
            "jets.context": self._count_context,
            "cosets.solve_nullspace": self._count_rows,
        }
        for name, module, attr in SPANS:
            self._replace(module, attr, lambda fn, n=name: self._span(n, fn, counters.get(n)))
        self._replace("jets", "JetContext.shifted_symbol", self._shifted_symbol)

    def _replace(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        mod = sys.modules[f"derivcover.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(mod, cls_name)
            raw = owner.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            # aliases such as __radd__ = __add__ share the function object
            for key, value in list(owner.__dict__.items()):
                if value is raw:
                    self._undo.append((owner, key, value))
                    setattr(owner, key, new)
            return
        raw = getattr(mod, attr)
        new = make(raw)
        for name, other in list(sys.modules.items()):
            if name == "derivcover" or name.startswith("derivcover."):
                for key, value in list(vars(other).items()):
                    if value is raw:
                        self._undo.append((other, key, value))
                        setattr(other, key, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # -- results

    def self_times(self) -> list[float]:
        n = len(self.kind)
        self_t = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_t[p] -= self.end[i] - self.start[i]
        return self_t

    def top_level_seconds(self) -> float:
        return sum(self.end[i] - self.start[i] for i in range(len(self.kind)) if self.parent[i] < 0)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics over every span recorded so far."""
        self_t = self.self_times()
        by_name: Counter = Counter()
        calls: Counter = Counter()
        evaluations: Counter = Counter()
        for i, s in enumerate(self_t):
            name = self.names[self.kind[i]]
            by_name[name] += s
            calls[name] += 1
            p = self.parent[i]
            if name == "poly.evaluate" and p >= 0 and self.names[self.kind[p]] == "dclass.find_witness":
                evaluations[p] += 1
        witness_calls = [i for i in range(len(self_t)) if self.names[self.kind[i]] == "dclass.find_witness"]
        c = self.counts
        m: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            prefix, _, field = name.rpartition(".")
            if field == "self_s":
                m[name] = by_name[prefix]
            elif field in ("calls", "builds"):
                m[name] = calls[prefix]
        m["cli.run.self_s"] = by_name["cli.run"] + by_name["cli.render"]
        m["parse.calls"] = calls["parse"]
        m["parse.self_s"] = by_name["parse"]
        for key in ("poly.mul.term_pairs", "poly.mul.terms_out", "poly.peak_terms", "poly.max_degree",
                    "poly.evaluate.vars_assigned", "jets.context.symbols", "cosets.nullspace_rows"):
            m[key] = c[key]
        m["poly.gcd.trivial_share"] = _share(c["poly.gcd.trivial"], c["poly.gcd.top_level"])
        m["poly.evaluate.vars_used_ratio"] = _share(c["poly.evaluate.vars_used"], c["poly.evaluate.vars_assigned"])
        m["jets.symbols_used_ratio"] = _share(c["jets.symbols.used"], c["jets.symbols.allocated"])
        m["dclass.find_witness.evaluations"] = sum(evaluations.values())
        m["dclass.find_witness.first_try_share"] = _share(
            sum(1 for i in witness_calls if evaluations[i] == 1), len(witness_calls)
        )
        m["trace.wall_s"] = wall_s
        m["trace.outside_s"] = wall_s - self.top_level_seconds()
        return m

    def write(self, path) -> None:
        """Write every span as a gzip TSV: name, start, end, parent, check."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tname\tstart\tend\tparent\tcheck\n")
            for i in range(len(self.kind)):
                out.write(
                    f"{i}\t{self.names[self.kind[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.check[i]}\n"
                )


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_probe() -> None:
    """Call every traced function once on the smallest inputs, so that each
    per-layer metric is measured on every workload."""
    from derivcover import cli, cosets, cover, dclass
    from derivcover.jets import JetContext, Operator, apply_operator, derive
    from derivcover.parse import parse_func_list, parse_operator, parse_ratfunc
    from derivcover.poly import RatFunc, div_exact, mpoly_gcd

    d1 = parse_operator("D1")
    twice = Operator.word((0, 0))
    dclass.is_in_dn(twice, 1)
    dclass.probe_zero(dclass.polarization_defect(d1, 1))
    dclass.odd_extraction_check(d1, 1)
    dclass.inductive_subsum(1)
    cover.rn_preservation(twice, 1)
    cover.rn_reduct_check(1)
    cover.sigma_ring_defect(d1)
    cover.psi_defines_otimes()
    funcs = parse_func_list("1/(t + 1),t/(t + 1)")
    cosets.affine_relation(funcs)
    ctx = JetContext(1, 1, 1)
    f = parse_ratfunc("1/(x1 + 1)", ctx, allow_new_vars=False)
    derive(ctx, 0, apply_operator(ctx, Operator.zero(), f) + f)
    p, q = funcs[1].num, funcs[1].den
    div_exact(p * q, mpoly_gcd(p * q, q))
    RatFunc.make(p ** 2, q)
    cli.run(["cover", "psi-check"]).to_text()
