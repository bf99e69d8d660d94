"""Span recorder for the traced run.

The recorder wraps the public functions at each layer boundary of the
program (module attributes and class operators), records a span for
every outermost call into a layer and restores the original names when
the run ends. Nothing in the program itself is changed on disk.

A span has an id, the id of the span that caused it, the id of the op it
belongs to, a name, a start and an end. Calls into a layer made while a
span of the same layer is innermost are not recorded on their own, so
``RatFunc.__sub__`` calling ``RatFunc.__add__`` counts once.

Field operations number in the millions per run, so they are aggregated
per name (calls and time) instead of being kept one by one. Every other
span is kept in memory and written out by ``write_spans`` at the end.

Besides the wrapped names, the counters read the public attributes
``RatFunc.den``, ``AlgebraElement.terms`` and ``FockOperator.entries``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class _Frame:
    __slots__ = ("group", "name", "start", "child", "span_id")

    def __init__(self, group, name, start, span_id):
        self.group = group
        self.name = name
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Recorder:
    """Records spans and per-layer counters while installed."""

    def __init__(self, prog):
        self.prog = prog
        self.stack = []
        self.spans = []
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.counters = {}
        self.normalize_inputs = set()
        self.op_id = 0
        self._next_span = 0
        self._saved = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, group, name):
        self._next_span += 1
        frame = _Frame(group, name, perf_counter(), self._next_span)
        self.stack.append(frame)
        return frame

    def _close(self, frame, keep):
        end = perf_counter()
        self.stack.pop()
        dur = end - frame.start
        name = frame.name
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame.child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += dur
        if keep:
            self.spans.append((frame.span_id, parent.span_id if parent else 0,
                               self.op_id, name, frame.start, end))

    def _count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    @contextmanager
    def op(self, op_id, family):
        """Context for one op: a root span that the op's layer spans hang under."""
        self.op_id = op_id
        frame = self._open("op", "op." + family)
        try:
            yield
        finally:
            self._close(frame, keep=True)

    def nested(self, group):
        return bool(self.stack) and self.stack[-1].group == group

    # -- wrappers --------------------------------------------------------

    def _wrap(self, group, fn, name=None, keep=True, traced=None, before=None, after=None):
        """Wrap fn so that each outermost call into group is a span.

        The span is named name (by default group) and is kept only if keep;
        it always counts toward the call and time totals. A call for which
        traced(args) is false passes straight through.
        """
        rec = self
        name = name or group

        def wrapper(*args, **kwargs):
            if rec.nested(group) or (traced is not None and not traced(args)):
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            frame = rec._open(group, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(frame, keep)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _field_after(self, kind):
        ratfunc = self.prog.field.RatFunc
        one = {(0, 0): 1}

        def after(args, result):
            if isinstance(result, ratfunc):
                self._count("field.results")
                if result.den == one:
                    self._count("field.results_den1")
                if kind == "mul":
                    a, b = args
                    if a.is_monomial() or not isinstance(b, ratfunc) or b.is_monomial():
                        self._count("field.mul_monomial")

        return after

    def _normalize_before(self, args, kwargs):
        x = args[0]
        terms = (x,) if isinstance(x, tuple) else frozenset(x.terms.items())
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        strategy = args[2] if len(args) > 2 else kwargs.get("strategy", "leftmost")
        key = (terms, cfg, strategy)
        if key in self.normalize_inputs:
            self._count("freealg.normalize_repeats")
        else:
            self.normalize_inputs.add(key)

    def _normalize_after(self, args, result):
        n = len(result.terms)
        self._count("freealg.terms_out", n)
        if n > self.counters.get("freealg.max_terms", 0):
            self.counters["freealg.max_terms"] = n

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer-boundary name; ``restore`` undoes it."""
        if self._saved:
            raise RuntimeError("recorder already installed")
        p = self.prog
        ratfunc = p.field.RatFunc
        for attr, kind in (("__add__", "add"), ("__radd__", "add"),
                           ("__sub__", "add"), ("__rsub__", "add"),
                           ("__mul__", "mul"), ("__rmul__", "mul"),
                           ("__truediv__", "div"), ("__rtruediv__", "div"),
                           ("__pow__", "pow")):
            self._set(ratfunc, attr, self._wrap("field", ratfunc.__dict__[attr],
                                                name="field." + kind, keep=False,
                                                after=self._field_after(kind)))

        normalize = self._wrap("freealg.normalize", p.freealg.normalize,
                               after=self._normalize_after, before=self._normalize_before)
        multiply = self._wrap("freealg.multiply", p.freealg.multiply)
        # hopf and cli import these names, so their copies are wrapped too
        for mod in (p.freealg, p.hopf, p.cli):
            self._set(mod, "normalize", normalize)
        for mod in (p.freealg, p.hopf):
            self._set(mod, "multiply", multiply)

        for attr, group in (("coproduct", "hopf.coproduct"),
                            ("antipode", "hopf.antipode"),
                            ("tensor_normalize", "hopf.tensor_normalize"),
                            ("check_coassoc", "hopf.check"),
                            ("check_counit", "hopf.check"),
                            ("check_antipode", "hopf.check"),
                            ("antipode_squared", "hopf.check"),
                            ("check_relation_preservation", "hopf.check")):
            self._set(p.hopf, attr, self._wrap(group, getattr(p.hopf, attr)))

        fock = p.oscillator.FockOperator
        self._set(fock, "__mul__", self._wrap(
            "oscillator.matmul", fock.__dict__["__mul__"],
            traced=lambda args: isinstance(args[1], fock),
            after=lambda args, result: self._count("oscillator.nnz_out", len(result.entries))))
        for attr in ("verify_bracket", "verify_power_commutator"):
            self._set(p.oscillator, attr,
                      self._wrap("oscillator.verify", getattr(p.oscillator, attr)))

        self._set(p.homlie, "vbracket", self._wrap("homlie.vbracket", p.homlie.vbracket))
        self._set(p.homlie, "hom_jacobi_residual",
                  self._wrap("homlie.residual", p.homlie.hom_jacobi_residual))

        self._set(p.cli, "parse_expression", self._wrap(
            "cli.parse", p.cli.parse_expression,
            before=lambda args, kwargs: self._count("cli.parse_chars", len(args[0]))))
        self._set(p.cli, "render_element", self._wrap(
            "cli.render", p.cli.render_element,
            after=lambda args, result: self._count("cli.render_chars", len(result))))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results ---------------------------------------------------------

    def layer_metrics(self):
        """The per-layer metrics of BENCHMARK.json, except trace.overhead_ratio."""
        calls = self.calls.get
        total = self.total_s.get
        own = self.self_s.get
        count = self.counters.get

        def share(part, base):
            return part / base if base else 0.0

        field_self = sum(v for k, v in self.self_s.items() if k.startswith("field."))
        normalize_calls = calls("freealg.normalize", 0)
        return {
            "field.mul_calls": (calls("field.mul", 0), "count"),
            "field.mul_s": (total("field.mul", 0.0), "s"),
            "field.add_calls": (calls("field.add", 0), "count"),
            "field.add_s": (total("field.add", 0.0), "s"),
            "field.div_s": (total("field.div", 0.0), "s"),
            "field.self_s": (field_self, "s"),
            "field.mul_monomial_share": (
                share(count("field.mul_monomial", 0), calls("field.mul", 0)), "ratio"),
            "field.result_count": (count("field.results", 0), "count"),
            "field.result_den1_share": (
                share(count("field.results_den1", 0), count("field.results", 0)), "ratio"),
            "freealg.normalize_calls": (normalize_calls, "count"),
            "freealg.normalize_self_s": (own("freealg.normalize", 0.0), "s"),
            "freealg.normalize_repeat_share": (
                share(count("freealg.normalize_repeats", 0), normalize_calls), "ratio"),
            "freealg.terms_out": (count("freealg.terms_out", 0), "count"),
            "freealg.max_terms": (count("freealg.max_terms", 0), "count"),
            "freealg.multiply_calls": (calls("freealg.multiply", 0), "count"),
            "hopf.coproduct_calls": (calls("hopf.coproduct", 0), "count"),
            "hopf.coproduct_self_s": (own("hopf.coproduct", 0.0), "s"),
            "hopf.antipode_calls": (calls("hopf.antipode", 0), "count"),
            "hopf.antipode_self_s": (own("hopf.antipode", 0.0), "s"),
            "hopf.tensor_normalize_calls": (calls("hopf.tensor_normalize", 0), "count"),
            "hopf.tensor_normalize_self_s": (own("hopf.tensor_normalize", 0.0), "s"),
            "hopf.check_calls": (calls("hopf.check", 0), "count"),
            "hopf.check_self_s": (own("hopf.check", 0.0), "s"),
            "oscillator.matmul_calls": (calls("oscillator.matmul", 0), "count"),
            "oscillator.matmul_self_s": (own("oscillator.matmul", 0.0), "s"),
            "oscillator.nnz_out": (count("oscillator.nnz_out", 0), "count"),
            "oscillator.verify_self_s": (own("oscillator.verify", 0.0), "s"),
            "homlie.vbracket_calls": (calls("homlie.vbracket", 0), "count"),
            "homlie.residual_self_s": (own("homlie.residual", 0.0), "s"),
            "cli.parse_s": (total("cli.parse", 0.0), "s"),
            "cli.parse_chars": (count("cli.parse_chars", 0), "count"),
            "cli.render_s": (total("cli.render", 0.0), "s"),
            "cli.render_chars": (count("cli.render_chars", 0), "count"),
        }

    def write_spans(self, path, meta):
        """Write the kept spans as JSON lines: a meta line, then one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": meta,
                                 "fields": ["id", "parent", "op", "name", "start", "end"],
                                 "field_aggregates": {k: [self.calls[k], self.total_s[k]]
                                                      for k in self.calls
                                                      if k.startswith("field.")}}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
