"""Per-layer spans for a traced pass, recorded from outside the program.

``install`` replaces the public functions and methods of each layer with
timing wrappers: class attributes are patched on the class, and functions
are patched in every ``descpoly`` module (and module-level dict or list)
that holds them, so names that ``cli`` and ``verify`` imported are traced
too.  Spans are aggregated per name as they close (calls and self time)
rather than kept one by one, because a ``census`` pass opens about 2.2
million of them.  A span's self time is its duration minus the durations of the spans
it encloses; the wrapper's own bookkeeping is charged to neither.
"""

from __future__ import annotations

from time import perf_counter

from descpoly import cli, descent, eulerian, genfunc, juggling, permutation, polynomial, verify

MODULES = (cli, descent, eulerian, genfunc, juggling, permutation, polynomial, verify)


def _swap(container: dict | list, fn, wrapper) -> None:
    for key, item in list(container.items() if isinstance(container, dict) else enumerate(container)):
        if item is fn:
            container[key] = wrapper
        elif isinstance(item, (dict, list)):
            _swap(item, fn, wrapper)


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: dict[str, int] = {}
        self.cached: dict[str, object] = {}  # name -> functools.cache wrapper
        self._stack = [0.0]  # per open span: time covered by its closed children

    def _wrapper(self, name: str, fn, after=None):
        stat = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stat[0] += 1
                stat[1] += t1 - t0 - stack.pop()
                if ok and after is not None:
                    after(args, result)
                stack[-1] += perf_counter() - t0
            return result

        return traced

    def _generator_wrapper(self, name: str, fn, count: str):
        # times each step of the generator; the consumer's work between
        # steps belongs to the consumer
        stat = self.spans.setdefault(name, [0, 0.0])
        self.counts.setdefault(count, 0)
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            stat[0] += 1
            it = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stat[1] += t1 - t0 - stack.pop()
                    stack[-1] += t1 - t0
                counts[count] += 1
                yield value

        return traced

    def function(self, fn, name: str, after=None, generator_count: str | None = None) -> None:
        if generator_count is None:
            wrapper = self._wrapper(name, fn, after)
        else:
            wrapper = self._generator_wrapper(name, fn, generator_count)
        found = False
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    found = True
                elif isinstance(value, (dict, list)) and not attr.startswith("__"):
                    _swap(value, fn, wrapper)  # dispatch tables such as verify.SUITES
        if not found:
            raise LookupError(f"{name}: {fn!r} is not a module attribute")

    def method(self, cls: type, attr: str, name: str, after=None) -> None:
        fn = vars(cls)[attr]
        wrapper = self._wrapper(name, fn, after)
        for alias, value in list(vars(cls).items()):  # __rmul__ is __mul__, and so on
            if value is fn:
                setattr(cls, alias, wrapper)

    def _count_mul(self, args, result) -> None:
        a, b = args
        self.counts["polynomial.mul.coeff_ops"] += len(a.coeffs) * (
            len(b.coeffs) if isinstance(b, polynomial.IntPoly) else 1
        )
        bits = max(map(abs, result.coeffs), default=0).bit_length()
        if bits > self.counts["polynomial.max_coeff_bits"]:
            self.counts["polynomial.max_coeff_bits"] = bits

    def install(self) -> None:
        IntPoly, Permutation = polynomial.IntPoly, permutation.Permutation
        self.counts.update({"polynomial.mul.coeff_ops": 0, "polynomial.max_coeff_bits": 0})
        self.method(IntPoly, "__mul__", "polynomial.mul", after=self._count_mul)
        self.method(IntPoly, "__add__", "polynomial.add")
        self.method(IntPoly, "__pow__", "polynomial.pow")

        self.cached["eulerian.eulerian_poly"] = eulerian.eulerian_poly
        self.cached["descent.kernel_poly"] = descent.kernel_poly
        self.function(eulerian.eulerian_poly, "eulerian.eulerian_poly")
        for kernel in (
            descent.kernel_poly,
            descent.stretched_kernel_poly,
            descent.kernel_poly_by_stretch,
            descent.kernel_poly_by_duplication,
        ):
            self.function(kernel, "descent.kernel")
        self.function(descent.descent_poly_by_closed_form, "descent.closed_form")
        self.function(descent.descent_poly_by_recurrence, "descent.recurrence")
        self.function(descent.descent_poly_by_enumeration, "descent.enumeration")

        self.method(genfunc.RationalBivariateGF, "series", "genfunc.series")
        self.function(genfunc.descent_gf, "genfunc.descent_gf")

        self.method(Permutation, "__init__", "permutation.init")
        for sort in ("bsort", "ssort", "bsc"):
            self.method(Permutation, sort, "permutation.sort")
        for tail in (
            permutation.detach_tail,
            permutation.attach_tail,
            permutation.standardize,
            permutation.unstandardize,
        ):
            self.function(tail, "permutation.tail")
        self.function(
            permutation.enumerate_bounded_drop,
            "permutation.enumerate",
            generator_count="permutation.enumerate.perms",
        )

        self.function(juggling.throw_sequence, "juggling.throw_sequence")
        self.function(juggling.remove_ball, "juggling.remove_ball")
        self.method(juggling.JugglingSequence, "__init__", "juggling.sequence")

        for checks in verify.SUITES.values():
            for check in list(checks):
                self.function(check, "verify." + check.__name__.removeprefix("check_"))

        self.function(cli.main, "cli")

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counts)
        for name, (calls, self_s) in self.spans.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        for name, fn in self.cached.items():
            info = fn.cache_info()
            out[name + ".cache_hits"] = info.hits
            out[name + ".cache_misses"] = info.misses
        return out
