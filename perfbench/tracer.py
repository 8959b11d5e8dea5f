"""Layer tracer that wraps qrr's public functions from outside the package.

Every public function defined in a traced module is replaced, on the
module object, by a wrapper that records one span per call (name, start,
end, parent span, op) and adds the call's self time (its duration minus
the time spent in traced callees) to a per-layer total.  Calls made
inside the package reach the wrappers because qrr calls across modules
through module attributes (``fps.mul``) and within a module through its
globals, which are the same dictionary.  Names re-exported by
``qrr/__init__`` were bound at import and are left alone.

A few layers also get exact counters computed from their arguments or
results; the time spent computing them is kept out of every span.
"""

import functools
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("fps", "zpoly", "sumside", "cfrac", "prodmake", "dirichlet", "cli")


def _max_bits(coeffs):
    return max(abs(c) for c in coeffs).bit_length()


def _mul_counts(a, b):
    # the schoolbook product iterates the sparser operand's support and
    # runs one multiply-add for each index it can reach below the order
    ca, cb = a.coeffs, b.coeffs
    if sum(1 for c in ca if c) > sum(1 for c in cb if c):
        ca = cb
    n = len(ca)
    return {
        "madds": sum(n - i for i, c in enumerate(ca) if c),
        "max_bits": max(_max_bits(a.coeffs), _max_bits(b.coeffs)),
    }


def _pow_counts(a, e, m):
    return {"binomial_calls": int(abs(m) > 4)}


def _strip_counts(result):
    return {"max_mult_bits": abs(result.coefficient).bit_length()}


def _detect_counts(result):
    return {"found": int(result is not None)}


# name -> (counts from the arguments, counts from the result)
COUNTERS = {
    "fps.mul": (_mul_counts, None),
    "fps.pow_one_minus_qpow": (_pow_counts, None),
    "prodmake.strip_step": (None, _strip_counts),
    "prodmake.detect_progressions": (None, _detect_counts),
}

# counters combined by maximum rather than by sum
MAX_COUNTERS = {"max_bits", "max_mult_bits"}


def _add(tally, key, value):
    tally[key] = max(tally[key], value) if key[1] in MAX_COUNTERS else tally[key] + value


class Tracer:
    """Spans and per-layer totals for one traced phase of a run."""

    def __init__(self, package):
        self.package = package
        self.spans = []  # (name, t0, t1, parent index or -1, op index)
        self.self_s = defaultdict(float)
        self.op_counts = []  # one Counter per op: (name, counter) -> value
        self._stack = []  # open span indices
        self._child = [0.0]  # traced time under each open span
        self._saved = []

    def begin_op(self):
        self.op_counts.append(Counter())

    def install(self):
        for layer in LAYERS:
            module = getattr(self.package, layer)
            for attr, fn in list(vars(module).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    self._replace(module, attr, "%s.%s" % (layer, attr))
        self._replace(self.package.fps.QSeries, "is_one", "fps.QSeries.is_one")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, name):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original))

    def _wrap(self, name, fn):
        before, after = COUNTERS.get(name, (None, None))
        spans, stack, child, self_s = self.spans, self._stack, self._child, self.self_s

        def count(counts):
            for key, value in counts.items():
                _add(self.op_counts[-1], (name, key), value)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            h0 = perf_counter()
            self.op_counts[-1][name, "calls"] += 1
            if before:
                count(before(*args, **kwargs))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            child.append(0.0)
            t0 = perf_counter()
            child[-2] += t0 - h0  # bookkeeping is nobody's self time
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                inner = child.pop()
                spans[index] = (name, t0, t1, parent, len(self.op_counts) - 1)
                self_s[name] += t1 - t0 - inner
                child[-1] += t1 - t0
            if after:
                h1 = perf_counter()
                count(after(result))
                child[-1] += perf_counter() - h1
            return result

        return traced

    def totals(self, ops):
        """Counters summed (or maximised) over the first ``ops`` ops."""
        total = Counter()
        for tally in self.op_counts[:ops]:
            for key, value in tally.items():
                _add(total, key, value)
        return total

    def write_spans(self, path):
        """One tab-separated line per span: index, parent, op, name, start and end in us."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            out.write("index\tparent\top\tname\tstart_us\tend_us\n")
            for index, (name, t0, t1, parent, op) in enumerate(self.spans):
                out.write(
                    "%d\t%d\t%d\t%s\t%.1f\t%.1f\n"
                    % (index, parent, op, name, (t0 - base) * 1e6, (t1 - base) * 1e6)
                )
