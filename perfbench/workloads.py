"""Seeded workloads: the ops each sends to qrr and the check of each result.

An op is plain data; ``call`` runs it against an imported qrr package
and ``check`` compares what came back with the oracles, which never see
qrr.  Sizes are drawn by stratified sampling: every block of four draws
of one parameter covers each quarter of its range once, in a seeded
order, so that runs with different seeds load qrr with the same mix of
small and large inputs and their medians can be compared.  Where a block
pairs every quarter of one parameter with every quarter of another, its
sixteen draws of each also cover each sixteenth of its range once.
"""

import contextlib
import io
import json
import random
import tracemalloc
from dataclasses import asdict, dataclass
from time import perf_counter

import oracles


@dataclass(frozen=True)
class Op:
    kind: str  # verify | discover | zeta | cfrac | strip
    order: int  # -N of a CLI op, truncation order of a strip op
    identity: str = ""  # verify and discover: rr1 or rr2
    steps: int = 0  # cfrac: number of convergents
    poly: tuple = ()  # strip: c in P = 1 - c_1 q - c_2 q^2 - ...

    def argv(self):
        """The qrr command line of a CLI op."""
        head = ["--format", "json", self.kind]
        if self.kind == "cfrac":
            head += ["rr", "-n", str(self.steps)]
        elif self.identity:
            head += ["--identity", self.identity]
        return head + ["-N", str(self.order)]

    def label(self):
        if self.kind == "strip":
            return "strip 1/P, c=%s, N=%d" % (list(self.poly), self.order)
        return " ".join(self.argv()[2:])

    def to_json(self):
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text):
        fields = json.loads(text)
        fields["poly"] = tuple(fields["poly"])
        return cls(**fields)


def part(rng, lo, hi, parts, k):
    """A draw from the k-th of ``parts`` equal slices of [lo, hi]."""
    return lo + int((k + rng.random()) * (hi - lo + 1) / parts)


def crossed(rng, rows, cols):
    """Sixteen (row, col) draws: every quarter of ``rows`` with every quarter
    of ``cols``, and each sixteenth of either range exactly once."""
    row_slices = [rng.sample(range(4 * i, 4 * i + 4), 4) for i in range(4)]
    col_slices = [rng.sample(range(4 * j, 4 * j + 4), 4) for j in range(4)]
    return [
        (part(rng, *rows, 16, row_slices[i][j]), part(rng, *cols, 16, col_slices[j][i]))
        for i in range(4)
        for j in range(4)
    ]


def balanced(rng, values, count):
    """``count`` values, each of ``values`` equally often, in seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def pipeline_blocks(rng, sizes):
    """verify, discover and zeta ops; each of the four slices of each range once."""
    while True:
        block = []
        for kind in ("verify", "discover", "zeta"):
            identities = balanced(rng, ("rr1", "rr2"), 4) if kind != "zeta" else [""] * 4
            block += [Op(kind, part(rng, *sizes[kind], 4, k), identities[k]) for k in range(4)]
        rng.shuffle(block)
        yield block


def convergents_blocks(rng, sizes):
    """cfrac rr ops; every pairing of a quarter of the steps range with a
    quarter of the order range once, because op time depends on both jointly."""
    while True:
        block = [Op("cfrac", order, steps=steps) for steps, order in crossed(rng, sizes["steps"], sizes["order"])]
        rng.shuffle(block)
        yield block


# Quartiles of the growth rate (bits of the largest multiplicity per unit
# of order) over accepted draws; op time rises with it.
GROWTH_PARTS = (0.0, 0.78, 0.99, 1.3, float("inf"))


def rational_op(rng, order, growth):
    """A strip op on 1/P, deg P in 1..3, coefficients in [-3, 3], by rejection.

    Draws whose product has fewer than order/2 factors, or whose factors
    all share one multiplicity, are rejected, so every op strips a long
    product of growing multiplicities and detects no progression.
    """
    lo, hi = GROWTH_PARTS[growth], GROWTH_PARTS[growth + 1]
    while True:
        d = rng.randint(1, 3)
        c = tuple(rng.randint(-3, 3) for _ in range(d - 1)) + (rng.choice((-3, -2, -1, 1, 2, 3)),)
        factors = oracles.necklace_factors(c, order)
        if len(factors) < order / 2 or len(set(factors.values())) == 1:
            continue
        if lo <= max(abs(m) for m in factors.values()).bit_length() / order < hi:
            return Op("strip", order, poly=c)


def strip_blocks(rng, sizes):
    """Strip ops; every pairing of a quarter of the order range with a
    quarter of the growth rates once, and each sixteenth of the order range
    once, because op time grows as about N^2.5."""
    while True:
        block = []
        for i in range(4):
            slices = rng.sample(range(4 * i, 4 * i + 4), 4)
            block += [rational_op(rng, part(rng, *sizes["order"], 16, k), g) for g, k in enumerate(slices)]
        rng.shuffle(block)
        yield block


@dataclass(frozen=True)
class Workload:
    generate: object  # (rng, sizes) -> endless iterator of blocks of ops
    sizes: dict  # full-size parameter ranges, inclusive
    tiny: dict  # ranges for the smoke run, of the ops and of the memory pass alike
    memory: object  # (rng, sizes) -> one op per kind for the memory pass
    memory_sizes: dict  # narrow ranges near the largest op the memory pass can afford
    warmup: tuple  # fixed small ops run before anything is timed

    def blocks(self, seed, tiny=False):
        return self.generate(random.Random(seed), self.tiny if tiny else self.sizes)

    def memory_ops(self, seed, tiny=False):
        return self.memory(random.Random(seed), self.tiny if tiny else self.memory_sizes)


# The memory pass runs under tracemalloc, which slows these ops 10-35 times,
# so its sizes are below the timed ranges: about 2 s of traced work per kind.
WORKLOADS = {
    "pipeline": Workload(
        generate=pipeline_blocks,
        sizes={"verify": (3000, 5000), "discover": (1500, 2500), "zeta": (500_000, 1_000_000)},
        tiny={"verify": (30, 60), "discover": (30, 60), "zeta": (1000, 2000)},
        memory=lambda rng, sizes: tuple(
            Op(kind, rng.randint(*sizes[kind]), rng.choice(("rr1", "rr2")) if kind != "zeta" else "")
            for kind in ("verify", "discover", "zeta")
        ),
        memory_sizes={"verify": (960, 1000), "discover": (960, 1000), "zeta": (96_000, 100_000)},
        warmup=(Op("verify", 100, identity="rr1"), Op("discover", 100, identity="rr2"), Op("zeta", 2000)),
    ),
    "convergents": Workload(
        generate=convergents_blocks,
        sizes={"steps": (10, 30), "order": (500, 1500)},
        tiny={"steps": (2, 5), "order": (30, 60)},
        memory=lambda rng, sizes: (
            Op("cfrac", rng.randint(*sizes["order"]), steps=rng.randint(*sizes["steps"])),
        ),
        memory_sizes={"steps": (12, 12), "order": (480, 500)},
        warmup=(Op("cfrac", 40, steps=4),),
    ),
    "strip-rational": Workload(
        generate=strip_blocks,
        sizes={"order": (400, 800)},
        tiny={"order": (20, 40)},
        # 1 - 3q - 3q^2 - 3q^3 has the fastest-growing multiplicities in the range
        memory=lambda rng, sizes: (Op("strip", rng.randint(*sizes["order"]), poly=(3, 3, 3)),),
        memory_sizes={"order": (390, 400)},
        warmup=(Op("strip", 60, poly=(2,)),),
    ),
}


@dataclass
class Outcome:
    """What one call returned: an exit code and output, a value, or an exception."""

    code: object = None
    out: str = ""
    err: str = ""
    value: object = None
    raised: Exception | None = None
    peak: int = 0  # tracemalloc peak in bytes, from the memory pass only


def call(qrr, op, memory=False):
    """Run one op; returns (wall seconds, Outcome).  Only qrr's work is timed.

    With ``memory`` only qrr's work is traced by tracemalloc too, and the
    Outcome's ``peak`` is its peak of traced memory in bytes.
    """
    work = _prepare(qrr, op)
    if memory:
        tracemalloc.start()
    t0 = perf_counter()
    outcome = work()
    seconds = perf_counter() - t0
    if memory:
        outcome.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return seconds, outcome


def _prepare(qrr, op):
    """The op's input, made untimed, and a function that sends it to qrr."""
    if op.kind == "strip":
        series = qrr.fps.QSeries(op.order, tuple(oracles.rational_series(op.poly, op.order)))

        def strip():
            try:
                pf = qrr.prodmake.conjecture_product(series)
                pattern = qrr.prodmake.detect_progressions(pf, 12)
            except Exception as exc:  # recorded as this op's failure
                return Outcome(raised=exc)
            return Outcome(value=(pf, pattern))

        return strip
    argv = op.argv()
    out, err = io.StringIO(), io.StringIO()

    def cli():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = qrr.cli.main(argv)
                except SystemExit as exc:  # argparse rejecting the command line
                    code = exc.code
        except Exception as exc:  # recorded as this op's failure
            return Outcome(raised=exc)
        return Outcome(code, out.getvalue(), err.getvalue())

    return cli


class Checker:
    """Compares outcomes with the oracles; holds the prime table the zeta ops share."""

    def __init__(self):
        self._primes = None

    def primes(self, limit):
        if self._primes is None or self._primes.limit < limit:
            self._primes = oracles.PrimeTable(max(limit, 1_000_000))
        return self._primes.up_to(limit)

    def check(self, op, outcome):
        """None if the op's result is right, else a one-line reason."""
        try:
            return self._check(op, outcome)
        except Exception as exc:  # a result of the wrong shape fails the op, not the run
            return "unreadable result: %s: %s" % (type(exc).__name__, exc)

    def _check(self, op, outcome):
        if outcome.raised is not None:
            return "raised %s: %s" % (type(outcome.raised).__name__, outcome.raised)
        if op.kind == "strip":
            return self._check_strip(op, *outcome.value)
        if outcome.code != 0:
            # exit 1 is not taken to mean "mismatch": uncaught errors exit 1 too
            return "exit code %r: %s" % (outcome.code, outcome.err.strip()[-300:])
        try:
            doc = json.loads(outcome.out)
        except ValueError as exc:
            return "output is not JSON: %s" % exc
        wants = getattr(self, "_want_" + op.kind)(op)
        for path, want in wants:
            got = doc
            for key in path:
                got = got[key]
            if got != want:
                return "%s is %s, expected %s" % ("/".join(map(str, path)), _short(got), _short(want))
        return None

    def _want_verify(self, op):
        head = oracles.rr_head(op.identity, op.order)
        return [
            (("status",), "ok"),
            (("verified_to",), op.order),
            (("payload", "sum_head"), head),
            (("payload", "product_head"), head),
            (("payload", "pattern"), oracles.rr_pattern(op.identity)),
        ]

    def _want_discover(self, op):
        return [
            (("status",), "ok"),
            (("payload", "product_form", "factors"), oracles.rr_factors(op.identity, op.order)),
            (("payload", "pattern"), oracles.rr_pattern(op.identity)),
            (("payload", "checked_to_order"), op.order),
        ]

    def _want_zeta(self, op):
        primes = self.primes(op.order)
        return [(("status",), "ok"), (("payload", "primes"), primes), (("payload", "count"), len(primes))]

    def _want_cfrac(self, op):
        agree = oracles.convergent_agreement(op.steps)
        return [
            (("status",), "ok"),
            (("payload", "agrees_through_order"), agree),
            (("verified_to",), agree),
            (("payload", "series_head"), oracles.cfrac_head(op.order)),
            (("payload", "convergents", op.steps - 1, "n"), op.steps),
        ]

    def _check_strip(self, op, pf, pattern):
        want = oracles.necklace_factors(op.poly, op.order)
        if pf.factors != want:
            bad = sorted(set(pf.factors.items()) ^ set(want.items()))[0][0]
            return "multiplicity of (1-q^%d) is %s, expected %s" % (
                bad, _short(pf.factors.get(bad, 0)), _short(want.get(bad, 0)))
        if pattern is not None:
            return "found progression %s in a product of growing multiplicities" % pattern
        return None


def _short(value):
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."
