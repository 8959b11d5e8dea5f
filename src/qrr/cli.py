"""Command-line front end: one ``COMMANDS`` entry per subcommand.

Exit codes: 0 everything matched, 1 a coefficient mismatch was found, 2 bad usage, invalid
input or an input too large to compute.  A reader closing the pipe early is no error."""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

from . import cfrac, dirichlet, fps, prodmake, sumside


class Identity(NamedTuple):
    shift: int
    pattern: prodmake.ResiduePattern


IDENTITIES = {
    "rr1": Identity(0, prodmake.ResiduePattern(5, frozenset({1, 4}), -1)),
    "rr2": Identity(1, prodmake.ResiduePattern(5, frozenset({2, 3}), -1)),
}


@dataclass(frozen=True)
class CommandResult:
    """What one subcommand found; its fields are the JSON envelope."""
    command: str
    order: int
    verified_to: int
    payload: dict
    status: str = "ok"  # ok | mismatch | error

    def exit_code(self) -> int:
        return {"ok": 0, "mismatch": 1}.get(self.status, 2)


def first_mismatch(a: fps.QSeries, b: fps.QSeries) -> int | None:
    """Smallest index with differing coefficients, or None if equal."""
    if a.order != b.order:
        raise ValueError("mismatched orders: %d vs %d" % (a.order, b.order))
    if a.coeffs == b.coeffs:
        return None
    return next(k for k, (x, y) in enumerate(zip(a.coeffs, b.coeffs)) if x != y)


def _identity(name: str) -> Identity:
    if name not in IDENTITIES:
        raise ValueError("unknown identity %r (expected rr1 or rr2)" % name)
    return IDENTITIES[name]


def cmd_verify(identity: str, order: int, residues: frozenset[int] | None = None) -> CommandResult:
    """Coefficient-by-coefficient check of sum side vs product side; ``residues``
    overrides the identity's mod-5 residue set, which tests use to reach a mismatch."""
    shift, pattern = _identity(identity)
    if residues is not None:
        pattern = prodmake.ResiduePattern(pattern.modulus, residues, pattern.multiplicity)
    lhs = sumside.rr_sum(shift, order)
    rhs = prodmake.pattern_series(pattern, order)
    payload = dict(identity=identity, pattern=pattern.to_json_dict(),
                   sum_head=fps.head_str(lhs), product_head=fps.head_str(rhs))
    bad = first_mismatch(lhs, rhs)
    if bad is None:
        return CommandResult("verify", order, order, payload)
    payload["first_mismatch"] = dict(index=bad, sum_coefficient=str(lhs.coeffs[bad]),
                                     product_coefficient=str(rhs.coeffs[bad]))
    return CommandResult("verify", order, bad - 1, payload, "mismatch")


def _verify_text(result: CommandResult, p: dict) -> list[str]:
    lines = ["identity %s to order %d: %s" % (p["identity"], result.order, result.status),
             "  sum side:     %(sum_head)s" % p, "  product side: %(product_head)s" % p]
    if result.status == "ok":
        return lines + ["  all %d coefficients match" % (result.order + 1)]
    return lines + ["  first mismatch at q^%(index)d: sum has %(sum_coefficient)s, "
                    "product has %(product_coefficient)s" % p["first_mismatch"]]


def cmd_discover(identity: str, order: int, modulus_max: int) -> CommandResult:
    """Strip the sum side into a product form and hunt for a progression: a conjecture
    checked only up to ``order``, which the payload says explicitly."""
    if order < 1:
        raise ValueError("discovery needs order >= 1, got %d" % order)
    pf = prodmake.conjecture_product(sumside.rr_sum(_identity(identity).shift, order))
    pattern = prodmake.detect_progressions(pf, modulus_max)
    payload = dict(identity=identity, product_form=pf.to_json_dict(), product_display=str(pf),
                   pattern=pattern.to_json_dict() if pattern else None,
                   pattern_display=str(pattern) if pattern else None,
                   conjectured=True, checked_to_order=order)
    return CommandResult("discover", order, order, payload)


def _discover_text(result: CommandResult, p: dict) -> list[str]:
    lines = ["stripped %s to order %d: %s" % (p["identity"], result.order, p["product_display"])]
    if not p["pattern"]:
        return lines + ["  no residue pattern found"]
    return lines + ["  pattern: %s" % p["pattern_display"],
                    "  conjecture (checked to order %d): modulus %d, residues %s"
                    % (p["checked_to_order"], p["pattern"]["modulus"], p["pattern"]["residues"])]


def cmd_cfrac(target: str, steps: int, order: int) -> CommandResult:
    if target == "golden":
        rows = [dict(n=n, numerator=num, denominator=den, value=val)
                for n, num, den, val in cfrac.golden_table(steps)]
        payload = dict(target="golden", rows=rows, error=cfrac.golden_error(steps))
        return CommandResult("cfrac", steps, steps, payload)
    if target != "rr":
        raise ValueError("unknown cfrac target %r (expected golden or rr)" % target)
    hs = cfrac.rr_numerators(steps, order)
    pairs = (cfrac.rr_convergent(hs, n) for n in range(1, steps + 1))
    convergents = [dict(n=n, numerator=str(num), denominator=str(den))
                   for n, (num, den) in enumerate(pairs, 1)]
    series = cfrac.cfrac_series(order)
    bad = first_mismatch(cfrac.rr_convergent_series(hs, steps), series)
    agrees = order if bad is None else bad - 1
    payload = dict(target="rr", convergents=convergents,
                   series_head=fps.head_str(series, 8), agrees_through_order=agrees)
    return CommandResult("cfrac", order, agrees, payload)


def _cfrac_options(target: str, steps: int, order: int | None) -> CommandResult:
    """``cfrac`` from the command line: ``-N`` truncates ``rr`` (default 20), and
    ``golden``, which has no order, refuses it rather than ignore it."""
    if order is not None and target == "golden":
        raise ValueError("-N/--order applies to cfrac rr only")
    return cmd_cfrac(target, steps, 20 if order is None else order)


def _cfrac_text(result: CommandResult, p: dict) -> list[str]:
    if p["target"] == "golden":
        rows = ["%(n)4d  %(numerator)12d  %(denominator)12d  %(value).10f" % r for r in p["rows"]]
        return (["%4s  %12s  %12s  %s" % ("n", "numerator", "denominator", "value")] + rows
                + ["distance from golden mean at n=%d: %.3e" % (result.order, p["error"])])
    return (["c_%(n)d = (%(numerator)s) / (%(denominator)s)" % r for r in p["convergents"]]
            + ["series: %s" % p["series_head"],
               "last convergent agrees with the series through q^%d" % p["agrees_through_order"]])


def cmd_zeta(limit: int) -> CommandResult:
    primes = dirichlet.euler_strip(limit)
    shown = ", ".join(str(p) for p in primes[:3]) + (", ..." if len(primes) > 3 else "")
    display = "zeta(s) = prod over p in {%s} of 1/(1 - p^(-s))" % shown
    payload = dict(limit=limit, primes=primes, count=len(primes), display=display)
    return CommandResult("zeta", limit, limit, payload)


def cmd_sum(identity: str, order: int) -> CommandResult:
    shift, _ = _identity(identity)
    series = sumside.rr_sum(shift, order)
    payload = dict(identity=identity, shift=shift, head=fps.head_str(series),
                   series=series.to_json_dict())
    return CommandResult("sum", order, order, payload)


def cmd_product(identity: str, order: int) -> CommandResult:
    pattern = _identity(identity).pattern
    series = prodmake.pattern_series(pattern, order)  # first, so a huge order fails at once
    payload = dict(identity=identity, pattern=pattern.to_json_dict(), pattern_display=str(pattern),
                   factors=pattern.product_form(order).to_json_dict(), head=fps.head_str(series),
                   series=series.to_json_dict())
    return CommandResult("product", order, order, payload)


def _at_least(name: str, low: int) -> Callable[[str], int]:
    """argparse ``type=``: an integer >= ``low``, refused in the user's terms."""
    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError here as "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError("%s must be >= %d, got %d" % (name, low, value))
        return value
    parse.__name__ = "int"
    return parse


def _order(default=100, help="truncation order (default: %(default)s)") -> tuple:
    return ("-N", "--order"), dict(type=_at_least("order", 0), default=default, help=help)


IDENTITY = ("--identity",), dict(choices=tuple(IDENTITIES), default="rr1",
                                 help="which identity to use (default: %(default)s)")


class Command(NamedTuple):
    help: str
    arguments: tuple  # (flags, add_argument keywords) pairs, in --help order
    run: Callable[..., CommandResult]  # takes the parsed arguments in that order
    text: Callable[[CommandResult, dict], list[str]]  # (result, its payload) -> lines


COMMANDS = {
    "verify": Command("check sum side == product side", (IDENTITY, _order()),
                      cmd_verify, _verify_text),
    "discover": Command("conjecture the product side by stripping",
                        (IDENTITY, _order(), (("--modulus-max",), dict(
                            type=_at_least("modulus bound", 1), default=12,
                            help="largest modulus to try (default: %(default)s)"))),
                        cmd_discover, _discover_text),
    "cfrac": Command("continued fraction convergents",
                     ((("target",), dict(choices=("golden", "rr"))),
                      (("-n", "--steps"), dict(type=_at_least("steps", 1), default=8,
                                               help="convergents to compute")),
                      _order(default=None, help="truncation order, rr only (default: 20)")),
                     _cfrac_options, _cfrac_text),
    "zeta": Command("Euler stripping of the zeta series",
                    (_order(help="series limit (default: %(default)s)"),), cmd_zeta,
                    lambda _, p: [p["display"],
                                  "indices stripped up to %(limit)d: %(primes)s" % p]),
    "sum": Command("print a sum side", (IDENTITY, _order()), cmd_sum,
                   lambda _, p: ["%(identity)s sum side: %(head)s" % p]),
    "product": Command("print a product side", (IDENTITY, _order()), cmd_product,
                       lambda _, p: ["%(identity)s product side: %(pattern_display)s" % p,
                                     "expansion: %(head)s" % p]),
}


def render(result: CommandResult, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(vars(result), sort_keys=True, indent=2)
    if result.status == "error":
        return "error: %s" % result.payload["message"]
    return "\n".join(COMMANDS[result.command].text(result, result.payload))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrr", description="Exact q-series toolkit: verify and rediscover the "
        "Rogers-Ramanujan identities by coefficient matching.")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        dests = [p.add_argument(*flags, **options).dest for flags, options in command.arguments]
        p.set_defaults(run=command.run, dests=dests)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.run(*(getattr(args, dest) for dest in args.dests))
    except (ValueError, OverflowError, MemoryError) as exc:
        message = str(exc) if isinstance(exc, ValueError) else "input too large to compute"
        result = CommandResult(args.command, 0, -1, {"message": message}, "error")
    out = sys.stderr if result.status == "error" else sys.stdout
    try:
        print(render(result, args.format), file=out)
        out.flush()
    except BrokenPipeError:  # the reader left early: keep the flush at exit quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
    return result.exit_code()


if __name__ == "__main__":
    sys.exit(main())
