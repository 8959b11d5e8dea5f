"""Tests for the command-line front end."""

import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from qrr import cli, fps, sumside
from qrr.cli import CommandResult, cmd_cfrac, cmd_discover, cmd_sum, cmd_verify, cmd_zeta
from qrr.fps import QSeries


def cli_child(argv):
    """Arguments for ``subprocess`` that run ``python -m qrr.cli`` on this qrr."""
    paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return dict(args=[sys.executable, "-m", "qrr.cli", *argv], env=env)


class TestFirstMismatch:
    def test_equal_series(self):
        assert cli.first_mismatch(fps.geometric(1, 5), fps.geometric(1, 5)) is None

    def test_reports_smallest_index(self):
        a = QSeries(4, (1, 1, 2, 1, 1))
        b = QSeries(4, (1, 1, 3, 9, 9))
        assert cli.first_mismatch(a, b) == 2

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            cli.first_mismatch(fps.one(3), fps.one(4))


class TestVerify:
    def test_rr1_small_order(self):
        result = cmd_verify("rr1", 4)
        assert result.status == "ok"
        assert result.verified_to == 4
        assert result.payload["sum_head"] == result.payload["product_head"]
        assert result.exit_code() == 0

    def test_rr1_order_zero(self):
        assert cmd_verify("rr1", 0).status == "ok"

    def test_rr2_medium_order(self):
        assert cmd_verify("rr2", 200).status == "ok"

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            cmd_verify("rr3", 10)

    def test_wrong_residues_report_first_mismatch(self):
        # {1, 3} mod 5 first disagrees at q^3: the product counts the
        # partition 3 = 3 as well as 1+1+1, the sum side has only one way
        result = cmd_verify("rr1", 30, residues=frozenset({1, 3}))
        assert result.status == "mismatch"
        assert result.exit_code() == 1
        mismatch = result.payload["first_mismatch"]
        assert mismatch["index"] == 3
        assert mismatch["sum_coefficient"] == "1"
        assert mismatch["product_coefficient"] == "2"
        assert result.verified_to == 2


class TestDiscover:
    def test_rr1_finds_mod_five_pattern(self):
        result = cmd_discover("rr1", 50, 12)
        assert result.status == "ok"
        assert result.payload["pattern"] == {
            "modulus": 5,
            "residues": [1, 4],
            "multiplicity": -1,
        }
        assert result.payload["conjectured"] is True
        assert result.payload["checked_to_order"] == 50

    def test_rr2_finds_mod_five_pattern(self):
        result = cmd_discover("rr2", 50, 12)
        assert result.payload["pattern"]["residues"] == [2, 3]

    def test_short_series_gives_no_pattern(self):
        # only the exponent 1 is stripped at order 3; every modulus is
        # underdetermined, so nothing is reported
        result = cmd_discover("rr1", 3, 12)
        assert result.status == "ok"
        assert result.payload["product_form"] == {"factors": [{"e": 1, "m": -1}]}
        assert result.payload["pattern"] is None

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            cmd_discover("rr1", 0, 12)


class TestCfrac:
    def test_golden_table(self):
        result = cmd_cfrac("golden", 5, 0)
        rows = result.payload["rows"]
        assert [(r["numerator"], r["denominator"]) for r in rows] == [
            (1, 1),
            (2, 1),
            (3, 2),
            (5, 3),
            (8, 5),
        ]

    def test_rr_convergent_polynomials(self):
        result = cmd_cfrac("rr", 4, 10)
        conv = result.payload["convergents"]
        assert conv[3]["numerator"] == "1+zq+zq^2+zq^3+zq^4+z^2q^4+z^2q^5+z^2q^6"
        assert conv[3]["denominator"] == "1+zq^2+zq^3+zq^4+z^2q^6"
        assert result.payload["agrees_through_order"] == 10

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            cmd_cfrac("silver", 5, 10)


class TestZeta:
    def test_thirty(self):
        result = cmd_zeta(30)
        assert result.payload["primes"] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert result.payload["count"] == 10
        assert result.payload["display"].startswith("zeta(s) = prod over p in {2, 3, 5")


class TestSumAndProduct:
    def test_sum_head_shows_leading_terms(self):
        result = cmd_sum("rr1", 20)
        assert result.payload["head"] == "1 + q + q^2 + q^3 + 2*q^4 + ..."
        assert result.payload["series"]["coeffs"][:5] == ["1", "1", "1", "1", "2"]

    def test_product_pattern_display(self):
        result = cli.cmd_product("rr2", 20)
        assert result.payload["pattern_display"] == "1/((1-q^(5m+2))(1-q^(5m+3)))"
        assert result.payload["head"] == "1 + q^2 + q^3 + q^4 + q^5 + ..."


class TestResultEnvelope:
    def test_exit_codes(self):
        assert CommandResult("x", 1, 1, {}, "ok").exit_code() == 0
        assert CommandResult("x", 1, 0, {}, "mismatch").exit_code() == 1
        assert CommandResult("x", 1, -1, {}, "error").exit_code() == 2

    def test_json_rendering_is_deterministic(self):
        a = cli.render(cmd_discover("rr1", 50, 12), "json")
        b = cli.render(cmd_discover("rr1", 50, 12), "json")
        assert a == b
        parsed = json.loads(a)
        assert parsed["command"] == "discover"
        assert parsed["status"] == "ok"

    def test_json_keys_sorted(self):
        text = cli.render(cmd_verify("rr1", 5), "json")
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)


class TestMain:
    def test_verify_ok_exit_zero(self, capsys):
        assert cli.main(["verify", "--identity", "rr1", "-N", "10"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "11 coefficients match" in out

    def test_json_format_flag(self, capsys):
        assert cli.main(["--format", "json", "zeta", "-N", "30"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["payload"]["primes"][:4] == [2, 3, 5, 7]

    def test_discover_text_output(self, capsys):
        assert cli.main(["discover", "--identity", "rr2", "-N", "50"]) == 0
        out = capsys.readouterr().out
        assert "1/((1-q^(5m+2))(1-q^(5m+3)))" in out

    def test_cfrac_golden_text(self, capsys):
        assert cli.main(["cfrac", "golden", "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "8" in out and "5" in out

    def test_input_error_exit_two(self, capsys):
        assert cli.main(["discover", "-N", "0"]) == 2
        err = capsys.readouterr().err
        assert "order >= 1" in err

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cfrac", "bogus"])
        assert exc.value.code == 2

    def test_missing_command_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestHelp:
    # the usage line of each subcommand pins its flags; no option is added or lost
    USAGE = {
        None: "usage: qrr [-h] [--format {text,json}] {verify,discover,cfrac,zeta,sum,product} ...",
        "verify": "usage: qrr verify [-h] [--identity {rr1,rr2}] [-N ORDER]",
        "discover": "usage: qrr discover [-h] [--identity {rr1,rr2}] [-N ORDER] "
        "[--modulus-max MODULUS_MAX]",
        "cfrac": "usage: qrr cfrac [-h] [-n STEPS] [-N ORDER] {golden,rr}",
        "zeta": "usage: qrr zeta [-h] [-N ORDER]",
        "sum": "usage: qrr sum [-h] [--identity {rr1,rr2}] [-N ORDER]",
        "product": "usage: qrr product [-h] [--identity {rr1,rr2}] [-N ORDER]",
    }

    @pytest.mark.parametrize("command", USAGE)
    def test_usage_line(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # one usage line, whatever the terminal
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.splitlines()[0] == self.USAGE[command]


class TestInputBounds:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "-N", "-1"], "order must be >= 0, got -1"),
            (["cfrac", "rr", "-n", "3", "-N", "-2"], "order must be >= 0, got -2"),
            (["zeta", "-N", "-5"], "order must be >= 0, got -5"),
            (["cfrac", "rr", "-n", "0"], "steps must be >= 1, got 0"),
            (["cfrac", "golden", "-n", "-4"], "steps must be >= 1, got -4"),
            (["discover", "--modulus-max", "0"], "modulus bound must be >= 1, got 0"),
            (["sum", "-N", "ten"], "invalid int value: 'ten'"),
        ],
    )
    def test_rejected_up_front(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "outside order" not in err and "Traceback" not in err


class TestExitCodes:
    def test_overflow_exits_two_with_one_line(self, capsys):
        assert cli.main(["sum", "-N", "100000000000000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: input too large to compute\n"

    def test_memory_error_exits_two_with_one_line(self, capsys, monkeypatch):
        def exhausted(shift, order):
            raise MemoryError

        monkeypatch.setattr(sumside, "rr_sum", exhausted)
        assert cli.main(["--format", "json", "sum", "-N", "5"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["status"] == "error"
        assert err["payload"] == {"message": "input too large to compute"}

    @pytest.mark.parametrize("order", ["0", "5", "500"])
    def test_cfrac_golden_refuses_an_order(self, order, capsys):
        # golden has no truncation order, so -N is refused instead of ignored
        assert cli.main(["cfrac", "golden", "-n", "3", "-N", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: -N/--order applies to cfrac rr only\n"

    def test_cfrac_rr_order_defaults_to_twenty(self, capsys):
        assert cli.main(["--format", "json", "cfrac", "rr", "-n", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == 20

    def test_closed_pipe_is_quiet(self):
        # the read end is closed before the CLI writes a byte, so every write
        # to its stdout fails with EPIPE, as under `qrr zeta ... | head -c 10`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(**cli_child(["zeta", "-N", "100000"]), stdout=write_end,
                                  stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 0

    @pytest.mark.parametrize("argv", [
        *(pytest.param([command, "-N", "1000000000001"], id=command)
          for command in ["sum", "verify", "discover", "product"]),
        pytest.param(["cfrac", "rr", "-n", "100000000000", "-N", "10"], id="cfrac-steps"),
    ])
    def test_huge_order_fails_at_once(self, argv):
        # 10^12 + 1 is not a square, so the sum's innermost level is small, and
        # 10^11 convergent steps at order 10 are each cheap: only an allocation
        # of the full output before any work fails at once.  The child may
        # take 1 GiB and 30 s of CPU, and must stop far below both.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            resource.setrlimit(resource.RLIMIT_CPU, (30, 30))

        with subprocess.Popen(**cli_child(argv), preexec_fn=cap,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            out, err = proc.stdout.read(), proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        assert (proc.returncode, out, err) == (2, b"", b"error: input too large to compute\n")
        assert usage.ru_maxrss < 256 * 1024  # KiB
        assert usage.ru_utime + usage.ru_stime < 10

    def test_closed_pipe_leaves_no_descriptor_open(self, monkeypatch):
        # stdout's descriptor is pointed at the null device; the descriptor
        # opened for that must be closed again
        class ClosedPipe(io.StringIO):
            def __init__(self, fd):
                super().__init__()
                self.fd = fd

            def fileno(self):
                return self.fd

            def flush(self):
                raise BrokenPipeError

        opened, real_open = [], os.open
        monkeypatch.setattr(cli.os, "open", lambda *a: opened.append(real_open(*a)) or opened[-1])
        read_end, write_end = os.pipe()
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(write_end))
            assert cli.main(["zeta", "-N", "10"]) == 0
        finally:
            os.close(read_end)
            os.close(write_end)
        assert len(opened) == 1
        with pytest.raises(OSError):
            os.fstat(opened[0])
