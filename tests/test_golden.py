"""Golden outputs: the exact stdout bytes and exit code of every subcommand.

Each ``tests/golden/<name>.txt`` is the standard output of the command line
``qrr --format text <args>`` listed under ``<name>`` below, and
``<name>.json`` that of ``qrr --format json <args>``.  A change to any of
these bytes changes what the CLI prints; make it on purpose and rewrite
the file from the command, e.g.

    PYTHONPATH=src python -m qrr.cli --format json zeta -N 100 > tests/golden/zeta-100.json
"""

import hashlib
from pathlib import Path

import pytest

from qrr import cli

GOLDEN = Path(__file__).parent / "golden"
SUFFIX = {"text": "txt", "json": "json"}

COMMANDS = {
    "verify-rr1-30": ["verify", "--identity", "rr1", "-N", "30"],
    "verify-rr2-30": ["verify", "--identity", "rr2", "-N", "30"],
    "discover-rr1-50": ["discover", "--identity", "rr1", "-N", "50"],
    "discover-rr1-3": ["discover", "--identity", "rr1", "-N", "3"],
    "cfrac-golden-8": ["cfrac", "golden", "-n", "8"],
    "cfrac-rr-4-10": ["cfrac", "rr", "-n", "4", "-N", "10"],
    "cfrac-rr-12-10000": ["cfrac", "rr", "-n", "12", "-N", "10000"],
    "zeta-100": ["zeta", "-N", "100"],
    "sum-rr2-20": ["sum", "--identity", "rr2", "-N", "20"],
    "product-rr2-20": ["product", "--identity", "rr2", "-N", "20"],
}

# ``cfrac rr -n 30 -N 1500`` prints about 205 KB in either format, so the
# SHA-256 of its stdout stands in for a golden file.
DIGESTS = {
    "text": "044345d016e51b4b131a012f56d15594b0d1f318595e6bbcb6d39fca2315b692",
    "json": "3dad4cfbc9b49160a6c4c1ab9aeea5be86a74f127b2ddc22faeb909e78938e0d",
}


def golden(name, fmt):
    return (GOLDEN / ("%s.%s" % (name, SUFFIX[fmt]))).read_bytes()


@pytest.mark.parametrize("fmt", SUFFIX)
@pytest.mark.parametrize("name", COMMANDS)
def test_command_output(name, fmt, capsys):
    code = cli.main(["--format", fmt] + COMMANDS[name])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode() == golden(name, fmt)


@pytest.mark.parametrize("fmt", SUFFIX)
def test_mismatch_render(fmt):
    # {1, 3} mod 5 is the wrong product for rr1; only cmd_verify can ask for it
    result = cli.cmd_verify("rr1", 30, residues=frozenset({1, 3}))
    assert result.exit_code() == 1
    assert (cli.render(result, fmt) + "\n").encode() == golden("verify-rr1-30-residues-1-3", fmt)


@pytest.mark.parametrize("fmt", SUFFIX)
def test_large_cfrac_digest(fmt, capsys):
    code = cli.main(["--format", fmt, "cfrac", "rr", "-n", "30", "-N", "1500"])
    captured = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(captured.out.encode()).hexdigest() == DIGESTS[fmt]
