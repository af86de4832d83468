"""The per-integer path, pinned by sha256.

is_s_normal, classify and the normal-primes subcommand read one integer
at a time through factorize and the window scan.  A rewrite of either
must leave every report below as it is, down to the worst window's
floats and the wording of each failed condition.
"""

import hashlib
import math

from phisigma import af_params, classify, cli, is_s_normal, primes_up_to

S_VALUES = (math.exp(math.e), 16.0, 20.0, 1000.0)
S_NORMAL_SHA256 = "2f1b78cb7bb76c47d7009d662329d4ba154f350cb87d7c337dd9ea58bd8f54cd"

CLASSIFY_XS = (1e4, 1e6)
CLASSIFY_SHA256 = "68fd4fe43f50263b25584939b6d86da8a60848659764c163d7b370c0d19ea6ff"

NORMAL_PRIMES_ARGV = ["normal-primes", "--x", "1e5", "--S", "16", "--sample", "500"]
NORMAL_PRIMES_SHA256 = "2ae14f278b4d5f2c72ccb27d7cedd27efa538534f48380aff2d3f03b4cf341f6"


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_s_normal_reports_pinned():
    primes = [int(p) for p in primes_up_to(2 * 10**4)]
    assert _digest(repr(is_s_normal(p, S)) for S in S_VALUES for p in primes) == S_NORMAL_SHA256


def test_classify_reports_pinned():
    def reports():
        for x in CLASSIFY_XS:
            params = af_params(x)
            for f_tag in ("phi", "sigma"):
                for n in range(2, 2001):
                    r = classify(n, f_tag, params)
                    yield repr((r.cond, r.member, r.applicable, r.detail))

    assert _digest(reports()) == CLASSIFY_SHA256


def test_normal_primes_stdout_pinned(capsys):
    assert cli.main(NORMAL_PRIMES_ARGV) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == NORMAL_PRIMES_SHA256
