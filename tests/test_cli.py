import json
import os
import subprocess
import sys
import threading
import time

import pytest

CLI = [sys.executable, "-m", "phisigma.cli"]


def run_cli(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300, **kw
    )


def test_importing_the_cli_loads_no_scipy():
    # importing scipy takes ~0.3 s, several times the CLI's own start-up;
    # simplex_volume_exact, its only user, imports it when called
    code = "import sys, phisigma.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_values_table_csv_first_row():
    r = run_cli("values-table", "--limits", "1e4")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "N,V_phi,V_sigma,V_common,ratio_phi,ratio_sigma"
    assert lines[1] == "10000,2374,2503,1368,0.5762426,0.5465441"


def test_values_table_json_format():
    r = run_cli("values-table", "--limits", "100", "--format", "json")
    rows = json.loads(r.stdout)
    assert rows[0]["N"] == 100


def test_constants_rho_prefix():
    r = run_cli("constants", "--tol", "1e-12")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert f"{payload['rho']:.12f}".startswith("0.542598586098")
    assert set(payload) == {"rho", "f_prime_rho", "C", "D", "tol"}


def test_smooth_count_json():
    r = run_cli("smooth-count", "--x", "10", "--y", "2")
    assert json.loads(r.stdout)["psi_exact"] == 4


def test_simplex_volume_deterministic_given_seed():
    a = run_cli("simplex-volume", "--L", "2", "--xi", "1", "--samples", "1e5",
                "--seed", "11")
    b = run_cli("simplex-volume", "--L", "2", "--xi", "1", "--samples", "1e5",
                "--seed", "11")
    assert a.stdout == b.stdout
    assert json.loads(a.stdout)["samples"] == 10**5


def test_normal_primes_csv_schema():
    r = run_cli("normal-primes", "--x", "500", "--S", "16", "--sample", "10")
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "p,passed_phi,passed_sigma,worst_margin"
    assert len(lines) == 11


def test_normal_primes_margin_column_matches_windows():
    import math

    from phisigma import is_s_normal

    r = run_cli("normal-primes", "--x", "3e4", "--S", "16", "--sample", "1000")
    lls = math.log(math.log(16.0))
    rows = [line.split(",") for line in r.stdout.strip().split("\n")[1:]]
    assert len(rows) == 1000
    for p, _, _, margin in rows:
        rep = is_s_normal(int(p), 16.0)
        if rep.worst_window is None:
            assert margin == ""
            continue
        # the margin re-derived from the reported window, as printed
        _, t, obs, exp = rep.worst_window
        again = abs(obs - exp) - math.sqrt(lls * math.log(math.log(t)))
        assert margin == f"{rep.worst_margin:.6f}" == f"{again:.6f}", p


def test_omega_census_fields():
    r = run_cli("omega-census", "--x", "1000", "--alpha", "3")
    payload = json.loads(r.stdout)
    assert payload["observed"] == 60


def strict_json(text: str):
    """json.loads refusing NaN and Infinity, which RFC 8259 does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_omega_census_ratio_null_where_the_shape_underflows():
    # at alpha = 600 the bound shape underflows to 0.0; at 500 it does not
    for alpha, ratio in (("600", None), ("500", 0.0)):
        r = run_cli("omega-census", "--x", "1000", "--alpha", alpha)
        payload = strict_json(r.stdout)
        assert payload["observed"] == 0 and payload["ratio"] == ratio
        assert (payload["bound_shape"] == 0.0) == (ratio is None)


def test_classify_json_report():
    r = run_cli("classify", "--n", "1024", "--f", "phi", "--x", "1e6")
    payload = json.loads(r.stdout)
    assert payload["applicable"] is True
    assert len(payload["cond"]) == 9
    assert payload["params"]["S_overridden"] is True


def test_classify_s_override_flag():
    r = run_cli("classify", "--n", "30", "--f", "sigma", "--x", "1e6",
                "--S-override", "100")
    assert json.loads(r.stdout)["params"]["S_effective"] == 100.0


def test_capture_census_json():
    r = run_cli("capture-census", "--f", "sigma", "--x", "1000")
    payload = json.loads(r.stdout)
    assert payload["total_values"] >= payload["values_with_outside_preimage"]


def test_rl_sum_json():
    r = run_cli("rl-sum", "--f", "phi", "--x", "100", "--L", "2")
    assert json.loads(r.stdout)["value"] > 1.0


def test_xi_flag_accepts_custom_weight_list():
    r = run_cli("simplex-volume", "--L", "3", "--xi", "1.05,1.1",
                "--samples", "1e4", "--seed", "2")
    assert r.returncode == 0
    unit = run_cli("simplex-volume", "--L", "3", "--xi", "1",
                   "--samples", "1e4", "--seed", "2")
    assert json.loads(r.stdout)["mean"] >= json.loads(unit.stdout)["mean"]


def test_xi_default_profile():
    r = run_cli("rl-sum", "--f", "phi", "--x", "1000", "--L", "3",
                "--xi", "default")
    payload = json.loads(r.stdout)
    assert payload["xi"] == [1.0 + 1.0 / (10 * 27), 1.0 + 1.0 / (10 * 8)]


def test_unknown_flag_exits_64_without_output(tmp_path):
    out = tmp_path / "r.csv"
    r = run_cli("values-table", "--limits", "10", "--bogus", "--output", str(out))
    assert r.returncode == 64
    assert not out.exists()
    assert r.stdout == ""


def test_format_outside_subcommand_support_exits_64():
    for args in (("constants", "--format", "csv"),
                 ("normal-primes", "--x", "100", "--S", "16", "--format", "json"),
                 ("--format", "csv", "rl-sum", "--f", "phi", "--x", "100", "--L", "2")):
        r = run_cli(*args)
        assert r.returncode == 64, args
        assert r.stdout == ""
        assert "usage error" in r.stderr


def test_format_naming_the_default_is_accepted():
    assert run_cli("constants", "--format", "json").returncode == 0
    r = run_cli("normal-primes", "--x", "100", "--S", "16", "--sample", "3",
                "--format", "csv")
    assert r.returncode == 0
    assert r.stdout.startswith("p,passed_phi")


def test_domain_error_exit_1():
    r = run_cli("omega-census", "--x", "1000", "--alpha", "0.5")
    assert r.returncode == 1
    assert "domain error" in r.stderr


def test_resource_error_exit_2():
    r = run_cli("capture-census", "--f", "phi", "--x", "1e13")
    assert r.returncode == 2
    assert "resource error" in r.stderr


@pytest.mark.parametrize("argv", [
    ("values-table", "--limits", "1e3,1e400"),
    ("normal-primes", "--x", "1e400", "--S", "16"),
], ids=["values-table", "normal-primes"])
def test_flag_past_the_input_cap_exits_2(capsys, argv):
    # parsed exactly, and refused by the input cap before anything is cut or sieved
    code, out = _main(capsys, *argv)
    assert code == 2
    assert out.out == ""
    assert "exceeds the 10^12 input cap" in out.err


def test_thread_count_never_changes_bytes():
    pairs = [
        ("values-table", "--limits", "1000"),
        ("simplex-volume", "--L", "3", "--samples", "2e5", "--seed", "5"),
        ("smooth-count", "--x", "1000", "--y", "7"),
        ("rl-sum", "--f", "sigma", "--x", "1000", "--L", "2"),
    ]
    for args in pairs:
        one = run_cli(*args, "--threads", "1")
        eight = run_cli(*args, "--threads", "8")
        assert one.stdout == eight.stdout, args
    # the scans run on worker threads; 1e6 is four windows of [2, x]
    for args in (("values-table", "--limits", "1e4,1e5"),
                 ("capture-census", "--f", "sigma", "--x", "1e5"),
                 ("smooth-count", "--x", "1e6", "--y", "100"),
                 ("omega-census", "--x", "1e6", "--alpha", "1.5"),
                 *(("rl-sum", "--f", f, "--x", "1e6", "--L", "3", "--offset", offset)
                   for f in ("phi", "sigma") for offset in ("from_p0", "from_p1"))):
        outs = [run_cli(*args, "--threads", t) for t in ("1", "2", "3")]
        assert outs[0].returncode == 0, outs[0].stderr
        assert outs[0].stdout == outs[1].stdout == outs[2].stdout, args


def test_simplex_volume_threads_split_batches_same_bytes():
    args = ("simplex-volume", "--L", "4", "--samples", "2e6", "--seed", "3")
    outs = [run_cli(*args, "--threads", t).stdout for t in ("1", "2", "3")]
    assert outs[0] and outs[0] == outs[1] == outs[2]


def test_simplex_volume_passes_threads(monkeypatch, capsys):
    from phisigma import cli, structure

    seen = {}
    real = structure.simplex_volume_mc

    def spy(spec, samples, seed, *, threads=1):
        seen["threads"] = threads
        return real(spec, samples, seed, threads=threads)

    monkeypatch.setattr(structure, "simplex_volume_mc", spy)
    assert cli.main(["simplex-volume", "--L", "2", "--samples", "1e3", "--threads", "5"]) == 0
    assert seen == {"threads": 5}
    assert json.loads(capsys.readouterr().out)["samples"] == 1000


@pytest.mark.parametrize("argv", [
    ["values-table", "--limits", "100,1000"],
    ["capture-census", "--f", "phi", "--x", "1000"],
])
def test_value_scans_pass_threads(monkeypatch, capsys, argv):
    from phisigma import cli, value_sets

    seen = []
    real = value_sets.build_value_bitmap

    def spy(f, x, *, threads=1):
        seen.append(threads)
        return real(f, x, threads=threads)

    monkeypatch.setattr(value_sets, "build_value_bitmap", spy)
    assert cli.main(argv + ["--threads", "5"]) == 0
    assert seen and set(seen) == {5}
    assert capsys.readouterr().out


@pytest.mark.parametrize("argv,module,name", [
    (["smooth-count", "--x", "1000", "--y", "7"], "anatomy", "psi_smooth_count"),
    (["omega-census", "--x", "1000", "--alpha", "1.5"], "anatomy", "omega_tail_census"),
    (["rl-sum", "--f", "phi", "--x", "1000", "--L", "3"], "structure", "r_l_sum"),
])
def test_census_scans_pass_threads(monkeypatch, capsys, argv, module, name):
    import importlib

    from phisigma import cli

    mod = importlib.import_module(f"phisigma.{module}")
    seen = []
    real = getattr(mod, name)

    def spy(*args, threads=1):
        seen.append(threads)
        return real(*args, threads=threads)

    monkeypatch.setattr(mod, name, spy)
    assert cli.main(argv + ["--threads", "5"]) == 0
    assert seen == [5]
    assert capsys.readouterr().out


def _subcommands():
    from phisigma import cli

    [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    return sorted(sub.choices)


# one small run of each subcommand; where a subcommand has units of work to
# deal (scan windows of 2^10 integers, Monte Carlo batches), it has several
_ONE_RUN = {
    "capture-census": ["--f", "sigma", "--x", "1e4"],
    "classify": ["--n", "4620", "--f", "phi", "--x", "1e6"],
    "constants": [],
    "normal-primes": ["--x", "1000", "--S", "16", "--sample", "5"],
    "omega-census": ["--x", "1e4", "--alpha", "1.5"],
    "rl-sum": ["--f", "phi", "--x", "1e4", "--L", "3"],
    "simplex-volume": ["--L", "2", "--samples", "1.1e6"],
    "smooth-count": ["--x", "1e4", "--y", "7"],
    "values-table": ["--limits", "1e4"],
}


@pytest.mark.parametrize("command", _subcommands())
def test_threads_help_names_exactly_the_threaded_subcommands(monkeypatch, capsys, command):
    # a subcommand reaches more than one worker exactly when the --threads
    # help names it, so the flag and its documentation cannot drift apart
    import os

    from phisigma import cli, sieve, workers

    [flag] = [a for a in cli.build_parser()._actions if "--threads" in a.option_strings]
    named = {c for c in _subcommands() if c in flag.help}
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_SIZE", 1 << 10)
    ran = []
    real = workers.run_workers
    monkeypatch.setattr(workers, "run_workers", lambda n, task: (ran.append(n), real(n, task)))
    assert cli.main([command, *_ONE_RUN[command], "--threads", "5"]) == 0
    assert capsys.readouterr().out
    assert (max(ran, default=1) > 1) == (command in named), (command, ran)


def test_output_file_written_atomically(tmp_path):
    out = tmp_path / "table.csv"
    r = run_cli("values-table", "--limits", "100", "--output", str(out))
    assert r.returncode == 0
    assert out.read_text().startswith("N,V_phi")
    assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_output_file_mode_follows_umask(capsys, tmp_path, umask, mode):
    # as a shell redirect would make it, not the private mode of the temporary file
    out = tmp_path / "table.csv"
    old = os.umask(umask)
    try:
        code, _ = _main(capsys, "values-table", "--limits", "100", "--output", str(out))
    finally:
        os.umask(old)
    assert code == 0
    assert out.stat().st_mode & 0o777 == mode


@pytest.mark.parametrize("is_dir", [False, True], ids=["missing-dir", "a-dir"])
def test_unwritable_output_exits_64_without_leftovers(capsys, tmp_path, is_dir):
    # a missing directory fails at the temporary file, a directory at the rename
    d = tmp_path / "d"
    if is_dir:
        d.mkdir()
    out = d if is_dir else d / "x.csv"
    code, got = _main(capsys, "values-table", "--limits", "100", "--output", str(out))
    assert code == 64
    assert got.out == ""
    assert got.err.startswith(f"usage error: cannot write --output {out}: ")
    assert [p.name for p in tmp_path.rglob("*")] == (["d"] if is_dir else [])


def test_seed_flag_accepted_before_subcommand():
    r = run_cli("--seed", "11", "simplex-volume", "--L", "2", "--samples", "1e4")
    assert json.loads(r.stdout)["seed"] == 11


def _main(capsys, *argv):
    from phisigma import cli

    code = cli.main(list(argv))
    return code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("simplex-volume", "--L", "1e400"),
    ("simplex-volume", "--L", "1e13"),
    ("simplex-volume", "--L", "171"),
    ("simplex-volume", "--L", "1e13", "--xi", "default"),
    ("simplex-volume", "--L", "3", "--samples", "1e13"),
    ("rl-sum", "--f", "phi", "--x", "1000", "--L", "1e13"),
], ids=["L-1e400", "L-1e13", "L-171", "L-1e13-default-xi", "samples-1e13", "rl-sum-L-1e13"])
def test_unbounded_simplex_flags_refused_at_once(monkeypatch, capsys, tmp_path, argv):
    # refused before anything is built, drawn or started: L past MAX_L
    # (1/L! must be a double) and samples past MC_SAMPLE_CAP
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    out = tmp_path / "out.json"
    t0 = time.monotonic()
    code, got = _main(capsys, *argv, "--output", str(out))
    assert time.monotonic() - t0 < 5.0
    assert code in (1, 2, 64)
    assert got.out == "" and "Traceback" not in got.err
    assert ("resource error" if "--samples" in argv else "domain error") in got.err
    assert not out.exists() and not started


# every subcommand with small, valid values for its required flags, and
# its integer and real flags, which FLAG_CASES set one at a time; a flag
# in REMOVED no longer exists and exits 64 at every value
SUBCOMMANDS = {
    "values-table": (["--limits=100"], ["--limits"]),
    "constants": ([], ["--tol"]),
    "simplex-volume": (["--L=3", "--samples=1000"], ["--L", "--samples", "--xi"]),
    "normal-primes": (["--x=100", "--S=20", "--sample=5"], ["--x", "--S", "--sample"]),
    "smooth-count": (["--x=1000", "--y=10"], ["--x", "--y"]),
    "omega-census": (["--x=1000", "--alpha=1.5"], ["--x", "--alpha"]),
    "classify": (["--n=1000", "--f=phi", "--x=1e4"], ["--n", "--x", "--epsilon", "--S-override"]),
    "capture-census": (["--f=phi", "--x=1000"], ["--x", "--epsilon", "--S-override"]),
    "rl-sum": (["--f=phi", "--x=1000", "--L=3"], ["--x", "--L", "--xi"]),
}
REMOVED = {("capture-census", "--S-override")}
MAX = "1.7976931348623157e308"  # the largest double
EXTREMES = ["1e13", "1e400", "-1", "0", "nan", "inf", MAX]
FLAG_CASES = [(cmd, flag, value) for cmd, (_, flags) in SUBCOMMANDS.items()
              for flag in [*flags, "--threads", "--seed"] for value in EXTREMES]
# the extremes inside a flag's domain, which run to completion
IN_DOMAIN = {
    *((cmd, "--threads", v) for cmd in SUBCOMMANDS for v in ("1e13", "1e400", MAX)),
    *((cmd, "--seed", v) for cmd in ("simplex-volume", "normal-primes") for v in ("1e13", "0")),
    *((cmd, flag, v) for cmd, flag in (
        ("constants", "--tol"), ("simplex-volume", "--xi"), ("rl-sum", "--xi"),
        ("normal-primes", "--S"), ("omega-census", "--alpha"), ("classify", "--S-override"),
        ("classify", "--x")) for v in ("1e13", MAX)),
    *(("normal-primes", "--sample", v) for v in ("1e13", "1e400", "0", MAX)),
    *(("smooth-count", "--y", v) for v in ("1e13", "1e400", MAX)),
    *(("classify", "--n", v) for v in ("1e13", "1e400", MAX)),
}


@pytest.mark.parametrize("cmd, flag, value", FLAG_CASES,
                         ids=[f"{cmd}{flag}={value}" for cmd, flag, value in FLAG_CASES])
def test_every_flag_at_its_extremes(monkeypatch, capsys, tmp_path, cmd, flag, value):
    # an extreme outside the flag's domain is refused at once, with a
    # message, no traceback and no output file; one inside it runs.
    # --threads 1e400 runs no more workers than there are CPUs
    # (workers.worker_count), and a budget of 256 MB bounds what a case
    # may allocate
    from phisigma import workers

    monkeypatch.setenv("PHISIGMA_MEMORY_BUDGET", str(256 << 20))
    runs = []
    real_run = workers.run_workers
    monkeypatch.setattr(workers, "run_workers", lambda n, task: (runs.append(n), real_run(n, task)))
    required, _ = SUBCOMMANDS[cmd]
    xi = flag == "--xi"  # L = 3 takes two weights
    argv = [cmd, *(a for a in required if not a.startswith(flag + "=")),
            f"{flag}={value},{value}" if xi else f"{flag}={value}"]
    out = tmp_path / "out.txt"
    t0 = time.monotonic()
    code, got = _main(capsys, *argv, "--output", str(out))
    assert time.monotonic() - t0 < 5.0
    assert "Traceback" not in got.err and got.out == ""
    assert all(n <= (os.cpu_count() or 1) for n in runs)
    if (cmd, flag) in REMOVED:
        assert code == 64 and got.err.startswith("usage error") and not out.exists()
    elif (cmd, flag, value) in IN_DOMAIN:
        assert code == 0 and out.exists(), got.err
        if cmd not in ("values-table", "normal-primes"):  # CSV by default
            strict_json(out.read_text())
    else:
        assert code in (1, 2, 64) and got.err.split(":")[0] in (
            "domain error", "resource error", "usage error")
        assert not out.exists()


@pytest.mark.parametrize("x, code", [("100", 0), ("1e300", 2)])
def test_classify_large_prime_decided_before_any_trial_division(capsys, tmp_path, x, code):
    # n = 10^18 + 3 is prime, and factoring it takes some 5 * 10^8 odd
    # trial divisors: at x = 100, phi(n) >= sqrt(n/2) > x says not
    # applicable from n alone; at x = 1e300 nothing does, and n is past
    # the 10^12 input cap
    out = tmp_path / "out.json"
    t0 = time.monotonic()
    got_code, got = _main(capsys, "classify", "--n", "1000000000000000003", "--f", "phi",
                          "--x", x, "--output", str(out))
    assert time.monotonic() - t0 < 5.0
    assert got_code == code and "Traceback" not in got.err
    if code == 0:
        payload = json.loads(out.read_text())
        assert payload["applicable"] is False
        assert payload["detail"] == {"not_applicable": "phi(n) >= sqrt(n/2) > x = 100"}
    else:
        assert got.err.startswith("resource error") and not out.exists()


@pytest.mark.parametrize("y", ["inf", "nan"])
def test_non_finite_integer_flag_exits_64(capsys, y):
    code, out = _main(capsys, "smooth-count", "--x", "10", "--y", y)
    assert code == 64
    assert out.out == ""
    assert "usage error" in out.err


@pytest.mark.parametrize("y", ["1.5", "1e-1", "12.5e-1", "4/2", "-inf", "1e", "abc", ".", "1e4300",
                               "1e9999999999"])
def test_non_integer_flag_exits_64(capsys, y):
    code, out = _main(capsys, "smooth-count", "--x", "10", "--y", y)
    assert code == 64
    assert out.out == ""
    assert "usage error" in out.err


@pytest.mark.parametrize("text,value", [
    ("1e23", 10**23), ("1e400", 10**400), ("1E9", 10**9), ("2.5e1", 25),
    ("-3e2", -300), ("1.000e3", 1000), (" 7 ", 7), ("120e-1", 12), ("1.", 1),
    ("-0.0e5", 0), ("1e4299", 10**4299),
], ids=["1e23", "1e400", "1E9", "2.5e1", "-3e2", "1.000e3", "spaces", "120e-1", "1.",
        "-0.0e5", "1e4299"])
def test_integer_flag_parsed_exactly(text, value):
    # exactly, not through float: 1e23 as a double is 99999999999999991611392
    from phisigma import cli

    assert cli._int_arg(text) == value
    assert cli._limits_arg(f"{text},{text}") == [value, value]


@pytest.mark.parametrize("limits", ["1e4,,1e5", ",", "1e4,", ""])
def test_empty_limits_item_exits_64(capsys, limits):
    # an empty item is refused, not dropped: "1e4,,1e5" must not run as "1e4,1e5"
    code, out = _main(capsys, "values-table", "--limits", limits)
    assert code == 64
    assert out.out == ""
    assert "usage error" in out.err


@pytest.mark.parametrize("argv", [
    ("normal-primes", "--x", "100", "--S", "16", "--sample", "-1"),
    ("normal-primes", "--x", "100", "--S", "16", "--seed", "-1"),
    ("normal-primes", "--x", "100", "--S", "16", "--seed", str(1 << 128)),
    ("simplex-volume", "--L", "2", "--samples", "1e3", "--seed", "-1"),
    ("simplex-volume", "--L", "2", "--samples", "1e3", "--seed", str(1 << 128)),
    ("simplex-volume", "--L", "3", "--xi", "nan,1", "--samples", "1e3"),
    ("rl-sum", "--f", "phi", "--x", "1000", "--L", "2", "--xi", "inf"),
    ("omega-census", "--x", "1000", "--alpha", "nan"),
    ("normal-primes", "--x", "100", "--S", "nan"),
    ("classify", "--n", "10", "--f", "phi", "--x", "inf"),
    ("classify", "--n", "10", "--f", "phi", "--x", "1000", "--S-override", "nan"),
    ("normal-primes", "--x", "100", "--S", "inf"),
    ("classify", "--n", "10", "--f", "phi", "--x", "1000", "--S-override", "inf"),
    ("constants", "--tol", "inf"),
    ("constants", "--tol", "nan"),
    ("normal-primes", "--x", "100", "--S", "nan", "--sample", "0"),
    ("normal-primes", "--x", "100", "--S", "10", "--sample", "0"),
], ids=["sample", "np-seed", "np-seed-2^128", "mc-seed", "mc-seed-2^128", "xi-nan", "xi-inf",
        "alpha-nan", "S-nan", "x-inf", "S-override-nan", "S-inf", "S-override-inf",
        "tol-inf", "tol-nan", "S-nan-no-sample", "S-below-e^e-no-sample"])
def test_bad_values_exit_1_without_output(capsys, argv):
    code, out = _main(capsys, *argv)
    assert code == 1
    assert out.out == ""
    assert "domain error" in out.err


@pytest.mark.parametrize("argv", [
    ("values-table", "--limits", "100", "--seed", "3"),
    ("--seed", "3", "values-table", "--limits", "100"),
    ("smooth-count", "--x", "10", "--y", "2", "--seed", "3"),
    ("--seed", "3", "constants"),
])
def test_seed_on_a_subcommand_that_draws_nothing_exits_64(capsys, argv):
    code, out = _main(capsys, *argv)
    assert code == 64
    assert out.out == ""
    assert "--seed" in out.err


def test_seed_accepted_where_something_is_drawn(capsys):
    for argv in (("normal-primes", "--x", "100", "--S", "16", "--sample", "3", "--seed", "5"),
                 ("--seed", "5", "normal-primes", "--x", "100", "--S", "16", "--sample", "3")):
        code, out = _main(capsys, *argv)
        assert code == 0
        assert len(out.out.splitlines()) == 4
    code, out = _main(capsys, "simplex-volume", "--L", "2", "--samples", "1e3")
    assert json.loads(out.out)["seed"] == 20260809


@pytest.mark.parametrize("argv", [
    ("classify", "--n", "10", "--f", "phi", "--x", "1000", "--S", "20"),
    ("values-table", "--lim", "100"),
    ("constants", "--to", "1e-13"),
    ("--se", "5", "simplex-volume", "--L", "2", "--samples", "1e3"),
], ids=["S-for-S-override", "lim", "to", "se"])
def test_flag_prefix_exits_64(capsys, argv):
    code, out = _main(capsys, *argv)
    assert code == 64
    assert out.out == ""
    assert "usage error" in out.err


def _bench_argvs():
    import runpy
    from pathlib import Path

    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))
    return [step.argv for step in workloads["all_steps"]()]


@pytest.mark.parametrize("argv", [
    ("classify", "--n", "10", "--f", "phi", "--x", "1000", "--S-override", "20"),
    ("values-table", "--limits", "100"),
    ("constants", "--tol", "1e-13"),
    ("--seed", "5", "simplex-volume", "--L", "2", "--samples", "1e3"),
    *_bench_argvs(),
], ids=lambda argv: " ".join(argv))
def test_full_flag_spellings_exit_0(capsys, argv):
    code, out = _main(capsys, *argv)
    assert code == 0, out.err
    assert out.out
