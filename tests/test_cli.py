import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "phisigma.cli"]


def run_cli(*args, **kw):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=300, **kw
    )


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
    r = run_cli("capture-census", "--f", "phi", "--x", "1e9")
    assert r.returncode == 2
    assert "resource error" in r.stderr


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


def test_output_file_written_atomically(tmp_path):
    out = tmp_path / "table.csv"
    r = run_cli("values-table", "--limits", "100", "--output", str(out))
    assert r.returncode == 0
    assert out.read_text().startswith("N,V_phi")
    assert list(tmp_path.iterdir()) == [out]


def test_seed_flag_accepted_before_subcommand():
    r = run_cli("--seed", "11", "simplex-volume", "--L", "2", "--samples", "1e4")
    assert json.loads(r.stdout)["seed"] == 11


def _main(capsys, *argv):
    from phisigma import cli

    code = cli.main(list(argv))
    return code, capsys.readouterr()


@pytest.mark.parametrize("y", ["1e400", "inf", "nan"])
def test_non_finite_integer_flag_exits_64(capsys, y):
    code, out = _main(capsys, "smooth-count", "--x", "10", "--y", y)
    assert code == 64
    assert out.out == ""
    assert "usage error" in out.err


@pytest.mark.parametrize("argv", [
    ("normal-primes", "--x", "100", "--S", "16", "--sample", "-1"),
    ("normal-primes", "--x", "100", "--S", "16", "--seed", "-1"),
    ("simplex-volume", "--L", "2", "--samples", "1e3", "--seed", "-1"),
    ("simplex-volume", "--L", "2", "--samples", "1e3", "--seed", str(1 << 128)),
    ("simplex-volume", "--L", "3", "--xi", "nan,1", "--samples", "1e3"),
    ("rl-sum", "--f", "phi", "--x", "1000", "--L", "2", "--xi", "inf"),
    ("omega-census", "--x", "1000", "--alpha", "nan"),
    ("normal-primes", "--x", "100", "--S", "nan"),
    ("classify", "--n", "10", "--f", "phi", "--x", "inf"),
    ("capture-census", "--f", "phi", "--x", "1000", "--S-override", "nan"),
    ("normal-primes", "--x", "100", "--S", "inf"),
    ("capture-census", "--f", "phi", "--x", "1000", "--S-override", "inf"),
    ("constants", "--tol", "inf"),
    ("constants", "--tol", "nan"),
], ids=["sample", "np-seed", "mc-seed", "mc-seed-2^128", "xi-nan", "xi-inf",
        "alpha-nan", "S-nan", "x-inf", "S-override-nan", "S-inf", "S-override-inf",
        "tol-inf", "tol-nan"])
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
