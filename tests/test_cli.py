import json
import os
import subprocess
import sys
import time

import pytest

import sonlap
from sonlap import GENERAL, SO4, lap_partition, Partition
from sonlap import cli
from sonlap.cli import main
from refdata import tracepoly_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_so3_bound4(capsys):
    code, out, _ = run(capsys, "spectrum", "--target", "so3", "--bound", "4")
    assert code == 0
    values = [line.split("\t")[0] for line in out.strip().splitlines()]
    assert values == ["0", "-1", "-3", "-6", "-10"]


def test_spectrum_sphere_needs_n(capsys):
    code, _, err = run(capsys, "spectrum", "--target", "sphere", "--bound", "3")
    assert code == 2
    assert "requires --n" in err


def test_lap_empty_partition_is_zero(capsys):
    code, out, _ = run(capsys, "lap", "--mode", "generaln", "--partition", "0")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_lap_json_round_trip(capsys):
    code, out, _ = run(capsys, "lap", "--mode", "generaln", "--partition", "2,1")
    assert code == 0
    pretty_line, json_line = out.strip().splitlines()
    assert "p_(2,1,0)" in pretty_line
    rebuilt = tracepoly_from_json(json.loads(json_line), GENERAL)
    assert rebuilt == lap_partition(Partition.of(2, 1))


def test_lap_so4_mode(capsys):
    code, out, _ = run(capsys, "lap", "--mode", "so4", "--partition", "3")
    assert code == 0
    json_line = out.strip().splitlines()[1]
    rebuilt = tracepoly_from_json(json.loads(json_line), SO4)
    from sonlap import lap, so4_pm_in_p1p2

    assert rebuilt == lap(so4_pm_in_p1p2(3))


def test_matrix_latex_so4_k4(capsys):
    code, out, _ = run(capsys, "matrix", "--mode", "so4", "--k", "4", "--format", "latex")
    assert code == 0
    flat = "".join(out.split())
    expected_rows = [
        r"p_0&0&0&1&1&0&0&0&0&8\\",
        r"p_1&0&-\frac{3}{2}&0&0&12&0&0&0&0\\",
        r"p_1^2&0&0&-3&-1&0&0&24&-4&-16\\",
        r"p_2&0&0&-1&-3&0&0&0&4&8\\",
        r"p_1^3&0&0&0&0&-\frac{9}{2}&0&0&0&0\\",
        r"p_1p_2&0&0&0&0&-3&-\frac{15}{2}&0&0&0\\",
        r"p_1^4&0&0&0&0&0&0&-6&1&2\\",
        r"p_1^2p_2&0&0&0&0&0&0&-6&-12&-6\\",
        r"p_2^2&0&0&0&0&0&0&0&-1&-8\\",
    ]
    for row in expected_rows:
        assert "".join(row.split()) in flat


def test_matrix_json_round_trip(capsys):
    code, out, _ = run(capsys, "matrix", "--mode", "so3", "--basis", "btrace", "--k", "3",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["basis"] == ["p_0", "p_1", "p_2", "p_3"]
    assert obj["entries"][0] == ["0", "0", "1", "3"]


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--mode", "so3", "--basis", "bprime", "--k", "2",
                       "--format", "csv")
    assert code == 0
    assert "row,col,value,exact" in out


def test_matrix_invalid_basis_combo(capsys):
    code, _, err = run(capsys, "matrix", "--mode", "so3", "--basis", "so4", "--k", "2")
    assert code == 2
    assert "--basis" in err


def test_characters_so3(capsys):
    code, out, _ = run(capsys, "characters", "--mode", "so3", "--k", "2")
    assert code == 0
    assert "eigenvalue -3" in out


def test_characters_so4_half_integers(capsys):
    code, out, _ = run(capsys, "characters", "--mode", "so4", "--j1", "3/2", "--j2", "1/2",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["eigenvalue"] == "-9/2"


def test_characters_so4_parity_rejected(capsys):
    code, _, err = run(capsys, "characters", "--mode", "so4", "--j1", "1/2", "--j2", "1")
    assert code == 2
    assert "integer" in err


@pytest.mark.parametrize("flag", ["--j1", "--j2"])
@pytest.mark.parametrize("spin", ["abc", "1/0", "1.5.2"])
def test_malformed_spin_is_refused_by_its_flag(capsys, monkeypatch, flag, spin):
    """A malformed spin exits 2 with a message that names its flag, before
    any character is built."""
    monkeypatch.setattr(cli.flagmatrix, "character_so4", lambda *args: pytest.fail("built"))
    spins = {"--j1": "1", "--j2": "1", flag: spin}
    argv = [t for pair in spins.items() for t in pair]
    code, out, err = run(capsys, "characters", "--mode", "so4", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} ") and repr(spin) in err


@pytest.mark.parametrize("text", ["abc", "1,,2", "1.5"])
def test_malformed_partition_is_refused_by_its_flag(capsys, monkeypatch, text):
    """A malformed --partition exits 2 with a message that names the flag and
    quotes the text, before any Laplacian is built."""
    monkeypatch.setattr(cli, "lap", lambda *args: pytest.fail("built"))
    code, out, err = run(capsys, "lap", "--mode", "so3", "--partition", text)
    assert (code, out) == (2, "")
    assert err.startswith("error: --partition: ") and repr(text) in err


SPECTRUM_TARGETS = [("so3",), ("so4",), ("sphere", "--n", "5")]


@pytest.mark.parametrize("target", SPECTRUM_TARGETS, ids=[t[0] for t in SPECTRUM_TARGETS])
def test_spectrum_json_matches_the_pretty_output(capsys, target):
    """The JSON entries parse and carry the pretty output's eigenvalues and
    labels in its order: SO(4) labels as pairs, SO(3) and sphere labels as ints."""
    argv = ("spectrum", "--target", *target, "--bound", "6")
    code, pretty, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == len(pretty.splitlines()) > 1
    for entry, line in zip(entries, pretty.splitlines()):
        eigenvalue, labels = line.split("\t")
        assert entry["eigenvalue"] == eigenvalue
        if target[0] == "so4":
            assert all(len(l) == 2 and all(type(x) is int for x in l) for l in entry["labels"])
            assert labels == "[" + ", ".join(str(tuple(l)) for l in entry["labels"]) + "]"
        else:
            assert all(type(l) is int for l in entry["labels"])
            assert labels == "[" + ", ".join(map(str, entry["labels"])) + "]"


def test_verify_identities_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--n", "3",
                       "--samples", "4", "--seed", "9")
    assert code == 0
    reports = json.loads(out)
    assert all(r["pass"] for r in reports)


def test_verify_laplacian_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "laplacian", "--n", "3", "--k", "2",
                       "--samples", "4", "--seed", "9")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 4  # partitions of degree <= 2


def test_verify_laplacian_large_n(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "laplacian", "--n", "60", "--k", "2",
                       "--samples", "1")
    assert code == 0
    assert all(r["pass"] for r in json.loads(out))


def test_verify_gegenbauer_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "gegenbauer", "--n", "4", "--k", "2",
                       "--samples", "4", "--seed", "9")
    assert code == 0


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "laplacian", "--n", "3", "--k", "2",
                       "--samples", "4", "--seed", "9", "--tol", "1e-30")
    assert code == 1


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "lap", "--mode", "bogus", "--partition", "1")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2


def test_reused_parser_matches_fresh_parser(capsys):
    calls = [
        ("lap", "--mode", "bogus", "--partition", "1"),
        ("--help",),
        ("lap", "--mode", "generaln", "--partition", "2,1"),
    ]
    cli._build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert [code for code, _, _ in reused] == [2, 0, 0]
    assert reused == fresh


def test_parser_not_built_at_import():
    src = os.path.dirname(os.path.dirname(sonlap.__file__))
    probe = "import sonlap.cli as c; print(c._build_parser.cache_info().currsize)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "0"


def test_byte_determinism(capsys):
    args = ("verify", "--suite", "identities", "--n", "3", "--samples", "3", "--seed", "4")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    args = ("matrix", "--mode", "so4", "--k", "3", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SONLAP_SEED", "31415")
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--n", "3", "--samples", "2")
    assert code == 0
    assert all(r["seed"] == 31415 for r in json.loads(out))


@pytest.mark.parametrize("env, message", [
    ("abc", "SONLAP_SEED must be an integer, got 'abc'"),
    ("1.5", "SONLAP_SEED must be an integer, got '1.5'"),
    ("-5", "seed must be a nonnegative integer, got -5"),
])
def test_seed_env_refuses_a_bad_seed_before_any_draw(capsys, monkeypatch, env, message):
    monkeypatch.setenv("SONLAP_SEED", env)
    monkeypatch.setattr(cli.numeric, "_haar_stack", lambda n, seeds: pytest.fail("drew a sample"))
    code, out, err = run(capsys, "verify", "--suite", "laplacian", "--n", "3", "--k", "1",
                         "--samples", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    (("spectrum", "--target", "so3", "--n", "5", "--bound", "2"), "--n"),
    (("spectrum", "--target", "so4", "--n", "4", "--bound", "2"), "--n"),
    (("characters", "--mode", "so4", "--j1", "1", "--j2", "1", "--k", "7"), "--k"),
    (("characters", "--mode", "so3", "--k", "2", "--j1", "1"), "--j1"),
    (("characters", "--mode", "so3", "--k", "2", "--j2", "1/2"), "--j2"),
])
def test_flags_the_target_or_mode_does_not_take_are_refused(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} ") or f" {flag} " in err


OVERSIZE = [
    ("lap", "--mode", "so3", "--partition", "900"),
    ("lap", "--mode", "so4", "--partition", "300"),
    ("lap", "--mode", "generaln", "--partition", "16,15"),
    ("matrix", "--mode", "so4", "--k", "31"),
    ("matrix", "--mode", "so3", "--basis", "btrace", "--k", "100000"),
    ("characters", "--mode", "so3", "--k", "1200"),
    ("characters", "--mode", "so4", "--j1", "31/2", "--j2", "1/2"),
    ("characters", "--mode", "so4", "--j1", "0", "--j2", "16"),
    ("spectrum", "--target", "so4", "--bound", "100000"),
    ("spectrum", "--target", "sphere", "--n", "4", "--bound", "31"),
]


@pytest.mark.parametrize("argv", OVERSIZE, ids=[" ".join(a) for a in OVERSIZE])
def test_oversize_input_is_refused_quickly(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert f"exceeds the input bound {cli.MAX_DEGREE}" in err


def test_inputs_at_the_bound_are_accepted(capsys):
    bound = str(cli.MAX_DEGREE)
    for argv in [
        ("lap", "--mode", "so3", "--partition", bound),
        ("matrix", "--mode", "so3", "--k", bound, "--format", "json"),
        ("characters", "--mode", "so3", "--k", bound),
        ("spectrum", "--target", "so4", "--bound", bound),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out


def test_oversize_partition_exits_2_in_a_fresh_process():
    """A cold SO(3) table recursed past the interpreter limit here once."""
    src = os.path.dirname(os.path.dirname(sonlap.__file__))
    done = subprocess.run(
        [sys.executable, "-m", "sonlap.cli", "lap", "--mode", "so3", "--partition", "900"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"error: partition degree 900 exceeds the input bound {cli.MAX_DEGREE}\n"


VERIFY_REFUSED = [
    (("--suite", "laplacian", "--samples", "0"), "samples must be at least 1, got 0"),
    (("--suite", "gegenbauer", "--samples", "0"), "samples must be at least 1, got 0"),
    (("--suite", "identities", "--samples", "-1"), "samples must be at least 1, got -1"),
    (("--suite", "gegenbauer", "--k", "-1"), "--k must be nonnegative, got -1"),
    (("--suite", "laplacian", "--k", "-1"), "--k must be nonnegative, got -1"),
    (("--suite", "laplacian", "--k", str(cli.MAX_LAPLACIAN_K + 1)),
     f"exceeds the input bound {cli.MAX_LAPLACIAN_K} of the laplacian suite"),
    (("--suite", "gegenbauer", "--k", "100000"),
     f"exceeds the input bound {cli.MAX_DEGREE} of the gegenbauer suite"),
    (("--suite", "identities", "--n", str(cli.MAX_IDENTITIES_N + 1)),
     f"exceeds the input bound {cli.MAX_IDENTITIES_N} of the identities suite"),
    (("--suite", "identities", "--n", "100000"),
     f"exceeds the input bound {cli.MAX_IDENTITIES_N} of the identities suite"),
    (("--suite", "laplacian", "--n", str(cli.MAX_VERIFY_N + 1)),
     f"exceeds the input bound {cli.MAX_VERIFY_N} of the laplacian suite"),
    (("--suite", "gegenbauer", "--n", "100000"),
     f"exceeds the input bound {cli.MAX_VERIFY_N} of the gegenbauer suite"),
    (("--suite", "laplacian", "--samples", str(cli.MAX_SAMPLES + 1)),
     f"exceeds the input bound {cli.MAX_SAMPLES} of the laplacian suite"),
    (("--suite", "laplacian", "--n", str(cli.MAX_VERIFY_N), "--k", str(cli.MAX_LAPLACIAN_K),
      "--samples", "5"),
     f"--samples 5 times 272 partitions (1360) exceeds the input bound "
     f"{cli.MAX_LAPLACIAN_WORK} of the laplacian suite"),
    (("--suite", "identities", "--n", str(cli.MAX_IDENTITIES_N), "--samples", "3"),
     f"--samples 3 times n^4 = 810000 (2430000) exceeds the input bound "
     f"{cli.MAX_IDENTITIES_WORK} of the identities suite"),
    (("--suite", "identities", "--n", "10", "--samples", "163"),
     f"--samples 163 times n^4 = 10000 (1630000) exceeds the input bound "
     f"{cli.MAX_IDENTITIES_WORK} of the identities suite"),
    (("--suite", "gegenbauer", "--samples", "10000000"),
     f"exceeds the input bound {cli.MAX_SAMPLES} of the gegenbauer suite"),
    (("--suite", "identities", "--samples", "10000000"),
     f"exceeds the input bound {cli.MAX_SAMPLES} of the identities suite"),
    (("--suite", "identities", "--n", "-5"), "--n must be at least 2 for the identities suite, got -5"),
    (("--suite", "identities", "--n", "1"), "--n must be at least 2 for the identities suite, got 1"),
    (("--suite", "laplacian", "--n", "0"), "--n must be at least 2 for the laplacian suite, got 0"),
    (("--suite", "gegenbauer", "--n", "-3"), "--n must be at least 3 for the gegenbauer suite, got -3"),
    (("--suite", "gegenbauer", "--n", "2"), "--n must be at least 3 for the gegenbauer suite, got 2"),
    (("--suite", "laplacian", "--tol", "nan"), "--tol must be finite and nonnegative, got nan"),
    (("--suite", "identities", "--tol", "-1"), "--tol must be finite and nonnegative, got -1.0"),
    (("--suite", "gegenbauer", "--tol", "inf"), "--tol must be finite and nonnegative, got inf"),
    (("--suite", "laplacian", "--n", "3", "--k", "1", "--samples", "1", "--seed", "-1"),
     "seed must be a nonnegative integer, got -1"),
    (("--suite", "identities", "--seed", "-7"), "seed must be a nonnegative integer, got -7"),
]


@pytest.mark.parametrize(
    "argv, message", VERIFY_REFUSED, ids=[" ".join(a) for a, _ in VERIFY_REFUSED]
)
def test_verify_refuses_bad_input_before_any_work(capsys, argv, message):
    """A run that checks nothing must not print a passing report."""
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith(f"{message}\n")


def test_verify_refuses_small_n_and_bad_tol_before_any_suite(capsys, monkeypatch):
    """No suite runs, so no draw is made and no report with "tol": NaN is printed."""
    for name in ("verify_laplacian", "verify_gegenbauer_families", "verify_identities"):
        monkeypatch.setattr(cli.numeric, name, lambda *a, **kw: pytest.fail("a suite ran"))
    for suite, option, value in [
        ("laplacian", "--n", "-5"), ("gegenbauer", "--n", "2"), ("identities", "--n", "1"),
        ("laplacian", "--tol", "nan"), ("gegenbauer", "--tol", "-1"), ("identities", "--tol", "nan"),
    ]:
        code, out, err = run(capsys, "verify", "--suite", suite, option, value, "--samples", "1")
        assert (code, out) == (2, "") and f"error: {option} must be" in err


def test_verify_tol_zero_is_accepted(capsys):
    code, out, err = run(capsys, "verify", "--suite", "laplacian", "--n", "3", "--k", "0",
                         "--samples", "1", "--seed", "3", "--tol", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["tol"] == 0.0


def test_verify_inputs_at_the_bounds_are_accepted(capsys):
    for argv, samples in [
        (("--suite", "laplacian", "--k", str(cli.MAX_LAPLACIAN_K)), 1),
        (("--suite", "gegenbauer", "--n", "5", "--k", str(cli.MAX_DEGREE)), 1),
        (("--suite", "identities", "--n", str(cli.MAX_IDENTITIES_N)), 1),
        (("--suite", "laplacian", "--n", str(cli.MAX_VERIFY_N), "--k", "2"), 1),
        (("--suite", "gegenbauer", "--n", str(cli.MAX_VERIFY_N), "--k", str(cli.MAX_DEGREE)), 1),
        (("--suite", "laplacian", "--k", "0"), cli.MAX_SAMPLES),
        (("--suite", "laplacian", "--k", str(cli.MAX_LAPLACIAN_K)), cli.MAX_LAPLACIAN_WORK // 272),
        (("--suite", "identities", "--n", str(cli.MAX_IDENTITIES_N)),
         cli.MAX_IDENTITIES_WORK // cli.MAX_IDENTITIES_N**4),
    ]:
        code, out, err = run(capsys, "verify", *argv, "--samples", str(samples), "--seed", "3")
        assert (code, err) == (0, "")
        reports = json.loads(out)
        assert reports and all(r["pass"] and r["samples"] == samples for r in reports)
