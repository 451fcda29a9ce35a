"""Command-line contract: exit codes and byte-identical JSON on stdout."""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import singer_oracle
from powersum import cli, minimax
from powersum import gf as gf_module
from powersum import pds as pds_module
from powersum.pds import PerfectDifferenceSet, singer_construct, verify
from powersum.sums import RecoveryResult, RecoveryStatus, fabrykowski_tuple


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_feasibility_order10_excluded_by_multiplier_search(capsys):
    code, out, _ = run(capsys, "feasibility", "--order", "10")
    assert code == cli.EXIT_NEGATIVE == 1
    record = json.loads(out)
    assert record["verdict"] == "Excluded"
    assert record["reasons"] == ["multiplier-search"]
    assert record["exhaustive_result"] == "NoneExists"


def test_feasibility_order9_exists_with_witness(capsys):
    code, out, _ = run(capsys, "feasibility", "--order", "9")
    assert code == cli.EXIT_OK == 0
    record = json.loads(out)
    assert record["verdict"] == "Exists"
    witness = record["witness"]
    assert witness["q"] == 9 and witness["m"] == 91
    assert verify(witness["residues"], 9).valid


def test_feasibility_order0_is_a_domain_error(capsys):
    code, out, err = run(capsys, "feasibility", "--order", "0")
    assert code == cli.EXIT_DOMAIN == 2
    assert out == ""
    assert "order must be >= 1" in err


def test_feasibility_of_a_huge_order_2_mod_4_is_excluded_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "feasibility", "--order", "1000000000000000002", "--format", "json")
    assert time.perf_counter() - start < 0.5
    record = json.loads(out)
    assert code == cli.EXIT_NEGATIVE
    assert (record["verdict"], record["reasons"]) == ("Excluded", ["bruck-ryser", "wilbrink"])


def test_feasibility_past_the_two_squares_bound_exits_2(capsys):
    order = (10**9 + 9) * (10**9 + 21)
    code, out, err = run(capsys, "feasibility", "--order", str(order))
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert f"trial-division bound {gf_module.TRIAL_DIVISION_BOUND}" in err


def test_feasibility_of_a_huge_prime_square_exists_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "feasibility", "--order", str((10**12 + 39) ** 2))
    assert time.perf_counter() - start < 2.0
    record = json.loads(out)
    assert code == cli.EXIT_OK
    assert record["verdict"] == "Exists"
    assert (record["reasons"], record["witness"]) == (["prime-power"], None)


@pytest.mark.parametrize("order", ((10**12 + 39) * (10**12 + 61), 10**30 + 57))
def test_feasibility_past_the_exact_primality_range_exits_2(capsys, order):
    start = time.perf_counter()
    code, out, err = run(capsys, "feasibility", "--order", str(order))
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert f"trial-division bound {gf_module.TRIAL_DIVISION_BOUND}" in err


def test_feasibility_output_is_byte_identical_across_runs(capsys):
    first = run(capsys, "feasibility", "--order", "10")
    second = run(capsys, "feasibility", "--order", "10")
    assert first == second
    assert first[1].endswith("\n")


def test_feasibility_human_labels_the_search_outcome(capsys):
    code, out, _ = run(capsys, "feasibility", "--order", "10", "--format", "human")
    assert code == cli.EXIT_NEGATIVE
    assert "search: NoneExists\n" in out
    assert "exhaustive:" not in out


def test_search_order9_finds_a_verified_set(capsys):
    code, out, _ = run(capsys, "search", "--order", "9")
    assert code == cli.EXIT_OK
    record = json.loads(out)
    assert record["status"] == "Found"
    assert record["m"] == 91
    assert verify(record["residues"], 9).valid


def test_search_order6_none_exists(capsys):
    code, out, _ = run(capsys, "search", "--order", "6")
    assert code == cli.EXIT_NEGATIVE
    record = json.loads(out)
    assert record["status"] == "NoneExists"
    assert record["residues"] is None


def test_search_and_feasibility_report_one_verdict_at_order10(capsys):
    # Both commands run exhaustive_search, so they report the same status.
    code, out, _ = run(capsys, "feasibility", "--order", "10")
    assert (code, json.loads(out)["exhaustive_result"]) == (cli.EXIT_NEGATIVE, "NoneExists")
    code, out, _ = run(capsys, "search", "--order", "10")
    record = json.loads(out)
    assert (code, record["status"], record["nodes"]) == (cli.EXIT_NEGATIVE, "NoneExists", 1)


def test_search_output_is_byte_identical_across_runs(capsys):
    first = run(capsys, "search", "--order", "9")
    second = run(capsys, "search", "--order", "9")
    assert first == second


@pytest.mark.parametrize("argv", (("search", "--order", "9", "--parallel", "2"),
                                  ("optimize", "--n", "3", "--parallel", "2"),
                                  ("optimize", "--n", "3", "--polish-tol", "1e-8"),
                                  ("optimize", "--n", "3", "--betas", "1,4"),
                                  ("optimize", "--n", "3", "--max-iters", "10"),
                                  ("optimize", "--n", "3", "--trace", "out.csv")))
def test_removed_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == cli.EXIT_USAGE == 64
    _, err = capsys.readouterr()
    assert argv[3] in err


def test_search_budget_exceeded_is_inconclusive(capsys):
    code, out, _ = run(capsys, "search", "--order", "23", "--budget", "100")
    assert code == cli.EXIT_INCONCLUSIVE == 3
    record = json.loads(out)
    assert record["status"] == "BudgetExceeded"
    assert record["nodes"] == 100


@pytest.mark.parametrize("command", ("search", "feasibility"))
def test_negative_budget_is_a_domain_error(capsys, command):
    code, out, err = run(capsys, command, "--order", "10", "--budget", "-5")
    assert code == cli.EXIT_DOMAIN == 2
    assert "budget must be >= 0" in err
    assert out == ""


def test_feasibility_open_is_inconclusive(capsys):
    code, out, _ = run(capsys, "feasibility", "--order", "10", "--budget", "0")
    assert code == cli.EXIT_INCONCLUSIVE
    assert json.loads(out)["verdict"] == "OpenByTheseTests"


def test_optimize_n3_recovers_a_minimizer(capsys):
    argv = ("optimize", "--n", "3", "--restarts", "2", "--seed", "1")
    first = run(capsys, *argv)
    code, out, _ = first
    assert code == cli.EXIT_OK
    record = json.loads(out)
    assert record["recovered"]["status"] == "IsMinimizer"
    assert verify(record["recovered"]["pds"]["residues"], 2).valid
    assert run(capsys, *argv) == first


def test_optimize_n7_has_no_minimizer(capsys):
    # order 6 has no perfect difference set, so nothing can be recovered
    code, out, _ = run(capsys, "optimize", "--n", "7", "--restarts", "1", "--seed", "1")
    assert code == cli.EXIT_NEGATIVE
    record = json.loads(out)
    assert record["recovered"]["status"] == "NotMinimizer"
    assert record["gap_to_bound"] > 0


def test_optimize_output_is_byte_identical_across_runs(capsys):
    argv = ("optimize", "--n", "4", "--restarts", "3", "--seed", "7")
    first = run(capsys, *argv)
    assert run(capsys, *argv) == first
    assert first[1].endswith("\n")


@pytest.mark.parametrize("n, restarts, seed", ((4, 3, 1), (5, 4, 2)))
def test_optimize_json_matches_the_golden_bytes(capsys, n, restarts, seed):
    # stdout of the reference polish (tests/polish_oracle.py); the 12-digit
    # float format keeps the bytes stable
    golden = Path(__file__).parent / "golden" / f"optimize_n{n}_restarts{restarts}_seed{seed}.json"
    code, out, _ = run(capsys, "optimize", "--n", str(n), "--restarts", str(restarts),
                       "--seed", str(seed), "--format", "json")
    assert code == cli.EXIT_NEGATIVE
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, env", ((("optimize", "--n", "3", "--seed", "-1"), None),
                                       (("profile", "--random", "3"), "-1")))
def test_negative_seed_is_a_domain_error(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("POWERSUM_SEED", env)
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert "seed must be >= 0" in err


def test_singer_q4_is_a_verified_set(capsys):
    code, out, _ = run(capsys, "singer", "--q", "4")
    assert code == cli.EXIT_OK
    record = json.loads(out)
    assert record["q"] == 4 and record["m"] == 21
    assert verify(record["residues"], 4).valid


def test_singer_verifies_its_set_once(capsys, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr("powersum.pds.verify", counted)
    monkeypatch.setattr(cli, "verify", counted)
    code, _, _ = run(capsys, "singer", "--q", "4")
    assert code == cli.EXIT_OK
    assert len(calls) == 1


def test_singer_and_witness_json_match_the_oracle_bytes(capsys):
    expected = PerfectDifferenceSet(
        q=32, m=1057, residues=singer_oracle.singer_residues(32)).to_record()
    code, out, _ = run(capsys, "singer", "--q", "32")
    assert code == cli.EXIT_OK
    assert out == cli.render_json(expected) + "\n"
    code, out, _ = run(capsys, "feasibility", "--order", "32")
    assert code == cli.EXIT_OK
    record = json.loads(out)
    record["witness"] = expected
    assert out == cli.render_json(record) + "\n"


def test_internal_error_is_not_a_verdict(capsys, monkeypatch):
    def broken(q):
        raise ArithmeticError("construction produced an invalid set")
    monkeypatch.setattr(cli, "singer_construct", broken)
    code, out, err = run(capsys, "singer", "--q", "4")
    assert code == cli.EXIT_INTERNAL == 70
    assert out == ""
    assert err == "powersum: internal error: construction produced an invalid set\n"


def test_an_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise TypeError("unexpected")
    monkeypatch.setattr(cli, "cmd_search", broken)
    code, out, err = run(capsys, "search", "--order", "2")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == "powersum: internal error: unexpected\n"


def test_a_bare_value_error_is_an_internal_error(capsys, monkeypatch):
    # only a DomainError is bad input: a ValueError from anywhere else is a bug
    def broken(args):
        raise ValueError("unexpected")
    monkeypatch.setattr(cli, "cmd_search", broken)
    code, out, err = run(capsys, "search", "--order", "2")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == "powersum: internal error: unexpected\n"


def test_a_singular_kkt_system_is_an_internal_error(capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError; it says nothing about the input
    def singular(gram, bordered, rhs, tol, weights):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(minimax, "_min_norm_weights", singular)
    code, out, err = run(capsys, "optimize", "--n", "3", "--restarts", "1")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == "powersum: internal error: Singular matrix\n"


@pytest.mark.parametrize("value", (math.nan, math.inf))
def test_a_non_finite_number_in_the_output_is_an_internal_error(capsys, monkeypatch,
                                                                tmp_path, value):
    def non_finite(t, tol):
        return RecoveryResult(RecoveryStatus.NOT_MINIMIZER, 0.0, None, value, 0.0)
    monkeypatch.setattr(cli, "recover_structure", non_finite)
    path = tmp_path / "tuple.json"
    path.write_text('{"thetas": [0.0, 0.5]}', encoding="utf-8")
    code, out, err = run(capsys, "recover", "--tuple-file", str(path))
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == f"powersum: internal error: non-finite value in output: {value}\n"


@pytest.mark.parametrize("fmt", ("csv", "human", "json"))
def test_a_failure_while_rendering_leaves_stdout_empty(capsys, monkeypatch, fmt):
    # the last |S| is NaN: the rows before it must not reach stdout either
    def last_nan(t, nu_max=None, _inner=cli.power_sums):
        profile = _inner(t, nu_max)
        return dataclasses.replace(profile,
                                   abs_values=np.append(profile.abs_values[:-1], math.nan))
    monkeypatch.setattr(cli, "power_sums", last_nan)
    code, out, err = run(capsys, "profile", "--from-pds", "2", "--format", fmt)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err == "powersum: internal error: non-finite value in output: nan\n"


@pytest.mark.parametrize("argv", (("singer", "--q", "4"), ("search", "--order", "9")),
                         ids=["singer", "search"])
def test_a_set_failing_the_library_self_check_exits_70(capsys, monkeypatch, argv):
    monkeypatch.setattr(
        "powersum.pds.verify",
        lambda candidate, q: pds_module.Verification(False, "difference-covered-twice", 1))
    code, out, err = run(capsys, *argv)
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert err.startswith("powersum: internal error: ")
    assert "produced an invalid set" in err


@pytest.mark.parametrize("n", ("200", "100000000"))
def test_optimize_past_the_cap_is_a_domain_error_at_once(capsys, n):
    start = time.perf_counter()
    code, out, err = run(capsys, "optimize", "--n", n, "--restarts", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert err == f"powersum: error: n = {n} exceeds the cap {minimax.MAX_OPTIMIZER_N}\n"


@pytest.mark.parametrize("argv, message", (
    (("--random", "100000000"), "a profile of 100000000 points exceeds the cap 10000"),
    (("--random", "5", "--nu-max", "1000000000000"),
     "a profile up to nu = 1000000000000 exceeds the cap 100000"),
))
def test_profile_past_the_caps_is_a_domain_error_before_any_angle_is_drawn(
        capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "_uniform_angles", None)  # a draw would exit 70
    start = time.perf_counter()
    code, out, err = run(capsys, "profile", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert err == f"powersum: error: {message}\n"


def test_singer_non_prime_power_is_a_domain_error(capsys):
    code, out, err = run(capsys, "singer", "--q", "6")
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert "not a prime power" in err


def test_singer_above_the_cap_is_a_domain_error_without_factorizing(capsys, monkeypatch):
    def no_factorizing(n):
        raise AssertionError(f"prime_power({n}) called above the cap")
    monkeypatch.setattr(pds_module, "prime_power", no_factorizing)
    code, out, err = run(capsys, "singer", "--q", str(10**18 + 3))
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == "powersum: error: order 1000000000000000003 exceeds the cap 32\n"


@pytest.mark.parametrize("argv, expected", (
    (("--set", "0,1,3", "--q", "2"), cli.EXIT_OK),
    (("--set", "0,1,2", "--modulus", "7"), cli.EXIT_NEGATIVE),
    (("--set", "0,1,2", "--modulus", "8"), cli.EXIT_DOMAIN),
    (("--q", "-1", "--set="), cli.EXIT_DOMAIN),
    (("--q", "0", "--set", "0"), cli.EXIT_DOMAIN),
    (("--modulus", "1", "--set", "0"), cli.EXIT_DOMAIN),
))
def test_verify_exit_codes(capsys, argv, expected):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == expected
    if expected != cli.EXIT_DOMAIN:
        assert json.loads(out)["valid"] is (expected == cli.EXIT_OK)


def test_verify_of_a_short_set_with_a_huge_residue_is_wrong_size(capsys):
    # a bitmask of the set would need 10^18 bits
    code, out, err = run(capsys, "verify", "--q", "1000000000", "--set", "0,1,999999999999999999")
    assert (code, err) == (cli.EXIT_NEGATIVE, "")
    assert json.loads(out)["reason"] == "wrong-size"


def test_verify_of_q_plus_one_residues_past_the_cap_is_bad_input(capsys):
    residues = ",".join(map(str, range(50001)))
    code, out, err = run(capsys, "verify", "--q", "50000", "--set", residues)
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert err == "powersum: error: order 50000 exceeds the cap 3000 on verifying a set\n"


@pytest.mark.parametrize("modulus", ("0", "-5", "1"))
def test_verify_rejects_a_modulus_below_three(capsys, modulus):
    code, out, err = run(capsys, "verify", "--set", "0,1", "--modulus", modulus)
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == f"powersum: error: modulus {modulus} is not of the form q^2+q+1\n"


def test_profile_from_pds_is_flat(capsys):
    code, out, _ = run(capsys, "profile", "--from-pds", "3")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "nu,abs,epsilon"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 13))
    assert all(abs(float(r[1]) - math.sqrt(3)) <= 1e-9 for r in rows)


@pytest.mark.parametrize("alpha, expected", ((("--alpha", "0.5"), 0.5), ((), 0.125)))
def test_profile_alpha_replaces_the_phase_of_a_tuple_file(capsys, tmp_path, alpha, expected):
    path = tmp_path / "tuple.json"
    path.write_text('{"thetas": [0.0, 0.25, 0.5], "alpha_turns": 0.125}', encoding="utf-8")
    code, out, _ = run(capsys, "profile", "--tuple-file", str(path), *alpha, "--format", "json")
    assert code == cli.EXIT_OK
    assert json.loads(out)["alpha_turns"] == expected


def _lattice_tuple_q2():
    return fabrykowski_tuple(singer_construct(2))


def test_recover_from_json_tuple_file(capsys, tmp_path):
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(_lattice_tuple_q2().to_record()), encoding="utf-8")
    code, out, _ = run(capsys, "recover", "--tuple-file", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["status"] == "IsMinimizer"


def test_recover_from_csv_tuple_file(capsys, tmp_path):
    path = tmp_path / "tuple.csv"
    thetas = _lattice_tuple_q2().thetas
    path.write_text("theta_turns\n" + "".join(f"{t!r}\n" for t in thetas),
                    encoding="utf-8")
    code, out, _ = run(capsys, "recover", "--tuple-file", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["status"] == "IsMinimizer"


def test_recover_csv_without_header_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "tuple.csv"
    path.write_text("".join(f"{t!r}\n" for t in _lattice_tuple_q2().thetas),
                    encoding="utf-8")
    code, out, err = run(capsys, "recover", "--tuple-file", str(path))
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert "theta_turns" in err


@pytest.mark.parametrize("alpha", ("nan", "inf", "-inf"))
def test_profile_with_a_non_finite_phase_is_a_domain_error(capsys, alpha):
    code, out, err = run(capsys, "profile", "--random", "3", f"--alpha={alpha}")
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == "powersum: error: angles and phase must be finite\n"


@pytest.mark.parametrize("size", ("-1", "0", "1"))
def test_profile_of_a_random_tuple_below_two_points_is_a_domain_error(capsys, size):
    code, out, err = run(capsys, "profile", f"--random={size}")
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == "powersum: error: a tuple needs at least two points\n"


@pytest.mark.parametrize("command", ("recover", "profile"))
@pytest.mark.parametrize("text", ('{"thetas": [NaN, 0.2]}',
                                  '{"thetas": [0.1, Infinity]}',
                                  '{"thetas": [0.1, 0.2], "alpha_turns": -Infinity}'),
                         ids=["nan", "infinity", "phase"])
def test_a_non_finite_tuple_file_is_a_domain_error(capsys, tmp_path, command, text):
    path = tmp_path / "tuple.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, "--tuple-file", str(path))
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == f"powersum: error: {path}: angles and phase must be finite\n"


@pytest.mark.parametrize("command", ("recover", "profile"))
@pytest.mark.parametrize("text", ('{"thetas": [1%s, 0.1]}' % ("0" * 400),
                                  '{"thetas": [0.1, 0.2], "alpha_turns": -1%s}' % ("0" * 400)),
                         ids=["angle", "phase"])
def test_an_angle_beyond_the_float_range_is_a_domain_error(capsys, tmp_path, command, text):
    path = tmp_path / "tuple.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, "--tuple-file", str(path))
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == f"powersum: error: {path}: angles and phase must fit in a float\n"


@pytest.mark.parametrize("command", ("recover", "profile"))
@pytest.mark.parametrize("name, text", (("tuple.json", '{"thetas": [0.1]}'),
                                        ("tuple.json", '{"thetas": []}'),
                                        ("tuple.csv", "theta_turns\n0.1\n")),
                         ids=["json-one", "json-none", "csv-one"])
def test_a_tuple_file_of_fewer_than_two_points_names_the_file(capsys, tmp_path, command,
                                                              name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, "--tuple-file", str(path))
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == f"powersum: error: {path}: a tuple needs at least two points\n"


@pytest.mark.parametrize("command", ("recover", "profile"))
@pytest.mark.parametrize("text", ('{"thetas": 5}',
                                  '{"thetas": [null, 0.2]}',
                                  '{"thetas": [[0.1], 0.2]}',
                                  '{"thetas": [0.1, 0.2], "alpha_turns": null}'),
                         ids=["number", "null-angle", "nested", "null-phase"])
def test_a_malformed_tuple_file_is_a_domain_error(capsys, tmp_path, command, text):
    path = tmp_path / "tuple.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, "--tuple-file", str(path))
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith(f"powersum: error: {path}: malformed tuple record: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize("command", ("recover", "profile"))
@pytest.mark.parametrize("name, text", (
    ("tuple.json", '{"thetas": "05"}'),
    ("tuple.json", '{"thetas": "0.1"}'),
    ("tuple.json", '{"thetas": {"0.1": 1, "0.5": 2}}'),
    ("tuple.json", '{"thetas": [true, 0.5]}'),
    ("tuple.json", '{"thetas": [0.1, 0.5], "alpha_turns": "0.2"}'),
    ("tuple.json", '{"alpha_turns": 0.2}'),
    ("tuple.csv", "theta_turns\n0.1\nabc\n0.5\n"),
), ids=["string", "numeral-string", "object", "boolean", "string-phase", "no-thetas",
        "csv-word"])
def test_a_tuple_file_of_the_wrong_types_names_the_file(capsys, tmp_path, command,
                                                        name, text):
    # a string was read as its characters, an object as its keys, true as 1.0,
    # and a word in a CSV row failed with a message naming neither file nor line
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, command, "--tuple-file", str(path))
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == f"powersum: error: {path}: " + (
        "line 3: could not convert string to float: 'abc'\n" if name == "tuple.csv" else
        "malformed tuple record: 'thetas' must be a list of numbers, 'alpha_turns' a number\n")


@pytest.mark.parametrize("command", ("recover", "profile"))
@pytest.mark.parametrize("content, message", (
    (b'{"thetas": [0.1,', "not valid JSON: Expecting value: line 1 column 17 (char 16)"),
    (b"\xff\xfe0.1", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
                     "invalid start byte"),
), ids=["truncated-json", "not-utf8"])
def test_an_undecodable_tuple_file_names_the_file(capsys, tmp_path, command, content,
                                                  message):
    # the decoder's message alone named neither the file nor what was wrong with it
    path = tmp_path / "tuple.json"
    path.write_bytes(content)
    code, out, err = run(capsys, command, "--tuple-file", str(path))
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err == f"powersum: error: {path}: {message}\n"


@pytest.mark.parametrize("tol", ("inf", "-inf", "nan", "-1"))
def test_recover_rejects_a_tol_that_is_not_a_finite_number_at_least_zero(
        capsys, tmp_path, tol):
    # profile deviation 0.94: inf called it IsMinimizer, nan and -1 rejected
    # every tuple
    path = tmp_path / "tuple.json"
    path.write_text('{"thetas": [0.0, 0.16, 0.41]}', encoding="utf-8")
    code, out, err = run(capsys, "recover", "--tuple-file", str(path), f"--tol={tol}")
    assert code == cli.EXIT_DOMAIN
    assert out == ""
    assert err.startswith("powersum: error: tol must be a finite number >= 0")
    code, out, _ = run(capsys, "recover", "--tuple-file", str(path), "--tol=1")
    assert code == cli.EXIT_OK  # a large finite tol is the caller's choice
    assert json.loads(out)["status"] == "IsMinimizer"
