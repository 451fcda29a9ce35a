"""Command-line contract: exit codes and byte-identical JSON on stdout."""

import json

from powersum import cli
from powersum.pds import verify


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


def test_feasibility_output_is_byte_identical_across_runs(capsys):
    first = run(capsys, "feasibility", "--order", "10")
    second = run(capsys, "feasibility", "--order", "10")
    assert first == second
    assert first[1].endswith("\n")
