"""Golden output of the command line: for a matrix of invocations, in every
format each accepts, the exact stdout and the exit code.

Each ``.out`` file under ``golden/cli`` holds the line ``exit <code>``
followed by stdout, byte for byte.  The tuple inputs sit next to them.  To
regenerate a file, run ``python -m powersum <argv>`` from a checkout whose
output is known to be right and write the same two parts.
"""

from pathlib import Path

import pytest

from powersum import cli

GOLDEN = Path(__file__).parent / "golden" / "cli"
JSON_TUPLE = str(GOLDEN / "tuple_q2.json")
CSV_TUPLE = str(GOLDEN / "tuple_n4.csv")

_INVOCATIONS = {
    "singer_q8": ("singer", "--q", "8"),
    "verify_q3_valid": ("verify", "--q", "3", "--set", "0,1,3,9"),
    "verify_q3_invalid": ("verify", "--q", "3", "--set", "0,1,2,3"),
    "verify_m13_valid": ("verify", "--modulus", "13", "--set", "0,1,3,9"),
    "verify_m13_invalid": ("verify", "--modulus", "13", "--set", "0,1,2,3"),
    "feasibility_6": ("feasibility", "--order", "6"),
    "feasibility_10": ("feasibility", "--order", "10"),
    "feasibility_16": ("feasibility", "--order", "16"),
    "feasibility_4006": ("feasibility", "--order", "4006", "--budget", "1000"),
    "feasibility_1000000000078000000001521": ("feasibility", "--order",
                                              "1000000000078000000001521"),
    "recover_json": ("recover", "--tuple-file", JSON_TUPLE),
    "recover_csv": ("recover", "--tuple-file", CSV_TUPLE),
    "optimize_n4_restarts3_seed1": ("optimize", "--n", "4", "--restarts", "3", "--seed", "1"),
    "search_9": ("search", "--order", "9"),
    "search_10_budget5": ("search", "--order", "10", "--budget", "5"),
    "profile_from_pds4": ("profile", "--from-pds", "4"),
    "profile_random5_seed3": ("profile", "--random", "5", "--seed", "3"),
    "profile_csv_file": ("profile", "--tuple-file", CSV_TUPLE, "--nu-max", "4",
                         "--alpha", "0.25"),
}

CASES = [(f"{name}.{fmt}", argv + ("--format", fmt))
         for name, argv in _INVOCATIONS.items()
         for fmt in (("csv", "json", "human") if argv[0] == "profile" else ("json", "human"))]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_and_exit_code_match_the_golden_file(capsys, name, argv):
    code = cli.main(list(argv))
    out, _ = capsys.readouterr()
    assert f"exit {code}\n{out}" == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")

