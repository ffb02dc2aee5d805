"""Pin what every verification check claims: its id, statement, expected
value, tolerance and gating, for all eight suites at (3,3) and (2,4);
a suite that rejects a size pins its message instead.

Measured values and notes depend on the LAPACK build and are left out.
After a deliberate change to a check, regenerate the fixture with

    PYTHONPATH=src python tests/test_check_definitions.py
"""

import json
import pathlib

import pytest

from ews.errors import BadParamError
from ews.verify import SUITE_NAMES, run_suite

from test_acceptance import CRITERION_11_SAMPLES as SAMPLES

FIXTURE = pathlib.Path(__file__).with_name("check_definitions.json")
SIZES = ((3, 3), (2, 4))


def definitions(name, m, n):
    """The check rows of one report, or the message of a size the suite
    rejects."""
    try:
        report = run_suite(name, m=m, n=n, samples=SAMPLES[name], seed=13)
    except BadParamError as exc:
        return f"rejected: {exc}"
    return [
        [c.claim_id, c.statement, f"{c.expected:.9g}", c.tolerance, c.gating]
        for c in report.checks
    ]


@pytest.mark.parametrize("m,n", SIZES)
@pytest.mark.parametrize("name", SUITE_NAMES)
def test_check_definitions_match_the_fixture(name, m, n):
    pinned = json.loads(FIXTURE.read_text())[f"{name} {m}x{n}"]
    assert definitions(name, m, n) == pinned


if __name__ == "__main__":
    table = {
        f"{name} {m}x{n}": definitions(name, m, n)
        for name in SUITE_NAMES
        for m, n in SIZES
    }
    FIXTURE.write_text(json.dumps(table, indent=1) + "\n")
