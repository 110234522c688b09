"""`plap certify --json` reports of fixed inputs, byte for byte.

The reports in tests/golden are the known-right answers of their inputs;
`python3 -m tests.golden.regen` rewrites them and names what moved.
"""

import pytest

from .golden.regen import HERE, INPUTS, certify


@pytest.mark.parametrize("name", list(INPUTS))
def test_certify_report_matches_golden(name, tmp_path):
    text, _ = INPUTS[name]
    assert (HERE / f"{name}.txt").read_text(encoding="utf-8") == text
    out = tmp_path / "report.json"
    assert certify(name, out) == 0
    assert out.read_bytes() == (HERE / f"{name}.json").read_bytes()
