"""The repository's pytest settings report a failing property test in full.

``pyproject.toml`` turns warnings into errors.  A warning raised while pytest
reports a failure (hypothesis imports libcst to print the falsifying example)
would then crash the report with INTERNALERROR, and the example would be lost.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FALSIFIED = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_below_five(x):
    assert x < 5
"""


def test_failing_property_test_prints_its_example(tmp_path):
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
                           "test_falsified.py"],
                          cwd=tmp_path, capture_output=True, text=True)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
