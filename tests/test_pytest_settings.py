"""The repository's pytest settings keep a failing property test readable."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_below_five(x):
    assert x < 5
"""


def test_a_failing_property_test_reports_its_falsifying_example(tmp_path):
    # warnings are errors here, and one raised inside hypothesis' report hook
    # would turn the failure into an INTERNALERROR that prints no example
    test_file = tmp_path / "test_property.py"
    test_file.write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", str(test_file)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
