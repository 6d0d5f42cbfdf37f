"""The repository's pytest settings report a failing property test instead
of aborting the run."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_test_reports_its_example(tmp_path):
    """With the repository's pytest settings, a failing ``@given`` test prints
    its falsifying example and the run goes on: hypothesis imports libcst to
    report it, which warns DeprecationWarning on import, and the settings
    turn every other DeprecationWarning into an error."""
    (tmp_path / "test_failing.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_after():
            pass
        """))
    env = {k: v for k, v in os.environ.items() if k != "PYTEST_ADDOPTS"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c",
         str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
