"""The suite's own settings: a failing test is reported, and the run goes on."""

import textwrap
from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parent.parent


def test_a_failing_hypothesis_test_hides_no_later_result(pytester):
    # under the repository's warning filters, one failing @given test must
    # not end the run before the passing test after it
    pytester.makefile(".toml", pyproject=(ROOT / "pyproject.toml").read_text())
    (pytester.path / "tests").mkdir()
    (pytester.path / "tests" / "test_sample.py").write_text(textwrap.dedent(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    ))
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    assert result.ret == 1
