"""The suite's own pytest settings: a failing test reports its failure."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_test_reports_its_assertion(pytester):
    pytester.makepyfile(test_property="""
        from hypothesis import given, strategies as st

        @given(st.integers(min_value=0))
        def test_negative(x):
            assert x < 0, "property does not hold"
    """)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path),
        "-p", "no:cacheprovider", "test_property.py")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*AssertionError: property does not hold*"])
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
