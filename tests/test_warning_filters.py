"""pyproject.toml turns every DeprecationWarning into an error.  A failing
hypothesis test must still print its falsifying example and let the rest of
the suite run, so that report path has to import cleanly under those filters."""

import importlib
import importlib.util

import pytest


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None,
    reason="hypothesis reports falsifying examples through libcst only when it is installed",
)
def test_hypothesis_example_reporter_imports_under_the_suite_filters():
    # pytest.importorskip would silence warnings during the import and so
    # pass whatever the filters say
    importlib.import_module("hypothesis.extra._patching")
