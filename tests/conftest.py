"""Session hooks behind acceptance criterion 6.

Criterion 6 (`test_acceptance.py::test_c6_property_suites`) checks the
randomized suites of `test_properties.py`.  When the session runs that whole
file, the hooks below record each of its test reports and run criterion 6
near the end, so it judges from those reports instead of running the file
again.  Criterion 9 (the runtime budget of criteria 1-8) runs after it, so
its wall time still covers criterion 6's work.
"""

import pytest

PROPERTY_FILE = "test_properties.py"
LAST = {"test_c6_property_suites": 1, "test_c9_runtime_budget": 2}

_reports = pytest.StashKey[list]()
_deselected = pytest.StashKey[bool]()


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: LAST.get(item.name, 0))  # stable: c6, then c9, last


def pytest_deselected(items):
    for item in items:
        if item.path.name == PROPERTY_FILE:
            item.config.stash[_deselected] = True


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    if item.path.name == PROPERTY_FILE:
        item.stash.setdefault(_reports, []).append(outcome.get_result())


@pytest.fixture
def property_suite_runs(request):
    """[(item, its setup/call/teardown reports)] for every test of the property
    file, or None when this session did not collect that whole file."""
    config = request.config
    items = [item for item in request.session.items if item.path.name == PROPERTY_FILE]
    narrowed = any(PROPERTY_FILE + "::" in str(arg) for arg in config.args)
    if not items or narrowed or config.stash.get(_deselected, False):
        return None
    return [(item, item.stash.get(_reports, [])) for item in items]
