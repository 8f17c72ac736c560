"""Public API surface: everything advertised in __all__ exists and imports."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.blockchain",
    "repro.common",
    "repro.core",
    "repro.crypto",
    "repro.planner",
    "repro.security",
    "repro.sore",
    "repro.storage",
    "repro.workloads",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_entries_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must declare __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} in __all__ but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_sorted_and_unique(package):
    module = importlib.import_module(package)
    entries = [n for n in module.__all__ if n != "__version__"]
    assert len(entries) == len(set(entries)), f"duplicates in {package}.__all__"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_quickstart_docstring_is_runnable():
    """The package docstring's example must actually work."""
    from repro import Query, SlicerParams, SlicerSystem, make_database

    params = SlicerParams.testing(value_bits=8)
    system = SlicerSystem(params)
    system.setup(make_database([("r1", 41), ("r2", 7)], bits=8))
    outcome = system.search(Query.parse(10, ">"))
    assert outcome.verified and len(outcome.record_ids) == 1



@pytest.mark.parametrize(
    "module,path",
    [
        ("repro", "RangeQuery"),
        ("repro", "RangeOutcome"),
        ("repro.core", "RangeQuery"),
        ("repro.system", "SlicerSystem.range_search"),
        ("repro.core.user", "DataUser.range_tokens"),
        ("repro.core.cloud", "CloudServer.search_plan"),
        ("repro.sharding", "ShardedCloudFrontend.search_plan"),
    ],
)
def test_superseded_range_api_is_gone(module, path):
    """Two-sided ranges go through the planner: ``search_plan(Range(...))``."""
    owner, _, name = path.rpartition(".")
    target = importlib.import_module(module)
    if owner:
        target = getattr(target, owner)
    assert not hasattr(target, name)
