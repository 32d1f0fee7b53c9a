from pathlib import Path

import pytest
from hypothesis import settings

import gtsp.aco
import gtsp.instance

settings.register_profile("default", deadline=None)
settings.load_profile("default")

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

# Module constants that tests change to steer the code under test; the CLI
# tests run in this process, so a change left behind would move later tests.
MODULE_CONSTANTS = ((gtsp.instance, "BLOCK_BYTES"), (gtsp.aco, "_FILTER_NODES"))


@pytest.fixture(autouse=True)
def module_constants_kept():
    """Fail a test that ends with a module constant other than it started
    with, and put the constant back. Compared per test, so a class-scoped
    fixture may hold a value for the whole class."""
    before = [getattr(module, name) for module, name in MODULE_CONSTANTS]
    yield
    changed = []
    for (module, name), value in zip(MODULE_CONSTANTS, before):
        if getattr(module, name) != value:
            changed.append(f"{module.__name__}.{name} {value} -> {getattr(module, name)}")
            setattr(module, name, value)
    if changed:
        pytest.fail(f"test left {', '.join(changed)}; set it through monkeypatch")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def eil51_text(data_dir) -> str:
    return (data_dir / "eil51.tsp").read_text()
