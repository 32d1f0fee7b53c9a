"""The seeded outputs of `tests/data/pinned_outputs.json`, recomputed.

`scripts/pin_outputs.py` wrote the record; the package under test must give
every entry back byte for byte. A numpy version other than the record's can
move a trajectory by itself, so a failure names both versions.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def pin_outputs():
    path = ROOT / "scripts" / "pin_outputs.py"
    spec = importlib.util.spec_from_file_location("pin_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def pinned(pin_outputs) -> dict:
    return json.loads(pin_outputs.OUT.read_text())


def mismatch(pinned: dict, versions: dict, what: str) -> str:
    return (f"{what} differs from the pinned record, written with numpy"
            f" {pinned['versions']['numpy']} (Python {pinned['versions']['python']});"
            f" this run has numpy {versions['numpy']} (Python {versions['python']})")


def canonical(entry) -> str:
    return json.dumps(entry, sort_keys=True)


def test_solve_records_are_pinned(pin_outputs, pinned):
    ours = json.loads(json.dumps(pin_outputs.solve_records()))
    assert sorted(ours) == sorted(pinned["solve"])
    for key, entry in pinned["solve"].items():
        assert canonical(ours[key]) == canonical(entry), mismatch(
            pinned, pin_outputs.versions(), repr(key))


def test_bench_tables_are_pinned(pin_outputs, pinned):
    ours = pin_outputs.bench_record()
    for key, text in pinned["bench"].items():
        assert ours[key] == text, mismatch(pinned, pin_outputs.versions(), f"the bench {key}")


def test_record_covers_the_promised_inputs(pin_outputs, pinned):
    solve = pinned["solve"]
    assert len(solve) == 5 * (2 + 2 * 3) + 2 * 2
    assert all("elapsed_seconds" not in entry for entry in solve.values())
    assert "error" in solve["generated n=300/p=60 seed 1 exact"]  # the DP refuses p=60
    # the wide runs keep their ant costs and the hash of their final trails
    name, build = pin_outputs.WIDE
    wide = {key[len(name) + 1:]: entry for key, entry in solve.items() if key.startswith(name)}
    assert len(wide) == 2 * 2
    l_nn = pin_outputs.gtsp.nn_reference_cost(build())[0]
    for entry in wide.values():
        assert len(entry["ant_costs"]) == len(entry["trace"]) == 8
        assert len(entry["tau_sha256"]) == 64 and int(entry["tau_sha256"], 16) >= 0
        # an ant beats the NN incumbent, so the variants' deposits part
        assert min(map(min, entry["ant_costs"])) < l_nn
    for seed in range(2):
        acs, racs = wide[f"acs seed {seed}"], wide[f"racs seed {seed}"]
        assert acs["ant_costs"] != racs["ant_costs"]
        assert acs["tau_sha256"] != racs["tau_sha256"]
    assert pinned["bench"]["csv"].startswith("problem,nc,n,optimum,exact_best,")
