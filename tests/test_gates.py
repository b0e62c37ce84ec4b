"""The verdict logic of ``benchmarks/gates.py``, on injected costs."""

import importlib.util
import sys
from pathlib import Path

import pytest

GATES = Path(__file__).resolve().parent.parent / "benchmarks" / "gates.py"


@pytest.fixture(scope="module")
def gates():
    spec = importlib.util.spec_from_file_location("gates", GATES)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up while the class is created.
    sys.modules["gates"] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules["gates"]
    return module


def costs(values, calls=None, side=None):
    """A cost function returning ``values[k]`` for pair ``k``."""

    def cost(k):
        if calls is not None:
            calls.append((side, k))
        return values[k]

    return cost


def test_median_ratio_wins_and_off_iqr(gates):
    on, off = [1.0, 2.0, 4.0, 1.0, 2.0], [3.0, 4.0, 2.0, 1.0, 6.0]
    pairing = gates.paired(costs(on), costs(off), pairs=5, warmup=0)
    assert pairing.on == on and pairing.off == off
    # Per-pair ratios off / on: 3, 2, 0.5, 1, 3.
    assert pairing.ratio == 2.0
    # Pair 2 lost and pair 3 tied: ties count for neither side.
    assert pairing.wins == 3
    # Off quartiles of [1, 2, 3, 4, 6] are 2 and 4.
    assert pairing.iqr == 2.0


def test_pairs_alternate_which_side_runs_first(gates):
    calls = []
    gates.paired(costs([1.0] * 4, calls, "on"), costs([1.0] * 4, calls, "off"),
                 pairs=4, warmup=1)
    assert calls == [
        ("on", 0), ("off", 0),  # warm-up, dropped
        ("on", 0), ("off", 0), ("off", 1), ("on", 1),
        ("on", 2), ("off", 2), ("off", 3), ("on", 3),
    ]


def test_dict_costs_pair_field_by_field(gates):
    on = [{"s": 1.0, "mb": 80.0}, {"s": 2.0, "mb": 81.0}]
    off = [{"s": 2.0, "mb": 90.0}, {"s": 3.0, "mb": 90.0}]
    runs = gates.paired(costs(on), costs(off), pairs=2, warmup=0)
    assert runs.of("s").ratio == pytest.approx(1.75)
    assert runs.of("mb").wins == 2


def test_self_comparison_reads_red_on_every_ratio_bar(gates):
    same = costs([1.0, 3.0, 2.0, 5.0, 4.0, 2.5, 1.5])
    pairing = gates.paired(same, same, pairs=7)
    assert pairing.ratio == 1.0
    assert pairing.wins == 0
    bars = [bar for bar in gates.RATIO_BARS.values() if bar > 1]
    assert len(bars) == len(gates.RATIO_BARS)
    assert pairing.ratio < min(bars)
    for name in gates.RATIO_BARS:
        assert gates.ratio_row(name, pairing).ok is False


def test_a_failed_check_turns_a_ratio_row_red(gates):
    fast = gates.paired(costs([1.0] * 3), costs([40.0] * 3), pairs=3)
    assert gates.ratio_row("engine", fast).ok is True
    row = gates.ratio_row("ivf", fast, checks=[("recall@10 ≥ 0.95", False)])
    assert row.ok is False
    assert "FAILED recall@10" in row.note
