import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_parity.py"


@pytest.fixture(scope="module")
def cli_parity():
    spec = importlib.util.spec_from_file_location("cli_parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _max_rel(text: str) -> float:
    return float(text.split("max rel ")[1].split(",")[0])


def test_round_off_near_zero_reads_as_round_off(cli_parity):
    # a q1 cell of -4.9e-7 moved by 1.2e-15 is scaled by 1, not by itself
    a = -4.9e-7
    old = f"t,q1\n0,{a:.17g}\n".encode()
    new = f"t,q1\n0,{a + 1.2e-15:.17g}\n".encode()
    text = cli_parity.cell_diff(old, new)
    assert text.startswith("1/2 numeric cells")
    assert _max_rel(text) <= 1.2e-15


def test_large_cells_are_scaled_by_their_magnitude(cli_parity):
    text = cli_parity.cell_diff(b"x\n1.0\n", b"x\n1.1\n")
    assert text == "1/1 numeric cells, max rel 0.091"
    assert _max_rel(text) == pytest.approx(0.1, rel=0.1)


def test_texts_of_other_shapes_are_not_compared(cli_parity):
    assert cli_parity.cell_diff(b"a,b\n1,2\n", b"a,b\n1,2,3\n") == "other rows or columns"
