"""Wire formats: exact rationals, decimal approximations, CSV/JSON writers."""

from fractions import Fraction

import pytest

from ratiolab.errors import ParameterError
from ratiolab.serialize import (
    approx_str,
    frac_from_str,
    frac_to_str,
    render_csv,
    render_json,
    write_csv,
    write_json,
)


def test_frac_round_trip():
    for f in (Fraction(1, 3), Fraction(-7, 2), Fraction(0), Fraction(10**30, 7)):
        assert frac_from_str(frac_to_str(f)) == f
    assert frac_to_str(Fraction(1, 2)) == "1/2"
    assert frac_to_str(5) == "5/1"
    assert frac_from_str(" 3/4 ") == Fraction(3, 4)


def test_frac_from_str_rejects_garbage():
    for bad in ("", "abc", "1/0", "1.5.2", "1/2/3", 5, None, 0.5, Fraction(1, 2)):
        with pytest.raises(ParameterError):
            frac_from_str(bad)


@pytest.mark.parametrize("value", [0.1, 0.5, True, False])
def test_wire_forms_reject_floats_and_bools(value):
    # 0.1 would be written as its binary expansion and True as "1/1"
    with pytest.raises(ParameterError):
        frac_to_str(value)
    with pytest.raises(ParameterError):
        approx_str(value)


def test_approx_str_twenty_significant_digits():
    assert approx_str(Fraction(1, 3)) == "0.33333333333333333333"
    assert approx_str(Fraction(1, 2)) == "0.5"
    assert approx_str(Fraction(501)) == "501"
    # 20 significant digits of 1/7 = 0.142857...
    assert approx_str(Fraction(1, 7)) == "0.14285714285714285714"


def test_render_csv_layout():
    text = render_csv(["a", "b"], [[1, "x"], [2, "y"]], meta={"k": "v", "j": [1, 2]})
    assert text == "# k: v\n# j: [1, 2]\na,b\n1,x\n2,y\n"


def test_render_csv_no_meta():
    assert render_csv(["c"], [["z"]]) == "c\nz\n"


def test_write_csv_and_json_byte_stable(tmp_path):
    csv_path = tmp_path / "out.csv"
    write_csv(csv_path, ["v"], [[frac_to_str(Fraction(1, 3))]], meta={"seed": 7})
    first = csv_path.read_bytes()
    write_csv(csv_path, ["v"], [[frac_to_str(Fraction(1, 3))]], meta={"seed": 7})
    assert csv_path.read_bytes() == first
    assert first == b"# seed: 7\nv\n1/3\n"

    json_path = tmp_path / "out.json"
    write_json(json_path, {"b": 1, "a": [2, 3]})
    assert json_path.read_text() == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def test_render_json_sorts_keys():
    assert render_json({"z": 0, "a": 0}).index('"a"') < render_json({"z": 0, "a": 0}).index('"z"')
