"""Euler-characteristic identities for Hom of a Boolean algebra."""

import pytest

from homchains import (
    chain_product_complex,
    euler_closed_form,
    euler_formula,
    euler_recursion,
    euler_table,
    f_vector_bn,
    homology,
)


def test_anchor_values():
    assert euler_formula(1) == 1
    assert euler_formula(2) == 1
    assert euler_formula(3) == 0
    assert euler_formula(4) == -6


def test_recursion_cross_check():
    assert euler_recursion(5) == 5 * (-6) - 10 * 0 == -30
    assert euler_formula(5) == -30


def test_closed_form_cases():
    assert euler_closed_form(7) == 0
    assert euler_closed_form(4) == -6
    assert euler_closed_form(8) == 40320 // 16 == 2520


def test_methods_agree_up_to_20():
    for n in range(1, 21):
        assert euler_formula(n) == euler_recursion(n) == euler_closed_form(n)


def test_f_vector_values():
    assert (f_vector_bn(4, 0), f_vector_bn(4, 1), f_vector_bn(4, 2)) == (24, 36, 6)
    assert f_vector_bn(3, 1) == 6
    for n in range(1, 9):
        assert f_vector_bn(n, 0) == __import__("math").factorial(n)
    with pytest.raises(ValueError):
        f_vector_bn(4, 3)


def test_alternating_sums_match_formula():
    for n in range(1, 13):
        assert sum((-1) ** k * f_vector_bn(n, k) for k in range(n // 2 + 1)) == euler_formula(n)


def test_table_contains_all_methods():
    # one (n, chi_n) per n, once the three methods agree on it
    table = euler_table(6)
    assert table == tuple((n, euler_formula(n)) for n in range(1, 7))
    assert all(chi == euler_recursion(n) == euler_closed_form(n) for n, chi in table)


def test_euler_command_fails_when_the_methods_disagree(monkeypatch, capsys):
    from homchains import euler
    from homchains.cli import main

    monkeypatch.setattr(euler, "euler_recursion", lambda n: euler_formula(n) + (n == 3))
    assert main(["euler", "--n-max", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: internal check failed: Euler methods disagree at n = 3")


def test_betti_alternating_sum_matches_chi():
    for n in range(1, 6):
        h = homology(chain_product_complex((1,) * n))
        assert sum((-1) ** d * b for d, b in enumerate(h.betti)) == euler_formula(n)
        assert h.torsion_free


def test_euler_table_refuses_past_its_guard(capsys):
    from homchains import CapExceeded
    from homchains.cli import main
    from homchains.euler import EULER_MAX_N

    assert EULER_MAX_N >= 20
    with pytest.raises(CapExceeded):
        euler_table(EULER_MAX_N + 1)
    assert main(["euler", "--n-max", "100000"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: n = 100000 exceeds")
