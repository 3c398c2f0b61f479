"""Analytic level formulas, constraints, and eigensolver-oracle validation."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import conftest as shared
import etaqm as q
from etaqm import cli
from etaqm import operators as ops
from etaqm.errors import ConstraintError, ParameterError


# ---------------------------------------------------------------------------
# potential constructors
# ---------------------------------------------------------------------------

def test_scarf2_strengths_examples():
    pot = q.scarf2_potential(2.0, 1.0)
    assert pot.V1 == pytest.approx(7.0)
    assert pot.V2 == pytest.approx(-5.0)
    V1, V2 = q.scarf2_strengths(0.0, 2.0)
    assert V1 == pytest.approx(7.0 / 4.0)
    assert V2 == pytest.approx(-2.0)


def test_scarf2_rejects_integer_combination():
    with pytest.raises(ConstraintError):
        q.scarf2_potential(1.0, 0.5)  # A - B + 1/2 = 1


def test_scarf2_potential_rejects_bad_parameters():
    with pytest.raises(ConstraintError):
        q.scarf2_potential(-0.5, 1.0)
    with pytest.raises(ConstraintError):
        q.scarf2_potential(1.0, -2.0)
    with pytest.raises(ConstraintError):
        q.scarf2_potential(1.0, 0.5)  # A - B + 1/2 = 1 is an integer


def test_first_order_potential_gate_and_strengths():
    assert q.first_order_potential(2.0, 0.3) == ops.ScarfII(4.0, -2.0, 0.3)
    for d in (0.5, 0.4, -1.0):
        with pytest.raises(ConstraintError):
            q.first_order_potential(d)


def test_special_b1_equals_scarf2_at_unit_b(capsys):
    # both families are the same Scarf II point; only config.family differs
    reports = []
    for family in (("special-b1",), ("scarf2", "--B", "1")):
        argv = ["spectrum", "--family", *family, "--A", "1.3", "--L", "10", "--N", "120"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"].pop("family") == family[0]
        reports.append(cli.dump_json(report))
    assert reports[0] == reports[1]


def test_raw_potential_reaches_beyond_family():
    g = q.make_grid(5.0, 21)
    v = q.potential_on_grid(g, ops.ScarfII(2.0, 3.0))
    x = g.points
    sech, tanh = 1 / np.cosh(x), np.tanh(x)
    np.testing.assert_allclose(v, -2.0 * sech**2 - 3j * sech * tanh, atol=1e-13)
    assert not q.reality_condition(2.0, 3.0).ok


# The closed forms of the three named families before they became points of
# one ScarfII spec, kept as references for the sample bits.

def _sech_tanh(x):
    return 1.0 / np.cosh(x), np.tanh(x)


def _scarf2_reference(x, A, B):
    sech, tanh = _sech_tanh(x)
    V1 = 0.25 * (B**2 * (2 * A + 1) ** 2 + 3)
    V2 = -B * (2 * A + 1)
    return -V1 * sech**2 - 1j * V2 * sech * tanh


def _first_order_reference(x, d, k):
    sech, tanh = _sech_tanh(x)
    return -d * d * sech**2 + k + 1j * d * sech * tanh


def _special_b1_reference(x, A):
    sech, tanh = _sech_tanh(x)
    return -(A * A + A + 1) * sech**2 + 1j * (2 * A + 1) * sech * tanh


def _grid(L, n, parity):
    return q.make_grid(L, 2 * n + parity)


@pytest.mark.parametrize("parity", [0, 1], ids=["even-N", "odd-N"])
@settings(max_examples=150, deadline=None)
@given(L=st.floats(1.0, 24.0), n=st.integers(2, 40),
       A=st.floats(-0.49, 6.0), B=st.floats(0.01, 4.0))
def test_scarf2_potential_samples_are_the_former_closed_form(parity, L, n, A, B):
    try:
        pot = q.scarf2_potential(A, B)
    except ConstraintError:
        assume(False)
    g = _grid(L, n, parity)
    assert q.potential_on_grid(g, pot).tobytes() == _scarf2_reference(g.points, A, B).tobytes()


@pytest.mark.parametrize("parity", [0, 1], ids=["even-N", "odd-N"])
@settings(max_examples=150, deadline=None)
@given(L=st.floats(1.0, 24.0), n=st.integers(2, 40),
       d=st.floats(0.51, 6.0), k=st.floats(-5.0, 5.0).filter(lambda k: k != 0.0))
def test_first_order_potential_samples_are_the_former_closed_form(parity, L, n, d, k):
    g = _grid(L, n, parity)
    for shift in (0.0, k):
        got = q.potential_on_grid(g, q.first_order_potential(d, shift))
        assert got.tobytes() == _first_order_reference(g.points, d, shift).tobytes()


@settings(max_examples=150, deadline=None)
@example(L=16.0, N=41, A=2.0)
@given(L=st.floats(1.0, 24.0), N=st.integers(4, 81), A=st.floats(-0.49, 6.0))
def test_special_b1_samples_move_only_with_the_rounding_of_v1(L, N, A):
    # V1 = [(2A+1)^2 + 3]/4 replaces A^2 + A + 1; the two roundings differ by
    # at most 2 ulp, and not at all for A = 2
    g = q.make_grid(L, N)
    got = q.potential_on_grid(g, ops.ScarfII(*q.scarf2_strengths(A, 1.0)))
    ref = _special_b1_reference(g.points, A)
    assert got.imag.tobytes() == ref.imag.tobytes()
    np.testing.assert_allclose(got.real, ref.real, rtol=1e-15, atol=0)
    if A == 2.0:
        assert got.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# level formulas
# ---------------------------------------------------------------------------

def test_levels_b1_reference_point():
    ls = q.scarf2_levels(2.0, 1.0)
    assert ls.series1 == (-4.0, -1.0)
    assert ls.series2 == (-0.25,)
    assert ls.provenance == "paper"
    assert ls.params["lambda"] == pytest.approx(-2.5)
    assert ls.reality_ok and ls.constraint_ok and not ls.degenerate


def test_levels_doubled_at_collision_point():
    # A = 1/2, B = 1 collapses both series onto -1/4; flagged, not rejected
    ls = q.scarf2_levels(0.5, 1.0)
    assert ls.series1 == (-0.25,)
    assert ls.series2 == (-0.25,)
    assert ls.degenerate
    assert not ls.constraint_ok


def test_levels_general_b_example():
    ls = q.scarf2_levels(2.0, 0.5)  # t = 5/2
    assert ls.series1 == (-0.5625,)
    assert ls.provenance == "derived"


def test_first_order_levels_examples():
    assert q.first_order_levels(2.5, 0.0).series1 == (-4.0, -1.0)
    assert q.first_order_levels(1.0, 0.0).series1 == (-0.25,)
    with pytest.raises(ConstraintError):
        q.first_order_levels(0.5, 0.0)
    with pytest.raises(ConstraintError):
        q.first_order_levels(0.4, 0.0)


def test_first_order_levels_shift():
    ls = q.first_order_levels(2.5, 1.0)
    assert ls.series1 == (-3.0, 0.0)


def test_reality_condition_examples():
    assert q.reality_condition(7.0, 5.0).ok
    boundary = q.reality_condition(1.0, 1.25)
    assert boundary.ok and boundary.margin == pytest.approx(0.0)
    assert not q.reality_condition(1.0, 2.0).ok
    with pytest.raises(ParameterError):
        q.reality_condition(-1.0, 0.5)


def test_family_points_always_meet_reality_condition():
    rng = np.random.default_rng(14)
    for _ in range(50):
        A = rng.uniform(-0.49, 4.0)
        B = rng.uniform(0.05, 3.0)
        V1, V2 = q.scarf2_strengths(A, B)
        check = q.reality_condition(V1, V2)
        assert check.ok and check.eq_family_point
        # margin reduces to [B(2A+1) - 2]^2 / 4
        assert check.margin == pytest.approx((B * (2 * A + 1) - 2) ** 2 / 4, abs=1e-12)


# ---------------------------------------------------------------------------
# eigensolver-oracle validation of the derived closed forms
# ---------------------------------------------------------------------------

def _oracle_devs(kind, p1, p2, analytic, N):
    b = shared.bound_states(kind, p1, p2, N)
    return [float(np.min(np.abs(b.values - e))) for e in analytic]


@pytest.mark.parametrize("A,B", [(2.0, 0.5), (0.975, 2.0), (1.3, 1.25)])
def test_scarf2_levels_match_numerics_general_b(A, B):
    ls = q.scarf2_levels(A, B)
    V1, V2 = q.scarf2_strengths(A, B)
    devs = _oracle_devs("scarf2-raw", V1, V2, ls.all_levels(), 1600)
    assert max(devs) <= 1e-3


@pytest.mark.parametrize("d,N", [(1.0, 1600), (2.5, 1600), (4.0, 3200)])
def test_first_order_levels_match_numerics(d, N):
    # deep wells need the finer grid for the stated 1e-3 agreement
    ls = q.first_order_levels(d, 0.0)
    devs = _oracle_devs("first-order", d, 0.0, ls.all_levels(), N)
    assert max(devs) <= 1e-3


def test_level_doubling_against_real_scarf_count():
    # B = 1, A = 2: numerical bound count equals |series1| + 1
    ls = q.scarf2_levels(2.0, 1.0)
    b = shared.bound_states("scarf2", 2.0, 1.0, 1600)
    assert len(b.values) == len(ls.series1) + 1


def test_degenerate_point_reported_not_certified():
    # at the collision point the filter may keep 0..2 states near -1/4;
    # the doubled analytic level itself is the certified output
    ls = q.scarf2_levels(0.5, 1.0)
    assert ls.all_levels().tolist() == [-0.25, -0.25]
    V1, V2 = q.scarf2_strengths(0.5, 1.0)
    assert q.reality_condition(V1, V2).margin == pytest.approx(0.0)


def test_levelsets_are_strictly_negative_without_shift():
    for ls in (q.scarf2_levels(2.0, 1.0), q.scarf2_levels(0.975, 2.0),
               q.first_order_levels(3.3, 0.0)):
        assert all(e < 0 for e in ls.series1 + ls.series2)
