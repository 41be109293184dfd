import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepprop.errors import GammaPoleError, SeriesConvergenceError
from stepprop.specfun import (_gamma_ratio, hyp2f1, hyp2f1_cols_rows,
                              hyp2f1_with_complement)

# arbitrary-precision reference values computed offline (40-digit arithmetic)
HYP_A = 1.0350909034666379962 + 1.8356376523910555046j      # (1+.3i,.3i;1+.6i;.999)
HYP_B = 0.49350680889584024066 - 0.30323707269227578015j    # (1+1.2i,1.2i;1-.8i;.73)
HYP_C = 0.18866416028998307884 + 0.72241859666604698745j    # (1.35+.55i,.35+.55i;1.7;1-1e-6)


@given(st.floats(0.05, 0.95), st.floats(-20.0, 20.0))
@settings(max_examples=60, deadline=None)
def test_gamma_reflection_formula(frac, im):
    # Gamma(z) Gamma(1 - z) through the gamma ratio of the connection formula
    z = complex(frac, im)
    lhs = _gamma_ratio([z, 1.0 - z], [])
    rhs = math.pi / np.sin(math.pi * z)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_hyp2f1_at_zero_is_one():
    assert hyp2f1(2.3 + 1j, -0.7j, 1.1, 0.0) == pytest.approx(1.0)


def test_hyp2f1_log_closed_form():
    # 2F1(1,1;2;z) = -log(1-z)/z
    z = 0.5
    assert abs(hyp2f1(1.0, 1.0, 2.0, z) + math.log(1 - z) / z) < 1e-12


def test_hyp2f1_oracles():
    assert abs(hyp2f1(1 + 0.3j, 0.3j, 1 + 0.6j, 0.999) - HYP_A) < 1e-10 * abs(HYP_A)
    assert abs(hyp2f1(1 + 1.2j, 1.2j, 1 - 0.8j, 0.73) - HYP_B) < 1e-10 * abs(HYP_B)
    v = hyp2f1_with_complement(1.35 + 0.55j, 0.35 + 0.55j, 1.7, 1 - 1e-6, 1e-6)
    assert abs(v - HYP_C) < 1e-10 * abs(HYP_C)


def test_hyp2f1_gauss_summation_limit():
    a, b, c = 0.3, 0.25, 2.0
    v = hyp2f1(a, b, c, 1.0 - 1e-8)
    target = math.exp(math.lgamma(c) + math.lgamma(c - a - b)
                      - math.lgamma(c - a) - math.lgamma(c - b))
    assert abs(v - target) < 1e-6 * abs(target)


@given(st.floats(0.2, 3.0), st.floats(-2.0, 2.0), st.floats(0.05, 0.9))
@settings(max_examples=40, deadline=None)
def test_hyp2f1_contiguous_relation_in_c(ar, bi, z):
    # c(c-1)(z-1)F(c-1) + c[c-1-(2c-a-b-1)z]F(c) + (c-a)(c-b)zF(c+1) = 0
    a = complex(ar, 0.4)
    b = complex(0.3, bi)
    c = complex(1.6, 0.2)
    f_m = hyp2f1(a, b, c - 1, z)
    f_0 = hyp2f1(a, b, c, z)
    f_p = hyp2f1(a, b, c + 1, z)
    lhs = (c * (c - 1) * (z - 1) * f_m
           + c * (c - 1 - (2 * c - a - b - 1) * z) * f_0
           + (c - a) * (c - b) * z * f_p)
    scale = max(abs(f_m), abs(f_0), abs(f_p), 1.0)
    assert abs(lhs) < 1e-9 * scale * abs(c * (c - 1))


def test_hyp2f1_degenerate_logarithmic_case():
    # c = a + b exactly triggers the limiting form; compare with a nearby
    # non-degenerate evaluation
    a, b = 1.3 + 0.2j, 0.4 - 0.1j
    v_degen = hyp2f1(a, b, a + b, 0.9)
    v_near = hyp2f1(a, b, a + b + 1e-7, 0.9)
    assert abs(v_degen - v_near) < 2e-6 * abs(v_degen)


def test_hyp2f1_mixed_degenerate_batch():
    # c = a+b and c = a+b+1 in one batch must each get their own m
    mpmath = pytest.importorskip("mpmath")
    a, b = 0.3 + 0.2j, 0.5 - 0.1j
    vals = hyp2f1([a, a], [b, b], [a + b, a + b + 1], 0.8)
    for v, c in zip(vals, (a + b, a + b + 1)):
        ref = complex(mpmath.hyp2f1(a, b, c, 0.8))
        assert abs(v - ref) < 1e-12 * abs(ref)


# a and b off the real axis on the same side, like the eigenstates' 1 + nu
# and nu, so that c = a + b + m stays off the poles of Gamma(c)
_PARAM = st.builds(complex, st.floats(-0.5, 2.0), st.floats(0.05, 1.5))
_DEGENERATE = dict(
    m=st.sampled_from([0, 1, -1, 2, -2]), a=_PARAM, b=_PARAM,
    z=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True))


@given(**_DEGENERATE)
@settings(max_examples=80, deadline=None)
def test_hyp2f1_integer_c_minus_a_minus_b_vs_mpmath(m, a, b, z):
    # the logarithmic connection formula for every integer m = c - a - b
    mpmath = pytest.importorskip("mpmath")
    c = a + b + m
    with mpmath.workdps(30):
        ref = complex(mpmath.hyp2f1(a, b, c, z))
    assert abs(hyp2f1(a, b, c, z) - ref) <= 1e-12 * abs(ref)


@given(**_DEGENERATE)
@settings(max_examples=30, deadline=None)
def test_grid_integer_c_minus_a_minus_b_vs_mpmath(m, a, b, z):
    # a degenerate column takes the log form inside the grid, next to a
    # regular column; a terminating one (a = -2, c - a - b = -1) sums its
    # polynomial.  One argument row with z on both sides of 1/2 goes
    # through hyp2f1_with_complement, which splits it
    mpmath = pytest.importorskip("mpmath")
    a_col = np.array([[a], [0.4 + 0.3j], [-2.0]])
    b_col = np.array([[b], [0.2 - 0.6j], [0.5 + 0.3j]])
    c_col = a_col + b_col + np.array([[m], [0.37], [-1.0]])
    # exact complements: 0.5 + 0.5 z rounds to 1.0 for z = 1 - 2^-53
    zcs = np.array([[1.0 - z, 0.5 * (1.0 - z)]])
    vals = hyp2f1_cols_rows(a_col, b_col, c_col, 1.0 - zcs, zcs)
    zcs_split = np.array([[1.0 - z, 0.75, 0.5 * (1.0 - z), 0.95]])
    split = hyp2f1_with_complement(a_col, b_col, c_col, 1.0 - zcs_split,
                                   zcs_split)
    assert vals.shape == (3, 2) and split.shape == (3, 4)
    with mpmath.workdps(30):
        for got, row in ((vals, zcs), (split, zcs_split)):
            for i in range(3):
                for j in range(row.shape[1]):
                    ref = complex(mpmath.hyp2f1(
                        a_col[i, 0], b_col[i, 0], c_col[i, 0],
                        1 - mpmath.mpf(row[0, j])))
                    assert abs(got[i, j] - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("n", range(4))
def test_terminating_series_at_integer_c_minus_a_minus_b(n):
    # a or b at -n ends the series: 2F1 is a polynomial in z, which the
    # degenerate branch takes instead of the log form (digamma(-n) is a pole)
    mpmath = pytest.importorskip("mpmath")
    b = 0.5 + 0.3j
    for a_, b_, c in ((-n, 0.5, 0.5 - n), (-n, b, b), (b, -n, b + 1 - n)):
        ref = complex(mpmath.hyp2f1(a_, b_, c, 0.7))
        assert abs(hyp2f1(a_, b_, c, 0.7) - ref) <= 1e-14 * max(abs(ref), 1.0)
    assert hyp2f1(-1, 0.5, -0.5, 0.7) == pytest.approx(1.7, abs=1e-15)
    assert hyp2f1(-1, b, b, 0.7) == pytest.approx(0.3, abs=1e-15)


def test_hyp2f1_domain_errors():
    with pytest.raises(ValueError):
        hyp2f1(1.0, 1.0, 2.0, 1.5)
    with pytest.raises(GammaPoleError):
        hyp2f1(1.0, 1.0, -2.0, 0.25)


def test_hyp2f1_cancellation_guard():
    # large imaginary parameters at z ~ 0.5 lose too many digits in double
    # precision; the implementation must refuse rather than degrade
    with pytest.raises(SeriesConvergenceError):
        hyp2f1(1 + 200j, 200j, 1 + 150j, 0.499)


def test_grid_cancellation_guard_is_per_cell():
    # 2F1(-30, 1; 1; z) = (1 - z)^30 is 9.3e-10 at z = 1/2 with terms up to
    # 2.9e4: one cancelling parameter column among benign ones must raise,
    # even though the grid's typical value is of order one
    benign_a = np.linspace(0.1, 1.2, 10)
    a = np.append(benign_a, -30.0).reshape(-1, 1)
    b = np.ones_like(a)
    c = np.append(benign_a + 1.5, 1.0).reshape(-1, 1)
    z = np.array([[0.1, 0.3, 0.5]])
    vals = hyp2f1_cols_rows(a[:-1], b[:-1], c[:-1], z, 1.0 - z)
    assert np.all(np.abs(vals) > 0.5)
    with pytest.raises(SeriesConvergenceError):
        hyp2f1_cols_rows(a, b, c, z, 1.0 - z)
