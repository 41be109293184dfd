import numpy as np
import pytest

from stepprop import quadrature
from stepprop.errors import QuadratureError
from stepprop.quadrature import integrate_adaptive

CS = np.array([0.5, 3.0, 20.0, 0.01])


def _columns(xs):
    return np.exp(1j * np.outer(xs * xs, CS)) / (1.0 + np.outer(xs, CS) ** 2)


def test_each_interval_and_column_equals_its_own_call():
    edges = np.array([0.0, 1.0, 2.5, 4.0, 4.0])
    vals, errs, n_evals = integrate_adaptive(_columns, edges[:-1], edges[1:])
    assert vals.shape == errs.shape == (4, CS.size)
    shared = 0
    for i in range(4):
        for j, c in enumerate(CS):
            one = lambda xs: np.exp(1j * c * xs * xs) / (1.0 + (c * xs) ** 2)
            (v,), (e,), n = integrate_adaptive(one, edges[i],
                                               edges[i + 1])
            assert abs(vals[i, j] - v) <= 4 * np.finfo(float).eps * max(abs(v), 1)
            assert abs(errs[i, j] - e) <= 4 * np.finfo(float).eps * max(abs(v), 1)
            shared = max(shared, n)
    # the zero-width interval costs nothing and integrates to zero
    assert np.all(vals[3] == 0.0) and np.all(errs[3] == 0.0)
    assert shared <= n_evals


def test_one_interval_one_column_returns_scalars():
    # f of shape (n,) is one column: the column axis is kept
    v, e, n = integrate_adaptive(np.cos, 0.0, 1.0)
    assert v.shape == e.shape == (1,)
    assert v.dtype == complex and e.dtype == float
    assert abs(v[0] - np.sin(1.0)) < 1e-12 and n > 0


def test_panel_budget_is_per_column(monkeypatch):
    # the oscillatory column alone exhausts a small budget
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    with pytest.raises(QuadratureError, match="panel budget 8"):
        integrate_adaptive(lambda xs: np.stack(
            [np.cos(xs), np.cos(400.0 * xs * xs)], axis=1), 0.0, 3.0)
    integrate_adaptive(np.cos, 0.0, 3.0)
