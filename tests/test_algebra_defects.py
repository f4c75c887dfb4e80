"""The exact identity suite against defects injected into the flat kernel.

Each defect corrupts one table the kernel reads: an entry of the wedge sign
table, an eigenvalue of the squared J action, or the matrix of J itself.
The cached structure tensors are rebuilt under the defect, and a named
identity must then fail with a nonzero residual while it passes on the
intact kernel.
"""

from __future__ import annotations

import importlib
from fractions import Fraction

import pytest

from su3forms import forms, identities, structure
from su3forms.identities import run_algebra_suite

#: modules whose functools caches hold values derived from the kernel tables
FLAT_MODULES = ("forms", "structure", "sampling", "identities", "deformation")


def _clear_caches() -> None:
    for name in FLAT_MODULES:
        for obj in vars(importlib.import_module(f"su3forms.{name}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_caches()
    yield
    _clear_caches()


def _exact_check(name: str):
    report = run_algebra_suite(trials=3, seed=0, mode="exact")
    return next(c for c in report.checks if c.name == name)


def _assert_caught(name: str, inject) -> None:
    clean = _exact_check(name)
    assert clean.passed and clean.max_residual == 0.0
    inject()
    _clear_caches()
    broken = _exact_check(name)
    assert not broken.passed
    assert broken.max_residual > 0.0


def test_flipped_wedge_sign_is_caught(fresh_caches, monkeypatch):
    e12, e34 = 0b000011, 0b001100
    signs = [list(row) for row in forms._WEDGE_SIGNS]
    signs[e12][e34] = -signs[e12][e34]
    _assert_caught(
        "structure_compatibility",
        lambda: monkeypatch.setattr(forms, "_WEDGE_SIGNS", tuple(map(tuple, signs))),
    )


def test_wrong_type_eigenvalue_is_caught(fresh_caches, monkeypatch):
    _assert_caught(
        "type_projector_algebra",
        lambda: monkeypatch.setitem(structure.TYPE_EIGENVALUES[3], (3, 0), -8),
    )


def test_transposed_complex_structure_is_caught(fresh_caches, monkeypatch):
    transposed = tuple(zip(*structure._J_ROWS))
    _assert_caught(
        "psi_minus_from_j",
        lambda: monkeypatch.setattr(structure, "_J_ROWS", transposed),
    )


def test_exact_residual_below_float_range_fails(monkeypatch):
    # 10**-400 converts to the float 0.0, yet it is not an exact zero
    tiny = Fraction(1, 10**400)
    monkeypatch.setattr(identities, "CHECKS", (("tiny", lambda rng, mode: tiny),))
    (check,) = run_algebra_suite(trials=2, mode="exact").checks
    assert check.max_residual == 0.0
    assert not check.passed


def test_nan_residual_fails(monkeypatch):
    # the NaN of the first trial must survive the finite residual of the second
    residuals = iter([float("nan"), 0.0])
    monkeypatch.setattr(
        identities, "CHECKS", (("nan", lambda rng, mode: next(residuals)),)
    )
    (check,) = run_algebra_suite(trials=2, mode="float").checks
    assert check.max_residual != check.max_residual
    assert not check.passed


def test_nan_survives_the_norms():
    nan = float("nan")
    rows = [[0.0] * 6 for _ in range(6)]
    rows[0][0], rows[5][5] = 3.0, nan
    for worst in (
        structure.Endo("float", rows).max_norm(),
        identities._worst(forms.Form("float", {1: 0.5}), nan),
        identities._worst(nan, forms.Form("float", {1: 0.5})),
    ):
        assert worst != worst
    assert identities._worst(forms.Form("float", {1: 0.5}), -2.0) == 2.0


@pytest.mark.parametrize("trials", [0, -1])
def test_empty_algebra_run_is_rejected(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_algebra_suite(trials=trials)
