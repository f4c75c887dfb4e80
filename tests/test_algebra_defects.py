"""The exact identity suite against defects injected into the flat kernel.

Each defect corrupts one table the kernel reads: an entry of the wedge sign
table (four more entries, which the suite passes, must fail the wedge tuple
oracle instead), the matrix of J, an entry of the e_i -| psi_plus table
behind alpha, the (2,0) projection and the S part of a 3-form, or the psi
lines of the (3,0) projection.  Others corrupt one step of the integer arithmetic of
`Endo`, which keeps 36 numerators over one denominator: a transpose that
leaves the entries in place, a product over the wrong denominator (which
the suite passes, so it must fail the product oracle instead), a trace
that forgets the denominator, a sum that does not rescale its second
operand to the common denominator, and compositions with J that drop the
sign of its signed permutation.  An element of u(3) outside su(3) in the
spanning set of su(3) must fail `su3_invariance`.  A wrong eigenvalue of
the squared J action corrupts the expectation of `type_projector_algebra`
instead; `TYPE_EIGENVALUES` feeds nothing else but the (p,q) check of
`type_project`.  The caches are cleared,
the defect is patched in, and a named identity must then fail while it
passes on the intact kernel: with a nonzero residual, or with the NaN the
suite records when the residual guard of a decomposition raises inside it.
"""

from __future__ import annotations

import importlib
import json
from fractions import Fraction
from math import gcd

import pytest

from conftest import endo_product_mismatches, wedge_oracle_mismatches
from su3forms import cli, forms, identities, sampling, structure
from su3forms.identities import run_algebra_suite
from su3forms.structure import Endo

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
    _clear_caches()
    inject()
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


# One flipped wedge sign in each of the degree pairs (2,3), (3,1), (4,1) and
# (2,2) that the exact suite passes: no check wedges general forms of those
# degrees in that order, and omega ^ psi vanishes blade by blade.  Only the
# comparison of every blade pair with the tuple oracle sees them.
SUITE_BLIND_WEDGE_FLIPS = {
    "e12^e345": (0b000011, 0b011100),
    "e123^e4": (0b000111, 0b001000),
    "e1234^e5": (0b001111, 0b010000),
    "e13^e24": (0b000101, 0b001010),
}


@pytest.mark.parametrize("flip", sorted(SUITE_BLIND_WEDGE_FLIPS))
def test_flip_the_suite_misses_fails_the_wedge_oracle(fresh_caches, monkeypatch, flip):
    a, b = SUITE_BLIND_WEDGE_FLIPS[flip]
    assert wedge_oracle_mismatches() == []
    signs = [list(row) for row in forms._WEDGE_SIGNS]
    signs[a][b] = -signs[a][b]
    _clear_caches()
    monkeypatch.setattr(forms, "_WEDGE_SIGNS", tuple(map(tuple, signs)))
    assert wedge_oracle_mismatches() == [(a, b)]


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


def test_flipped_psi_plus_contraction_is_caught(fresh_caches, monkeypatch):
    name = "three_form_round_trip"
    clean = _exact_check(name)
    assert clean.passed and clean.max_residual == 0.0
    _clear_caches()
    table = [dict(t) for t in structure._PSI_PLUS_CONTRACTIONS]
    table[0][0b010100] = -table[0][0b010100]  # e35 in e1 -| psi_plus
    monkeypatch.setattr(structure, "_PSI_PLUS_CONTRACTIONS", tuple(table))
    # the 3-form residual guard raises inside the check; the whole suite still
    # reports, with the check failed on a NaN residual
    broken = _exact_check(name)
    assert broken.max_residual != broken.max_residual
    assert not broken.passed


def test_dropped_psi_minus_line_is_caught(fresh_caches, monkeypatch):
    _assert_caught(
        "type_projector_algebra",
        lambda: monkeypatch.setattr(structure, "_PSI_LINES", structure._PSI_LINES[:1]),
    )


def test_untransposed_endo_is_caught(fresh_caches, monkeypatch):
    _assert_caught(
        "anti_endo_round_trip",
        lambda: monkeypatch.setattr(Endo, "transpose", lambda self: self),
    )


def _product_over_one_denominator(self: Endo, other: Endo) -> Endo:
    nums = [
        sum(x * y for x, y in zip(self._nums[i : i + 6], other._nums[j::6]))
        for i in range(0, 36, 6)
        for j in range(6)
    ]
    return Endo._of(self.mode, nums, self._den)


def test_product_over_the_wrong_denominator_is_caught(monkeypatch):
    # the only products in a trial are A J and J A, whose right operand has
    # denominator 1, where the defect changes nothing; so the suite passes
    # it, and the products of basis endomorphisms against the nested-sum
    # oracle must fail instead
    assert endo_product_mismatches() == []
    monkeypatch.setattr(Endo, "__matmul__", _product_over_one_denominator)
    assert endo_product_mismatches()


def test_u3_element_in_the_su3_spanning_set_is_caught(fresh_caches, monkeypatch):
    # J on the first complex line alone: in u(3), not in su(3), and it moves
    # psi_plus by 1; the other eight elements still span su(3)
    rows = [[0] * 6 for _ in range(6)]
    rows[0][1], rows[1][0] = -1, 1
    intact = sampling.su3_spanning_set
    _assert_caught(
        "su3_invariance",
        lambda: monkeypatch.setattr(
            sampling,
            "su3_spanning_set",
            lambda mode: (*intact(mode)[:-1], Endo(mode, rows)),
        ),
    )


def test_trace_without_its_denominator_is_caught(fresh_caches, monkeypatch):
    _assert_caught(
        "sym_plus_action_trace",
        lambda: monkeypatch.setattr(
            Endo, "trace", lambda self: Fraction(sum(self._nums[::7]))
        ),
    )


def _sum_without_rescaling_the_second(self: Endo, other: Endo) -> Endo:
    da, db = self._den, other._den
    den = da // gcd(da, db) * db
    nums = [den // da * a + b for a, b in zip(self._nums, other._nums)]
    return Endo._of(self.mode, nums, den)


def test_sum_without_rescaling_the_second_operand_is_caught(fresh_caches, monkeypatch):
    # the only sums over unequal denominators in a trial build g_dot = h + S,
    # which only the metric_compatibility residual relates to the rest of the jet
    _assert_caught(
        "jet_constraint_residuals",
        lambda: monkeypatch.setattr(Endo, "__add__", _sum_without_rescaling_the_second),
    )


def _unsigned_j_left(a: Endo) -> Endo:
    nums = a._nums
    out = []
    for i in range(0, 36, 12):
        out += nums[i + 6 : i + 12]
        out += nums[i : i + 6]
    return Endo._of(a.mode, out, a._den)


def _unsigned_j_right(a: Endo) -> Endo:
    nums = a._nums
    out = []
    for i in range(0, 36, 2):
        out += (nums[i + 1], nums[i])
    return Endo._of(a.mode, out, a._den)


def _patch_everywhere(monkeypatch, name: str, value) -> None:
    """Replace a kernel function in every flat module that imported it."""
    for module in FLAT_MODULES:
        mod = importlib.import_module(f"su3forms.{module}")
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, value)


def _failed_checks() -> set[str]:
    report = run_algebra_suite(trials=3, seed=0, mode="exact")
    return {c.name for c in report.checks if not c.passed}


# S fails its own validation under either defect, so the jet checks record
# NaN rather than a residual
J_DEFECTS = {
    "j_compose_left": (
        _unsigned_j_left,
        {
            "sym_minus_j_conjugation",
            "sym_plus_action_trace",
            "anti_endo_round_trip",
            "params_jet_round_trip",
            "jet_constraint_residuals",
        },
    ),
    "j_compose_right": (
        _unsigned_j_right,
        {
            "sym_plus_action_trace",
            "anti_endo_round_trip",
            "params_jet_round_trip",
            "jet_constraint_residuals",
            "scaling_curve",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(J_DEFECTS))
def test_unsigned_j_composition_is_caught(fresh_caches, monkeypatch, name):
    defect, expected = J_DEFECTS[name]
    assert _failed_checks() == set()
    _clear_caches()
    _patch_everywhere(monkeypatch, name, defect)
    assert _failed_checks() == expected


def test_kernel_defect_fails_checks_instead_of_crashing(
    fresh_caches, monkeypatch, tmp_path, capsys
):
    _patch_everywhere(monkeypatch, "j_compose_left", _unsigned_j_left)
    out = tmp_path / "report.json"
    assert cli.main(["verify-algebra", "--trials", "2", "--out", str(out)]) == 1
    failed = {c["name"] for c in json.loads(out.read_text())["checks"] if not c["pass"]}
    assert "params_jet_round_trip" in failed
    assert "FAIL" in capsys.readouterr().out


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


def test_unknown_algebra_mode_is_rejected_before_any_trial(monkeypatch):
    def no_work(rng, mode):
        raise AssertionError("a trial ran in an unknown mode")

    monkeypatch.setattr(identities, "CHECKS", (("none", no_work),))
    with pytest.raises(forms.ModeError, match="unknown mode 'Exact'"):
        run_algebra_suite(trials=1, mode="Exact")


@pytest.mark.parametrize("trials", [0, -1])
def test_empty_algebra_run_is_rejected(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_algebra_suite(trials=trials)
