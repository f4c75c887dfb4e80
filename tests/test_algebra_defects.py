"""The exact identity suite against defects injected into the flat kernel.

Each defect corrupts one table the kernel reads: an entry of the wedge sign
table (four more entries, which the suite passes, must fail the wedge tuple
oracle instead), the matrix of J, an entry of the e_i -| psi_plus table
behind alpha, the (2,0) projection and the S part of a 3-form, or the psi
lines of the (3,0) projection.  Others corrupt one step of the integer arithmetic of
`Endo`, which keeps 36 numerators over one denominator: a transpose that
leaves the entries in place, a product over the wrong denominator (which
the suite meets in one check only, so it must fail the product oracle
too), a trace that forgets the denominator, and a sum that does not
rescale its second operand to the common denominator.  A J with the signs
of its signed permutation dropped must fail a pinned set of checks, since
every composition with J is a product with `complex_structure()`; so must
a J unsigned in the products J A only, or in A J only.  An
element of u(3) outside su(3) in the spanning set of su(3) must fail
`su3_invariance`.  A wrong eigenvalue of
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


def _failed_checks() -> set[str]:
    report = run_algebra_suite(trials=3, seed=0, mode="exact")
    return {c.name for c in report.checks if not c.passed}


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


def test_product_over_the_wrong_denominator_is_caught(fresh_caches, monkeypatch):
    # the defect changes nothing where the left operand carries the whole
    # denominator; in a trial only J (A J) with A = (B + B^T)/2 does not, in
    # `random_sym_plus`, and the products of basis endomorphisms against the
    # nested-sum oracle must fail as well
    assert endo_product_mismatches() == []
    assert _failed_checks() == set()
    monkeypatch.setattr(Endo, "__matmul__", _product_over_one_denominator)
    assert endo_product_mismatches()
    assert _failed_checks() == {"sym_plus_action_trace"}


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


def _unsign_j(monkeypatch) -> None:
    """Swap each coordinate pair symmetrically: J with its signs dropped."""
    unsigned = tuple(tuple(map(abs, row)) for row in structure._J_ROWS)
    _clear_caches()
    monkeypatch.setattr(structure, "_J_ROWS", unsigned)


# the decompositions and the jet round trip raise inside their checks, which
# record NaN
UNSIGNED_J_FAILURES = {
    "alpha_map_normalization",
    "anti_endo_round_trip",
    "jet_constraint_residuals",
    "lefschetz_on_vector_psi",
    "params_jet_round_trip",
    "psi_minus_from_j",
    "psi_minus_wedge_contractions",
    "psi_plus_wedge_contractions",
    "scaling_curve",
    "su3_invariance",
    "sym_minus_isomorphism",
    "sym_minus_j_conjugation",
    "sym_plus_action_trace",
    "three_form_round_trip",
    "type_projector_algebra",
}


def test_unsigned_complex_structure_is_caught(fresh_caches, monkeypatch):
    assert _failed_checks() == set()
    _unsign_j(monkeypatch)
    assert _failed_checks() == UNSIGNED_J_FAILURES


_MATMUL = Endo.__matmul__


def _unsigned_if_j(a: Endo) -> Endo:
    j = structure.complex_structure(a.mode)
    if a._den != j._den or a._nums != j._nums:
        return a
    return Endo._of(a.mode, map(abs, j._nums))


def _unsigned_j_left(self: Endo, other: Endo) -> Endo:
    return _MATMUL(_unsigned_if_j(self), other)


def _unsigned_j_right(self: Endo, other: Endo) -> Endo:
    return _MATMUL(self, _unsigned_if_j(other))


# J with its signs dropped in the products J A (left) or A J (right) only;
# the action of J on forms keeps its signs.  The S part of a 3-form, the
# Sym^- test and the sampling of J-commuting endomorphisms are such
# products, so the decompositions fail on either side
J_COMPOSITION_DEFECTS = {
    "j_compose_left": (
        _unsigned_j_left,
        {
            "anti_endo_round_trip",
            "jet_constraint_residuals",
            "params_jet_round_trip",
            "scaling_curve",
            "su3_invariance",
            "sym_minus_isomorphism",
            "sym_minus_j_conjugation",
            "sym_plus_action_trace",
            "three_form_round_trip",
        },
    ),
    "j_compose_right": (
        _unsigned_j_right,
        {
            "anti_endo_round_trip",
            "jet_constraint_residuals",
            "params_jet_round_trip",
            "scaling_curve",
            "su3_invariance",
            "sym_minus_isomorphism",
            "sym_plus_action_trace",
            "three_form_round_trip",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(J_COMPOSITION_DEFECTS))
def test_unsigned_j_composition_is_caught(fresh_caches, monkeypatch, name):
    defect, expected = J_COMPOSITION_DEFECTS[name]
    assert _failed_checks() == set()
    _clear_caches()
    monkeypatch.setattr(Endo, "__matmul__", defect)
    assert _failed_checks() == expected


def test_kernel_defect_fails_checks_instead_of_crashing(
    fresh_caches, monkeypatch, tmp_path, capsys
):
    _unsign_j(monkeypatch)
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


@pytest.mark.parametrize("trials", [True, False, 2.5, 1.0])
def test_trial_counts_that_are_not_integers_are_rejected(trials):
    # True would run one trial and write "samples": true
    with pytest.raises(ValueError, match="trials must be an integer"):
        run_algebra_suite(trials=trials)
