"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance and expected value is pinned here; the
runtime bounds are asserted against generous desk-scale budgets.
"""

import random
import time
from contextlib import contextmanager

from derivlab.identities import (
    IDENTITY_TERMS,
    IdentitySpec,
    check,
    decompose_inner_plus_lifted,
    decompose_theorem21,
    decompose_trivial_extension,
    maps_from_module,
    peirce_component_check,
    right_multiplier_module,
    solve_all,
    verify_proof_steps,
)
from derivlab.linalg import ResidueMatrix, module_equal, solve_homogeneous
from derivlab.maps import AdditiveMap, lift_map, right_multiplier, inner_derivation
from derivlab.rings import (
    Bimodule,
    all_elements,
    center_basis,
    dual_numbers,
    matrix_ring,
    one_element,
    trivial_extension,
    zmod,
)
from derivlab.theorems import verify_theorem
from oracles import howell_form, rewrite_span

M2Z3 = matrix_ring(2, zmod(3))
REG = Bimodule.regular(M2Z3)


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s): {description}")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.2f}s"
    )


def test_criterion_01_jordan_maps_are_derivations():
    with criterion(1, 3 * 10.0, "Jordan maps coincide with derivations on the "
                                "three desk rings (each within a 10s budget); "
                                "27 of them over zmod 3"):
        for ring in (M2Z3, matrix_ring(2, zmod(5)), matrix_ring(2, dual_numbers(3))):
            ring_start = time.perf_counter()
            jordan = solve_all("jordan", ring)
            deriv = solve_all("derivation", ring)
            assert module_equal(jordan, deriv)
            assert time.perf_counter() - ring_start < 10.0
        jordan = solve_all("jordan", M2Z3)
        assert jordan.size() == 27
        # independent route: the inner maps by all 81 elements give exactly 27
        # distinct matrices (one per coset of the centre) and exhaust the module
        inner_flats = {
            inner_derivation(REG, el.coords).to_flat() for el in all_elements(M2Z3)
        }
        assert len(inner_flats) == 81 // center_basis(M2Z3).size()
        assert inner_flats == set(jordan.elements())


def test_criterion_02_zero_product_maps_decompose():
    with criterion(2, 30.0, "zero-product-conditioned maps = derivations plus "
                            "central right multipliers (size 81), and every "
                            "generator decomposes constructively"):
        star = solve_all("star", M2Z3, pair_mode="exhaustive")
        deriv = solve_all("derivation", M2Z3)
        central_mult = right_multiplier_module(M2Z3, center_basis(M2Z3))
        assert star.size() == 81
        assert module_equal(star, deriv.sum_with(central_mult))
        center = center_basis(M2Z3)
        for gen in maps_from_module(star, M2Z3, M2Z3):
            trace = decompose_theorem21(gen)
            assert check(trace.delta, "derivation").passed
            assert center.contains(trace.central)


def test_criterion_03_corrected_condition_decomposes():
    with criterion(3, 30.0, "corrected zero-product maps = derivations plus "
                            "arbitrary right multipliers (module equality)"):
        starstar = solve_all("star_star", M2Z3, pair_mode="exhaustive")
        deriv = solve_all("derivation", M2Z3)
        assert module_equal(starstar, deriv.sum_with(right_multiplier_module(M2Z3)))


def test_criterion_04_proof_steps_on_sampled_members():
    with criterion(4, 10.0, "all eight argument steps hold for 100 seeded "
                            "members of the zero-product module"):
        star = solve_all("star", M2Z3, pair_mode="exhaustive")
        rng = random.Random(0)
        for _ in range(100):
            fmap = AdditiveMap.from_flat(M2Z3, REG, star.random_element(rng))
            assert verify_proof_steps(fmap).all_passed


def test_criterion_05_inner_plus_lift_over_dual_base():
    with criterion(5, 30.0, "every derivation generator over the dual-number "
                            "base splits as lift plus inner with zero residual, "
                            "at least one with a nonzero base part"):
        ring = matrix_ring(2, dual_numbers(3))
        bim = Bimodule.regular(ring)
        deriv = solve_all("derivation", ring)
        nonzero_base = 0
        for gen in maps_from_module(deriv, ring, ring):
            d, g = decompose_inner_plus_lifted(gen)
            recomposed = lift_map(d, 2) + inner_derivation(bim, g)
            assert recomposed.matrix == gen.matrix
            if not d.is_zero():
                nonzero_base += 1
        assert nonzero_base >= 1


def test_criterion_06_one_sided_jordan_maps_are_central_multipliers():
    with criterion(6, 10.0, "one-sided Jordan maps are exactly the central "
                            "right multipliers (size 3)"):
        phi = solve_all("phi", M2Z3)
        expected = right_multiplier_module(M2Z3, center_basis(M2Z3))
        assert phi.size() == 3
        assert module_equal(phi, expected)


def test_criterion_07_extension_jordan_maps_are_derivations():
    with criterion(7, 120.0, "Jordan maps of the square-zero extension are "
                             "derivations; component split verified per "
                             "generator"):
        ext = trivial_extension(M2Z3)
        jordan = solve_all("jordan", ext)
        deriv = solve_all("derivation", ext)
        assert module_equal(jordan, deriv)
        base_center = center_basis(M2Z3)
        base_reg = Bimodule.regular(M2Z3)
        for gen in maps_from_module(jordan, ext, ext):
            d1, d2, d3, d4 = decompose_trivial_extension(gen)
            assert d2.is_zero()
            c = d4.apply(one_element(M2Z3))
            assert base_center.contains(c)
            assert (d4 - d1).matrix == right_multiplier(base_reg, c).matrix


def test_criterion_08_nonunital_component_split():
    with criterion(8, 30.0, "over the zero-action-inflated codomain the outer "
                            "component vanishes and the one-sided components "
                            "are multiplications by their images of 1"):
        bim = Bimodule.inflated(REG, 4)
        jordan = solve_all("jordan", M2Z3, bimodule=bim)
        for gen in maps_from_module(jordan, M2Z3, bim):
            report = peirce_component_check(gen)
            assert report.all_passed
            by_name = {c.name: c for c in report.checks}
            assert by_name["outer_component_vanishes"].passed
            assert by_name["left_degenerate_is_multiplier"].passed
            assert by_name["right_degenerate_is_multiplier"].passed


def test_criterion_09_solver_oracles():
    with criterion(9, 5.0, "2x = 4 mod 6 has exactly the solutions {2, 5}, "
                           "read off the kernel of [2 | -4]; canonical forms "
                           "survive 1000 seeded span rewrites mod 6 and mod 9"):
        hom = solve_homogeneous(ResidueMatrix.from_rows(6, [[2, -4]]))
        sols = {(x,) for x, y in hom.elements() if y == 1}
        assert sols == {(2,), (5,)}
        rng = random.Random(12345)
        for trial in range(1000):
            m = 6 if trial % 2 == 0 else 9
            nrows = rng.randrange(1, 5)
            ncols = rng.randrange(1, 5)
            rows = [[rng.randrange(m) for _ in range(ncols)] for _ in range(nrows)]
            rewritten = rewrite_span(rows, m, rng)
            lhs = howell_form(ResidueMatrix.from_rows(m, rows))
            rhs = howell_form(ResidueMatrix.from_rows(m, rewritten))
            assert lhs == rhs


def test_criterion_10_negative_control(monkeypatch):
    with criterion(10, 10.0, "a sign-flipped Jordan identity is falsified "
                             "with a concrete witness pair"):
        spec = IDENTITY_TERMS["jordan"]
        flipped = spec.terms[:-1] + ((1, "b", "a", None),)
        monkeypatch.setitem(
            IDENTITY_TERMS, "jordan", IdentitySpec("jordan", flipped, "basis_pairs")
        )
        rep = verify_theorem("thm3_2i", M2Z3)
        assert rep.status == "falsified"
        witness = rep.counterexample.get("witness")
        assert witness is not None
        assert witness["a"]["coords"] is not None
        assert witness["b"]["coords"] is not None
        assert any(witness["residual"])
