"""Signature algebra, the geometry table, and family recognition."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from seifertgeo.arith import TWO_PI
from seifertgeo.cone3d import ConeStructure, classify_cone
from seifertgeo.seifert import (
    FamilyId,
    FamilyKind,
    GeometryType,
    SeifertSignature,
    euler_number,
    homology_order,
    identify_family,
    lens_params,
    manifold_geometry,
    named_family,
    normalize,
    normalize_with_order,
    orbifold_euler_char,
)

S = SeifertSignature
POINCARE = ((2, 1), (3, 1), (5, 1))
# The fibre triples and Euler classes of acceptance criterion 6: 121,072 signatures.
CRITERION_6_TRIPLES = list(
    itertools.combinations_with_replacement(
        [(a, b) for a in range(12, 0, -1) for b in range(a if a > 1 else 1) if math.gcd(a, b) == 1], 3
    )
)
CRITERION_6_B = range(-3, 4)
# Scott's table, written out apart from the package: sign of chi -> (e == 0, e != 0).
SCOTT = {
    1: (GeometryType.S2XR, GeometryType.SPHERICAL),
    0: (GeometryType.EUCLIDEAN, GeometryType.NIL),
    -1: (GeometryType.H2XR, GeometryType.SL2R),
}


class TestSignature:
    def test_pads_to_three_fibers(self):
        sig = S(-1, ((2, 1),))
        assert sig.fibers == ((2, 1), (1, 0), (1, 0))

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            S(0, ((4, 2),))

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(ValueError):
            S(0, ((0, 1),))

    def test_str(self):
        assert str(S(-1, ((2, 1), (3, 1), (5, 1)))) == "<-1; (2,1),(3,1),(5,1)>"

    def test_json_round_trip(self):
        sig = S(-2, ((5, 3), (4, 1)))
        assert S.from_json(sig.to_json()) == sig

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100000,
            '{"b": 1}',
            "[1]",
            '"x"',
            '{"b": 1, "fibers": 5}',
            '{"b": 1, "fibers": [[2]]}',
        ],
        ids=["nested", "no-fibers", "list", "string", "fibers-not-list", "short-pair"],
    )
    def test_from_json_malformed_is_value_error(self, text):
        with pytest.raises(ValueError):
            S.from_json(text)

    @pytest.mark.parametrize(
        "b, fibers, message",
        [
            (1.7, ((2, 1.9),), "b must be an integer, got 1.7"),
            (True, (("3", "1"),), "b must be an integer, got True"),
            (1, ((2, 1.9),), "fibers[0][1] must be an integer, got 1.9"),
            (1, ((2, 1), ("3", "1")), "fibers[1][0] must be an integer, got '3'"),
            (0, ((2, 1), (3, 1), (5, False)), "fibers[2][1] must be an integer, got False"),
            (Fraction(-1), POINCARE, "b must be an integer"),
        ],
        ids=["float", "bool-and-str", "float-fibre", "str-fibre", "bool-fibre", "fraction"],
    )
    def test_refuses_non_int_fields(self, b, fibers, message):
        # nothing is coerced with int(): the field is named, as in from_json
        with pytest.raises(ValueError) as exc:
            S(b, fibers)
        assert str(exc.value).startswith(message)

    def test_keeps_given_ints_and_takes_lists(self):
        sig = S(-1, [[2, 1], [3, 1], [5, 1]])
        assert sig == S(-1, POINCARE)
        assert sig.fibers == POINCARE
        assert type(sig.b) is int


class TestNormalize:
    def test_single_move_then_sort(self):
        # one b-move on the third pair, then the canonical descending sort
        assert normalize(S(0, ((2, 1), (3, 1), (5, -4)))) == S(
            -1, ((5, 1), (3, 1), (2, 1))
        )

    def test_absorb_trivial_pair(self):
        assert normalize(S(-1, ((3, 2), (4, 1), (1, 1)))) == S(
            0, ((4, 1), (3, 2), (1, 0))
        )

    def test_sort_only(self):
        assert normalize(S(-1, ((2, 1), (3, 1), (6, 1)))) == S(
            -1, ((6, 1), (3, 1), (2, 1))
        )

    def test_idempotent(self):
        sig = normalize(S(3, ((7, -2), (5, 12), (2, -1))))
        assert normalize(sig) == sig

    def test_tie_break_by_coefficient(self):
        sig = normalize(S(0, ((3, 2), (3, 1))))
        assert sig.fibers == ((3, 1), (3, 2), (1, 0))

    @given(
        st.integers(-6, 6),
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(-15, 15)), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=400)
    def test_preserves_euler_and_homology(self, b, pairs):
        pairs = [(a, bi) for a, bi in pairs if math.gcd(a, abs(bi)) == 1]
        if not pairs:
            return
        sig = S(b, tuple(pairs))
        norm = normalize(sig)
        assert euler_number(norm) == euler_number(sig)
        assert homology_order(norm) == homology_order(sig)

    @given(
        st.integers(-50, 50),
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(-200, 200)).filter(
                lambda f: math.gcd(*f) == 1
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=500)
    def test_with_order_matches_a_stable_sort(self, b, pairs):
        # The normal form is built without a second check, so it is compared
        # with a reference and with the checked constructor on the same fields.
        sig = S(b, tuple(pairs))
        fibers = sig.fibers
        order = tuple(sorted(range(3), key=lambda i: (-fibers[i][0], fibers[i][1] % fibers[i][0])))
        norm, got_order = normalize_with_order(sig)
        assert got_order == order
        assert norm.b == b + sum(bi // a for a, bi in fibers)
        assert norm.fibers == tuple((fibers[i][0], fibers[i][1] % fibers[i][0]) for i in order)
        assert norm == S(norm.b, norm.fibers)
        assert type(norm.b) is int and all(type(x) is int for f in norm.fibers for x in f)


class TestInvariants:
    def test_euler_poincare(self):
        assert euler_number(S(-1, ((2, 1), (3, 1), (5, 1)))) == Fraction(-1, 30)

    def test_euler_zero(self):
        assert euler_number(S(-1, ((3, 1), (3, 1), (3, 1)))) == 0

    def test_chi_identity_vs_interior_angle_sum(self):
        # chi = sigma - 1 where sigma is the angle sum of the base
        # triangle at the manifold point, in units of pi
        for sig in (
            S(-1, ((2, 1), (3, 1), (5, 1))),
            S(-1, ((2, 1), (3, 1), (7, 1))),
            S(0, ((4, 1), (3, 2), (1, 0))),
        ):
            sigma = sum(Fraction(1, a) for a, _ in sig.fibers)
            assert orbifold_euler_char(sig) == sigma - 1

    def test_geometry_table(self):
        assert manifold_geometry(S(-1, ((2, 1), (3, 1), (5, 1)))) is GeometryType.SPHERICAL
        assert manifold_geometry(S(-1, ((2, 1), (3, 1), (7, 1)))) is GeometryType.SL2R
        assert manifold_geometry(S(-1, ((2, 1), (4, 1), (4, 3)))) is GeometryType.NIL
        assert manifold_geometry(S(-1, ((3, 1), (3, 1), (3, 1)))) is GeometryType.EUCLIDEAN
        assert manifold_geometry(S(-1, ((2, 1), (2, 1)))) is GeometryType.S2XR
        assert manifold_geometry(S(-1, ((1, 0),))) is GeometryType.SPHERICAL
        assert manifold_geometry(S(0, ((1, 0),))) is GeometryType.S2XR
        sig = S(-2, ((7, 3), (7, 4), (7, 2)))
        assert euler_number(sig) != 0 and orbifold_euler_char(sig) < 0
        assert manifold_geometry(sig) is GeometryType.SL2R
        assert str(GeometryType.NIL) == "Nil"
        h2xr = S(-2, ((5, 4), (5, 4), (5, 2)))
        assert euler_number(h2xr) == 0 and orbifold_euler_char(h2xr) < 0
        assert manifold_geometry(h2xr) is GeometryType.H2XR

    def test_geometry_iff_euler(self):
        rng = random.Random(99)
        twisted = {GeometryType.SPHERICAL, GeometryType.NIL, GeometryType.SL2R}
        for _ in range(500):
            pairs = []
            for _ in range(rng.randint(1, 3)):
                a = rng.randint(1, 9)
                b = rng.choice([k for k in range(-9, 10) if math.gcd(a, abs(k)) == 1])
                pairs.append((a, b))
            sig = S(rng.randint(-4, 4), tuple(pairs))
            assert (manifold_geometry(sig) in twisted) == (euler_number(sig) != 0)

    def test_chi_matches_textbook_formula(self):
        for fibers in CRITERION_6_TRIPLES:
            chi = orbifold_euler_char(S(0, fibers))
            assert type(chi) is Fraction
            assert chi == 2 - sum(1 - Fraction(1, a) for a, _ in fibers if a > 1)
        assert type(orbifold_euler_char(S(0, ((1, 0),)))) is Fraction

    def test_geometry_matches_scott_table(self):
        """Every criterion-6 signature, read at the signs of e*A and chi*A,
        A = a1*a2*a3, both integers computed here."""
        total = 0
        for fibers in CRITERION_6_TRIPLES:
            (a1, b1), (a2, b2), (a3, b3) = fibers
            big_a = a1 * a2 * a3
            chi_a = 2 * big_a - sum(big_a - big_a // a for a in (a1, a2, a3))
            row = SCOTT[(chi_a > 0) - (chi_a < 0)]
            twist_a = b1 * a2 * a3 + b2 * a1 * a3 + b3 * a1 * a2
            for b in CRITERION_6_B:
                # e*A = -(b*A + twist_a)
                assert manifold_geometry(S(b, fibers)) is row[b * big_a + twist_a != 0]
                total += 1
        assert total == 121072

    def test_sweep_request_builds_no_fraction(self):
        """The sweep path decides on integers: counting Fraction.__new__ as
        perfbench's FractionCounter does, 2,000 criterion-6 requests build none."""
        rng = random.Random(2026)
        signatures = rng.sample(list(itertools.product(CRITERION_6_B, CRITERION_6_TRIPLES)), 2000)
        count = 0
        original = Fraction.__dict__["__new__"]
        new = original.__func__

        def counted(cls, *args, **kwargs):
            nonlocal count
            count += 1
            return new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted)
        try:
            for b, fibers in signatures:
                sig = S(b, fibers)
                manifold_geometry(sig)
                classify_cone(ConeStructure(sig, (TWO_PI,) * 3))
                identify_family(sig)
                homology_order(sig)
            sweep_count = count
            e = euler_number(S(-1, POINCARE))
        finally:
            Fraction.__new__ = original
        assert sweep_count == 0
        assert type(e) is Fraction and e == Fraction(-1, 30) and count >= 1

    def test_homology_poincare(self):
        assert homology_order(S(-1, ((2, 1), (3, 1), (5, 1)))) == 1

    def test_homology_hopf(self):
        assert homology_order(S(-1, ((1, 0), (1, 0), (1, 0)))) == 1

    def test_homology_infinite(self):
        assert homology_order(S(-1, ((3, 1), (3, 1), (3, 1)))) is None

    def test_homology_matches_lens_order(self):
        rng = random.Random(5)
        for _ in range(300):
            a1, a2 = rng.randint(2, 9), rng.randint(2, 9)
            b1 = rng.choice([k for k in range(1, a1) if math.gcd(a1, k) == 1])
            b2 = rng.choice([k for k in range(1, a2) if math.gcd(a2, k) == 1])
            sig = S(rng.randint(-3, 3), ((a1, b1), (a2, b2)))
            m, _ = (lens_params(sig) if euler_number(sig) != 0 else (0, 0))
            if m:
                assert homology_order(sig) == abs(m)


class TestLensParams:
    def test_sphere(self):
        m, _ = lens_params(S(-1, ((2, 1), (3, 1))))
        assert m == -1

    def test_l13_3(self):
        assert lens_params(S(0, ((3, 1), (4, 3)))) == (13, 3)

    def test_l7_2(self):
        sig = S(0, ((2, 1), (3, 2)))
        assert lens_params(sig) == (7, 2)
        assert homology_order(sig) == 7

    def test_general_fibres_fold_into_b(self):
        # a general fibre (1, k) moves k into b; the normal form agrees
        assert lens_params(S(0, ((3, 1), (1, 1)))) == (4, 1)
        assert lens_params(normalize(S(0, ((3, 1), (1, 1))))) == (4, 1)
        assert lens_params(S(-1, ((5, 2), (1, -2), (3, 1)))) == (-34, 13)
        assert homology_order(S(-1, ((5, 2), (1, -2), (3, 1)))) == 34

    def test_rejects_three_exceptional(self):
        with pytest.raises(ValueError):
            lens_params(S(-1, ((2, 1), (3, 1), (5, 1))))

    def test_rejects_euler_zero(self):
        with pytest.raises(ValueError):
            lens_params(S(-1, ((2, 1), (2, 1))))

    def test_second_parameter_is_unit(self):
        rng = random.Random(11)
        for _ in range(200):
            a1, a2 = rng.randint(2, 12), rng.randint(2, 12)
            b1 = rng.choice([k for k in range(1, a1) if math.gcd(a1, k) == 1])
            b2 = rng.choice([k for k in range(1, a2) if math.gcd(a2, k) == 1])
            sig = S(rng.randint(-3, 3), ((a1, b1), (a2, b2)))
            if euler_number(sig) == 0:
                continue
            m, n = lens_params(sig)
            if abs(m) > 1:
                assert math.gcd(abs(m), n) == 1

    def test_n_solves_the_lens_congruences(self):
        # No Bezout pair needed: with the general fibres folded into b,
        # a1*n == -a2 and c*n == b2 (mod m) for c = b*a1 + b1, and since
        # gcd(a1, c) = 1 the two congruences fix n mod m.
        fibres = [(a, bi) for a in range(1, 8) for bi in range(-a - 1, a + 2) if math.gcd(a, bi) == 1]
        checked = 0
        for f1, f2 in itertools.product(fibres, repeat=2):
            pairs = (f1, f2, (1, 1))
            (a1, b1), (a2, b2) = ([f for f in pairs if f[0] > 1] + [(1, 0)] * 2)[:2]
            general = sum(bi for a, bi in pairs if a == 1)
            for b in range(-3, 4):
                folded = b + general
                c, m = folded * a1 + b1, folded * a1 * a2 + b1 * a2 + a1 * b2
                if m == 0:
                    continue
                sig = S(b, pairs)
                got, n = lens_params(sig)
                assert got == m and 0 <= n < abs(m), str(sig)
                assert (a1 * n + a2) % m == 0 and (c * n - b2) % m == 0, str(sig)
                checked += 1
        assert checked == 18_056


class TestFamilies:
    def test_prism_quaternion(self):
        assert identify_family(S(-1, ((2, 1), (2, 1), (2, 1)))) == FamilyId(
            FamilyKind.PRISM, (2, 1)
        )

    def test_octahedral(self):
        assert identify_family(normalize(S(-1, ((2, 1), (3, 1), (4, 1))))) == FamilyId(
            FamilyKind.OCTAHEDRAL, (1,)
        )

    def test_n236(self):
        assert identify_family(normalize(S(-1, ((2, 1), (3, 1), (6, 1))))) == FamilyId(
            FamilyKind.N236, (0, 1)
        )

    def test_poincare_brieskorn(self):
        fam = identify_family(normalize(S(-1, ((2, 1), (3, 1), (5, 1)))))
        assert fam == FamilyId(FamilyKind.BRIESKORN, (2, 3, 5))
        assert str(fam) == "Brieskorn(2,3,5)"

    def test_lens_recognized(self):
        fam = identify_family(normalize(S(0, ((3, 1), (4, 3)))))
        assert fam.kind is FamilyKind.LENS

    @given(
        st.integers(-20, 20),
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(-60, 60)).filter(lambda f: math.gcd(*f) == 1),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=500)
    def test_raw_signature_has_the_family_of_its_normal_form(self, b, pairs):
        # cli's identify and surgery name the family of a signature as given.
        sig = S(b, tuple(pairs))
        assert identify_family(sig) == identify_family(normalize(sig))
        assert named_family(sig) == named_family(normalize(sig))

    def test_lens_euler_zero_is_generic(self):
        assert identify_family(normalize(S(-1, ((2, 1), (2, 1))))).kind is FamilyKind.GENERIC

    def test_brieskorn_iff_trivial_homology_and_coprime(self):
        rng = random.Random(13)
        for _ in range(400):
            a = sorted(rng.sample(range(2, 14), 3))
            b = rng.randint(-4, 4)
            pairs = []
            for ai in a:
                bi = rng.choice([k for k in range(1, ai) if math.gcd(ai, k) == 1])
                pairs.append((ai, bi))
            sig = normalize(S(b, tuple(pairs)))
            fam = identify_family(sig)
            coprime = all(
                math.gcd(a[i], a[j]) == 1 for i in range(3) for j in range(i + 1, 3)
            )
            expected = coprime and homology_order(sig) == 1
            assert (fam.kind is FamilyKind.BRIESKORN) == expected
            if expected:
                assert fam.params == tuple(a)

    def test_named_family_on_brieskorn_overlap(self):
        sig = normalize(S(-1, ((2, 1), (3, 1), (5, 1))))
        assert named_family(sig) == FamilyId(FamilyKind.ICOSAHEDRAL, (1,))

    def test_congruence_examples(self):
        # m-values straight from the defining congruences
        cases = [
            (S(-1, ((3, 1), (3, 1), (2, 1))), FamilyKind.TETRAHEDRAL, (1,)),
            (S(-1, ((4, 1), (3, 1), (2, 1))), FamilyKind.OCTAHEDRAL, (1,)),
            (S(-1, ((5, 1), (3, 1), (2, 1))), FamilyKind.ICOSAHEDRAL, (1,)),
            (S(-1, ((3, 1), (3, 1), (3, 1))), FamilyKind.N333, (0, 1)),
            (S(-1, ((4, 1), (4, 1), (2, 1))), FamilyKind.N244, (0, 1)),
        ]
        for sig, kind, params in cases:
            fam = named_family(normalize(sig))
            assert fam == FamilyId(kind, params), str(sig)

    def test_paper_formulas(self):
        # every normalized signature of each multiplicity set, b in -5..5;
        # the parameters determine the signature, so no two share a family
        checked, signature_of = 0, {}
        for mults in [(n, 2, 2) for n in range(2, 9)] + [
            (3, 3, 2), (4, 3, 2), (5, 3, 2), (3, 3, 3), (4, 4, 2), (6, 3, 2)
        ]:
            residues = [[k for k in range(1, a) if math.gcd(a, k) == 1] for a in mults]
            sigs = {
                normalize(S(b, tuple(zip(mults, bs))))
                for b in range(-5, 6)
                for bs in itertools.product(*residues)
            }
            for sig in sigs:
                fam = _paper_family(sig)
                assert named_family(sig) == fam, str(sig)
                assert signature_of.setdefault(fam, sig) == sig, str(sig)
                # the same manifold, unnormalized: b_i + a_i, b - 3, reversed
                moved = S(sig.b - 3, tuple((a, bi + a) for a, bi in reversed(sig.fibers)))
                assert named_family(moved) == fam, str(moved)
                checked += 1
        assert checked == 11 * (21 + 3 + 4 + 8 + 4 + 3 + 4)


def _paper_family(sig):
    """Family parameters by the classical per-family formulas (Orlik 1972)."""
    b = sig.b
    c = {}
    for a, bi in sig.fibers:
        c.setdefault(a, []).append(bi)
    mults = tuple(sorted(a for a, _ in sig.fibers))
    if mults[:2] == (2, 2):
        n = mults[2]
        b3 = c[n][0] if n > 2 else 1
        return FamilyId(FamilyKind.PRISM, (n, (b + 1) * n + b3))
    if mults == (2, 3, 3):
        b2, b3 = c[3]
        return FamilyId(FamilyKind.TETRAHEDRAL, (6 * b + 3 + 2 * (b2 + b3),))
    if mults == (2, 3, 4):
        return FamilyId(FamilyKind.OCTAHEDRAL, (12 * b + 6 + 4 * c[3][0] + 3 * c[4][0],))
    if mults == (2, 3, 5):
        return FamilyId(FamilyKind.ICOSAHEDRAL, (30 * b + 15 + 10 * c[3][0] + 6 * c[5][0],))
    if mults == (3, 3, 3):
        return FamilyId(FamilyKind.N333, (3 * b + sum(c[3]), min(c[3])))
    if mults == (2, 4, 4):
        b2, b3 = c[4]
        return FamilyId(FamilyKind.N244, (4 * b + 2 + b2 + b3, min(b2, b3)))
    if mults == (2, 3, 6):
        b2, b3 = c[3][0], c[6][0]
        return FamilyId(FamilyKind.N236, (6 * b + 3 + 2 * b2 + b3, min(b2, b3)))
    raise AssertionError("no family formula for %s" % sig)
