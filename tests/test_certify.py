"""Five-way M-matrix certification and its cross-validation lattice."""

import json
import math
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import mpoly.linalg
import mpoly.mmatrix
from mpoly import (
    DEFAULT_TOLERANCE,
    DomainError,
    Matrix,
    NoConvergence,
    Status,
    Verdict,
    certify,
    check_d16,
    check_e17,
    check_n38,
    check_positive_stable,
    check_rho_split,
    eigenvalues,
    schur_complement,
    set_tolerance,
    spectral_radius,
    tolerance,
)

import corpus

CONDITION_NAMES = {"E17", "D16", "N38", "POS_STABLE", "RHO_SPLIT"}


def random_z_matrix(rng, n_max=12):
    """s * I - N with N nonnegative and s sampled around the spectral radius."""
    n = int(rng.integers(1, n_max + 1))
    nonneg = rng.random((n, n)) * rng.integers(0, 2, size=(n, n))
    rho = spectral_radius(Matrix.float64(nonneg.tolist()))
    ratio = rng.uniform(0.5, 2.0)
    s = ratio * rho if rho > 1e-9 else ratio
    return Matrix.float64((s * np.eye(n) - nonneg).tolist())


class TestE17:
    def test_yes_with_margin(self):
        v = check_e17(Matrix.exact([[2, -1], [-1, 2]]))
        assert v.status is Status.YES
        assert v.margin == 2.0

    def test_singular_no_in_exact_marginal_in_float(self):
        m = Matrix.exact([[1, -1], [-1, 1]])
        assert check_e17(m).status is Status.NO
        assert check_e17(m.to_float()).status is Status.MARGINAL

    def test_negative_scalar(self):
        assert check_e17(Matrix.exact([[-1]])).status is Status.NO

    def test_float_margin_is_scale_free(self):
        # the raw smallest minor of 1e-3 I_5 is 1e-15, inside the band
        small = Matrix.float64(1e-3 * np.eye(5))
        assert check_e17(small).status is Status.YES
        assert certify(small).consensus == "YES"

    def test_consensus_unchanged_by_scaling(self):
        rng = np.random.default_rng(104)
        kept = 0
        for _ in range(200):
            m = random_z_matrix(rng, n_max=8)
            rep = certify(m)
            margins = [abs(v) for v in rep.margins.values() if math.isfinite(v)]
            if min(margins) < 1e-3:
                continue
            for c in (1e-120, 1e-3, 1e3, 1e120):
                assert certify(Matrix.float64(c * m.as_array())).consensus == rep.consensus
            kept += 1
        assert kept > 100

    def test_stops_at_the_first_pivot_inside_the_band(self):
        # the second leading minor is rounding noise; the third pivot of the
        # transpose divides by it and used to be a decided NO (margin -0.067)
        s = 0.504110757661493
        a = np.array([[s, -0.4568834228723222, -0.9674757242689775],
                      [-0.5562199092109794, s, -0.4297693249696226],
                      [0.0, 0.0, s]])
        for m in (a, a.T):
            rep = certify(Matrix.float64(m))
            assert rep.verdicts["E17"].status is Status.MARGINAL
            assert rep.consensus == "MARGINAL"


class TestD16:
    def test_yes(self):
        assert check_d16(Matrix.float64([[2, -1], [-1, 2]])).status is Status.YES

    def test_identity(self):
        assert check_d16(Matrix.identity(3)).status is Status.YES

    def test_negative_real_eigenvalue(self):
        v = check_d16(Matrix.float64([[0, -1], [-1, 0]]))
        assert v.status is Status.NO
        assert v.margin == pytest.approx(-1.0)

    def test_vacuous_when_no_real_eigenvalues(self):
        v = check_d16(Matrix.float64([[0, 1], [-1, 0]]))
        assert v.status is Status.YES
        assert v.margin == math.inf

    def test_near_real_test_is_scale_free(self):
        # eigenvalues c(-1 +- 0.5i): never near-real, whatever the scale
        base = np.array([[-1.0, 0.5], [-0.5, -1.0]])
        verdicts = {check_d16(Matrix.float64(c * base)) for c in (1e-9, 1.0, 1e9)}
        assert verdicts == {check_d16(Matrix.float64(base))}
        assert check_d16(Matrix.float64(base)).margin == math.inf

    def test_near_real_test_survives_subnormal_scale(self):
        # eigenvalues +-c: tolerance * max|M_ij| underflows to 0 at c = 1e-320,
        # so the near-real test divides the imaginary parts by the scale
        for c in (1.0, 1e-320):
            m = Matrix.float64([[0.0, -c], [-c, 0.0]])
            v = check_d16(m)
            assert v.status is Status.NO
            assert v.margin == -c
            assert certify(m).consensus == "MARGINAL"


class TestN38:
    def test_yes_by_hand_inverse(self):
        v = check_n38(Matrix.exact([[2, -1], [-1, 2]]))
        assert v.status is Status.YES
        assert v.margin == pytest.approx(1 / 3)

    def test_identity_yes_despite_zero_entries(self):
        assert check_n38(Matrix.identity(2, exact=True)).status is Status.YES
        assert check_n38(Matrix.identity(2)).status is Status.YES

    def test_no_with_negative_inverse_entry(self):
        v = check_n38(Matrix.exact([[1, 2], [0, 1]]))
        assert v.status is Status.NO
        assert v.margin == pytest.approx(-2.0)

    def test_singular_is_no(self):
        assert check_n38(Matrix.exact([[1, 1], [1, 1]])).status is Status.NO


@pytest.mark.parametrize(
    "entries, name, margin, consensus", corpus.BEYOND_FLOAT64_MARGINS
)
def test_exact_margin_beyond_float64_saturates(entries, name, margin, consensus):
    m = Matrix.exact(entries)
    want = Verdict(Status.YES if margin > 0 else Status.NO, margin)
    assert {"E17": check_e17, "N38": check_n38}[name](m) == want
    rep = certify(m)
    assert rep.verdicts[name] == want
    assert rep.consensus == consensus


class TestPositiveStable:
    def test_yes(self):
        v = check_positive_stable(Matrix.float64([[2, -1], [-1, 2]]))
        assert v.status is Status.YES
        assert v.margin == pytest.approx(1.0)

    def test_rotation_is_on_the_boundary(self):
        # eigenvalues +-i sit exactly on the imaginary axis; the float path
        # reports the band rather than guessing a side
        v = check_positive_stable(Matrix.float64([[0, 1], [-1, 0]]))
        assert v.status in (Status.MARGINAL, Status.NO)
        assert v.margin == pytest.approx(0.0, abs=1e-9)

    def test_identity(self):
        v = check_positive_stable(Matrix.identity(5))
        assert v.status is Status.YES
        assert v.margin == pytest.approx(1.0)


class TestRhoSplit:
    def test_yes(self):
        v = check_rho_split(Matrix.float64([[2, -1], [-1, 2]]))
        assert v.status is Status.YES
        assert v.margin == pytest.approx(1.0)

    def test_boundary(self):
        v = check_rho_split(Matrix.float64([[1, -1], [-1, 1]]))
        assert v.status in (Status.NO, Status.MARGINAL)
        assert v.margin == pytest.approx(0.0, abs=1e-9)

    def test_identity(self):
        v = check_rho_split(Matrix.identity(2))
        assert v.status is Status.YES
        assert v.margin == pytest.approx(1.0)

    def test_nonpositive_diagonal_is_no(self):
        assert check_rho_split(Matrix.float64([[-1]])).status is Status.NO

    def test_non_z_rejected(self):
        with pytest.raises(DomainError):
            check_rho_split(Matrix.float64([[1, 0.5], [0.5, 1]]))


class TestCertify:
    def test_all_yes(self):
        rep = certify(Matrix.exact([[2, -1], [-1, 2]]))
        assert rep.consensus == "YES"
        assert rep.is_z
        assert set(rep.verdicts) == CONDITION_NAMES
        assert all(v.status is Status.YES for v in rep.verdicts.values())

    def test_all_no(self):
        rep = certify(Matrix.exact([[1, -2], [-2, 1]]))
        assert rep.consensus == "NO"
        assert all(v.status is Status.NO for v in rep.verdicts.values())

    def test_non_z_reported_not_rejected(self):
        rep = certify(Matrix.float64([[1, 0.5], [0.5, 1]]))
        assert not rep.is_z
        assert "RHO_SPLIT" in rep.errors
        assert rep.verdicts["E17"].status is Status.YES
        # N38 legitimately disagrees here: equivalence presupposes Z-structure
        assert rep.verdicts["N38"].status is Status.NO
        for c in (1e-13, 1.0, 1e3, 1e13):
            rep = certify(Matrix.float64(c * np.array([[2, 1], [1, 2]])))
            assert not rep.is_z, c
            assert "RHO_SPLIT" in rep.errors, c

    @pytest.mark.parametrize("c", [Fraction(1, 10**12), Fraction(10**12)])
    def test_scaled_identity_is_yes_in_every_check(self, c):
        exact = Matrix.exact([[c if i == j else 0 for j in range(3)] for i in range(3)])
        for m in (exact, Matrix.float64(float(c) * np.eye(3))):
            rep = certify(m)
            assert rep.consensus == "YES"
            assert all(v.status is Status.YES for v in rep.verdicts.values())

    @pytest.mark.parametrize("c", [1e-8, 1e12])
    def test_scaled_s_minus_n_keeps_its_verdicts(self, c):
        # rho(N) = 2, so s - rho = +-0.05: times 1e-8 the eigenvalue margins
        # fall inside the band, times 1e12 the negative inverse entries do
        nonneg = np.ones((3, 3)) - np.eye(3)
        for s, want in ((2.05, Status.YES), (1.95, Status.NO)):
            rep = certify(Matrix.float64(c * (s * np.eye(3) - nonneg)))
            assert {v.status for v in rep.verdicts.values()} == {want}, s

    def test_report_json_round_trip(self):
        rep = certify(Matrix.float64([[0, 1], [-1, 0]]))
        again = json.loads(json.dumps(rep.to_json_dict()))
        assert again["consensus"] == rep.consensus
        assert again["verdicts"].keys() == rep.verdicts.keys()
        assert again["errors"] == rep.errors


class TestCertifyMatchesChecks:
    CHECKS = {
        "E17": check_e17,
        "D16": check_d16,
        "N38": check_n38,
        "POS_STABLE": check_positive_stable,
        "RHO_SPLIT": check_rho_split,
    }

    @staticmethod
    def _inputs(rng):
        """Float and exact matrices, about half of them Z-matrices."""
        for _ in range(40):
            z = random_z_matrix(rng, n_max=8)
            yield z
            yield Matrix.float64(z.as_array() + rng.random((z.n, z.n)))
            n = int(rng.integers(1, 7))
            ints = rng.integers(-4, 5, size=(n, n))
            yield Matrix.exact(ints.tolist())
            np.fill_diagonal(ints, rng.integers(0, 12, size=n))
            yield Matrix.exact(np.where(np.eye(n) > 0, ints, -np.abs(ints)).tolist())

    def test_verdicts_margins_and_errors_match_the_public_checks(self):
        rng = np.random.default_rng(106)
        z_inputs = non_z_inputs = 0
        for m in self._inputs(rng):
            rep = certify(m)
            scale = float(np.abs(m.as_array()).max())
            raised = set()
            for name, check in self.CHECKS.items():
                try:
                    v = check(m)
                except DomainError:
                    raised.add(name)
                    continue
                assert rep.verdicts[name].status is v.status, (name, m.rows())
                if name == "RHO_SPLIT":
                    assert abs(rep.margins[name] - v.margin) <= 1e-12 * scale
                else:
                    assert rep.margins[name] == v.margin, (name, m.rows())
            assert set(rep.errors) == raised
            z_inputs += rep.is_z
            non_z_inputs += not rep.is_z
        assert z_inputs > 60 and non_z_inputs > 60

    def test_one_spectrum_one_z_test_one_float_copy(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("eigenvalues", "is_z_matrix"):
            monkeypatch.setattr(
                mpoly.mmatrix, name, counted(name, getattr(mpoly.mmatrix, name))
            )
        monkeypatch.setattr(Matrix, "to_float", counted("to_float", Matrix.to_float))
        for m in (
            Matrix.exact([[2, -1], [-1, 2]]),
            Matrix.float64([[2, -1], [-1, 2]]),
            Matrix.float64([[1, 0.5], [0.5, 1]]),
        ):
            calls.clear()
            certify(m)
            assert calls == {"eigenvalues": 1, "is_z_matrix": 1, "to_float": 1}

    def test_one_elimination_per_exact_certify(self, monkeypatch):
        calls = Counter()
        kernel = mpoly.linalg._bareiss

        def counted(aug, k):
            calls["_bareiss"] += 1
            return kernel(aug, k)

        monkeypatch.setattr(mpoly.linalg, "_bareiss", counted)
        certify(Matrix.exact([[2, -1], [-1, 2]]))
        assert calls == {"_bareiss": 1}
        calls.clear()
        certify(Matrix.float64([[2, -1], [-1, 2]]))
        assert calls == {}

    def test_unconverged_spectrum_lands_in_errors(self, monkeypatch):
        def unconverged(m):
            raise NoConvergence("eigenvalue iteration did not converge")

        monkeypatch.setattr(mpoly.mmatrix, "eigenvalues", unconverged)
        for m, rho_error in (
            (Matrix.float64([[2, -1], [-1, 2]]), "converge"),
            (Matrix.float64([[1, 0.5], [0.5, 1]]), "Z-matrix"),
        ):
            rep = certify(m)
            assert set(rep.verdicts) == {"E17", "N38"}
            assert set(rep.errors) == {"D16", "POS_STABLE", "RHO_SPLIT"}
            assert rho_error in rep.errors["RHO_SPLIT"]


class TestEquivalenceLattice:
    def test_agreement_away_from_margins(self):
        rng = np.random.default_rng(100)
        yes_cases = no_cases = 0
        for _ in range(300):
            m = random_z_matrix(rng)
            rep = certify(m)
            assert rep.is_z
            assert rep.consensus != "DISAGREE"
            margins = [abs(v) for v in rep.margins.values() if math.isfinite(v)]
            if min(margins) > 10 * 1e-9:
                statuses = {v.status for v in rep.verdicts.values()}
                assert len(statuses) == 1
                if statuses == {Status.YES}:
                    yes_cases += 1
                else:
                    no_cases += 1
        assert yes_cases > 30
        assert no_cases > 30

    def test_schur_complement_closure(self):
        rng = np.random.default_rng(101)
        closures = 0
        for _ in range(200):
            m = random_z_matrix(rng, n_max=8)
            if m.n < 2:
                continue
            rep = certify(m)
            if rep.consensus != "YES" or min(rep.margins.values()) < 1e-6:
                continue
            for k in range(1, m.n):
                sub = certify(schur_complement(m, k))
                assert sub.consensus == "YES", (m.rows(), k)
                closures += 1
        assert closures > 50

    def test_symmetric_yes_implies_positive_definite(self):
        rng = np.random.default_rng(102)
        seen = 0
        for _ in range(200):
            n = int(rng.integers(1, 9))
            raw = rng.random((n, n)) * rng.integers(0, 2, size=(n, n))
            nonneg = (raw + raw.T) / 2
            rho = spectral_radius(Matrix.float64(nonneg.tolist()))
            s = rng.uniform(0.5, 2.0) * (rho if rho > 1e-9 else 1.0)
            m = Matrix.float64((s * np.eye(n) - nonneg).tolist())
            rep = certify(m)
            if rep.consensus != "YES":
                continue
            eigs = eigenvalues(m)
            assert all(abs(z.imag) < 1e-9 for z in eigs)
            assert min(z.real for z in eigs) > -10 * 1e-9
            seen += 1
        assert seen > 30

    def test_yes_implies_negation_hurwitz(self):
        rng = np.random.default_rng(103)
        seen = 0
        for _ in range(200):
            m = random_z_matrix(rng, n_max=10)
            rep = certify(m)
            if rep.consensus != "YES":
                continue
            assert max(z.real for z in eigenvalues(-m.to_float())) < 0
            seen += 1
        assert seen > 40


class TestTolerance:
    def test_threads_read_their_own_tolerance(self):
        both_set = threading.Barrier(2, timeout=10)
        seen = {}

        def worker(value):
            set_tolerance(value)
            both_set.wait()  # each reads only after the other has set
            seen[value] = tolerance()

        threads = [threading.Thread(target=worker, args=(v,)) for v in (1e-3, 1e-6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert seen == {1e-3: 1e-3, 1e-6: 1e-6}
        assert tolerance() == DEFAULT_TOLERANCE

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            set_tolerance(0.0)
        assert tolerance() == DEFAULT_TOLERANCE

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, -1.0])
    def test_rejects_values_that_are_not_positive_and_finite(self, value):
        # an infinite tolerance would put every float margin in the
        # MARGINAL band
        set_tolerance(1e-6)
        with pytest.raises(ValueError):
            set_tolerance(value)
        assert tolerance() == 1e-6
