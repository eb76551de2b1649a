"""Symmetric pencil eigensolver against a determinant-root oracle,
plus projector and Cholesky invariants."""

import math

import numpy as np
import pytest

from conftest import det_root_refine
from vwbound.errors import (
    DegeneratePencil,
    EmptyPositiveSubspace,
    NotPositiveDefinite,
)
from vwbound.pencil import (
    SymmetricPencil,
    cholesky_spd,
    lambda_extremes,
    lambda_minus_plus,
    solve_pencil,
    spectral_projectors,
)


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def random_sym(rng, n):
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def random_stack(rng, make, m, n):
    return np.stack([make(rng, n) for _ in range(m)])


def random_signature_stack(rng, m, n, n_plus):
    """Symmetric stack whose every matrix has n_plus eigenvalues in
    [1, 3] and n - n_plus in [-3, -1]."""
    out = []
    for _ in range(m):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = rng.uniform(1.0, 3.0, n)
        eigs[n_plus:] *= -1.0
        out.append(q @ np.diag(eigs) @ q.T)
    return np.stack(out)


class TestCholesky:
    def test_reconstructs(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 8):
            b = random_spd(rng, n)
            low = cholesky_spd(b)
            assert np.allclose(low @ low.T, b, atol=1e-10 * n)
            assert np.allclose(low, np.tril(low))
        stack = random_stack(rng, random_spd, 6, 4)
        low = cholesky_spd(stack)
        assert low.shape == stack.shape
        assert np.allclose(low @ low.mT, stack, atol=1e-10 * 4)
        assert np.allclose(low, np.tril(low))
        for k in range(stack.shape[0]):
            assert np.allclose(low[k], cholesky_spd(stack[k]), atol=1e-12)

    def test_reports_failing_pivot(self):
        # leading 2x2 block is fine; pivot 2 (0-based) goes negative
        b = np.diag([1.0, 2.0, -3.0, 4.0])
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_spd(b)
        assert info.value.pivot == 2

    def test_stack_reports_failing_matrix_and_pivot(self):
        rng = np.random.default_rng(3)
        stack = random_stack(rng, random_spd, 5, 4)
        stack[3] = np.diag([1.0, 2.0, -3.0, 4.0])
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_spd(stack)
        assert info.value.index == 3
        assert info.value.pivot == 2
        assert "matrix 3 of the stack" in str(info.value)
        # a single matrix has no stack index
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_spd(stack[3])
        assert info.value.index is None

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry_refused_before_factoring(self, bad):
        # an inf off the diagonal used to reach the pivot loop as a
        # "nonpositive value -inf"; nan passed the symmetry test
        stack = np.stack([np.eye(2)] * 4)
        stack[2, 0, 1] = stack[2, 1, 0] = bad
        with pytest.raises(NotPositiveDefinite) as info:
            cholesky_spd(stack)
        assert info.value.index == 2 and info.value.entry == (1, 2)
        assert info.value.pivot is None
        assert str(info.value) == (f"matrix 2 of the stack: entry (1, 2) = "
                                   f"{bad:.6g} is not finite")

    def test_semidefinite_rejected(self):
        b = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank 1
        with pytest.raises(NotPositiveDefinite):
            cholesky_spd(b)


class TestSolvePencil:
    def test_against_determinant_roots(self):
        rng = np.random.default_rng(20260826)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            b = random_spd(rng, n)
            c = random_sym(rng, n)
            values = solve_pencil(SymmetricPencil(c=c, b=b))
            assert values.shape == (n,)
            assert np.all(np.diff(values) >= 0)
            for lam in values:
                refined = det_root_refine(c, b, lam)
                assert abs(refined - lam) <= 1e-8 * max(1.0, abs(lam))
        # one stacked call: same oracle, and equal to the per-matrix solves
        bs = random_stack(rng, random_spd, 20, 5)
        cs = random_stack(rng, random_sym, 20, 5)
        values = solve_pencil(SymmetricPencil(c=cs, b=bs))
        assert values.shape == (20, 5)
        for k in range(20):
            single = solve_pencil(SymmetricPencil(c=cs[k], b=bs[k]))
            assert np.allclose(values[k], single, rtol=0, atol=1e-12)
            for lam in values[k]:
                refined = det_root_refine(cs[k], bs[k], lam)
                assert abs(refined - lam) <= 1e-8 * max(1.0, abs(lam))

    def test_diagonal_closed_form(self):
        c = np.diag([3.0, -2.0])
        b = np.diag([1.0, 4.0])
        values = solve_pencil(SymmetricPencil(c=c, b=b))
        assert np.allclose(values, [-0.5, 3.0], atol=1e-14)

    def test_lambda_extremes(self):
        c = np.diag([5.0, -1.0, 2.0])
        b = np.eye(3)
        lo, hi = lambda_extremes(SymmetricPencil(c=c, b=b))
        assert lo == pytest.approx(-1.0, abs=1e-13)
        assert hi == pytest.approx(5.0, abs=1e-13)
        # a stack gives arrays equal to the per-matrix floats
        rng = np.random.default_rng(5)
        bs = random_stack(rng, random_spd, 30, 3)
        cs = random_stack(rng, random_sym, 30, 3)
        lo, hi = lambda_extremes(SymmetricPencil(c=cs, b=bs))
        assert lo.shape == hi.shape == (30,)
        for k in range(30):
            lo_k, hi_k = lambda_extremes(SymmetricPencil(c=cs[k], b=bs[k]))
            assert isinstance(lo_k, float) and isinstance(hi_k, float)
            assert abs(lo[k] - lo_k) <= 1e-12 and abs(hi[k] - hi_k) <= 1e-12


class TestProjectors:
    def test_invariants_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            c = random_sym(rng, n)
            if np.min(np.abs(np.linalg.eigvalsh(c))) < 1e-3:
                continue  # keep clearly nondegenerate
            self.assert_splits(c, spectral_projectors(c))
        # one stack of constant signature, same invariants per matrix
        cs = random_signature_stack(rng, 12, 5, 2)
        proj = spectral_projectors(cs)
        assert (proj.n_plus, proj.n_minus) == (2, 3)
        self.assert_splits(cs, proj)
        for k in range(cs.shape[0]):
            single = spectral_projectors(cs[k])
            assert np.allclose(proj.basis_plus[k], single.basis_plus,
                               atol=1e-12)
            assert np.allclose(proj.eigs_plus[k], single.eigs_plus, atol=1e-12)

    @staticmethod
    def assert_splits(c, proj):
        # the fields certify and the disk charts read: an orthonormal basis
        # of C's positive eigenspace, on which C acts as its eigenvalues,
        # and the eigenvalues of both parts, in eigvalsh's order
        u, n = proj.basis_plus, c.shape[-1]
        assert proj.n_plus + proj.n_minus == n
        assert u.shape[-2:] == (n, proj.n_plus)
        assert np.allclose(u.mT @ u, np.eye(proj.n_plus), atol=1e-11)
        assert np.allclose(c @ u, u * proj.eigs_plus[..., None, :],
                           atol=1e-10)
        assert np.all(proj.eigs_plus > 0.0) and np.all(proj.eigs_minus < 0.0)
        eigs = np.concatenate([proj.eigs_minus, proj.eigs_plus], axis=-1)
        assert np.allclose(eigs, np.linalg.eigvalsh(c), atol=1e-11)

    def test_stack_signature_change_detected(self):
        rng = np.random.default_rng(12)
        cs = random_signature_stack(rng, 6, 3, 1)
        cs[4] = random_signature_stack(rng, 1, 3, 2)[0]
        with pytest.raises(DegeneratePencil) as info:
            spectral_projectors(cs)
        assert info.value.index == 4
        assert "signature" in str(info.value)

    def test_stack_degeneracy_checked_before_signature(self):
        cs = np.stack([np.diag([1.0, -1.0]), np.diag([-1.0, -1.0]),
                       np.diag([0.0, -1.0])])
        with pytest.raises(DegeneratePencil) as info:
            spectral_projectors(cs)
        assert info.value.index == 2
        assert "degeneracy band" in str(info.value)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_entry_refused_before_eigh(self, bad):
        # inf - inf is nan, which passes the symmetry test, and eigh's nan
        # eigenvalues counted as negative: a signature change, not this
        cs = np.stack([np.diag([1.0, -1.0])] * 5)
        cs[:3, 0, 1] = cs[:3, 1, 0] = bad
        with pytest.raises(DegeneratePencil) as info:
            spectral_projectors(cs)
        assert info.value.index == 0
        assert str(info.value) == (f"entry (1, 2) = {bad:.6g} is not finite "
                                   "(matrix 0 of the stack)")

    def test_signature_counts(self):
        proj = spectral_projectors(np.diag([4.0, -1.0]))
        assert proj.n_plus == 1 and proj.n_minus == 1
        assert np.allclose(np.abs(proj.basis_plus), [[1.0], [0.0]])
        assert proj.eigs_plus[0] == pytest.approx(4.0)

    def test_degenerate_detected(self):
        with pytest.raises(DegeneratePencil):
            spectral_projectors(np.diag([1.0, 0.0]))


class TestLambdaMinusPlus:
    def test_diagonal_cases(self):
        # (C, B) compressed onto the positive C-subspace
        c = np.diag([1.0, -1.0])
        proj = spectral_projectors(c)
        val = lambda_minus_plus(SymmetricPencil(c=c, b=np.eye(2)), proj)
        assert val == pytest.approx(1.0, abs=1e-13)

        c = np.diag([4.0, -1.0])
        proj = spectral_projectors(c)
        val = lambda_minus_plus(
            SymmetricPencil(c=c, b=np.diag([2.0, 1.0])), proj
        )
        assert val == pytest.approx(2.0, abs=1e-13)

    def test_multidimensional_positive_part(self):
        c = np.diag([3.0, 1.0, -1.0])
        proj = spectral_projectors(c)
        val = lambda_minus_plus(SymmetricPencil(c=c, b=np.eye(3)), proj)
        assert val == pytest.approx(1.0, abs=1e-13)

    def test_stack_equals_per_matrix(self):
        rng = np.random.default_rng(8)
        cs = random_signature_stack(rng, 10, 4, 2)
        bs = random_stack(rng, random_spd, 10, 4)
        vals = lambda_minus_plus(
            SymmetricPencil(c=cs, b=bs), spectral_projectors(cs)
        )
        assert vals.shape == (10,)
        for k in range(10):
            single = lambda_minus_plus(
                SymmetricPencil(c=cs[k], b=bs[k]), spectral_projectors(cs[k])
            )
            assert abs(vals[k] - single) <= 1e-12 * max(1.0, abs(single))

    def test_empty_positive_subspace(self):
        from vwbound.pencil import ProjectorPair

        negative_definite = ProjectorPair(
            n_plus=0,
            n_minus=2,
            basis_plus=np.zeros((2, 0)),
            eigs_plus=np.zeros(0),
            eigs_minus=np.array([-1.0, -2.0]),
        )
        with pytest.raises(EmptyPositiveSubspace):
            lambda_minus_plus(
                SymmetricPencil(c=np.eye(2), b=np.eye(2)), negative_definite
            )
