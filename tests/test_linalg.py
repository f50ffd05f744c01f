import numpy as np
import pytest

from liecoh.linalg import (
    ValidationError,
    matrix_rank,
    nullspace,
    orthonormal_columns,
    random_unit_vector,
    signature,
    subspace_gap,
)


def test_rank_relative_cutoff():
    a = np.diag([1.0, 1e-3, 1e-12])
    assert matrix_rank(a) == 2
    assert matrix_rank(np.zeros((3, 3))) == 0


def test_nullspace_wide_matrix():
    a = np.array([[1.0, 1.0, 0.0]])
    ns = nullspace(a)
    assert ns.shape == (3, 2)
    assert np.abs(a @ ns).max() < 1e-12


def test_nullspace_of_zero_is_identity():
    assert nullspace(np.zeros((2, 4))).shape == (4, 4)


def test_orthonormal_columns_drops_dependence():
    v = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    b = orthonormal_columns(v)
    assert b.shape == (3, 1)
    assert abs(np.linalg.norm(b[:, 0]) - 1.0) < 1e-12


def test_signature_examples():
    assert signature(np.zeros((3, 3))) == (0, 0, 3)
    assert signature(np.diag([1.0, -1.0])) == (1, 1, 0)
    assert signature(np.diag([2.0, 3e-12, -1.0])) == (1, 1, 1)


def test_signature_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        signature(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_subspace_gap_basis_independent():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    rot = np.array([[np.cos(0.4), -np.sin(0.4)], [np.sin(0.4), np.cos(0.4)]])
    assert subspace_gap(q, q @ rot) < 1e-12


@pytest.mark.parametrize("dim,count", [(1, 3), (2, 100), (8, 200), (16, 20)])
def test_a_stack_of_unit_vectors_is_the_stream_of_single_draws(dim, count):
    stack = np.random.default_rng(11)
    single = np.random.default_rng(11)
    rows = random_unit_vector(dim, stack, count)
    assert rows.shape == (count, dim)
    singles = np.array([random_unit_vector(dim, single) for _ in range(count)])
    assert np.abs(rows - singles).max() <= 1e-15
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-15
    # and both leave the generator in the same state
    assert stack.standard_normal() == single.standard_normal()


class _ZeroRow(np.random.Generator):
    """A generator whose Gaussian draws have their row ``row`` set to zero."""

    def __init__(self, seed, row):
        super().__init__(np.random.PCG64(seed))
        self.row, self.draws = row, 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        self.draws += 1
        v = super().standard_normal(size)
        v[self.row] = 0.0
        return v


def test_a_draw_without_a_direction_is_rejected_not_drawn_again():
    # a redraw would shift the stream for every later sample
    for row, count in ((3, 10), (slice(None), None)):
        rng = _ZeroRow(5, row)
        with pytest.raises(ValidationError, match="no direction") as err:
            random_unit_vector(4, rng, count)
        assert err.value.residual == 0.0
        assert rng.draws == 1
