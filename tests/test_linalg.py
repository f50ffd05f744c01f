import numpy as np
import pytest

from liecoh.linalg import (
    matrix_rank,
    nullspace,
    orthonormal_columns,
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
