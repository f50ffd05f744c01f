"""A change of basis of g changes no verdict.

Every catalog entry is rotated by a seeded orthogonal Q of its algebra: the
constants become ``c'_abc = c_ijk Q_ia Q_jb Q_kc`` and the isotropy and
blocks ``Q^T basis``.  The rotated space is isomorphic to the coordinate one,
so the default suite over the rotated catalog must give every claim the same
status and the same exact fields; only float residuals may move by
round-off.  The duals are rotated after they are built from their unrotated
partners, since ``noncompact_dual`` reads m2 as the trailing coordinate block.
"""

import numpy as np
import pytest

from liecoh import claims
from liecoh import spaces as sps
from liecoh.algebra import LieAlgebra, Subspace
from liecoh.claims import RunConfig, run_suite


def rotated(space: sps.ReductiveSpace, seed: int) -> sps.ReductiveSpace:
    """``space`` written in the basis of the columns of a seeded orthogonal Q."""
    d = space.dim
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    c = np.einsum("ijk,ia,jb,kc->abc", space.algebra.c, q, q, q, optimize=True)
    alg = LieAlgebra(0.5 * (c - c.transpose(1, 0, 2)))
    return sps.ReductiveSpace(space.label, alg, Subspace(q.T @ space.isotropy.basis),
                              tuple(Subspace(q.T @ b.basis) for b in space.blocks), space.notes)


def exact_fields(computed):
    """``computed`` without its float values, which may move by round-off."""
    if isinstance(computed, dict):
        return {k: v for k, v in computed.items() if not isinstance(v, float)}
    return None if isinstance(computed, float) else computed


def outcomes(result):
    return {r.claim_id: (r.status, exact_fields(r.computed)) for r in result.reports}


@pytest.fixture(scope="module")
def coordinate_outcomes():
    return outcomes(run_suite(RunConfig()))


@pytest.mark.parametrize("seed", [7, 8])
def test_a_rotated_catalog_flips_no_verdict(seed, coordinate_outcomes, monkeypatch):
    entries = {sid: rotated(sps.catalog_entry(sid), seed) for sid in sps.catalog_ids()}
    monkeypatch.setattr(sps, "catalog_entry", entries.__getitem__)
    got = outcomes(run_suite(RunConfig()))
    assert len(got) == len(coordinate_outcomes) == len(claims.build_claims())
    assert [cid for cid in got if got[cid] != coordinate_outcomes[cid]] == []
