"""Golden digests of the exact catalog constructions.

Each digest covers the structure constants, the isotropy and block bases and
the notes of one catalog entry.  Values are rounded to 10 decimals (with
negative zero folded into zero) before hashing: the entries built by least
squares or by the completion solve carry round-off of order 1e-16 that
changes with the BLAS thread count, while every value sits at least 1e-12
away from a rounding boundary.  The Killing fingerprint floats are left out
on purpose, so a kernel change that only moves residuals does not trip this.
"""

import hashlib
import json

import numpy as np
import pytest

from liecoh.algebra import LieAlgebra, to_json_dict
from liecoh.spaces import catalog_entry, catalog_ids

GOLDEN = {
    "N(1,1)": "eb2aedaa348211d03232be08bf5f309eb8db9c2526c613f93d7a6cd7bfa03ab7",
    "N(1,2)": "5ce504ab6dedf798483ca4ad3fd3255cb493821a8b16f3f83328758db5f77764",
    "N(2,1)": "1a7df36954f36b58c6e69929eba4da3ee2aff8dd2eb904658ae10d1465b166d3",
    "N(2,2)": "cf85ec17a45708806bbf5c0d36f85bcf1ba85abc784a163e81d20d9b58cea6bf",
    "N(3;1,0)": "17a7ccf26003077f05342a1cec717d1be4d8cef0e22a5f1ec35bf3c32a7009c2",
    "N(3;2,0)": "cb44e1e27a1d6ac373468c11a9c267d2f6608de97de0af9c7751142ace76926f",
    "N(6,1)": "07cfc5f2175e953fd59fa1c2d646351ea57a235f019e94a5df99fc5a34e7d152",
    "N(7;1,0)": "99b09e9f3c06f331a7e7429a88993203ca39ad9bec29b942b8004a7be9c50aed",
    "SO(5)/SO(2)SO(3)": "634ff29675b6b5906a804016b15218dee348a43cc6bc033ee1ac36c2d15132fa",
    "SU(2,1)/SU(2)": "a453f8ae92a759e8bb06837e6b629ff42e44b44240e9f4c5c0feae5b876b3387",
    "SU(3)/SU(2)": "297038fb49512213db72a68b38ecabfb5bd5855b2394c96d6e5fc9a753051df1",
    "SU(3)xSU(3)/dSU(3)": "6b585816d34da721390e9b3cb69a6a2cabc2e33aaad09cb3d2d1feaed53d03d5",
    "Sp(1)(Sp(1)Sp(1)|xR4)/dSp(1)Sp(1)": "922d201a4fe7c05315bf9f49a24ffb24709feb0364cdcb304a4051cda39f585e",
    "Sp(1)Sp(1)|xR4/U(1)Sp(1)": "649efe2bb032772aec9aa6fbaf5b52406205f67c3d6337a1b4d354021f819834",
    "Sp(1)Sp(1,1)/dSp(1)Sp(1)": "3f31e6abe91d02d798297c5bb3c20c29f5d827be3e56a7352121eaf5f9e34363",
    "Sp(1)Sp(2)/dSp(1)Sp(1)": "84fada8265d38cf3c5ce8894f7031f497a0549880f9ca2eff05350ad2a273f7f",
    "Sp(1,1)/U(1)Sp(1)": "f2e019c3836e2d2bea97eef57927274ef7e3d9dcf9d771ef26e511f42ebe7fb4",
    "Sp(2)/U(1)Sp(1)": "bed25e079be87b358a384366f07d1423c1d589ebae29aa10a561dff88f8f0665",
    "Spin(7)|xR8/Spin(6)": "025b138ea0076b935e6ed066a2c5fec6eb7d6cc2ee32ae5b6f855ba6f02bb495",
    "Spin(8)|xR8+/Spin(7)": "b533eadf13e0dd80e1b40d86ddf33a4aca17e999a9f5d957091d9450adcd61bb",
    "Spin(8,1)/Spin(7)": "59aa6fb37a6a812ce11f78711f0ab7519755c1bbd4e5f3dac58c05235f001b89",
    "Spin(9)/Spin(7)": "987d81bce571ab33cd26eb22ee416709470e0044521e350ad2d06e4ff063b494",
}


def _canonical(a: np.ndarray) -> np.ndarray:
    return np.round(a, 10) + 0.0


def construction_digest(space) -> str:
    alg = space.algebra
    payload = {
        "algebra": to_json_dict(LieAlgebra(_canonical(alg.c), alg.inner_product, alg.labels)),
        "isotropy_basis": _canonical(space.isotropy.basis).tolist(),
        "block_bases": [_canonical(b.basis).tolist() for b in space.blocks],
        "notes": list(space.notes),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_golden_covers_the_catalog():
    assert tuple(sorted(GOLDEN)) == catalog_ids()


@pytest.mark.parametrize("space_id", sorted(GOLDEN))
def test_catalog_construction_is_unchanged(space_id):
    assert construction_digest(catalog_entry(space_id)) == GOLDEN[space_id]
