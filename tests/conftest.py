import pytest

from liecoh import algebra as la


@pytest.fixture
def jacobi_kernel_calls(monkeypatch):
    """The structure-constant arrays the Jacobi kernel (join or slabs) runs on during the test."""
    seen = []
    kernel = la._jacobi_kernel

    def counting(c):
        seen.append(c)
        return kernel(c)

    monkeypatch.setattr(la, "_jacobi_kernel", counting)
    return seen
