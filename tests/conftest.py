import pytest

from liecoh import algebra as la


@pytest.fixture
def jacobi_kernel_calls(monkeypatch):
    """The structure-constant arrays the Jacobi kernel runs on during the test."""
    seen = []
    kernel = la._jacobiator_slabs

    def counting(c):
        seen.append(c)
        return kernel(c)

    monkeypatch.setattr(la, "_jacobiator_slabs", counting)
    return seen
