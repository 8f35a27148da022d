"""Running a ChaCha20 check once on each of the keystream's two kernels."""

from __future__ import annotations

import pytest

from repro.crypto import chacha20
from repro.sim import vecmath


@pytest.fixture
def keystream_paths():
    """``for path in keystream_paths():`` runs the loop body on each kernel.

    "numpy" runs every message, down to one block, on the numpy kernel
    (on the scalar one when numpy is absent); "fallback" treats numpy
    as absent, so every message runs on the scalar kernel. The pin is
    lifted after the loop, and at teardown if the body failed.
    """
    patch = pytest.MonkeyPatch()

    def each():
        for path in ("numpy", "fallback"):
            if path == "numpy":
                patch.setattr(chacha20, "NUMPY_MIN_BLOCKS", 1)
            else:
                patch.setattr(vecmath, "_FORCE_FALLBACK", True)
            yield path
            patch.undo()

    yield each
    patch.undo()
