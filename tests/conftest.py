import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def eigensolved(monkeypatch):
    """Number of matrices passed to ``np.linalg.eigvalsh``, one entry per call."""
    matrices = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        matrices.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return matrices
