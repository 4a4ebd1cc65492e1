"""The workload seed alone decides the inputs."""

import numpy as np
import pytest

from hubbench import workloads

from conftest import ROOT


def _arrays(state):
    out = []
    for value in vars(state).values():
        if hasattr(value, "data") and isinstance(value.data, np.ndarray):
            out.append(value.data)
        elif hasattr(value, "values") and isinstance(value.values, np.ndarray):
            out.append(value.values)
        elif isinstance(value, list):
            for item in value:
                out.extend(_arrays(item) if hasattr(item, "__dict__") else [item.values])
    return out


def _setup(wl, seed):
    st = wl.setup(seed)
    wl.close(st)
    arrays = _arrays(st)
    assert arrays
    return arrays


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bits_other_seed_other_inputs(name):
    wl = workloads.make(name, ROOT).tiny()
    first, again, other = _setup(wl, 5), _setup(wl, 5), _setup(wl, 6)
    assert [a.tobytes() for a in first] == [a.tobytes() for a in again]
    assert all(a.shape == b.shape for a, b in zip(first, other))
    assert all(not np.array_equal(a, b) for a, b in zip(first, other))
