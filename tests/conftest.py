import numpy as np
import pytest

from carnot import GroupDescriptor, SamplingPlan, engel, euclidean, free_step2, heisenberg, registry


@pytest.fixture(autouse=True)
def fresh_builtin_groups():
    # build_group shares one descriptor per spec, and the tables cached on it,
    # across a process: a test that patches a builder behind those caches
    # must see its patch, so each test starts from freshly built descriptors
    registry._build_builtin.cache_clear()


@pytest.fixture(scope="session")
def homogeneous_norm():
    """The homogeneous norm sum_s |pi_s x|_2^(1/s) of points x (..., dim),
    with pi_s x the layer-s block of x: exactly 1-homogeneous under the
    dilations.  The samplers draw by it; no function of the package
    evaluates it, so the tests keep it as their reference."""

    def norm(desc, x):
        x = np.asarray(x, dtype=float)
        total = 0.0
        for s in range(1, desc.step + 1):
            r = np.sqrt(np.sum(x[..., desc.layer_slice(s)] ** 2, axis=-1))
            total = total + (r if s == 1 else r ** (1.0 / s))
        return total

    return norm


@pytest.fixture(scope="session")
def h1():
    return heisenberg(1)


@pytest.fixture(scope="session")
def h2():
    return heisenberg(2)


@pytest.fixture(scope="session")
def fs3():
    return free_step2(3)


@pytest.fixture(scope="session")
def eng():
    return engel()


@pytest.fixture(scope="session")
def r3():
    return euclidean(3)


@pytest.fixture(scope="session")
def filiform4():
    # step-4 filiform: [e1,e2]=e3, [e1,e3]=e4, [e1,e4]=e5
    br = {
        (0, 1, 2): 1.0,
        (1, 0, 2): -1.0,
        (0, 2, 3): 1.0,
        (2, 0, 3): -1.0,
        (0, 3, 4): 1.0,
        (3, 0, 4): -1.0,
    }
    return GroupDescriptor("filiform4", (2, 1, 1, 1), br)


@pytest.fixture(scope="session")
def plan():
    return SamplingPlan(seed=0)
