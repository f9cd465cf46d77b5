from types import SimpleNamespace

import numpy as np
import pytest

import ldpkit
from ldpkit import free_energy


@pytest.fixture(scope="session")
def coin_net():
    return ldpkit.coin_example_net()


@pytest.fixture(scope="session")
def demzei_net():
    return ldpkit.demzei_example_net()


@pytest.fixture(scope="session")
def iid_small_net():
    return ldpkit.iid_mean_example_net(ldpkit.bernoulli_half_base(), 600)


@pytest.fixture(scope="session")
def main_window(coin_net):
    return ldpkit.window_for_t_range(coin_net, 1e-2, 1e-6, 48)


@pytest.fixture(scope="session")
def rate_window(coin_net):
    return ldpkit.window_for_t_range(coin_net, 1e-4, 1e-6, 33)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Every call that a window makes to the ball-mass kernel, in order, with
    its arguments as arrays: ``locations``, ``log_masses``, ``lo``, ``hi``."""
    calls = []
    kernel = free_energy.log_masses_in

    def recorded(locations, log_masses, lo, hi, *flags):
        calls.append(SimpleNamespace(
            locations=locations, log_masses=log_masses, lo=np.asarray(lo), hi=np.asarray(hi)
        ))
        return kernel(locations, log_masses, lo, hi, *flags)

    monkeypatch.setattr(free_energy, "log_masses_in", recorded)
    return calls


def random_convex_grid(rng, n=1000, inf_tails=False, span=8.0):
    """Random proper convex grid function: integrated increasing slopes."""
    gaps = rng.uniform(0.2, 1.8, n - 1)
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    xs = (xs / xs[-1] - 0.5) * span
    slopes = np.cumsum(rng.uniform(0.01, 1.0, n - 1)) + rng.uniform(-30.0, 0.0)
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    vals = vals - vals.min() + rng.uniform(-2.0, 2.0)
    if inf_tails:
        lo = rng.integers(0, n // 4)
        hi = rng.integers(0, n // 4)
        if lo:
            vals[:lo] = np.inf
        if hi:
            vals[-hi:] = np.inf
    return ldpkit.GridFunction(xs, vals, label="random-convex")


def conjugate_dual_grid(f, extra=300):
    """Dual grid covering every hull slope interval plus a uniform fill."""
    from ldpkit.convex import chord_slopes

    slopes = np.unique(chord_slopes(f))
    fill = np.linspace(slopes[0], slopes[-1], extra)
    return np.unique(np.concatenate([slopes, fill]))
