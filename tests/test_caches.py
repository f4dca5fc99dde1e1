"""The rate builders' scheme-fixed inputs, built once and shared.

Each scheme object keeps its excited levels' dipole channels
(``scheme.channels``) and each quadrature order its grid
(``environment._grid``).  A cached input must give every later caller the
bits a fresh computation gives, and no caller may write to it.
"""

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from test_sparse import bits

from vrelax.angular import wigner_d1
from vrelax.environment import (
    AngularDistribution,
    KMatrix,
    ModeDensityModifier,
    _grid,
    _k_stimulated_any_order,
    k_spontaneous,
    k_stimulated,
)
from vrelax.halfint import half
from vrelax.operators import (
    HyperfineScheme,
    LevelScheme,
    _channels,
    rates_fine,
    rates_hyperfine,
    rates_injected,
    rates_stimulated,
)


def fine_scheme():
    return LevelScheme(j_b=half("7/2"), j_c=half("5/2"), j_d=half("5/2"), omega_cd=0.9)


def hyperfine_scheme():
    dline = LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"))
    return HyperfineScheme(fine=dline, nuclear_spin=half("3/2"))


def cavity(r):
    return ModeDensityModifier.planar_cavity(r)


def cos2_field():
    return AngularDistribution.axisymmetric_cos2(1.5)


def tabulated_field():
    """A distribution that depends on phi, so every helicity cross moment is live."""
    thetas = np.linspace(0.0, math.pi, 5)
    phis = np.linspace(0.0, 2 * math.pi, 6, endpoint=False)
    shape = 1.5 + np.outer(np.sin(thetas), np.cos(phis) + 0.5 * np.sin(2 * phis))
    return AngularDistribution.from_table(thetas, phis, 0.7 * shape, 1.3 * shape)


def csv_field(path):
    """A non-axisymmetric distribution read from a CSV file."""
    rows = ["theta_rad,phi_rad,lambda,n_mean"]
    for i, theta in enumerate(np.linspace(0.0, math.pi, 4).tolist()):
        for j, phi in enumerate(np.linspace(0.0, 2 * math.pi, 5, endpoint=False).tolist()):
            for lam in (-1, 1):
                rows.append(f"{theta!r},{phi!r},{lam},{0.5 + 0.3 * i + 0.2 * j * (lam + 2)!r}")
    path.write_text("\n".join(rows) + "\n")
    return AngularDistribution.from_csv(str(path))


# each builder as (scheme, r) -> RateSet, drawing K from the cavity reflectivity r
BUILDERS = {
    "fine": lambda s, r: rates_fine(
        s, k_spontaneous(cavity(r), 1.0), k_spontaneous(cavity(r), 0.9)
    ),
    "hyperfine": lambda s, r: rates_hyperfine(s, k_spontaneous(cavity(r), 1.0)),
    "stimulated": lambda s, r: rates_stimulated(s, tabulated_field(), cavity(r)),
    "injected": lambda s, r: rates_injected(s, KMatrix.from_diagonal([r, 0.2, 1.0 - r])),
}


def table_bits(table):
    return None if table is None else (list(table), bits(list(table.values())).tolist())


def set_bits(rates):
    """Everything a rate set holds, as comparable bits."""
    tables = (rates.feeding, rates.upper, rates.ground)
    return rates.sites.tolist(), bits(rates.values).tolist(), [table_bits(t) for t in tables]


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_a_used_scheme_builds_the_sets_a_fresh_one_builds(builder):
    build = BUILDERS[builder]
    make = hyperfine_scheme if builder == "hyperfine" else fine_scheme
    used = make()
    for r in (0.1, 0.5, 0.8):  # three builds fill and then read the scheme's channels
        build(used, r)
    assert "channels" in vars(used)
    fresh = make()
    assert "channels" not in vars(fresh)
    assert set_bits(build(used, 0.6)) == set_bits(build(fresh, 0.6))
    if builder != "hyperfine":
        for level in ("b", "c"):
            again = build(used, 0.3).restricted(level)
            assert set_bits(again) == set_bits(build(make(), 0.3).restricted(level))


@pytest.mark.parametrize("make", [fine_scheme, hyperfine_scheme])
def test_channels_are_the_scheme_own_and_read_only(make):
    scheme = make()
    channels = scheme.channels
    assert scheme.channels is channels  # built once per scheme object
    for level in ("b", "c"):
        expected = _channels(scheme, level)
        for cached, fresh in zip(channels[level], expected):
            assert cached.dtype == fresh.dtype and np.array_equal(cached, fresh)
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = cached[0]
    # a used scheme still pickles and copies, and its copy reads the same channels
    for copied in (pickle.loads(pickle.dumps(scheme)), copy.deepcopy(scheme)):
        assert copied == scheme
        for level in ("b", "c"):
            for cached, fresh in zip(copied.channels[level], channels[level]):
                assert np.array_equal(cached, fresh)
    # a replaced scheme is a new object with channels of its own
    if isinstance(scheme, HyperfineScheme):
        other = replace(scheme, nuclear_spin=half("5/2"))
    else:
        other = replace(scheme, j_b=half("5/2"))
    assert other.channels is not channels
    for level in ("b", "c"):
        for cached, fresh in zip(other.channels[level], _channels(other, level)):
            assert np.array_equal(cached, fresh)
    assert len(other.channels["b"][0]) != len(channels["b"][0])


def reference_k(dist, mod, omega, quad_order):
    """The quadrature of ``k_stimulated`` with its grid built afresh, in the same
    arithmetic order, so a cached grid must reproduce it bit for bit."""
    x, w = np.polynomial.legendre.leggauss(quad_order)
    theta = np.arccos(x)
    n_phi = 4 * quad_order
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    k = np.zeros((3, 3), dtype=complex)
    for lam in (-1, 1):
        samples = dist.shape(theta[:, None], phi[None, :], lam)
        samples = np.broadcast_to(samples, (quad_order, n_phi))
        if np.all(samples == samples[:, :1]):
            zero = np.zeros(quad_order, dtype=complex)
            moments = {d: samples[:, 0].astype(complex) if d == 0 else zero for d in range(-2, 3)}
        else:
            moments = {d: samples @ np.exp(1j * d * phi) / n_phi for d in range(-2, 3)}
        d1 = {s: wigner_d1(lam, s, theta) for s in (-1, 0, 1)}
        for si, s in enumerate((-1, 0, 1)):
            for sj, sp in enumerate((-1, 0, 1)):
                k[si, sj] += 0.5 * np.sum(w * (d1[sp] * d1[s] * moments[s - sp]))
    scale = np.sqrt([max(mod.relative_density(omega, s), 0.0) for s in (-1, 0, 1)])
    k *= scale[:, None] * scale[None, :]
    k = 0.5 * (k + k.conj().T)
    k *= dist.amplitude
    return k


@pytest.mark.parametrize("order", [1, 2, 3, 4, 16, 33])
def test_k_from_the_cached_grid_equals_a_fresh_quadrature(order, tmp_path):
    fields = (
        AngularDistribution.isotropic(0.8),
        cos2_field(),
        tabulated_field(),
        csv_field(tmp_path / "field.csv"),
    )
    for mod, omega in ((ModeDensityModifier.vacuum(), 1.0), (cavity(0.4), 0.7)):
        for dist in fields:
            expected = bits(reference_k(dist, mod, omega, order)).tolist()
            for _repeat in range(2):  # the second call reads the cached grid
                # orders 1-3 only through the core, as the doctor's designed failure
                assert bits(_k_stimulated_any_order(dist, mod, omega, order).entries).tolist() \
                    == expected
                if order >= 4:
                    assert bits(k_stimulated(dist, mod, omega, order).entries).tolist() == expected


def test_the_grid_cache_is_read_only_and_bounded():
    w, theta, phi, harmonics, d1 = _grid(16)
    for array in (w, theta, phi, *harmonics.values(), *d1.values()):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    with pytest.raises(TypeError):
        harmonics[0] = harmonics[1]
    field = tabulated_field()
    for order in range(1, 201):
        _k_stimulated_any_order(field, ModeDensityModifier.vacuum(), 1.0, order)
    info = _grid.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
