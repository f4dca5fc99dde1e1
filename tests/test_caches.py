"""The rate builders' fixed inputs, built once and shared.

Every scheme with the same quantum numbers (J_b, J_c, J_d and I) shares one
basis, its key tables and one skeleton of the rate tables
(``operators._structure``), whatever its frequencies, S, dipole mode or
hyperfine offsets; each quadrature order has its grid (``environment._grid``).
Both caches are bounded.  A cached input must give every later caller the
bits a fresh computation gives, and no caller may write to it.  A scheme
holds no derived state, so a used one pickles as an unused one.
"""

import copy
import math
import pickle
from dataclasses import fields, replace

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
from vrelax import cli, operators
from vrelax.halfint import HalfInt, half
from vrelax.operators import (
    Basis,
    HyperfineScheme,
    LevelScheme,
    _channels,
    _skeleton,
    _structure,
    _structure_of,
    interference_report,
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


def assert_holds_only_its_fields(scheme):
    assert set(vars(scheme)) == {f.name for f in fields(scheme)}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_a_used_scheme_builds_the_sets_a_fresh_one_builds(builder):
    build = BUILDERS[builder]
    make = hyperfine_scheme if builder == "hyperfine" else fine_scheme
    used = make()
    for r in (0.1, 0.5, 0.8):  # the first build fills the shared structure, the others read it
        build(used, r)
    assert_holds_only_its_fields(used)
    warm = [build(used, 0.6)]
    if builder != "hyperfine":
        warm += [build(used, 0.3).restricted(level) for level in ("b", "c")]
    _structure_of.cache_clear()  # a cold build, from a new scheme object
    cold = [build(make(), 0.6)]
    if builder != "hyperfine":
        cold += [build(make(), 0.3).restricted(level) for level in ("b", "c")]
    assert [set_bits(rates) for rates in warm] == [set_bits(rates) for rates in cold]


def read_only_arrays(scheme):
    """Every array a scheme's shared structure holds, the basis's key tables included."""
    basis, skeleton = _structure(scheme)
    return (basis._parts, basis._halves, basis._part_rank, *skeleton)


@pytest.mark.parametrize("make", [fine_scheme, hyperfine_scheme])
def test_schemes_with_equal_quantum_numbers_share_one_structure(make):
    scheme = make()
    fine = scheme.fine if isinstance(scheme, HyperfineScheme) else scheme
    others = [
        replace(fine, omega_bd=1.7, omega_cd=0.4),
        replace(fine, rate_scale=3.5),
        replace(fine, dipole_mode="explicit", mu_bd=0.7, mu_cd=1.9),
    ]
    if isinstance(scheme, HyperfineScheme):
        others = [replace(scheme, fine=other) for other in others]
        others.append(replace(scheme, f_offsets={("b", half(2)): 0.002, ("d", half(1)): 0.1}))
    basis, skeleton = _structure(scheme)
    for other in others:
        assert other != scheme
        assert Basis.for_scheme(other) is basis and _structure(other)[1] is skeleton
    # the shared skeleton is the one a build from this scheme gives, and read-only
    for shared, fresh in zip(skeleton, _skeleton(scheme)):
        assert shared.dtype == fresh.dtype and np.array_equal(shared, fresh)
    for array in read_only_arrays(scheme):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    for level in ("b", "c"):
        assert not any(array.flags.writeable for array in _channels(scheme, level))
    # other quantum numbers give another structure
    if isinstance(scheme, HyperfineScheme):
        other = replace(scheme, nuclear_spin=half("5/2"))
    else:
        other = replace(scheme, j_b=half("5/2"))
    assert Basis.for_scheme(other) is not basis and _structure(other)[1] is not skeleton
    assert len(Basis.for_scheme(other)) != len(basis)


def test_the_structure_cache_is_bounded_and_evicts_the_least_recently_used():
    maxsize = _structure_of.cache_info().maxsize
    assert maxsize == 8
    dline = LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"))
    schemes = [HyperfineScheme(fine=dline, nuclear_spin=HalfInt(t)) for t in range(maxsize + 1)]
    first = [_structure(scheme) for scheme in schemes[:maxsize]]
    assert _structure_of.cache_info().currsize == maxsize
    assert _structure(schemes[0]) is first[0]  # now the most recently used
    _structure(schemes[maxsize])  # evicts the least recently used, the second
    assert _structure_of.cache_info().currsize == maxsize
    assert _structure(schemes[0]) is first[0]
    assert all(_structure(s) is built for s, built in zip(schemes[2:maxsize], first[2:]))
    rebuilt = _structure(schemes[1])
    assert rebuilt is not first[1]
    assert [array.tobytes() for array in rebuilt[1]] == [array.tobytes() for array in first[1][1]]


@pytest.mark.parametrize("make", [fine_scheme, hyperfine_scheme])
def test_a_used_scheme_holds_no_derived_state(make):
    used, unused = make(), make()
    if isinstance(used, HyperfineScheme):
        rates = rates_hyperfine(used, k_spontaneous(cavity(0.4), 1.0))
    else:
        rates = rates_injected(used, KMatrix.from_diagonal([0.3, 0.2, 0.1]))
    interference_report(rates)  # reads the basis's key tables
    rates.entries("feeding")
    assert_holds_only_its_fields(used)
    assert pickle.dumps(used) == pickle.dumps(unused)
    for copied in (pickle.loads(pickle.dumps(used)), copy.deepcopy(used), copy.copy(used)):
        assert copied == used
        assert_holds_only_its_fields(copied)
        assert Basis.for_scheme(copied) is Basis.for_scheme(used)


def test_200_steady_runs_build_the_skeleton_once(monkeypatch, tmp_path):
    builds = []

    def counted(scheme):
        builds.append(scheme)
        return skeleton(scheme)

    skeleton = operators._skeleton
    monkeypatch.setattr(operators, "_skeleton", counted)
    out, outputs = tmp_path / "steady.csv", set()
    for _run in range(200):
        assert cli.main(["steady", "--preset", "dline-isotropic", "--out", str(out)]) == 0
        outputs.add(out.read_bytes())
    assert len(builds) == 1 and len(outputs) == 1


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
