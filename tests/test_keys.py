"""Rate-table keys as sublevels: resolution, missing sublevels, pinned CSV bytes.

``RateSet.entries`` is the one reader of the key layout; everything that
places a rate in the basis (superoperator builders, rate CSV) goes through
it and ``Basis.position``.
"""

import hashlib
import re

import pytest

from vrelax.cli import main
from vrelax.config import build_rate_sets, build_scheme, preset_config, preset_names
from vrelax.environment import KMatrix, ModeDensityModifier, k_spontaneous
from vrelax.errors import SchemeError, VrelaxError
from vrelax.halfint import half
from vrelax.operators import (
    Basis,
    HyperfineScheme,
    LevelScheme,
    build_relaxation_superop,
    build_stimulated_superop,
    rates_fine,
    rates_hyperfine,
    rates_injected,
)


def dline():
    return LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"))


def cavity_k():
    return k_spontaneous(ModeDensityModifier.planar_cavity(0.6), 1.0)


def key_of(sublevels):
    """The key that names these sublevels: ground halves drop their "d"."""
    return tuple(
        part for sublevel in sublevels
        for part in (sublevel[1:] if sublevel[0] == "d" else sublevel)
    )


@pytest.mark.parametrize("name", preset_names())
def test_every_key_of_every_preset_resolves(name):
    cfg = preset_config(name)
    basis = Basis.for_scheme(build_scheme(cfg))
    resolved = 0
    for _label, rates in build_rate_sets(cfg):
        for table in ("upper", "feeding", "ground"):
            items = list((getattr(rates, table) or {}).items())
            entries = rates.entries(table)
            assert len(entries) == len(items)
            for (key, value), (sublevels, entry_value) in zip(items, entries):
                assert key_of(sublevels) == key and entry_value == value
                assert len(sublevels) == (4 if table == "feeding" else 2)
                for sublevel in sublevels:
                    state = basis.states[basis.position(sublevel)]
                    f = sublevel[1] if len(sublevel) == 3 else None
                    assert (state.level, state.f, state.m) == (sublevel[0], f, sublevel[-1])
                    resolved += 1
    assert resolved > 0


def _without(basis, label):
    kept = [state for state in basis.states if state.label() != label]
    assert len(kept) == len(basis) - 1
    return Basis(kept)


@pytest.mark.parametrize("label", ["b:M=3/2", "c:M=-1/2", "d:M=1/2"])
def test_missing_sublevel_named_by_both_builders(label):
    scheme = dline()
    basis = _without(Basis.for_fine(scheme), label)
    k = cavity_k()
    injected = KMatrix.from_diagonal([0.3, 0.2, 0.1])
    message = re.escape(f"state {label} is not in the basis")
    for rates, build in (
        (rates_fine(scheme, k, k), build_relaxation_superop),
        (rates_injected(scheme, injected), build_stimulated_superop),
    ):
        with pytest.raises(SchemeError, match=message) as info:
            build(rates, basis)
        assert isinstance(info.value, VrelaxError)


@pytest.mark.parametrize("label", ["b:F=2:M=-1", "d:F=1:M=0"])
def test_missing_hyperfine_sublevel_named(label):
    scheme = HyperfineScheme(fine=dline(), nuclear_spin=half("3/2"))
    basis = _without(Basis.for_hyperfine(scheme), label)
    with pytest.raises(SchemeError, match=re.escape(f"state {label} is not in the basis")):
        build_relaxation_superop(rates_hyperfine(scheme, cavity_k()), basis)


# SHA-256 of `vrelax rates --preset NAME`, taken before the CSV writer read
# keys through RateSet.entries; the rows must keep their bytes and order.
RATES_SHA256 = {
    "dline-vacuum": "20d8e2bc6422f15bb6bac184755ebd8e336c6ef71a599edc6f5bf83d167c0467",
    "dline-isotropic": "c71748be44a6d7bcb42c3a8e8e3ea913ea6ece036caadc4de6db8018786cd620",
    "dline-cos2": "8c6f3040a5be75aaf3c5684e8edfc3e2ad48ac743ff73263a58140e160a200eb",
    "dline-paper-k": "fcb7a8c02ddeb7e913434865ae93bcd4811feaee9d1be5bd6b976dc706a4c1f8",
    "dline-cavity": "376719e482535214974a42c6177eb3dd7257abff479d0f734e3c971305daedb2",
    "dline-photonic": "d415ea520153735f9fb1f61771da3d1be6e5275c7d1ca5f52546d4eb8048db04",
    "twolevel-decay": "3b32c5b63743c8c9d7ad732088a0a775ae11b49f1d5f408e0089c49303166c16",
    "sodium-hyperfine": "a924d202afe64c9885755773120b17cc9688cdbefc6027b3d6e8e8230d6b8fb5",
}


def test_pinned_digests_cover_every_preset():
    assert sorted(RATES_SHA256) == sorted(preset_names())


@pytest.mark.parametrize("name", sorted(RATES_SHA256))
def test_rates_csv_bytes_pinned(name, tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["rates", "--preset", name, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RATES_SHA256[name]
