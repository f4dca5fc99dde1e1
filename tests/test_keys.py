"""Rate-table keys as sublevels: resolution, missing sublevels, pinned bytes.

``RateSet.entries`` is the one reader of the key layout, and ``Basis.position``
the one map from a sublevel to its position.  The rate CSV places rows
through both; the superoperator builders read ``RateSet.sites``, the
positions the rate builders take from their channel tables, which must equal
the keys resolved through ``Basis.position`` (the reference kept here).
"""

import hashlib
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from test_sparse import assert_derived_tables_bitwise, bits, dense_superop

from vrelax.cli import main
from vrelax.config import build_rate_sets, build_scheme, preset_config, preset_names
from vrelax.environment import KMatrix, ModeDensityModifier, k_spontaneous
from vrelax.errors import SchemeError, VrelaxError
from vrelax.halfint import HalfInt, half
from vrelax.operators import (
    Basis,
    HyperfineScheme,
    LevelScheme,
    RateSet,
    _channels,
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


@pytest.mark.parametrize(
    "drop, relaxation, stimulated",
    [
        (("b:M=3/2", "d:M=1/2"), "b:M=3/2", "d:M=1/2"),
        (("c:M=-1/2", "d:M=-1/2"), "c:M=-1/2", "d:M=-1/2"),
        (("b:M=1/2", "c:M=1/2"), "b:M=1/2", "b:M=1/2"),
    ],
)
def test_first_missing_sublevel_in_build_order_is_named(drop, relaxation, stimulated):
    # the relaxation builder looked up the upper table before the feeding
    # table, the stimulated one the feeding table first
    scheme = dline()
    basis = Basis([state for state in Basis.for_fine(scheme).states if state.label() not in drop])
    injected = KMatrix.from_diagonal([0.3, 0.2, 0.1])
    for build, rates, label in (
        (build_relaxation_superop, rates_fine(scheme, cavity_k(), cavity_k()), relaxation),
        (build_stimulated_superop, rates_injected(scheme, injected), stimulated),
    ):
        with pytest.raises(SchemeError, match=re.escape(f"state {label} is not in the basis")):
            build(rates, basis)


def test_unreferenced_missing_sublevel_is_not_an_error():
    # K with no sigma = 0 weight prunes every pi channel, so no entry names the
    # M = 0 excited sublevels, which decay by pi light alone; a basis without
    # them still builds
    scheme = LevelScheme(j_b=half(1), j_c=half(1), j_d=half(0))
    rates = rates_fine(scheme, *[KMatrix.from_diagonal([1.0, 0.0, 1.0])] * 2)
    positions = {int(p) for p in rates.sites.ravel()}
    own = Basis.for_fine(scheme)
    unused = [state for i, state in enumerate(own.states) if i not in positions]
    assert [state.label() for state in unused] == ["c:M=0", "b:M=0"]
    basis = Basis([state for state in own.states if state not in unused])
    assert np.array_equal(
        bits(build_relaxation_superop(rates, basis).matrix.toarray()),
        bits(dense_superop(rates, basis)),
    )


# ---------------------------------------------------------------------------
# basis positions of the feeding entries


def key_sites(rates):
    """The reference for ``rates.sites``: every feeding key's sublevels
    resolved through ``Basis.position``, entry by entry."""
    basis = Basis.for_scheme(rates.scheme)
    rows = [[basis.position(s) for s in sublevels] for sublevels, _ in rates.entries("feeding")]
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def assert_sites_from_keys(rates):
    sites = rates.sites
    assert sites.dtype == np.int32 and sites.shape == (len(rates.feeding), 4)
    assert not sites.flags.writeable
    assert np.array_equal(sites, key_sites(rates))


def assert_restricted_sites(rates):
    """A reduction keeps its parent's rows of ``sites``, which are its keys' positions."""
    for level in ("b", "c"):
        kept = rates.restricted(level)
        assert_sites_from_keys(kept)
        rows = np.array([key in kept.feeding for key in rates.feeding], dtype=bool)
        assert np.array_equal(kept.sites, rates.sites[rows])


@pytest.mark.parametrize("name", preset_names())
def test_sites_equal_key_positions_on_every_preset(name):
    for _label, rates in build_rate_sets(preset_config(name)):
        assert_sites_from_keys(rates)
        assert_restricted_sites(rates)


def test_sites_cost_two_lookups_per_channel_or_four_per_hand_made_key(monkeypatch):
    # the builders look up each channel's (upper, ground) sublevels once; a
    # mapping made by hand has every sublevel of every key looked up
    calls = []
    position = Basis.position
    monkeypatch.setattr(Basis, "position", lambda self, s: calls.append(s) or position(self, s))
    k = cavity_k()
    hyperfine = HyperfineScheme(fine=dline(), nuclear_spin=half(1))
    for scheme in (dline(), hyperfine):
        channels = sum(len(_channels(scheme, level)[0]) for level in ("b", "c"))
        calls.clear()
        rates = rates_hyperfine(scheme, k) if scheme is hyperfine else rates_fine(scheme, k, k)
        assert len(calls) == 2 * channels and len(rates.feeding) > 2 * channels
        calls.clear()
        again = RateSet(scheme, rates.feeding)
        assert len(calls) == 4 * len(rates.feeding)
        assert np.array_equal(again.sites, rates.sites)


def test_hand_made_and_replaced_sets_take_sites_from_their_keys():
    rates = rates_injected(dline(), KMatrix.from_diagonal([0.3, 0.2, 0.1]))
    again = RateSet(rates.scheme, rates.feeding, stimulated=True)
    assert np.array_equal(again.sites, rates.sites)
    # replace() never carries the old set's positions over to new keys
    first = dict(list(rates.feeding.items())[1::2])
    assert_sites_from_keys(replace(rates, feeding=first))
    with pytest.raises(TypeError, match="sites"):
        replace(rates, sites=rates.sites)


def assert_values_from_feeding(rates):
    """``values`` holds the feeding table's values to the bit, read-only and complex."""
    values = rates.values
    assert values.dtype == complex and values.shape == (len(rates.feeding),)
    assert not values.flags.writeable
    assert np.array_equal(bits(values), bits(list(rates.feeding.values())))


def values_kinds(rates):
    """The set, its two reductions, a hand-made copy and a replaced half."""
    half_table = dict(list(rates.feeding.items())[1::2])
    return (
        rates,
        rates.restricted("b"),
        rates.restricted("c"),
        RateSet(rates.scheme, rates.feeding, rates.stimulated),
        replace(rates, feeding=half_table),
    )


@pytest.mark.parametrize("name", preset_names())
def test_values_equal_feeding_values_on_every_preset(name):
    for _label, rates in build_rate_sets(preset_config(name)):
        for made in values_kinds(rates):
            assert_values_from_feeding(made)


def test_values_cannot_be_replaced_or_written():
    rates = rates_fine(dline(), cavity_k(), cavity_k())
    with pytest.raises(TypeError, match="values"):
        replace(rates, values=rates.values)
    with pytest.raises(ValueError, match="read-only"):
        rates.values[0] = 0.25


@pytest.mark.parametrize(
    "key",
    [
        ("b", half("1/2"), "c", half("1/2"), half("1/2"), half("1/2")),  # halves swapped
        ("d", half("1/2"), half("1/2"), "b", half("1/2"), half("1/2")),  # ground first
        ("b", half("1/2"), half("1/2"), "b", half("1/2")),  # three sublevels
        ("b", half("1/2"), half("1/2"), "b", half("1/2"), half("1/2"), half("1/2")),  # five
    ],
)
def test_hand_made_key_of_the_wrong_shape_is_a_scheme_error(key):
    with pytest.raises(SchemeError):
        RateSet(dline(), {key: 1.0})


def sparse_k(draw, rng):
    """A PSD helicity matrix m m^dagger whose m has drawn zero entries, so
    some of its diagonal and off-diagonal entries are exactly zero."""
    zero = np.array(draw(st.lists(st.booleans(), min_size=9, max_size=9))).reshape(3, 3)
    m = np.where(zero, 0.0, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    if not m.any():
        m[1, 1] = 1.0
    return KMatrix(m @ m.conj().T, evaluated_at=None, provenance="injected")


@st.composite
def sparse_k_rate_sets(draw):
    """A rate set from rates_fine, rates_injected or rates_hyperfine on a
    random scheme with n <= 32, under K with zero entries."""
    jd = draw(st.integers(0, 5))  # all angular momenta twice their value
    allowed = list(range(abs(jd - 2), jd + 3, 2))  # dipole partners of J_d
    fine = LevelScheme(
        j_b=HalfInt(draw(st.sampled_from(allowed))),
        j_c=HalfInt(draw(st.sampled_from(allowed))),
        j_d=HalfInt(jd),
        omega_bd=draw(st.sampled_from([1.0, 1.3])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["fine", "injected", "hyperfine"]))
    if kind == "fine":
        return rates_fine(fine, sparse_k(draw, rng), sparse_k(draw, rng))
    if kind == "injected":
        return rates_injected(fine, sparse_k(draw, rng))
    size = len(Basis.for_fine(fine))
    spin = HalfInt(draw(st.integers(0, 32 // size - 1)))  # (2I + 1) * size <= 32
    return rates_hyperfine(HyperfineScheme(fine=fine, nuclear_spin=spin), sparse_k(draw, rng))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sparse_k_rate_sets(), st.integers(0, 2**32 - 1))
def test_sites_and_permuted_basis_on_random_schemes_under_sparse_k(rates, seed):
    assert_sites_from_keys(rates)
    assert_restricted_sites(rates)
    own = Basis.for_scheme(rates.scheme)
    n = len(own)
    perm = np.random.default_rng(seed).permutation(n)
    permuted = Basis([own.states[i] for i in perm])
    build = build_stimulated_superop if rates.stimulated else build_relaxation_superop
    built = build(rates, permuted).matrix.toarray()
    assert np.array_equal(bits(built), bits(dense_superop(rates, permuted)))
    # the same matrix as on the scheme's own basis, rows and columns permuted
    vec = (perm[:, None] * n + perm[None, :]).ravel()
    assert np.array_equal(bits(built), bits(build(rates).matrix.toarray()[np.ix_(vec, vec)]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sparse_k_rate_sets())
def test_values_equal_feeding_values_on_random_schemes_under_sparse_k(rates):
    for made in values_kinds(rates):
        assert_values_from_feeding(made)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sparse_k_rate_sets(), st.randoms(use_true_random=False))
# a hyperfine upper table with exact-zero sums (16 of its 104)
@example(build_rate_sets(preset_config("sodium-hyperfine"))[0][1], random.Random(0))
def test_derived_tables_equal_dict_path_on_sparse_k(rates, rnd):
    # the builders' sets, hand-made sets from the same entries shuffled or
    # filtered, and the two-level reductions of both kinds
    items = list(rates.feeding.items())
    rnd.shuffle(items)
    shuffled = RateSet(rates.scheme, dict(items), rates.stimulated)
    filtered = RateSet(rates.scheme, dict(i for i in items if rnd.random() < 0.6), rates.stimulated)
    for made in (rates, shuffled, filtered):
        assert_sites_from_keys(made)
        assert_restricted_sites(made)
        for reduced in (made, made.restricted("b"), made.restricted("c")):
            assert_derived_tables_bitwise(reduced)


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


# SHA-256 of the stdout of `vrelax kmatrix --preset NAME`, taken before the
# rate tables were keyed from their arrays.
KMATRIX_SHA256 = {
    "dline-vacuum": "b25eb772b19816063a597c89d02b2e9b2738d7a980323f0758581ff6d24e29a2",
    "dline-isotropic": "9b631c6769c3cf5f42113cdf15933c77056650d1e261190acb22784055a6f6a9",
    "dline-cos2": "69bc1412228eccd6483660f106a8ca9898da70fe43b020b1b3fa80fe7fe2b744",
    "dline-paper-k": "56d36b561a2eb86271ca7d48f89c946296b43ad48f8789b601a2a70b266fae90",
    "dline-cavity": "f93a14f07895a4864a775bb368fc43f83993bf101d8e221e2167d2d5d227130e",
    "dline-photonic": "4c2c0db534d62e2eaa525674c2652b5ac3427540a6689cf0492b1846b130c14f",
    "twolevel-decay": "93caadc47e43312e78b413f6e7b4f1cf721b5f6a61c76dcdc6cbadb0c343f07c",
    "sodium-hyperfine": "7de77b363907044d6e2961ab06e8b1551edb9279b9711f75ad5fe133295c9ad8",
}


@pytest.mark.parametrize("name", preset_names())
def test_kmatrix_stdout_pinned(name, capsys):
    assert main(["kmatrix", "--preset", name]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == KMATRIX_SHA256[name]
    assert err == ""


# SHA-256 of every preset's superoperators, each one's row, col and data bytes
# in build order, taken before the builders read basis positions as arrays;
# the triplets must keep their bits.
SUPEROP_SHA256 = {
    "dline-vacuum": "b927334b3427f8bb22a2c4f10bf9f55c1eebd17d70fa66dd920b97d838b096cb",
    "dline-isotropic": "06bff33c51b2fa4726a4b631839a2f61aa653921a10cd1a954a4cb8d7f9c6913",
    "dline-cos2": "4bf8d6cafdd4ee2e563e2817bb29ed73b53888ac4cee1638ca8f431b85f9efa0",
    "dline-paper-k": "60dc329e58fdffddb9e491f96f39e42624383f21eb8c47a1df2bedac6b3fc329",
    "dline-cavity": "423bc0b674e066619c4844ed1a497dae6c60b219ae8b50b522d8ba17147d5efe",
    "dline-photonic": "2379de102316f79564b83405b81c721f867754b99d95e8872803e85d5d07fc7a",
    "twolevel-decay": "df71460b2f52381d36bde4e298ee0b114a5163e6b0caa9ce26a02b9e03b3ccbd",
    "sodium-hyperfine": "a827a95c696bf57c46446db71e99b5014bd9a9b445b68c59182e2298812e8675",
}


@pytest.mark.parametrize("name", preset_names())
def test_superop_triplets_pinned(name):
    cfg = preset_config(name)
    basis = Basis.for_scheme(build_scheme(cfg))
    digest = hashlib.sha256()
    for _label, rates in build_rate_sets(cfg):
        stimulated = rates.kind == "stimulated"
        build = build_stimulated_superop if stimulated else build_relaxation_superop
        matrix = build(rates, basis).matrix
        for part in (matrix.row, matrix.col, matrix.data):
            digest.update(part.tobytes())
    assert digest.hexdigest() == SUPEROP_SHA256[name]


# SHA-256 of every preset set's tables, then those of its restricted("b") and
# restricted("c") sets: each table's name and size, then its items in
# iteration order as key repr and value bytes.  Taken while ``upper`` and
# ``ground`` were summed from the keys themselves; the derived tables must keep
# their keys, order and bits.
TABLES_SHA256 = {
    "dline-vacuum": "0f97b0c86e0d7f72bb73a0bc8a5656d66072e2983943041e0973d18653974834",
    "dline-isotropic": "24099eb4dbfbc5e5bee66c5411253503f78fbdfee58d5234e97542df87dc4b1c",
    "dline-cos2": "c014fc1b4d09fea496fa89cd043a57041660501327abf66ea2fc36a2a09cba1a",
    "dline-paper-k": "b0b0f3b095d33e537a5f3e45a3924bd4e563d1229c7cb5c8e774df8e94dfc02f",
    "dline-cavity": "1af00c54a90d4cadfb4d5a744d84d8fd272fb9c3103a3bc3295cdef8fbf2442f",
    "dline-photonic": "0d78366fc426513d275f966a12a8362811d88a5abe5083762931ccd31dc5eae1",
    "twolevel-decay": "abd8fbbe31a51cce23c8069f3282fcdb114ea1814ff180f0e8509cad0825e80c",
    "sodium-hyperfine": "b44f44564ea811058cbfea2a8a8bf2b999c761b4323275a22eee6949fb0b7a9f",
}


def table_digest(sets):
    digest = hashlib.sha256()
    for rates in sets:
        for table in ("upper", "feeding", "ground"):
            items = getattr(rates, table)
            digest.update(f"{table}:{None if items is None else len(items)}".encode())
            for key, value in (items or {}).items():
                digest.update(repr(key).encode())
                digest.update(np.complex128(value).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", preset_names())
def test_derived_tables_pinned(name):
    sets = [
        s
        for _label, rates in build_rate_sets(preset_config(name))
        for s in (rates, rates.restricted("b"), rates.restricted("c"))
    ]
    assert table_digest(sets) == TABLES_SHA256[name]


# SHA-256 of the stdout of `vrelax steady --preset NAME` on the presets with a
# unique steady state, and the exact stderr of the others (exit 1), taken at
# the same point.  The steady values come from LAPACK's SVD, so their digests
# pin the last bits of this numpy build.
STEADY_SHA256 = {
    "dline-isotropic": "03215559acd89534f010644e156ba7c97afcb89daebac3802d04001e83bc07bc",
    "dline-cos2": "7c5b5b7d73ce101da873398bc732fa9ad9eb396c41e484cc1d54048c8a638079",
    "dline-paper-k": "c00917c2afd6af9402e2ffb13090eb9a2cef98e8fe2fd44dcbb9c7195f8350f4",
}


def _not_unique(dimension, dark):
    return (
        f"vrelax: steady state is not unique: generator null space has dimension "
        f"{dimension}, of which {dark} lie wholly in the dark ground manifold (d-d); "
        "pick an initial state and propagate instead\n"
    )


STEADY_STDERR = {
    "dline-vacuum": _not_unique(4, 4),
    "dline-cavity": _not_unique(4, 4),
    "dline-photonic": _not_unique(4, 4),
    "twolevel-decay": _not_unique(10, 1),
    "sodium-hyperfine": _not_unique(34, 34),
}


def test_steady_pins_cover_every_preset():
    assert sorted([*STEADY_SHA256, *STEADY_STDERR]) == sorted(preset_names())


@pytest.mark.parametrize("name", sorted(STEADY_SHA256))
def test_steady_stdout_pinned(name, capsys):
    assert main(["steady", "--preset", name]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == STEADY_SHA256[name]
    assert err == ""


@pytest.mark.parametrize("name", sorted(STEADY_STDERR))
def test_degenerate_steady_stderr_pinned(name, capsys):
    assert main(["steady", "--preset", name]) == 1
    assert capsys.readouterr() == ("", STEADY_STDERR[name])


# SHA-256 of the stdout of `vrelax evolve --preset NAME`, in full mode and
# with --populations-only, on the presets that set dt and t_final (the others
# exit 2), taken before each distinct trajectory value was formatted once per
# chunk; the trajectory CSV must keep its bytes.
EVOLVE_SHA256 = {
    "dline-vacuum": (
        "871a74ffec60629f422d64d7e770d69cd9caa7a0a5c173a1a15eb8b73c766924",
        "41cfc52120f2051747de0142d023b8b0962e70ba7a21acd1adc94ec6f5c8add0",
    ),
    "dline-isotropic": (
        "437e2009d32c761211a2fdd4a5339d3d8d416d2d5586d9782f591b34dd5c9fd9",
        "e2d2f060aeb499321b3e571a1a51d35ee86eb7aa2b51efc99f6740693994af58",
    ),
    "dline-cos2": (
        "9fdd84f390979bc06dbdaee376ca30619312c70ad055f51d4d821a3eee3a444a",
        "f2339aba1e414d4ceb5de4899e46007c53955d2d1f9fd4cad814d0bddca2e9d8",
    ),
    "twolevel-decay": (
        "720f7c1715e21b011eee8e869f3824dbc3c4f410116f6ffd79a86095d13a8aab",
        "bbecaa645880976083331b8e2fd1f8d9efb6358cea4a38908648a1b4dbc8f818",
    ),
    "sodium-hyperfine": (
        "eff8b85de145930d61f108889f487e9301c858451b8c966a63046964cff08f2d",
        "6e68cc22d8920dce4219548bf4c9b86e73fba766d4263cb75ab00b375283bb9d",
    ),
}


@pytest.mark.parametrize("populations_only", [False, True])
@pytest.mark.parametrize("name", sorted(EVOLVE_SHA256))
def test_evolve_stdout_pinned(name, populations_only, capsys):
    args = ["evolve", "--preset", name] + ["--populations-only"] * populations_only
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == EVOLVE_SHA256[name][populations_only]
    assert err == ""


def test_evolve_pins_cover_every_preset_that_evolves(capsys):
    for name in sorted(set(preset_names()) - set(EVOLVE_SHA256)):
        assert main(["evolve", "--preset", name]) == 2
    assert "dt and t_final are required" in capsys.readouterr().err
