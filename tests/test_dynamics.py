"""Propagation and steady-state tests.

Closed-form anchors: free evolution of coherences, the single-channel
exponential decay of an isolated excited sublevel, a populations-only
rate-equation solve that the full steady state must reproduce whenever no
coherence couples into the populations (isotropic pumping), and the thermal
balance n/(n+1) of every excited to every ground sublevel under isotropic
light, a property over all fine schemes with 2J <= 7.  The block-wise
steady-state solver is checked against the dense-SVD solver it replaced,
kept here as the oracle.  The positivity monitor's Cholesky certificate is
checked by counting ``np.linalg`` calls: the exact ``eigvalsh`` runs only
where the certificate fails, and every abort keeps its pinned time and value.
"""

import math
import sys
import tracemalloc
from collections import Counter
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_sparse import _preset_problem, random_psd_k, random_rate_sets

from vrelax import HalfInt, half
from vrelax.config import build_rate_sets, build_scheme, preset_config, preset_names
from vrelax.dynamics import (
    AtomicHamiltonian,
    Trajectory,
    build_hamiltonian,
    propagate,
    steady_state,
    step_count,
    validate_density_matrix,
    _blocks,
    _components,
    _generator,
    _hermitized,
    _reached,
)
from vrelax.environment import (
    AngularDistribution,
    ModeDensityModifier,
    k_spontaneous,
)
from vrelax.errors import (
    ConvergenceError,
    DegenerateSteadyStateError,
    NumericalAbortError,
    SchemeError,
)
from vrelax.operators import (
    Basis,
    BasisState,
    HyperfineScheme,
    LevelScheme,
    RateSet,
    SparseMatrix,
    Superoperator,
    build_relaxation_superop,
    build_stimulated_superop,
    rates_fine,
    rates_hyperfine,
    rates_stimulated,
)


@pytest.fixture
def linalg_calls(monkeypatch):
    """(function, caller) of every np.linalg.eigvalsh and cholesky call, in order."""
    calls = []
    for name in ("eigvalsh", "cholesky"):

        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append((_name, sys._getframe(1).f_code.co_name))
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def dline(**kw):
    return LevelScheme(j_b=half("3/2"), j_c=half("1/2"), j_d=half("1/2"), **kw)


def twolevel(**kw):
    """J_b = J_c = 1 above J_d = 0: each excited sublevel decays through
    exactly one helicity channel, so its population is a pure exponential."""
    return LevelScheme(j_b=half(1), j_c=half(1), j_d=half(0), **kw)


def vacuum_k(omega=1.0):
    return k_spontaneous(ModeDensityModifier.vacuum(), omega)


def relaxation_setup(scheme):
    rates = rates_fine(scheme, vacuum_k(scheme.omega_bd), vacuum_k(scheme.omega_cd))
    lop = build_relaxation_superop(rates)
    return build_hamiltonian(scheme), lop


def pure_state(basis, amplitudes):
    """Density matrix of sum_i amplitudes[state] |state>, normalized."""
    psi = np.zeros(len(basis), dtype=complex)
    for state, amp in amplitudes.items():
        psi[basis.index(state)] = amp
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def max_asymmetry(rho):
    return float(np.max(np.abs(rho - rho.conj().T)))


class TestBuildHamiltonian:
    def test_fine_diagonal(self):
        sch = dline(omega_bd=1.3, omega_cd=1.0)
        h = build_hamiltonian(sch)
        assert h.diagonal.tolist() == [0.0, 0.0, 1.0, 1.0, 1.3, 1.3, 1.3, 1.3]

    @pytest.mark.parametrize("name", ["dline-cos2", "sodium-hyperfine"])
    def test_commutator_matches_dense_kron(self, name):
        # -i (kron(H, 1) - kron(1, H^T)) of the dense diagonal H, to the bit,
        # with the same stored pattern: only the nonzero level splittings
        scheme = build_scheme(preset_config(name))
        h = build_hamiltonian(scheme)
        n = len(h.basis)
        hmat, eye = np.diag(h.diagonal).astype(complex), np.eye(n)
        dense = -1j * (np.kron(hmat, eye) - np.kron(eye, hmat.T))
        gen = _generator(h, [])
        stored = dense != 0
        assert gen.nnz == np.count_nonzero(stored)
        assert np.array_equal(gen.toarray() != 0, stored)
        assert np.array_equal(gen.toarray()[stored].view(np.uint64), dense[stored].view(np.uint64))

    def test_array_hamiltonian_rejected(self):
        rho0 = np.eye(8, dtype=complex) / 8
        for array in (np.zeros(8), np.zeros((8, 8))):
            with pytest.raises(SchemeError, match="AtomicHamiltonian"):
                propagate(rho0, array, [], t_final=1.0, dt=0.1)
            with pytest.raises(SchemeError, match="AtomicHamiltonian"):
                steady_state(array, [])

    def test_hyperfine_offsets(self):
        hf = HyperfineScheme(
            fine=dline(omega_bd=1.3, omega_cd=1.0),
            nuclear_spin=half("3/2"),
            f_offsets={("b", 3): 0.05, ("d", 2): 0.01},
        )
        h = build_hamiltonian(hf)
        for state, energy in zip(h.basis, h.diagonal):
            expected = hf.fine.omega(state.level) + hf.f_offset(state.level, state.f)
            assert energy == expected
        # spot values: the shifted manifolds and an unshifted one
        b3 = h.basis.index(BasisState("b", half(0), half(3)))
        d2 = h.basis.index(BasisState("d", half(0), half(2)))
        d1 = h.basis.index(BasisState("d", half(0), half(1)))
        assert h.diagonal[b3] == 1.3 + 0.05
        assert h.diagonal[d2] == 0.01
        assert h.diagonal[d1] == 0.0

    def test_diagonal_length_checked(self):
        sch = dline()
        basis = Basis.for_fine(sch)
        with pytest.raises(SchemeError, match="basis"):
            AtomicHamiltonian(np.zeros(3), basis)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, bad):
        basis = Basis.for_fine(dline())
        energies = np.zeros(len(basis))
        energies[-1] = bad
        with pytest.raises(SchemeError, match="finite"):
            AtomicHamiltonian(energies, basis)


class TestValidateDensityMatrix:
    def test_accepts_valid(self):
        rho = np.diag([0.25, 0.25, 0.5]).astype(complex)
        rho[0, 1] = rho[1, 0] = 0.1
        out = validate_density_matrix(rho)
        assert out.dtype == complex

    def test_rejections(self):
        with pytest.raises(ValueError, match="square"):
            validate_density_matrix(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            validate_density_matrix(np.diag([0.5, 0.6]))
        with pytest.raises(ValueError, match="eigenvalue"):
            validate_density_matrix(np.diag([1.1, -0.1]))
        with pytest.raises(ValueError, match="finite"):
            validate_density_matrix(np.diag([np.nan, 1.0]))


class TestFreeEvolution:
    def test_phases_match_closed_form(self):
        sch = dline(omega_bd=1.3, omega_cd=1.0)
        h = build_hamiltonian(sch)
        basis = h.basis
        rho0 = pure_state(
            basis,
            {
                BasisState("d", half("-1/2")): 0.6,
                BasisState("c", half("1/2")): 0.5j,
                BasisState("b", half("3/2")): -0.62,
            },
        )
        traj = propagate(rho0, h, [], t_final=1.0, dt=0.0025, sample_every=100)
        assert [round(t, 10) for t in traj.times] == [0.0, 0.25, 0.5, 0.75, 1.0]
        for t, rho in traj:
            phase = np.exp(
                -1j * np.subtract.outer(h.diagonal, h.diagonal) * t
            )
            assert np.max(np.abs(rho - rho0 * phase)) < 1e-9
        # populations do not move at all under a diagonal Hamiltonian
        assert np.max(np.abs(traj.populations() - traj.populations()[0])) < 1e-12

    def test_trajectory_api(self):
        sch = dline()
        h = build_hamiltonian(sch)
        rho0 = np.eye(8, dtype=complex) / 8
        traj = propagate(rho0, h, [], t_final=0.1, dt=0.01, sample_every=3)
        # samples at steps 0, 3, 6, 9 and the forced final step 10
        assert len(traj) == 5
        assert traj.times.tolist() == [0.0, 0.03, 0.06, 0.09, 0.1]
        pairs = list(traj)
        assert pairs[0][0] == 0.0
        assert np.array_equal(pairs[-1][1], traj.final())
        assert traj.populations().shape == (5, 8)
        assert np.allclose(traj.traces(), 1.0, atol=1e-12)


def keep_b_only(rates):
    """Two-level reduction: drop every channel touching the c level.

    The J_d = 0 scheme forces J_b = J_c = 1, and a shared ground sublevel
    means the full V system always interferes; restricting the tables to the
    (b, b) block is the honest way to realize an isolated J=1 -> J=0 line.
    """
    return RateSet(
        scheme=rates.scheme,
        feeding={k: v for k, v in rates.feeding.items() if k[0] == "b" and k[3] == "b"},
        stimulated=rates.stimulated,
    )


class TestSingleChannelDecay:
    def test_two_level_reduction_decays_exponentially(self):
        sch = twolevel()
        rates = keep_b_only(rates_fine(sch, vacuum_k(), vacuum_k()))
        lop = build_relaxation_superop(rates)
        h = build_hamiltonian(sch)
        basis = lop.basis
        excited = basis.index(BasisState("b", half(1)))
        rho0 = np.zeros((7, 7), dtype=complex)
        rho0[excited, excited] = 1.0
        gamma = 2.0 * (2.0 / 3.0)  # population decay rate of the single channel
        t_final = 1.5  # one lifetime of the 1/gamma clock
        traj = propagate(rho0, h, [lop], t_final=t_final, dt=0.0025, sample_every=100)
        for t, rho in traj:
            assert rho[excited, excited].real == pytest.approx(
                math.exp(-gamma * t), abs=1e-6
            )
        # the decay lands in the single ground sublevel, nothing else moves
        ground = basis.index(BasisState("d", half(0)))
        final = traj.final()
        assert final[ground, ground].real == pytest.approx(
            1.0 - math.exp(-gamma * t_final), abs=1e-6
        )
        others = [
            i for i in range(7) if i not in (excited, ground)
        ]
        assert max(abs(final[i, i].real) for i in others) < 1e-12

    def test_equal_j_pair_traps_population_in_the_dark_state(self):
        # the full J_b = J_c = 1 system shares each decay channel between the
        # two levels, so half the population ends up in the non-decaying
        # antisymmetric superposition; closed form from the 2x2 block
        # rho_e(t) = exp(-Gt) rho_e(0) exp(-Gt) with G = (2/3) [[1, 1], [1, 1]]
        sch = twolevel()
        h, lop = relaxation_setup(sch)
        basis = lop.basis
        i_b = basis.index(BasisState("b", half(1)))
        i_c = basis.index(BasisState("c", half(1)))
        rho0 = np.zeros((7, 7), dtype=complex)
        rho0[i_b, i_b] = 1.0
        lam = 4.0 / 3.0
        traj = propagate(rho0, h, [lop], t_final=6.0, dt=0.0025, sample_every=400)
        for t, rho in traj:
            decay = math.exp(-lam * t)
            assert rho[i_b, i_b].real == pytest.approx(((1 + decay) / 2) ** 2, abs=1e-6)
            assert rho[i_c, i_c].real == pytest.approx(((1 - decay) / 2) ** 2, abs=1e-6)
            assert rho[i_b, i_c].real == pytest.approx(
                (math.exp(-2 * lam * t) - 1) / 4, abs=1e-6
            )
            assert abs(rho[i_b, i_c].imag) < 1e-9
        # the trapped dark state holds half the population forever
        final = traj.final()
        excited_pop = final[i_b, i_b].real + final[i_c, i_c].real
        assert excited_pop == pytest.approx(0.5, abs=1e-4)
        assert final[i_b, i_c].real == pytest.approx(-0.25, abs=1e-4)

    def test_dline_trace_and_positivity_over_ten_lifetimes(self):
        sch = dline()
        h, lop = relaxation_setup(sch)
        basis = lop.basis
        rho0 = pure_state(
            basis,
            {
                BasisState("b", half("1/2")): 0.8,
                BasisState("c", half("1/2")): 0.5j,
                BasisState("b", half("-3/2")): 0.33,
            },
        )
        # every excited sublevel depopulates at 2 * (2/3); ten lifetimes
        traj = propagate(rho0, h, [lop], t_final=7.5, dt=0.0025, sample_every=250)
        drifts = np.abs(traj.traces() - 1.0)
        assert float(drifts.max()) < 1e-9
        for _, rho in traj:
            assert max_asymmetry(rho) < 1e-12
            assert float(np.linalg.eigvalsh(rho)[0]) > -1e-7
        # effectively everything has decayed to the ground manifold, and a
        # diagonal vacuum K never builds coherence between ground sublevels
        final = traj.final()
        assert final[:2, :2].trace().real == pytest.approx(1.0, abs=1e-4)
        assert abs(final[0, 1]) < 1e-9


class TestRK4Accuracy:
    def test_halving_dt_gains_a_factor_eight_or_more(self):
        sch = dline(omega_bd=1.3, omega_cd=1.0)
        h, lop = relaxation_setup(sch)
        basis = lop.basis
        rho0 = pure_state(
            basis,
            {
                BasisState("b", half("1/2")): 0.7,
                BasisState("c", half("1/2")): 0.4j,
                BasisState("d", half("-1/2")): 0.59,
            },
        )

        def end_state(dt):
            return propagate(rho0, h, [lop], t_final=1.0, dt=dt, sample_every=10**9).final()

        reference = end_state(0.05 / 16)
        err_coarse = np.max(np.abs(end_state(0.05) - reference))
        err_fine = np.max(np.abs(end_state(0.025) - reference))
        assert err_coarse / err_fine >= 8.0
        # and the absolute scale is sane for a smooth problem
        assert err_coarse < 1e-5


class TestPropagateGuards:
    def test_argument_validation(self):
        sch = dline()
        h = build_hamiltonian(sch)
        rho0 = np.eye(8, dtype=complex) / 8
        with pytest.raises(ValueError, match="dt"):
            propagate(rho0, h, [], t_final=1.0, dt=0.0)
        with pytest.raises(ValueError, match="t_final"):
            propagate(rho0, h, [], t_final=-1.0, dt=0.1)
        with pytest.raises(ValueError, match="whole number"):
            propagate(rho0, h, [], t_final=1.0, dt=0.3)
        with pytest.raises(ValueError, match="sample_every"):
            propagate(rho0, h, [], t_final=1.0, dt=0.1, sample_every=0)
        with pytest.raises(ValueError, match="trace"):
            propagate(2.0 * rho0, h, [], t_final=1.0, dt=0.1)

    def test_shape_mismatches_named(self):
        sch = dline()
        h, lop = relaxation_setup(sch)
        with pytest.raises(SchemeError, match="Hamiltonian shape"):
            propagate(np.eye(4) / 4, h, [], t_final=1.0, dt=0.1)
        four = AtomicHamiltonian(np.zeros(4), Basis(lop.basis.states[:4]))
        with pytest.raises(SchemeError, match="superoperator"):
            propagate(np.eye(4) / 4, four, [lop], t_final=1.0, dt=0.1)

    def test_stiff_step_warns(self):
        sch = dline(omega_bd=1.3, omega_cd=1.0)
        h = build_hamiltonian(sch)
        rho0 = np.eye(8, dtype=complex) / 8
        with pytest.warns(RuntimeWarning, match="exceeds 0.1"):
            propagate(rho0, h, [], t_final=2.0, dt=1.0)

    def test_trace_gain_aborts(self):
        sch = twolevel()
        basis = Basis.for_fine(sch)
        n = len(basis)
        gain = Superoperator(0.5 * np.eye(n * n, dtype=complex), basis, "uniform-gain")
        rho0 = np.eye(n, dtype=complex) / n
        with pytest.raises(NumericalAbortError, match="trace") as exc_info:
            propagate(rho0, AtomicHamiltonian(np.zeros(n), basis), [gain], t_final=1.0, dt=0.01)
        assert exc_info.value.time == pytest.approx(0.01)
        assert exc_info.value.value > 1e-6

    def test_negativity_aborts(self):
        sch = twolevel()
        basis = Basis.for_fine(sch)
        n = len(basis)
        # grows one coherence exponentially while leaving populations alone:
        # the 2x2 block eigenvalue 0.5 - |c| goes negative once |c| > 0.5
        mat = np.zeros((n * n, n * n), dtype=complex)
        mat[0 * n + 1, 0 * n + 1] = 0.4
        mat[1 * n + 0, 1 * n + 0] = 0.4
        growth = Superoperator(mat, basis, "coherence-growth")
        rho0 = np.zeros((n, n), dtype=complex)
        rho0[0, 0] = rho0[1, 1] = 0.5
        rho0[0, 1] = rho0[1, 0] = 0.05
        with pytest.raises(NumericalAbortError, match="eigenvalue") as exc_info:
            propagate(
                rho0, AtomicHamiltonian(np.zeros(n), basis), [growth], t_final=8.0, dt=0.02
            )
        assert exc_info.value.value < -1e-6
        assert 5.0 < exc_info.value.time < 7.0
        # the exact abort of the eigvalsh monitor, to the bit
        assert exc_info.value.time.hex() == "0x1.70a3d70a3d70ap+2"
        assert exc_info.value.value.hex() == "-0x1.732c00c296c00p-11"

    def test_sodium_steps_are_certified_without_eigvalsh(self, linalg_calls):
        cfg, hamiltonian, superops, rho0 = _preset_problem("sodium-hyperfine")
        steps = step_count(cfg.run.t_final, cfg.run.dt)
        assert steps == 1500
        propagate(rho0, hamiltonian, superops, cfg.run.t_final, cfg.run.dt)
        # the state's blocks: the components of the basis indices that the
        # reached entries link
        n = rho0.shape[0]
        reached = _reached(_generator(hamiltonian, superops), rho0)[0]
        pattern = SparseMatrix(*np.divmod(reached, n), np.ones(reached.size, dtype=complex), (n, n))
        sizes = np.unique(np.bincount(_components(pattern)[1])).size
        # validate_density_matrix's check of rho0 is the one eigvalsh call; the
        # rest is one batched Cholesky per block size per 256 steps at most
        assert linalg_calls[0] == ("eigvalsh", "validate_density_matrix")
        assert {name for name, _caller in linalg_calls[1:]} == {"cholesky"}
        assert len(linalg_calls[1:]) <= math.ceil(steps / 256) * sizes

    @pytest.mark.parametrize("rho0", ["single:b:2:0", "single:b:1:1", "single:b:3:-2"])
    def test_only_blocks_a_reached_entry_touches_are_certified(self, rho0, monkeypatch):
        cfg, hamiltonian, superops, state = _preset_problem("sodium-hyperfine", rho0)
        certified, cholesky = [], np.linalg.cholesky

        def recorded(a):
            if a.ndim == 4:  # a batched certificate: (steps, blocks, s, s)
                certified.append(a.copy())
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", recorded)
        propagate(state, hamiltonian, superops, 40 * cfg.run.dt, cfg.run.dt)
        n = state.shape[0]
        reached = _reached(_generator(hamiltonian, superops), state)[0]
        pattern = SparseMatrix(*np.divmod(reached, n), np.ones(reached.size, dtype=complex), (n, n))
        labels = _components(pattern)[1]
        touched = np.unique(labels[np.concatenate(np.divmod(reached, n))])
        # one chunk of 40 steps: each touched block once, and no other one
        assert sum(a.shape[1] for a in certified) == touched.size < n
        for a in certified:
            shift = 0.5e-6 * np.eye(a.shape[-1])
            assert not (a == shift).all(axis=(0, 2, 3)).any()  # none is the shift alone

    def test_eigenvalue_between_the_shift_and_the_tolerance_takes_the_exact_path(
        self, linalg_calls
    ):
        sch = twolevel()
        basis = Basis.for_fine(sch)
        n = len(basis)
        mat = np.zeros((n * n, n * n), dtype=complex)
        mat[0 * n + 1, 0 * n + 1] = mat[1 * n + 0, 1 * n + 0] = 0.4
        growth = Superoperator(mat, basis, "coherence-growth")
        # ten RK4 steps of the growing coherence end at 0.5 + 7.5e-7, so the
        # 2x2 block's smallest eigenvalue 0.5 - |c| ends at -7.5e-7: below the
        # certificate's -5e-7 but above the -1e-6 that aborts
        z = 0.4 * 0.02
        rho0 = np.zeros((n, n), dtype=complex)
        rho0[0, 0] = rho0[1, 1] = 0.5
        rho0[0, 1] = rho0[1, 0] = (0.5 + 7.5e-7) / (1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24) ** 10
        traj = propagate(
            rho0, AtomicHamiltonian(np.zeros(n), basis), [growth], t_final=0.2, dt=0.02
        )
        exact = [call for call in linalg_calls if call[0] == "eigvalsh"]
        assert exact == [("eigvalsh", "validate_density_matrix"), ("eigvalsh", "propagate")]
        assert -1e-6 < np.linalg.eigvalsh(traj.final())[0] < -5e-7
        assert np.linalg.eigvalsh(traj.states[-2][:2, :2])[0] > 1e-3

    @pytest.mark.parametrize("rate", [1e80, -1e200])
    def test_non_finite_state_fails_in_the_exact_monitor(self, rate, linalg_calls):
        sch = twolevel()
        basis = Basis.for_fine(sch)
        n = len(basis)
        mat = np.zeros((n * n, n * n), dtype=complex)
        mat[0 * n + 1, 0 * n + 1] = mat[1 * n + 0, 1 * n + 0] = rate
        growth = Superoperator(mat, basis, "coherence-overflow")
        rho0 = np.zeros((n, n), dtype=complex)
        rho0[0, 0] = rho0[1, 1] = 0.5
        rho0[0, 1] = rho0[1, 0] = 0.05
        # one step overflows the coherence; the certificate fails and the
        # state aborts typed, at that step, before eigvalsh would see it
        with pytest.warns(RuntimeWarning) as warned, pytest.raises(
            NumericalAbortError, match="not finite"
        ) as exc_info:
            propagate(rho0, AtomicHamiltonian(np.zeros(n), basis), [growth], t_final=0.04, dt=0.02)
        assert any("exceeds 0.1" in str(w.message) for w in warned)
        assert exc_info.value.time == 0.02
        assert linalg_calls[-1] == ("cholesky", "propagate")
        assert ("eigvalsh", "propagate") not in linalg_calls


    def test_nan_coherence_aborts_at_its_first_step(self):
        # a NaN passes every comparison: the trace stays 1 and eigvalsh
        # returns NaN without an error, so only the finiteness check stops it
        basis = Basis.for_fine(twolevel())
        n = len(basis)
        mat = np.zeros((n * n, n * n), dtype=complex)
        mat[0 * n + 1, 0 * n + 1] = mat[1 * n + 0, 1 * n + 0] = np.nan
        rho0 = np.zeros((n, n), dtype=complex)
        rho0[0, 0] = rho0[1, 1] = 0.5
        rho0[0, 1] = rho0[1, 0] = 0.05
        with pytest.raises(NumericalAbortError, match="not finite") as exc_info:
            propagate(
                rho0, AtomicHamiltonian(np.zeros(n), basis), [Superoperator(mat, basis, "nan")],
                t_final=0.04, dt=0.02,
            )
        assert exc_info.value.time == 0.02 and math.isnan(exc_info.value.value)


class TestHyperfinePropagation:
    def test_decay_with_offsets_stays_physical(self):
        hf = HyperfineScheme(
            fine=dline(omega_bd=1.3, omega_cd=1.0),
            nuclear_spin=half("3/2"),
            f_offsets={("b", 3): 0.05, ("d", 2): 0.01},
        )
        rates = rates_hyperfine(hf, vacuum_k())
        lop = build_relaxation_superop(rates)
        h = build_hamiltonian(hf, lop.basis)
        n = len(lop.basis)
        assert n == 32  # (3+5) + (3+5) + (1+3+5+7) sublevels for I = 3/2
        start = lop.basis.index(BasisState("b", half(0), half(3)))
        rho0 = np.zeros((n, n), dtype=complex)
        rho0[start, start] = 1.0
        traj = propagate(rho0, h, [lop], t_final=2.0, dt=0.01, sample_every=50)
        assert float(np.max(np.abs(traj.traces() - 1.0))) < 1e-9
        final = traj.final()
        assert max_asymmetry(final) < 1e-12
        assert final[start, start].real < 0.1  # several lifetimes have passed
        ground = [i for i, st in enumerate(lop.basis) if st.level == "d"]
        assert sum(final[i, i].real for i in ground) > 0.9


class TestSteadyState:
    def test_relaxation_only_dline_is_degenerate(self):
        sch = dline()
        h, lop = relaxation_setup(sch)
        with pytest.raises(DegenerateSteadyStateError) as exc_info:
            steady_state(h, [lop])
        # the 2x2 ground block is untouched by pure decay: 4 free entries
        assert exc_info.value.dimension == 4

    def test_equal_j_decay_reports_dark_state_degeneracy(self):
        # every shared channel of the J_b = J_c = 1 pair has a dark
        # superposition: one ground state plus a 3x3 block of dark-state
        # matrix elements survive forever
        sch = twolevel()
        h, lop = relaxation_setup(sch)
        with pytest.raises(DegenerateSteadyStateError) as exc_info:
            steady_state(h, [lop])
        assert exc_info.value.dimension == 10

    def test_degenerate_frequencies_keep_conserved_quantities(self):
        # with omega_bd = omega_cd, isotropic pumping + decay is fully
        # rotation symmetric and the c/d levels share j = 1/2, leaving a
        # 4-dimensional kernel; the physical fine-structure splitting is
        # what makes the steady state unique
        sch = dline()
        mod = ModeDensityModifier.vacuum()
        l_r = build_relaxation_superop(rates_fine(sch, vacuum_k(), vacuum_k()))
        l_s = build_stimulated_superop(
            rates_stimulated(sch, AngularDistribution.isotropic(50.0), mod)
        )
        with pytest.raises(DegenerateSteadyStateError) as exc_info:
            steady_state(build_hamiltonian(sch), [l_r, l_s])
        assert exc_info.value.dimension == 4

    def test_zero_generator_reports_full_degeneracy(self):
        basis = Basis.for_fine(twolevel())
        with pytest.raises(DegenerateSteadyStateError) as exc_info:
            steady_state(AtomicHamiltonian(np.zeros(3), Basis(basis.states[:3])), [])
        assert exc_info.value.dimension == 9

    @pytest.mark.parametrize(
        "diagonal, reason",
        [
            # populations decay and the b-d coherence is frozen, so the one
            # null vector is traceless and names no density matrix
            ([-1.0, 0.0, -1.0, -1.0], "null vector is traceless"),
            # everything decays: no null vector at all
            ([-1.0, -1.0, -1.0, -1.0], "no null vector"),
        ],
    )
    def test_marginal_null_vector_raises_convergence_error(self, diagonal, reason):
        basis = Basis([BasisState("b", half(0)), BasisState("d", half(0))])
        op = Superoperator(np.diag(diagonal), basis, "marginal")
        with pytest.raises(ConvergenceError, match=reason):
            steady_state(AtomicHamiltonian(np.zeros(2), basis), [op])

    def pumped_dline(self, n_mean, distribution):
        # split excited levels; degenerate ones leave conserved quantities
        sch = dline(omega_bd=1.3, omega_cd=1.0)
        mod = ModeDensityModifier.vacuum()
        r_rates = rates_fine(sch, vacuum_k(1.3), vacuum_k(1.0))
        s_rates = rates_stimulated(sch, distribution(n_mean), mod)
        l_r = build_relaxation_superop(r_rates)
        l_s = build_stimulated_superop(s_rates)
        return sch, build_hamiltonian(sch), r_rates, s_rates, l_r, l_s

    def test_isotropic_pumping_matches_rate_equations(self):
        sch, h, r_rates, s_rates, l_r, l_s = self.pumped_dline(
            50.0, AngularDistribution.isotropic
        )
        rho = steady_state(h, [l_r, l_s])
        basis = l_r.basis

        # populations-only rate matrix built straight from the tables;
        # valid because isotropic pumping couples no coherence to populations
        n = len(basis)
        rate = np.zeros((n, n))
        excited = [(i, st) for i, st in enumerate(basis) if st.level != "d"]
        ground = [(i, st) for i, st in enumerate(basis) if st.level == "d"]
        for i, st in excited:
            total = 2.0 * (
                r_rates.upper.get((st.level, st.m, st.level, st.m), 0j)
                + s_rates.upper.get((st.level, st.m, st.level, st.m), 0j)
            ).real
            rate[i, i] -= total
            for gi, gst in ground:
                feed = 2.0 * (
                    r_rates.feeding.get((st.level, st.m, gst.m, st.level, st.m, gst.m), 0j)
                    + s_rates.feeding.get((st.level, st.m, gst.m, st.level, st.m, gst.m), 0j)
                ).real
                rate[gi, i] += feed
        for gi, gst in ground:
            rate[gi, gi] -= 2.0 * s_rates.ground.get((gst.m, gst.m), 0j).real
            for i, st in excited:
                absorb = 2.0 * s_rates.feeding.get(
                    (st.level, st.m, gst.m, st.level, st.m, gst.m), 0j
                ).real
                rate[i, gi] += absorb

        _, svals, vh = np.linalg.svd(rate)
        assert svals[-2] > 1e-6  # the rate matrix itself is uniquely steady
        pops_oracle = np.abs(vh[-1])  # sign-fixed: populations are positive
        pops_oracle = pops_oracle / pops_oracle.sum()
        assert np.max(np.abs(np.diag(rho).real - pops_oracle)) < 1e-10

        # the rotation-invariant steady state never carries b-c coherence
        for i, st in excited:
            for k, st2 in excited:
                if st.level != st2.level:
                    assert abs(rho[i, k]) < 1e-12

        # detailed balance of equal up/down tables: every excited sublevel
        # holds exactly N/(N+1) of any ground sublevel's population; with
        # N -> inf this approaches the equal-weight stimulated balance
        for i, st in excited:
            for gi, gst in ground:
                ratio = rho[i, i].real / rho[gi, gi].real
                assert ratio == pytest.approx(50.0 / 51.0, abs=1e-9)

    def test_cos2_pumping_builds_excited_coherence(self):
        sch, h, r_rates, s_rates, l_r, l_s = self.pumped_dline(
            5.0, AngularDistribution.axisymmetric_cos2
        )
        basis = l_r.basis
        rho = steady_state(h, [l_r, l_s])
        i_b = basis.index(BasisState("b", half("1/2")))
        i_c = basis.index(BasisState("c", half("1/2")))
        assert abs(rho[i_b, i_c]) > 1e-5

        # contrapositive: remove the cross tables and the coherence dies
        stripped = RateSet(
            scheme=s_rates.scheme,
            feeding={k: v for k, v in s_rates.feeding.items() if k[0] == k[3]},
            stimulated=True,
        )
        l_s_stripped = build_stimulated_superop(stripped)
        rho0 = steady_state(h, [l_r, l_s_stripped])
        assert abs(rho0[i_b, i_c]) < 1e-12
        # populations barely notice; the effect is a pure coherence one
        assert abs(rho0[i_b, i_b].real - rho[i_b, i_b].real) < 0.05

    def test_steady_state_is_a_fixed_point(self):
        sch, h, r_rates, s_rates, l_r, l_s = self.pumped_dline(
            5.0, AngularDistribution.axisymmetric_cos2
        )
        rho = steady_state(h, [l_r, l_s])
        hmat = np.diag(h.diagonal)
        n = len(l_r.basis)
        deriv = (
            -1j * (hmat @ rho - rho @ hmat)
            + (l_r.matrix.toarray() @ rho.reshape(-1)).reshape(n, n)
            + (l_s.matrix.toarray() @ rho.reshape(-1)).reshape(n, n)
        )
        assert float(np.max(np.abs(deriv))) < 1e-10
        assert rho.trace().real == pytest.approx(1.0, abs=1e-12)
        assert float(np.linalg.eigvalsh(rho)[0]) > -1e-12

    def test_propagate_branch_agrees_when_pumped(self):
        sch, h, r_rates, s_rates, l_r, l_s = self.pumped_dline(
            5.0, AngularDistribution.axisymmetric_cos2
        )
        n = len(l_r.basis)
        hmat, eye = np.diag(h.diagonal), np.eye(n)
        gen = -1j * (np.kron(hmat, eye) - np.kron(eye, hmat.T))
        gen = gen + l_r.matrix.toarray() + l_s.matrix.toarray()
        rho_svd = steady_state(h, [l_r, l_s])
        rho_prop = _relax_to_fixed_point(gen, n)
        assert np.max(np.abs(rho_svd - rho_prop)) < 1e-9


def _relax_to_fixed_point(
    gen: np.ndarray, n: int, *, tol: float = 1e-12
) -> np.ndarray:
    """March exp(gen t) applied to the maximally mixed state out to t -> inf.

    One RK4 step matrix at a safe dt is squared repeatedly, doubling the time
    horizon per iteration, until ||drho/dt||_max falls below ``tol``.  The
    state is re-Hermitized and trace-renormalized between doublings.

    The oracle for ``steady_state``, with which it shares no code.
    """
    scale = float(np.max(np.abs(gen)))
    dt = 0.05 / scale
    a = gen * dt
    eye = np.eye(n * n, dtype=complex)
    # RK4 one-step matrix: degree-4 Taylor polynomial of exp(a)
    stepper = eye + a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)

    rho = np.eye(n, dtype=complex) / n
    y = rho.reshape(n * n)
    for _ in range(64):
        y = stepper @ y
        rho = y.reshape(n, n)
        rho = 0.5 * (rho + rho.conj().T)
        trace = float(rho.trace().real)
        if abs(trace) < 1e-300:
            break
        rho = rho / trace
        y = rho.reshape(n * n)
        if float(np.max(np.abs(gen @ y))) < tol:
            return rho
        stepper = stepper @ stepper
    raise ConvergenceError(
        f"long-time propagation did not reach ||drho/dt|| < {tol:.1e}; "
        f"the generator may have undamped modes"
    )


# ---------------------------------------------------------------------------
# the block solver against the dense SVD it replaced


def dense_steady_state(
    hamiltonian: AtomicHamiltonian, superops: Sequence[Superoperator]
) -> np.ndarray:
    """The dense-SVD solver that ``steady_state`` replaced, kept as its oracle.

    One SVD of the dense n^2 x n^2 generator; the same null rule (below
    n^2 * eps of the largest singular value), errors and residual check.
    """
    n = len(hamiltonian.basis)
    gen = _generator(hamiltonian, superops).toarray()

    scale = float(np.max(np.abs(gen)))
    if scale == 0.0:
        # the zero generator fixes everything; never a unique state for n > 0
        raise DegenerateSteadyStateError(n * n)

    _, svals, vh = np.linalg.svd(gen)
    null_dim = int(np.sum(svals < n * n * np.finfo(float).eps * svals[0]))
    if null_dim > 1:
        raise DegenerateSteadyStateError(null_dim)
    if null_dim == 0:
        raise ConvergenceError(
            f"generator has no null vector (smallest singular value "
            f"{svals[-1] / svals[0]:.3e} of the largest)"
        )
    raw = vh[-1].conj().reshape(n, n)
    trace = complex(raw.trace())
    if abs(trace) <= 1e-9:
        raise ConvergenceError(f"the null vector is traceless (|trace| = {abs(trace):.3e})")
    rho = _hermitized(raw / trace)
    residual = float(np.max(np.abs(gen @ rho.reshape(n * n))))
    limit = 1e-10 * max(1.0, scale)
    if residual > limit:
        raise ConvergenceError(f"null vector residual {residual:.3e} exceeds {limit:.3e}")
    return rho


def null_dimension(solver, hamiltonian, superops):
    """1 for a unique state, else the dimension the solver reports."""
    try:
        solver(hamiltonian, superops)
    except DegenerateSteadyStateError as exc:
        return exc.dimension
    return 1


def preset_problem(name):
    cfg = preset_config(name)
    scheme = build_scheme(cfg)
    basis = Basis.for_scheme(scheme)
    superops = [
        build_stimulated_superop(rates, basis)
        if rates.kind == "stimulated"
        else build_relaxation_superop(rates, basis)
        for _label, rates in build_rate_sets(cfg)
    ]
    return build_hamiltonian(scheme, basis), superops


# (null dimension, its part in the dark ground manifold) of every preset
# without a unique steady state; sodium's 34 = 3^2 + 5^2 are the F_d = 1
# and F_d = 2 ground blocks
DEGENERATE_PRESETS = {
    "dline-vacuum": (4, 4),
    "dline-cavity": (4, 4),
    "dline-photonic": (4, 4),
    "twolevel-decay": (10, 1),
    "sodium-hyperfine": (34, 34),
}


@pytest.mark.parametrize("name", preset_names())
def test_block_solver_matches_dense_oracle_on_presets(name):
    hamiltonian, superops = preset_problem(name)
    if name in DEGENERATE_PRESETS:
        dimension, dark = DEGENERATE_PRESETS[name]
        assert null_dimension(dense_steady_state, hamiltonian, superops) == dimension
        with pytest.raises(DegenerateSteadyStateError) as exc_info:
            steady_state(hamiltonian, superops)
        assert exc_info.value.dimension == dimension
        assert exc_info.value.dark_ground == dark
        assert f"of which {dark} lie wholly in the dark ground manifold" in str(
            exc_info.value
        )
        return
    rho = steady_state(hamiltonian, superops)
    assert np.max(np.abs(rho - dense_steady_state(hamiltonian, superops))) <= 1e-13


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(random_rate_sets())
def test_block_solver_null_dimension_matches_dense_oracle_on_random_schemes(case):
    rates, basis = case
    hamiltonian = build_hamiltonian(rates.scheme, basis)
    superops = [build_relaxation_superop(rates, basis)]
    assert null_dimension(steady_state, hamiltonian, superops) == null_dimension(
        dense_steady_state, hamiltonian, superops
    )


def test_helicity_mixing_k_joins_coherence_orders_and_matches_oracle():
    # a K with helicity cross terms couples coherence orders q = M_i - M_j,
    # so the generator's blocks outgrow the q-blocks of a diagonal K
    sch = dline(omega_bd=1.3, omega_cd=1.0)
    rng = np.random.default_rng(7)
    l_r = build_relaxation_superop(rates_fine(sch, random_psd_k(rng), random_psd_k(rng)))
    l_s = build_stimulated_superop(
        rates_stimulated(sch, AngularDistribution.isotropic(2.0), ModeDensityModifier.vacuum())
    )
    h = build_hamiltonian(sch)
    basis = l_r.basis
    largest_block = max(
        positions.shape[1] for positions, _ in _blocks(_generator(h, [l_r, l_s]))
    )
    largest_q_block = max(Counter(a.m - b.m for a in basis for b in basis).values())
    assert largest_block > largest_q_block
    rho = steady_state(h, [l_r, l_s])
    assert np.max(np.abs(rho - dense_steady_state(h, [l_r, l_s]))) <= 1e-13


def thermal_problem(n_mean=1.5):
    """J_b = 11/2, J_c = 9/2 over J_d = 9/2 (n = 32) in isotropic thermal light."""
    sch = LevelScheme(
        j_b=half("11/2"), j_c=half("9/2"), j_d=half("9/2"), omega_bd=1.3, omega_cd=1.0
    )
    l_r = build_relaxation_superop(rates_fine(sch, vacuum_k(1.3), vacuum_k(1.0)))
    l_s = build_stimulated_superop(
        rates_stimulated(
            sch, AngularDistribution.isotropic(n_mean), ModeDensityModifier.vacuum()
        )
    )
    return build_hamiltonian(sch), [l_r, l_s]


def test_thermal_steady_state_stays_small_in_memory():
    # the dense generator alone would be 1024^2 complex entries, 16.8 MB
    h, superops = thermal_problem()
    steady_state(h, superops)  # lazy imports and caches stay out of the peak
    tracemalloc.start()
    try:
        rho = steady_state(h, superops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    pops = np.diag(rho).real
    ground = [i for i, st in enumerate(h.basis) if st.level == "d"]
    excited = [i for i, st in enumerate(h.basis) if st.level != "d"]
    assert np.max(np.abs(pops[excited] - 1.5 / 2.5 * pops[ground[0]])) < 1e-12


@st.composite
def thermal_fine_problems(draw):
    """A dipole-allowed fine scheme with every 2J <= 7, split lines (omega_bd =
    1.3, omega_cd = 1.0), vacuum decay and an isotropic field of mean n."""
    jd = draw(st.integers(0, 7))  # all angular momenta twice their value
    allowed = [j for j in range(abs(jd - 2), min(jd, 5) + 3, 2) if j + jd > 0]
    sch = LevelScheme(
        j_b=HalfInt(draw(st.sampled_from(allowed))), j_c=HalfInt(draw(st.sampled_from(allowed))),
        j_d=HalfInt(jd), omega_bd=1.3, omega_cd=1.0,
    )
    n_mean = draw(st.floats(0.05, 3.0))
    l_r = build_relaxation_superop(rates_fine(sch, vacuum_k(1.3), vacuum_k(1.0)))
    l_s = build_stimulated_superop(
        rates_stimulated(sch, AngularDistribution.isotropic(n_mean), ModeDensityModifier.vacuum())
    )
    return build_hamiltonian(sch), [l_r, l_s], n_mean


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(thermal_fine_problems())
def test_isotropic_thermal_field_gives_boltzmann_ratio_on_every_sublevel(problem):
    # one photon distribution drives both directions of every line, so each
    # excited sublevel holds n/(n+1) of each ground one, with no coherence;
    # distinct line frequencies keep the null space one-dimensional
    h, superops, n_mean = problem
    rho = steady_state(h, superops)
    pops = np.diag(rho).real
    ground = [i for i, state in enumerate(h.basis) if state.level == "d"]
    excited = [i for i, state in enumerate(h.basis) if state.level != "d"]
    ratio = n_mean / (n_mean + 1.0)
    assert np.max(np.abs(pops[excited][:, None] - ratio * pops[ground][None, :])) < 1e-12
    assert np.max(np.abs(pops[ground] - pops[ground[0]])) < 1e-12
    assert np.max(np.abs(rho - np.diag(np.diag(rho)))) < 1e-12


def weak_thermal_dline(n_mean):
    """D-line at optical frequencies (omega_bd = 1.3e6, omega_cd = 1e6): vacuum
    decay plus an isotropic field of mean n."""
    sch = dline(omega_bd=1.3e6, omega_cd=1e6)
    l_r = build_relaxation_superop(rates_fine(sch, vacuum_k(1.3e6), vacuum_k(1e6)))
    l_s = build_stimulated_superop(
        rates_stimulated(sch, AngularDistribution.isotropic(n_mean), ModeDensityModifier.vacuum())
    )
    return build_hamiltonian(sch), [l_r, l_s]


def test_weak_thermal_field_under_optical_frequencies_is_unique():
    """Weak pumping makes the state unique although the Hamiltonian sets the
    largest singular value (~1.3e6): the slow population mode (~1.6e-6)
    stands far above that scale's roundoff, n^2 * eps * 1.3e6 ~ 1.8e-8."""
    rho = steady_state(*weak_thermal_dline(1e-6))
    validate_density_matrix(rho)


def test_weak_thermal_field_under_optical_frequencies_keeps_ground_populations_equal():
    # isotropy makes the ground populations equal; the population block also
    # holds the same-M b-c coherences, whose 3e5 splitting would blur them to
    # ~1e-6 without the row scaling of the null vector's block
    hamiltonian, superops = weak_thermal_dline(1e-6)
    rho = steady_state(hamiltonian, superops)
    ground = [i for i, state in enumerate(hamiltonian.basis) if state.level == "d"]
    assert np.ptp(rho.diagonal().real[ground]) <= 1e-9


@pytest.mark.parametrize("n_mean,dimension", [(1e-6, 1), (1e-9, 4), (1e-12, 4)])
def test_null_rule_conditioning_limit_under_optical_frequencies(n_mean, dimension):
    # the documented limit of the numerical-rank rule: once pumping slows the
    # population mode below the roundoff of the Hamiltonian's scale, that
    # mode reads as null and the state as degenerate
    assert null_dimension(steady_state, *weak_thermal_dline(n_mean)) == dimension


@pytest.fixture
def svd_calls(monkeypatch):
    """(compute_uv, caller) of every np.linalg.svd call, in order."""
    calls = []
    real = np.linalg.svd

    def counted(a, *args, compute_uv=True, **kwargs):
        calls.append((compute_uv, sys._getframe(1).f_code.co_name))
        return real(a, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("name", ["weak-thermal", "dline-isotropic", "dline-paper-k"])
def test_unique_steady_state_takes_singular_vectors_once(name, svd_calls):
    # the null count needs singular values only; vectors are taken once, of
    # the row-scaled block that holds the null vector
    h, superops = weak_thermal_dline(1e-6) if name == "weak-thermal" else preset_problem(name)
    sizes = len(_blocks(_generator(h, superops)))
    assert sizes > 1
    steady_state(h, superops)
    assert [uv for uv, _caller in svd_calls] == [False] * sizes + [True]
    assert svd_calls[-1] == (True, "steady_state")


@pytest.mark.parametrize("name", sorted(DEGENERATE_PRESETS))
def test_degenerate_steady_state_takes_vectors_of_null_blocks_only(name, svd_calls):
    h, superops = preset_problem(name)
    stacks = _blocks(_generator(h, superops))
    with pytest.raises(DegenerateSteadyStateError) as info:
        steady_state(h, superops)
    assert (info.value.dimension, info.value.dark_ground) == DEGENERATE_PRESETS[name]
    with_vectors = [caller for uv, caller in svd_calls if uv]
    assert set(with_vectors) == {"_dark_ground_dimension"}
    # one full SVD per block that holds a null singular value, at most
    assert len(with_vectors) <= sum(stack.shape[0] for _positions, stack in stacks)


# ---------------------------------------------------------------------------
# generators that do not preserve Hermiticity


def hand_made_generator(n: int, entries: dict) -> np.ndarray:
    """The dense n^2 x n^2 matrix with ``entries[((i, j), (k, m))]`` at vec
    row i n + j and column k n + m."""
    dense = np.zeros((n * n, n * n), dtype=complex)
    for ((i, j), (k, m)), value in entries.items():
        dense[i * n + j, k * n + m] = value
    return dense


CHAIN = {
    ((1, 0), (1, 0)): 1.0, ((1, 0), (1, 1)): 2.0, ((1, 1), (1, 1)): 1.0,
    ((1, 1), (2, 1)): 3.0, ((2, 1), (1, 0)): 4.0, ((2, 1), (2, 1)): 1.0,
}
CHAIN_ENDS = (((0, 1), (0, 1)), ((1, 2), (1, 2)), ((2, 2), (2, 2)))


@pytest.mark.parametrize(
    "n, entries, dimension",
    [
        # 1x1 blocks at vec positions 0, 2, 6 (empty) and 1, 5, 8 (-1, then
        # empty), and one 3x3 block at 3, 4, 7: matching each 1x1 block to
        # the first 1x1 block at or after its transposed position chains 1
        # (transposed 3) to 5, and 5 (transposed 7) to 8
        (3, {**CHAIN, **dict.fromkeys(CHAIN_ENDS, -1.0)}, 3),
        (3, {**CHAIN, **dict.fromkeys(CHAIN_ENDS, 0.0)}, 6),
        # the block at (0,1), (0,2) is rank 1 and its transposition partner at
        # (1,0), (2,0) rank 2; (0,0) is empty; (0,3), (1,3) and (3,0), (3,1)
        # are the conjugate pair a Hermiticity-preserving generator makes
        (
            4,
            {
                ((0, 1), (0, 1)): 1.0, ((0, 1), (0, 2)): 1.0, ((0, 2), (0, 1)): 1.0,
                ((0, 2), (0, 2)): 1.0,
                ((1, 0), (1, 0)): 1.0, ((1, 0), (2, 0)): 1.0, ((2, 0), (1, 0)): 1.0,
                ((2, 0), (2, 0)): 2.0,
                ((0, 3), (0, 3)): 1 + 2j, ((0, 3), (1, 3)): 0.5, ((1, 3), (0, 3)): 3j,
                ((1, 3), (1, 3)): 1.5j,
                ((3, 0), (3, 0)): 1 - 2j, ((3, 0), (3, 1)): 0.5, ((3, 1), (3, 0)): -3j,
                ((3, 1), (3, 1)): -1.5j,
                ((1, 2), (1, 2)): 0.25, ((2, 1), (2, 1)): 0.5, ((2, 3), (2, 3)): 1.0,
                ((3, 2), (3, 2)): 1.0,
                **{((i, i), (i, i)): -1.0 - i for i in range(1, 4)},
            },
            2,
        ),
    ],
)
def test_steady_state_null_dimension_of_non_hermitian_generators(n, entries, dimension):
    # every block is decomposed on its own: the null dimension is the dense SVD's
    dense = hand_made_generator(n, entries)
    values = np.linalg.svd(dense, compute_uv=False)
    assert int(np.sum(values < n * n * np.finfo(float).eps * values[0])) == dimension
    basis = Basis(Basis.for_fine(dline()).states[:n])
    with pytest.raises(DegenerateSteadyStateError) as exc_info:
        steady_state(AtomicHamiltonian(np.zeros(n), basis), [Superoperator(dense, basis, "hand")])
    assert exc_info.value.dimension == dimension
