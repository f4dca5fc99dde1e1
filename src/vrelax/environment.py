"""Photon environments and the K(sigma, sigma') polarization-overlap matrices.

An environment has two independent ingredients:

* an :class:`AngularDistribution` -- the mean photon number per mode
  N(theta, phi, lambda) over propagation direction and helicity, which drives
  stimulated transitions;
* a :class:`ModeDensityModifier` -- a per-frequency, per-polarization-channel
  rescaling of the mode density (vacuum, planar cavity, photonic crystal),
  which reshapes spontaneous decay and multiplies the stimulated overlaps.

Normalization convention (stated once, used everywhere): K matrices carry the
solid-angle measure dOmega/4pi, so the free-space spontaneous matrix is
(2/3) * identity and an isotropic distribution of mean occupation N gives the
stimulated matrix (2N/3) * identity.  All remaining physical prefactors
(dipole moments, omega^3, hbar, c) are absorbed into the rate scale S of the
level scheme, so only ratios of K entries shape the operators.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Optional, Sequence

import numpy as np

from .angular import wigner_d1
from .errors import DistributionDomainError, QuadratureOrderError
from .halfint import check_sigma

__all__ = [
    "AngularDistribution",
    "ModeDensityModifier",
    "KMatrix",
    "k_spontaneous",
    "k_stimulated",
    "quadrature_selfcheck",
    "SelfCheckReport",
    "CheckEntry",
]

_TWO_PI = 2.0 * math.pi
_K_TOL = 1e-10  # KMatrix.validate: Hermitian defect and diagonal tolerance

# ---------------------------------------------------------------------------
# angular distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AngularDistribution:
    """Mean photon number per mode as a function of (theta, phi, helicity).

    Construct through the factory methods; ``kind`` is one of ``isotropic``,
    ``axisymmetric-cos2``, ``custom-tabulated``.  ``amplitude`` is an overall
    scalar factor applied after shape evaluation, so rescaling a distribution
    rescales every K entry exactly (one multiplication, no re-quadrature).
    """

    kind: str
    amplitude: float = 1.0
    theta_grid: Optional[np.ndarray] = None
    phi_grid: Optional[np.ndarray] = None
    table: Optional[np.ndarray] = None  # shape (2, n_theta, n_phi); 0 -> lam=-1

    def __post_init__(self) -> None:
        if self.kind not in ("isotropic", "axisymmetric-cos2", "custom-tabulated"):
            raise DistributionDomainError(f"unknown angular distribution kind {self.kind!r}")

    @classmethod
    def isotropic(cls, n_mean: float) -> "AngularDistribution":
        if not math.isfinite(n_mean) or n_mean < 0:
            raise DistributionDomainError(
                f"mean photon number must be finite and >= 0, got {n_mean!r}"
            )
        return cls(kind="isotropic", amplitude=float(n_mean))

    @classmethod
    def axisymmetric_cos2(cls, n_mean: float) -> "AngularDistribution":
        """N(theta) = n_mean * cos^2(theta), both helicities."""
        if not math.isfinite(n_mean) or n_mean < 0:
            raise DistributionDomainError(
                f"mean photon number must be finite and >= 0, got {n_mean!r}"
            )
        return cls(kind="axisymmetric-cos2", amplitude=float(n_mean))

    @classmethod
    def from_table(
        cls,
        theta_grid: Sequence[float],
        phi_grid: Sequence[float],
        table_minus: np.ndarray,
        table_plus: np.ndarray,
    ) -> "AngularDistribution":
        """Tabulated distribution, bilinearly interpolated.

        ``theta_grid`` must be strictly increasing and span [0, pi];
        ``phi_grid`` strictly increasing within [0, 2pi) (interpolation wraps
        around); the tables are (n_theta, n_phi) arrays for helicity -1 / +1.
        """
        th = np.asarray(theta_grid, dtype=float)
        ph = np.asarray(phi_grid, dtype=float)
        tabs = np.stack(
            [np.asarray(table_minus, dtype=float), np.asarray(table_plus, dtype=float)]
        )
        if th.ndim != 1 or th.size < 2 or np.any(np.diff(th) <= 0):
            raise DistributionDomainError("theta grid must be strictly increasing")
        if ph.ndim != 1 or ph.size < 2 or np.any(np.diff(ph) <= 0):
            raise DistributionDomainError("phi grid must be strictly increasing")
        if abs(th[0]) > 1e-9 or abs(th[-1] - math.pi) > 1e-9:
            raise DistributionDomainError("theta grid must span [0, pi]")
        if ph[0] < 0 or ph[-1] >= _TWO_PI:
            raise DistributionDomainError("phi grid must lie within [0, 2pi)")
        if tabs.shape != (2, th.size, ph.size):
            raise DistributionDomainError(
                f"tables must have shape ({th.size}, {ph.size}), got "
                f"{tabs.shape[1:]} per helicity"
            )
        if not np.all(np.isfinite(tabs)):
            raise DistributionDomainError("tabulated values must be finite")
        if np.any(tabs < 0):
            lam_i, ti, pi_ = np.argwhere(tabs < 0)[0]
            raise DistributionDomainError(
                f"negative mean photon number {tabs[lam_i, ti, pi_]!r} at "
                f"theta={th[ti]!r}, phi={ph[pi_]!r}, lambda={(-1, 1)[lam_i]}"
            )
        return cls(
            kind="custom-tabulated",
            amplitude=1.0,
            theta_grid=th,
            phi_grid=ph,
            table=tabs,
        )

    @classmethod
    def from_csv(cls, path: str) -> "AngularDistribution":
        """Load a tabulated distribution from CSV.

        Required columns: ``theta_rad, phi_rad, lambda, n_mean``.  The
        (theta, phi) grid must be complete and rectangular for each helicity,
        helicity must be -1 or +1, and values must be finite and >= 0.  Any
        defect, an unreadable file included, raises DistributionDomainError.
        """
        rows: list[tuple[float, float, int, float]] = []
        try:
            handle = open(path, newline="", encoding="utf-8")
        except OSError as exc:
            raise DistributionDomainError(
                f"cannot read distribution CSV {path!r}: {exc}"
            ) from None
        with handle:
            reader = csv.DictReader(handle)
            expected = {"theta_rad", "phi_rad", "lambda", "n_mean"}
            names = set(reader.fieldnames or [])
            if names != expected:
                raise DistributionDomainError(
                    f"distribution CSV must have exactly the columns "
                    f"{sorted(expected)}, got {sorted(names)}"
                )
            for line_no, row in enumerate(reader, start=2):
                try:
                    theta = float(row["theta_rad"])
                    phi = float(row["phi_rad"])
                    lam_f = float(row["lambda"])
                    n = float(row["n_mean"])
                except (TypeError, ValueError) as exc:
                    raise DistributionDomainError(
                        f"line {line_no}: unparseable numeric field"
                    ) from exc
                if lam_f not in (-1.0, 1.0):
                    raise DistributionDomainError(
                        f"line {line_no}: helicity must be -1 or +1, got {lam_f!r}"
                    )
                if not (math.isfinite(theta) and math.isfinite(phi) and math.isfinite(n)):
                    raise DistributionDomainError(f"line {line_no}: non-finite value")
                if n < 0:
                    raise DistributionDomainError(
                        f"line {line_no}: negative mean photon number {n!r} at "
                        f"theta={theta!r}, phi={phi!r}, lambda={int(lam_f)}"
                    )
                rows.append((theta, phi, int(lam_f), n))
        if not rows:
            raise DistributionDomainError("distribution CSV has no data rows")
        thetas = sorted({r[0] for r in rows})
        phis = sorted({r[1] for r in rows})
        lookup: dict[tuple[float, float, int], float] = {}
        for theta, phi, lam, n in rows:
            key = (theta, phi, lam)
            if key in lookup:
                raise DistributionDomainError(
                    f"duplicate grid point theta={theta!r}, phi={phi!r}, lambda={lam}"
                )
            lookup[key] = n
        tables = []
        for lam in (-1, 1):
            tab = np.empty((len(thetas), len(phis)))
            for i, theta in enumerate(thetas):
                for j, phi in enumerate(phis):
                    try:
                        tab[i, j] = lookup[(theta, phi, lam)]
                    except KeyError:
                        raise DistributionDomainError(
                            f"incomplete grid: missing theta={theta!r}, "
                            f"phi={phi!r}, lambda={lam}"
                        ) from None
            tables.append(tab)
        return cls.from_table(thetas, phis, tables[0], tables[1])

    # -- evaluation ---------------------------------------------------------

    def scaled(self, factor: float) -> "AngularDistribution":
        """The same shape with amplitude multiplied by ``factor``."""
        if not math.isfinite(factor) or factor < 0:
            raise DistributionDomainError(
                f"scale factor must be finite and >= 0, got {factor!r}"
            )
        return AngularDistribution(
            kind=self.kind,
            amplitude=self.amplitude * factor,
            theta_grid=self.theta_grid,
            phi_grid=self.phi_grid,
            table=self.table,
        )

    def evaluate(self, theta, phi, lam: int):
        """N(theta, phi, lam); theta/phi may be broadcasting arrays."""
        return self.amplitude * self.shape(theta, phi, lam)

    def shape(self, theta, phi, lam: int):
        """Amplitude-free angular shape (see ``amplitude``)."""
        check_sigma(lam)
        if lam == 0:
            raise DistributionDomainError(
                "helicity must be -1 or +1 (no longitudinal photons)"
            )
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if self.kind == "isotropic":
            return np.ones(np.broadcast_shapes(theta.shape, phi.shape))
        if self.kind == "axisymmetric-cos2":
            return np.broadcast_to(
                np.cos(theta) ** 2, np.broadcast_shapes(theta.shape, phi.shape)
            ).copy()
        return self._interpolate(theta, phi, lam)

    def _interpolate(self, theta: np.ndarray, phi: np.ndarray, lam: int) -> np.ndarray:
        th_g: np.ndarray = self.theta_grid  # type: ignore[assignment]
        # extend phi grid by one wrapped column so interpolation is periodic
        ph_g: np.ndarray = self.phi_grid  # type: ignore[assignment]
        tab = self.table[0 if lam == -1 else 1]  # type: ignore[index]
        ph_ext = np.concatenate([ph_g, [ph_g[0] + _TWO_PI]])
        tab_ext = np.concatenate([tab, tab[:, :1]], axis=1)

        theta_b, phi_b = np.broadcast_arrays(theta, phi)
        th = np.clip(theta_b, th_g[0], th_g[-1])
        ph = np.mod(phi_b, _TWO_PI)
        ph = np.where(ph < ph_ext[0], ph + _TWO_PI, ph)

        i = np.clip(np.searchsorted(th_g, th, side="right") - 1, 0, th_g.size - 2)
        j = np.clip(np.searchsorted(ph_ext, ph, side="right") - 1, 0, ph_ext.size - 2)
        t = (th - th_g[i]) / (th_g[i + 1] - th_g[i])
        u = (ph - ph_ext[j]) / (ph_ext[j + 1] - ph_ext[j])
        return (
            (1 - t) * (1 - u) * tab_ext[i, j]
            + t * (1 - u) * tab_ext[i + 1, j]
            + (1 - t) * u * tab_ext[i, j + 1]
            + t * u * tab_ext[i + 1, j + 1]
        )


# ---------------------------------------------------------------------------
# mode-density modifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeDensityModifier:
    """Per-frequency, per-channel relative mode density.

    Kinds: ``vacuum`` (identity), ``planar-cavity`` (thin plates normal to
    the quantization axis, reflectivity ``r``), ``photonic-crystal`` (square
    root mode-density onset above a band edge on the configured channels).
    """

    kind: str
    reflectivity: float = 0.0
    omega_edge: float = 0.0
    curvature: float = 1.0
    gapped_channels: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.kind not in ("vacuum", "planar-cavity", "photonic-crystal"):
            raise DistributionDomainError(f"unknown mode-density kind {self.kind!r}")
        if self.kind == "planar-cavity":
            object.__setattr__(self, "reflectivity", float(self.reflectivity))
            if not (0.0 <= abs(self.reflectivity) < 1.0):
                raise DistributionDomainError(
                    f"cavity reflectivity must satisfy 0 <= |r| < 1, got {self.reflectivity!r}"
                )
        elif self.kind == "photonic-crystal":
            if not (math.isfinite(self.omega_edge) and self.omega_edge > 0):
                raise DistributionDomainError(
                    f"band edge frequency must be > 0, got {self.omega_edge!r}"
                )
            if not (math.isfinite(self.curvature) and self.curvature > 0):
                raise DistributionDomainError(
                    f"band curvature must be > 0, got {self.curvature!r}"
                )
            try:
                cube = float(self.curvature) ** 3
            except OverflowError:
                cube = math.inf
            if not 0.0 < cube < math.inf:  # the onset divides by it
                raise DistributionDomainError(
                    f"band curvature cubed must be a finite nonzero float, got {self.curvature!r}"
                )
            object.__setattr__(self, "gapped_channels", frozenset(map(int, self.gapped_channels)))
            if not self.gapped_channels:
                raise DistributionDomainError("at least one gapped channel required")
            if not self.gapped_channels <= {-1, 0, 1}:
                raise DistributionDomainError(
                    "gapped channels must be within {-1, 0, 1}, got "
                    f"{sorted(self.gapped_channels)}"
                )
            object.__setattr__(self, "omega_edge", float(self.omega_edge))
            object.__setattr__(self, "curvature", float(self.curvature))

    @classmethod
    def vacuum(cls) -> "ModeDensityModifier":
        return cls(kind="vacuum")

    @classmethod
    def planar_cavity(cls, reflectivity: float) -> "ModeDensityModifier":
        return cls(kind="planar-cavity", reflectivity=reflectivity)

    @classmethod
    def photonic_crystal(
        cls,
        omega_edge: float,
        curvature: float,
        gapped_channels: Iterable[int],
    ) -> "ModeDensityModifier":
        """Band-gap modifier: gapped channels get sqrt((w - w_e)/A^3) above
        the edge and 0 at or below it; other channels are unmodified.

        ``curvature`` is the band-curvature constant A in the user's units;
        it sets the scale of the onset, exactly as S sets the rate scale.
        """
        return cls(kind="photonic-crystal", omega_edge=omega_edge, curvature=curvature,
                   gapped_channels=gapped_channels)

    def relative_density(self, omega: float, sigma: int) -> float:
        check_sigma(sigma)
        if self.kind == "vacuum":
            return 1.0
        if self.kind == "planar-cavity":
            r = abs(self.reflectivity)
            if sigma == 0:
                return (1.0 + r) / (1.0 - r)
            return (1.0 - r) / (1.0 + r)
        # photonic crystal
        if sigma not in self.gapped_channels:
            return 1.0
        if omega <= self.omega_edge:
            return 0.0
        return math.sqrt((omega - self.omega_edge) / self.curvature**3)


# ---------------------------------------------------------------------------
# K matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class KMatrix:
    """3x3 overlap matrix K(sigma, sigma'), indices ordered (-1, 0, +1).

    ``evaluated_at`` is the photon frequency the matrix belongs to, or None
    for a frequency-flat environment; ``provenance`` records how it was
    obtained (``closed-form``, ``quadrature``, ``injected``).
    """

    entries: np.ndarray
    evaluated_at: Optional[float] = None
    provenance: str = "closed-form"

    def __post_init__(self) -> None:
        arr = np.asarray(self.entries, dtype=complex)
        if arr.shape != (3, 3):
            raise DistributionDomainError(
                f"K matrix must be 3x3, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise DistributionDomainError(f"K matrix entries must be finite, got {arr.tolist()}")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def from_diagonal(
        cls,
        diag: Sequence[float],
        evaluated_at: Optional[float] = None,
        provenance: str = "injected",
    ) -> "KMatrix":
        """Diagonal K from three values in (sigma = -1, 0, +1) order."""
        values = [float(v) for v in diag]
        if len(values) != 3:
            raise DistributionDomainError("diagonal K needs exactly 3 values")
        if any(v < 0 for v in values):
            raise DistributionDomainError(
                f"diagonal K entries must be >= 0, got {values}"
            )
        return cls(np.diag(values).astype(complex), evaluated_at, provenance)

    def entry(self, sigma: int, sigma_prime: int) -> complex:
        check_sigma(sigma)
        check_sigma(sigma_prime)
        return complex(self.entries[sigma + 1, sigma_prime + 1])

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()

    def hermitian_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def validate(self) -> None:
        if self.hermitian_defect() > _K_TOL:
            raise DistributionDomainError(
                f"K matrix is not Hermitian (defect {self.hermitian_defect():.3e})"
            )
        diag = self.entries.diagonal()
        if np.any(diag.real < -_K_TOL) or np.any(np.abs(diag.imag) > _K_TOL):
            raise DistributionDomainError(
                f"K diagonal must be real and >= 0, got {diag}"
            )


def k_spontaneous(mod: ModeDensityModifier, omega: float) -> KMatrix:
    """Spontaneous-decay K matrix at photon frequency ``omega``.

    Closed form: the free-space value (2/3) per diagonal channel times the
    modifier's relative density; off-diagonal entries vanish for every
    supported modifier (axial symmetry).
    """
    if not (math.isfinite(omega) and omega > 0):
        raise DistributionDomainError(
            f"transition frequency must be finite and > 0, got {omega!r}"
        )
    diag = [(2.0 / 3.0) * mod.relative_density(omega, s) for s in (-1, 0, 1)]
    return KMatrix(
        np.diag(diag).astype(complex), evaluated_at=omega, provenance="closed-form"
    )


def k_stimulated(
    dist: AngularDistribution,
    mod: ModeDensityModifier,
    omega: float,
    quad_order: int = 16,
) -> KMatrix:
    """Stimulated-transition K matrix by spherical quadrature.

    K(s, s') = sum_lam int N(theta, phi, lam) e^{i(s - s')phi}
               d1(lam, s')(theta) d1(lam, s)(theta) dOmega/4pi,
    evaluated on a Gauss-Legendre grid in cos(theta) (order ``quad_order``)
    times a uniform periodic rule in phi (4 x quad_order nodes, spectrally
    exact for the harmonics e^{i k phi}, |k| <= 2, that the integrand
    contains).  The mode-density modifier enters as the symmetric per-channel
    factor sqrt(m(s) m(s')), which reduces to the plain per-channel multiplier
    on the diagonal and keeps the matrix Hermitian and positive.
    """
    if quad_order < 4:
        raise QuadratureOrderError(
            f"quadrature order must be >= 4, got {quad_order}"
        )
    return _k_stimulated_any_order(dist, mod, omega, quad_order)


@lru_cache(maxsize=8)
def _grid(quad_order: int) -> tuple:
    """The K-independent quadrature grid of one order, as read-only arrays: the
    Gauss-Legendre weights, theta, phi, e^{i d phi} per d = -2..2 and
    d1(lam, s)(theta) per (lam, s)."""
    x, w = np.polynomial.legendre.leggauss(quad_order)
    theta = np.arccos(x)
    n_phi = 4 * quad_order
    phi = _TWO_PI * np.arange(n_phi) / n_phi
    harmonics = {d: np.exp(1j * d * phi) for d in range(-2, 3)}
    d1 = {(lam, s): wigner_d1(lam, s, theta) for lam in (-1, 1) for s in (-1, 0, 1)}
    for array in (w, theta, phi, *harmonics.values(), *d1.values()):
        array.flags.writeable = False
    return w, theta, phi, MappingProxyType(harmonics), MappingProxyType(d1)


def _k_stimulated_any_order(
    dist: AngularDistribution,
    mod: ModeDensityModifier,
    omega: float,
    quad_order: int,
) -> KMatrix:
    """Quadrature core without the order precondition (doctor's designed
    failure path drives this with deliberately insufficient orders)."""
    if not (math.isfinite(omega) and omega > 0):
        raise DistributionDomainError(
            f"transition frequency must be finite and > 0, got {omega!r}"
        )
    if quad_order < 1:
        raise QuadratureOrderError(f"quadrature order must be >= 1, got {quad_order}")
    w, theta, phi, harmonics, d1 = _grid(quad_order)
    n_phi = phi.size

    k = np.zeros((3, 3), dtype=complex)
    for lam_index, lam in enumerate((-1, 1)):
        samples = dist.shape(theta[:, np.newaxis], phi[np.newaxis, :], lam)
        samples = np.broadcast_to(samples, (quad_order, n_phi))
        if np.any(samples < 0):
            ti, pj = np.argwhere(samples < 0)[0]
            raise DistributionDomainError(
                f"negative mean photon number {samples[ti, pj]!r} at "
                f"theta={theta[ti]!r}, phi={phi[pj]!r}, lambda={lam}"
            )
        # azimuthal moments F_d(theta) = mean_phi N e^{i d phi}, d = s - s'
        if np.all(samples == samples[:, :1]):
            # the shape is exactly axisymmetric as sampled, so every d != 0
            # moment vanishes identically; writing literal zeros keeps the
            # helicity-changing K entries exact zeros instead of roundoff
            # dust, which downstream selection rules rely on
            zero = np.zeros(quad_order, dtype=complex)
            moments = {
                d: samples[:, 0].astype(complex) if d == 0 else zero
                for d in range(-2, 3)
            }
        else:
            moments = {d: samples @ harmonics[d] / n_phi for d in range(-2, 3)}
        for si, s in enumerate((-1, 0, 1)):
            for sj, sp in enumerate((-1, 0, 1)):
                integrand = d1[lam, sp] * d1[lam, s] * moments[s - sp]
                k[si, sj] += 0.5 * np.sum(w * integrand)
    scale = np.sqrt(
        [max(mod.relative_density(omega, s), 0.0) for s in (-1, 0, 1)]
    )
    k *= scale[:, np.newaxis] * scale[np.newaxis, :]
    k = 0.5 * (k + k.conj().T)  # symmetric rounding cleanup; exact Hermitian
    # amplitude is applied last so rescaling a distribution rescales every
    # entry with a single rounding (exact linearity for unit-amplitude shapes)
    k *= dist.amplitude
    return KMatrix(k, evaluated_at=omega, provenance="quadrature")


# ---------------------------------------------------------------------------
# self-check battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckEntry:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation < self.tolerance


@dataclass(frozen=True)
class SelfCheckReport:
    entries: tuple

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)


def quadrature_selfcheck(quad_order: int = 16, *, force: bool = False) -> SelfCheckReport:
    """Compare quadrature K matrices against closed forms.

    Checks the isotropic matrix against (2/3) * identity, the cos^2-theta
    matrix against diag(4/15, 2/15, 4/15), the sky-average orthogonality of
    the phase-carrying rotation functions, and stability under doubling the
    order.  ``force`` bypasses the order >= 4 precondition so diagnostic
    callers can demonstrate how an insufficient rule fails.
    """
    if quad_order < 4 and not force:
        raise QuadratureOrderError(
            f"quadrature order must be >= 4, got {quad_order}"
        )
    from .angular import D1_sky_average_defect

    vac = ModeDensityModifier.vacuum()
    iso = AngularDistribution.isotropic(1.0)
    cos2 = AngularDistribution.axisymmetric_cos2(1.0)

    k_iso = _k_stimulated_any_order(iso, vac, 1.0, quad_order)
    dev_iso = float(np.max(np.abs(k_iso.entries - (2.0 / 3.0) * np.eye(3))))

    k_cos2 = _k_stimulated_any_order(cos2, vac, 1.0, quad_order)
    target = np.diag([4.0 / 15.0, 2.0 / 15.0, 4.0 / 15.0])
    dev_cos2 = float(np.max(np.abs(k_cos2.entries - target)))

    dev_sky = D1_sky_average_defect(max(quad_order, 2))

    k_iso2 = _k_stimulated_any_order(iso, vac, 1.0, 2 * quad_order)
    k_cos22 = _k_stimulated_any_order(cos2, vac, 1.0, 2 * quad_order)
    dev_conv = max(
        float(np.max(np.abs(k_iso.entries - k_iso2.entries))),
        float(np.max(np.abs(k_cos2.entries - k_cos22.entries))),
    )

    return SelfCheckReport(
        entries=(
            CheckEntry("quadrature-isotropic-closed-form", dev_iso, 1e-12),
            CheckEntry("quadrature-cos2-closed-form", dev_cos2, 1e-12),
            CheckEntry("quadrature-sky-average-orthogonality", dev_sky, 1e-10),
            CheckEntry("quadrature-order-doubling-stability", dev_conv, 1e-10),
        )
    )
