"""Core data types: waveform timing, transmit-array geometry, hop codes, detection setup.

All antenna positions and spacings are stored in units of the carrier
wavelength (dimensionless multiples of lambda); conversion to metres happens
only at I/O boundaries.  Times are seconds, frequencies Hz.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

C0 = 299792458.0  # speed of light (m/s)

# Boundary slack for geometry feasibility checks, in wavelength units.
FEASIBILITY_TOL = 1e-9


class ValidationError(ValueError):
    """A configuration or geometry invariant is violated."""


def _check_number(name: str, value) -> None:
    """Raise unless ``value`` is a real number; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name}: expected a number, got {value!r}")


def _check_numbers(name: str, values) -> None:
    """Raise unless ``values`` is a sequence of real numbers."""
    if not np.iterable(values):
        raise ValidationError(f"{name}: expected a list of numbers, got {values!r}")
    for value in values:
        _check_number(name, value)


@dataclass(frozen=True)
class RadarConfig:
    """Waveform and sampling constants of the frequency-hopping transmitter.

    Building or ``replace``-ing one raises ValidationError on a broken invariant.
    """

    f_c: float = 8.2e9       # carrier frequency (Hz)
    delta_f: float = 1e6     # hop frequency step (Hz)
    delta_t: float = 1e-6    # subpulse duration (s)
    Q: int = 6               # subpulses per pulse
    K: int = 8               # hop frequencies available
    T_P: float = 2e-5        # pulse repetition interval (s)
    f_s: float = 1.6e8       # sampling rate for direct waveform integration (Hz)
    f_max: float = 1e7       # half-range of the Doppler axis of interest (Hz)

    def __post_init__(self):
        for f in fields(self):
            _check_number(f.name, getattr(self, f.name))
        if not self.Q >= 1:
            raise ValidationError(f"Q: expected Q >= 1, got {self.Q}")
        if not self.K >= 1:
            raise ValidationError(f"K: expected K >= 1, got {self.K}")
        if not self.delta_t > 0:
            raise ValidationError(f"delta_t: expected delta_t > 0, got {self.delta_t}")
        if not self.delta_f > 0:
            raise ValidationError(f"delta_f: expected delta_f > 0, got {self.delta_f}")
        if not self.f_c > 0:
            raise ValidationError(f"f_c: expected f_c > 0, got {self.f_c}")
        if not self.f_s >= 2 * self.bandwidth:
            raise ValidationError(
                f"f_s: expected f_s >= 2*K*delta_f = {2 * self.bandwidth}, got {self.f_s}"
            )
        if not self.T_P >= self.T_w:
            raise ValidationError(f"T_P: expected T_P >= T_w = {self.T_w}, got {self.T_P}")
        if not self.f_max > 0:
            raise ValidationError(f"f_max: expected f_max > 0, got {self.f_max}")

    @property
    def bandwidth(self) -> float:
        """Occupied bandwidth K*delta_f (Hz)."""
        return float(self.K * self.delta_f)

    @property
    def T_w(self) -> float:
        """Pulse duration Q*delta_t (s)."""
        return self.Q * self.delta_t

    @property
    def wavelength(self) -> float:
        """Carrier wavelength (m)."""
        return C0 / self.f_c

    @property
    def hop_product(self) -> float:
        """delta_f * delta_t; hop codes are orthogonal when this is a positive integer."""
        return self.delta_f * self.delta_t


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def _check_angle(name: str, angle: float) -> None:
    """Raise unless |angle| <= pi/2, with 1e-12 rad of slack for roundoff."""
    if abs(angle) > 0.5 * math.pi + 1e-12:
        raise ValidationError(f"{name}: expected |angle| <= pi/2, got {angle}")


def _check_aperture(M_t: int, L: float) -> None:
    """Raise unless M_t >= 2 elements fit in budget L at lambda/2 spacings."""
    if M_t < 2:
        raise ValidationError(f"M_t: expected M_t >= 2, got {M_t}")
    if L < 0.5 * (M_t - 1) - FEASIBILITY_TOL:
        raise ValidationError(
            f"L: aperture {L} cannot fit {M_t - 1} spacings of at least lambda/2"
        )


@dataclass(frozen=True, eq=False)
class AntennaLayout:
    """Transmit-array geometry.

    ``d`` holds the M_t - 1 inter-element spacings in wavelength units,
    ``L`` the aperture budget (also in wavelengths): sum(d) <= L.
    The first element sits at position 0 and never moves.
    """

    d: np.ndarray
    L: float

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "d", d)
        if d.ndim != 1:
            raise ValidationError(f"d: expected a 1-D spacing vector, got shape {d.shape}")
        if d.size and not np.all(d >= 0.5 - FEASIBILITY_TOL):
            raise ValidationError(
                f"d: every spacing must be >= lambda/2, got min {d.min()}"
            )
        if d.size:
            # per-spacing slack alone would admit L up to M_t*tol short of
            # (M_t - 1)/2, which b_min, build_grid and the polytope reject
            _check_aperture(d.size + 1, self.L)
        if not float(d.sum()) <= self.L + FEASIBILITY_TOL:
            raise ValidationError(
                f"L: spacings sum to {d.sum()}, exceeding the aperture budget {self.L}"
            )

    @property
    def M_t(self) -> int:
        """Number of transmit elements."""
        return self.d.size + 1

    @property
    def x(self) -> np.ndarray:
        """Element positions [0, d_1, d_1+d_2, ...] in wavelength units."""
        return np.concatenate(([0.0], np.cumsum(self.d)))


@dataclass(frozen=True, eq=False)
class FhCode:
    """Hop-code matrix ``c`` of shape (M_t, Q) with entries in {1, ..., K}.

    Columns carry distinct entries so that simultaneous subpulses never share
    a hop frequency.
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=int)
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        if c.ndim != 2:
            raise ValidationError(f"c: expected a 2-D code matrix, got shape {c.shape}")
        if c.size and c.min() < 1:
            raise ValidationError(f"c: hop indices must be >= 1, got min {c.min()}")
        for q in range(c.shape[1]):
            col = c[:, q]
            if np.unique(col).size != col.size:
                raise ValidationError(f"c: column {q} repeats a hop frequency")

    @property
    def M_t(self) -> int:
        return self.c.shape[0]

    @property
    def Q(self) -> int:
        return self.c.shape[1]


@dataclass(frozen=True, eq=False)
class DetectionParams:
    """Monte Carlo detection setup."""

    M_r: int = 8                 # receive elements (scalar array gain)
    P_fa: float = 1e-4           # false-alarm probability
    snr_grid: tuple = tuple(range(-20, 1, 2))  # per-element SNR points (dB)
    trials: int = 1_000_000      # noise-only calibration trials (and trials per SNR)

    def __post_init__(self):
        for name in ("M_r", "P_fa", "trials"):
            _check_number(name, getattr(self, name))
        _check_numbers("snr_grid", self.snr_grid)
        object.__setattr__(self, "snr_grid", tuple(float(s) for s in self.snr_grid))
        if not self.M_r >= 1:
            raise ValidationError(f"M_r: expected M_r >= 1, got {self.M_r}")
        if not 0.0 < self.P_fa < 1.0:
            raise ValidationError(f"P_fa: expected 0 < P_fa < 1, got {self.P_fa}")
        if not len(self.snr_grid) >= 1:
            raise ValidationError("snr_grid: expected at least one SNR point")
        if not self.trials >= 10.0 / self.P_fa:
            raise ValidationError(
                f"trials: expected trials >= 10/P_fa = {10.0 / self.P_fa:.0f} "
                f"for threshold calibration, got {self.trials}"
            )


def _check_code_fit(code: FhCode, cfg: RadarConfig) -> None:
    """Raise unless ``code`` has cfg.Q columns and hop indices up to cfg.K."""
    if code.Q != cfg.Q:
        raise ValidationError(f"c: expected {cfg.Q} code columns, got {code.Q}")
    if code.c.max(initial=1) > cfg.K:
        raise ValidationError(f"c: hop index {code.c.max()} exceeds K = {cfg.K}")


def generate_fh_code(cfg: RadarConfig, M_t: int, seed: int) -> FhCode:
    """Draw a random hop code: each column is a distinct-entry sample of {1..K}.

    Deterministic in ``seed`` (PCG64 generator, one column permutation per
    subpulse).
    """
    if not M_t >= 1:
        raise ValidationError(f"M_t: expected M_t >= 1, got {M_t}")
    if M_t > cfg.K:
        raise ValidationError(
            f"M_t: cannot assign {M_t} distinct hops per subpulse with K = {cfg.K}"
        )
    rng = np.random.default_rng(seed)
    cols = [rng.permutation(cfg.K)[:M_t] + 1 for _ in range(cfg.Q)]
    return FhCode(c=np.stack(cols, axis=1))


def equidistant_layout(M_t: int) -> AntennaLayout:
    """Half-wavelength uniform array; the aperture budget equals its span."""
    L = 0.5 * (M_t - 1)
    _check_aperture(M_t, L)
    return AntennaLayout(d=np.full(M_t - 1, 0.5), L=L)


def random_feasible_layout(M_t: int, L: float,
                           seed: int | np.random.Generator) -> AntennaLayout:
    """Uniform random draw from {d >= 1/2 componentwise, sum(d) <= L}.

    The slack above the half-wavelength floor is distributed via sorted-uniform
    spacings, which samples the constraint simplex uniformly.  Deterministic in
    ``seed``; a Generator passed as ``seed`` is used as is, so the draw
    continues its stream (M_t - 1 uniforms per call).
    """
    _check_aperture(M_t, L)
    slack = L - 0.5 * (M_t - 1)
    rng = np.random.default_rng(seed)
    z = np.sort(rng.uniform(0.0, 1.0, size=M_t - 1))
    excess = max(slack, 0.0) * np.diff(np.concatenate(([0.0], z)))
    return AntennaLayout(d=0.5 + excess, L=L)


# ---------------------------------------------------------------------------
# JSON configuration I/O.
#
# A configuration document is a flat JSON object whose keys match the field
# names of RadarConfig / AntennaLayout / DetectionParams.  Frequencies are Hz,
# times seconds; "d" and "L" are multiples of the carrier wavelength.
# ---------------------------------------------------------------------------

_RADAR_KEYS = {f.name for f in fields(RadarConfig)}
_LAYOUT_KEYS = {"M_t", "d", "L"}
_DETECTION_KEYS = {f.name for f in fields(DetectionParams)}
# derived values a document may state as checks: key -> (attribute, formula, rel. tol.)
_DERIVED = {"lambda": ("wavelength", "c0/f_c", 1e-6),
            "bandwidth": ("bandwidth", "K*delta_f", 1e-12),
            "T_w": ("T_w", "T_w = Q*delta_t", 1e-12)}


def parse_config(doc: dict) -> tuple[RadarConfig, AntennaLayout | None, DetectionParams]:
    """Build validated objects from a flat configuration dictionary.

    Unknown keys are rejected.  A layout is returned only when the document
    carries geometry fields; "d" may be omitted to leave the spacings to a
    layout constructor (M_t and L must then still be present).
    """
    unknown = set(doc) - _RADAR_KEYS - _LAYOUT_KEYS - _DETECTION_KEYS - _DERIVED.keys()
    if unknown:
        raise ValidationError(f"unknown configuration keys: {sorted(unknown)}")

    radar_kwargs = {k: doc[k] for k in _RADAR_KEYS if k in doc}
    cfg = RadarConfig(**radar_kwargs)
    for key, (attr, formula, rel) in _DERIVED.items():
        if doc.get(key) is None:
            continue
        _check_number(key, doc[key])
        want = getattr(cfg, attr)
        if not _close(doc[key], want, rel):
            raise ValidationError(f"{key}: expected {formula} = {want}, got {doc[key]}")

    layout = None
    if "M_t" in doc or "d" in doc or "L" in doc:
        if "L" not in doc:
            raise ValidationError("L: required whenever layout fields are present")
        for key in ("M_t", "L"):
            if key in doc:
                _check_number(key, doc[key])
        L = float(doc["L"])
        if "d" in doc:
            _check_numbers("d", doc["d"])
            d = np.asarray(doc["d"], dtype=float)
            if "M_t" in doc and int(doc["M_t"]) != d.size + 1:
                raise ValidationError(
                    f"M_t: {doc['M_t']} does not match {d.size} spacings"
                )
            layout = AntennaLayout(d=d, L=L)
        else:
            if "M_t" not in doc:
                raise ValidationError("M_t: required when d is omitted")
            M_t = int(doc["M_t"])
            _check_aperture(M_t, L)
            layout = AntennaLayout(d=np.full(M_t - 1, 0.5), L=L)

    det_kwargs = {k: doc[k] for k in _DETECTION_KEYS if k in doc}
    det = DetectionParams(**det_kwargs)
    return cfg, layout, det


def load_config(path: str | Path) -> tuple[RadarConfig, AntennaLayout | None, DetectionParams]:
    """Parse a JSON configuration file.  See :func:`parse_config`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("configuration document must be a JSON object")
    return parse_config(doc)


def config_to_dict(cfg: RadarConfig, layout: AntennaLayout | None = None,
                   det: DetectionParams | None = None) -> dict:
    """Flat dictionary form of the configuration, suitable for JSON dumps."""
    doc = {
        "f_c": cfg.f_c, "bandwidth": cfg.bandwidth, "delta_f": cfg.delta_f,
        "delta_t": cfg.delta_t, "Q": cfg.Q, "K": cfg.K, "T_P": cfg.T_P,
        "f_s": cfg.f_s, "f_max": cfg.f_max, "T_w": cfg.T_w,
    }
    if layout is not None:
        doc.update({"M_t": layout.M_t, "d": [float(v) for v in layout.d],
                    "L": layout.L})
    if det is not None:
        doc.update({"M_r": det.M_r, "P_fa": det.P_fa,
                    "snr_grid": list(det.snr_grid), "trials": det.trials})
    return doc


def save_fh_code(code: FhCode, path: str | Path) -> None:
    """Store the hop-code matrix as a JSON integer matrix."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[int(v) for v in row] for row in code.c], fh)
        fh.write("\n")


def load_fh_code(path: str | Path, cfg: RadarConfig | None = None) -> FhCode:
    """Load a hop-code matrix from JSON; validate ranges against ``cfg`` if given."""
    with open(path, "r", encoding="utf-8") as fh:
        mat = json.load(fh)
    code = FhCode(c=np.asarray(mat, dtype=int))
    if cfg is not None:
        _check_code_fit(code, cfg)
    return code
