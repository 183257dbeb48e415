"""Pipeline configuration: every setting's default and validator, and the
flat key=value file format used to record experiment settings.

Command-line flags override file values; the serialized form is canonical
so that serialize -> parse -> serialize is the identity.  This module
loads no numpy, so the CLI parses and validates a run's settings before
any stage loads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

from .errors import BadKernel, ConfigError

#: Raster products the pipeline can emit, in canonical output order.
OUTPUT_NAMES = ("map2d", "map3d", "dsm", "dtm", "ndhm", "water", "diff")

#: `eval`'s default tile edge in meters.
DEFAULT_TILE_SIZE = 500.0


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------


def _is_number(v, kind=numbers.Real) -> bool:
    return isinstance(v, kind) and not isinstance(v, bool)  # True is an int


def _is_finite(v) -> bool:
    """Whether the real `v` has a finite float64 value; an int too large
    for a float has none."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_kernel(k: int, name: str = "kernel size") -> int:
    """Validate an odd window size; `name` opens the BadKernel message."""
    if not _is_number(k, numbers.Integral) or k < 1 or k % 2 == 0:
        raise BadKernel(f"{name} must be a positive odd integer, got {k!r}")
    return int(k)


def _check_shape_name(shape: str) -> str:
    if shape not in ("square", "diamond"):
        raise BadKernel(f"kernel shape must be 'square' or 'diamond', got {shape!r}")
    return shape


def _check_finite(v, name: str) -> None:
    """Validate a finite real number."""
    if not (_is_number(v) and _is_finite(v)):
        raise ConfigError(f"{name} must be a finite number, got {v!r}")


def _check_positive(v, name: str, or_zero: bool = False) -> None:
    """Validate a finite number above zero, or at zero with `or_zero`."""
    if not (_is_number(v) and (0 <= v if or_zero else 0 < v) and _is_finite(v)):
        sign = "non-negative" if or_zero else "positive"
        raise ConfigError(f"{name} must be finite and {sign}, got {v!r}")


def _check_count(v, name: str) -> None:
    """Validate an integer of at least one."""
    if not _is_number(v, numbers.Integral) or v < 1:
        raise ConfigError(f"{name} must be a positive integer, got {v!r}")


# ---------------------------------------------------------------------------
# the stages' settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractParams:
    """Extraction thresholds and kernel sizes (meters for ht, cells for k*)."""

    ht: float = 1.5
    k1: int = 7
    k2: int = 5
    rt: int = 4
    dt: float = 0.1
    k3: int = 5
    kernel_shape: str = "square"
    median_roof: int = 0  # 0 = off, else odd window size
    map3d_source: str = "ndhm"

    def __post_init__(self):
        for k in ("k1", "k2", "k3"):
            _check_kernel(getattr(self, k), k)
        _check_positive(self.ht, "ht")
        _check_count(self.rt, "rt")
        if not (_is_number(self.dt) and 0.0 <= self.dt <= 1.0):
            raise ConfigError(f"dt must lie in [0, 1], got {self.dt!r}")
        _check_shape_name(self.kernel_shape)
        if not (_is_number(self.median_roof, numbers.Integral) and self.median_roof == 0):
            _check_kernel(self.median_roof, "median_roof")
        if self.map3d_source not in ("ndhm", "dsm"):
            raise ConfigError(f"map3d_source must be ndhm or dsm, got {self.map3d_source!r}")


#: The settings `sweep` can vary: every ExtractParams field, since the
#: surface stages that a sweep shares between its values read none of them.
SWEEPABLE = tuple(f.name for f in fields(ExtractParams))


@dataclass(frozen=True)
class WaterParams:
    """Water settings, validated under their config keys (water_window, ...)."""

    window: int = 9
    sigma_k: float = 2.0
    min_area: float = 1000.0  # m^2
    buffer: float = 5.0  # m

    def __post_init__(self):
        _check_kernel(self.window, "water_window")
        _check_positive(self.sigma_k, "water_sigma_k")
        _check_positive(self.min_area, "water_min_area")
        _check_positive(self.buffer, "water_buffer", or_zero=True)


# ---------------------------------------------------------------------------
# the pipeline's settings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the map pipeline, defaults matching the robust set.

    The extraction and water defaults are those of the owning types."""

    gsd: float = 0.5
    slope_threshold: float = 1.0
    ht: float = ExtractParams.ht
    k1: int = ExtractParams.k1
    k2: int = ExtractParams.k2
    rt: int = ExtractParams.rt
    dt: float = ExtractParams.dt
    k3: int = ExtractParams.k3
    kernel_shape: str = ExtractParams.kernel_shape
    median_roof: int = ExtractParams.median_roof
    map3d_source: str = ExtractParams.map3d_source
    water_window: int = WaterParams.window
    water_sigma_k: float = WaterParams.sigma_k
    water_min_area: float = WaterParams.min_area
    water_buffer: float = WaterParams.buffer
    window_size_m: float = 1000.0
    overlap_m: float = 100.0
    outputs: tuple[str, ...] = ("map2d", "map3d")

    def __post_init__(self) -> None:
        for name in ("gsd", "slope_threshold", "window_size_m"):
            _check_positive(getattr(self, name), name)
        # The extraction and water settings are validated by the one type
        # that owns each of them.
        self.extract_params()
        self.water_params()
        _check_finite(self.overlap_m, "overlap_m")
        min_overlap = (self.k1 + self.water_window) * self.gsd
        if self.overlap_m < min_overlap:
            raise ConfigError(
                f"overlap_m {self.overlap_m} is below the stage support "
                f"(k1 + water_window)*gsd = {min_overlap}"
            )
        bad = [o for o in self.outputs if o not in OUTPUT_NAMES]
        if bad:
            raise ConfigError(f"unknown outputs {bad}; valid: {list(OUTPUT_NAMES)}")
        canon = tuple(o for o in OUTPUT_NAMES if o in self.outputs)
        if canon != self.outputs:
            object.__setattr__(self, "outputs", canon)

    def extract_params(self) -> ExtractParams:
        """The extraction settings: every ExtractParams field, by name."""
        return ExtractParams(**{f.name: getattr(self, f.name) for f in fields(ExtractParams)})

    def water_params(self) -> WaterParams:
        """The water settings: every WaterParams field, as water_<field>."""
        return WaterParams(**{f.name: getattr(self, f"water_{f.name}") for f in fields(WaterParams)})


_INT_FIELDS = frozenset(f.name for f in fields(PipelineConfig) if type(f.default) is int)
_STR_FIELDS = frozenset(f.name for f in fields(PipelineConfig) if type(f.default) is str)


def _coerce(name: str, raw: str) -> object:
    raw = raw.strip()
    if name == "outputs":
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        return tuple(parts)
    if name in _STR_FIELDS:
        return raw
    try:
        if name in _INT_FIELDS:
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def parse_config(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    """Parse key=value lines ('#' starts a comment) on top of `base`."""
    known = {f.name for f in fields(PipelineConfig)}
    updates: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        updates[key] = _coerce(key, raw)
    base = base if base is not None else PipelineConfig()
    return replace(base, **updates)


def load_config(path: str, base: PipelineConfig | None = None) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, base)


def _fmt_value(v: object) -> str:
    if isinstance(v, tuple):
        return ",".join(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(cfg: PipelineConfig) -> str:
    lines = [f"{f.name}={_fmt_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: PipelineConfig, overrides: dict[str, object]) -> PipelineConfig:
    """Apply non-None CLI overrides; values are already typed."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    if not updates:
        return cfg
    return replace(cfg, **updates)
