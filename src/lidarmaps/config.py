"""Pipeline configuration: defaults, validation, and the flat key=value
file format used to record experiment settings.

Command-line flags override file values; the serialized form is canonical
so that serialize -> parse -> serialize is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .errors import ConfigError
from .extract import ExtractParams
from .grid import _check_finite, _check_positive
from .hydro import WaterParams

#: Raster products the pipeline can emit, in canonical output order.
OUTPUT_NAMES = ("map2d", "map3d", "dsm", "dtm", "ndhm", "water", "diff")


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the map pipeline, defaults matching the robust set."""

    gsd: float = 0.5
    slope_threshold: float = 1.0
    ht: float = 1.5
    k1: int = 7
    k2: int = 5
    rt: int = 4
    dt: float = 0.1
    k3: int = 5
    kernel_shape: str = "square"
    median_roof: int = 0
    map3d_source: str = "ndhm"
    water_window: int = 9
    water_sigma_k: float = 2.0
    water_min_area: float = 1000.0
    water_buffer: float = 5.0
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
