"""Experiment runner: config parsing, the three numerical experiments, and
CSV emission.

Config files are flat INI text; every key has a built-in default matching
the reference scenario, so `nfradar validate-spa` with no config reproduces
the standard validation run. Output CSVs carry the effective configuration
as a leading comment block and contain nothing nondeterministic, so a rerun
with the same config and seed is byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .em_exact import QuadratureSpec, exact_received_signal
from .em_spa import spa_received_signal
from .estimator import (ModelKind, ambiguity, crb, crb_stencil,
                        half_power_width)
from .scenario import Scenario
from .signal import (DEFAULT_EXACT_CARRIER_CEILING, WaveformRef, add_awgn,
                     synthesize)

EXPERIMENTS = ("validate-spa", "ambiguity", "crb")
SWEEPABLE = ("bandwidth", "carrier_freq", "range")
# largest range grid a run may allocate (the default grid has 12,329 points)
MAX_GRID_POINTS = 1_000_000

_SCENARIO_DEFAULTS = (
    ("n_antennas", "13"),
    ("spacing", "0.125"),
    ("antenna_gain_factor", "1.0"),
    ("bandwidth", "100000000.0"),
    ("carrier_freq", "77000000000.0"),
    ("plate_width", "0.8"),
    ("plate_height", "1.75"),
    ("range", "4.0"),
    ("free_space_impedance", "376.730313668"),
    ("min_range_wavelengths", "100.0"),
)

_EXPERIMENT_DEFAULTS = (
    ("model", "auto"),
    ("coherence", "coherent"),
    ("snr", "1.0"),
    ("snr_normalization", "total"),
    ("validation_carrier", "10000000000.0"),
    ("exact_carrier_ceiling", repr(DEFAULT_EXACT_CARRIER_CEILING)),
    ("quad_points_per_wavelength", "10.0"),
)

_GRID_DEFAULTS = (("min", "2.0"), ("max", "8.0"), ("step", "auto"))
_NOISE_DEFAULTS = (("noise_power", "0.0"), ("seed", "0"))
_OUTPUT_DEFAULTS = (("path", ""),)

_SECTIONS = {
    "scenario": _SCENARIO_DEFAULTS,
    "experiment": _EXPERIMENT_DEFAULTS,
    "sweep": (),
    "grid": _GRID_DEFAULTS,
    "noise": _NOISE_DEFAULTS,
    "output": _OUTPUT_DEFAULTS,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (defaults filled)."""

    scenario: Scenario
    experiment: str
    sweep: tuple[tuple[str, tuple[float, ...]], ...]
    grid_min: float
    grid_max: float
    grid_step: float | None  # None means lambda/8 at the operating carrier
    noise_power: float
    seed: int
    output_path: str
    model: str
    coherence: str
    snr: float
    snr_normalization: str
    validation_carrier: float
    exact_carrier_ceiling: float
    quad_points_per_wavelength: float
    slow: bool = False


def _parser_with_defaults() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None)
    for section, defaults in _SECTIONS.items():
        cp.add_section(section)
        for key, value in defaults:
            cp.set(section, key, value)
    return cp


def parse_config(path: str | None = None,
                 overrides: tuple[str, ...] = (),
                 experiment: str = "ambiguity",
                 slow: bool = False,
                 text: str | None = None) -> ExperimentConfig:
    """Builds an ExperimentConfig from an optional INI file plus
    section.key=value override strings (later wins)."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    cp = _parser_with_defaults()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    if text is not None:
        cp.read_string(text)
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ValueError(f"override {item!r} is not section.key=value")
        section, key = (part.strip() for part in target.split(".", 1))
        if not cp.has_section(section):
            raise ValueError(f"unknown config section {section!r}")
        cp.set(section, key, value.strip())

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section {section!r}")
        known = {k for k, _ in _SECTIONS[section]}
        if section == "sweep":
            continue
        for key in cp.options(section):
            if key not in known:
                raise ValueError(
                    f"unknown key {key!r} in section [{section}]")

    sc = cp["scenario"]
    scenario = Scenario(
        n_antennas=sc.getint("n_antennas"),
        spacing=sc.getfloat("spacing"),
        antenna_gain_factor=sc.getfloat("antenna_gain_factor"),
        bandwidth=sc.getfloat("bandwidth"),
        carrier_freq=sc.getfloat("carrier_freq"),
        plate_width=sc.getfloat("plate_width"),
        plate_height=sc.getfloat("plate_height"),
        range=sc.getfloat("range"),
        free_space_impedance=sc.getfloat("free_space_impedance"),
        min_range_wavelengths=sc.getfloat("min_range_wavelengths"),
    )
    # Scenario accepts these at 0 for library use; no experiment does
    for key in ("plate_width", "plate_height", "antenna_gain_factor"):
        if getattr(scenario, key) == 0:
            raise ValueError(
                f"scenario.{key} = 0 gives an identically zero return")

    sweep = []
    for key in cp.options("sweep"):
        if key not in SWEEPABLE:
            raise ValueError(
                f"sweep parameter {key!r} is not a sweepable Scenario field "
                f"(choose from {', '.join(SWEEPABLE)})")
        values = tuple(float(v) for v in cp.get("sweep", key).split(","))
        if not all(np.isfinite(values)):
            raise ValueError(f"sweep.{key} = {cp.get('sweep', key)!r} "
                             "must be finite")
        sweep.append((key, values))
    sweep.sort()  # deterministic order regardless of file order

    grid_min = _finite(cp, "grid", "min")
    grid_max = _finite(cp, "grid", "max")
    if not grid_min < grid_max:
        raise ValueError("grid min must be below grid max")
    if cp.get("grid", "step") == "auto":
        grid_step = None
    else:
        grid_step = _finite(cp, "grid", "step")
        if grid_step <= 0:
            raise ValueError("grid step must be positive")
        _grid_size(grid_min, grid_max, grid_step)

    ex = cp["experiment"]
    model = ex.get("model")
    if model not in ("auto", "full", "partial"):
        raise ValueError(f"unknown model {model!r}")
    if experiment == "crb" and model == "partial":
        raise ValueError(
            "experiment.model = partial: crb needs the full model. The "
            "partial template lacks the received gains' Fresnel phase, so "
            "its objective peaks off the true range and its curvature "
            "there is no bound")
    coherence = ex.get("coherence")
    if coherence not in ("coherent", "incoherent"):
        raise ValueError(f"unknown coherence {coherence!r}")
    snr_norm = ex.get("snr_normalization")
    if snr_norm not in ("total", "per_pair"):
        raise ValueError(f"unknown snr_normalization {snr_norm!r}")
    snr = ex.getfloat("snr")
    if not snr > 0:
        raise ValueError(f"experiment.snr = {snr!r} must be positive")
    points = _finite(cp, "experiment", "quad_points_per_wavelength")
    try:
        QuadratureSpec(points_per_wavelength=points)
    except ValueError as err:
        raise ValueError(
            f"experiment.quad_points_per_wavelength = {points!r}: {err}"
        ) from None
    validation_carrier = _finite(cp, "experiment", "validation_carrier")
    ceiling = ex.getfloat("exact_carrier_ceiling")  # inf: no ceiling
    for key, value in (("validation_carrier", validation_carrier),
                       ("exact_carrier_ceiling", ceiling)):
        if not value > 0:
            raise ValueError(f"experiment.{key} = {value!r} must be positive")
    noise_power = _finite(cp, "noise", "noise_power")
    if noise_power < 0:
        raise ValueError(
            f"noise.noise_power = {noise_power!r} must be nonnegative")
    seed = cp.getint("noise", "seed")
    if seed < 0:
        raise ValueError(f"noise.seed = {seed} must be nonnegative")

    cfg = ExperimentConfig(
        scenario=scenario,
        experiment=experiment,
        sweep=tuple(sweep),
        grid_min=grid_min,
        grid_max=grid_max,
        grid_step=grid_step,
        noise_power=noise_power,
        seed=seed,
        output_path=cp.get("output", "path"),
        model=model,
        coherence=coherence,
        snr=snr,
        snr_normalization=snr_norm,
        validation_carrier=validation_carrier,
        exact_carrier_ceiling=ceiling,
        quad_points_per_wavelength=points,
        slow=slow,
    )
    _check_scenes(cfg)
    return cfg


def _finite(cp: configparser.ConfigParser, section: str, key: str) -> float:
    value = cp.getfloat(section, key)
    if not np.isfinite(value):
        raise ValueError(f"{section}.{key} = {value!r} must be finite")
    return value


def emit_config(cfg: ExperimentConfig) -> str:
    """Effective configuration as INI text; parse_config(text=...) of the
    result reproduces cfg exactly (round-trip idempotency)."""
    sc = cfg.scenario
    lines = ["[scenario]"]
    lines.append(f"n_antennas = {sc.n_antennas}")
    for name in ("spacing", "antenna_gain_factor", "bandwidth",
                 "carrier_freq", "plate_width", "plate_height", "range",
                 "free_space_impedance", "min_range_wavelengths"):
        lines.append(f"{name} = {getattr(sc, name)!r}")
    lines.append("")
    lines.append("[experiment]")
    lines.append(f"model = {cfg.model}")
    lines.append(f"coherence = {cfg.coherence}")
    lines.append(f"snr = {cfg.snr!r}")
    lines.append(f"snr_normalization = {cfg.snr_normalization}")
    lines.append(f"validation_carrier = {cfg.validation_carrier!r}")
    lines.append(f"exact_carrier_ceiling = {cfg.exact_carrier_ceiling!r}")
    lines.append(
        f"quad_points_per_wavelength = {cfg.quad_points_per_wavelength!r}")
    lines.append("")
    lines.append("[sweep]")
    for name, values in cfg.sweep:
        lines.append(f"{name} = {','.join(repr(v) for v in values)}")
    lines.append("")
    lines.append("[grid]")
    lines.append(f"min = {cfg.grid_min!r}")
    lines.append(f"max = {cfg.grid_max!r}")
    step = "auto" if cfg.grid_step is None else repr(cfg.grid_step)
    lines.append(f"step = {step}")
    lines.append("")
    lines.append("[noise]")
    lines.append(f"noise_power = {cfg.noise_power!r}")
    lines.append(f"seed = {cfg.seed}")
    lines.append("")
    lines.append("[output]")
    lines.append(f"path = {cfg.output_path}")
    return "\n".join(lines) + "\n"


def _grid_size(grid_min: float, grid_max: float, step: float) -> int:
    """Range grid point count, refused above MAX_GRID_POINTS."""
    n = np.floor((grid_max - grid_min) / step + 1e-9) + 1
    if not n <= MAX_GRID_POINTS:
        raise ValueError(
            f"range grid of {n:g} points exceeds {MAX_GRID_POINTS}")
    return int(n)


def _range_grid(cfg: ExperimentConfig, scenario: Scenario) -> np.ndarray:
    step = cfg.grid_step
    if step is None:
        step = scenario.wavelength / 8.0
    n = _grid_size(cfg.grid_min, cfg.grid_max, step)
    return cfg.grid_min + step * np.arange(n)


def _scene(base: Scenario, label: str, **changes) -> Scenario:
    """base with the given fields changed; a value the Scenario refuses
    raises a ValueError that names label."""
    try:
        return dataclasses.replace(base, **changes)
    except ValueError as err:
        raise ValueError(f"{label}: {err}") from None


def _validation_scene(cfg: ExperimentConfig) -> Scenario:
    """validate-spa's scene: the configured one, its carrier lowered to the
    validation carrier unless slow mode is on."""
    carrier = cfg.validation_carrier
    if cfg.slow or cfg.scenario.carrier_freq <= carrier:
        return cfg.scenario
    return _scene(cfg.scenario, f"experiment.validation_carrier = {carrier!r}",
                  carrier_freq=carrier)


def _ambiguity_scenes(cfg: ExperimentConfig):
    """(param, value, scene) per value of ambiguity's first sweep
    parameter, or of the scene's own range when nothing is swept."""
    if cfg.sweep:
        param, values = cfg.sweep[0]
    else:
        param, values = "range", (cfg.scenario.range,)
    return [(param, value, _scene(cfg.scenario, f"sweep.{param} = {value!r}",
                                  **{param: value}))
            for value in values]


def _crb_lines(cfg: ExperimentConfig):
    """(carrier, bandwidth, scene) per crb line, in row order."""
    sweep = dict(cfg.sweep)
    base = cfg.scenario
    lines = []
    for fc in sorted(sweep.get("carrier_freq", (base.carrier_freq,))):
        for bw in sorted(sweep.get("bandwidth", (base.bandwidth,))):
            label = ", ".join(
                f"sweep.{key} = {value!r}"
                for key, value in (("carrier_freq", fc), ("bandwidth", bw))
                if key in sweep)
            lines.append((fc, bw, _scene(base, label, carrier_freq=fc,
                                         bandwidth=bw)))
    return lines


def _check_scenes(cfg: ExperimentConfig) -> None:
    """Builds every scene the experiment's runner builds, so that a value
    the Scenario refuses fails at parse time with its key named. For
    ambiguity it also builds each scene's range grid and checks that it
    lies above the validity floor and covers the scene's true range. For
    crb it checks the stencil of the smallest range on every line, which
    bounds every other range's stencil from below."""
    if cfg.experiment == "validate-spa":
        _validation_scene(cfg)
    elif cfg.experiment == "ambiguity":
        for param, value, scene in _ambiguity_scenes(cfg):
            at = f" at sweep.{param} = {value!r}" if cfg.sweep else ""
            grid = _range_grid(cfg, scene)
            floor = scene.min_range_wavelengths * scene.wavelength
            if not (grid[0] > 0 and grid[0] >= floor):
                raise ValueError(
                    f"grid.min = {cfg.grid_min!r} lies below the validity "
                    f"floor {floor:g} m ({scene.min_range_wavelengths:g} "
                    f"wavelengths){at}")
            if not grid[0] <= scene.range <= grid[-1]:
                key = f"sweep.{param}" if param == "range" and cfg.sweep \
                    else "scenario.range"
                raise ValueError(
                    f"{key} = {scene.range!r} lies outside the range grid "
                    f"[{grid[0]:g}, {grid[-1]:g}] m (grid.min, grid.max)")
    else:
        ranges = dict(cfg.sweep).get("range")
        key, lowest = (("sweep.range", min(ranges)) if ranges
                       else ("grid.min", cfg.grid_min))
        for fc, bw, scene in _crb_lines(cfg):
            try:
                crb_stencil(scene, lowest)
            except ValueError as err:
                raise ValueError(
                    f"{key} = {lowest!r}: crb stencil at carrier {fc:g} Hz, "
                    f"bandwidth {bw:g} Hz: {err}") from None


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def run_validate_spa(cfg: ExperimentConfig):
    """Exact-vs-closed-form comparison, one row per pair.

    Uses the constant waveform and, unless slow mode is on, replaces the
    configured carrier with the cheaper validation carrier. Where the
    specular point is off the plate the closed form is exactly 0, and the
    spa_db, amp_err_db and phase_err_deg cells stay empty.
    """
    scenario = _validation_scene(cfg)
    ceiling = np.inf if cfg.slow else cfg.exact_carrier_ceiling
    if scenario.carrier_freq > ceiling:
        raise ValueError(
            f"exact backend refused at carrier {scenario.carrier_freq:g} Hz "
            "without --slow")
    quad = QuadratureSpec(
        points_per_wavelength=cfg.quad_points_per_wavelength)
    waveform = WaveformRef.constant()
    columns = ["tx", "rx", "exact_db", "spa_db", "amp_err_db",
               "phase_err_deg"]
    rows = []
    exact = exact_received_signal(scenario, 0.0, waveform, quad)
    spa = spa_received_signal(scenario, 0.0, waveform).tolist()
    for i, (u_exact, u_spa) in enumerate(zip(exact, spa)):
        tx, rx = divmod(i, scenario.n_antennas)
        exact_db = 20.0 * np.log10(abs(u_exact))
        if u_spa == 0:
            # parse_config rejects the other zero-return scenes
            rows.append((tx, rx, exact_db, "", "", ""))
            continue
        spa_db = 20.0 * np.log10(abs(u_spa))
        rows.append((tx, rx, exact_db, spa_db, spa_db - exact_db,
                     np.angle(u_spa / u_exact, deg=True)))
    return columns, rows


def run_ambiguity(cfg: ExperimentConfig):
    """Ambiguity curves over the range grid, one sweep parameter at a time,
    plus a summary row (width, argmax) per sweep value. noise_power > 0
    perturbs the received traces with the configured seed (the same root
    seed for every sweep value)."""
    if len(cfg.sweep) > 1:
        raise ValueError(
            "ambiguity sweeps one parameter at a time; got "
            + ", ".join(name for name, _ in cfg.sweep))
    kind = ModelKind.parse(cfg.model if cfg.model != "auto" else "partial")
    columns = ["row_kind", "sweep_param", "sweep_value", "r_hat", "value",
               "width", "argmax"]
    rows = []
    for param, value, scenario in _ambiguity_scenes(cfg):
        grid = _range_grid(cfg, scenario)
        received = synthesize(scenario)
        if cfg.noise_power > 0:
            received = add_awgn(received, cfg.noise_power, cfg.seed)
        curve = ambiguity(scenario, scenario.range, grid, kind,
                          cfg.coherence, received=received)
        for r_hat, v in zip(curve.grid, curve.values):
            rows.append(("curve", param, value, r_hat, v, "", ""))
        try:
            width = half_power_width(curve)
        except ValueError:
            # grids too narrow (or too noisy) to bracket the half-power
            # crossings still produce valid curve rows; the summary just
            # has no width to report
            width = ""
        est = float(curve.grid[int(np.argmax(curve.values))])
        rows.append(("summary", param, value, "", "", width, est))
    return columns, rows


def run_crb(cfg: ExperimentConfig):
    """Bound vs range per (carrier, bandwidth) line, one crb call per line;
    rows sorted."""
    kind = ModelKind.parse(cfg.model if cfg.model != "auto" else "full")
    ranges = dict(cfg.sweep).get("range")
    if ranges is None:
        ranges = _range_grid(cfg, cfg.scenario)
    ranges = np.sort(ranges)
    columns = ["carrier_freq", "bandwidth", "range", "crb", "curvature"]
    rows = []
    for fc, bw, scenario in _crb_lines(cfg):
        result = crb(scenario, ranges, kind, snr=cfg.snr,
                     snr_normalization=cfg.snr_normalization,
                     coherence=cfg.coherence)
        rows.extend((fc, bw, *row) for row in zip(
            result.range, result.bound, result.curvature))
    return columns, rows


_RUNNERS = {
    "validate-spa": run_validate_spa,
    "ambiguity": run_ambiguity,
    "crb": run_crb,
}


def write_table(path: str, columns, rows, cfg: ExperimentConfig) -> None:
    """CSV with a comment block recording tool version and effective
    config. No timestamps or environment state: reruns are byte-identical."""
    buf = io.StringIO()
    buf.write(f"# nfradar {__version__}\n")
    buf.write(f"# experiment: {cfg.experiment}\n")
    for line in emit_config(cfg).rstrip("\n").split("\n"):
        buf.write(f"# {line}\n" if line else "#\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(buf.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nfradar",
        description="near-field multistatic radar experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="INI config file (defaults reproduce the "
                            "reference scenario)")
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--slow", action="store_true",
                       help="full-carrier runs (exact backend at the "
                            "configured carrier; expect long runtimes)")
        p.add_argument("--seed", type=int, default=None,
                       help="noise seed override")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="SECTION.KEY=VALUE",
                       help="config override, repeatable")
    args = parser.parse_args(argv)

    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"noise.seed={args.seed}")
    cfg = parse_config(path=args.config, overrides=tuple(overrides),
                       experiment=args.experiment, slow=args.slow)
    columns, rows = _RUNNERS[args.experiment](cfg)
    out = args.out or cfg.output_path or f"{args.experiment}.csv"
    write_table(out, columns, rows, cfg)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
