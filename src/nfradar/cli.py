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
import functools
import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .em_exact import exact_received_signal, plate_node_counts
from .em_spa import spa_received_signal
from .estimator import (ModelKind, ambiguity, crb, crb_stencil,
                        half_power_width)
from .scenario import Scenario, reference_scenario
from .signal import add_awgn, synthesize

EXPERIMENTS = ("validate-spa", "ambiguity", "crb")
SWEEPABLE = ("bandwidth", "carrier_freq", "range")
# largest range grid a run may allocate (the default grid has 12,329 points)
MAX_GRID_POINTS = 1_000_000
# largest array a run may model: memory grows as N^2 pairs (an ambiguity
# run over 3.9-4.1 m peaked at 35 / 98 / 192 / 287 MB for N = 13 / 80 /
# 128 / 160)
MAX_ANTENNAS = 128


def _require(test, requirement: str):
    """A check that refuses a value failing test as not requirement."""
    def check(value) -> None:
        if not test(value):
            raise ValueError(f"must be {requirement}")
    return check


def _one_of(*choices: str):
    return _require(choices.__contains__, "one of " + ", ".join(choices))


_FINITE = _require(math.isfinite, "finite")
_FINITE_POSITIVE = _require(lambda v: math.isfinite(v) and v > 0,
                            "finite and positive")


def _grid_step(text: str) -> float | None:
    return None if text == "auto" else float(text)


# One row per config key: (section, key, default text, type, check). The
# type converts the key's text; the check, if any, raises a ValueError for
# a value no run can use. The [scenario] rows are the Scenario fields, with
# the reference scene's values as defaults; Scenario checks them itself.
_FIELDS = tuple(
    ("scenario", key, repr(value), type(value),
     _require(lambda v: v <= MAX_ANTENNAS, f"at most {MAX_ANTENNAS}")
     if key == "n_antennas" else None)
    for key, value in dataclasses.asdict(reference_scenario()).items()) + (
    ("experiment", "model", "auto", str, _one_of("auto", "full", "partial")),
    ("experiment", "coherence", "coherent", str,
     _one_of("coherent", "incoherent")),
    ("experiment", "snr", "1.0", float, _FINITE_POSITIVE),
    ("experiment", "snr_normalization", "total", str,
     _one_of("total", "per_pair")),
    ("experiment", "validation_carrier", "10000000000.0", float,
     _FINITE_POSITIVE),
    ("grid", "min", "2.0", float, _FINITE),
    ("grid", "max", "8.0", float, _FINITE),
    # auto means lambda/8 at the operating carrier
    ("grid", "step", "auto", _grid_step,
     _require(lambda v: v is None or math.isfinite(v) and v > 0,
              "auto or finite and positive")),
    ("noise", "noise_power", "0.0", float,
     _require(lambda v: math.isfinite(v) and v >= 0,
              "finite and nonnegative")),
    ("noise", "seed", "0", int, _require(lambda v: v >= 0, "nonnegative")),
    ("output", "path", "", str, None),
)
_SECTIONS = ("scenario", "experiment", "sweep", "grid", "noise", "output")


def _attr(section: str, key: str) -> str:
    """The ExperimentConfig field of a key outside [scenario]."""
    return f"{section}_{key}" if section in ("grid", "output") else key


def _value(section: str, key: str, text: str, convert, check):
    """section.key's text converted and checked; a ValueError names the
    key."""
    try:
        value = convert(text)
        if check is not None:
            check(value)
    except ValueError as err:
        raise ValueError(f"{section}.{key} = {text!r}: {err}") from None
    return value


def _sweep_values(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


_ALL_FINITE = _require(lambda values: all(map(math.isfinite, values)),
                       "finite")


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


def parse_config(path: str | None = None,
                 overrides: tuple[str, ...] = (),
                 experiment: str = "ambiguity",
                 text: str | None = None) -> ExperimentConfig:
    """Builds an ExperimentConfig from an optional INI file plus
    section.key=value override strings (later wins)."""
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    cp = configparser.ConfigParser(interpolation=None)
    for section in _SECTIONS:
        cp.add_section(section)
    for section, key, default, _, _ in _FIELDS:
        cp.set(section, key, default)
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

    known = {(section, key) for section, key, *_ in _FIELDS}
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section {section!r}")
        for key in cp.options(section):
            if section != "sweep" and (section, key) not in known:
                raise ValueError(
                    f"unknown key {key!r} in section [{section}]")

    values = {(section, key): _value(section, key, cp.get(section, key),
                                     convert, check)
              for section, key, _, convert, check in _FIELDS}
    fields = {key: value for (section, key), value in values.items()
              if section == "scenario"}
    try:
        scenario = Scenario(**fields)
    except ValueError as err:
        # the key is the first field the refusal names: a range check
        # names its field, the narrowband check bandwidth, the validity
        # floor range
        key = next(word for word in re.findall(r"\w+", str(err))
                   if word in fields)
        raise ValueError(f"scenario.{key} = {cp.get('scenario', key)!r}: "
                         f"{err}") from None

    sweep = []
    for key in cp.options("sweep"):
        if key not in SWEEPABLE:
            raise ValueError(
                f"sweep parameter {key!r} is not a sweepable Scenario field "
                f"(choose from {', '.join(SWEEPABLE)})")
        sweep.append((key, _value("sweep", key, cp.get("sweep", key),
                                  _sweep_values, _ALL_FINITE)))
    sweep.sort()  # deterministic order regardless of file order
    swept = ", ".join(f"sweep.{key}" for key, _ in sweep)
    if experiment == "validate-spa" and sweep:
        raise ValueError(f"{swept}: validate-spa takes no [sweep]")
    if experiment == "ambiguity" and len(sweep) > 1:
        raise ValueError(
            f"{swept}: ambiguity sweeps one parameter at a time")

    cfg = ExperimentConfig(
        scenario=scenario, experiment=experiment, sweep=tuple(sweep),
        **{_attr(section, key): value for (section, key), value
           in values.items() if section != "scenario"})
    if not cfg.grid_min < cfg.grid_max:
        raise ValueError("grid min must be below grid max")
    if cfg.grid_step is not None:
        _grid_size(cfg.grid_min, cfg.grid_max, cfg.grid_step)
    if experiment == "crb" and cfg.model == "partial":
        raise ValueError(
            "experiment.model = partial: crb needs the full model. The "
            "partial template lacks the received gains' Fresnel phase, so "
            "its objective peaks off the true range and its curvature "
            "there is no bound")
    _check_scenes(cfg)
    return cfg


def emit_config(cfg: ExperimentConfig) -> str:
    """Effective configuration as INI text; parse_config(text=...) of the
    result reproduces cfg exactly (round-trip idempotency)."""
    blocks = []
    for section in _SECTIONS:
        lines = [f"[{section}]"]
        if section == "sweep":
            lines += [f"{name} = {','.join(map(repr, values))}"
                      for name, values in cfg.sweep]
        for row_section, key, *_ in _FIELDS:
            if row_section == section:
                value = (getattr(cfg.scenario, key) if section == "scenario"
                         else getattr(cfg, _attr(section, key)))
                lines.append(f"{key} = {'auto' if value is None else value}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _grid_size(grid_min: float, grid_max: float, step: float) -> int:
    """Range grid point count, refused above MAX_GRID_POINTS."""
    n = np.floor((grid_max - grid_min) / step + 1e-9) + 1
    if not n <= MAX_GRID_POINTS:
        raise ValueError(
            f"range grid of {n:g} points exceeds {MAX_GRID_POINTS}: narrow "
            "grid.min..grid.max or raise grid.step (auto is lambda/8 at "
            "scenario.carrier_freq)")
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
    validation carrier (so experiment.validation_carrier at or above the
    configured carrier runs at the configured one)."""
    if cfg.scenario.carrier_freq <= cfg.validation_carrier:
        return cfg.scenario
    return _scene(cfg.scenario, "experiment.validation_carrier = "
                  f"{cfg.validation_carrier!r}",
                  carrier_freq=cfg.validation_carrier)


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
    crb it builds the range grid when range is not swept, and checks on
    every line the delay lattice's size and the stencil of the smallest
    range, which bounds every other range's stencil from below. For
    validate-spa it checks that the exact backend's plate rule stays
    within its node budget."""
    if cfg.experiment == "validate-spa":
        plate_node_counts(_validation_scene(cfg))
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
        if ranges is None:
            _range_grid(cfg, cfg.scenario)
        key, lowest = (("sweep.range", min(ranges)) if ranges
                       else ("grid.min", cfg.grid_min))
        for fc, bw, scene in _crb_lines(cfg):
            try:
                crb_stencil(scene, lowest)
            except ValueError as err:
                raise ValueError(
                    f"{key} = {lowest!r}: crb stencil at carrier {fc:g} Hz, "
                    f"bandwidth {bw:g} Hz: {err}") from None


def run_validate_spa(cfg: ExperimentConfig):
    """Exact-vs-closed-form comparison, one row per pair.

    Compares the carrier-wave amplitudes (no time axis) at the configured
    carrier lowered to the validation carrier (_validation_scene), at unit
    antenna gain factor g: both backends are linear in g, so the error
    cells do not depend on it and 20 log10 g shifts the dB cells. Where
    the specular point is off the plate the closed form is exactly 0, and
    the spa_db, amp_err_db and phase_err_deg cells stay empty.
    """
    scenario = _validation_scene(cfg)
    unit = dataclasses.replace(scenario, antenna_gain_factor=1.0)
    columns = ["tx", "rx", "exact_db", "spa_db", "amp_err_db",
               "phase_err_deg"]
    exact = exact_received_signal(unit)
    spa = spa_received_signal(unit)
    # hypot, not np.abs: numpy's vectorized complex abs can differ in the
    # last bit from its scalar abs, whose bits these CSV cells keep
    exact_db = 20.0 * np.log10(np.hypot(exact.real, exact.imag))
    with np.errstate(divide="ignore"):
        spa_db = 20.0 * np.log10(np.hypot(spa.real, spa.imag))
    shift = 20.0 * math.log10(scenario.antenna_gain_factor)
    cells = zip((exact_db + shift).tolist(), (spa_db + shift).tolist(),
                (spa_db - exact_db).tolist(),
                np.angle(spa / exact, deg=True).tolist())
    rows = []
    for i, (db, *spa_cells) in enumerate(cells):
        # spa_db is -inf off the plate; Scenario refuses the scenes that
        # return nothing
        if spa_cells[0] == -math.inf:
            spa_cells = ("", "", "")
        rows.append((*divmod(i, scenario.n_antennas), db, *spa_cells))
    return columns, rows


def run_ambiguity(cfg: ExperimentConfig):
    """Ambiguity curves over the range grid, one sweep parameter at a time,
    plus a summary row (width, argmax) per sweep value. noise_power > 0
    perturbs the received traces with the configured seed (the same root
    seed for every sweep value)."""
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
        rows.extend(("curve", param, value, r_hat, v, "", "") for r_hat, v
                    in zip(curve.grid.tolist(), curve.values.tolist()))
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
    ranges = dict(cfg.sweep).get("range")
    if ranges is None:
        ranges = _range_grid(cfg, cfg.scenario)
    ranges = np.sort(ranges)
    columns = ["carrier_freq", "bandwidth", "range", "crb", "curvature"]
    rows = []
    for fc, bw, scenario in _crb_lines(cfg):
        result = crb(scenario, ranges, snr=cfg.snr,
                     snr_normalization=cfg.snr_normalization,
                     coherence=cfg.coherence)
        rows.extend((fc, bw, *row) for row in zip(
            result.range.tolist(), result.bound.tolist(),
            result.curvature.tolist()))
    return columns, rows


_RUNNERS = {
    "validate-spa": run_validate_spa,
    "ambiguity": run_ambiguity,
    "crb": run_crb,
}


def write_table(path: str, columns, rows, cfg: ExperimentConfig) -> None:
    """CSV with a comment block recording tool version and effective
    config. No timestamps or environment state: reruns are byte-identical.

    Row cells are Python ints, floats and strings, written with str, which
    for a float is its shortest round-trip repr; every row gives the line
    ",".join(map(str, row)). The rows are formatted a column at a time,
    and a column whose cells are all one object (a run's sweep value) is
    formatted once. One object, not equal values: 0.0 and -0.0, or 1,
    1.0 and True, compare equal but print differently. Rows of unequal
    length raise a ValueError."""
    lines = [f"# nfradar {__version__}", f"# experiment: {cfg.experiment}"]
    lines += [f"# {line}" if line else "#"
              for line in emit_config(cfg).rstrip("\n").split("\n")]
    lines.append(",".join(columns))
    cells = []
    for column in zip(*rows, strict=True):
        first = column[0]
        if all(map(operator.is_, column, itertools.repeat(first))):
            cells.append([str(first)] * len(column))
        else:
            cells.append(list(map(str, column)))
    lines += map(",".join, zip(*cells))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    about 0.6 ms, as much as a small run's CSV write. Parsing leaves it
    unchanged (the append action copies its default list)."""
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
        p.add_argument("--seed", type=int, default=None,
                       help="noise seed override")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="SECTION.KEY=VALUE",
                       help="config override, repeatable")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"noise.seed={args.seed}")
    cfg = parse_config(path=args.config, overrides=tuple(overrides),
                       experiment=args.experiment)
    columns, rows = _RUNNERS[args.experiment](cfg)
    out = args.out or cfg.output_path or f"{args.experiment}.csv"
    write_table(out, columns, rows, cfg)
    print(f"wrote {out} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
