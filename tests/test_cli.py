import configparser
import csv
import ctypes
import io
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nfradar import cli, reference_scenario
from nfradar.cli import (
    ExperimentConfig,
    MAX_ANTENNAS,
    MAX_GRID_POINTS,
    emit_config,
    main,
    parse_config,
    run_ambiguity,
    run_crb,
    run_validate_spa,
    write_table,
)
from nfradar.estimator import _COHERENCE, _SNR_NORMALIZATIONS, ModelKind

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# a valid value other than the default for every config key
NON_DEFAULT = {
    ("scenario", "n_antennas"): "7",
    ("scenario", "spacing"): "0.25",
    ("scenario", "antenna_gain_factor"): "2.5",
    ("scenario", "bandwidth"): "2e8",
    ("scenario", "carrier_freq"): "24e9",
    ("scenario", "plate_width"): "0.5",
    ("scenario", "plate_height"): "2.0",
    ("scenario", "range"): "5.5",
    ("scenario", "free_space_impedance"): "1",
    ("scenario", "min_range_wavelengths"): "50",
    ("experiment", "model"): "full",
    ("experiment", "coherence"): "incoherent",
    ("experiment", "snr"): "0.1",
    ("experiment", "snr_normalization"): "per_pair",
    ("experiment", "validation_carrier"): "5e9",
    ("grid", "min"): "3",
    ("grid", "max"): "7.25",
    ("grid", "step"): "0.001",
    ("noise", "noise_power"): "1e-6",
    ("noise", "seed"): "123456789012",
}


def read_csv(path):
    """(comment_lines, header, data_rows) from a written table."""
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    header = rows[0].split(",")
    data = [r.split(",") for r in rows[1:]]
    return comments, header, data


class TestParseConfig:
    def test_defaults_reproduce_reference_scenario(self):
        cfg = parse_config()
        assert cfg.scenario == reference_scenario()
        assert cfg.experiment == "ambiguity"
        assert cfg.sweep == ()
        assert cfg.grid_step is None
        assert cfg.noise_power == 0.0
        assert cfg.seed == 0
        assert cfg.model == "auto"

    def test_roundtrip_idempotent(self):
        cfg = parse_config(overrides=(
            "scenario.carrier_freq=24e9",
            "sweep.range=2,4,8",
            "grid.step=0.01",
            "noise.noise_power=1e-6",
            "noise.seed=42",
        ))
        text = emit_config(cfg)
        again = parse_config(text=text)
        assert again == cfg
        assert emit_config(again) == text

    @pytest.mark.parametrize("section,key", [row[:2] for row in cli._FIELDS],
                             ids=[f"{s}.{k}" for s, k, *_ in cli._FIELDS])
    def test_roundtrip_every_key(self, section, key):
        value = NON_DEFAULT[section, key]
        cfg = parse_config(overrides=(f"{section}.{key}={value}",))
        assert cfg != parse_config()
        text = emit_config(cfg)
        assert text != emit_config(parse_config())
        again = parse_config(text=text)
        assert again == cfg
        assert emit_config(again) == text

    def test_override_changes_value(self):
        cfg = parse_config(overrides=("scenario.range=6.5",))
        assert cfg.scenario.range == 6.5

    def test_bad_override_shape(self):
        with pytest.raises(ValueError, match="section.key=value"):
            parse_config(overrides=("scenario.range",))
        with pytest.raises(ValueError, match="section.key=value"):
            parse_config(overrides=("range=6.5",))

    def test_unknown_section_and_key(self):
        with pytest.raises(ValueError, match="unknown config section"):
            parse_config(overrides=("antenna.count=5",))
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(text="[scenario]\nrange_m = 4\n")

    def test_unknown_sweep_parameter(self):
        # the keys are listed in the plan's (row) order
        with pytest.raises(ValueError, match=re.escape(
                "not a sweepable Scenario field (choose from carrier_freq, "
                "bandwidth, range)")):
            parse_config(overrides=("sweep.plate_width=0.4,0.8",))

    def test_sweep_sorted_by_name(self):
        cfg = parse_config(experiment="crb",
                           overrides=("sweep.carrier_freq=24e9,77e9",
                                      "sweep.bandwidth=1e8,1e9"))
        assert [name for name, _ in cfg.sweep] == \
            ["bandwidth", "carrier_freq"]

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="below grid max"):
            parse_config(overrides=("grid.min=5", "grid.max=3"))
        with pytest.raises(ValueError, match=re.escape(
                "grid.step = '-0.1': must be auto or finite and positive")):
            parse_config(overrides=("grid.step=-0.1",))

    def test_grid_size_bounded(self):
        # refused at parse time: for an explicit step before any
        # allocation, for step = auto when ambiguity's scene grids are
        # built and checked
        with pytest.raises(ValueError, match=f"exceeds {MAX_GRID_POINTS}"):
            parse_config(overrides=("grid.step=1e-12",))
        with pytest.raises(ValueError, match=f"exceeds {MAX_GRID_POINTS}"):
            parse_config(overrides=("scenario.carrier_freq=1e13",))

    def test_antenna_count_bounded(self):
        # parse only: the bound is checked before any scene is built
        with pytest.raises(ValueError, match=re.escape(
                f"scenario.n_antennas = '{MAX_ANTENNAS + 1}': must be at "
                f"most {MAX_ANTENNAS}")):
            parse_config(
                overrides=(f"scenario.n_antennas={MAX_ANTENNAS + 1}",))
        cfg = parse_config(
            overrides=(f"scenario.n_antennas={MAX_ANTENNAS}",))
        assert cfg.scenario.n_antennas == MAX_ANTENNAS

    @pytest.mark.parametrize("overrides, message", [
        # each wrote nan or -inf cells: r_s^3 overflowed at 6e102 m, d^2 at
        # a 6e200 m half-length; a wavelength of inf made the validity
        # floor 0 inf = nan, and one of 3e208 m underflowed k^2
        (("scenario.range=6e102",),
         "scenario.range = '6e102': range = 6e+102 m exceeds 1e+76 m"),
        (("scenario.spacing=1e200",),
         "scenario.spacing = '1e200': array half-length spacing "
         "(n_antennas - 1) / 2 = 6e+200 m exceeds 1e+76 m"),
        (("scenario.carrier_freq=1e-300", "scenario.bandwidth=1e-301",
          "scenario.min_range_wavelengths=0"),
         "scenario.carrier_freq = '1e-300': wavelength c / carrier_freq = "
         "inf m exceeds 1e+76 m"),
        (("scenario.carrier_freq=1e-200", "scenario.bandwidth=1e-201",
          "scenario.min_range_wavelengths=0"),
         "scenario.carrier_freq = '1e-200': wavelength c / carrier_freq = "
         "2.99792e+208 m exceeds 1e+76 m"),
    ])
    @pytest.mark.parametrize("experiment",
                             ["validate-spa", "ambiguity", "crb"])
    def test_overlong_scene_refused_at_parse(self, overrides, message,
                                             experiment, tmp_path):
        out = tmp_path / "out.csv"
        argv = [experiment, "--out", str(out)]
        for item in overrides:
            argv += ["--set", item]
        with pytest.raises(ValueError, match=re.escape(message)):
            main(argv)
        assert not out.exists()

    def test_longest_scene_finite(self, tmp_path):
        # range, array half-length and wavelength all at MAX_LENGTH: every
        # validate-spa cell is finite, without a numpy warning
        out = tmp_path / "out.csv"
        carrier = 299792458.0 / 1e76
        main(["validate-spa", "--set", "scenario.range=1e76",
              "--set", "scenario.spacing=1.6e75",
              "--set", f"scenario.carrier_freq={carrier!r}",
              "--set", f"scenario.bandwidth={carrier / 20}",
              "--set", "scenario.min_range_wavelengths=0",
              "--out", str(out)])
        _, _, data = read_csv(out)
        assert len(data) == 169
        assert all(math.isfinite(float(cell)) for row in data
                   for cell in row[2:] if cell)
        # the 13 pairs whose specular point is the plate's centre
        assert sum(row[3] != "" for row in data) == 13

    def test_scenario_refusal_names_key(self):
        with pytest.raises(ValueError, match=re.escape(
                "scenario.spacing = '-1': spacing must be strictly "
                "positive")):
            parse_config(overrides=("scenario.spacing=-1",))
        with pytest.raises(ValueError, match=re.escape(
                "scenario.bandwidth = '1e10': narrowband assumption")):
            parse_config(overrides=("scenario.bandwidth=1e10",))

    @pytest.mark.parametrize("experiment",
                             ["validate-spa", "ambiguity", "crb"])
    @pytest.mark.parametrize("key", ["plate_width", "plate_height",
                                     "antenna_gain_factor"])
    def test_zero_return_scene_rejected(self, key, experiment, tmp_path):
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(
                f"scenario.{key} = '0': {key} must be strictly positive")):
            main([experiment, "--set", f"scenario.{key}=0", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("override,experiment", [
        (override, experiment) for override in (
            "noise.noise_power=-1", "noise.noise_power=inf",
            "experiment.snr=0", "experiment.snr=-2", "experiment.snr=nan",
            "experiment.snr=inf",
            "noise.seed=-1",
            "grid.min=nan", "grid.max=inf", "grid.step=inf",
            "grid.step=nan",
            "sweep.range=nan", "sweep.range=3,inf", "sweep.bandwidth=-inf",
            "sweep.carrier_freq=1e10,nan",
            "experiment.validation_carrier=nan",
            "experiment.validation_carrier=0",
            "experiment.validation_carrier=-1e10",
            # values that do not convert to the key's type
            "scenario.n_antennas=1.5", "noise.seed=1e3", "scenario.range=abc",
            "grid.step=abc", "sweep.range=",
            # values Scenario refuses, named by their key; an array past
            # MAX_ANTENNAS is refused before anything is allocated
            "scenario.spacing=-1", "scenario.min_range_wavelengths=nan",
            "scenario.bandwidth=1e10", "scenario.n_antennas=0",
            "scenario.n_antennas=129", "scenario.n_antennas=100000",
        ) for experiment in ("validate-spa", "ambiguity", "crb")
    ] + [
        # a scene the runner would build is refused by Scenario, or a crb
        # stencil falls below the validity floor
        ("experiment.validation_carrier=1e9", "validate-spa"),
        ("sweep.range=-1", "crb"), ("sweep.range=0.1", "crb"),
        ("sweep.range=4,0.1", "crb"), ("grid.min=0.1", "crb"),
        ("sweep.range=-1", "ambiguity"), ("sweep.range=0.1", "ambiguity"),
        ("sweep.carrier_freq=5e8", "ambiguity"),
        ("sweep.carrier_freq=5e8", "crb"),
        ("sweep.bandwidth=1e10", "crb"),
        ("sweep.bandwidth=1e10", "ambiguity"),
        # an ambiguity grid below the validity floor, or one that misses
        # the true range of a scene; and crb with the partial model
        ("grid.min=0.1", "ambiguity"), ("scenario.range=9", "ambiguity"),
        ("sweep.range=1,9", "ambiguity"),
        ("experiment.model=partial", "crb"),
        # a lambda/8 range grid of more than MAX_GRID_POINTS points
        ("scenario.carrier_freq=1e13", "crb"),
        ("scenario.carrier_freq=1e13", "ambiguity"),
    ])
    def test_runner_failures_refused_at_parse(self, override, experiment,
                                              tmp_path):
        # each value used to be ignored or to fail only inside a runner
        out = tmp_path / "out.csv"
        key = override.split("=")[0]
        with pytest.raises(ValueError, match=re.escape(key)):
            main([experiment, "--set", override, "--out", str(out)])
        assert not out.exists()

    def test_validation_scene_carrier(self):
        # validate-spa runs at the lower of the configured and the
        # validation carrier, so a validation carrier at the configured
        # one runs the full carrier
        cfg = parse_config(experiment="validate-spa", overrides=(
            "scenario.carrier_freq=15e9",
            "experiment.validation_carrier=20e9"))
        assert cli._validation_scene(cfg) is cfg.scenario
        cfg = parse_config(experiment="validate-spa")
        assert cli._validation_scene(cfg).carrier_freq == 10e9
        cfg = parse_config(experiment="validate-spa", overrides=(
            "experiment.validation_carrier=7.7e10",))
        assert cfg.scenario.carrier_freq == 77e9
        assert cli._validation_scene(cfg) is cfg.scenario

    def test_full_carrier_validation_roundtrips(self, tmp_path):
        # the full-carrier run is set by a config key, so its table's
        # header replays it: parsing the header back gives the same config
        # and the same 77 GHz scene
        cfg = parse_config(experiment="validate-spa", overrides=(
            "experiment.validation_carrier=7.7e10",
            "scenario.n_antennas=2"))
        again = parse_config(text=emit_config(cfg),
                             experiment="validate-spa")
        assert again == cfg
        assert cli._validation_scene(again).carrier_freq == 77e9
        out = tmp_path / "val.csv"
        assert main(["validate-spa", "--set",
                     "experiment.validation_carrier=7.7e10", "--set",
                     "scenario.n_antennas=2", "--out", str(out)]) == 0
        header = "".join(line[2:] + "\n" for line in read_csv(out)[0][2:])
        assert parse_config(text=header, experiment="validate-spa") == cfg

    def test_slow_flag_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate-spa", "--slow"])
        assert "unrecognized arguments: --slow" in capsys.readouterr().err

    @pytest.mark.parametrize("carrier", ["1e10", "7.7e10"])
    def test_plate_node_budget_refused_at_parse(self, carrier, tmp_path):
        # R = 1 mm before the reference plate would take 17,127 z nodes
        # (em_exact's test_refuses_plate_over_budget); validate-spa refuses
        # it at parse time, naming the range and the plate, at the
        # validation carrier and at the full one
        out = tmp_path / "out.csv"
        argv = ["validate-spa", "--set", "scenario.min_range_wavelengths=0",
                "--set", "scenario.range=0.001",
                "--set", f"experiment.validation_carrier={carrier}",
                "--out", str(out)]
        with pytest.raises(ValueError, match=re.escape(
                "the 0.8 x 1.75 m plate at range 0.001 m needs more than "
                "2048 quadrature nodes along y")):
            main(argv)
        assert not out.exists()

    def test_validate_spa_refuses_sweep(self, tmp_path):
        # validate-spa runs one scene; a [sweep] it would ignore is refused
        # with its keys named
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(
                "sweep.range: validate-spa takes no [sweep]")):
            main(["validate-spa", "--set", "sweep.range=3.9,4.0",
                  "--out", str(out)])
        assert not out.exists()

    def test_crb_lattice_refused_at_parse(self, tmp_path):
        # 128 antennas at 1 km spacing offset pairs by up to 63.5 km:
        # crb's delay lattice would be 42,418 bands of 17 nodes, 738 MB of
        # coefficients. Refused at parse time before any node is built
        out = tmp_path / "out.csv"
        argv = ["crb", "--set", "scenario.n_antennas=128",
                "--set", "scenario.spacing=1000", "--set", "sweep.range=4",
                "--out", str(out)]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    "pair offsets up to 63500 m at bandwidth 1e+08 Hz need "
                    "a crb delay lattice of 42418 bands, more than 1024")):
                main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert not out.exists()

    def test_invalid_min_range_wavelengths_refused(self, tmp_path):
        # NaN used to switch the validity floor off, and crb wrote bounds
        # at 1 and 2 cm
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="min_range_wavelengths"):
            main(["crb", "--set", "scenario.min_range_wavelengths=nan",
                  "--set", "sweep.range=0.01,0.02", "--out", str(out)])
        assert not out.exists()

    def test_later_crb_line_refused(self, tmp_path):
        # at 30 wavelengths the floor is 0.117 m at 77 GHz and 1.8 m at
        # 5 GHz: the second line's stencil at 1 m is refused, naming its
        # point 1 - h = 0.98501 m
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(
                "sweep.range: crb stencil at carrier 5e+09 Hz, bandwidth "
                "1e+08 Hz: hypothesized range 0.98501 m below validity "
                "floor")):
            main(["crb", "--set", "scenario.min_range_wavelengths=30",
                  "--set", "sweep.carrier_freq=77e9,5e9",
                  "--set", "sweep.range=1.0", "--out", str(out)])
        assert not out.exists()

    def test_unresolved_crb_stencil_refused(self):
        # at 1e13 m floats are 2 mm apart and the 77 GHz step h 0.97 mm:
        # the stencil collapses onto R. It used to pass parse_config and
        # stop at run time as a non-concave stencil; 8e12 m still runs
        with pytest.raises(ValueError, match=re.escape(
                "sweep.range: crb stencil at carrier 7.7e+10 Hz, bandwidth "
                "1e+08 Hz: range 10000000000000.0 m")):
            parse_config(experiment="crb", overrides=("sweep.range=4,1e13",))
        cfg = parse_config(experiment="crb", overrides=("sweep.range=8e12",))
        assert len(run_crb(cfg)[1]) == 1

    @pytest.mark.parametrize("experiment, lo, hi", [
        ("ambiguity", "4.0", "4.000000000000001"),
        ("crb", "2.0", "2.000000000000001")])
    def test_unresolved_grid_step_refused(self, experiment, lo, hi):
        # a step below the floats' spacing gives coinciding grid points:
        # ambiguity used to stop at run time, crb to write rows of one
        # range
        with pytest.raises(ValueError, match=re.escape(
                f"grid.step = 1e-16 m is below the float spacing of the "
                f"range grid at {lo} m")):
            parse_config(experiment=experiment, overrides=(
                f"grid.min={lo}", f"grid.max={hi}", "grid.step=1e-16"))

    def test_overflowing_crb_bound_refused(self, tmp_path):
        # the noise power signal_power / snr overflows at a subnormal snr;
        # the crb cell used to read inf
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(
                "bound at R = 4.0 m is inf, not a normal float")):
            main(["crb", "--set", "experiment.snr=1e-320",
                  "--set", "sweep.range=4.0", "--out", str(out)])
        assert not out.exists()

    def test_subnormal_crb_bound_refused(self, tmp_path):
        # the crb cell used to read 7.86609153e-316
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(
                "bound at R = 4.0 m is 7.86609e-316, not a normal float")):
            main(["crb", "--set", "experiment.snr=1e308",
                  "--set", "sweep.range=4.0", "--out", str(out)])
        assert not out.exists()

    def test_extreme_gain_crb(self, tmp_path):
        # each range's gains are scaled by a power of two, so a gain factor
        # of 1e75 gives a finite row where J used to overflow; at 1e300
        # the curvature itself exceeds the largest float and is refused
        out = tmp_path / "out.csv"
        main(["crb", "--set", "scenario.antenna_gain_factor=1e75",
              "--set", "sweep.range=4.0", "--out", str(out)])
        _, _, data = read_csv(out)
        assert len(data) == 1
        assert all(math.isfinite(float(cell)) for cell in data[0])
        out.unlink()
        with pytest.raises(ValueError, match=re.escape(
                "curvature at R = 4.0 m is inf")):
            main(["crb", "--set", "scenario.antenna_gain_factor=1e300",
                  "--set", "sweep.range=4.0", "--out", str(out)])
        assert not out.exists()

    def test_partial_crb_refused(self):
        # the partial template's curvature is no bound; ambiguity still
        # accepts the partial model
        with pytest.raises(ValueError, match="lacks the received gains' "
                                             "Fresnel phase"):
            parse_config(experiment="crb",
                         overrides=("experiment.model=partial",))
        parse_config(experiment="ambiguity",
                     overrides=("experiment.model=partial",))

    def test_ambiguity_grid_checked_per_scene(self):
        # the floor moves with a swept carrier: 1.2 m is above it at
        # 77 GHz (0.39 m) and below it at 24 GHz (1.25 m)
        base = ("grid.min=1.2", "grid.max=5")
        parse_config(overrides=base + ("sweep.carrier_freq=77e9",))
        with pytest.raises(ValueError, match=r"grid\.min = 1\.2 .* at "
                                             r"sweep\.carrier_freq = 24"):
            parse_config(overrides=base + ("sweep.carrier_freq=77e9,24e9",))
        # the grid's last point, not grid.max, must reach the true range
        with pytest.raises(ValueError, match="scenario.range = 4.0"):
            parse_config(overrides=("grid.min=3", "grid.max=4",
                                    "grid.step=0.3"))

    def test_readme_config_block(self):
        # the README's default configuration parses to the defaults and
        # names exactly the sections and keys emit_config writes
        text = README.read_text(encoding="utf-8")
        block = re.search(r"full default configuration.*?```ini\n(.*?)```",
                          text, re.S).group(1)
        documented = configparser.ConfigParser(
            interpolation=None, inline_comment_prefixes=(";",))
        documented.read_string(block)
        buf = io.StringIO()
        documented.write(buf)
        assert parse_config(text=buf.getvalue()) == parse_config()
        emitted = configparser.ConfigParser(interpolation=None)
        emitted.read_string(emit_config(parse_config()))

        def keys(cp):
            return {(sec, key) for sec in cp.sections() for key in cp[sec]}

        assert documented.sections() == emitted.sections()
        assert keys(documented) == keys(emitted)

    def test_model_and_coherence_validation(self):
        with pytest.raises(ValueError, match=re.escape(
                "experiment.model = 'oracle': must be one of auto, full, "
                "partial")):
            parse_config(overrides=("experiment.model=oracle",))
        with pytest.raises(ValueError, match=re.escape(
                "experiment.coherence = 'mixed': must be one of coherent, "
                "incoherent")):
            parse_config(overrides=("experiment.coherence=mixed",))
        with pytest.raises(ValueError, match=re.escape(
                "experiment.snr_normalization = 'max': must be one of "
                "total, per_pair")):
            parse_config(overrides=("experiment.snr_normalization=max",))

    def test_choices_are_the_estimators(self):
        # the model, coherence and normalization names are the estimator's
        # own: every one is accepted, and the removed model aliases are not
        for kind in ModelKind:
            assert parse_config(overrides=(
                f"experiment.model={kind.value}",)).model == kind.value
        for coherence in _COHERENCE:
            assert parse_config(overrides=(
                f"experiment.coherence={coherence}",)).coherence == coherence
        for name in _SNR_NORMALIZATIONS:
            assert parse_config(experiment="crb", overrides=(
                f"experiment.snr_normalization={name}",
            )).snr_normalization == name
        with pytest.raises(ValueError, match=re.escape(
                "experiment.model = 'full_information': must be one of")):
            parse_config(overrides=("experiment.model=full_information",))

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            parse_config(experiment="calibrate")

    def test_file_and_override_priority(self, tmp_path):
        p = tmp_path / "cfg.ini"
        p.write_text("[scenario]\nrange = 5.0\n")
        cfg = parse_config(path=str(p))
        assert cfg.scenario.range == 5.0
        cfg = parse_config(path=str(p), overrides=("scenario.range=6.0",))
        assert cfg.scenario.range == 6.0


class TestRunners:
    def test_validate_spa_rows(self):
        cfg = parse_config(overrides=("scenario.n_antennas=5",),
                           experiment="validate-spa")
        columns, rows = run_validate_spa(cfg)
        assert columns == ["tx", "rx", "exact_db", "spa_db", "amp_err_db",
                           "phase_err_deg"]
        assert len(rows) == 25
        # inner pairs at the 10 GHz validation carrier stay well inside
        # the published envelope
        for row in rows:
            assert abs(row[4]) <= 0.5
            assert abs(row[5]) <= 5.0

    def test_validate_spa_carrier_replacement(self):
        # the 77 GHz default is replaced by the validation carrier unless
        # experiment.validation_carrier asks for the real thing
        cfg = parse_config(experiment="validate-spa",
                           overrides=("scenario.n_antennas=1",))
        assert cfg.scenario.carrier_freq == 77e9
        columns, rows = run_validate_spa(cfg)
        # at 10 GHz the exact level for the center pair sits near -56 dB;
        # a 77 GHz run would land elsewhere entirely
        assert len(rows) == 1

    @pytest.mark.parametrize("key, value", [
        pytest.param("antenna_gain_factor", 1e-320, id="1e-320"),
        pytest.param("antenna_gain_factor", 1e300, id="1e300"),
        pytest.param("free_space_impedance", 1e-320, id="impedance-1e-320"),
        pytest.param("free_space_impedance", 1e300, id="impedance-1e300"),
    ])
    def test_validate_spa_ratio_cells_gain_free(self, key, value):
        # both backends are linear in the gain factor g and the impedance
        # eta: the error cells are the unit ones bit for bit (at 1e-320 the
        # amplitudes were subnormal, every phase cell read +-45 degrees and
        # two read nan), and the dB cells are the unit ones shifted by
        # 20 log10 g or 20 log10 eta, finite
        def rows_at(v):
            return run_validate_spa(parse_config(
                experiment="validate-spa",
                overrides=(f"scenario.{key}={v!r}",)))[1]

        unit = rows_at(1.0)
        rows = rows_at(value)
        assert [row[4:] for row in rows] == [row[4:] for row in unit]
        shift = 20.0 * math.log10(value)
        for row, base in zip(rows, unit):
            assert row[:2] == base[:2]
            assert row[2:4] == (base[2] + shift, base[3] + shift)
            assert all(math.isfinite(v) for v in row[2:])

    def test_validate_spa_off_plate_cells_empty(self, tmp_path):
        # at plate_height 0.5 the specular point of 72 pairs is off the
        # plate: the closed form is exactly 0 there and its three cells
        # stay empty; every other cell is a finite number
        out = tmp_path / "val.csv"
        assert main(["validate-spa", "--set", "scenario.plate_height=0.5",
                     "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        spacing = 0.125
        off = 0
        for row in data:
            tx, rx = int(row[0]), int(row[1])
            if abs((tx + rx - 12) * spacing / 2) > 0.25:
                off += 1
                assert row[3:] == ["", "", ""]
                assert math.isfinite(float(row[2]))
            else:
                assert all(math.isfinite(float(v)) for v in row[2:])
        assert off == 72
        # on-plate rows keep their values (pair 6,6 as written by the
        # Gauss-Legendre plate rule; the midpoint sum at 10 points per
        # wavelength wrote exact_db 1.3e-3 dB higher)
        center = next(r for r in data if r[:2] == ["6", "6"])
        assert [float(v) for v in center[2:]] == pytest.approx(
            [61.145885358673894, 61.17601002335958, 0.030124664685686753,
             -0.3563637329986841], rel=1e-9)

    def test_ambiguity_rows(self):
        cfg = parse_config(overrides=("grid.min=3.8", "grid.max=4.2",
                                      "grid.step=0.01"))
        columns, rows = run_ambiguity(cfg)
        # nothing is swept: row_kind leads, the scene is in the header
        assert columns == ["row_kind", "r_hat", "value", "width", "argmax"]
        records = [dict(zip(columns, r, strict=True)) for r in rows]
        curve_rows = [r for r in records if r["row_kind"] == "curve"]
        summary_rows = [r for r in records if r["row_kind"] == "summary"]
        assert len(curve_rows) == 41
        assert len(summary_rows) == 1
        # the peak sits on the true range
        assert summary_rows[0]["argmax"] == pytest.approx(4.0, abs=1e-12)

    def test_ambiguity_narrow_grid_blank_width(self):
        # a grid too narrow to bracket the half-power crossings still
        # yields curve rows; only the summary width stays empty
        cfg = parse_config(overrides=("grid.min=3.95", "grid.max=4.05",
                                      "grid.step=0.01"))
        columns, rows = run_ambiguity(cfg)
        summary = next(r for r in (dict(zip(columns, row)) for row in rows)
                       if r["row_kind"] == "summary")
        assert summary["width"] == ""
        assert summary["argmax"] == pytest.approx(4.0, abs=1e-12)

    def test_ambiguity_sweep_product(self):
        # two swept keys run their sorted product, one block per scene in
        # (carrier, range) order, led by the swept values; each block is
        # an unswept run of its scene
        grid = ("grid.min=3.9", "grid.max=4.1", "grid.step=0.01")
        cfg = parse_config(overrides=grid + ("sweep.carrier_freq=77e9,24e9",
                                             "sweep.range=4.05,3.95"))
        columns, rows = run_ambiguity(cfg)
        assert columns == ["carrier_freq", "range", "row_kind", "r_hat",
                           "value", "width", "argmax"]
        scenes = [(24e9, 3.95), (24e9, 4.05), (77e9, 3.95), (77e9, 4.05)]
        assert list(dict.fromkeys(r[:2] for r in rows)) == scenes
        for fc, r in scenes:
            _, alone = run_ambiguity(parse_config(overrides=grid + (
                f"scenario.carrier_freq={fc!r}", f"scenario.range={r!r}")))
            assert [row[2:] for row in rows if row[:2] == (fc, r)] == alone
        # a refused scene of a product names all its swept values
        with pytest.raises(ValueError, match=re.escape(
                "sweep.carrier_freq = 77000000000.0, sweep.bandwidth = "
                "10000000000.0: narrowband assumption")):
            parse_config(overrides=grid + ("sweep.carrier_freq=77e9",
                                           "sweep.bandwidth=1e8,1e10"))

    def test_ambiguity_gain_scale_free(self):
        # a 2^600 gain factor once overflowed J into 411 NaN value cells;
        # its rows are now the unit factor's
        base = ("experiment.model=full", "grid.min=3.9", "grid.max=4.1")
        big = base + (f"scenario.antenna_gain_factor={2.0 ** 600!r}",)
        assert run_ambiguity(parse_config(overrides=big)) == \
            run_ambiguity(parse_config(overrides=base))

    def test_ambiguity_noise_uses_seed(self):
        base = ("grid.min=3.9", "grid.max=4.1", "grid.step=0.01",
                "noise.noise_power=1e-4")
        r1 = run_ambiguity(parse_config(overrides=base + ("noise.seed=1",)))
        r2 = run_ambiguity(parse_config(overrides=base + ("noise.seed=1",)))
        r3 = run_ambiguity(parse_config(overrides=base + ("noise.seed=2",)))
        assert r1 == r2
        assert r1 != r3

    def test_crb_rows_sorted(self):
        cfg = parse_config(experiment="crb", overrides=(
            "sweep.range=8,2,4",
            "sweep.carrier_freq=77e9,24e9",
        ))
        columns, rows = run_crb(cfg)
        # the unswept bandwidth stays in the header
        assert columns == ["carrier_freq", "range", "crb", "curvature"]
        key = [r[:2] for r in rows]
        assert key == sorted(key)
        assert len(rows) == 6
        assert all(r[columns.index("crb")] > 0 for r in rows)

    def test_crb_scene_order_is_row_order(self):
        # cfg.sweep is sorted by name (bandwidth first); the plan runs
        # carrier, then bandwidth, then range, and each (carrier,
        # bandwidth) block is the unswept run of its scene
        cfg = parse_config(experiment="crb", overrides=(
            "sweep.bandwidth=1e9,1e8", "sweep.carrier_freq=77e9,24e9",
            "sweep.range=4,2"))
        columns, rows = run_crb(cfg)
        assert columns == ["carrier_freq", "bandwidth", "range", "crb",
                           "curvature"]
        assert len(rows) == 8
        key = [r[:3] for r in rows]
        assert key == sorted(key)
        for fc in (24e9, 77e9):
            for bw in (1e8, 1e9):
                _, alone = run_crb(parse_config(experiment="crb", overrides=(
                    f"scenario.carrier_freq={fc!r}",
                    f"scenario.bandwidth={bw!r}", "sweep.range=4,2")))
                assert [r[2:] for r in rows if r[:2] == (fc, bw)] == alone


class TestWriteTable:
    def test_comment_block_and_formatting(self, tmp_path):
        cfg = parse_config(overrides=("grid.min=3.9", "grid.max=4.1",
                                      "grid.step=0.05"))
        columns, rows = run_ambiguity(cfg)
        out = tmp_path / "amb.csv"
        write_table(str(out), columns, rows, cfg)
        comments, header, data = read_csv(out)
        assert comments[0].startswith("# nfradar ")
        assert comments[1] == "# experiment: ambiguity"
        assert any("[scenario]" in c for c in comments)
        assert header == columns
        # no numpy reprs leak into the CSV
        body = out.read_text()
        assert "np.float" not in body and "np.int" not in body

    def test_float_formatting_roundtrip(self, tmp_path):
        cfg = parse_config()
        out = tmp_path / "t.csv"
        write_table(str(out), ["a", "b"], [(0.1 + 0.2, np.float64(1) / 3)],
                    cfg)
        _, _, data = read_csv(out)
        assert float(data[0][0]) == 0.1 + 0.2
        assert float(data[0][1]) == 1.0 / 3.0


def _table_by_rows(columns, rows, cfg) -> str:
    """write_table's text built one row at a time."""
    lines = [f"# nfradar {cli.__version__}",
             f"# experiment: {cfg.experiment}"]
    lines += [f"# {line}" if line else "#"
              for line in emit_config(cfg).rstrip("\n").split("\n")]
    lines.append(",".join(columns))
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


_REPEATED = 0.1 + 0.2

TABLES = {
    # equal cells that print differently
    "signed zeros": [(0.0, 1), (-0.0, 1), (0.0, 1)],
    "one, one point zero, true": [(1, "a"), (1.0, "a"), (True, "a")],
    "empty strings and floats": [("", 2.5), (1.5, ""), ("", "")],
    "one float repeated": [(_REPEATED, float(i)) for i in range(4)],
    "one row": [(-0.0, 3)],
    "no rows": [],
}


class TestWriteTableByColumns:
    @pytest.mark.parametrize("rows", TABLES.values(), ids=TABLES.keys())
    def test_matches_rows(self, tmp_path, rows):
        cfg = parse_config()
        out = tmp_path / "t.csv"
        write_table(str(out), ["a", "b"], rows, cfg)
        assert out.read_text(encoding="ascii") == _table_by_rows(
            ["a", "b"], rows, cfg)

    def test_sweep_blocks_match_rows(self, tmp_path):
        # the swept range column changes between the two blocks
        cfg = parse_config(overrides=("grid.min=3.9", "grid.max=4.1",
                                      "grid.step=0.01",
                                      "sweep.range=3.95,4.05"))
        columns, rows = run_ambiguity(cfg)
        assert columns[0] == "range"
        assert {row[0] for row in rows} == {3.95, 4.05}
        out = tmp_path / "amb.csv"
        write_table(str(out), columns, rows, cfg)
        assert out.read_text(encoding="ascii") == _table_by_rows(
            columns, rows, cfg)

    def test_ragged_rows_raise(self, tmp_path):
        with pytest.raises(ValueError):
            write_table(str(tmp_path / "r.csv"), ["a", "b"],
                        [(1.0, 2.0), (3.0,)], parse_config())


class TestMain:
    def test_end_to_end_deterministic(self, tmp_path):
        args = ["ambiguity",
                "--set", "grid.min=3.9", "--set", "grid.max=4.1",
                "--set", "grid.step=0.01",
                "--set", "noise.noise_power=1e-5", "--seed", "7"]
        out1 = tmp_path / "a1.csv"
        out2 = tmp_path / "a2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        args = ["ambiguity",
                "--set", "grid.min=3.9", "--set", "grid.max=4.1",
                "--set", "grid.step=0.01",
                "--set", "noise.noise_power=1e-5"]
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        main(args + ["--seed", "1", "--out", str(out1)])
        main(args + ["--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_config_file(self, tmp_path, monkeypatch):
        # without --out the table is <experiment>.csv
        cfgfile = tmp_path / "exp.ini"
        cfgfile.write_text("[grid]\nmin = 3.9\nmax = 4.1\nstep = 0.02\n")
        monkeypatch.chdir(tmp_path)
        assert main(["ambiguity", "--config", str(cfgfile)]) == 0
        _, _, data = read_csv(tmp_path / "ambiguity.csv")
        assert len(data) == 12  # 11 grid points and the summary

    def test_output_section_gone(self, tmp_path):
        # the table's path is --out alone, so a header replayed with
        # --config cannot name the table it came from
        with pytest.raises(ValueError, match="unknown config section "
                                             "'output'"):
            parse_config(text="[output]\npath = a.csv\n")

    def test_crb_subcommand(self, tmp_path):
        out = tmp_path / "crb.csv"
        assert main(["crb", "--set", "sweep.range=4,8",
                     "--out", str(out)]) == 0
        comments, header, data = read_csv(out)
        assert header == ["range", "crb", "curvature"]
        assert len(data) == 2
        bound = header.index("crb")
        assert float(data[0][bound]) < float(data[1][bound])  # grows with R

    def test_validate_spa_subcommand(self, tmp_path):
        out = tmp_path / "val.csv"
        assert main(["validate-spa", "--set", "scenario.n_antennas=3",
                     "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        assert len(data) == 9
        assert max(abs(float(r[4])) for r in data) <= 0.5

    def test_each_plan_built_once(self, tmp_path, monkeypatch):
        # parse_config builds the experiment's plan and its runner reads it
        # from the config; a runner that rebuilt it would count twice
        args = {"validate-spa": ["--set", "scenario.n_antennas=3"],
                "ambiguity": ["--set", "grid.min=3.9", "--set", "grid.max=4.1",
                              "--set", "grid.step=0.05"],
                "crb": ["--set", "sweep.range=4,8"]}
        for experiment, plan in dict(cli._PLANS).items():
            calls = []

            def counted(cfg, plan=plan, calls=calls):
                calls.append(cfg.experiment)
                return plan(cfg)
            monkeypatch.setitem(cli._PLANS, experiment, counted)
            monkeypatch.setattr(cli, plan.__name__, counted)
            assert main([experiment, *args[experiment],
                         "--out", str(tmp_path / "t.csv")]) == 0
            assert calls == [experiment]

    def test_parser_reused_without_leaks(self, tmp_path):
        # the parser is built once per process; successive calls with
        # different --set and --seed values each write what their own
        # overrides alone give, with nothing left over from an earlier
        # call (the last one has no --set, so it parses the default list)
        runs = [
            ("crb", ["--set", "sweep.range=4,8",
                     "--set", "scenario.spacing=0.1", "--seed", "1"],
             ("sweep.range=4,8", "scenario.spacing=0.1", "noise.seed=1")),
            ("crb", ["--set", "sweep.range=3",
                     "--set", "scenario.bandwidth=2e8", "--seed", "2"],
             ("sweep.range=3", "scenario.bandwidth=2e8", "noise.seed=2")),
            ("validate-spa", ["--seed", "3"], ("noise.seed=3",)),
            ("validate-spa", ["--set", "scenario.n_antennas=3"],
             ("scenario.n_antennas=3",)),
        ]
        runners = {"crb": run_crb, "validate-spa": run_validate_spa}
        for i, (experiment, args, overrides) in enumerate(runs):
            out, want = tmp_path / f"out{i}.csv", tmp_path / f"want{i}.csv"
            assert main([experiment] + args + ["--out", str(out)]) == 0
            cfg = parse_config(overrides=overrides, experiment=experiment)
            write_table(str(want), *runners[experiment](cfg), cfg)
            assert out.read_bytes() == want.read_bytes()
        assert cli._parser() is cli._parser()


def _raising(error):
    def fake(*args):
        raise error
    return fake


class TestAllocatorPolicy:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the policy is glibc's mallopt")
    def test_repeat_crb_run_faults_no_pages(self, tmp_path):
        # crb frees and reallocates 150-300 kB temporaries per 64-range
        # chunk; with glibc's default thresholds each run re-faulted about
        # 1,400 pages, with the freed heap kept a second run reuses them
        ranges = ",".join(map(repr, np.linspace(2.0, 8.0, 200).tolist()))
        argv = ["crb", "--set", "sweep.range=" + ranges,
                "--out", str(tmp_path / "crb.csv")]
        code = (
            "import resource\n"
            "from nfradar.cli import main\n"
            f"main({argv!r})\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            f"main({argv!r})\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt"
            " - before)\n")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [
                       str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert int(result.stdout.splitlines()[-1]) < 100

    @pytest.mark.parametrize("target, name, fake", [
        (os, "confstr", _raising(ValueError("unrecognized name"))),
        (os, "confstr", lambda name: None),
        (ctypes, "CDLL", _raising(OSError("no C library"))),
        (ctypes, "CDLL", lambda name: object()),
    ], ids=["no-libc-name", "libc-name-unset", "no-libc", "no-mallopt"])
    def test_policy_that_cannot_apply_changes_nothing(self, tmp_path,
                                                      monkeypatch, target,
                                                      name, fake):
        argv = ["crb", "--set", "sweep.range=3,4"]
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        assert main(argv + ["--out", str(want)]) == 0
        monkeypatch.setattr(target, name, fake)
        assert main(argv + ["--out", str(got)]) == 0
        assert got.read_bytes() == want.read_bytes()
