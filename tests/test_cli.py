import configparser
import csv
import io
import math
import re
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

README = Path(__file__).resolve().parents[1] / "README.md"

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
    ("output", "path"): "out/run 1.csv",
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
        with pytest.raises(ValueError, match="not a sweepable"):
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

    @pytest.mark.parametrize("gain", [1e-320, 1e300])
    def test_validate_spa_ratio_cells_gain_free(self, gain):
        # both backends are linear in the gain factor: the error cells are
        # the unit-gain ones bit for bit (at 1e-320 the amplitudes were
        # subnormal, and every phase cell read +-45 degrees), and the dB
        # cells are the unit-gain ones shifted by 20 log10 g, finite
        unit = run_validate_spa(parse_config(experiment="validate-spa"))[1]
        cfg = parse_config(experiment="validate-spa", overrides=(
            f"scenario.antenna_gain_factor={gain!r}",))
        rows = run_validate_spa(cfg)[1]
        assert [row[4:] for row in rows] == [row[4:] for row in unit]
        shift = 20.0 * math.log10(gain)
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
        curve_rows = [r for r in rows if r[0] == "curve"]
        summary_rows = [r for r in rows if r[0] == "summary"]
        assert len(curve_rows) == 41
        assert len(summary_rows) == 1
        # the peak sits on the true range
        assert summary_rows[0][6] == pytest.approx(4.0, abs=1e-12)

    def test_ambiguity_narrow_grid_blank_width(self):
        # a grid too narrow to bracket the half-power crossings still
        # yields curve rows; only the summary width stays empty
        cfg = parse_config(overrides=("grid.min=3.95", "grid.max=4.05",
                                      "grid.step=0.01"))
        _, rows = run_ambiguity(cfg)
        summary = [r for r in rows if r[0] == "summary"][0]
        assert summary[5] == ""
        assert summary[6] == pytest.approx(4.0, abs=1e-12)

    def test_ambiguity_rejects_two_sweeps(self, tmp_path):
        # refused at parse time, naming both keys, before anything is run
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=re.escape(
                "sweep.bandwidth, sweep.range: ambiguity sweeps one "
                "parameter at a time")):
            main(["ambiguity", "--set", "sweep.range=3.9,4.0",
                  "--set", "sweep.bandwidth=1e8", "--out", str(out)])
        assert not out.exists()

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
        assert columns == ["carrier_freq", "bandwidth", "range", "crb",
                           "curvature"]
        key = [(r[0], r[1], r[2]) for r in rows]
        assert key == sorted(key)
        assert len(rows) == 6
        assert all(r[3] > 0 for r in rows)


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
    # equal cells that print differently: only one object may be
    # formatted once for a whole column
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
        # the constant sweep_value column changes between the two blocks
        cfg = parse_config(overrides=("grid.min=3.9", "grid.max=4.1",
                                      "grid.step=0.01",
                                      "sweep.range=3.95,4.05"))
        columns, rows = run_ambiguity(cfg)
        assert {row[2] for row in rows} == {3.95, 4.05}
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

    def test_config_file(self, tmp_path):
        cfgfile = tmp_path / "exp.ini"
        cfgfile.write_text(
            "[grid]\nmin = 3.9\nmax = 4.1\nstep = 0.02\n"
            "[output]\npath = " + str(tmp_path / "from_cfg.csv") + "\n")
        assert main(["ambiguity", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "from_cfg.csv").exists()

    def test_crb_subcommand(self, tmp_path):
        out = tmp_path / "crb.csv"
        assert main(["crb", "--set", "sweep.range=4,8",
                     "--out", str(out)]) == 0
        comments, header, data = read_csv(out)
        assert header[0] == "carrier_freq"
        assert len(data) == 2
        assert float(data[0][3]) < float(data[1][3])  # bound grows with R

    def test_validate_spa_subcommand(self, tmp_path):
        out = tmp_path / "val.csv"
        assert main(["validate-spa", "--set", "scenario.n_antennas=3",
                     "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        assert len(data) == 9
        assert max(abs(float(r[4])) for r in data) <= 0.5

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
