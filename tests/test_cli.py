"""Scenario parsing, subcommands, exit codes, and output reproducibility."""

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lensmimo import cli, linklevel, profile_cache
from lensmimo.cli import (EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO, EXIT_OK, main,
                          parse_config)
from lensmimo.linklevel import SimResult

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "scenarios").glob("*.ini"))

SMALL = """\
[scenario]
name = unit
precoders = zf, mrt
quantizers = mvcq, rvq

[array]
num_antennas = 16

[users]
angles = -10, 10   ; one user either side of boresight

[simulation]
bits = 3
snr_db = 0, 10
trials = 4
seed = 99
"""


@pytest.fixture(scope="module")
def ini_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("scenarios")
    (d / "minimal.ini").write_text("[users]\nangles = -10, 10\n")
    (d / "small.ini").write_text(SMALL)
    return d


# ---------------------------------------------------------------------------
# scenario file parsing


def test_defaults_fill_a_minimal_file(ini_dir):
    cfg = parse_config(str(ini_dir / "minimal.ini"))
    assert cfg.name == "minimal"
    assert cfg.array.num_antennas == 64
    assert cfg.array.spacing == 0.5
    assert cfg.lens_enabled
    lens = cfg.lens
    assert (lens.focal_length, lens.aperture) == (40.0, 20.0)
    assert cfg.array.lens_distance == 25.0
    assert (cfg.grid.dx, cfg.grid.dz, cfg.grid.window) == (0.0625, 1.0, 80.0)
    assert cfg.precoders == ("zf",)
    assert cfg.quantizers == ("mvcq",)
    assert cfg.snr_db == (0.0, 5.0, 10.0, 15.0, 20.0)
    assert cfg.trials == 1000 and cfg.seed == 1234 and cfg.bits == 6
    assert [u.sigma_deg for u in cfg.users] == [5.0, 5.0]


def test_explicit_values_override_defaults(ini_dir):
    cfg = parse_config(str(ini_dir / "small.ini"))
    assert cfg.name == "unit"
    assert cfg.array.num_antennas == 16
    assert cfg.precoders == ("zf", "mrt")
    assert cfg.quantizers == ("mvcq", "rvq")
    assert cfg.snr_db == (0.0, 10.0)
    assert cfg.trials == 4 and cfg.seed == 99 and cfg.bits == 3
    assert [u.angle_deg for u in cfg.users] == [-10.0, 10.0]


def test_sigma_broadcasts_or_matches(tmp_path):
    p = tmp_path / "s.ini"
    p.write_text("[users]\nangles = -10, 0, 10\nsigma = 7\n")
    cfg = parse_config(str(p))
    assert [u.sigma_deg for u in cfg.users] == [7.0, 7.0, 7.0]
    p.write_text("[users]\nangles = -10, 0, 10\nsigma = 7, 8, 9\n")
    assert [u.sigma_deg for u in parse_config(str(p)).users] == [7.0, 8.0, 9.0]
    p.write_text("[users]\nangles = -10, 0, 10\nsigma = 7, 8\n")
    from lensmimo import ConfigError
    with pytest.raises(ConfigError, match="scalar or match"):
        parse_config(str(p))


def test_unknown_names_are_rejected_with_location(tmp_path):
    from lensmimo import ConfigError
    p = tmp_path / "bad.ini"
    p.write_text("[channel]\nfoo = 1\n")
    with pytest.raises(ConfigError, match=r"unknown section \[channel\]"):
        parse_config(str(p))
    p.write_text("[users]\nangles = 0\n[array]\nspacingg = 0.5\n")
    with pytest.raises(ConfigError, match=r"unknown key 'spacingg' in \[array\]"):
        parse_config(str(p))
    # the thin phase screen reads no permittivity, so there is no such key
    p.write_text("[users]\nangles = 0\n[lens]\nepsilon_r = 2.4\n")
    with pytest.raises(ConfigError, match=r"unknown key 'epsilon_r' in \[lens\]"):
        parse_config(str(p))
    p.write_text("[users]\nangles = 0\n[array]\nnum_antennas = sixty\n")
    with pytest.raises(ConfigError, match=r"\[array\] num_antennas"):
        parse_config(str(p))
    p.write_text("[users]\nangles = 0\n[scenario]\nlens = maybe\n")
    with pytest.raises(ConfigError, match=r"\[scenario\] lens: cannot parse 'maybe'"):
        parse_config(str(p))


def test_lens_switch_reads_on_off_words(tmp_path):
    """[scenario] lens takes on/true/yes/1 and off/false/no/0, in any case."""
    p = tmp_path / "switch.ini"
    for raw, enabled in (("Yes", True), ("0", False)):
        _small_ini(p, {"scenario": {"lens": raw, "quantizers": "rvq"}})
        assert parse_config(str(p)).lens_enabled is enabled


HEADER_KEYS = ["scenario", "num_antennas", "num_users", "user_angles_deg",
               "sigma_deg", "spacing", "bits", "lens_enabled", "focal_length",
               "aperture", "lens_distance", "grid_dx", "grid_dz",
               "window", "precoders", "quantizers", "snr_db", "trials", "seed"]


@pytest.mark.parametrize("path", SCENARIOS, ids=[p.stem for p in SCENARIOS])
def test_shipped_scenarios_parse_and_keep_the_csv_header(path, tmp_path,
                                                         monkeypatch):
    cfg = parse_config(str(path))
    zeros = np.zeros(len(cfg.snr_db))
    combos = [(p, q) for p in cfg.precoders for q in cfg.quantizers]
    result = SimResult(snr_db=np.asarray(cfg.snr_db), rates={},
                       mean=dict.fromkeys(combos, zeros),
                       stderr=dict.fromkeys(combos, zeros))
    monkeypatch.setattr(linklevel, "run_monte_carlo", lambda cfg, profiles: result)
    assert main(["simulate", "--config", str(path),
                 "--out-dir", str(tmp_path)]) == EXIT_OK
    prec, quant = combos[0]
    text = (tmp_path / f"{cfg.name}_{prec}_{quant.replace(':', '_')}.csv").read_text()
    header = [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]
    assert [h.partition(" = ")[0] for h in header] == \
        HEADER_KEYS + ["precoder", "quantizer"]
    if path.stem == "four_user_downlink":
        assert header[:len(HEADER_KEYS)] == [
            "scenario = four_user_downlink", "num_antennas = 64",
            "num_users = 4", "user_angles_deg = -12.0;-7.0;10.0;0.0",
            "sigma_deg = 5.0;5.0;5.0;5.0", "spacing = 0.5", "bits = 6",
            "lens_enabled = True", "focal_length = 40.0", "aperture = 20.0",
            "lens_distance = 25.0", "grid_dx = 0.0625", "grid_dz = 1.0",
            "window = 80.0", "precoders = zf;mrt",
            "quantizers = mvcq;rvq", "snr_db = 0.0;5.0;10.0;15.0;20.0",
            "trials = 1000", "seed = 77"]


def test_missing_users_section_is_an_error(tmp_path):
    from lensmimo import ConfigError
    p = tmp_path / "nousers.ini"
    p.write_text("[simulation]\ntrials = 3\n")
    with pytest.raises(ConfigError, match=r"\[users\] angles is required"):
        parse_config(str(p))


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_for_missing_file(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.ini")])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_exit_code_for_bad_config(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[users]\nangles = 0\n[array]\nnum_antennas = 0\n")
    rc = main(["simulate", "--config", str(p), "--out-dir", str(tmp_path)])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lens-profile", "bpm-field", "simulate",
                                     "fit-gaussian"])
def test_undecodable_scenario_is_a_config_error(tmp_path, capsys, command):
    """A scenario file that is not UTF-8 exits 2 naming the file, with no
    traceback and no output."""
    p = tmp_path / "bad.ini"
    p.write_bytes(b"[users]\nangles = -10, \xff10\n")
    out = tmp_path / "out"
    rc = main([command, "--config", str(p), "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: {p}: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["../escaped", "sub/x", "foo\n    bar", ""],
                         ids=["parent_dir", "sub_dir", "continuation_line", "empty"])
def test_scenario_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    """The name goes into every output file name and the header, so one that
    leaves --out-dir, names a subdirectory, spans lines (a configparser
    continuation) or is empty exits 2, with no traceback and nothing written
    in the out-dir or its parent."""
    p = _small_ini(tmp_path / "named.ini", {"scenario": {"name": name}})
    parent = tmp_path / "escdir"
    parent.mkdir()
    rc = main(["simulate", "--config", str(p), "--out-dir", str(parent / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert "is not a plain file name" in err
    assert "Traceback" not in err
    assert list(parent.iterdir()) == []


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the C locale gives an ASCII file-system encoding on Linux")
def test_scenario_name_the_file_system_cannot_encode(tmp_path):
    """Under the C locale, with UTF-8 mode off, file names are ASCII, so a
    name such as Größe exits 2 with no traceback and nothing written, whether
    [scenario] name sets it or it is taken from the file name (which reaches
    the name check as surrogate escapes)."""
    named = _small_ini(tmp_path / "named.ini", {"scenario": {"name": "x"}})
    named.write_bytes(named.read_bytes().replace(b"name = x", "name = Größe".encode()))
    unnamed = _small_ini(tmp_path / "Größe.ini", {})
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    for p in (named, unnamed):
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "lensmimo.cli", "simulate",
             "--config", str(p), "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "is not a plain file name" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def _small_ini(path, edits):
    """A two-user, 16-antenna, two-trial scenario file with edits applied."""
    sections = {"users": {"angles": "-10, 10"}, "array": {"num_antennas": "16"},
                "simulation": {"bits": "3", "snr_db": "0", "trials": "2"}}
    for section, kv in edits.items():
        sections.setdefault(section, {}).update(kv)
    path.write_text("".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                            for sec, kv in sections.items()))
    return path


@pytest.mark.parametrize("users", ["angles = nan", "angles = 0\nsigma = inf"])
def test_exit_code_for_non_finite_user(tmp_path, capsys, users):
    p = tmp_path / "nonfinite.ini"
    p.write_text(f"[users]\n{users}\n[simulation]\ntrials = 1\nsnr_db = 0\n")
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(p), "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command, setting, extra", [
    ("lens-profile", ("lens", "focal_length", "nan"), ()),
    ("bpm-field", ("grid", "dz", "nan"), ()),
    ("simulate", ("array", "lens_distance", "inf"), ()),
    ("simulate", ("simulation", "snr_db", "nan"), ()),
    ("simulate", ("array", "spacing", "nan"), ()),
    ("bpm-field", None, ("--aod", "nan")),
    # kappa x^2 / (2 f) overflows inside the aperture stop
    ("lens-profile", ("lens", "focal_length", "1e-307"), ()),
    ("bpm-field", ("lens", "focal_length", "1e-307"), ()),
    ("fit-gaussian", ("lens", "focal_length", "1e-307"), ()),
    ("simulate", ("lens", "focal_length", "1e-307"), ()),
    ("lens-profile", ("lens", "focal_length", "1e-310"), ()),
    # a phase past the float range: across the array, to its plane, to the last plane
    ("simulate", ("array", "spacing", "1e308"), ()),
    ("lens-profile", ("array", "lens_distance", "1e308"), ()),
    ("bpm-field", ("grid", "dz", "1e308"), ("--steps", "4")),
], ids=["focal_length", "dz", "lens_distance", "snr_db", "spacing", "aod",
        "tiny_focal_length_lens_profile", "tiny_focal_length_bpm_field",
        "tiny_focal_length_fit_gaussian", "tiny_focal_length_simulate",
        "subnormal_focal_length", "huge_spacing", "huge_lens_distance",
        "huge_dz_history"])
@pytest.mark.filterwarnings("error")
def test_exit_code_for_non_finite_setting(tmp_path, capsys, command, setting,
                                          extra):
    edits = {}
    if setting is not None:
        section, key, value = setting
        edits = {section: {key: value}}
    p = _small_ini(tmp_path / "nonfinite.ini", edits)
    out = tmp_path / "out"
    rc = main([command, "--config", str(p), "--out-dir", str(out), *extra])
    assert rc == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edits, extra, code", [
    ({"simulation": {"snr_db": "4000"}}, (), EXIT_CONFIG),
    ({"grid": {"dx": "1e200"}}, (), EXIT_CONFIG),
    ({"scenario": {"lens": "off", "quantizers": "rvq"},
      "lens": {"focal_length": "-5"}}, (), EXIT_CONFIG),
    ({"scenario": {"quantizers": "rvq, rvq"}}, (), EXIT_CONFIG),
    ({"scenario": {"quantizers": "mvcq, mvcq:bpm"}}, (), EXIT_CONFIG),
    ({"scenario": {"quantizers": "rvq, mvcq:sub_bpm:10:junk"}}, (), EXIT_CONFIG),
    ({"scenario": {"quantizers": ""}}, (), EXIT_CONFIG),
    ({"scenario": {"precoders": ""}}, (), EXIT_CONFIG),
    ({"simulation": {"snr_db": "10, 10"}}, (), EXIT_CONFIG),
    ({"simulation": {"snr_db": "0, -0"}}, (), EXIT_CONFIG),
    # ',' alone separates list items, and ';' only starts a comment after whitespace
    ({"scenario": {"precoders": "zf;mrt"}}, (), EXIT_CONFIG),
    ({"simulation": {"snr_db": "0;10"}}, (), EXIT_CONFIG),
    ({}, ("--seed", "-1"), EXIT_CONFIG),
    ({"simulation": {"seed": "-1"}}, (), EXIT_CONFIG),
    # sigma^2 overflows, so the correlation diagonal is inf * 0 = nan
    ({"scenario": {"precoders": "mrt"}, "users": {"sigma": "1e200"}}, (),
     EXIT_DOMAIN),
], ids=["snr_overflow", "empty_grid", "bad_lens_while_off", "repeated_quantizer",
        "quantizer_respelled", "quantizer_extra_field", "empty_quantizers",
        "empty_precoders", "repeated_snr", "snr_signed_zero", "semicolon_precoders",
        "semicolon_snr", "negative_seed",
        "negative_seed_in_file", "nan_rates"])
def test_rejected_input_writes_nothing(tmp_path, capsys, edits, extra, code):
    p = _small_ini(tmp_path / "rejected.ini", edits)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(p), "--out-dir", str(out), *extra])
    assert rc == code
    assert ("configuration error" if code == EXIT_CONFIG else "numerical error") \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, text", [
    ("lens-profile", "[DEFAULT]\nfocal_length = 30\n"),
    ("fit-gaussian", "[DEFAULT]\nfocal_length = 30\n"),
    ("fit-gaussian", "[DEFAULT]\nfocal_length = 30\n[lens]\naperture = 20\n"),
    ("simulate", "[DEFAULT]\ntrials = 3\n[users]\nangles = 0\n"),
], ids=["lens_profile", "fit_gaussian", "fit_gaussian_with_lens", "simulate"])
def test_default_section_is_an_unknown_section(tmp_path, capsys, command, text):
    """[DEFAULT] is no section the others inherit from: it is refused by name
    like any unknown section, and nothing is written."""
    p = tmp_path / "default.ini"
    p.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(p), "--out-dir", str(out)]) == EXIT_CONFIG
    assert "unknown section [DEFAULT]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["50%", "%(x)s", "a%%b", "%(precoders)s",
                                  "nan", "inf", "-inf"])
def test_percent_is_a_literal_character(tmp_path, name):
    """A scenario value is read literally: no % interpolation, so each name
    names its files and heads its CSVs as written; a name is text, so one
    that reads as a non-finite number is no non-finite value."""
    p = _small_ini(tmp_path / "percent.ini",
                   {"scenario": {"name": name, "precoders": "zf"}})
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(p), "--out-dir", str(out)]) == EXIT_OK
    assert sorted(f.name for f in out.iterdir()) == [f"{name}_comparison.csv",
                                                     f"{name}_zf_mvcq.csv"]
    text = (out / f"{name}_comparison.csv").read_text(encoding="utf-8")
    assert f"# scenario = {name}\n" in text


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("precoder", ["zf", "mrt"])
def test_non_finite_correlation_fails_before_any_cell(tmp_path, capsys,
                                                      monkeypatch, precoder):
    """sigma^2 overflows: exit 3 at set-up, naming the spread, with no
    numpy warning, no Monte-Carlo cell drawn and nothing written."""
    def no_cell(*args):
        raise AssertionError("a Monte-Carlo trial was drawn")
    monkeypatch.setattr(linklevel, "draw_channel", no_cell)
    p = _small_ini(tmp_path / "wide.ini", {"scenario": {"precoders": precoder},
                                            "users": {"sigma": "1e200"}})
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(p), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_DOMAIN
    assert err.splitlines() == [
        "numerical error: angular spread 1e+200 deg gives a non-finite "
        "correlation matrix"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_extreme_snr_fails_at_its_first_cell(tmp_path, capsys):
    """10^308 is finite, so the grid passes validation, but the received
    power overflows: exit 3 naming the first non-finite cell, with no numpy
    warning and nothing written."""
    p = _small_ini(tmp_path / "loud.ini", {"scenario": {"precoders": "zf, mrt"},
                                           "simulation": {"snr_db": "3000, 3080"}})
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(p), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_DOMAIN
    assert err.splitlines() == [
        "numerical error: precoder zf gave a non-finite sum rate "
        "(quantizer mvcq, snr 3080.0 dB, trial 0)"]
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("lens-profile", "grid", "dx", "1e-300"),
    ("lens-profile", "grid", "window", "1e200"),
    ("bpm-field", "grid", "dz", "1e-300"),
    ("lens-profile", "grid", "dz", "1e-320"),
    # the default step count, 1.5 f / dz = 1.5e308, times the samples is inf
    ("bpm-field", "lens", "focal_length", "1e308"),
], ids=["dx", "window", "bpm_dz", "profile_dz", "bpm_default_steps"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_allocation_size_inputs_exit_config(tmp_path, capsys, command, section,
                                            key, value):
    """Grids too large for numpy to allocate, or axial steps too fine to
    count in a float, are rejected as configuration errors, not by a
    traceback."""
    p = _small_ini(tmp_path / "huge.ini", {section: {key: value}})
    out = tmp_path / "out"
    rc = main([command, "--config", str(p), "--out-dir", str(out)])
    assert rc == EXIT_CONFIG
    assert "limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scenario, old, new", [
    ("four_user_downlink.ini", "trials = 1000", "trials = 10000000000000"),
    ("four_user_nolens.ini", "[users]", "[array]\nnum_antennas = 10000000\n[users]"),
    ("four_user_downlink.ini", "bits = 6", "bits = 16"),
], ids=["trials", "antennas", "codebook_bits"])
def test_oversized_scenarios_exit_config(tmp_path, capsys, monkeypatch, scenario,
                                         old, new):
    """A rate array, correlation factor or per-trial codebook draw over the
    buffer limit is a configuration error, raised before the kernel
    allocates anything (these would need 1.6 TB, 13 PB and 268 MB)."""
    def no_cell(*args):
        raise AssertionError("a Monte-Carlo trial was drawn")
    monkeypatch.setattr(linklevel, "draw_channel", no_cell)
    text = (ROOT / "scenarios" / scenario).read_text()
    assert old in text
    p = tmp_path / scenario
    p.write_text(text.replace(old, new))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(p), "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_CONFIG
    assert f"over the limit of {linklevel.MAX_BUFFER_VALUES} per array" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_exit_code_for_thread_count_below_one(ini_dir, tmp_path, capsys):
    rc = main(["simulate", "--config", str(ini_dir / "small.ini"),
               "--out-dir", str(tmp_path), "--threads", "0"])
    assert rc == EXIT_CONFIG
    assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["lens-profile", "bpm-field", "fit-gaussian"])
@pytest.mark.parametrize("option", [("--cache-dir", "x"), ("--seed", "1"),
                                    ("--threads", "1"), ("--no-build",)],
                         ids=["cache_dir", "seed", "threads", "no_build"])
def test_optics_commands_refuse_simulate_options(ini_dir, tmp_path, capsys,
                                                 monkeypatch, command, option):
    """The optics commands take only the options they read: a simulate
    option is a usage error (exit 2, no traceback, nothing written)."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(ini_dir / "small.ini"), "--out-dir", "out",
              *option])
    assert exc.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(option)}" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_for_domain_failure(tmp_path, capsys):
    # the array sits closer to the lens than one axial step can reach
    p = tmp_path / "near.ini"
    p.write_text("[users]\nangles = 0\n[array]\nlens_distance = 0.5\n"
                 "[simulation]\ntrials = 1\nsnr_db = 0\n")
    rc = main(["simulate", "--config", str(p), "--out-dir", str(tmp_path)])
    assert rc == EXIT_DOMAIN
    assert "numerical error" in capsys.readouterr().err


def test_exit_code_for_unwritable_output(ini_dir, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    rc = main(["simulate", "--config", str(ini_dir / "small.ini"),
               "--out-dir", str(blocker / "sub"), "--threads", "1"])
    assert rc == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def _run_simulate(ini_dir, out, *extra):
    return main(["simulate", "--config", str(ini_dir / "small.ini"),
                 "--out-dir", str(out), "--threads", "1", *extra])


def test_simulate_writes_one_csv_per_combo(ini_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert _run_simulate(ini_dir, out) == EXIT_OK
    expected = {"unit_zf_mvcq.csv", "unit_zf_rvq.csv", "unit_mrt_mvcq.csv",
                "unit_mrt_rvq.csv", "unit_comparison.csv"}
    assert {p.name for p in out.iterdir()} == expected
    text = (out / "unit_zf_mvcq.csv").read_text()
    assert "# scenario = unit" in text
    assert "# seed = 99" in text
    assert "snr_db,mean_sum_rate,stderr,trials" in text
    assert "np." not in text
    stdout = capsys.readouterr().out
    assert stdout.count("wrote") == 5


def test_simulate_reruns_byte_identical(ini_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    _run_simulate(ini_dir, out1)
    _run_simulate(ini_dir, out2, "--threads", "4")
    for name in ("unit_zf_mvcq.csv", "unit_comparison.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_seed_override(ini_dir, tmp_path):
    base, other, again = tmp_path / "b", tmp_path / "o", tmp_path / "a"
    _run_simulate(ini_dir, base)
    _run_simulate(ini_dir, other, "--seed", "7")
    _run_simulate(ini_dir, again, "--seed", "7")
    assert "# seed = 7" in (other / "unit_zf_rvq.csv").read_text()
    assert (base / "unit_comparison.csv").read_bytes() != \
        (other / "unit_comparison.csv").read_bytes()
    assert (other / "unit_comparison.csv").read_bytes() == \
        (again / "unit_comparison.csv").read_bytes()


def test_ten_db_alone_writes_the_full_grids_ten_db_rows(tmp_path):
    """Every SNR point is evaluated on the same trials, so four_user_downlink
    run at 10 dB alone writes the full grid's 10 dB rows byte for byte."""
    text = (ROOT / "scenarios" / "four_user_downlink.ini").read_text()
    text = re.sub(r"(?m)^trials = .*", "trials = 20", text)
    rows = {}
    for label, ini_text in (("full", text),
                            ("single", re.sub(r"(?m)^snr_db = .*", "snr_db = 10", text))):
        ini, out = tmp_path / f"{label}.ini", tmp_path / label
        ini.write_text(ini_text)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(ini), "--out-dir", str(out)]) == EXIT_OK
        rows[label] = {}
        for path in sorted(out.glob("four_user_downlink_*_*.csv")):
            if path.name.endswith("_comparison.csv"):
                continue
            lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
            assert lines[0] == "snr_db,mean_sum_rate,stderr,trials"
            rows[label][path.name] = [ln for ln in lines[1:]
                                      if float(ln.split(",")[0]) == 10.0]
    assert len(rows["single"]) == 4
    assert all(len(r) == 1 for r in rows["single"].values())
    assert rows["single"] == rows["full"]


def test_failed_set_write_keeps_every_old_csv(ini_dir, tmp_path, capsys):
    """A rerun that cannot write one of its tables, here because a directory
    holds that table's temporary name, exits 4 before any table is replaced:
    every earlier CSV keeps its bytes and no temporary file of the run is
    left beside them."""
    out = tmp_path / "run"
    assert _run_simulate(ini_dir, out) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    (out / "unit_mrt_mvcq.csv.tmp").mkdir()
    assert _run_simulate(ini_dir, out, "--seed", "2") == EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
    assert [p.name for p in out.glob("*.tmp")] == ["unit_mrt_mvcq.csv.tmp"]


# ---------------------------------------------------------------------------
# lens-profile and the --no-build path


@pytest.fixture(scope="module")
def cache_dir(ini_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("cache")
    rc = main(["lens-profile", "--config", str(ini_dir / "small.ini"),
               "--out-dir", str(d)])
    assert rc == EXIT_OK
    return d


def test_lens_profile_sweeps_the_sector(cache_dir):
    files = list(cache_dir.glob("profiles_*.csv"))
    assert len(files) == 1
    lines = files[0].read_text().strip().split("\n")
    data = [ln for ln in lines if not ln.startswith("#") and
            not ln.startswith("aod_deg")]
    assert len(data) == 121                    # -30..30 deg, half-degree steps
    first = [float(t) for t in data[0].split(",")]
    assert first[0] == -30.0
    assert len(first) == 17                    # angle + 16 antennas
    assert np.isclose(sum(first[1:]), 16.0, atol=1e-6)


def test_lens_profile_rerun_byte_identical(ini_dir, cache_dir, tmp_path):
    rc = main(["lens-profile", "--config", str(ini_dir / "small.ini"),
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    name = next(cache_dir.glob("profiles_*.csv")).name
    assert (tmp_path / name).read_bytes() == (cache_dir / name).read_bytes()


def test_no_build_requires_the_cache(ini_dir, tmp_path, capsys):
    rc = main(["simulate", "--config", str(ini_dir / "small.ini"),
               "--out-dir", str(tmp_path), "--no-build", "--threads", "1"])
    assert rc == EXIT_CONFIG
    assert "lens-profile" in capsys.readouterr().err


def test_no_build_serves_cached_profiles(cache_dir, tmp_path):
    """The users and the spot model's anchors lie on swept rows, so every CSV
    read from the cache equals the propagated run's byte for byte."""
    for i, quantizers in enumerate(("mvcq, rvq", "mvcq, mvcq:gaussian, rvq")):
        p = tmp_path / f"served{i}.ini"
        p.write_text(SMALL.replace("quantizers = mvcq, rvq", f"quantizers = {quantizers}"))
        outs = {}
        for mode, extra in (("cached", ["--no-build"]), ("fresh", [])):
            outs[mode] = tmp_path / f"{mode}{i}"
            rc = main(["simulate", "--config", str(p), "--out-dir", str(outs[mode]),
                       "--cache-dir", str(cache_dir), "--threads", "1", *extra])
            assert rc == EXIT_OK
        csvs = {f.name: f.read_bytes() for f in outs["fresh"].iterdir()}
        assert len(csvs) == 1 + 2 * len(quantizers.split(","))
        assert {f.name: f.read_bytes() for f in outs["cached"].iterdir()} == csvs


def test_no_build_refuses_an_angle_between_swept_rows(cache_dir, tmp_path, capsys):
    """A 10.3 deg user is not served the 10.5 deg row: exit 2, naming the
    angle, with nothing written."""
    p = tmp_path / "off_grid.ini"
    p.write_text(SMALL.replace("angles = -10, 10", "angles = -10, 10.3"))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(p), "--out-dir", str(out),
               "--cache-dir", str(cache_dir), "--no-build"])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "no row at 10.3 deg" in err and "drop --no-build" in err
    assert not out.exists()


def test_no_build_rejects_coarse_step_sources(ini_dir, cache_dir, tmp_path, capsys):
    p = tmp_path / "sub.ini"
    p.write_text(SMALL.replace("quantizers = mvcq, rvq",
                               "quantizers = mvcq:sub_bpm:5"))
    rc = main(["simulate", "--config", str(p), "--out-dir", str(tmp_path),
               "--cache-dir", str(cache_dir), "--no-build", "--threads", "1"])
    assert rc == EXIT_CONFIG
    assert "drop --no-build" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda cells: cells[:-3],                       # a write cut short
    lambda cells: [cells[0], "abc", *cells[2:]],
    lambda cells: [cells[0], "nan", *cells[2:]],
    # one entry times 50 plus 10: the row no longer sums to M
    lambda cells: [cells[0], repr(float(cells[1]) * 50 + 10), *cells[2:]],
    # power moved from one antenna to the next: sum kept, one entry negative
    lambda cells: [cells[0], "-1.0", repr(float(cells[2]) + float(cells[1]) + 1.0),
                   *cells[3:]],
], ids=["truncated_row", "non_numeric_token", "non_finite_value", "row_off_sum",
        "negative_entry"])
def test_no_build_rejects_malformed_cache(ini_dir, cache_dir, tmp_path, capsys,
                                          edit):
    src = next(cache_dir.glob("profiles_*.csv"))
    head, _, last = src.read_text().rstrip("\n").rpartition("\n")
    bad_dir = tmp_path / "cache"
    bad_dir.mkdir()
    (bad_dir / src.name).write_text(f"{head}\n{','.join(edit(last.split(',')))}\n")
    out = tmp_path / "out"
    rc = _run_simulate(ini_dir, out, "--cache-dir", str(bad_dir), "--no-build")
    assert rc == EXIT_CONFIG
    assert "rebuild the cache" in capsys.readouterr().err
    assert not out.exists()


def test_no_build_rejects_rows_shorter_than_the_header_m(ini_dir, cache_dir,
                                                         tmp_path, capsys):
    """Rows that are valid 8-antenna profiles under the cache's own,
    consistently hashed M = 16 header are refused when read: exit 2 before
    the run, not a failure inside it."""
    src = next(cache_dir.glob("profiles_*.csv"))
    lines = []
    for line in src.read_text().splitlines():
        if not line.startswith(("#", "aod_deg")):
            aod, *a = map(float, line.split(","))
            a = np.array(a[:8])
            line = ",".join(map(repr, [aod, *(a * (8 / a.sum())).tolist()]))
        lines.append(line)
    bad_dir = tmp_path / "cache"
    bad_dir.mkdir()
    (bad_dir / src.name).write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    rc = _run_simulate(ini_dir, out, "--cache-dir", str(bad_dir), "--no-build")
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "rows of 8 antennas under a header with M = 16.0" in err
    assert "rebuild the cache" in err
    assert not out.exists()


def test_lens_profile_refuses_rows_shorter_than_the_header_m(ini_dir, tmp_path,
                                                            capsys, monkeypatch):
    """A swept table whose rows disagree with its own M is a numerical
    error: exit 3 and no cache file."""
    build = profile_cache.build_profile_table

    def eight_antenna_rows(lens, grid, array):
        table = build(lens, grid, dataclasses.replace(array, num_antennas=8))
        return dataclasses.replace(
            table, params=profile_cache.cache_params(lens, grid, array))

    monkeypatch.setattr(profile_cache, "build_profile_table", eight_antenna_rows)
    rc = main(["lens-profile", "--config", str(ini_dir / "small.ini"),
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "refusing to cache a profile table with rows of 8 antennas" in err
    assert not list(tmp_path.iterdir())


def test_non_finite_profile_is_not_cached(ini_dir, tmp_path, capsys, monkeypatch):
    """A NaN profile is a numerical error: exit 3 and no cache file."""
    monkeypatch.setattr(profile_cache, "antenna_power_profile",
                        lambda lens, grid, array, aod: np.full(array.num_antennas,
                                                               np.nan))
    rc = main(["lens-profile", "--config", str(ini_dir / "small.ini"),
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_DOMAIN
    assert "non-finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("profile", [
    lambda m: np.full(m, 2.0),
    lambda m: np.r_[-1.0, np.full(m - 1, (m + 1.0) / (m - 1))],
], ids=["sums_to_2M", "negative_entry"])
def test_profile_breaking_the_post_condition_is_not_cached(ini_dir, tmp_path,
                                                           capsys, monkeypatch,
                                                           profile):
    """A finite profile that is negative somewhere or does not sum to M is a
    numerical error too: exit 3 and no cache file."""
    monkeypatch.setattr(profile_cache, "antenna_power_profile",
                        lambda lens, grid, array, aod: profile(array.num_antennas))
    rc = main(["lens-profile", "--config", str(ini_dir / "small.ini"),
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_DOMAIN
    assert "refusing to cache" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_failed_rewrite_keeps_the_old_cache(ini_dir, tmp_path, capsys, monkeypatch):
    """A write that fails partway leaves the previous cache byte for byte
    and no temporary file."""
    argv = ["lens-profile", "--config", str(ini_dir / "small.ini"),
            "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    [cache] = tmp_path.iterdir()
    before = cache.read_bytes()
    write_tables = profile_cache.write_tables

    def fails_partway(tables):
        [(path, header, columns, rows)] = tables

        def rows_then_error():
            for i, row in enumerate(rows):
                if i == 60:
                    raise OSError("no space left on device")
                yield row
        write_tables([(path, header, columns, rows_then_error())])

    monkeypatch.setattr(profile_cache, "write_tables", fails_partway)
    assert main(argv) == EXIT_IO
    assert "no space left on device" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cache]
    assert cache.read_bytes() == before


# ---------------------------------------------------------------------------
# fuzzed sizes and caches: the exit-code contract as a property

LIMIT = linklevel.MAX_BUFFER_VALUES


def _run_clean(argv, root, out):
    """main(argv) under the contract: a documented exit code, no exception,
    no RuntimeWarning, no temporary file left under root and no non-finite
    value written to out."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_DOMAIN, EXIT_IO)
    assert not list(pathlib.Path(root).rglob("*.tmp"))
    for f in pathlib.Path(out).glob("*"):
        assert not re.search(r"\b(nan|inf)\b", f.read_text(encoding="utf-8")), f
    return rc


@st.composite
def _sizes(draw):
    """(trials, SNR points, M, bits, K, over): sizes within every buffer cap
    that run in milliseconds, or sizes past one cap by construction."""
    trials, n_snr, bits, k = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                              draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    m = draw(st.integers(1, 16))
    over = draw(st.sampled_from(["", "trials", "snr", "antennas", "bits", "users"]))
    if over == "trials":
        trials = draw(st.integers(LIMIT + 1, 10 ** 15))
    elif over == "snr":          # trials x SNR points x 2 precoders x 2 quantizers
        n_snr = draw(st.integers(1, 2000))
        trials = draw(st.integers(LIMIT // (4 * n_snr) + 1, 10 ** 12))
    elif over == "antennas":     # K correlation factors of 2M x 2M reals
        m = draw(st.integers(2049, 10 ** 9))
    elif over == "bits":         # one trial's K x 2M x 2^B codebook draw
        bits = draw(st.integers(13, 40))
        if bits <= 16:
            m = draw(st.integers(LIMIT // (2 * k * 2 ** bits) + 1, 2048))
    elif over == "users":
        m = draw(st.integers(256, 2048))
        k = draw(st.integers(LIMIT // (4 * m * m) + 1, m))
    return trials, n_snr, m, bits, k, over


@settings(max_examples=40, deadline=None)
@given(sizes=_sizes())
def test_fuzzed_sizes_keep_the_exit_code_contract(sizes):
    """Small sizes run or fail cleanly; a size past a cap exits 2 before
    any profile is built or buffer allocated."""
    trials, n_snr, m, bits, k, over = sizes
    angles = ", ".join(f"{a:g}" for a in np.linspace(-20.0, 20.0, k))
    snr = ", ".join(str(5 * i) for i in range(n_snr))
    text = (SMALL.replace("num_antennas = 16", f"num_antennas = {m}")
            .replace("angles = -10, 10", f"angles = {angles}")
            .replace("bits = 3", f"bits = {bits}")
            .replace("snr_db = 0, 10", f"snr_db = {snr}")
            .replace("trials = 4", f"trials = {trials}"))
    refused = mock.patch.object(linklevel, "build_scenario_profiles",
                                side_effect=AssertionError("an oversized run started"))
    with tempfile.TemporaryDirectory() as d, \
            (refused if over else contextlib.nullcontext()):
        ini, out = pathlib.Path(d, "fuzz.ini"), pathlib.Path(d, "out")
        ini.write_text(text)
        rc = _run_clean(["simulate", "--config", str(ini), "--out-dir", str(out)],
                        d, out)
        if over:
            assert rc == EXIT_CONFIG and not out.exists()


def _truncate(draw, blob):
    return blob[:draw(st.integers(1, max(1, len(blob) - 1)))]


def _flip(draw, blob):
    if not blob:             # earlier steps may leave nothing to flip
        return blob
    i = draw(st.integers(0, len(blob) - 1))
    return blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1:]


def _non_utf8(draw, blob):
    i = draw(st.integers(0, len(blob)))
    bad = draw(st.sampled_from([b"\xff", b"\xc3(", b"\xed\xa0\x80"]))
    return blob[:i] + bad + blob[i:]


def _drop_header_lines(draw, blob):
    lines = blob.split(b"\n")
    header = [i for i, ln in enumerate(lines) if ln.startswith(b"#")]
    if not header:
        return blob
    drop = draw(st.sets(st.sampled_from(header), min_size=1))
    return b"\n".join(ln for i, ln in enumerate(lines) if i not in drop)


def _wrong_m(draw, blob):
    """Keep j < M antennas per row, rescaled to sum to j where they parse."""
    j = draw(st.integers(0, 15))
    lines = []
    for ln in blob.split(b"\n"):
        if ln and not ln.startswith((b"#", b"aod_deg")):
            cells = ln.split(b",")[:j + 1]
            try:
                a = np.array(cells[1:], dtype=float)
            except ValueError:
                a = np.zeros(0)
            with np.errstate(all="ignore"):
                if 0 < a.sum() < np.inf:
                    cells[1:] = [repr(v).encode() for v in (a * (j / a.sum())).tolist()]
            ln = b",".join(cells)
        lines.append(ln)
    return b"\n".join(lines)


CORRUPTIONS = [_truncate, _flip, _non_utf8, _drop_header_lines, _wrong_m]


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3),
       data=st.data())
def test_fuzzed_caches_keep_the_exit_code_contract(ini_dir, cache_dir, steps, data):
    """A cache cut short, with flipped or undecodable bytes, missing header
    lines or rows shorter than its M is served or refused cleanly."""
    src = next(cache_dir.glob("profiles_*.csv"))
    blob = src.read_bytes()
    for corrupt in steps:
        blob = corrupt(data.draw, blob)
    _simulate_on_cache(ini_dir, src.name, blob)


def test_empty_cache_keeps_the_exit_code_contract(ini_dir, cache_dir):
    """A cache file with no bytes at all (truncating, then dropping its only
    header line, leaves one) is refused cleanly."""
    src = next(cache_dir.glob("profiles_*.csv"))
    assert _simulate_on_cache(ini_dir, src.name, b"") == EXIT_CONFIG


def _simulate_on_cache(ini_dir, name, blob):
    """Exit code of a --no-build simulate of small.ini whose only cache file
    is blob, run under the exit-code contract."""
    with tempfile.TemporaryDirectory() as d:
        cache, out = pathlib.Path(d, "cache"), pathlib.Path(d, "out")
        cache.mkdir()
        (cache / name).write_bytes(blob)
        return _run_clean(["simulate", "--config", str(ini_dir / "small.ini"),
                           "--cache-dir", str(cache), "--out-dir", str(out),
                           "--no-build"], d, out)


# ---------------------------------------------------------------------------
# fuzzed scenario grammar: each key's boundary values under each syntax

_REALS = ["-0", "inf", "-inf", "nan", "1e308", "-1e308", "1e-308", "5e-324",
          "1_0", "+5", "٣"]
_INTS = ["0", "-1", "+2", "02", "0_2", "٢", "2.0", ""]


def _reals(*usual):
    return st.sampled_from([*usual, *_REALS])


def _ints(*usual):
    return st.sampled_from([*usual, *_INTS])


def _items(*tokens):
    """Lists of tokens: empty, repeated and in any order."""
    return st.lists(st.sampled_from(tokens), max_size=3).map(", ".join)


# one strategy per cli._SCHEMA key; trials stay at most 2 and M at most 16
_VALUES = {
    ("scenario", "name"): st.sampled_from(
        ["unit", "", ".", "a/b", "%", "50%", "%(x)s", "%(precoders)s", "a%%b",
         "Größe", "名前", "a b", "x;y", "x#y"]),
    ("scenario", "precoders"): _items("zf", "mrt", "ZF", "%(x)s"),
    ("scenario", "quantizers"): _items(
        "mvcq", "rvq", "full", "rvq_corr", "mvcq:bpm", "mvcq:gaussian",
        "mvcq:sub_bpm:5", "mvcq:sub_bpm:05", "mvcq:sub_bpm:٥"),
    ("scenario", "lens"): st.sampled_from(["on", "off", "Yes", "0", "TRUE", "maybe", ""]),
    ("array", "num_antennas"): _ints("16", "4"),
    ("array", "spacing"): _reals("0.5", "0.25"),
    ("array", "lens_distance"): _reals("25", "20"),
    ("lens", "focal_length"): _reals("40", "30"),
    ("lens", "aperture"): _reals("20", "16"),
    ("grid", "dx"): _reals("0.25", "0.125"),
    ("grid", "dz"): _reals("1", "0.5"),
    ("grid", "window"): _reals("80", "64"),
    ("users", "angles"): _items("-10", "10", "0", "-0", "30", "-30.5", "nan", "inf",
                                "5e-324", "1_0", "+5", "٣"),
    ("users", "sigma"): _items("5", "0", "-0", "1e200", "inf", "nan", "1e-308",
                               "5e-324", "1_0", "+5"),
    ("simulation", "bits"): _ints("3", "1", "17"),
    ("simulation", "snr_db"): _items("0", "10", "-0", "3080", "inf", "nan", "1e308",
                                     "-1e308", "5e-324", "1_0", "+5", "٣"),
    ("simulation", "trials"): _ints("1", "2"),
    ("simulation", "seed"): _ints("99", "18446744073709551616", "1.5"),
}

# how a value is written -> (text after '=', the literal the README's grammar
# reads from it); None puts the key in a [DEFAULT] block, which is refused
_SYNTAX = {
    "plain": lambda v: (v, v),
    "spaced_semicolon": lambda v: (f"{v} ; note", v),
    "spaced_hash": lambda v: (f"{v}  # note", v),
    "tight_semicolon": lambda v: (f"{v};{v}", f"{v};{v}"),
    "tight_hash": lambda v: (f"{v}#1", f"{v}#1"),
    "percent": lambda v: (f"{v}%", f"{v}%"),
    "interpolation": lambda v: (f"%(precoders)s{v}", f"%(precoders)s{v}"),
    "continuation": lambda v: (f"{v}\n    1", f"{v}\n1"),
    "default_section": None,
}

# the comparison header's line for each key (others use the key's own name)
_HEADER_KEY = {"name": "scenario", "lens": "lens_enabled", "angles": "user_angles_deg",
               "sigma": "sigma_deg", "dx": "grid_dx", "dz": "grid_dz"}


def _echo(value):
    """value as write_tables writes a header value."""
    if isinstance(value, tuple):
        return ";".join(map(_echo, value))
    return repr(value) if isinstance(value, float) else str(value)


@pytest.mark.parametrize("section, key", list(_VALUES),
                         ids=[f"{sec}.{key}" for sec, key in _VALUES])
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_scenario_grammar_keeps_the_exit_code_contract(section, key, data):
    """One key of a small two-user scenario drawn from its boundary values and
    written in one syntax runs simulate (and, for an optics key or the name,
    every optics command) under the exit-code contract. A non-zero exit writes
    nothing; on exit 0 the comparison header echoes the value that the key's
    parser reads from the literal text, so no value is silently rewritten."""
    value = data.draw(_VALUES[section, key], label="value")
    syntax = data.draw(st.sampled_from(list(_SYNTAX)), label="syntax")
    sections = {"scenario": {"name": "unit", "precoders": "zf"},
                "users": {"angles": "-10, 10"}, "array": {"num_antennas": "16"},
                "grid": {"dx": "0.25"},
                "simulation": {"bits": "3", "snr_db": "0", "trials": "2"}}
    literal = None
    if _SYNTAX[syntax] is None:
        sections.get(section, {}).pop(key, None)
        sections = {"DEFAULT": {key: value}, **sections}
    else:
        text, literal = _SYNTAX[syntax](value)
        sections.setdefault(section, {})[key] = text
    # no space before the value, so a leading '#' or ';' is no comment
    ini_text = "".join(f"[{sec}]\n" + "".join(f"{k}={v}\n" for k, v in kv.items())
                       for sec, kv in sections.items())
    try:
        expected = None if literal is None else cli._SCHEMA[section][key](literal)
    except ValueError:
        expected = None
    commands = [["simulate"]]
    if section in ("lens", "array", "grid") or key == "name":
        commands += [["lens-profile"], ["fit-gaussian"], ["bpm-field", "--steps", "4"]]
    with tempfile.TemporaryDirectory() as d:
        ini = pathlib.Path(d, "fuzz.ini")
        ini.write_text(ini_text, encoding="utf-8")
        for command in commands:
            out = pathlib.Path(d, command[0])
            rc = _run_clean([*command, "--config", str(ini), "--out-dir", str(out)],
                            d, out)
            if rc != EXIT_OK:
                assert not out.exists(), command
                continue
            assert expected is not None, command
            if command[0] == "simulate":
                if key == "sigma" and len(expected) == 1:
                    expected *= 2        # a scalar spread for both users
                [table] = out.glob("*_comparison.csv")
                header = dict(line[2:].partition(" = ")[::2] for line in
                              table.read_text(encoding="utf-8").splitlines()
                              if line.startswith("# "))
                assert header[_HEADER_KEY.get(key, key)] == _echo(expected)


# the boundary values of each option a command takes besides --config and
# --out-dir, passed as --option=value so a leading '-' is no option name
_OPTION_VALUES = {
    "--aod": ["0", "-0", "89.999", "-89.999", "90", "-90", "nan", "inf", "-inf",
              "5e-324"],
    "--steps": ["-1", "0", "1", "4", str(2 ** 23), str(10 ** 12)],
    "--seed": ["-1", "0", str(2 ** 64)],
}
_OPTIONS = {"bpm-field": ("--aod", "--steps"), "simulate": ("--seed",)}


@pytest.mark.parametrize("command", list(_OPTIONS))
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_fuzzed_options_keep_the_exit_code_contract(command, data):
    """Each option drawn from its boundary values, or left out, runs the
    command on a small scenario (320 transverse samples) under the exit-code
    contract. It exits 0 exactly when every value is in range: an angle in
    (-90, 90), a history of 1 to 2^23 / 320 - 1 steps, a nonnegative seed;
    otherwise 2, with nothing written. On exit 0 the header echoes each value."""
    drawn = {opt: data.draw(st.sampled_from([None, *_OPTION_VALUES[opt]]), label=opt)
             for opt in _OPTIONS[command]}
    passed = {opt: v for opt, v in drawn.items() if v is not None}
    aod, steps, seed = (float(passed.get("--aod", 0.0)), passed.get("--steps"),
                        int(passed.get("--seed", 0)))
    in_range = (-90.0 < aod < 90.0 and seed >= 0
                and (steps is None or 1 <= int(steps) <= cli.MAX_FIELD_VALUES // 320 - 1))
    with tempfile.TemporaryDirectory() as d:
        ini = _small_ini(pathlib.Path(d, "fuzz.ini"),
                         {"scenario": {"precoders": "zf"}, "grid": {"dx": "0.25"}})
        out = pathlib.Path(d, "out")
        rc = _run_clean([command, *(f"{opt}={v}" for opt, v in passed.items()),
                         "--config", str(ini), "--out-dir", str(out)], d, out)
        assert rc == (EXIT_OK if in_range else EXIT_CONFIG)
        if rc != EXIT_OK:
            assert not out.exists()
            return
        [table] = out.glob("field_*.csv" if command == "bpm-field" else "*_comparison.csv")
        header = dict(line[2:].partition(" = ")[::2] for line in
                      table.read_text(encoding="utf-8").splitlines()
                      if line.startswith("# "))
    if command == "bpm-field":
        assert header["aod_deg"] == _echo(aod)
        if steps is not None:
            assert header["cols_axial"] == str(int(steps) + 1)
    elif "--seed" in passed:
        assert header["seed"] == str(seed)


# ---------------------------------------------------------------------------
# bpm-field and fit-gaussian


def test_bpm_field_dump_matches_header(ini_dir, tmp_path):
    # ten steps stop short of the focus, so the peak-on-last-plane warning fires
    with pytest.warns(UserWarning, match="final plane"):
        rc = main(["bpm-field", "--config", str(ini_dir / "small.ini"),
                   "--out-dir", str(tmp_path), "--steps", "10"])
    assert rc == EXIT_OK
    cfg = parse_config(str(ini_dir / "small.ini"))
    params = profile_cache.cache_params(cfg.lens, cfg.grid, cfg.array)
    del params["ell"]
    path = tmp_path / f"field_{profile_cache.params_digest(params)}_aod0_steps10.csv"
    lines = path.read_text().strip().split("\n")
    header = {}
    for ln in lines:
        if ln.startswith("#"):
            k, _, v = ln[1:].partition("=")
            header[k.strip()] = v.strip()
    data = np.array([[float(t) for t in ln.split(",")]
                     for ln in lines if not ln.startswith("#")])
    assert data.shape == (int(header["rows_transverse"]),
                          int(header["cols_axial"]))
    assert data.shape[1] == 11
    assert float(header["peak_distance"]) > 0
    # head-on illumination: the dump is mirror-symmetric across the axis
    mirrored = np.roll(data[::-1, :], 1, axis=0)
    assert np.allclose(data, mirrored, atol=1e-6 * data.max())


@pytest.mark.filterwarnings("ignore:intensity peak lies on the final plane")
def test_bpm_field_names_its_dump_by_steps_not_lens_distance(tmp_path):
    """Histories of 10 and 20 steps land in two files; the array distance,
    which no history reads, leaves the file's name and bytes as they were."""
    grid = {"dx": "0.25", "window": "80"}
    written = {}
    for case, ell, steps in (("base", "10", "10"), ("longer", "10", "20"),
                             ("farther", "20", "10")):
        ini = _small_ini(tmp_path / f"{case}.ini",
                         {"grid": grid, "array": {"lens_distance": ell}})
        out = tmp_path / case
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["bpm-field", "--config", str(ini), "--out-dir", str(out),
                         "--steps", steps]) == EXIT_OK
        [path] = out.glob("field_*.csv")
        written[case] = path.name, path.read_bytes()
    assert written["base"][0].endswith("_steps10.csv")
    assert written["longer"][0].endswith("_steps20.csv")
    assert written["farther"] == written["base"]


@pytest.mark.filterwarnings("ignore:intensity peak lies on the final plane")
def test_bpm_field_names_close_angles_apart(tmp_path):
    """Angles equal to six significant digits write two dumps, each named
    by the angle its header records."""
    ini = _small_ini(tmp_path / "close.ini", {"grid": {"dx": "0.25", "window": "80"}})
    out = tmp_path / "out"
    for aod in ("12.3456789", "12.345678"):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["bpm-field", "--config", str(ini), "--out-dir", str(out),
                         "--aod", aod, "--steps", "10"]) == EXIT_OK
    named = {}
    for path in out.glob("field_*.csv"):
        [header] = [ln for ln in path.read_text().splitlines()
                    if ln.startswith("# aod_deg = ")]
        named[re.search(r"_aod(.+)_steps", path.name).group(1)] = header[len("# aod_deg = "):]
    assert named == {"12.3456789": "12.3456789", "12.345678": "12.345678"}


@pytest.mark.parametrize("aod", ["95", "90", "-90", "1e10"])
def test_bpm_field_refuses_an_angle_outside_the_half_plane(tmp_path, capsys, aod):
    """The tilt enters as sin(aod), one-to-one only on (-90, 90) deg, so 95
    deg would write 85 deg's rows under its own name: exit 2, naming the
    angle, with nothing written."""
    out = tmp_path / "out"
    rc = main(["bpm-field", "--config", str(_small_ini(tmp_path / "s.ini", {})),
               "--out-dir", str(out), "--aod", aod, "--steps", "10"])
    assert rc == EXIT_CONFIG
    assert f"departure angle {float(aod)} deg" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["lens-profile", "bpm-field", "fit-gaussian"])
def test_optics_commands_run_on_a_lens_only_file(tmp_path, command):
    """A scenario file with no [users] section, the shape the optics
    benchmark writes, runs every optics command."""
    ini = tmp_path / "focal30.ini"
    ini.write_text("[lens]\nfocal_length = 30\n")
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, "--config", str(ini), "--out-dir", str(out)]) == EXIT_OK
    assert len(list(out.glob("*.csv"))) == 1


def test_fit_gaussian_writes_parameter_table(ini_dir, tmp_path):
    rc = main(["fit-gaussian", "--config", str(ini_dir / "small.ini"),
               "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    files = list(tmp_path.glob("gaussian_fit_*.csv"))
    assert len(files) == 1
    lines = files[0].read_text().strip().split("\n")
    cols = [ln for ln in lines if ln.startswith("theta_deg")]
    assert cols == ["theta_deg,p,q,r,residual_rms,poor_fit"]
    data = [ln for ln in lines if not ln.startswith(("#", "theta_deg"))]
    assert len(data) == 13                     # -30..30 deg, five-degree anchors
    assert data[0].split(",")[0] == "-30.0"


# header lines that report a result, not a setting
RESULT_KEYS = {"rows_transverse", "cols_axial", "peak_distance", "peak_gain_per_cell"}
# one changed value per setting, each giving a valid coarse-grid run
CHANGED = {"focal_length": ("lens", "30"), "aperture": ("lens", "16"),
           "num_antennas": ("array", "32"), "spacing": ("array", "0.25"),
           "lens_distance": ("array", "20"), "dx": ("grid", "0.125"),
           "dz": ("grid", "0.5"), "window": ("grid", "64")}


def _output(directory):
    """(file name, setting lines, rows and result lines, bytes) of the one
    file written to directory."""
    [path] = directory.iterdir()
    raw = path.read_bytes()
    settings, data = [], []
    for line in raw.decode().splitlines():
        key = line[2:].partition(" = ")[0] if line.startswith("# ") else None
        (settings if key and key not in RESULT_KEYS else data).append(line)
    return path.name, settings, data, raw


@pytest.mark.filterwarnings("error")
def test_every_output_names_the_settings_it_depends_on(tmp_path):
    """On a coarse grid, a setting that changes an output's rows or results
    changes its header's setting lines and its file name too; array spacing, which no power profile reads, leaves the
    cache's name and bytes as they were."""
    commands = ("lens-profile", "fit-gaussian", "bpm-field")
    outputs = {}
    for case in ("base", *CHANGED):
        edits = {"grid": {"dx": "0.25", "window": "80"}}
        if case in CHANGED:
            section, value = CHANGED[case]
            edits.setdefault(section, {})[case] = value
        ini = _small_ini(tmp_path / f"{case}.ini", edits)
        for command in commands:
            out = tmp_path / case / command
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([command, "--config", str(ini), "--out-dir", str(out)]) \
                    == EXIT_OK
            outputs[command, case] = _output(out)
    for case in CHANGED:
        changed = False
        for command in commands:
            name, settings, data, _ = outputs[command, "base"]
            other = outputs[command, case]
            if other[2] != data:
                changed = True
                assert other[1] != settings, (command, case)
                assert other[0] != name, (command, case)
        assert changed == (case != "spacing"), case
    assert outputs["lens-profile", "spacing"] == outputs["lens-profile", "base"]


# ---------------------------------------------------------------------------
# cold start

COLD_START = """\
import json, sys
sys.modules["scipy"] = None          # any import of scipy or its submodules now fails
from lensmimo.cli import main
ini, gaussian, out = sys.argv[1:]
print(json.dumps([main([*argv, "--out-dir", out]) for argv in (
    ["lens-profile", "--config", ini],
    ["bpm-field", "--config", ini],
    ["simulate", "--config", ini, "--cache-dir", out, "--no-build"],
    ["fit-gaussian", "--config", ini],
    ["simulate", "--config", gaussian])]))
"""


def test_no_command_loads_scipy(ini_dir, tmp_path):
    """A fresh process in which SciPy cannot be imported runs every command:
    lens-profile, bpm-field, simulate from the cache, fit-gaussian, and a
    simulate whose profiles come from the fitted spot model. Every file is
    opened as UTF-8, so no open falls back to the locale's encoding (an
    EncodingWarning, an error in this process)."""
    gaussian = _small_ini(tmp_path / "gaussian.ini",
                          {"scenario": {"quantizers": "mvcq:gaussian"}})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", COLD_START, str(ini_dir / "small.ini"), str(gaussian),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_OK] * 5
