"""Round-trip and staleness checks for the swept-profile cache."""

import math
from pathlib import Path

import numpy as np
import pytest

from lensmimo import ConfigError, DomainError
from lensmimo.cli import main
from lensmimo.feedback import GAUSSIAN_ANCHORS_DEG
from lensmimo.profile_cache import (SWEEP_DEG, ProfileTable, build_profile_table,
                                    cache_params, params_digest,
                                    read_profile_table, write_profile_table,
                                    write_tables)
from lensmimo.waveoptics import SECTOR_DEG


@pytest.fixture(scope="module")
def table(lens, grid, array):
    return build_profile_table(lens, grid, array)


def test_round_trip_preserves_everything(tmp_path, table):
    path = tmp_path / "profiles.csv"
    write_profile_table(path, table)
    back = read_profile_table(path)
    assert np.array_equal(back.aods_deg, table.aods_deg)
    assert np.array_equal(back.profiles, table.profiles)
    assert back.params == table.params
    assert params_digest(back.params) == params_digest(table.params)
    # a non-finite number is refused wherever it sits, a float or NumPy's:
    # a header scalar, an item of a tuple header value, or a row cell
    for bad in (math.nan, -math.inf, np.float64(math.nan), np.float64(math.inf)):
        for header, rows in (([("f", bad)], [[1.0]]), ([("snr_db", (0.0, bad))], [[1.0]]),
                             ([("f", 40.0)], [[1.0], [bad]]), ([], [["nan", bad]])):
            with pytest.raises(DomainError, match="non-finite"):
                write_tables([(tmp_path / "nan.csv", header, ["a"], rows)])
            assert not list(tmp_path.glob("nan.csv*"))
    # text is written as given, whatever it reads as
    write_tables([(tmp_path / "nan.csv", [("scenario", "nan")], ["a", "b"], [["inf", 1.0]])])
    assert (tmp_path / "nan.csv").read_text() == "# scenario = nan\na,b\ninf,1.0\n"


def test_rewrite_is_byte_identical(tmp_path, table):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_profile_table(p1, table)
    write_profile_table(p2, read_profile_table(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_params_are_all_float(table):
    assert all(isinstance(v, float) for v in table.params.values())


def test_digest_tracks_every_parameter(lens, grid, array):
    base = cache_params(lens, grid, array)
    for key in base:
        bumped = dict(base)
        bumped[key] = base[key] + 1.0
        assert params_digest(bumped) != params_digest(base)


def test_edited_header_is_rejected(tmp_path, table):
    path = tmp_path / "profiles.csv"
    write_profile_table(path, table)
    text = path.read_text().replace("# f = 40.0", "# f = 41.0")
    path.write_text(text)
    with pytest.raises(ConfigError, match="hash"):
        read_profile_table(path)


def test_expected_params_mismatch_rejected(tmp_path, table):
    path = tmp_path / "profiles.csv"
    write_profile_table(path, table)
    other = dict(table.params)
    other["ell"] = 30.0
    with pytest.raises(ConfigError, match="different parameters"):
        read_profile_table(path, expected_params=other)
    # the matching record passes
    read_profile_table(path, expected_params=table.params)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ConfigError, match="no rows"):
        read_profile_table(path)


def test_row_serves_only_swept_angles(table):
    assert np.array_equal(table.row(2.5), table.profiles[65])
    assert np.array_equal(table.row(-0.0), table.profiles[60])
    for off_grid in (2.4, 10.3, 2.5 + 1e-12):
        with pytest.raises(ConfigError, match=rf"no row at {off_grid!r} deg.*"
                                              "drop --no-build"):
            table.row(off_grid)


def test_sector_edges_build_cleanly(table, array):
    assert table.profiles.shape == (121, array.num_antennas)
    assert table.aods_deg[0] == -SECTOR_DEG and table.aods_deg[-1] == SECTOR_DEG
    assert np.allclose(table.profiles.sum(axis=1), array.num_antennas, atol=1e-6)


def test_gaussian_anchors_lie_on_the_sweep():
    """--no-build serves mvcq:gaussian only if every anchor is a swept row."""
    assert np.isin(GAUSSIAN_ANCHORS_DEG, SWEEP_DEG).all()
    assert np.array_equal(SWEEP_DEG, -30.0 + 0.5 * np.arange(121))
    for angles in (GAUSSIAN_ANCHORS_DEG, SWEEP_DEG):
        assert angles.min() == -SECTOR_DEG and angles.max() == SECTOR_DEG


def test_cache_parse_equals_per_token_floats(tmp_path):
    """The one numpy parse of a real lens-profile cache gives the same table
    as float() applied token by token."""
    ini = Path(__file__).resolve().parents[1] / "scenarios" / "four_user_downlink.ini"
    assert main(["lens-profile", "--config", str(ini), "--out-dir", str(tmp_path)]) == 0
    path = next(tmp_path.glob("profiles_*.csv"))
    ref = np.asarray([[float(tok) for tok in line.split(",")]
                      for line in path.read_text().splitlines()
                      if not line.startswith(("#", "aod_deg"))])
    back = read_profile_table(path)
    assert ref.shape == (121, 65)
    assert np.array_equal(back.aods_deg, ref[:, 0])
    assert np.array_equal(back.profiles, ref[:, 1:])


@pytest.mark.parametrize("edit, message", [
    (lambda text: text[:-1] + ",1.0e\n",
     "has an unparsable line (could not convert string to float: '1.0e'); "
     "rebuild the cache"),
    (lambda text: text.rstrip("\n").rpartition(",")[0] + "\n",
     "has rows of unequal length; rebuild the cache"),
    (lambda text: text.replace("# f = 40.0", "# f = 41.0"),
     "header hash does not match its parameters; rebuild the cache"),
    (lambda text: text.replace("# f = 40.0", "# f = forty"),
     "has an unparsable line (could not convert string to float: 'forty'); "
     "rebuild the cache"),
], ids=["bad_token", "short_row", "edited_header", "bad_header"])
def test_malformed_cache_messages(tmp_path, table, edit, message):
    path = tmp_path / "profiles.csv"
    write_profile_table(path, table)
    path.write_text(edit(path.read_text()))
    with pytest.raises(ConfigError) as info:
        read_profile_table(path)
    assert str(info.value) == f"profile cache {path} {message}"


def test_undecodable_cache_is_a_config_error(tmp_path, table):
    """A byte that is not UTF-8 reads as an unparsable line, not a traceback."""
    path = tmp_path / "profiles.csv"
    write_profile_table(path, table)
    path.write_bytes(path.read_bytes()[:-2] + b"\xff\n")
    with pytest.raises(ConfigError, match=r"unparsable line \('utf-8' codec"):
        read_profile_table(path)
