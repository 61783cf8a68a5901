import csv
import hashlib
import math
import time

import numpy as np
import pytest

from intermod import cli
from intermod.cli import load_config, main, parse_grid
from test_detector import mpmath_error_probability


def read_csv(path):
    comments, rows = [], []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    data_lines = []
    for line in lines:
        (comments if line.startswith("#") else data_lines).append(line)
    reader = csv.DictReader(data_lines)
    rows = list(reader)
    return comments, rows


class TestParseGrid:
    def test_range_syntax(self):
        assert parse_grid("0:1:3") == [0.0, 0.5, 1.0]
        assert parse_grid("1:3:3", cast=int) == [1, 2, 3]

    def test_comma_list(self):
        assert parse_grid("1,10,100", cast=int) == [1, 10, 100]

    def test_single_value(self):
        assert parse_grid("0.5") == [0.5]

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_grid("0:1")
        with pytest.raises(ValueError):
            parse_grid("a,b")
        with pytest.raises(ValueError):
            parse_grid("0:1:0")
        with pytest.raises(ValueError):
            parse_grid("1:2:3", cast=int)  # int grids take no fractional point


class TestConfigFile:
    def test_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nk = 12\nbits=500  # trailing\n\n")
        assert load_config(str(path)) == {"k": "12", "bits": "500"}

    def test_bad_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("novalue\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    @pytest.mark.parametrize("command, key", [
        ("ber", "bitz"), ("sumrate", "m"), ("theory", "pdf_points"), ("weights", "n_grid"),
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 5\n")
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "invalid-parameter" in err and key in err

    @pytest.mark.parametrize("command, key", [
        ("weights", "alpha_grid"), ("theory", "n_grid"), ("sumrate", "alpha_grid"),
        ("sumrate", "rho_grid"), ("ber", "snr_grid"),
    ])
    def test_empty_grid_rejected(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} =\n")
        assert main([command, "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "invalid-parameter" in err and key in err

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bits = 4000\nseed = 9\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["ber", "--config", str(cfg), "--n", "10", "--snr-db", "-5"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--bits", "2000", "--out", str(out2)]) == 0
        _, rows1 = read_csv(out1)
        _, rows2 = read_csv(out2)
        assert rows1[0]["n_bits"] == "4000"  # from config
        assert rows2[0]["n_bits"] == "2000"  # flag wins


class TestWeightsCommand:
    def test_values_and_manifest(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["weights", "--alpha", "0,0.2", "--rho", "0,0.8",
                     "--out", str(out)]) == 0
        comments, rows = read_csv(out)
        assert comments[0].startswith("# intermod weights schema=weights/")
        by_key = {(r["alpha"], r["rho_mag"]): r for r in rows}
        zero = by_key[("0", "0")]
        assert float(zero["xi_oracle"]) == pytest.approx(1.0, abs=1e-12)
        pt = by_key[("0.2", "0.8")]
        assert float(pt["xi_oracle"]) == pytest.approx(29 / 18, abs=1e-10)
        assert float(pt["xi_paper_printed"]) == pytest.approx(37 / 18, abs=1e-10)

    def test_byte_identical_rerun(self, tmp_path):
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w1.csv"  # same path: manifest identical
        argv = ["weights", "--alpha", "0:0.9:10", "--rho", "0:0.9:10"]
        assert main(argv + ["--out", str(out1)]) == 0
        first = out1.read_bytes()
        assert main(argv + ["--out", str(out2)]) == 0
        assert out2.read_bytes() == first

    def test_rejects_out_of_domain_grid(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert main(["weights", "--alpha", "0,1.5", "--out", str(out)]) == 3
        assert "invalid-parameter" in capsys.readouterr().err
        assert main(["weights", "--rho", "0,1.0", "--out", str(out)]) == 3
        assert "rho_mag" in capsys.readouterr().err
        assert not out.exists()


class TestTheoryCommand:
    @pytest.mark.parametrize("n, snr_db", [(1000, 0.0), (2000, 0.0), (200, 10.0)])
    def test_deep_tail_rows_against_mpmath(self, tmp_path, n, snr_db):
        # P_e is 4.5e-28, 3.9e-54 and 2.7e-60 here, far below 1 - P's resolution
        out = tmp_path / "t.csv"
        assert main(["theory", "--n", str(n), f"--snr-db={snr_db}", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        want = mpmath_error_probability(n, 10 ** (snr_db / 10))
        assert float(rows[0]["pe"]) == pytest.approx(float(want), rel=1e-10, abs=0.0)

    def test_n1_snr0(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["theory", "--n", "1", "--snr-db", "0", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0]["pe"]) == pytest.approx(0.375, abs=1e-12)
        assert float(rows[0]["threshold"]) == pytest.approx(2 * math.log(2), abs=1e-12)

    def test_thresholds_positive(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["theory", "--n", "1,10,100", "--snr-db=-10:10:5",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(float(r["threshold"]) > 0 for r in rows)

    def test_pdf_integrates_to_one(self, tmp_path):
        out = tmp_path / "t.csv"
        pdf = tmp_path / "pdf.csv"
        assert main(["theory", "--n", "1,20", "--snr-db", "0",
                     "--out", str(out), "--pdf-out", str(pdf)]) == 0
        _, rows = read_csv(pdf)
        for n in ("1", "20"):
            pts = [(float(r["epsilon"]), float(r["density"]))
                   for r in rows if r["n"] == n]
            eps, dens = map(np.array, zip(*pts))
            assert np.trapezoid(dens, eps) == pytest.approx(1.0, abs=1e-3)


    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_nonpositive_pdf_points_rejected(self, tmp_path, capsys, points):
        pdf = tmp_path / "p.csv"
        assert main(["theory", "--pdf-out", str(pdf), "--pdf-points", points]) == 3
        assert "pdf_points" in capsys.readouterr().err
        assert not pdf.exists()


class TestBerCommand:
    def test_jobs_do_not_change_results(self, tmp_path):
        out1 = tmp_path / "b1.csv"
        out2 = tmp_path / "b1.csv"
        argv = ["ber", "--n", "10,20", "--snr-db=-5,0", "--bits", "4000",
                "--seed", "42"]
        assert main(argv + ["--jobs", "1", "--out", str(out1)]) == 0
        first = out1.read_bytes()
        assert main(argv + ["--jobs", "4", "--out", str(out2)]) == 0
        assert out2.read_bytes() == first

    @pytest.mark.parametrize("n_grid, pools", [("10", []), ("10,20", [2])])
    def test_at_most_one_worker_per_point(self, tmp_path, monkeypatch, n_grid, pools):
        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return [func(item) for item in items]

        monkeypatch.setattr(cli.multiprocessing, "Pool", RecordingPool)
        assert main(["ber", "--n", n_grid, "--snr-db=-5", "--bits", "500", "--jobs", "4",
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert started == pools

    def test_high_snr_point_error_free(self, tmp_path):
        out = tmp_path / "b.csv"
        for snr_db in ("10", "100"):
            assert main(["ber", "--n", "50", "--snr-db", snr_db, "--bits", "20000",
                         "--out", str(out)]) == 0
            _, rows = read_csv(out)
            assert float(rows[0]["analytic_pe"]) < 1e-8
            assert rows[0]["n_errors"] == "0"
            assert rows[0]["within_3sigma"] == "1"

    def test_schema(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["ber", "--n", "10", "--snr-db", "-5", "--bits", "2000",
                     "--out", str(out)]) == 0
        comments, rows = read_csv(out)
        assert list(rows[0].keys()) == [
            "n", "snr_db", "n_bits", "n_errors", "ber", "analytic_pe", "ci95",
            "within_3sigma",
        ]
        assert any("seed=0" in c for c in comments)


GOLDEN_ROWS = [
    (["ber", "--n", "10,100", "--snr-db=-10:0:5", "--bits", "8192", "--seed", "7"],
     "feeac0b490ba72b667ca45ff677c35e3fd65c7ed0ca09d4501d736e4cd0b49ac",
     "d77232b924f7521270dfc3b9c738d0095bcb79ba86cf3f31b84d01454086660c"),
    (["ber", "--n", "20", "--snr-db=-2.5", "--bits", "20000", "--rho", "0.6",
      "--rho-phase", "1.1", "--alpha", "0.4", "--m", "8", "--seed", "3"],
     "06fce5de560c7c238b3fcc0175c55c125060235074da50964cadbccc1913b4d4",
     "769a991bb7bcab8ba4f981e10bec3a0aec1c63284f967e3c5997f2e233e308dd"),
    (["sumrate", "--gamma-db", "30", "--rho", "0.1,0.5", "--g", "1.0"],
     "f3c59c0b99eb548e3c3b9fc2b9be1be65e45383ea1761e3d7122db384fc93163",
     "9aa1ed887d775c8deda2afc2bfa79f17ee27835d584ba15794b59f1fb40d8045"),
    (["sumrate", "--gamma-db", "0", "--rho", "0.3", "--g", "0.8,1.5", "--alpha", "0:0.9:10"],
     "80a8bd5f5c2a234805846fe0050f73b5b76d392c804ec85b0252a2629d3867ca",
     "cd0103c33e47397f50a3951f5f2339669d38ff0952e708d3cf0deacbd92f14af"),
    (["weights", "--alpha", "0:0.9:7", "--rho", "0:0.9:7"],
     "e0d93f02c9bb78bf95b2357eb353e6fff329b8082b5694207bda9bf682eb7fca",
     "5632fa4f4406a228f5de414b8eac6c1627e078ea08994108d519e7a0b15c5031"),
    (["theory"],
     "a15a3018e9c388ce9846a4f8792a1755ac5362010974b1aa7b98bac92ee6f942",
     "f2052f2d0b41b4051f196f60b222d0743fdcec51d0e29b2fb64727e0c1d9bb10"),
]
GOLDEN_IDS = ["ber-sweep", "ber-correlated", "sumrate-30db", "sumrate-0db", "weights", "theory"]


@pytest.mark.parametrize(
    "argv, digest", [case[:2] for case in GOLDEN_ROWS], ids=GOLDEN_IDS
)
def test_golden_rows(tmp_path, argv, digest):
    # SHA-256 of the data rows (no '#' lines, joined by newlines) as released
    # in schema version 1; a change here changes published numbers
    out = tmp_path / "golden.csv"
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


# Every key the ber subcommand reads, from a config file; jobs is not recorded
GOLDEN_CONFIG = (
    "n_grid = 10,30\nsnr_grid = -6:-2:3\nbits = 3000\nseed = 11\njobs = 2\n"
    "alpha = 0.25\nrho = 0.4\nrho_phase = 0.7\ng = 1.2\nk = 6\nm = 16\n"
)
GOLDEN_FILES = [(argv, digest) for argv, _, digest in GOLDEN_ROWS] + [
    (["ber", "--config", "{cfg}", "--g", "0.9"],
     "328ee1a225850bd0fee8c42bd0734541e47a3d3a414555f3e290903116a4dd99"),
    (["theory", "--n", "1,20", "--snr-db=-3,0", "--pdf-points", "50", "--pdf-out", "{pdf}"],
     "94f5fd98a02953ceaa2d416f8aecff38c07ded33f936029a5344910168b0fb04"),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN_FILES, ids=GOLDEN_IDS + ["ber-config", "theory-pdf"]
)
def test_golden_files(tmp_path, capsys, argv, digest):
    # SHA-256 of everything written: the CSV on stdout (manifest, rows and
    # footers, with out=-) followed by the --pdf-out file, if any
    cfg, pdf = tmp_path / "run.cfg", tmp_path / "pdf.csv"
    cfg.write_text(GOLDEN_CONFIG)
    argv = [arg.format(cfg=cfg, pdf=pdf) for arg in argv]
    assert main(argv + ["--out", "-"]) == 0
    written = capsys.readouterr().out.encode()
    if "--pdf-out" in argv:
        written += pdf.read_bytes()
    assert hashlib.sha256(written).hexdigest() == digest


class TestSumrateCommand:
    def test_alpha_zero_row(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sumrate", "--rho", "0.1", "--alpha", "0,0.1",
                     "--out", str(out)]) == 0
        comments, rows = read_csv(out)
        base = next(r for r in rows if r["alpha"] == "0")
        assert float(base["pu_rate"]) == pytest.approx(math.log2(1001), abs=1e-10)
        assert round(float(base["pu_rate"]), 2) == 9.97
        assert base["n_alpha"] == ""
        assert base["su_rate"] == "0"
        assert any(c.startswith("# max_total") for c in comments)

    def test_none_rows_have_zero_su_rate(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sumrate", "--rho", "0.9", "--alpha", "1e-4,2e-4",
                     "--n-max", "100", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert row["n_alpha"] == ""
            assert row["su_rate"] == "0"


class TestUsageErrors:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["weights", "--bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["weights", "--seed", "1"],
        ["theory", "--jobs", "2"],
        ["sumrate", "--seed", "1"],
        ["sumrate", "--m", "64"],
    ])
    def test_ber_only_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["ber", "--m", "0"],
        ["theory", "--snr-db=nan"],
        ["sumrate", "--gamma-db=nan"],
        ["sumrate", "--pe-target=inf"],
        ["ber", "--n", "10", "--snr-db=nan:0:3"],
        ["theory", "--n", "10", "--snr-db=-400"],
        ["ber", "--n", "10", "--snr-db=-400", "--bits", "100"],
        ["sumrate", "--gamma-db", "4000", "--alpha", "0.1"],
        ["theory", "--n", "10", "--snr-db=4000"],
        ["ber", "--n", "10", "--snr-db=4000", "--bits", "100"],
        ["ber", "--n", "10", "--snr-db=-4000", "--bits", "100"],
        ["sumrate", "--gamma-db=-4000", "--alpha", "0.1", "--rho", "0.1"],
        ["ber", "--n", "10", "--snr-db=3000", "--bits", "100"],
        ["ber", "--n", "10", "--snr-db=340", "--bits", "100"],
        ["theory", "--n", "1:2:3"],
        ["theory", "--n", "2.7"],
        ["weights", "--alpha="],
        ["theory", "--n="],
        ["sumrate", "--alpha="],
        ["ber", "--snr-db", ","],
    ])
    def test_bad_number_rejected_at_once(self, argv, capsys):
        start = time.monotonic()
        assert main(argv) == 3
        assert time.monotonic() - start < 1.0
        assert "invalid-parameter" in capsys.readouterr().err

    def test_bad_grid_exit_code(self, capsys):
        assert main(["theory", "--n", "1:2"]) == 3
        assert "invalid-parameter" in capsys.readouterr().err
