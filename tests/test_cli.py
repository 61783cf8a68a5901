import csv
import hashlib
import math
import multiprocessing.pool
import re
import time
import warnings

import numpy as np
import pytest

from intermod import cli, simulator
from intermod._domain import DB_MAX, SNR_DB_MIN
from intermod.cli import load_config, main, parse_grid
from test_detector import mpmath_error_probability
from test_sumrate import check_calls  # noqa: F401  a fixture: the domain checks a test makes


def pin_cpus(monkeypatch, cpus):
    """Make the CPUs this process may use read as ``cpus``."""
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


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
        assert parse_grid("-10:-10:1") == [-10.0]  # one point, where the range starts and stops

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

    @pytest.mark.parametrize("spec, cast", [
        ("inf:inf:1", float), ("0:inf:3", float), ("-inf:0:2", float), ("nan:1:2", float),
        ("1e308:-1e308:3", float),  # finite endpoints, overflowing span
        ("1e30:1e30:1", int), ("1.5:3:2", int),  # int endpoints are read as ints
        pytest.param("0:" + "9" * 400 + ":3", int, id="int-end-past-the-doubles"),
    ])
    def test_range_endpoints_checked_before_spacing(self, spec, cast):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            parse_grid(spec, cast=cast)

    def test_range_bits_match_numpy_linspace(self):
        rng = np.random.default_rng(2024)
        cases = [(0.0, 0.0, 1), (-3.5, -3.5, 1), (2.0, 2.0, 7), (0.0, -0.0, 1), (-0.0, 0.0, 4)]
        for _ in range(3000):
            start, stop = rng.choice([1e-3, 1.0, 1e3, 1e12]) * rng.uniform(-1.0, 1.0, 2)
            count = int(rng.choice([1, 2, 3, rng.integers(4, 40), rng.integers(40, 3000)]))
            cases.append((float(start), float(start) if count == 1 else float(stop), count))
        for start, stop, count in cases:  # ascending, descending, negative and empty spans
            got = parse_grid(f"{start!r}:{stop!r}:{count}")
            want = np.linspace(start, stop, count)
            assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64)), (
                start, stop, count)
        for start, step, count in rng.integers(-10**6, 10**6, (500, 3)):
            count = abs(int(count)) % 200 + 1
            stop = int(start) + int(step) * (count - 1)
            assert parse_grid(f"{start}:{stop}:{count}", cast=int) == [
                int(v) for v in np.linspace(int(start), stop, count)]

    @pytest.mark.parametrize("spec", ["-10:0:1", "0.1:0.5:1", "1:1.0000000000000002:1"])
    def test_one_point_range_must_start_where_it_stops(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            parse_grid(spec)


class TestConfigFile:
    def test_load(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nk = 12\nbits=500  # trailing\n\n")
        assert load_config(str(path)) == {"k": "12", "bits": "500"}

    def test_bad_line(self, tmp_path, capsys):
        # a line without '=', and a key given again, whose first value would go unread
        path = tmp_path / "bad.cfg"
        for text, where in [("novalue\n", ":1: expected key=value"),
                            ("bits = 10\n# more\nbits = 20\n", ":3: key 'bits' given twice")]:
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(f"{path}{where}")):
                load_config(str(path))
            assert main(["ber", "--config", str(path)]) == 3
            assert where in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("ber", "bitz"), ("sumrate", "m"), ("theory", "pdf_points"), ("weights", "n_grid"),
        ("ber", "k"), ("ber", "m"), ("ber", "rho_phase"),  # the transmitter is fixed
        ("ber", "alpha"), ("ber", "rho"), ("ber", "g"),  # the link is N and the SNR alone
    ])
    def test_unknown_key_rejected(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 5\n")
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

    @pytest.mark.parametrize("grids, checks", [
        ([], 19 + 19 + 2),  # the default grids, two 19-point ranges
        (["--alpha", "0.1,0.5", "--rho", "0:0.9:19"], 2 + 19 + 1),
    ])
    def test_one_check_per_grid_point_and_range_spec(self, tmp_path, grids, checks,
                                                     check_calls):
        assert main(["weights", *grids, "--out", str(tmp_path / "w.csv")]) == 0
        assert check_calls[0] == checks


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


class TestBerCommand:
    def test_defaults_are_the_scenario_defaults(self):
        # the CLI writes the seed's out, so that it can start without numpy
        defaults = {key: default for _, key, _, default, _ in cli.OPTIONS["ber"]}
        assert defaults["seed"] == simulator.ScenarioConfig.master_seed

    def test_jobs_do_not_change_results(self, tmp_path):
        argv = ["ber", "--n", "10,20", "--snr-db=-5,0", "--bits", "4000",
                "--seed", "42"]
        outputs = []
        for jobs in ("1", "4"):
            out = tmp_path / f"b{jobs}.csv"
            assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
            outputs.append(out.read_text().replace(str(out), "OUT"))
        assert outputs[1] == outputs[0]

    def test_jobs_do_not_change_a_multi_chunk_point(self, tmp_path):
        # 2e5 bits are 4 chunks of at most 2^16 trials, which 2 or 4 workers
        # share out; 131073 bits are 3 chunks, the last holding one trial,
        # whose bit is drawn by binomial(1, 1/2)
        for bits in ("200000", "131073"):
            argv = ["ber", "--n", "1000", "--snr-db=-10", "--bits", bits, "--seed", "5"]
            outputs = []
            for jobs in ("1", "2", "4"):
                out = tmp_path / f"b{bits}_{jobs}.csv"
                assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 0
                outputs.append(out.read_text().replace(str(out), "OUT"))
            assert outputs[1] == outputs[0], bits
            assert outputs[2] == outputs[0], bits

    def test_distinct_grid_points_draw_distinct_streams(self, tmp_path, monkeypatch):
        # each (N, SNR) point seeds its chunks from its own spawned master seed
        configs = []
        real = simulator.run_ber_grid

        def recorded(points, jobs):
            configs.extend(points)
            return real(points, jobs)

        monkeypatch.setattr(simulator, "run_ber_grid", recorded)  # cmd_ber imports it as it runs
        assert main(["ber", "--n", "10,20", "--snr-db=-5,0", "--bits", "50", "--seed", "7",
                     "--out", str(tmp_path / "b.csv")]) == 0
        seeds = [cfg.master_seed for cfg in configs]
        assert len(seeds) == 4 and len(set(seeds)) == 4
        first_draws = {
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,))).random()
            for seed in seeds
        }
        assert len(first_draws) == 4

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Worker counts of the pools the simulator starts, on 8 usable CPUs.

        No thread starts: each pool runs its tasks in the calling one.
        """
        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)
                self.processes = processes

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, items, chunksize):
                items = list(items)
                batches, extra = divmod(len(items), 4 * self.processes)
                assert chunksize == batches + bool(extra)  # Pool.starmap's batching
                return map(func, items)

        monkeypatch.setattr(multiprocessing.pool, "ThreadPool", RecordingPool)
        pin_cpus(monkeypatch, 8)
        return started

    # tasks are (grid point, chunk) pairs: --bits 500 is one chunk of 2^16
    # trials, and with the budget cut to 2 trials 6 bits are 3 chunks
    @pytest.mark.parametrize("n_grid, bits, chunk_trials, pools", [
        pytest.param("10", "500", None, [], id="10-500-pools0"),
        pytest.param("10,20", "500", None, [2], id="10,20-500-pools1"),
        pytest.param("100000", "6", 2, [3], id="100000-6-pools2"),
    ])
    def test_at_most_one_worker_per_task(self, tmp_path, monkeypatch, pool_sizes, n_grid,
                                         bits, chunk_trials, pools):
        if chunk_trials is not None:
            monkeypatch.setattr(simulator, "CHUNK_TRIALS", chunk_trials)
        assert main(["ber", "--n", n_grid, "--snr-db=-5", "--bits", bits, "--jobs", "4",
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert pool_sizes == pools

    # 10 chunks of 2^16 trials, so only the CPU count bounds --jobs 1000
    @pytest.mark.parametrize("cpus, pools", [(1, []), (2, [2]), (3, [3])])
    def test_at_most_one_worker_per_usable_cpu(self, tmp_path, monkeypatch, pool_sizes,
                                               cpus, pools):
        pin_cpus(monkeypatch, cpus)
        assert main(["ber", "--n", "100000", "--snr-db=-5", "--bits", "655360", "--jobs", "1000",
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert pool_sizes == pools

    def test_cpu_count_where_there_is_no_affinity_mask(self, tmp_path, monkeypatch,
                                                       pool_sizes):
        monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
        assert main(["ber", "--n", "100000", "--snr-db=-5", "--bits", "655360", "--jobs", "1000",
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert pool_sizes == [3]

    def test_high_snr_point_error_free(self, tmp_path):
        out = tmp_path / "b.csv"
        for snr_db in ("10", "100"):
            assert main(["ber", "--n", "50", "--snr-db", snr_db, "--bits", "20000",
                         "--out", str(out)]) == 0
            _, rows = read_csv(out)
            assert float(rows[0]["analytic_pe"]) < 1e-8
            assert rows[0]["n_errors"] == "0"
            assert rows[0]["within_3sigma"] == "1"

    @pytest.mark.parametrize("n, snr_db, bits", [
        ("10", "340", "100"), ("10", "3000", "100"), ("1000000", "3080", "10"),
        ("1000000", repr(DB_MAX), "10"),  # the top end itself
    ])
    def test_top_of_the_snr_domain_prints_finite_rows(self, tmp_path, n, snr_db, bits):
        # a row wherever theory prints one, with no warning; at N = 1e6 the
        # miss point delta*/(1 + snr) is near 7e-300 at 3080 dB and 4e-300 at
        # DB_MAX, still below every bit-1 variate, so no bit errs
        grid = ["--n", n, f"--snr-db={snr_db}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["ber", *grid, "--bits", bits, "--out", str(tmp_path / "b.csv")]) == 0
        assert main(["theory", *grid, "--out", str(tmp_path / "t.csv")]) == 0
        row = read_csv(tmp_path / "b.csv")[1][0]
        assert all(math.isfinite(float(row[key])) for key in row)
        assert row["n_errors"] == "0"
        assert row["analytic_pe"] == read_csv(tmp_path / "t.csv")[1][0]["pe"]

    def test_analytic_pe_is_theory_pe(self, tmp_path):
        # both come from (N, linear SNR), so the columns agree to the byte
        grid = ["--n", "1000,10000", "--snr-db=-10:0:21"]
        assert main(["theory", *grid, "--out", str(tmp_path / "t.csv")]) == 0
        assert main(["ber", *grid, "--bits", "1", "--out", str(tmp_path / "b.csv")]) == 0
        theory = read_csv(tmp_path / "t.csv")[1]
        ber = read_csv(tmp_path / "b.csv")[1]
        assert [r["analytic_pe"] for r in ber] == [r["pe"] for r in theory]

    def test_ci_definition(self, tmp_path):
        # ci95 is the 95% normal-approximation half-width of the row's BER,
        # from the row's own counts, to the printed digit
        out = tmp_path / "b.csv"
        assert main(["ber", "--n", "10", "--snr-db=-5,0", "--bits", "5000", "--seed", "23",
                     "--out", str(out)]) == 0
        for row in read_csv(out)[1]:
            n_bits, n_errors = int(row["n_bits"]), int(row["n_errors"])
            ber = n_errors / n_bits
            assert n_errors > 0
            assert row["ci95"] == cli._fmt(1.96 * math.sqrt(ber * (1 - ber) / n_bits))

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
     "6d80a5d4856af186ffeec610813d5abfecc505f0438e91823d771239c0244189",
     # manifest lines removed, ber/9, data rows unchanged
     "f8ee575dcb5a48b62f10ba1c94f50b3e2aba1b8fd2dfc80b0186756aae05ba5f"),
    # named for the --rho 0.6 --alpha 0.4 it was first run at, which never moved a row
    (["ber", "--n", "20", "--snr-db=-2.5", "--bits", "20000", "--seed", "3"],
     "97f7280e6f33a85390029277ed767ed3267c5eaa35b8e108ad3c0131b7c445e6",
     # manifest lines removed, ber/9, data rows unchanged
     "901fa36ca23938641cc199a3ad25c8b42de4488c3e88d653386cb220e350d0c0"),
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
    # gamma 0 dB: hundreds of incomplete-gamma continued fractions at s >= 1e5, ~sqrt(s) steps each
    (["sumrate", "--gamma-db", "0", "--rho", "0.461259", "--g", "0.726846,1.441498"],
     "9ba15a4749d39645610e7a425df5064829287c977b1bb386b2552b443e08d321",
     "88b61b5864333125207de6f720714bfad750c0cfd8b1e72c00ec7f65b3a87d8b"),
]
GOLDEN_IDS = ["ber-sweep", "ber-correlated", "sumrate-30db", "sumrate-0db", "weights", "theory",
              "sumrate-0db-long-series"]


@pytest.mark.parametrize(
    "argv, digest", [case[:2] for case in GOLDEN_ROWS], ids=GOLDEN_IDS
)
def test_golden_rows(tmp_path, argv, digest):
    # SHA-256 of the data rows (no '#' lines, joined by newlines) as released
    # in the subcommand's current schema (ber/9, whose rows are ber/8's;
    # the others /1); a change here changes published numbers
    out = tmp_path / "golden.csv"
    assert main(argv + ["--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [case[0] for case in GOLDEN_ROWS[:2]], ids=GOLDEN_IDS[:2])
def test_golden_ber_decisions_clear_their_thresholds(tmp_path, monkeypatch, argv):
    # every golden trial's variate lies at least 1e-9 (relative) from its
    # class's tail point, delta* for bit 0 and delta*/(1 + snr) for bit 1, so
    # rounding in either point (~1e-15) cannot flip a golden bit; a kernel
    # change that makes these bytes hang on rounding fails here
    configs, draws = [], []
    run_grid, chunk_variates = simulator.run_ber_grid, simulator._chunk_variates

    def record_grid(points, jobs):
        configs.extend(points)
        return run_grid(points, jobs=1)  # one process, so every chunk is recorded here

    def record_chunk(*args):
        draws.append(chunk_variates(*args))
        return draws[-1]

    monkeypatch.setattr(simulator, "run_ber_grid", record_grid)
    monkeypatch.setattr(simulator, "_chunk_variates", record_chunk)
    assert main(argv + ["--out", str(tmp_path / "ber.csv")]) == 0
    chunks = iter(draws)
    for config in configs:
        x_fa, x_miss, _ = config.link
        for _ in range(config.n_chunks):
            ones, variates = next(chunks)
            for block, point in ((variates[:ones], x_miss), (variates[ones:], x_fa)):
                assert np.min(np.abs(block / point - 1.0), initial=np.inf) >= 1e-9
    assert next(chunks, None) is None


# Every key the ber subcommand reads, from a config file; jobs is not recorded
GOLDEN_CONFIG = "n_grid = 10,30\nsnr_grid = -6:-2:3\nbits = 3000\nseed = 11\njobs = 2\n"
GOLDEN_FILES = [(argv, digest) for argv, _, digest in GOLDEN_ROWS] + [
    (["ber", "--config", "{cfg}", "--jobs", "1"],  # a flag over a config key
     # manifest lines removed, ber/9, data rows unchanged
     "2c8ee39a5c07141eb130cc619db048fa5f8e4c9ac7a7ad16813f72c3e9630fbd"),
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

    def test_snr_below_the_threshold_floor_is_unreachable(self, tmp_path):
        # -200 dB puts the SU SNR below optimal_threshold's double-precision floor
        out = tmp_path / "s.csv"
        assert main(["sumrate", "--gamma-db", "-200", "--alpha", "0.3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 3 and all(row["n_alpha"] == "" for row in rows)

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
        ["sumrate", "--bits", "10"],
        ["ber", "--k", "8"],  # no subcommand takes the fixed transmitter's knobs
        ["ber", "--m", "64"],
        ["ber", "--rho-phase", "1"],
        ["ber", "--alpha", "0.3"],  # nor any knob of the link but N and the SNR
        ["ber", "--rho", "0.5"],
        ["ber", "--g", "2"],
    ])
    def test_ber_only_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    # (argv, the start of its stderr message) for each rejection that test_domain.py's tables
    # cannot generate: values in their domains that no double can carry, as a link budget or
    # a PDF range; a grid spec that cannot be spaced; a later point of a list; and a flag
    # without the flag it needs
    REJECTIONS = [
        ("sumrate --gamma-db 3000 --g 1000000 --alpha 0.3 --rho 0.1",
         "gamma_db and g give a link budget gamma * g**2 that overflows a double"),
        ("theory --n 1000 --snr-db 3080 --pdf-out {pdf}", "snr_db=3080: the PDF range overflows"),
        ("theory --n 1:2:3", "n_grid: grid points must be ints in '1:2:3'"),
        ("theory --n 1:2", "n_grid: bad grid spec '1:2'; expected start:stop:count"),
        ("ber --n 10 --snr-db=nan:0:3", "snr_grid: grid values must be finite in 'nan:0:3'"),
        ("weights --alpha 0:inf:3", "alpha_grid: grid values must be finite in '0:inf:3'"),
        ("theory --n inf:inf:1", "n_grid: bad grid spec 'inf:inf:1': invalid literal for int"),
        ("theory --n 1e30:1e30:1", "n_grid: bad grid spec '1e30:1e30:1': invalid literal"),
        ("theory --n 10 --snr-db=-10:0:1",
         "snr_grid: a one-point range must start where it stops in '-10:0:1'"),
        ("weights --alpha 0.1:0.5:1",
         "alpha_grid: a one-point range must start where it stops in '0.1:0.5:1'"),
        ("ber --snr-db ,", "snr_grid is an empty grid"),
        ("theory --n 10,1000001", "n_grid: n must be in [1, 1000000], got 1000001"),
        ("theory --n 10 --snr-db 0 --pdf-points 5",
         "pdf_points tabulates nothing without --pdf-out"),
    ]

    @pytest.mark.parametrize("argv", [argv for argv, _ in REJECTIONS], ids=[
        argv.replace(" --", "--").replace(" ", "=") for argv, _ in REJECTIONS])
    def test_rejected_at_once_naming_its_cause(self, argv, tmp_path, capsys):
        self.assert_rejected(argv, tmp_path, capsys)

    # rows of the table under the test IDs they had before it
    @pytest.mark.parametrize("argv", [
        pytest.param("theory --n inf:inf:1", id="argv20"),
        pytest.param("weights --alpha 0:inf:3", id="argv21"),
        pytest.param("theory --n 10,1000001", id="argv24"),
    ])
    def test_bad_number_rejected_at_once(self, argv, tmp_path, capsys):
        self.assert_rejected(argv, tmp_path, capsys)

    @pytest.mark.parametrize("argv", [
        pytest.param("theory --n inf:inf:1", id="argv0-n_grid-'inf:inf:1'"),
        pytest.param("weights --alpha 0:inf:3", id="argv1-alpha_grid-'0:inf:3'"),
    ])
    def test_bad_grid_message_names_key_and_spec(self, argv, tmp_path, capsys):
        self.assert_rejected(argv, tmp_path, capsys)

    @pytest.mark.parametrize("argv", [pytest.param("theory --n 10,1000001", id="argv0-n_grid")])
    def test_n_above_domain_names_key(self, argv, tmp_path, capsys):
        self.assert_rejected(argv, tmp_path, capsys)

    def assert_rejected(self, argv, tmp_path, capsys):
        """Exit 3 within 1 s, stderr one line starting with the row's message, no warning
        and no output file."""
        message = dict(self.REJECTIONS)[argv]
        out, pdf = tmp_path / "out.csv", tmp_path / "pdf.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            assert main([arg.format(pdf=pdf) for arg in argv.split()] + ["--out", str(out)]) == 3
            assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid-parameter: {message}")
        assert err.count("\n") == 1 and caught == []  # one line: no traceback, no warning
        assert not out.exists() and not pdf.exists()

    @pytest.mark.parametrize("snr_db", [
        "4000",  # 10^400 overflows a double
        "-3000",  # 1 + 10^-300 rounds to 1: no threshold
    ], ids=["overflow", "floor"])
    def test_theory_and_ber_print_one_snr_db_message(self, snr_db, capsys):
        # theory and ber check a point's snr_db against one domain, whose ends are where
        # the ratio overflows and where the threshold vanishes, so one bad snr_db prints one
        # message, which states both ends
        errors = []
        for command in ("theory", "ber"):
            assert main([command, "--n", "10", f"--snr-db={snr_db}"]) == 3
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1] == (
            f"error: invalid-parameter: snr_grid: snr_db must be in [{SNR_DB_MIN!r}, "
            f"{DB_MAX!r}], got {float(snr_db)!r}\n")

    def test_n_at_domain_edge_accepted(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["theory", "--n", "1000000", "--snr-db=-20", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert 0.0 < float(rows[0]["pe"]) < 0.5

    @pytest.mark.parametrize("argv", [
        ["theory", "--out", "{tmp}/missing/t.csv"],  # the output's directory does not exist
        ["ber", "--config", "{tmp}/missing.cfg"],
    ], ids=["out", "config"])
    def test_unreadable_or_unwritable_path_exits_4(self, argv, tmp_path, capsys):
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 4
        assert capsys.readouterr().err.startswith("error: io: ")
