import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

import fracheat
from fracheat import Scheme
from fracheat.cli import RunConfig, main, parse_config, render_config

OPTION_NAMES = [f.name for f in fields(RunConfig) if f.name != "command"]


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_defaults(self):
        cfg = parse_config(["eigen"])
        assert cfg.command == "eigen"
        assert cfg.alpha == 1.5
        assert cfg.scheme is Scheme.NEW
        assert cfg.format == "csv"

    def test_flags(self):
        cfg = parse_config(
            ["solve", "--alpha", "1.4", "--n", "50", "--dt", "1e-4",
             "--t-final", "0.02", "--scheme", "grunwald", "--ic", "eigen",
             "--format", "json"]
        )
        assert cfg.alpha == 1.4
        assert cfg.n == 50
        assert cfg.dt == 1e-4
        assert cfg.t_final == 0.02
        assert cfg.scheme is Scheme.GRUNWALD
        assert cfg.ic == "eigen"
        assert cfg.format == "json"

    def test_n_list(self):
        cfg = parse_config(["converge", "--n-list", "25,50,100"])
        assert cfg.n_list == (25, 50, 100)

    def test_config_file_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 1.3  # comment\nn = 40\nscheme = grunwald\n")
        cfg = parse_config(["solve", "--config", str(path), "--alpha", "1.7"])
        assert cfg.alpha == 1.7  # flag wins
        assert cfg.n == 40
        assert cfg.scheme is Scheme.GRUNWALD

    def test_config_file_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        assert main(["solve", "--config", str(path)]) == 2

    def test_config_file_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha 1.5\n")
        assert main(["solve", "--config", str(path)]) == 2

    @pytest.mark.parametrize("seed", range(50))
    def test_render_parse_round_trip(self, seed):
        import random

        rng = random.Random(seed)
        cfg = RunConfig(
            command=rng.choice(["weights", "eigen", "solve", "converge", "compare"]),
            alpha=rng.uniform(1.01, 2.0),
            n=rng.choice([None, rng.randrange(3, 500)]),
            n_list=tuple(sorted(rng.sample(range(10, 400), rng.randrange(0, 4)))),
            dt=rng.choice([None, rng.uniform(1e-6, 1e-4)]),
            t_final=rng.uniform(0.001, 0.1),
            scheme=rng.choice(list(Scheme)),
            ic=rng.choice(["gaussian", "eigen", "power"]),
            mu=rng.uniform(0.2, 0.8),
            sigma2=rng.uniform(1e-4, 1e-2),
            power_a=rng.uniform(-2, 2),
            power_b=rng.uniform(-2, 2),
            n_reference=rng.choice([None, rng.randrange(1000, 5000)]),
            out=rng.choice([None, "result.csv"]),
            format=rng.choice(["csv", "json"]),
        )
        assert parse_config(render_config(cfg)) == cfg


# One value per option, each different from the default.
SAMPLE_VALUES = {
    "alpha": "1.3",
    "n": "40",
    "n_list": "16,32",
    "dt": "0.002",
    "t_final": "0.05",
    "scheme": "grunwald",
    "ic": "power",
    "mu": "0.6",
    "sigma2": "0.001",
    "power_a": "-0.5",
    "power_b": "2.5",
    "n_reference": "1023",
    "out": "result.json",
    "format": "json",
}


class TestOneConfigPath:
    def test_every_option_has_a_sample(self):
        assert set(SAMPLE_VALUES) == set(OPTION_NAMES)

    @pytest.mark.parametrize("name", OPTION_NAMES)
    def test_flag_and_config_file_agree(self, name, tmp_path):
        value = SAMPLE_VALUES[name]
        path = tmp_path / "run.cfg"
        path.write_text(f"{name} = {value}\n")
        flag = "--" + name.replace("_", "-")
        from_flag = parse_config(["solve", flag, value])
        assert from_flag == parse_config(["solve", "--config", str(path)])
        assert getattr(from_flag, name) != getattr(parse_config(["solve"]), name)

    def test_negative_exponent_value_round_trips(self):
        cfg = RunConfig(command="solve", power_a=-1e-05, power_b=-2.5e-07)
        assert parse_config(render_config(cfg)) == cfg


# Non-finite times, overflowing step counts, sizes below 3 in an n-list and
# alpha below 1.01 on eigen paths are usage errors, never tracebacks.
USAGE_ERRORS = [
    ["solve", "--t-final", "inf"],
    ["solve", "--t-final", "nan"],
    ["solve", "--dt", "nan"],
    ["solve", "--t-final", "1e308", "--dt", "1e-308"],
    ["solve", "--dt", "1e-30"],  # 1e28 steps: over the step budget
    ["compare", "--n-list", "10", "--t-final", "nan"],
    ["compare", "--n-list", "10", "--t-final", "inf"],
    ["converge", "--ic", "eigen", "--n-list", "16", "--t-final", "nan"],
    ["converge", "--ic", "eigen", "--n-list", "16", "--t-final", "inf"],
    ["converge", "--ic", "power", "--n-list", "-1"],
    ["converge", "--ic", "eigen", "--n-list", "-1"],
    ["compare", "--n-list", "-1"],
    ["eigen", "--alpha", "1.005"],
    ["solve", "--ic", "eigen", "--alpha", "1.005"],
    ["converge", "--ic", "eigen", "--alpha", "1.0095", "--n-list", "16"],
]


class TestUsageErrors:
    def assert_usage_error(self, argv, tmp_path, capsys):
        # set-up fails before the first byte: nothing on stdout, no --out file
        out_path = tmp_path / "x"
        for args in (argv, argv + ["--out", str(out_path)]):
            code, out, err = run_main(args, capsys)
            assert code == 2
            assert out == ""
            assert "fracheat: usage error" in err or "fracheat: error:" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_argv(self, argv, tmp_path, capsys):
        self.assert_usage_error(argv, tmp_path, capsys)

    # the last line is not UTF-8: a usage error naming the file, not a traceback
    @pytest.mark.parametrize(
        "line", ["scheme = bogus", "t_final = nan", "n = 1.5", b"\xff\xfe alpha = 1.4"]
    )
    def test_config_file_value(self, line, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes((line if isinstance(line, bytes) else line.encode()) + b"\n")
        self.assert_usage_error(["solve", "--config", str(path)], tmp_path, capsys)
        if isinstance(line, bytes):
            assert str(path) in run_main(["solve", "--config", str(path)], capsys)[2]


FUZZ_BAD = ["nan", "inf", "-inf", "-1", "0", "1e999", "", "x", "1,,x"]
FUZZ_GOOD = {
    "alpha": ["1.3", "1.7", "2.0"],
    "n": ["3", "16", "64"],
    "n_list": ["8,16", "4,8", "64"],
    "dt": ["0.001", "0.005"],
    "t_final": ["0", "0.005", "0.02"],
    "scheme": ["new", "grunwald"],
    "ic": ["gaussian", "eigen", "power"],
    "mu": ["0.3", "0.5"],
    "sigma2": ["0.001", "0.01"],
    "power_a": ["-0.5", "2"],
    "power_b": ["0", "-1e-3"],
    "n_reference": ["200", "600"],
    "format": ["csv", "json"],
}
FUZZ_CONFIG_LINES = ["alpha = 1.5", "n_list = 8, 16", "scheme = bogus", "bogus = 1",
                     "n = abc", "alpha 1.5", "t_final = nan", "# comment only"]


class TestArgvFuzz:
    @pytest.mark.parametrize("seed", range(40))
    def test_exit_code_in_contract(self, seed, tmp_path, capsys):
        rng = random.Random(seed)
        command = rng.choice(["weights", "eigen", "solve", "converge", "compare"])
        # small defaults first, so every run stays cheap; later flags override them
        argv = [command, "--n", "16", "--n-list", "8,16", "--t-final", "0.01"]
        for name in rng.sample(sorted(FUZZ_GOOD) + ["out"], rng.randrange(1, 4)):
            if name == "out":
                value = str(tmp_path / rng.choice(["o.csv", "missing/o.csv"]))
            elif rng.random() < 0.5:
                value = rng.choice(FUZZ_BAD)
            else:
                value = rng.choice(FUZZ_GOOD[name])
            argv.append(f"--{name.replace('_', '-')}={value}")
        if rng.random() < 0.3:
            path = tmp_path / "run.cfg"
            path.write_text("\n".join(rng.sample(FUZZ_CONFIG_LINES, 2)) + "\n")
            argv += ["--config", str(path)]
        code, _, _ = run_main(argv, capsys)
        assert code in {0, 2, 3, 4}, argv


class TestExitCodes:
    def test_bad_alpha_is_usage_error(self, capsys):
        code, _, err = run_main(["eigen", "--alpha", "2.5"], capsys)
        assert code == 2
        assert "usage error" in err

    def test_unwritable_out_is_io_error(self, capsys):
        code, _, err = run_main(
            ["eigen", "--out", "/nonexistent-dir/x.csv"], capsys
        )
        assert code == 4

    def test_missing_config_file_is_io_error(self, capsys):
        code, _, _ = run_main(["eigen", "--config", "/no/such/file"], capsys)
        assert code == 4

    def test_success(self, capsys):
        code, out, _ = run_main(["eigen", "--alpha", "2.0"], capsys)
        assert code == 0
        assert "alpha,c,series_terms" in out


class TestCommands:
    def test_weights_csv(self, capsys):
        code, out, _ = run_main(["weights", "--alpha", "2.0", "--n", "4"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "k,w_k,partial_sum"
        w0 = float(lines[2].split(",")[1])
        w1 = float(lines[3].split(",")[1])
        assert w0 == pytest.approx(1.0, rel=1e-12)
        assert w1 == pytest.approx(-2.0, rel=1e-12)

    def test_weights_json(self, capsys):
        code, out, _ = run_main(
            ["weights", "--alpha", "1.5", "--n", "8", "--format", "json"], capsys
        )
        data = json.loads(out)
        assert len(data["w"]) == 9
        assert data["scheme"] == "new"

    def test_eigen_classical(self, capsys):
        code, out, _ = run_main(
            ["eigen", "--alpha", "2.0", "--format", "json"], capsys
        )
        data = json.loads(out)
        assert data["c"] == pytest.approx(-9.869604401089358, abs=1e-8)

    def test_solve_csv_shape(self, capsys):
        code, out, _ = run_main(
            ["solve", "--alpha", "1.5", "--n", "10", "--t-final", "0.01",
             "--dt", "0.005"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "t,x,u"
        assert len(lines) == 2 + 3 * 10  # 3 recorded times x 10 nodes

    def test_converge_eigen_csv(self, capsys):
        code, out, _ = run_main(
            ["converge", "--ic", "eigen", "--alpha", "1.4",
             "--n-list", "32,64", "--t-final", "0.05"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "scheme,alpha,n,h,dt,norm,error,observed_order"
        assert len(lines) == 4

    def test_compare_has_both_schemes(self, capsys):
        code, out, _ = run_main(
            ["compare", "--alpha", "1.4", "--n-list", "16,32",
             "--t-final", "0.05", "--n-reference", "263", "--format", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        schemes = {r["scheme"] for r in data["rows"]}
        assert schemes == {"new", "grunwald"}

    def test_out_file_written(self, tmp_path, capsys):
        path = tmp_path / "eig.csv"
        code, out, _ = run_main(["eigen", "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert "alpha,c,series_terms" in path.read_text()


# sha256 of `solve` output on stdout and in --out; the bytes of a fixed config never change
SOLVE_DIGESTS = {
    "--alpha 1.4 --n 20 --t-final 0.01 --ic eigen --format csv":
        "e19d3a2c0f443083e48999aa840ae920b84584fcf5f9dd9ac1fed33e2ab37eeb",
    "--alpha 1.4 --n 20 --t-final 0.01 --ic eigen --format json":
        "0437a8b965f36b727cff2e861719055aa771b32788b3c7c154115e9af6cd4936",
    "--alpha 1.7 --n 33 --t-final 0.02 --dt 0.001 --scheme grunwald --format csv":
        "cd140b5c5da8f668d7c6ea1e684f2ca101255c699db006692445b94236966299",
    "--alpha 1.7 --n 33 --t-final 0.02 --dt 0.001 --scheme grunwald --format json":
        "929dd96b4fcb0a2c62b22ed5e30fa742ede77dfd72ef9ad9712de09972e75051",
    "--t-final 0 --format csv":
        "001925ad611f0bba3ca95c03f5e5d51c0473c62cb6c4f51a05bfc2976ca03a5d",
    "--t-final 0 --format json":
        "c2910d1363eb8f9971e8af72118c905f206f70c7c9373c05db32ffc8bb043bc2",
}


# sha256 of the other commands' output. Grids stay below GS_MIN_N and `compare`
# references nest, so no digest rests on SIMD rounding in the power interpolant.
COMMAND_DIGESTS = {
    "weights --alpha 1.4 --n 20 --format csv":
        "2f1d26bbf7eff2abe00c23380cdeebfa9fe7e807ab3c9041ae266f14a6ef23ad",
    "weights --alpha 1.4 --n 20 --format json":
        "1e874b249a7841f6ace4ce964fab65cd3f372288891dc4b63cd62693477da1aa",
    "weights --alpha 1.7 --n 33 --scheme grunwald --format csv":
        "8f9934d4075f934e40a2581baead1e2f529785b7bb31fec94d0f29b6dcc4d280",
    "weights --alpha 1.7 --n 33 --scheme grunwald --format json":
        "48fd2690d6831a152e66e46eea1311610f1628f11c06ea8da567e48e6683f760",
    "eigen --alpha 1.4 --format csv":
        "99433828c88334453fc4d095ae2795180d22b1e826845bd51395558693ed4633",
    "eigen --alpha 1.4 --format json":
        "e2c70b123109ed3e350c0b1fff9c030a7f9f7bddfc4da0bc9d205be84fc6cea1",
    "eigen --alpha 1.01 --format csv":
        "6974a3c70cc9df6db6fdc2945e1b6565424f797d59396c9f36a3b64857d196a0",
    "eigen --alpha 2.0 --format json":
        "a2db15d7858760a53606d79de76e8b315f344a6e985168cb36a12b579730e776",
    "converge --ic eigen --alpha 1.4 --n-list 16,32 --t-final 0.05 --format csv":
        "f58c41a40c21fb2af5b376bc95067920c2fca020e9f8aa951b99cf35b5785d0d",
    "converge --ic eigen --alpha 1.4 --n-list 16,32 --t-final 0.05 --format json":
        "134c644ca11c678859ac8090f836dcf3317e1a65abdd4f6a12c4cf5e839b3ccd",
    "converge --ic power --alpha 1.4 --n-list 16,32,64 --format csv":
        "786a63f7175de78f055b13d17dc04ea3862ca78558896c5d56bb33a9a1d698c7",
    "converge --ic power --alpha 1.4 --n-list 16,32,64 --format json":
        "f18341b7297e4aee83e64d2bc5a4eda1d7a1e0c749b40e56a9a1caea3d3b1e20",
    "compare --alpha 1.4 --n-list 10,20 --t-final 0.01 --format csv":
        "ab2f902c2fb070745237e026be5faa16e4cf9885c2e33214772d9c1ecb24b66b",
    "compare --alpha 1.4 --n-list 10,20 --t-final 0.01 --format json":
        "226d6fa9e07080bdca01696ca7439485a496735cb9de2cbe0249810556fa0414",
}


def assert_digest(argv, want, tmp_path, capsys):
    """The run's stdout and its --out file both hash to want."""
    code, out, _ = run_main(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want
    path = tmp_path / "run.out"
    assert run_main(argv + ["--out", str(path)], capsys)[:2] == (0, "")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


class TestSolveOutput:
    @pytest.mark.parametrize("flags", sorted(SOLVE_DIGESTS))
    def test_pinned_digest(self, flags, tmp_path, capsys):
        assert_digest(["solve", *flags.split()], SOLVE_DIGESTS[flags], tmp_path, capsys)

    def test_rows_stream_in_small_memory(self, tmp_path):
        # 2,000 steps at n = 64: 128,064 rows, 6.47 MB of CSV written as it is computed
        path = tmp_path / "solve.csv"
        argv = ["solve", "--alpha", "1.5", "--n", "64", "--t-final", "0.05", "--dt", "2.5e-5"]
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 6_000_000
        assert peak < 0.25 * size, f"tracemalloc peak {peak} B for {size} B of output"


class TestCommandOutput:
    @pytest.mark.parametrize("argv", sorted(COMMAND_DIGESTS))
    def test_pinned_digest(self, argv, tmp_path, capsys):
        assert_digest(argv.split(), COMMAND_DIGESTS[argv], tmp_path, capsys)


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["converge", "--ic", "eigen", "--alpha", "1.4",
                "--n-list", "16,32", "--t-final", "0.05"]
        outs = []
        for i in range(2):
            path = tmp_path / f"run{i}.csv"
            assert main(args + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_entry_point_subprocess(self, tmp_path):
        # the child imports the fracheat under test, also when pytest's
        # pythonpath setting (not the environment) put it on sys.path
        src = str(Path(fracheat.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fracheat.cli", "eigen", "--alpha", "2.0"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "alpha,c,series_terms" in proc.stdout
