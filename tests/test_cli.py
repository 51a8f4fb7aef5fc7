import hashlib
import json
import random
import shlex
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
from conftest import child_env

from fracheat import (
    ConvergenceError,
    GridFunction,
    NumericalError,
    Scheme,
    evolution,
    harness,
    principal_eigenvalue,
)
from fracheat.cli import COMMANDS, RunConfig, main, parse_config
from fracheat.weights import MAX_N

OPTION_NAMES = [f.name for f in fields(RunConfig) if f.name != "command"]
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def readme_blocks(lang):
    """The lines of the README's fenced blocks in the language lang."""
    blocks = README.split("```")[1::2]
    return [line for b in blocks if b.startswith(lang + "\n") for line in b.splitlines()[1:]]


def readme_reads():
    """The README's read-set table: each run's options, with --format and --out, which
    every command reads. A run is a command, or "command:ic" for `solve --ic ic`."""
    table = README.split("| run | reads |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    reads = {}
    for row in table.splitlines():
        run, names = (cell.strip().strip("`") for cell in row.strip("|").split("|"))
        reads[run.replace(" --ic ", ":")] = {"format", "out", *names.split(", ")}
    return reads


READS = readme_reads()
CLI_EXAMPLES = [line for line in readme_blocks("sh") if line.startswith("fracheat ")]


def run_argv(run):
    """The argv that selects a run: the command, and --ic for the commands that read it."""
    command, _, ic = run.partition(":")
    return [command, "--ic", ic] if ic else [command]


def flag(name):
    return "--" + name.replace("_", "-")


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

    # a config drawn inside its run's read set, rendered as argv, parses back to itself
    @pytest.mark.parametrize("seed", range(50))
    def test_render_parse_round_trip(self, seed):
        rng = random.Random(seed)
        run = rng.choice(sorted(READS))
        command, _, ic = run.partition(":")
        drawn = {
            "alpha": rng.uniform(1.01, 2.0),
            "n": rng.randrange(3, 500),
            "n_list": tuple(sorted(rng.sample(range(10, 400), rng.randrange(1, 4)))),
            "dt": rng.uniform(1e-6, 1e-4),
            "t_final": rng.uniform(0.001, 0.1),
            "scheme": rng.choice(list(Scheme)),
            "mu": rng.uniform(0.2, 0.8),
            "sigma2": rng.uniform(1e-4, 1e-2),
            "power_a": rng.uniform(-2, 2),
            "power_b": rng.uniform(-2, 2),
            "out": "result.csv",
            "format": rng.choice(["csv", "json"]),
        }
        values = {k: v for k, v in drawn.items() if k in READS[run] and rng.random() < 0.7}
        if ic:
            values["ic"] = ic
        argv = [command]
        for k, v in values.items():
            text = ",".join(map(str, v)) if k == "n_list" else getattr(v, "value", v)
            argv.append(f"{flag(k)}={text}")
        assert parse_config(argv) == RunConfig(command=command, **values)

    def test_every_option_is_read_by_some_run(self):
        assert set().union(*READS.values()) == set(OPTION_NAMES)

    # 37 (command, option) pairs are settable, the union over a command's runs
    @pytest.mark.parametrize("run", sorted(READS))
    def test_each_run_accepts_exactly_its_read_set(self, run, capsys):
        for name in OPTION_NAMES:
            argv = run_argv(run) + [flag(name), SAMPLE_VALUES[name]]
            if name in READS[run]:
                assert parse_config(argv).command == run.partition(":")[0]
            else:
                code, out, err = run_main(argv, capsys)
                assert (code, out) == (2, "")
                assert f"{run.replace(':', ' --ic ')} does not read {flag(name)}" in err


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
    "out": "result.json",
    "format": "json",
}


class TestOneConfigPath:
    def test_every_option_has_a_sample(self):
        assert set(SAMPLE_VALUES) == set(OPTION_NAMES)

    # each option on a run that reads it
    @pytest.mark.parametrize("name", OPTION_NAMES)
    def test_flag_and_config_file_agree(self, name, tmp_path):
        value = SAMPLE_VALUES[name]
        path = tmp_path / "run.cfg"
        path.write_text(f"{name} = {value}\n")
        run = {"n_list": ["converge"], "power_a": ["solve", "--ic", "power"],
               "power_b": ["solve", "--ic", "power"]}.get(name, ["solve"])
        from_flag = parse_config(run + [flag(name), value])
        assert from_flag == parse_config(run + ["--config", str(path)])
        assert getattr(from_flag, name) != getattr(parse_config(run), name)

    def test_negative_exponent_value_round_trips(self):
        cfg = parse_config(["solve", "--ic", "power", "--power-a=-1e-05", "--power-b=-2.5e-07"])
        assert cfg == RunConfig(command="solve", ic="power", power_a=-1e-05, power_b=-2.5e-07)


# An option the run does not read, as (argv, the message's run and flags).
UNREAD = [
    (["eigen", "--t-final", "0.05"], "eigen does not read --t-final"),
    (["eigen", "--scheme", "grunwald", "--dt", "9"], "eigen does not read --dt, --scheme"),
    (["weights", "--n-list", "8,16"], "weights does not read --n-list"),
    (["solve", "--ic", "eigen", "--mu", "0.3"], "solve --ic eigen does not read --mu"),
    (["converge", "--dt", "1e-5"], "converge does not read --dt"),
    (["consistency", "--power-a", "5"], "consistency does not read --power-a"),
    (["consistency", "--t-final", "0.05"], "consistency does not read --t-final"),
    (["compare", "--scheme", "grunwald"], "compare does not read --scheme"),
    (["compare", "--ic", "eigen"], "compare does not read --ic"),
    # `converge` once chose its study by --ic: `converge --ic eigen X` is now
    # `converge X`, `converge --ic power X` is `consistency X` and
    # `converge --ic gaussian X` is `compare X`
    (["converge", "--ic", "eigen", "--dt", "1e-5"], "converge does not read --dt, --ic"),
    (["converge", "--ic", "power", "--power-a", "5"], "converge does not read --ic, --power-a"),
    (["converge", "--ic", "power", "--t-final", "0.05"], "converge does not read --ic"),
    (["converge", "--ic", "gaussian"], "converge does not read --ic"),
]

# More argv of the --ic-chosen studies, each a usage error whatever else it holds;
# USAGE_ERRORS runs each check under its current command. A bare `converge` was
# the Gaussian comparison and is now the eigen chain, which reads no --sigma2.
RETIRED_STUDY_ARGV = [
    ["converge", "--ic", "eigen", "--n-list", "16", "--t-final", "nan"],
    ["converge", "--ic", "eigen", "--n-list", "16", "--t-final", "inf"],
    ["converge", "--ic", "power", "--n-list", "-1"],
    ["converge", "--ic", "eigen", "--n-list", "-1"],
    ["converge", "--ic", "eigen", "--alpha", "1.0095", "--n-list", "16"],
    ["converge", "--ic", "power", "--n-list", "8,8"],
    ["converge", "--ic", "eigen", "--n-list", "8,8", "--t-final", "0.05"],
    ["converge", "--n-list", "8,16", "--t-final", "0.01", "--sigma2", "1e-9"],
    ["converge", "--sigma2", "1e-9"],
]

# A grid or factor below the smallest normal float, and what its refusal names.
# The reference of the first decays to 0.0 by t_final; the Gaussian of the last
# is about 1e-318 on every node.
UNDERFLOW = [
    (["compare", "--n-list", "3,4", "--t-final", "1e3"], "t_final=1000.0 decays the reference"),
    (["converge", "--n-list", "8,16", "--t-final", "300"], "t_final=300.0 decays u_c"),
    (["compare", "--alpha", "1.4", "--n-list", "9,19", "--sigma2", "1e-9", "--mu", "0.5012179201566255"],
     "sigma2=1e-09 is zero or subnormal on every node at n = 9"),
]

# An eigen chain whose error is no longer a spatial readout, and what its refusal
# names: by t_final = 10 the mismatch of the discrete eigenvalue with c,
# compounded over the steps, is 2.1 times the decay at n = 8.
NOT_SPATIAL = [
    (["converge", "--n-list", "8,16", "--t-final", "10"],
     "t_final=10.0 reads error/decay 2.100120114156265 > 0.5 at n = 8"),
]

# A schedule the run cannot take, and the options its refusal names: a step
# longer than the run, and an eigen chain shorter than its coarsest h^alpha.
SCHEDULE = [
    (["solve", "--dt", "0.5", "--t-final", "0.1"], "dt=0.5 must not exceed t_final=0.1"),
    (["converge", "--n-list", "8,16", "--t-final", "0.001"], "t_final=0.001 must exceed the coarsest h^alpha"),
]

# A grid above MAX_N nodes, in each of the five commands that take a size, and
# what its refusal names; nothing of that size is allocated before it.
TOO_LARGE = [
    (["weights", "--n", str(MAX_N + 1)], f"new_weights needs 2 <= n <= {MAX_N}"),
    (["weights", "--scheme", "grunwald", "--n", str(MAX_N + 1)], f"grunwald_weights needs 2 <= n <= {MAX_N}"),
    (["solve", "--n", str(MAX_N + 1), "--dt", "0.001", "--t-final", "0.01"], f"n must be in [3, {MAX_N}]"),
    *(([command, "--n-list", f"8,{MAX_N + 1}"], f"all in [3, {MAX_N}]")
      for command in ("converge", "consistency", "compare")),
    # the nested reference of 8*(max n + 1) - 1 nodes counts too
    (["compare", "--n-list", f"8,{MAX_N // 8}"], f"n must be in [3, {MAX_N}], got {8 * (MAX_N // 8 + 1) - 1}"),
]

# Non-finite times, overflowing step counts, sizes below 3, above MAX_N or
# repeated in an n-list, alpha below 1.01 on eigen paths, out-of-range alpha
# and t_final in a study, a zero final time in a comparison, a Gaussian that is
# zero or subnormal on every node of a comparison grid, a t_final by which the
# eigen chain's decay factor or the comparison's reference underflows and an
# option the run does not read are usage errors, never tracebacks. Negative
# values take the --flag=value form.
USAGE_ERRORS = [
    ["solve", "--t-final", "inf"],
    ["solve", "--t-final", "nan"],
    ["solve", "--dt", "nan"],
    ["solve", "--t-final", "1e308", "--dt", "1e-308"],
    ["solve", "--dt", "1e-30"],  # 1e28 steps: over the step budget
    ["compare", "--n-list", "10", "--t-final", "nan"],
    ["compare", "--n-list", "10", "--t-final", "inf"],
    ["converge", "--n-list", "16", "--t-final", "nan"],
    ["converge", "--n-list", "16", "--t-final", "inf"],
    ["consistency", "--n-list", "-1"],
    ["converge", "--n-list", "-1"],
    ["compare", "--n-list", "-1"],
    ["eigen", "--alpha", "1.005"],
    ["solve", "--ic", "eigen", "--alpha", "1.005"],
    ["converge", "--alpha", "1.0095", "--n-list", "16"],
    ["consistency", "--n-list", "8,8"],
    ["converge", "--n-list", "8,8", "--t-final", "0.05"],
    ["compare", "--n-list", "8,8"],
    ["compare", "--n-list", "8,16", "--alpha=-1e308"],
    ["compare", "--n-list", "8,16", "--t-final=-1e308"],
    ["compare", "--n-list", "8,16", "--t-final", "0.01", "--sigma2", "1e-9"],
    ["compare", "--sigma2", "1e-9"],
    ["compare", "--n-list", "8,16", "--t-final", "0"],
    ["consistency", "--n-list="],  # an n-list of no size is not the default list
    ["consistency", "--n-list=,"],
    ["converge", "--n-list", "8,16", "--t-final", "1e6"],  # 2.7e7 steps, refused before the first
    *(argv for argv, _ in UNDERFLOW),
    *(argv for argv, _ in NOT_SPATIAL),
    *(argv for argv, _ in SCHEDULE),
    *(argv for argv, _ in TOO_LARGE),
    *RETIRED_STUDY_ARGV,
    *(argv for argv, _ in UNREAD),
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

    @pytest.mark.parametrize("argv, message", UNREAD, ids=[" ".join(a) for a, _ in UNREAD])
    def test_unread_option_is_named(self, argv, message, capsys):
        assert f"fracheat: usage error: {message}\n" == run_main(argv, capsys)[2]

    # a config-file key is a flag placed before argv, under the same rule
    def test_unread_config_file_key(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 1.4\npower_a = 5\n")
        argv = ["consistency", "--config", str(path)]
        self.assert_usage_error(argv, tmp_path, capsys)
        assert "consistency does not read --power-a" in run_main(argv, capsys)[2]

    def test_empty_n_list_config_file_line(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("n_list = ,\n")
        self.assert_usage_error(["consistency", "--config", str(path)], tmp_path, capsys)

    @pytest.mark.parametrize("argv, names", TOO_LARGE, ids=[" ".join(a) for a, _ in TOO_LARGE])
    def test_too_large_grid_names_the_bound(self, argv, names, capsys):
        # refused before an array of the grid's size: one would hold 8*MAX_N bytes
        tracemalloc.start()
        try:
            err = run_main(argv, capsys)[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert names in err
        assert peak < MAX_N, f"tracemalloc peak {peak} B"

    @pytest.mark.parametrize("argv, names", UNDERFLOW, ids=[" ".join(a) for a, _ in UNDERFLOW])
    def test_underflow_names_its_cause(self, argv, names, capsys):
        assert names in run_main(argv, capsys)[2]

    @pytest.mark.parametrize("argv, names", NOT_SPATIAL, ids=[" ".join(a) for a, _ in NOT_SPATIAL])
    def test_non_spatial_error_names_its_cause(self, argv, names, capsys):
        assert f"fracheat: usage error: {names}\n" == run_main(argv, capsys)[2]

    @pytest.mark.parametrize("argv, names", SCHEDULE, ids=[" ".join(a) for a, _ in SCHEDULE])
    def test_schedule_refusal_names_options(self, argv, names, capsys):
        assert names in run_main(argv, capsys)[2]

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
    "format": ["csv", "json"],
}
FUZZ_CONFIG_LINES = ["alpha = 1.5", "n_list = 8, 16", "scheme = bogus", "bogus = 1",
                     "n = abc", "alpha 1.5", "t_final = nan", "# comment only"]


class TestArgvFuzz:
    @pytest.mark.parametrize("seed", range(40))
    def test_exit_code_in_contract(self, seed, tmp_path, capsys):
        rng = random.Random(seed)
        run = rng.choice(sorted(READS))
        reads = READS[run] - {"ic"}
        # small defaults first, so every run stays cheap; later flags override them
        small = {"n": "16", "n_list": "8,16", "t_final": "0.01"}
        argv = run_argv(run) + [f"{flag(k)}={v}" for k, v in small.items() if k in reads]
        for name in rng.sample(sorted(reads), rng.randrange(1, 4)):
            if name == "out":
                value = str(tmp_path / rng.choice(["o.csv", "missing/o.csv"]))
            elif rng.random() < 0.5:
                value = rng.choice(FUZZ_BAD)
            else:
                value = rng.choice(FUZZ_GOOD[name])
            argv.append(f"{flag(name)}={value}")
        # sometimes one option that the run does not read, anywhere after the run's argv
        unread = sorted(set(FUZZ_GOOD) - READS[run]) if rng.random() < 0.25 else []
        if unread:
            name = rng.choice(unread)
            at = rng.randrange(len(run_argv(run)), len(argv) + 1)
            argv.insert(at, f"{flag(name)}={rng.choice(FUZZ_GOOD[name])}")
        if rng.random() < 0.3:
            path = tmp_path / "run.cfg"
            good = [f"{k} = {rng.choice(FUZZ_GOOD[k])}" for k in sorted(reads - {"out"})]
            path.write_text("\n".join(rng.sample(good + FUZZ_CONFIG_LINES, 2)) + "\n")
            argv += ["--config", str(path)]
        code, out, _ = run_main(argv, capsys)
        assert code in {0, 2, 3, 4}, argv
        if unread:
            assert (code, out) == (2, ""), argv


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

    # no CLI input reaches these errors, so a command body's callee raises them
    @pytest.mark.parametrize("error", [NumericalError, ConvergenceError])
    def test_numerical_error_exits_3(self, error, monkeypatch, capsys):
        def fail(alpha):
            raise error("injected")

        monkeypatch.setattr("fracheat.cli.principal_eigenvalue", fail)
        code, out, err = run_main(["eigen"], capsys)
        assert (code, out) == (3, "")
        assert "fracheat: numerical error: injected" in err

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
            ["converge", "--alpha", "1.4", "--n-list", "32,64", "--t-final", "0.05"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[1] == "scheme,alpha,n,h,dt,error,observed_order"
        assert len(lines) == 4

    def test_compare_has_both_schemes(self, capsys):
        code, out, _ = run_main(
            ["compare", "--alpha", "1.4", "--n-list", "16,32",
             "--t-final", "0.05", "--format", "json"],
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
    "--alpha 1.6 --n 24 --t-final 0.01 --ic power --power-a 0.5 --power-b 2 --format csv":
        "7830eafb4c2e464a0efa37cff8d004ccef940479588c0a323ea0940cb32d6b38",
    "--alpha 1.6 --n 24 --t-final 0.01 --ic power --power-a 0.5 --power-b 2 --format json":
        "a2b87e45123e98ecb7bf284db477d2397d10ce81cd55910334b855d874ec8821",
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
    "converge --alpha 1.4 --n-list 16,32 --t-final 0.05 --format csv":
        "6e4cacee00f86f69c75d19afadfc73b7e2a63acd9cedb911c74e60b95ec5a6aa",
    "converge --alpha 1.4 --n-list 16,32 --t-final 0.05 --format json":
        "f6421b961d76d5c3bec4f772e3f486688e3b13380074a12c4b400d1a40fa6b34",
    "consistency --alpha 1.4 --n-list 16,32,64 --format csv":
        "52ab175c1c28675ac6d719fa9713d34cace3bc37770ac7dfb777da9902e4d65c",
    "consistency --alpha 1.4 --n-list 16,32,64 --format json":
        "e4cac8dae363e19875141c39d9c7ef04377656c5ba2920f8a1283f73e8b88ebd",
    "compare --alpha 1.4 --n-list 10,20 --t-final 0.01 --format csv":
        "80acbc4c21262af87f7cc4f8fd8db443e48bb7455d8d1c2add63689bd145a428",
    "compare --alpha 1.4 --n-list 10,20 --t-final 0.01 --format json":
        "11a4c1f4c21862183fc4bfb92b49a90abcd50800a2d8591d108bf02a42179b15",
    # t_final below h_min^(alpha+1/2): one step of t_final
    "compare --n-list 8,16 --t-final 1e-6 --format csv":
        "362769248c4d977af02f4ce498cf507fb322b105649807874c2e4d76a5d08ab3",
    "compare --n-list 8,16 --t-final 1e-6 --format json":
        "79fcd008240d33822dc8b7b176fcda8ee5d747d6688e890360312933fff08101",
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


# Chains whose snapped step t_final/K once snapped again, to K + 1 steps, on
# every grid: 29,140 recorded and 29,141 taken, and 32,378 against 32,379.
RESNAP_ARGV = [
    ["compare", "--alpha", "1.4", "--t-final", "0.33"],
    ["converge", "--alpha", "2", "--n-list", "150,300", "--t-final", "1.42"],
]


class TestSchedule:
    @pytest.mark.parametrize("argv", RESNAP_ARGV, ids=" ".join)
    def test_every_grid_takes_the_recorded_step(self, argv, monkeypatch, capsys):
        # a step scales its input by u_c's backward-Euler factor 1/(1 - c*dt), so the
        # runs count their steps without solving, and the eigen chain's error stays
        # the spatial readout it is refused without (here 0: u_0 is u_c sampled)
        real_iter_states = evolution.iter_states
        taken = []

        def counted(cfg):
            states = list(real_iter_states(cfg))
            taken.append(len(states) - 1)
            return iter(states)

        def scaled(dt, u):
            return GridFunction(u.alpha, u.n, u.values / (1.0 - principal_eigenvalue(u.alpha).c * dt))

        monkeypatch.setattr(evolution, "factorize", lambda op, dt: dt)
        monkeypatch.setattr(evolution, "step", scaled)
        monkeypatch.setattr(harness, "iter_states", counted)
        monkeypatch.setattr(harness, "evolve", lambda cfg: list(counted(cfg))[-1][1])
        code, out, _ = run_main(argv + ["--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        t_final, dt = report["meta"]["t_final"], report["meta"]["dt"]
        assert len(taken) >= len(report["rows"])
        assert {t_final / k for k in taken} == {dt} == {r["dt"] for r in report["rows"]}


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["converge", "--alpha", "1.4", "--n-list", "16,32", "--t-final", "0.05"]
        outs = []
        for i in range(2):
            path = tmp_path / f"run{i}.csv"
            assert main(args + ["--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_entry_point_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "fracheat.cli", "eigen", "--alpha", "2.0"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert "alpha,c,series_terms" in proc.stdout


# README's CLI examples and read-set table drift with the parser, or they don't
class TestReadme:
    def test_every_command_has_a_cli_example(self):
        assert {line.split()[1] for line in CLI_EXAMPLES} == set(COMMANDS)

    @pytest.mark.parametrize("line", CLI_EXAMPLES, ids=lambda line: line.split()[1])
    def test_cli_example_parses(self, line):
        argv = shlex.split(line, comments=True)[1:]
        assert parse_config(argv).command == argv[0]

    def test_config_example_parses(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(readme_blocks("ini")) + "\n")
        cfg = parse_config(["converge", "--config", str(path)])
        assert (cfg.n_list, cfg.scheme) == ((50, 100, 200), Scheme.GRUNWALD)

    def test_read_set_table_matches_option_metadata(self):
        assert {run.partition(":")[0] for run in READS} == set(COMMANDS)
        options = {f.name: f.metadata["reads"] for f in fields(RunConfig) if f.name != "command"}
        for run, names in READS.items():
            selectors = {run, run.partition(":")[0]}
            assert names == {k for k, reads in options.items() if not selectors.isdisjoint(reads)}, run
