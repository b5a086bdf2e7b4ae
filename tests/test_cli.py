"""CLI behavior: outputs, exit codes, schemas, seeded reproducibility."""

import argparse
import dataclasses
import hashlib
import inspect
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from permdiff import bench, cli
from permdiff.errors import ParseError
from permdiff.io import write_cloud_text, write_dataset
from permdiff.ou_sde import NoiseSchedule
from permdiff.quotient_score import ou_conditional_score_mcmc
from permdiff.score_model import TrainConfig, train

SCHEMA_DIR = Path(cli.__file__).parent / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def validate_lines(text, schema_name):
    schema = load_schema(schema_name)
    records = [json.loads(line) for line in text.splitlines() if line]
    assert records, "no output records"
    for rec in records:
        jsonschema.validate(rec, schema)
    return records


@pytest.fixture
def clouds(tmp_path):
    x = tmp_path / "x.txt"
    y = tmp_path / "y.txt"
    write_cloud_text(x, np.array([[0.0], [1.0]]))
    write_cloud_text(y, np.array([[0.0], [1.0]]))
    return str(x), str(y), tmp_path


def run_cli(capsys, argv):
    code = cli.dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tiny_argv(tmp_path):
    """Per subcommand, arguments that run it on tiny inputs in well under a second."""
    x, y = str(tmp_path / "x.txt"), str(tmp_path / "y.txt")
    write_cloud_text(x, np.array([[0.0], [1.0]]))
    write_cloud_text(y, np.array([[0.1], [0.8]]))
    data = tmp_path / "d.jsonl"
    write_dataset(data, [np.full((2, 1), float(i)) for i in range(4)])
    ckpt = tmp_path / "m.ckpt"
    train([np.zeros((2, 1))], TrainConfig(iterations=0, widths=(2,))).save(ckpt)
    out = str(tmp_path / "out")
    sizes = ["--iterations", "2", "--batch-size", "2", "--width", "2", "--depth", "1"]
    return {
        "kernel": ["--x", x, "--y", y, "--t", "0.5"],
        "posterior": ["--x", x, "--y", y, "--t", "0.5"],
        "score": ["--x", x, "--y", y, "--t", "0.5"],
        "forward": ["--x", x, "--steps", "2"],
        "reverse": ["--init", y, "--ref", x, "--steps", "2"],
        "train": ["--data", str(data), "--out", out, *sizes],
        "sample": ["--checkpoint", str(ckpt), "--n", "2", "--steps", "2"],
        "bench-score": ["--n", "2", "--d", "1", "--k-grid", "2,4", "--replicates", "2"],
        "bench-gen": ["--kind", "ring", "--items", "6", "--points", "2", *sizes, "--steps", "2",
                      "--samples", "2", "--reference", "2", "--shuffles", "1"],
        "make-data": ["--kind", "ring", "--items", "2", "--points", "2", "--out", out],
    }


class TestKernel:
    def test_quotient_exact_two_point_fixture(self, clouds, capsys):
        x, y, _ = clouds
        code, out, _ = run_cli(
            capsys, ["kernel", "--x", x, "--y", y, "--t", "0.5", "--mode", "quotient-exact"]
        )
        assert code == 0
        rec = validate_lines(out, "kernel.json")[0]
        expected = math.log((1.0 + math.exp(-1.0)) / (2.0 * math.pi))
        assert rec["log_density"] == pytest.approx(expected, rel=1e-12)
        assert rec["n"] == 2 and rec["d"] == 1 and rec["mode"] == "quotient-exact"

    def test_euclid_mode(self, clouds, capsys):
        x, y, _ = clouds
        code, out, _ = run_cli(capsys, ["kernel", "--x", x, "--y", y, "--t", "1.0", "--mode", "euclid"])
        assert code == 0
        validate_lines(out, "kernel.json")

    def test_out_file(self, clouds, capsys):
        x, y, tmp = clouds
        out_path = tmp / "kernel.json"
        code, out, _ = run_cli(
            capsys, ["kernel", "--x", x, "--y", y, "--t", "0.5", "--out", str(out_path)]
        )
        assert code == 0 and out == ""
        validate_lines(out_path.read_text(), "kernel.json")

    def test_largest_times(self, tmp_path, capsys):
        # 4 pi t overflows above t ~ 1.4e307, but the log density is finite:
        # -(dN/2)(log(4 pi) + log t) - ||x - y||^2 / (4t), plus log 3! for the
        # quotient, whose permutations all weigh 1 at this t.
        x, y = tmp_path / "x.txt", tmp_path / "y.txt"
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        write_cloud_text(x, pts)
        write_cloud_text(y, pts + 0.1)
        euclid = -3.0 * (math.log(4.0 * math.pi) + math.log(1e308))
        for mode, expected in [("euclid", euclid), ("quotient-exact", euclid + math.log(6.0))]:
            code, out, err = run_cli(
                capsys, ["kernel", "--x", str(x), "--y", str(y), "--t", "1e308", "--mode", mode]
            )
            assert code == 0 and err == ""
            rec = validate_lines(out, "kernel.json")[0]
            assert rec["log_density"] == pytest.approx(expected, rel=1e-14)
        code, out, err = run_cli(
            capsys, ["score", "--x", str(x), "--y", str(y), "--t", "1.7e308", "--mode", "exact"]
        )
        assert code == 0 and err == ""
        assert np.all(np.abs(json.loads(out)["score"]) == 0.0)


class TestExitCodes:
    def test_no_arguments_usage(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert code == cli.EXIT_USAGE
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == cli.EXIT_USAGE

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            ["kernel", "--x", str(tmp_path / "a.txt"), "--y", str(tmp_path / "b.txt"), "--t", "1"],
        )
        assert code == cli.EXIT_FILE_NOT_FOUND
        assert err.startswith("error: category=file-not-found")

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a cloud\n")
        code, _, err = run_cli(capsys, ["kernel", "--x", str(bad), "--y", str(bad), "--t", "1"])
        assert code == cli.EXIT_PARSE
        assert "category=parse" in err

    @pytest.mark.parametrize(
        "name, content, match",
        [
            ("c.txt", "two 1\n0.0\n1.0\n", "bad header"),
            ("m.xyz", "1\n", "truncated XYZ"),
            ("m.xyz", "one\nx\nH 0 0 0\n", "atom count"),
            ("m.xyz", "2\nx\nH 0 0 0\n", "expected 2 atom lines"),
            ("m.xyz", "1\nx\nH 0 0\n", "bad atom line"),
            ("m.xyz", "1\nx\nH 0 zero 0\n", "non-numeric coordinate"),
        ],
        ids=["text-header", "xyz-truncated", "xyz-count", "xyz-missing-atoms", "xyz-short-line",
             "xyz-coordinate"],
    )
    def test_bad_cloud_file_is_a_parse_error(self, capsys, tmp_path, name, content, match):
        bad = tmp_path / name
        bad.write_text(content)
        argv = ["kernel", "--x", str(bad), "--y", str(bad), "--t", "1", "--elements", "H"]
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err.startswith("error: category=parse") and match in err

    @pytest.mark.parametrize(
        "command",
        [c for c, p in next(a for a in cli.build_parser()._actions
                            if isinstance(a, argparse._SubParsersAction)).choices.items()
         if any("--seed" in a.option_strings for a in p._actions)],
    )
    def test_negative_seed_is_a_usage_error(self, tiny_argv, capsys, command):
        # numpy's generators take only non-negative seeds, so argparse refuses
        # the flag before any work.
        code, out, err = run_cli(capsys, [command, *tiny_argv[command], "--seed", "-1"])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "--seed" in err and "non-negative" in err

    def test_capacity_error_names_cap_and_alternative(self, capsys, tmp_path):
        big = tmp_path / "big.txt"
        write_cloud_text(big, np.random.default_rng(0).standard_normal((10, 1)))
        code, _, err = run_cli(
            capsys, ["posterior", "--x", str(big), "--y", str(big), "--t", "1", "--mode", "exact"]
        )
        assert code == cli.EXIT_CAPACITY
        assert "category=capacity" in err
        assert "9" in err and "MCMC" in err

    def test_domain_error(self, clouds, capsys):
        x, y, _ = clouds
        code, _, err = run_cli(capsys, ["kernel", "--x", x, "--y", y, "--t", "-1"])
        assert code == cli.EXIT_DOMAIN
        assert "category=domain" in err

    def test_non_finite_score_callback(self, capsys, tmp_path):
        ckpt = train([np.zeros((2, 1))], TrainConfig(iterations=0, widths=(4,), seed=0))
        ckpt.params = np.full_like(ckpt.params, np.nan)
        path = tmp_path / "nan.ckpt"
        ckpt.save(path)
        code, out, err = run_cli(
            capsys, ["sample", "--checkpoint", str(path), "--n", "2", "--steps", "8"]
        )
        assert code == cli.EXIT_DOMAIN
        assert err.startswith("error: category=score-callback")
        assert "step 0" in err
        assert out == ""

    def test_checkpoint_beyond_float32_range(self, capsys, tmp_path):
        # The file is finite, but the net computes in float32, where 1e39 overflows.
        ckpt = train([np.zeros((2, 1))], TrainConfig(iterations=0, widths=(4,), seed=0))
        ckpt.params[0] = 1e39
        path = tmp_path / "huge.ckpt"
        ckpt.save(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, ["sample", "--checkpoint", str(path), "--n", "2", "--steps", "8"]
            )
        assert code == cli.EXIT_DOMAIN
        assert len(err.splitlines()) == 1 and err.startswith("error: category=domain: ")
        assert "float32" in err
        assert out == ""

    def test_truncated_checkpoint(self, capsys, tmp_path):
        ckpt = train([np.zeros((2, 1))], TrainConfig(iterations=0, widths=(4,), seed=0))
        path = tmp_path / "cut.ckpt"
        ckpt.save(path)
        path.write_bytes(path.read_bytes()[:-3])
        code, out, err = run_cli(capsys, ["sample", "--checkpoint", str(path)])
        assert code == cli.EXIT_PARSE
        assert err.startswith("error: category=parse") and "truncated" in err
        assert out == ""

    @pytest.mark.parametrize("header", [{"format": "permdiff-checkpoint", "version": 1}, [1, 2]])
    def test_checkpoint_header_without_fields(self, capsys, tmp_path, header):
        path = tmp_path / "bare.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n")
        code, out, err = run_cli(capsys, ["sample", "--checkpoint", str(path)])
        assert code == cli.EXIT_PARSE
        assert err.startswith("error: category=parse")
        assert out == ""

    @pytest.mark.parametrize(
        "edit, extra_params",
        [
            ({"widths": [8]}, 0),
            ({"widths": [8, 0]}, 0),
            ({"point_dim": 0}, 0),
            ({"n_points": 0}, 0),
            ({"output_scale": "both"}, 0),
            ({}, 2),
            ({"param_count": "grown"}, 2),
            ({"train_config": [1]}, 0),
            ({"train_config": {"t_min": "small"}}, 0),
            ({"train_config": {"t_min": -1.0}}, 0),
        ],
        ids=["widths", "zero-width", "point-dim-0", "n-points-0", "output-scale",
             "oversized", "oversized-with-count", "config-list", "t-min-text", "t-min-negative"],
    )
    def test_checkpoint_header_disagrees_with_parameters(
        self, capsys, tmp_path, edit, extra_params
    ):
        ckpt = train([np.zeros((3, 2))], TrainConfig(iterations=0, widths=(8, 8), seed=0))
        path = tmp_path / "bad.ckpt"
        ckpt.save(path)
        raw = path.read_bytes()
        nl = raw.find(b"\n")
        header = json.loads(raw[:nl])
        header.update(edit)
        if header["param_count"] == "grown":
            header["param_count"] = ckpt.params.size + extra_params
        payload = raw[nl + 1 :] + np.zeros(extra_params).astype("<f8").tobytes()
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        code, out, err = run_cli(capsys, ["sample", "--checkpoint", str(path), "--n", "1"])
        assert code == cli.EXIT_PARSE
        assert err.startswith("error: category=parse")
        assert out == ""

    def test_no_threads_flag(self, capsys, tmp_path):
        argv = ["make-data", "--kind", "ring", "--out", str(tmp_path / "d.jsonl"),
                "--threads", "2"]
        code, _, err = run_cli(capsys, argv)
        assert code == cli.EXIT_USAGE
        assert "--threads" in err

    @pytest.mark.parametrize(
        "command, flag",
        [(c, "--cap")
         for c in ("kernel", "posterior", "score", "reverse", "bench-score", "forward", "train")]
        + [(c, f) for c in ("posterior", "score", "reverse") for f in ("--burn-in", "--thinning")]
        + [(c, f) for c in cli._HANDLERS for f in ("-v", "--verbose")],
    )
    def test_removed_flag_is_a_usage_error(self, tiny_argv, capsys, command, flag):
        # Enumeration has the one cap of 9 and the subset DP only its ceiling,
        # the swap chain's burn-in and thinning are fixed, and nothing logs,
        # so none of these flags exists.
        value = [] if flag in ("-v", "--verbose") else ["5"]
        code, out, err = run_cli(capsys, [command, *tiny_argv[command], flag, *value])
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert flag in err

    def test_float_flag_edge_values_exit_with_one_error_line(self, tiny_argv, capsys):
        # Every float flag of every subcommand at nan, +-inf, 0, -1 and +-1e308: a
        # documented exit code, no escaping exception or numpy warning, and
        # stderr empty on success or one error line.
        documented = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_FILE_NOT_FOUND, cli.EXIT_PARSE,
                      cli.EXIT_CAPACITY, cli.EXIT_DOMAIN, cli.EXIT_DIVERGED}
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        failures = []
        for command, parser in sub.choices.items():
            for action in parser._actions:
                if action.type is not float:
                    continue
                for value in ("nan", "inf", "-inf", "0", "-1", "1e308", "-1e308"):
                    argv = [command, *tiny_argv[command], f"{action.option_strings[0]}={value}"]
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("error")
                            code, _, err = run_cli(capsys, argv)
                    except Exception as exc:
                        failures.append((argv, repr(exc)))
                        continue
                    lines = err.splitlines()
                    if code not in documented or (
                        lines if code == cli.EXIT_OK
                        else len(lines) != 1 or not lines[0].startswith("error: ")
                    ):
                        failures.append((argv, code, err))
        assert failures == []

    @pytest.mark.parametrize("command", ["posterior", "score"])
    def test_exact_far_points_at_tiny_time_are_a_domain_error(self, capsys, tmp_path, command):
        # The far point's cost overflows to -inf in every slot, so no
        # permutation has a finite weight and the posterior is undefined.
        x, y = tmp_path / "x.txt", tmp_path / "y.txt"
        write_cloud_text(x, np.array([[0.0], [1.0], [1e5]]))
        write_cloud_text(y, np.array([[0.0], [1.0], [2.0]]))
        code, out, err = run_cli(capsys, [command, "--x", str(x), "--y", str(y), "--t", "1e-300"])
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert "category=domain" in err and "finite weight" in err

    @pytest.mark.parametrize(
        "argv",
        [["kernel"], ["posterior"], ["posterior", "--mode", "mcmc"], ["score"],
         ["score", "--mode", "mcmc"]],
        ids=["kernel", "posterior-exact", "posterior-mcmc", "score-exact", "score-mcmc"],
    )
    def test_far_points_at_tiny_time_give_one_error_line(self, capsys, tmp_path, argv):
        # No permutation has a finite weight and the log kernel is -inf, which
        # JSON cannot hold: every mode exits 6 with one error line, and no
        # numpy warning about the overflowing costs comes before it.
        x, y = tmp_path / "x.txt", tmp_path / "y.txt"
        write_cloud_text(x, np.array([[0.0], [1.0], [1e5]]))
        write_cloud_text(y, np.array([[0.0], [1.0], [2.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, [*argv, "--x", str(x), "--y", str(y), "--t", "1e-300"])
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: category=domain: ")

    @pytest.mark.parametrize(
        "argv",
        [["posterior", "--mode", "mcmc", "--t", "1", "--y", "y.txt"],
         ["score", "--mode", "mcmc", "--t", "1", "--y", "y.txt"],
         ["forward", "--steps", "2", "--assignment-trace"]],
        ids=["posterior-mcmc", "score-mcmc", "forward-trace"],
    )
    def test_every_assignment_infinitely_far_gives_one_error_line(self, capsys, tmp_path,
                                                                  monkeypatch, argv):
        # Every squared distance overflows: the assignment solver, where the
        # chains start and the trace matches, finds no assignment of finite cost.
        monkeypatch.chdir(tmp_path)
        write_cloud_text("x.txt", np.array([[0.0], [1e300]]))
        write_cloud_text("y.txt", np.array([[-1e300], [2e300]]))
        code, out, err = run_cli(capsys, [*argv, "--x", "x.txt"])
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: category=domain: ")
        assert "infinite squared distance" in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--batch-size", "0"], "batch_size"),
            (["--eval-every", "0"], "eval_every"),
            (["--mcmc-k", "0", "--target-mode", "mcmc"], "mcmc_k"),
            (["--holdout-fraction", "1.5"], "holdout_fraction"),
            (["--holdout-fraction", "-1"], "holdout_fraction"),
            (["--width", "0"], "widths"),
            (["--depth", "0"], "widths"),
            (["--iterations", "-2"], "iterations"),
        ],
        ids=["batch-size-0", "eval-every-0", "mcmc-k-0", "holdout-1.5", "holdout-minus-1",
             "width-0", "depth-0", "iterations-minus-2"],
    )
    def test_bad_train_setting_fails_before_training(self, capsys, tmp_path, monkeypatch,
                                                     flags, field):
        def no_training(*args, **kwargs):
            raise AssertionError("train ran with a bad setting")

        monkeypatch.setattr(cli, "train", no_training)
        data = tmp_path / "d.jsonl"
        write_dataset(data, [np.full((2, 1), float(i)) for i in range(4)])
        argv = ["train", "--data", str(data), "--out", str(tmp_path / "m.ckpt"),
                "--iterations", "2", *flags]
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_DOMAIN
        assert err.startswith("error: category=domain") and field in err
        assert out == ""


def readme_command_lines():
    """Every ``permdiff ...`` line of README's code blocks, continuations joined."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("permdiff ")]


class TestReadme:
    def test_command_lines_parse(self):
        lines = readme_command_lines()
        assert len(lines) >= 10
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])

    def test_cheap_command_lines_run_as_written(self, tmp_path, monkeypatch, capsys):
        # train, sample and bench-gen need a config file, a checkpoint or
        # 20,000 iterations; every other line runs in the directory of its
        # input files and writes records that the shipped schemas accept.
        schemas = {
            "kernel": "kernel.json", "posterior": "posterior-record.json",
            "score": "score.json", "forward": "trajectory-record.json",
            "reverse": "trajectory-record.json", "bench-score": "estimator-study.json",
        }
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(0)
        for name in ("x.txt", "y.txt", "noise.txt"):
            write_cloud_text(tmp_path / name, rng.standard_normal((3, 2)))
        ran = []
        for line in readme_command_lines():
            argv = shlex.split(line)[1:]
            if argv[0] in ("train", "sample", "bench-gen"):
                continue
            code, out, err = run_cli(capsys, argv)
            assert code == 0, (line, err)
            if argv[0] == "make-data":
                validate_lines((tmp_path / "data.jsonl").read_text(), "dataset-record.json")
            else:
                validate_lines(out, schemas[argv[0]])
            ran.append(argv[0])
        assert set(ran) == {*schemas, "make-data"}
        jsonschema.validate(
            json.loads((tmp_path / "diag.json").read_text()),
            load_schema("posterior-diagnostics.json"),
        )

    def test_train_flags_and_config_keys_reach_config(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["bench-gen", "--kind", "ring", "--optimizer", "adam", "--output-scale", "noise"]
        )
        cfg = cli._train_config(args)
        assert (cfg.optimizer, cfg.output_scale) == ("adam", "noise")
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text("optimizer = adam\noutput-scale = noise\n")
        argv = ["train", "--data", "d.jsonl", "--out", "m.ckpt", "--config", str(cfg_file)]
        cfg = cli._train_config(cli.build_parser().parse_args(argv))
        assert (cfg.optimizer, cfg.output_scale) == ("adam", "noise")

    def test_train_flags_config_keys_and_fields_agree(self, tmp_path):
        default = TrainConfig()
        settings = {f.name: getattr(default, f.name) for f in dataclasses.fields(TrainConfig)}
        widths = settings.pop("widths")
        settings.update(width=widths[0], depth=len(widths))
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest for a in sub.choices["train"]._actions}
        assert flags - {"help", "data", "config", "out"} == set(settings)
        assert set(settings) <= {a.dest for a in sub.choices["bench-gen"]._actions}

        # Every setting left out, given as a flag or given as a config key at
        # the field's default gives the default TrainConfig.
        base = ["train", "--data", "d.jsonl", "--out", "m.ckpt"]
        as_flags = [f"--{key.replace('_', '-')}={val}" for key, val in settings.items()]
        cfg_file = tmp_path / "all.cfg"
        cfg_file.write_text("".join(f"{key} = {val}\n" for key, val in settings.items()))
        for argv in (base, base + as_flags, base + ["--config", str(cfg_file)],
                     ["bench-gen", "--kind", "ring"]):
            assert cli._train_config(parser.parse_args(argv)) == default, argv
        for key in ("divergence_threshold", "widths"):
            cfg_file.write_text(f"{key} = 1\n")
            with pytest.raises(ParseError, match="unknown config key"):
                cli._train_config(parser.parse_args(base + ["--config", str(cfg_file)]))


@pytest.fixture(scope="module")
def ring_files(tmp_path_factory):
    """A model trained a few steps on a 6-item ring, and two 3-point clouds."""
    tmp = tmp_path_factory.mktemp("ring")
    data = bench.make_synthetic_dataset("ring", 6, 3, 2, 0)
    ckpt = tmp / "m.ckpt"
    train(data, TrainConfig(iterations=20, batch_size=4, widths=(8,))).save(ckpt)
    x, y = tmp / "x.txt", tmp / "y.txt"
    write_cloud_text(x, np.random.default_rng(1).standard_normal((3, 2)))
    write_cloud_text(y, np.random.default_rng(0).standard_normal((3, 2)))
    return {"ckpt": str(ckpt), "x": str(x), "y": str(y)}


class TestHugeHorizon:
    @pytest.mark.parametrize("grid", ["uniform", "geometric"])
    @pytest.mark.parametrize("horizon", ["1e200", "1e300", "1e308"])
    @pytest.mark.parametrize("source", ["sample", "exact", "mcmc", "model"])
    def test_overflow_gives_one_error_line_and_no_warning(
        self, ring_files, capsys, source, horizon, grid
    ):
        # The state overflows within two steps. Warnings are recorded, not
        # raised, so one raised inside a score callback cannot pass as its error.
        if source == "sample":
            argv = ["sample", "--checkpoint", ring_files["ckpt"], "--n", "2"]
        else:
            argv = ["reverse", "--init", ring_files["y"], "--ref", ring_files["x"],
                    "--checkpoint", ring_files["ckpt"], "--score-source", source]
        argv += ["--horizon", horizon, "--grid", grid, "--steps", "8"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, argv)
        assert [str(w.message) for w in caught] == []
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestPosterior:
    def test_exact_stdout_is_pinned_at_n8(self, tmp_path, capsys):
        # sha256 of the stdout written by one json.dumps per row.
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 2))
        write_cloud_text(tmp_path / "x.txt", x)
        y = x[rng.permutation(8)] + 0.3 * rng.standard_normal((8, 2))
        write_cloud_text(tmp_path / "y.txt", y)
        code, out, _ = run_cli(capsys, ["posterior", "--x", str(tmp_path / "x.txt"),
                                        "--y", str(tmp_path / "y.txt"), "--t", "0.7"])
        assert code == 0 and len(out.splitlines()) == 40320
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "93f41b81e8104261ab4766d247f49c5e4ce6ca36db9cd7bc935b23ec042665c2"
        )

    def test_exact_row_of_zero_weight_is_a_domain_error(self, tmp_path, capsys):
        # The swap's cost overflows, so its log weight is -inf, which JSON
        # cannot hold; the identity's weight is finite.
        x = tmp_path / "x.txt"
        write_cloud_text(x, np.array([[0.0], [1e5]]))
        argv = ["posterior", "--x", str(x), "--y", str(x), "--t", "1e-300"]
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert err == "error: category=domain: " + cli._NOT_FINITE + "\n"

    def test_exact_records_and_weights(self, clouds, capsys):
        x, y, _ = clouds
        code, out, _ = run_cli(capsys, ["posterior", "--x", x, "--y", y, "--t", "0.5"])
        assert code == 0
        records = validate_lines(out, "posterior-record.json")
        assert len(records) == 2
        total = sum(math.exp(r["log_weight"]) for r in records)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mcmc_with_diagnostics(self, clouds, capsys):
        x, y, tmp = clouds
        diag_path = tmp / "diag.json"
        code, out, _ = run_cli(
            capsys,
            [
                "posterior", "--x", x, "--y", y, "--t", "0.5", "--mode", "mcmc",
                "--k", "50", "--seed", "3", "--diagnostics", str(diag_path),
            ],
        )
        assert code == 0
        records = validate_lines(out, "posterior-record.json")
        assert len(records) == 50
        diag = json.loads(diag_path.read_text())
        jsonschema.validate(diag, load_schema("posterior-diagnostics.json"))

    def test_diagnostics_outside_mcmc_is_a_domain_error(self, clouds, capsys):
        # The exact posterior runs no chain, so it has no diagnostics to write.
        x, y, tmp = clouds
        diag_path = tmp / "diag.json"
        code, out, err = run_cli(
            capsys, ["posterior", "--x", x, "--y", y, "--t", "0.5", "--diagnostics", str(diag_path)]
        )
        assert code == cli.EXIT_DOMAIN
        assert out == "" and not diag_path.exists()
        assert len(err.splitlines()) == 1 and "--mode mcmc" in err


class TestScore:
    def test_exact(self, clouds, capsys):
        x, y, _ = clouds
        code, out, _ = run_cli(capsys, ["score", "--x", x, "--y", y, "--t", "0.5"])
        assert code == 0
        rec = validate_lines(out, "score.json")[0]
        assert rec["method"] == "exact" and rec["diagnostics"] is None
        assert np.asarray(rec["score"]).shape == (2, 1)

    def test_mcmc_diagnostics_included(self, clouds, capsys):
        x, y, _ = clouds
        code, out, _ = run_cli(
            capsys, ["score", "--x", x, "--y", y, "--t", "0.5", "--mode", "mcmc", "--k", "20"]
        )
        assert code == 0
        rec = validate_lines(out, "score.json")[0]
        assert rec["diagnostics"]["proposal_count"] > 0


class TestTrajectories:
    def test_forward_records(self, clouds, capsys):
        x, _, _ = clouds
        code, out, _ = run_cli(
            capsys,
            ["forward", "--x", x, "--horizon", "1.0", "--steps", "5", "--seed", "1",
             "--assignment-trace"],
        )
        assert code == 0
        records = validate_lines(out, "trajectory-record.json")
        assert len(records) == 6
        assert records[0]["t"] == 0.0 and records[-1]["t"] == 1.0
        assert all("assignment" in r for r in records)

    def test_reverse_exact_source(self, clouds, capsys):
        x, y, _ = clouds
        code, out, _ = run_cli(
            capsys,
            ["reverse", "--init", y, "--ref", x, "--score-source", "exact",
             "--horizon", "1.0", "--steps", "8", "--seed", "2"],
        )
        assert code == 0
        records = validate_lines(out, "trajectory-record.json")
        assert len(records) == 9
        assert records[0]["t"] == 1.0 and records[-1]["t"] == 0.0

    def test_reverse_mcmc_seeds_each_step_apart(self, clouds, capsys, monkeypatch):
        x, y, tmp = clouds
        seeds = []

        def recording(ref, state, t, cfg):
            seeds.append(cfg.seed)
            return ou_conditional_score_mcmc(ref, state, t, cfg)

        monkeypatch.setattr(cli, "ou_conditional_score_mcmc", recording)
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            argv = ["reverse", "--init", y, "--ref", x, "--score-source", "mcmc", "--k", "8",
                    "--horizon", "1.0", "--steps", "6", "--seed", "3", "--out", str(tmp / name)]
            assert run_cli(capsys, argv)[0] == 0
            outs.append((tmp / name).read_bytes())
        assert len(set(seeds[:6])) == 6 and 3 not in seeds
        assert seeds[6:] == seeds[:6]
        assert outs[0] == outs[1]

    def test_reverse_requires_ref_for_exact(self, clouds, capsys):
        _, y, _ = clouds
        code, _, err = run_cli(
            capsys, ["reverse", "--init", y, "--score-source", "exact", "--steps", "4"]
        )
        assert code == cli.EXIT_DOMAIN
        assert "--ref" in err

    def test_reverse_assignment_trace_requires_ref(self, clouds, capsys):
        _, y, tmp = clouds
        ckpt = tmp / "m.ckpt"
        train([np.zeros((2, 1))], TrainConfig(iterations=0, widths=(2,))).save(ckpt)
        argv = ["reverse", "--init", y, "--score-source", "model", "--checkpoint", str(ckpt),
                "--steps", "2", "--assignment-trace"]
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert "--assignment-trace requires --ref" in err

    def test_reverse_requires_checkpoint_for_model(self, clouds, capsys):
        _, y, _ = clouds
        code, _, err = run_cli(
            capsys, ["reverse", "--init", y, "--score-source", "model", "--steps", "4"]
        )
        assert code == cli.EXIT_DOMAIN
        assert "--checkpoint" in err



class TestTrainSampleRoundtrip:
    def _write_dataset(self, tmp_path, n_items=8):
        rng = np.random.default_rng(5)
        path = tmp_path / "data.jsonl"
        write_dataset(path, [rng.standard_normal((2, 1)) for _ in range(n_items)])
        return str(path)

    def test_train_then_sample(self, tmp_path, capsys):
        data = self._write_dataset(tmp_path)
        ckpt_path = tmp_path / "model.ckpt"
        code, out, _ = run_cli(
            capsys,
            ["train", "--data", data, "--out", str(ckpt_path), "--iterations", "20",
             "--batch-size", "4", "--width", "8", "--depth", "1", "--seed", "4"],
        )
        assert code == 0
        summary = json.loads(out)
        jsonschema.validate(summary, load_schema("train-summary.json"))
        assert ckpt_path.exists()

        code, out, _ = run_cli(
            capsys,
            ["sample", "--checkpoint", str(ckpt_path), "--n", "3", "--steps", "8",
             "--seed", "9"],
        )
        assert code == 0
        records = validate_lines(out, "dataset-record.json")
        assert len(records) == 3

    def test_config_file_merging(self, tmp_path, capsys):
        data = self._write_dataset(tmp_path)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text("iterations = 10\nwidth = 8\ndepth = 1\nbatch-size = 4\n")
        ckpt_path = tmp_path / "m.ckpt"
        # --iterations on the command line beats the config file
        code, out, _ = run_cli(
            capsys,
            ["train", "--data", data, "--config", str(cfg_file), "--iterations", "5",
             "--out", str(ckpt_path), "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["iterations"] == 5

    def test_config_file_applies_when_flag_absent(self, tmp_path, capsys):
        data = self._write_dataset(tmp_path)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text("iterations = 7\nwidth = 8\ndepth = 1\nbatch-size = 4\n")
        ckpt_path = tmp_path / "m.ckpt"
        code, out, _ = run_cli(
            capsys,
            ["train", "--data", data, "--config", str(cfg_file), "--out", str(ckpt_path),
             "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["iterations"] == 7

    @pytest.mark.parametrize("flags", [["--iterations=5"], ["--iter", "5"]], ids=["equals", "prefix"])
    def test_flag_forms_beat_config_file(self, tmp_path, capsys, flags):
        data = self._write_dataset(tmp_path)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text("iterations = 7\nwidth = 8\ndepth = 1\nbatch-size = 4\n")
        code, out, _ = run_cli(
            capsys,
            ["train", "--data", data, "--config", str(cfg_file), *flags,
             "--out", str(tmp_path / "m.ckpt"), "--seed", "1"],
        )
        assert code == 0
        assert json.loads(out)["iterations"] == 5

    def test_config_file_not_utf8(self, tmp_path, capsys):
        data = self._write_dataset(tmp_path)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_bytes(b"iterations = 7\n# caf\xe9\n")
        code, out, err = run_cli(
            capsys,
            ["train", "--data", data, "--config", str(cfg_file), "--out",
             str(tmp_path / "m.ckpt")],
        )
        assert code == cli.EXIT_PARSE
        assert err.startswith("error: category=parse") and "UTF-8" in err
        assert out == ""

    def test_bad_config_key(self, tmp_path, capsys):
        data = self._write_dataset(tmp_path)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text("unknown_knob = 3\n")
        code, _, err = run_cli(
            capsys,
            ["train", "--data", data, "--config", str(cfg_file), "--out",
             str(tmp_path / "m.ckpt")],
        )
        assert code == cli.EXIT_PARSE
        assert "category=parse" in err

    @pytest.mark.parametrize(
        "line", ["iterations 7", "iterations = many", "seed = -1"],
        ids=["no-equals", "bad-value", "negative-seed"],
    )
    def test_bad_config_line_is_a_parse_error(self, tmp_path, capsys, line):
        data = self._write_dataset(tmp_path)
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text(f"width = 8\n{line}\n")
        code, out, err = run_cli(
            capsys,
            ["train", "--data", data, "--config", str(cfg_file), "--out",
             str(tmp_path / "m.ckpt")],
        )
        assert code == cli.EXIT_PARSE
        assert out == ""
        assert err.startswith("error: category=parse") and "train.cfg:2:" in err

    def test_divergence_exit_code(self, tmp_path, capsys):
        data = self._write_dataset(tmp_path)
        code, _, err = run_cli(
            capsys,
            ["train", "--data", data, "--out", str(tmp_path / "m.ckpt"),
             "--iterations", "300", "--step-size", "10.0", "--width", "8",
             "--depth", "1", "--seed", "0"],
        )
        assert code == cli.EXIT_DIVERGED
        assert "category=diverged" in err


class TestBenchCommands:
    def test_bench_score_report_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "errs.csv"
        code, out, _ = run_cli(
            capsys,
            ["bench-score", "--k-grid", "4,16", "--replicates", "5", "--seed", "2",
             "--csv", str(csv_path)],
        )
        assert code == 0
        rec = validate_lines(out, "estimator-study.json")[0]
        assert len(rec["mean_errors"]) == 2
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "k,mean_error"
        assert len(lines) == 3

    def test_bench_score_bad_k_grid_is_a_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["bench-score", "--k-grid", "4,x"])
        assert code == cli.EXIT_USAGE
        assert "--k-grid" in err and out == ""

    def test_bench_score_one_point_is_a_domain_error(self, capsys):
        # At N = 1 the MCMC score is exact: the errors are rounding noise and
        # a slope fitted to them means nothing.
        code, out, err = run_cli(capsys, ["bench-score", "--n", "1"])
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: category=domain: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench-score", "--t", "-1"],
            ["bench-score", "--k-grid", "8"],
            ["bench-gen", "--kind", "ring", "--reference", "0"],
            ["bench-gen", "--kind", "ring", "--samples", "1"],
            ["bench-gen", "--kind", "ring", "--shuffles", "-3"],
            ["bench-gen", "--kind", "ring", "--shuffles", "0"],
        ],
        ids=["negative-t", "one-k", "no-reference", "one-sample", "negative-shuffles",
             "no-shuffles"],
    )
    def test_bench_edge_inputs_are_domain_errors(self, monkeypatch, capsys, argv):
        # Rejected before any work: the study instance and the training fail the test.
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(bench, "default_study_instance", no_work)
        monkeypatch.setattr(bench, "train", no_work)
        code, out, err = run_cli(capsys, argv)
        assert code == cli.EXIT_DOMAIN
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: category=domain: ")

    def test_flags_left_out_keep_the_library_defaults(self, monkeypatch, capsys, tmp_path):
        # With no optional flag, bench-score, bench-gen and make-data pass the
        # library none of the parameters that it defaults.
        passed = {}

        def stub(name, result):
            signature = inspect.signature(getattr(bench, name))

            def fake(*args, **kwargs):
                passed[name] = signature.bind(*args, **kwargs).arguments
                return result

            monkeypatch.setattr(bench, name, fake)

        stub("run_estimator_study", bench.EstimatorStudy(2, 1, 0.5, 0, (1, 2), 2, (1.0, 0.5), -1.0))
        stub("run_toy_generation", bench.GenReport(0, 0, 0.0, 1.0, trained=False))
        stub("make_synthetic_dataset", [np.zeros((3, 2))])
        assert run_cli(capsys, ["bench-score"])[0] == 0
        assert set(passed["run_estimator_study"]) == {"seed"}
        dataset_args = {"kind", "n_items", "n_points", "dim", "seed"}
        argv = ["make-data", "--kind", "ring", "--out", str(tmp_path / "d.jsonl")]
        assert run_cli(capsys, argv)[0] == 0
        assert set(passed["make_synthetic_dataset"]) == dataset_args
        passed.clear()
        assert run_cli(capsys, ["bench-gen", "--kind", "ring"])[0] == 0
        assert set(passed["make_synthetic_dataset"]) == dataset_args
        gen = passed["run_toy_generation"]
        assert set(gen) == {"dataset", "train_cfg", "schedule", "seed", "do_train"}
        t_end = inspect.signature(NoiseSchedule.geometric).parameters["t_end"].default
        assert gen["schedule"].grid[1] == t_end

    def test_bench_score_cap_reaches_exact_reference(self, capsys):
        # N = 10 is above the enumeration cap; the exact reference score
        # comes from the subset DP, which needs no --cap.
        code, out, _ = run_cli(
            capsys, ["bench-score", "--n", "10", "--k-grid", "2,4", "--replicates", "2"]
        )
        assert code == 0
        assert validate_lines(out, "estimator-study.json")[0]["n"] == 10

    def test_make_data_and_bench_gen_no_train(self, tmp_path, capsys):
        data_path = tmp_path / "toy.jsonl"
        code, out, _ = run_cli(
            capsys,
            ["make-data", "--kind", "jittered-template", "--items", "24", "--points", "2",
             "--dim", "1", "--seed", "3", "--out", str(data_path)],
        )
        assert code == 0
        assert json.loads(out)["items"] == 24
        validate_lines(data_path.read_text(), "dataset-record.json")

        code, out, _ = run_cli(
            capsys,
            ["bench-gen", "--kind", "jittered-template", "--items", "24", "--points", "2",
             "--dim", "1", "--iterations", "5", "--batch-size", "4", "--width", "8",
             "--depth", "1", "--samples", "8", "--reference", "8", "--shuffles", "50",
             "--steps", "8", "--seed", "3", "--no-train"],
        )
        assert code == 0
        rec = validate_lines(out, "gen-report.json")[0]
        assert rec["trained"] is False
        assert 0.0 <= rec["p_value"] <= 1.0

    def test_bench_gen_passes_train_flags_to_config(self, monkeypatch, capsys):
        seen = []

        def fake_run(dataset, train_cfg, schedule, **kwargs):
            seen.append(train_cfg)
            return bench.GenReport(0, 0, 0.0, 1.0, trained=False)

        monkeypatch.setattr(bench, "run_toy_generation", fake_run)
        code, _, _ = run_cli(
            capsys,
            ["bench-gen", "--kind", "ring", "--items", "8", "--momentum", "0.5",
             "--target-mode", "mcmc", "--mcmc-k", "7", "--weighting", "variance-scaled",
             "--holdout-fraction", "0.25", "--eval-every", "9", "--width", "8",
             "--depth", "3", "--seed", "4"],
        )
        assert code == 0
        (cfg,) = seen
        assert cfg.momentum == 0.5
        assert cfg.target_mode == "mcmc"
        assert cfg.mcmc_k == 7
        assert cfg.weighting == "variance-scaled"
        assert cfg.holdout_fraction == 0.25
        assert cfg.eval_every == 9
        assert cfg.widths == (8, 8, 8)
        assert cfg.seed == 4
