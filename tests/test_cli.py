"""End-to-end CLI tests (in-process via main())."""

import argparse
import csv
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from shtc import cli

from .oracles import write_ppm


@pytest.fixture()
def table_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 6)) @ rng.normal(size=(6, 6)) * 0.5
    path = tmp_path / "table.csv"
    cli.save_table(path, x)
    return str(path), x


@pytest.fixture()
def fit_config(tmp_path):
    path = tmp_path / "fit.cfg"
    path.write_text(
        "lambda = 0.008\niters = 60\nbatch = 32\nrank = 3\nn_meas = 3\nn_layers = 2\n"
        "# comment line\ntransform = shtc-full\n"
    )
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out.startswith("{") else out


class TestTableIo:
    def test_csv_round_trip(self, tmp_path):
        x = np.array([[1.5, -2.25], [0.125, 9.0]])
        path = tmp_path / "t.csv"
        cli.save_table(path, x)
        assert np.array_equal(cli.load_table(str(path)), x)

    def test_raw_f32_with_sidecar(self, tmp_path):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        path = tmp_path / "t.f32"
        x.astype("<f4").tofile(path)
        (tmp_path / "t.f32.dims").write_text("3 4")
        assert np.array_equal(cli.load_table(str(path)), x)

    @pytest.mark.parametrize("text, shape", [("c0\n1\n2\n3\n4\n", (4, 1)), ("c0,c1,c2\n1,2,3\n", (1, 3))])
    def test_csv_of_one_column_or_one_row(self, tmp_path, text, shape):
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert cli.load_table(str(path)).shape == shape

    def test_non_positive_sidecar_dims_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "t.f32"
        np.zeros(6, dtype="<f4").tofile(path)
        (tmp_path / "t.f32.dims").write_text("-2 -3")  # their product matches the 6 values
        code = cli.main(["encode", str(path), str(tmp_path / "bundle.shtc"), "--out", str(tmp_path)])
        assert code == 3
        assert "dims sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raw_table_exits_3(self, tmp_path, capsys, bad):
        # as a CSV does: a NaN or inf in a raw table is a data error, not a
        # LinAlgError in the fit
        x = np.random.default_rng(0).normal(size=(200, 8))
        x[17, 3] = bad
        path = tmp_path / "t.f32"
        x.astype("<f4").tofile(path)
        (tmp_path / "t.f32.dims").write_text("200 8")
        code = cli.main(["fit", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_table_beyond_binary32_exits_3(self, tmp_path, capsys):
        x = np.random.default_rng(0).normal(size=(200, 8))
        x[17, 3] = 1e39
        path = tmp_path / "t.csv"
        cli.save_table(str(path), x)
        code = cli.main(["fit", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "binary32" in capsys.readouterr().err
        assert not (tmp_path / "bundle.shtc").exists()

    def test_missing_sidecar(self, tmp_path):
        from shtc.errors import DataError

        path = tmp_path / "raw.f32"
        path.write_bytes(b"\x00" * 16)
        with pytest.raises(DataError):
            cli.load_table(str(path))


class TestThreads:
    def test_a_set_variable_wins_over_the_flag(self, monkeypatch):
        # --threads fills each BLAS variable the environment leaves unset; one
        # already set keeps its value, and no other variable is read
        for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "")  # restored, or unset again, after the test
            monkeypatch.delenv(var)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setenv("SHTC_THREADS", "7")
        cli._apply_threads(cli.build_parser().parse_args(["decode", "f.shtc", "--threads", "2"]))
        assert [os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")] == [
            "2", "3", "2"
        ]


    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_fewer_than_one_thread_rejected(self, monkeypatch, capsys, count):
        # OpenBLAS reads a thread count below 1 as no cap: the parser refuses
        # it before any variable is written
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "f.shtc", "--threads", count])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_an_in_process_main_leaves_the_variables_alone(self, monkeypatch, tmp_path):
        # numpy is loaded, so BLAS has sized its pools: --threads would only
        # leak into the calls and tests after this one
        assert "numpy" in sys.modules
        monkeypatch.setenv("OMP_NUM_THREADS", "5")
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert cli.main(["decode", str(tmp_path / "missing.shtc"), "--threads", "2", "--out", str(tmp_path)]) == 3
        assert os.environ["OMP_NUM_THREADS"] == "5"
        assert "OPENBLAS_NUM_THREADS" not in os.environ and "MKL_NUM_THREADS" not in os.environ

    def test_the_entry_point_applies_the_flag(self, tmp_path):
        # a fresh process, as the shtc script starts one: main runs before numpy loads
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        script = ("import os, sys; from shtc.cli import main; main(sys.argv[1:]); "
                  "print(*(os.environ[v] for v in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS')))")
        out = subprocess.run(
            [sys.executable, "-c", script, "decode", str(tmp_path / "missing.shtc"), "--threads", "2",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.split() == ["2", "2", "2"]


class TestConfigParsing:
    # joint and refit_period name a removed training mode: an old config must fail loudly
    @pytest.mark.parametrize("key, value", [("bogus_key", "3"), ("joint", "true"), ("refit_period", "500")])
    def test_unknown_key_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"lambda = 0.01\n{key} = {value}\n")
        code = cli.main(["fit", "missing.csv", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("iters = many\n")
        code = cli.main(["fit", "x.csv", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2


    def test_bad_training_settings_rejected(self, tmp_path, capsys):
        data = tmp_path / "t.csv"
        cli.save_table(data, np.random.default_rng(0).normal(size=(300, 8)))
        for line in ("log_every = 0", "batch = -5", "batch = 0", "lr = -1", "iters = -3"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(line + "\n")
            assert cli.main(["fit", str(data), "--config", str(cfg), "--out", str(tmp_path)]) == 2, line
            assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "bundle.shtc").exists()

    def test_bad_stream_settings_rejected(self, tmp_path, capsys):
        data = tmp_path / "t.csv"
        cli.save_table(data, np.random.default_rng(0).normal(size=(60, 7)))
        for line in ("n_layers = 0", "n_meas = 0", "n_atoms = 70000", "transform = haar"):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(line + "\n")
            assert cli.main(["fit", str(data), "--config", str(cfg), "--out", str(tmp_path)]) == 2, line
            assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "bundle.shtc").exists()

    def test_config_keys_name_callee_parameters(self):
        # a key its callee does not take would end a fit in a TypeError (exit 1)
        from shtc.codec import default_configs
        from shtc.trainer import TrainConfig

        assert set(cli._TRAIN_KEYS) <= {f.name for f in dataclasses.fields(TrainConfig)}
        assert set(cli._STREAM_KEYS) <= set(inspect.signature(default_configs).parameters)

    def test_unset_keys_keep_the_defaults_of_the_callee(self):
        from shtc.codec import default_configs
        from shtc.trainer import TrainConfig

        args = argparse.Namespace(lam=None, seed=None)
        assert cli._stream_configs(50, {}) == default_configs(50)
        assert cli._train_config({}, args) == TrainConfig()
        cfg = {"lambda": 0.02, "iters": 7, "rank": 4}
        assert cli._stream_configs(50, cfg) == default_configs(50, rank=4)
        assert cli._train_config(cfg, args) == TrainConfig(lam=0.02, iters=7)

    def test_bench_passes_only_the_keys_it_is_given(self, tmp_path, capsys, monkeypatch):
        from shtc import bench

        seen = []
        monkeypatch.setattr(bench, "synth_source", lambda spec: seen.append(spec) or np.zeros((2, 2)))
        monkeypatch.setattr(bench, "baseline_rd", lambda x, method, lambdas, **kw: seen.append(kw))
        monkeypatch.setattr(bench, "write_rd_csv", lambda curves, path: None)
        monkeypatch.setattr(bench, "write_bd_csv", lambda curves, path: [])
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n_rows = 300\nnoise = 0.5\niters = 40\nmethods = dct\n")
        assert cli.main(["bench", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert seen == [bench.SyntheticSpec(n_rows=300, noise=0.5), {"seed": 0, "iters": 40}]

    def test_quoted_bench_list_items_accepted(self, tmp_path, capsys, monkeypatch):
        # each item of a list key may be quoted, as a single value may
        from shtc import bench

        seen = []
        monkeypatch.setattr(bench, "synth_source", lambda spec: seen.append(spec) or np.zeros((2, 2)))
        monkeypatch.setattr(bench, "baseline_rd", lambda x, method, lambdas, **kw: seen.append((method, lambdas)))
        monkeypatch.setattr(bench, "write_rd_csv", lambda curves, path: None)
        monkeypatch.setattr(bench, "write_bd_csv", lambda curves, path: [])
        cfg = tmp_path / "bench.cfg"
        cfg.write_text('basis = "smooth"\nmethods = ["dct", \'none\']\nlambdas = ["0.002", 0.004]\n')
        assert cli.main(["bench", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert seen == [bench.SyntheticSpec(basis="smooth"), ("dct", [0.002, 0.004]), ("none", [0.002, 0.004])]

    @pytest.mark.parametrize("line", ["basis = foo", "sparsity = 51", "rank = 51"])
    def test_bad_bench_source_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(line + "\n")
        assert cli.main(["bench", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, flags",
        [("methods = [foo]", []), ("methods = dct, foo", []), ("", ["--method", "foo"])],
        ids=["config", "config-list", "flag"],
    )
    def test_unknown_bench_method_rejected_before_training(self, tmp_path, capsys, monkeypatch, line, flags):
        from shtc import bench

        def no_sweep(*args, **kw):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr(bench, "synth_source", no_sweep)
        monkeypatch.setattr(bench, "baseline_rd", no_sweep)
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(line + "\n")
        assert cli.main(["bench", "--config", str(cfg), *flags, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "foo" in err

    def test_bad_bench_stream_setting_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n_rows = 100\ndim = 6\nrank = 3\nsparsity = 1\nn_layers = 0\n")
        assert cli.main(["bench", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "n_layers" in capsys.readouterr().err
        assert not (tmp_path / "rd_curve.csv").exists()

    def test_non_numeric_bench_lambdas_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("methods = dct\nlambdas = [a, b]\n")
        assert cli.main(["bench", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "lambdas" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["decode", "f", "--lambda", "1"],
            ["encode", "t.csv", "b.shtc", "--seed", "0"],
            ["report", "--config", "c.cfg"],
            ["fit", "t.csv", "--method", "dct"],
        ],
    )
    def test_flags_a_command_does_not_read_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command,line", [("fit", "quant_mode = ste"), ("bench", "spike_mix = 0.5")])
    def test_keys_outside_the_surface_rejected(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        args = [command, "x.csv"] if command == "fit" else [command]
        assert cli.main([*args, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert line.split()[0] in capsys.readouterr().err


class TestFitEncodeDecodeEval:
    def test_full_pipeline(self, tmp_path, capsys, table_csv, fit_config):
        table_path, x = table_csv
        out = str(tmp_path / "run")
        code, fit_info = run(
            capsys, "fit", table_path, "--config", fit_config, "--seed", "3", "--out", out
        )
        assert code == 0
        assert os.path.exists(fit_info["bundle"])
        assert os.path.exists(fit_info["train_log"])

        code, enc_info = run(capsys, "encode", table_path, fit_info["bundle"], "--out", out)
        assert code == 0
        assert enc_info["payload_bytes"] > 0

        code, dec_info = run(capsys, "decode", enc_info["encoded"], "--out", out)
        assert code == 0
        decoded = cli.load_table(dec_info["decoded"])
        assert decoded.shape == x.shape

        code, ev = run(capsys, "eval", table_path, enc_info["encoded"], "--out", out)
        assert code == 0
        assert ev["l1"] == pytest.approx(np.abs(x - decoded).mean(), rel=1e-6)
        assert "mdl" in ev and ev["bits_per_row"] > 0

    @pytest.mark.parametrize("iters, rows", [(0, 0), (3, 2)])
    def test_train_log_has_its_header(self, tmp_path, capsys, table_csv, iters, rows):
        # a header, iter first, even when no iteration ran; a row is logged
        # at iteration 1 and every log_every
        header = ["iter", "loss", "bits_base", "bits_refine", "l1_total", "l1_residual", "grad_norm", "lr"]
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(f"iters = {iters}\nbatch = 16\nlog_every = 2\nrank = 3\nn_meas = 3\nn_layers = 2\n")
        code, fit_info = run(capsys, "fit", table_csv[0], "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        with open(fit_info["train_log"], newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
        assert lines[0] == header
        assert [int(line[0]) for line in lines[1:]] == [1, 2][:rows]
        assert all(len(line) == len(header) for line in lines)

    def test_eval_parses_a_bitstream_once(self, tmp_path, capsys, monkeypatch):
        from shtc import bitstream, codec

        from .test_bitstream import fitted_bundle

        bundle, x = fitted_bundle(2)
        table, path = tmp_path / "t.csv", tmp_path / "f.shtc"
        cli.save_table(table, x)
        bitstream.write(bundle, codec.encode_table(bundle, x)[0], path)
        calls = []
        deserialize = bitstream.deserialize
        monkeypatch.setattr(bitstream, "deserialize", lambda data: calls.append(1) or deserialize(data))
        code, ev = run(capsys, "eval", str(table), str(path), "--out", str(tmp_path))
        assert code == 0 and ev["mdl"]["file_bytes"] == path.stat().st_size
        assert len(calls) == 1

    def test_eval_identical_tables(self, tmp_path, capsys, table_csv):
        table_path, _ = table_csv
        code, ev = run(capsys, "eval", table_path, table_path, "--out", str(tmp_path))
        assert code == 0
        assert ev["l1"] == 0.0

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = cli.main(["fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 3

    def test_overflowing_table_is_data_error(self, tmp_path, capsys, table_csv, fit_config):
        table_path, x = table_csv
        _, fit_info = run(capsys, "fit", table_path, "--config", fit_config, "--out", str(tmp_path))
        huge = tmp_path / "huge.csv"
        cli.save_table(huge, np.where(np.arange(x.shape[1]) == 0, 1e15, x))
        code = cli.main(["encode", str(huge), fit_info["bundle"], "--out", str(tmp_path)])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_hostile_model_block_is_data_error(self, tmp_path, capsys):
        from shtc import bitstream, codec

        from .test_bitstream import fitted_bundle, forge_model_float, model_floats

        bundle, x = fitted_bundle(2)
        data, _ = bitstream.serialize(bundle, codec.encode_table(bundle, x)[0])
        path = tmp_path / "nan_sigma.shtc"
        path.write_bytes(forge_model_float(data, model_floats(bundle.streams[0])["base.sigma"][0], np.nan))
        code = cli.main(["decode", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "decoded.csv").exists()

    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_overflowing_synthesis_is_data_error(self, tmp_path, capsys, command):
        # a refinement step of exp(800) makes every reconstruction non-finite:
        # the encoder writes no file for it, and the decoder refuses a file of it
        from shtc import bitstream, codec

        from .test_bitstream import fitted_bundle
        from .test_codec import overflowing

        bundle, x = fitted_bundle(2)
        forged = overflowing(bundle, 800.0)
        if command == "encode":
            table = tmp_path / "table.csv"
            cli.save_table(table, x)
            bitstream.write(forged, None, tmp_path / "bundle.shtc")
            argv = ["encode", str(table), str(tmp_path / "bundle.shtc")]
        else:
            bitstream.write(forged, codec.encode_table(bundle, x)[0], tmp_path / "forged.shtc")
            argv = ["decode", str(tmp_path / "forged.shtc")]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 3
        assert "decodes to non-finite values" in capsys.readouterr().err
        assert not (tmp_path / "encoded.shtc").exists() and not (tmp_path / "decoded.csv").exists()

    @pytest.mark.parametrize("fields", [{"kind": 9}, {"rank": 0}, {"dim": 5}], ids=["kind", "rank", "dim"])
    def test_hostile_dims_block_is_data_error(self, tmp_path, capsys, fields):
        from shtc import bitstream, codec

        from .test_bitstream import fitted_bundle, forge_dims

        bundle, x = fitted_bundle(2)
        data, _ = bitstream.serialize(bundle, codec.encode_table(bundle, x)[0])
        path = tmp_path / "forged_dims.shtc"
        path.write_bytes(forge_dims(data, **fields))
        code = cli.main(["decode", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "decoded.csv").exists()

    def test_payload_rows_differ_from_header_is_data_error(self, tmp_path, capsys):
        from shtc import bitstream, codec

        from .test_bitstream import fitted_bundle

        bundle, x = fitted_bundle(2)
        payload = codec.encode_table(bundle, x[:50])[0]
        path = tmp_path / "rows.shtc"
        path.write_bytes(bitstream.serialize(bundle, codec.Payload(payload.data, 150))[0])
        code = cli.main(["decode", str(path), "--out", str(tmp_path)])
        assert code == 3
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "decoded.csv").exists()

    def test_older_version_is_data_error(self, tmp_path, capsys):
        import struct
        import zlib

        from shtc import bitstream, codec

        from .test_bitstream import fitted_bundle

        bundle, x = fitted_bundle(2)
        data, _ = bitstream.serialize(bundle, codec.encode_table(bundle, x)[0])
        head = data[:4] + struct.pack("<H", 2) + data[6:12]  # a v2 header
        path = tmp_path / "v2.shtc"
        path.write_bytes(head + struct.pack("<I", zlib.crc32(head)) + data[16:])
        assert cli.main(["decode", str(path), "--out", str(tmp_path)]) == 3
        assert "version 2 unsupported" in capsys.readouterr().err
        assert not (tmp_path / "decoded.csv").exists()

    def test_deterministic_fit_encode(self, tmp_path, capsys, table_csv, fit_config):
        table_path, _ = table_csv
        blobs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            _, fit_info = run(capsys, "fit", table_path, "--config", fit_config, "--seed", "11", "--out", out)
            _, enc_info = run(capsys, "encode", table_path, fit_info["bundle"], "--out", out)
            blobs.append(Path(enc_info["encoded"]).read_bytes())
        assert blobs[0] == blobs[1]


class TestBench:
    def test_small_sweep_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "n_rows = 200\ndim = 6\nrank = 3\nsparsity = 1\niters = 30\nbatch = 32\n"
            "methods = none, klt-trunc\nlambdas = 0.002, 0.004, 0.008, 0.015\n"
        )
        out = str(tmp_path / "bench_out")
        code, info = run(capsys, "bench", "--config", str(cfg), "--seed", "0", "--out", out)
        assert code == 0
        rd_rows = Path(info["rd_curve"]).read_text().strip().splitlines()
        assert len(rd_rows) == 1 + 2 * 4
        assert os.path.exists(info["bd_rate"])

    def test_default_run_emits_five_curves_of_four_points(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("n_rows = 150\ndim = 6\nrank = 3\nsparsity = 1\niters = 20\nbatch = 32\n")
        out = str(tmp_path / "bench_out")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, info = run(capsys, "bench", "--config", str(cfg), "--seed", "1", "--out", out)
        assert code == 0
        rows = list(csv.DictReader(Path(info["rd_curve"]).read_text().splitlines()))
        assert len(rows) == 5 * 4
        bits = {}
        for row in rows:
            bits.setdefault(row["method"], []).append(float(row["bits"]))
        assert set(bits) == {"none", "dct", "haar", "klt-trunc", "shtc-full"}
        # 20 iterations on 150 rows can code two points of a curve in the same
        # bits; exactly those curves warn
        repeated = sorted(m for m, b in bits.items() if len(set(b)) < len(b))
        assert sorted(str(w.message) for w in caught) == [
            f"{m}: rates not strictly increasing after sort" for m in repeated
        ]

    def test_reruns_reproduce_csvs(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(
            "n_rows = 150\ndim = 6\nrank = 3\nsparsity = 1\niters = 25\nbatch = 32\n"
            "methods = klt-trunc, shtc-full\nlambdas = 0.002, 0.004, 0.008, 0.015\n"
        )
        blobs = []
        for tag in ("x", "y"):
            out = str(tmp_path / tag)
            code, info = run(capsys, "bench", "--config", str(cfg), "--seed", "4", "--out", out)
            assert code == 0
            blobs.append(Path(info["rd_curve"]).read_text() + Path(info["bd_rate"]).read_text())
        assert blobs[0] == blobs[1]


class TestImageMetric:
    def test_reports_components(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = rng.random((8, 8, 3))
        b = np.clip(a + 0.05 * rng.standard_normal((8, 8, 3)), 0, 1)
        pa, pb = str(tmp_path / "a.ppm"), str(tmp_path / "b.ppm")
        write_ppm(pa, a)
        write_ppm(pb, b)
        code, comps = run(capsys, "image-metric", pa, pb, "--out", str(tmp_path))
        assert code == 0
        for key in ("total", "l1_y", "l1_cb", "l1_cr", "l1_laplacian_y", "tv_cb", "tv_cr"):
            assert key in comps
        assert comps["total"] > 0


class TestReport:
    def test_table_report(self, tmp_path, capsys, table_csv):
        table_path, _ = table_csv
        out = str(tmp_path / "rep")
        code, info = run(capsys, "report", "--table", table_path, "--out", out)
        assert code == 0
        assert os.path.exists(info["analysis"]["energy"])

    def test_bitstream_report(self, tmp_path, capsys, table_csv, fit_config):
        table_path, _ = table_csv
        out = str(tmp_path / "rep2")
        _, fit_info = run(capsys, "fit", table_path, "--config", fit_config, "--out", out)
        _, enc_info = run(capsys, "encode", table_path, fit_info["bundle"], "--out", out)
        code, info = run(capsys, "report", "--bitstream", enc_info["encoded"], "--out", out)
        assert code == 0
        assert info["mdl"]["file_bytes"] > 0

    def test_commands_print_the_lane_layout(self, tmp_path, capsys, table_csv, fit_config):
        # encode, eval and report print the pairing of the one record
        from shtc import bitstream

        table_path, _ = table_csv
        out = str(tmp_path / "rep3")
        _, fit_info = run(capsys, "fit", table_path, "--config", fit_config, "--out", out)
        _, enc_info = run(capsys, "encode", table_path, fit_info["bundle"], "--out", out)
        _, ev = run(capsys, "eval", table_path, enc_info["encoded"], "--out", out)
        _, info = run(capsys, "report", "--bitstream", enc_info["encoded"], "--out", out)
        mdl = bitstream.mdl_report(*bitstream.read(enc_info["encoded"]))
        assert mdl["coded_channels"] > 0 and mdl["lanes"] > 0
        for printed in (enc_info, ev["mdl"], info["mdl"]):
            assert (printed["coded_channels"], printed["lanes"]) == (mdl["coded_channels"], mdl["lanes"])

    def test_all_zero_table_is_data_error(self, tmp_path, capsys):
        table = tmp_path / "zero.csv"
        cli.save_table(table, np.zeros((20, 4)))
        assert cli.main(["report", "--table", str(table), "--out", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_needs_an_input(self, tmp_path, capsys):
        code = cli.main(["report", "--out", str(tmp_path)])
        assert code == 2
