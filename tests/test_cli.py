"""End-to-end CLI behavior: determinism, file outputs, benchmark CSV shape,
verification exit codes."""

import csv
import dataclasses
import inspect
import itertools
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import cpfast.bench
import cpfast.cli
import cpfast.solver
from cpfast.bench import CSV_COLUMNS, RunRecord, run_grid, summarize, write_csv
from cpfast.cli import main
from cpfast.cptn import read_tensor, write_tensor
from cpfast.hessian import SingularKernelError
from cpfast.synth import spectrum
from cpfast.tensor import DenseTensor


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def test_fit_defaults_are_fitconfigs():
    """The fit settings that ``fit``, ``bench`` and ``run_grid`` are not
    given default to FitConfig's, so the CLI cannot drift from the library."""
    config = cpfast.solver.FitConfig(rank=1)
    expected = {
        "algo": config.variant, "tau": config.tau, "tol": config.tol,
        "max_iters": config.max_iters, "seed": config.seed, "init": config.init,
    }
    fit_defaults = {p.name: p.default for p in main.commands["fit"].params}
    assert {name: fit_defaults[name] for name in expected} == expected
    sweep = {"tol": config.tol, "max_iters": config.max_iters}
    bench_defaults = {p.name: p.default for p in main.commands["bench"].params}
    grid_defaults = {
        name: p.default for name, p in inspect.signature(run_grid).parameters.items()
    }
    for defaults in (bench_defaults, grid_defaults):
        assert {name: defaults[name] for name in sweep} == sweep


def test_bench_stop_reasons_are_the_solvers():
    assert cpfast.bench.STOP_REASONS is cpfast.solver.STOP_REASONS


class TestGen:
    def test_deterministic_bytes(self, runner, tmp_path):
        args = ["gen", "--dims", "6,6,6", "--rank", "3", "--nu", "0.5",
                "--seed", "7", "--out", str(tmp_path / "a")]
        invoke(runner, args)
        first = (tmp_path / "a.cptn").read_bytes()
        invoke(runner, ["gen", "--dims", "6,6,6", "--rank", "3", "--nu", "0.5",
                        "--seed", "7", "--out", str(tmp_path / "b")])
        assert first == (tmp_path / "b.cptn").read_bytes()

    def test_noisy_copy_hits_target_snr(self, runner, tmp_path):
        invoke(runner, ["gen", "--dims", "22,22,22", "--rank", "3", "--nu", "0.5",
                        "--snr", "30", "--seed", "1", "--out", str(tmp_path / "n")])
        clean = read_tensor(tmp_path / "n.cptn")
        noisy = read_tensor(tmp_path / "n_noisy.cptn")
        noise2 = np.linalg.norm((noisy.data - clean.data).ravel()) ** 2
        measured = 10 * math.log10(clean.norm() ** 2 / noise2)
        assert abs(measured - 30.0) < 0.3

    def test_complex_kind_byte(self, runner, tmp_path):
        invoke(runner, ["gen", "--dims", "5,5,5", "--rank", "2", "--nu", "0.5",
                        "--complex", "--out", str(tmp_path / "c")])
        raw = (tmp_path / "c.cptn").read_bytes()
        assert raw[8] == 1

    def test_writes_truth_factors_and_sidecar(self, runner, tmp_path):
        invoke(runner, ["gen", "--dims", "5,6,7", "--rank", "2", "--nu", "0.3",
                        "--out", str(tmp_path / "g")])
        for n in (1, 2, 3):
            assert (tmp_path / f"g_factor{n}.cptn").exists()
        meta = (tmp_path / "g.meta").read_text()
        assert "dims=5,6,7" in meta and "nu=0.3" in meta


    @pytest.mark.parametrize(
        "args,message",
        [
            (["--dims", "2,2,2", "--rank", "3", "--nu", "0.5"],
             "rank 3 exceeds smallest dimension 2"),
            (["--dims", "4,4,4", "--rank", "2", "--nu", "0"], "nu must be positive"),
            (["--dims", "4,4,4", "--rank", "0", "--nu", "0.5"], "rank must be >= 1"),
            (["--dims", "4,4,4", "--rank", "2", "--nu", "nan"], "nu must be positive"),
            (["--dims", "4,4,4", "--rank", "2", "--nu", "inf"], "nu must be positive"),
        ],
        ids=["rank-above-dim", "nu-zero", "rank-zero", "nu-nan", "nu-inf"],
    )
    def test_bad_spec_exits_with_message(self, runner, tmp_path, args, message):
        """A spec that CollinearSpec rejects ends with its one-line message and
        exit status 1, not a traceback, and writes nothing."""
        result = runner.invoke(main, ["gen", *args, "--out", str(tmp_path / "g")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "Traceback" not in result.output
        assert not list(tmp_path.iterdir())


    @pytest.mark.parametrize("option,value", [("--dims", "4,x,4"), ("--snr", "abc")])
    def test_unparsable_option_is_usage_error(self, runner, tmp_path, option, value):
        args = {"--dims": "4,4,4", "--rank": "2", "--nu": "0.5", option: value}
        result = runner.invoke(
            main, ["gen", *itertools.chain(*args.items()), "--out", str(tmp_path / "g")]
        )
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["-inf", "nan", "NaN", "1e400"])
    def test_non_finite_snr_is_usage_error(self, runner, tmp_path, value):
        """Only 'inf', '+inf' and 'none' mean noiseless: -inf, NaN and a
        value that overflows to +inf end with exit status 2 and write
        nothing (no all-NaN noisy copy)."""
        result = runner.invoke(main, ["gen", "--dims", "4,4,4", "--rank", "2",
                                      "--nu", "0.5", "--snr", value,
                                      "--out", str(tmp_path / "g")])
        assert result.exit_code == 2
        assert "Invalid value for '--snr'" in result.output
        assert "SNR must be finite" in result.output
        assert not list(tmp_path.iterdir())


class TestFit:
    def test_exact_input_converges(self, runner, tmp_path):
        invoke(runner, ["gen", "--dims", "10,10,10", "--rank", "3", "--nu", "0.5",
                        "--seed", "0", "--out", str(tmp_path / "t")])
        result = invoke(runner, ["fit", str(tmp_path / "t.cptn"), "--rank", "3",
                                 "--algo", "auto", "--truth", str(tmp_path / "t.meta"),
                                 "--out", str(tmp_path / "fitted")])
        assert re.search(r" stop=tol stop_test=(gradient|window) ", result.output)
        rows = list(csv.reader(open(tmp_path / "fitted.csv")))
        assert rows[0] == list(CSV_COLUMNS)
        record = dict(zip(rows[0], rows[1]))
        assert float(record["final_relerr"]) < 1e-8
        assert record["stop_reason"] == "tol"

    def test_stop_test_printed_only_for_tol(self, runner, tmp_path):
        """``stop_test`` follows ``stop=`` on a "tol" stop and is not
        printed for a fit that runs out of iterations."""
        invoke(runner, ["gen", "--dims", "6,6,6", "--rank", "2", "--nu", "0.5",
                        "--snr", "30", "--seed", "1", "--out", str(tmp_path / "t")])
        args = ["fit", str(tmp_path / "t_noisy.cptn"), "--rank", "2"]
        out = invoke(runner, args).output
        assert re.search(r" stop=tol stop_test=(gradient|window) time_ms=", out)
        out = invoke(runner, args + ["--max-iters", "2"]).output
        assert " stop=max_iters time_ms=" in out and "stop_test" not in out

    @pytest.mark.parametrize(
        "dims,init,start",
        [("6,6,6", "svd", "gevd"), ("6,6,6", "random", "random"),
         ("2,2,5", "svd", "gevd")],
    )
    def test_start_printed_last(self, runner, tmp_path, dims, init, start):
        """The line ends with the start that ran: under the default init the
        GEVD start of the ST-HOSVD core, of the 2 x 2 x 5 tensor and of the
        6^3 tensor alike, else the init named."""
        invoke(runner, ["gen", "--dims", dims, "--rank", "2", "--nu", "0.5",
                        "--snr", "30", "--seed", "1", "--out", str(tmp_path / "t")])
        out = invoke(runner, ["fit", str(tmp_path / "t_noisy.cptn"), "--rank", "2",
                              "--init", init]).output
        assert out.splitlines()[0].endswith(f" start={start}")

    @pytest.mark.parametrize("algo", ["auto", "als-ls"])
    def test_trace_jsonl_schema(self, runner, tmp_path, algo, monkeypatch):
        """``--trace`` writes one JSON object per iteration with exactly the
        ``IterRecord`` fields, NaN as null.  ``stage`` is "full" throughout a
        plain fit; a compressed fit's trace is a run of "core" records then a
        run of "full" ones, numbered across both, and the printed relerr is
        that of the last "full" record.  ``scorer`` names the path that
        scored the iteration's candidates; only fLM scores by the decrease.
        fLM's norms are numbers, except the ``grad_norm`` of an accepted
        last record when a difference rule (``stop_test`` "window" or
        "core") ended the fit: its model is returned with no gradient.
        ``elapsed_s``, the one timing field, is positive, never decreases
        across both stages, and ends at most at the printed ``time_ms`` (to
        its 0.1 ms print precision); no timing bound is checked."""
        invoke(runner, ["gen", "--dims", "6,6,6", "--rank", "2", "--nu", "0.5",
                        "--snr", "30", "--seed", "1", "--out", str(tmp_path / "t")])
        fields = [f.name for f in dataclasses.fields(cpfast.solver.IterRecord)]
        for compressed in (False, True):
            if compressed:
                monkeypatch.setattr(cpfast.solver, "COMPRESS_MIN_RATIO", 0)
            path = tmp_path / f"trace{compressed:d}.jsonl"
            result = invoke(runner, ["fit", str(tmp_path / "t_noisy.cptn"),
                                     "--rank", "2", "--algo", algo,
                                     "--trace", str(path)])
            lines = path.read_text(encoding="utf-8").splitlines()
            iters = int(result.output.split("iters=")[1].split()[0])
            assert len(lines) == iters > 0
            rows = [json.loads(line) for line in lines]
            ended = re.search(r" stop_test=(window|core) ", result.output)
            for t, row in enumerate(rows, start=1):
                assert list(row) == fields
                assert row["iter"] == t and isinstance(row["accepted"], bool)
                assert isinstance(row["relerr"], float)
                assert isinstance(row["mu"], float)
                paths = ("gram", "dense") + (("decrease",) if algo == "auto" else ())
                assert row["scorer"] in paths
                for key in ("rho", "grad_norm", "step_norm", "accel_ratio"):
                    returned = t == iters and row["accepted"] and ended
                    if algo == "als-ls" or (key == "grad_norm" and returned):
                        assert row[key] is None
                    else:
                        assert isinstance(row[key], float)
            stages = [row["stage"] for row in rows]
            n_core = stages.count("core")
            assert stages == ["core"] * n_core + ["full"] * (iters - n_core)
            assert (n_core > 0) == compressed and stages[-1] == "full"
            relerr = float(result.output.split("relerr=")[1].split()[0])
            assert relerr == pytest.approx(rows[-1]["relerr"], rel=1e-3)
            elapsed = [row["elapsed_s"] for row in rows]
            assert all(isinstance(e, float) for e in elapsed) and elapsed[0] > 0
            assert all(a <= b for a, b in zip(elapsed, elapsed[1:]))
            time_ms = float(result.output.split("time_ms=")[1].split()[0])
            assert elapsed[-1] <= (time_ms + 0.05) / 1e3
            assert "NaN" not in path.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "option,value", [("--tau", "0"), ("--tol", "nan"), ("--max-iters", "0")]
    )
    def test_bad_config_exits_with_message(self, runner, tmp_path, option, value):
        invoke(runner, ["gen", "--dims", "4,4,4", "--rank", "2", "--nu", "0.6",
                        "--out", str(tmp_path / "v")])
        result = runner.invoke(
            main,
            ["fit", str(tmp_path / "v.cptn"), "--rank", "2", option, value],
            catch_exceptions=False,
        )
        assert result.exit_code != 0
        assert option.lstrip("-").replace("-", "_") in result.output

    @pytest.mark.parametrize(
        "entry,message",
        [(math.nan, "NaN or infinite entries"), (0.0, "cannot fit a zero tensor")],
        ids=["nan", "zero"],
    )
    def test_bad_tensor_exits_with_message(self, runner, tmp_path, entry, message):
        """A 3^3 tensor with one NaN, or all zeros, ends with fit's one-line
        message and exit status 1, not a traceback."""
        data = np.zeros((3, 3, 3)) if entry == 0.0 else np.ones((3, 3, 3))
        data[1, 2, 0] = entry
        path = tmp_path / "bad.cptn"
        write_tensor(path, DenseTensor(data))
        result = runner.invoke(main, ["fit", str(path), "--rank", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "raw,message",
        [(b"NOPE" + bytes(12), "bad magic"), (b"CPTN\x01", "truncated header")],
        ids=["magic", "truncated"],
    )
    def test_malformed_tensor_file_exits_with_message(
        self, runner, tmp_path, raw, message
    ):
        """A file with bad magic or a truncated header ends with the format
        error on one line and exit status 1, not a traceback."""
        path = tmp_path / "bad.cptn"
        path.write_bytes(raw)
        result = runner.invoke(main, ["fit", str(path), "--rank", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "dims,message",
        [((2**32, 2**32), "expected 18446744073709551616 scalars"),
         ((2**63, 2), "exceeds numpy's index range"),
         ((0, 3, 3), "zero-size mode, dims (0, 3, 3)")],
        ids=["wraps-int64", "exceeds-int64", "zero-size-mode"],
    )
    def test_degenerate_dims_exit_with_one_line(self, runner, tmp_path, dims, message):
        """A header whose scalar count is 2^64 with no payload, or a tensor with
        a zero-size mode, ends with one line on stderr and exit status 1, not
        a traceback."""
        path = tmp_path / "bad.cptn"
        path.write_bytes(
            b"CPTN" + struct.pack("<IBB6x", 1, 0, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims)
        )
        result = runner.invoke(main, ["fit", str(path), "--rank", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.count("\n") == 1
        assert message in result.stderr

    @pytest.mark.parametrize(
        "defect,message",
        [("no-factors", "no factors entry"), ("bad-factor", "truncated header"),
         ("missing-factor", "No such file")],
    )
    def test_bad_truth_exits_with_message(self, runner, tmp_path, defect, message):
        """A ``--truth`` sidecar with no ``factors`` entry, or naming a
        malformed or missing factor file, ends with one line and exit
        status 1, not a traceback."""
        invoke(runner, ["gen", "--dims", "5,5,5", "--rank", "2", "--nu", "0.5",
                        "--out", str(tmp_path / "t")])
        meta = tmp_path / "t.meta"
        factor = tmp_path / "t_factor2.cptn"
        if defect == "no-factors":
            lines = meta.read_text(encoding="utf-8").splitlines()
            meta.write_text(
                "\n".join(x for x in lines if not x.startswith("factors=")) + "\n",
                encoding="utf-8",
            )
        elif defect == "bad-factor":
            factor.write_bytes(b"CPTN")
        else:
            factor.unlink()
        result = runner.invoke(main, ["fit", str(tmp_path / "t.cptn"), "--rank", "2",
                                      "--truth", str(meta)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "Traceback" not in result.output

    def test_truth_mismatch_exits_before_fit(self, runner, tmp_path, monkeypatch):
        """A rank-2 truth sidecar with ``--rank 3`` ends with one line and exit
        status 1 before any fit, not a traceback after it."""
        invoke(runner, ["gen", "--dims", "5,5,5", "--rank", "2", "--nu", "0.5",
                        "--out", str(tmp_path / "t")])

        def no_fit(*args, **kwargs):
            raise AssertionError("fit ran with a mismatched truth model")

        monkeypatch.setattr(cpfast.cli, "fit", no_fit)
        result = runner.invoke(main, ["fit", str(tmp_path / "t.cptn"), "--rank", "3",
                                      "--truth", str(tmp_path / "t.meta")])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "rank 2" in result.output
        assert "Traceback" not in result.output

    def test_flm_b_is_unknown_algo(self, runner, tmp_path):
        invoke(runner, ["gen", "--dims", "4,4,4", "--rank", "2", "--nu", "0.6",
                        "--out", str(tmp_path / "v")])
        result = runner.invoke(
            main, ["fit", str(tmp_path / "v.cptn"), "--rank", "2", "--algo", "flm-b"]
        )
        assert result.exit_code != 0
        assert "flm-b" in result.output


class TestBench:
    def test_row_count_and_determinism(self, runner, tmp_path):
        args = ["bench", "--dims", "6,6,6", "--rank", "2", "--nu", "0.5,0.9",
                "--snr", "inf", "--algos", "auto,als-ls", "--seeds", "2",
                "--max-iters", "150", "--out", str(tmp_path / "b.csv")]
        invoke(runner, args)
        rows = list(csv.reader(open(tmp_path / "b.csv")))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 1 + 2 * 2 * 2
        assert (tmp_path / "b_summary.csv").exists()

        invoke(runner, args[:-1] + [str(tmp_path / "b2.csv")])
        rows2 = list(csv.reader(open(tmp_path / "b2.csv")))
        drop = CSV_COLUMNS.index("time_ms")
        strip = lambda table: [[c for i, c in enumerate(r) if i != drop] for r in table]
        assert strip(rows) == strip(rows2)

    def test_unknown_algo_rejected_before_sweep(self, runner, tmp_path):
        out = tmp_path / "b.csv"
        result = runner.invoke(main, ["bench", "--dims", "4,4,4", "--seeds", "1",
                                      "--algos", "auto,dgn-oracle", "--out", str(out)])
        assert result.exit_code == 2
        assert "dgn-oracle" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--dims", "2,2,2", "--rank", "3"], "rank 3 exceeds smallest dimension 2"),
            (["--dims", "4,4,4", "--rank", "2", "--nu", "0.5,0"],
             "nu must be positive"),
        ],
        ids=["rank-above-dim", "nu-zero"],
    )
    def test_bad_spec_rejected_before_sweep(self, runner, tmp_path, args, message,
                                            monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("the sweep ran with a bad spec")

        monkeypatch.setattr(cpfast.bench, "run_grid", no_grid)
        out = tmp_path / "b.csv"
        result = runner.invoke(main, ["bench", *args, "--seeds", "1",
                                      "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "option,value",
        [("--snr", "abc"), ("--rank", "x"), ("--dims", "abc"), ("--nu", "0.1,y"),
         ("--snr", "30,-inf"), ("--snr", "nan")],
    )
    def test_unparsable_list_is_usage_error(self, runner, tmp_path, option, value,
                                            monkeypatch):
        """A list item that does not parse ends with exit status 2 and a
        message naming the option, with no traceback and no sweep."""

        def no_grid(*args, **kwargs):
            raise AssertionError("the sweep ran with an unparsable option")

        monkeypatch.setattr(cpfast.bench, "run_grid", no_grid)
        out = tmp_path / "b.csv"
        result = runner.invoke(main, ["bench", "--dims", "4,4,4", "--seeds", "1",
                                      option, value, "--out", str(out)])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert "Traceback" not in result.output
        assert not list(tmp_path.iterdir())

    def test_snr_list_maps_inf_and_none_to_noiseless(self, monkeypatch):
        seen = {}

        def grid(dims, ranks, nus, snrs, *args, **kwargs):
            seen["snrs"] = snrs
            return []

        monkeypatch.setattr(cpfast.bench, "run_grid", grid)
        monkeypatch.setattr(cpfast.bench, "write_csv", lambda *a: None)
        monkeypatch.setattr(cpfast.bench, "write_summary_csv", lambda *a: None)
        invoke(CliRunner(), ["bench", "--dims", "4,4,4", "--snr", "30,inf,None,+inf"])
        assert seen["snrs"] == (30.0, None, None, None)

    def test_partial_failures_recorded(self, monkeypatch):
        def singular_core(x, cache, mu):
            raise SingularKernelError("core system is singular (zero pivot 1)")

        monkeypatch.setattr(cpfast.solver, "damped_core", singular_core)
        records = run_grid((6, 6, 6), [2], [0.5], [None], ["auto"], seeds=1)
        assert len(records) == 1
        assert records[0].stop_reason == "error"
        assert records[0].error.startswith("error at iteration 1: ")
        assert "singular" in records[0].error

    def test_exception_text_recorded(self, tmp_path):
        records = run_grid((6, 6, 6), [2], [0.5], [None], ["newton"], seeds=1)
        assert records[0].stop_reason == "error"
        assert records[0].error == "ValueError: unknown variant 'newton'"
        write_csv(tmp_path / "e.csv", records)
        row = dict(zip(CSV_COLUMNS, list(csv.reader(open(tmp_path / "e.csv")))[1]))
        assert row["error"] == records[0].error

    def test_summary_aggregates(self):
        records = run_grid((6, 6, 6), [2], [0.9], [None], ["auto"], seeds=3,
                           max_iters=150)
        rows = summarize(records)
        assert len(rows) == 1
        assert rows[0]["runs"] == 3 and rows[0]["errors"] == 0

    def test_summary_cells_in_numeric_order(self):
        """Cells sort by value, not by their text (nu 2 before 10), with the
        noiseless cells (snr None) after every finite SNR."""
        records = [
            RunRecord(0, nu, 2, snr, "auto", 1, 1, 0.0, 0.1, None, None, "tol")
            for nu in (10.0, 2.0) for snr in (None, 30.0, 5.0)
        ]
        rows = summarize(records)
        assert [(row["nu"], row["snr_db"]) for row in rows] == [
            (2.0, 5.0), (2.0, 30.0), (2.0, None),
            (10.0, 5.0), (10.0, 30.0), (10.0, None),
        ]

    def test_record_invariant(self):
        with pytest.raises(ValueError):
            RunRecord(0, 0.5, 2, None, "auto", 3, 5, 0.0, 0.1, None, None, "tol")


class TestSpectrumCommand:
    def test_report_matches_library(self, runner, tmp_path):
        csv_path = tmp_path / "s.csv"
        result = invoke(runner, ["spectrum", "--size", "100", "--rank", "15",
                                 "--order", "3", "--nu", "0.1", "--snr", "20",
                                 "--csv", str(csv_path)])
        assert "infeasible" in result.output
        row = list(csv.DictReader(open(csv_path)))[0]
        rep = spectrum(100, 15, 3, 0.1, 20.0)
        assert float(row["lam_min"]) == rep.lam_min
        assert float(row["noise_floor"]) == rep.noise_floor

    def test_rank_one_exits_with_message(self, runner):
        result = runner.invoke(main, ["spectrum", "--size", "20", "--rank", "1"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "requires R >= 2" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("option", ["--nu", "--snr"])
    def test_unparsable_list_is_usage_error(self, runner, tmp_path, option):
        csv_path = tmp_path / "s.csv"
        result = runner.invoke(main, ["spectrum", "--size", "20", "--rank", "3",
                                      option, "abc", "--csv", str(csv_path)])
        assert result.exit_code == 2
        assert f"Invalid value for '{option}'" in result.output
        assert "Traceback" not in result.output
        assert not csv_path.exists()

    @pytest.mark.parametrize("value", ["-inf", "nan", "20,-inf"])
    def test_non_finite_snr_is_usage_error(self, runner, tmp_path, value):
        """-inf and NaN get no verdict (-inf was reported feasible, NaN
        infeasible): exit status 2 naming the option."""
        csv_path = tmp_path / "s.csv"
        result = runner.invoke(main, ["spectrum", "--size", "20", "--rank", "3",
                                      "--snr", value, "--csv", str(csv_path)])
        assert result.exit_code == 2
        assert "Invalid value for '--snr'" in result.output
        assert "feasible" not in result.output
        assert not csv_path.exists()

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--size", "0", "--rank", "3"], "rank 3 exceeds smallest dimension 0"),
            (["--size", "2", "--rank", "3"], "rank 3 exceeds smallest dimension 2"),
            (["--size", "0", "--rank", "3", "--snr", "20"],
             "rank 3 exceeds smallest dimension 0"),
            (["--size", "20", "--rank", "3", "--nu", "0"], "nu must be positive"),
            (["--size", "20", "--rank", "3", "--order", "-1"], "order >= 2"),
            (["--size", "20", "--rank", "3", "--nu", "nan"], "nu must be positive"),
            (["--size", "20", "--rank", "3", "--nu", "inf"], "nu must be positive"),
        ],
        ids=["size-zero", "size-below-rank", "size-zero-noisy", "nu-zero",
             "order-negative", "nu-nan", "nu-inf"],
    )
    def test_bad_swamp_exits_with_message(self, runner, args, message):
        """A swamp that CollinearSpec would reject gets no verdict: one line
        and exit status 1."""
        result = runner.invoke(main, ["spectrum", *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert "feasible" not in result.output
        assert "Traceback" not in result.output

    def test_overflow_exits_with_message(self, runner):
        """A (nu, order) whose closed form overflows float64 gets one line
        naming both and exit status 1, not an OverflowError traceback."""
        result = runner.invoke(main, ["spectrum", "-i", "10", "-r", "3",
                                      "-n", "400", "--nu", "10"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "overflows float64 for nu=10.0 and order=400" in result.output
        assert "Traceback" not in result.output
        assert len(result.output.strip().splitlines()) == 1

    def test_noisy_high_order_reports_floor(self, runner):
        """An SNR at order 400 gets a verdict: sigma^2 underflows to 0, the
        floor does not, and nothing overflows."""
        result = runner.invoke(main, ["spectrum", "-i", "10", "-r", "3",
                                      "-n", "400", "--nu", "0.1", "--snr", "20"])
        assert result.exit_code == 0, result.output
        rep = spectrum(10, 3, 400, 0.1, 20.0)
        assert f"noise_floor={rep.noise_floor:.6g} -> infeasible" in result.output

    def test_floor_overflow_exits_with_message(self, runner):
        result = runner.invoke(main, ["spectrum", "-i", "10", "-r", "3",
                                      "--snr=-4000"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "noise floor overflows float64" in result.output
        assert len(result.output.strip().splitlines()) == 1

    def test_csv_header(self, runner, tmp_path):
        """The header lists nu, snr_db and every SpectrumReport field."""
        csv_path = tmp_path / "s.csv"
        invoke(runner, ["spectrum", "-i", "20", "-r", "3", "--csv", str(csv_path)])
        assert csv_path.read_bytes().split(b"\n")[0] == (
            b"nu,snr_db,x,y,lam_max,lam_mid,lam_min,sigma2,noise_floor,norm2,feasible"
        )

    def test_infinite_snr_always_feasible(self, runner):
        result = invoke(runner, ["spectrum", "--size", "20", "--rank", "3",
                                 "--nu", "0.1", "--snr", "inf"])
        assert "-> feasible" in result.output
        assert "noise_floor=0" in result.output


class TestVerifyCommand:
    def test_default_passes(self, runner):
        result = invoke(runner, ["verify", "--seeds", "2"])
        assert "identities passed" in result.output
        assert "FAIL" not in result.output

    def test_perturbation_fails(self, runner):
        result = runner.invoke(main, ["verify", "--seeds", "1", "--perturb"])
        assert result.exit_code != 0
        assert "FAIL" in result.output
