import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pboxcdf.cli import main
from pboxcdf.pbox import (
    PboxInterval,
    empirical_cdf,
    envelope,
    load_observations_csv,
)

OBS_CSV = "quantile,count\n5.17,4\n5.3,5\n5.45,6\n5.55,6\n5.7,5\n5.9,5\n6.1,4\n6.2,3\n6.36,2\n"


@pytest.fixture
def obs_csv(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text(OBS_CSV)
    return path


@pytest.mark.parametrize(
    "command",
    [
        ["ingest", "--input", "{obs}", "--out", "{bad}"],
        ["solve", "--input", "{model}", "--out", "{bad}"],
        ["bench", "--horizons", "3", "--out", "{bad}"],
        ["bench", "--horizons", "3", "--out", "{out}", "--cycles-csv", "{bad}"],
    ],
)
def test_unwritable_output_exits_two(tmp_path, obs_csv, capsys, command):
    # An output path in a missing directory is an input error, reported
    # without a traceback.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"vars": [{"name": "x", "range": [0, 1]}], "constraints": []}))
    bad = tmp_path / "missing" / "out.json"
    paths = {"obs": obs_csv, "model": model, "out": tmp_path / "report.json", "bad": bad}
    code = main([arg.format(**paths) for arg in command])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}: ")
    assert "Traceback" not in err


class TestIngest:
    def test_tolerance_variable_is_ignored(self, obs_csv, tmp_path):
        # The comparison tolerance is fixed; the old PBOX_TOLERANCE setting
        # is neither read nor rejected.
        outs = []
        for value in (None, "abc"):
            env = {k: v for k, v in os.environ.items() if k != "PBOX_TOLERANCE"}
            if value is not None:
                env["PBOX_TOLERANCE"] = value
            out = tmp_path / f"domain-{value}.json"
            cmd = ["ingest", "--input", str(obs_csv), "--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "pboxcdf.cli", *cmd],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_writes_domain_json(self, obs_csv, tmp_path, capsys):
        out = tmp_path / "domain.json"
        code = main(["ingest", "--input", str(obs_csv), "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["lo"]["q"] == 5.17
        assert payload["hi"]["q"] == 6.36
        assert payload["lo"]["f"] == pytest.approx(0.1)
        summary = capsys.readouterr().err
        assert "m=40" in summary

    def test_round_trip_is_bit_exact(self, obs_csv, tmp_path):
        out = tmp_path / "domain.json"
        assert main(["ingest", "--input", str(obs_csv), "--out", str(out)]) == 0
        expected = envelope(empirical_cdf(load_observations_csv(obs_csv)))
        again = PboxInterval.from_dict(json.loads(out.read_text()))
        assert again == expected

    def test_three_unsorted_rows(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        path.write_text("quantile,count\n3.0,1\n1.0,2\n2.0,1\n")
        out = tmp_path / "dom.json"
        assert main(["ingest", "--input", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["lo"]["q"] == 1.0
        assert payload["hi"]["q"] == 3.0

    def test_byte_order_mark_is_skipped(self, obs_csv, tmp_path):
        # Spreadsheet programs save "CSV UTF-8" with a byte-order mark.
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + OBS_CSV.encode())
        outs = []
        for source in (obs_csv, path):
            out = tmp_path / f"{source.stem}.json"
            assert main(["ingest", "--input", str(source), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_malformed_csv_line_numbered(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("quantile,count\n1.0,2\nnope,3\n")
        assert main(["ingest", "--input", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_finite_quantile_line_numbered(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("quantile,count\n1.0,2\nnan,3\n")
        assert main(["ingest", "--input", str(path)]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["ingest", "--input", str(path)]) == 2
        assert "no observations" in capsys.readouterr().err

    def test_header_only(self, tmp_path, capsys):
        path = tmp_path / "header.csv"
        path.write_text("quantile,count\n")
        assert main(["ingest", "--input", str(path)]) == 2
        assert "no observations" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["ingest", "--input", str(tmp_path / "nope.csv")]) == 2


class TestSolve:
    def _solve(self, tmp_path, model):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model))
        out = tmp_path / "solution.json"
        code = main(["solve", "--input", str(model_path), "--out", str(out)])
        payload = json.loads(out.read_text()) if out.exists() else None
        return code, payload

    def test_ordering_example(self, tmp_path):
        model = {
            "vars": [
                {
                    "name": "I",
                    "domain": {
                        "lo": {"q": 10, "f": 0.14, "s": 0.016},
                        "hi": {"q": 80, "f": 0.49, "s": 0.06},
                    },
                },
                {
                    "name": "J",
                    "domain": {
                        "lo": {"q": 20, "f": 0.06, "s": 0.025},
                        "hi": {"q": 90, "f": 0.9, "s": 0.014},
                    },
                },
                {"name": "X", "range": [10, 90]},
            ],
            "constraints": [
                {"kind": "leq", "args": ["I", "X"]},
                {"kind": "leq", "args": ["X", "J"]},
            ],
        }
        code, payload = self._solve(tmp_path, model)
        assert code == 0
        assert payload["status"] == "consistent"
        x = payload["vars"][2]["domain"]
        assert x["lo"] == {"q": 10.0, "f": 0.14, "s": 0.016}
        assert x["hi"] == {"q": 90.0, "f": 0.9, "s": 0.014}

    def test_empty_model(self, tmp_path):
        code, payload = self._solve(tmp_path, {"vars": [], "constraints": []})
        assert code == 0
        assert payload == {"status": "consistent", "vars": []}

    def test_infeasible_model_exits_one(self, tmp_path):
        model = {
            "vars": [
                {"name": "x", "value": 0},
                {"name": "y", "value": 1},
                {"name": "z", "value": 0},
            ],
            "constraints": [{"kind": "add", "args": ["x", "y", "z"]}],
        }
        code, payload = self._solve(tmp_path, model)
        assert code == 1
        assert payload["status"] == "failed"

    def test_unknown_kind_exits_two(self, tmp_path, capsys):
        model = {
            "vars": [{"name": "x", "range": [0, 1]}],
            "constraints": [{"kind": "alldiff", "args": ["x"]}],
        }
        code, _ = self._solve(tmp_path, model)
        assert code == 2

    def test_unknown_variable_exits_two(self, tmp_path):
        model = {
            "vars": [{"name": "x", "range": [0, 1]}],
            "constraints": [{"kind": "leq", "args": ["x", "ghost"]}],
        }
        code, _ = self._solve(tmp_path, model)
        assert code == 2

    def test_zero_straddling_division_exits_two(self, tmp_path):
        model = {
            "vars": [
                {"name": "x", "range": [1, 2]},
                {"name": "y", "range": [-1, 1]},
                {"name": "z", "range": [-10, 10]},
            ],
            "constraints": [{"kind": "div", "args": ["x", "y", "z"]}],
        }
        code, _ = self._solve(tmp_path, model)
        assert code == 2

    def test_four_variable_add(self, tmp_path):
        model = {
            "vars": [
                {"name": "a", "range": [1, 2]},
                {"name": "b", "range": [3, 4]},
                {"name": "c", "value": 5},
                {"name": "total", "range": [0, 9.5]},
            ],
            "constraints": [{"kind": "add", "args": ["a", "b", "c", "total"]}],
        }
        code, payload = self._solve(tmp_path, model)
        assert code == 0
        ranges = {
            v["name"]: (v["domain"]["lo"]["q"], v["domain"]["hi"]["q"])
            for v in payload["vars"]
        }
        assert ranges == {
            "a": (1.0, 1.5), "b": (3.0, 3.5), "c": (5.0, 5.0), "total": (9.0, 9.5)
        }

    @pytest.mark.parametrize(
        "model, message",
        [
            (
                {
                    "vars": [{"name": "x", "range": [0, 1]}, {"name": "y", "range": [0, 2]}],
                    "constraints": [{"kind": "leq", "args": "xy"}],
                },
                "constraint must be an object with a list of args",
            ),
            (
                # Its upper cdf bound, flat at 0.1, lies below its lower one,
                # flat at 0.9, everywhere.
                {
                    "vars": [
                        {
                            "name": "x",
                            "domain": {
                                "lo": {"q": 0, "f": 0.1, "s": 0},
                                "hi": {"q": 10, "f": 0.9, "s": 0},
                            },
                        }
                    ]
                },
                "variable 'x': domain admits no cdf",
            ),
            (
                {"vars": [{"name": "x", "domain": {"lo": {"q": 0, "f": 1, "s": 0}}}]},
                "variable 'x' has a malformed domain",
            ),
            ({"vars": [1]}, "variable must be an object"),
            ({"constraints": [["add"]]}, "constraint must be an object"),
            (
                {"vars": [{"name": "x", "value": True}]},
                "variable 'x': expected a number of type float, got True",
            ),
            (
                {"vars": [{"name": "x", "range": [0, "5"]}]},
                "variable 'x': expected a number of type float, got '5'",
            ),
            (
                {
                    "vars": [
                        {
                            "name": "x",
                            "domain": {
                                "lo": {"q": "0", "f": 1, "s": 0},
                                "hi": {"q": 1, "f": 0, "s": 0},
                            },
                        }
                    ]
                },
                "variable 'x': expected a number of type float, got '0'",
            ),
            (
                {"vars": [{"name": "x", "range": [0, 10**400]}]},
                "variable 'x': a 1329-bit integer is too large for a float",
            ),
        ],
        ids=[
            "args-not-a-list",
            "domain-admitting-no-cdf",
            "domain-without-hi",
            "var-not-an-object",
            "constraint-not-an-object",
            "bool-value",
            "string-range-bound",
            "string-quantile",
            "huge-int-range-bound",
        ],
    )
    def test_malformed_model_exits_two(self, tmp_path, capsys, model, message):
        code, payload = self._solve(tmp_path, model)
        assert code == 2
        assert payload is None
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    def test_crossing_domain_is_repaired(self, tmp_path):
        # The lower line reaches 0.9 at q 10, above the upper line's 0.5: the
        # domain loads cut to where the lines cross, q 2, and solves.
        crossing = {"lo": {"q": 0, "f": 0, "s": 0.05}, "hi": {"q": 10, "f": 0.9, "s": 0.1}}
        code, payload = self._solve(tmp_path, {"vars": [{"name": "x", "domain": crossing}]})
        assert code == 0
        assert payload["status"] == "consistent"
        domain = payload["vars"][0]["domain"]
        assert domain["lo"] == {"q": 0.0, "f": 0.0, "s": 0.05}
        assert domain["hi"]["q"] == pytest.approx(2.0)

    def test_malformed_json_exits_two(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text("{not json")
        assert main(["solve", "--input", str(model_path)]) == 2

    def test_int_past_the_digit_limit_exits_two(self, tmp_path, capsys):
        # Python's int parser refuses more than 4 300 digits with a plain
        # ValueError, not a JSONDecodeError.
        model_path = tmp_path / "model.json"
        model_path.write_text('{"vars": [{"name": "x", "value": 1' + "0" * 5000 + "}]}")
        assert main(["solve", "--input", str(model_path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed model JSON: ")


class TestBench:
    def test_single_horizon_row(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "bench",
                "--horizons",
                "5",
                "--seed",
                "42",
                "--model",
                "pbox",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["model"] == "pbox"
        assert len(report["rows"]) == 1
        row = report["rows"][0]
        assert row["horizon"] == 5
        assert "wall_time_s" in row["timing"]
        assert row["containment"]["hull_contained"]

    def test_invalid_horizon_exits_two(self, tmp_path):
        assert main(["bench", "--horizons", "0"]) == 2
        assert main(["bench", "--horizons", "abc"]) == 2
        assert main(["bench", "--horizons", "3", "--x-min", "50", "--x-max", "10"]) == 2
        assert main(["bench", "--horizons", "3", "--x-max", "inf"]) == 2

    def test_overflowing_instance_exits_two(self, tmp_path, capsys):
        instance = tmp_path / "inst.json"
        instance.write_text(
            json.dumps({"horizon": 2, "demands": [5, 6], "x_max": 1e308, "initial_stock": 1e308})
        )
        assert main(["bench", "--input", str(instance)]) == 2
        assert capsys.readouterr().err.startswith("error: interval arithmetic overflowed")

    def test_cycles_csv_emitted(self, tmp_path):
        out = tmp_path / "report.json"
        csv_out = tmp_path / "cycles.csv"
        code = main(
            [
                "bench",
                "--horizons",
                "4",
                "--seed",
                "3",
                "--model",
                "convex",
                "--out",
                str(out),
                "--cycles-csv",
                str(csv_out),
            ]
        )
        assert code == 0
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0].startswith("horizon,cycle,ordered")
        assert len(lines) == 5

    def test_parallel_flag_rejected(self):
        assert main(["bench", "--horizons", "5", "--parallel", "2"]) == 2

    def test_instance_file_input(self, tmp_path):
        instance = tmp_path / "inst.json"
        instance.write_text(
            json.dumps({"horizon": 3, "demands": [5.0, 6.0, 7.0], "x_max": 30.0})
        )
        out = tmp_path / "report.json"
        code = main(
            ["bench", "--input", str(instance), "--model", "pbox", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["rows"][0]["horizon"] == 3

    def test_every_cycle_ordering_at_h1000(self, tmp_path):
        # Every one of the 1 000 cycles must order, so the search goes as deep
        # as Python's default recursion limit; the bench still exits 0.
        instance = Path(__file__).parent / "data" / "forced_h1000.json"
        out = tmp_path / "report.json"
        assert main(["bench", "--input", str(instance), "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["status"] == "optimal"
        assert row["best"]["replenishments"] == 1000

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"horizon": 2, "demands": [5, 6], "x_min": None},
                "x_min: expected a number of type float, got None",
            ),
            ([1], "malformed instance"),
            (
                {"horizon": 2.7, "demands": [5, 6]},
                "horizon: expected a number of type int, got 2.7",
            ),
            (
                {"horizon": True, "demands": [5]},
                "horizon: expected a number of type int, got True",
            ),
            ({"horizon": "3", "seed": 1}, "horizon: expected a number of type int, got '3'"),
            ({"horizon": 2, "seed": 1.5}, "seed: expected a number of type int, got 1.5"),
            (
                {"horizon": 2, "demands": [5, True]},
                "demands[1]: expected a number of type float, got True",
            ),
            (
                {
                    "horizon": 2,
                    "demands": [
                        {
                            "domain": {
                                "lo": {"q": 10, "f": 0.1, "s": 0},
                                "hi": {"q": 20, "f": 0.9, "s": 0},
                            }
                        },
                        5,
                    ],
                },
                "demands[0]: domain admits no cdf",
            ),
            (
                {"horizon": 2, "demands": [5, 6], "initial_stock": math.nan},
                "initial stock must be finite and >= 0, got nan",
            ),
            (
                {"horizon": 2, "demands": [5, 6], "initial_stock": math.inf},
                "initial stock must be finite and >= 0, got inf",
            ),
            (
                {"horizon": 2, "demands": [5, 6], "x_min": math.nan},
                "order size bounds need finite 0 <= x_min <= x_max",
            ),
            (
                {"horizon": 2, "demands": [5, 6], "x_max": math.inf},
                "order size bounds need finite 0 <= x_min <= x_max",
            ),
            ({"horizon": 2, "demands": [math.nan, 6]}, "demands[0] must be finite, got nan"),
            ({"horizon": 2, "demands": [5, math.inf]}, "demands[1] must be finite, got inf"),
            (
                {"horizon": 2, "demands": [5, 6], "ordering_cost": math.nan},
                "ordering_cost must be finite, got nan",
            ),
            (
                {"horizon": 2, "demands": [5, 6], "holding_cost": math.inf},
                "holding_cost must be finite, got inf",
            ),
            (
                {"horizon": 2, "demands": [5, 6], "unit_cost": -math.inf},
                "unit_cost must be finite, got -inf",
            ),
            (
                {"horizon": 2, "seed": 1, "x_max": 10**400},
                "x_max: a 1329-bit integer is too large for a float",
            ),
        ],
        ids=[
            "null-x-min",
            "not-an-object",
            "fractional-horizon",
            "bool-horizon",
            "string-horizon",
            "fractional-seed",
            "bool-demand",
            "demand-domain-admitting-no-cdf",
            "nan-initial-stock",
            "infinite-initial-stock",
            "nan-x-min",
            "infinite-x-max",
            "nan-demand",
            "infinite-demand",
            "nan-ordering-cost",
            "infinite-holding-cost",
            "negative-infinite-unit-cost",
            "huge-int-x-max",
        ],
    )
    def test_malformed_instance_file_exits_two(self, tmp_path, capsys, obj, message):
        instance = tmp_path / "inst.json"
        instance.write_text(json.dumps(obj))
        assert main(["bench", "--input", str(instance)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load instance")
        assert message in err

    def test_instance_file_reports_its_own_bounds(self, tmp_path):
        instance = tmp_path / "inst.json"
        instance.write_text(
            json.dumps(
                {"horizon": 3, "demands": [5, 6, 7], "x_min": 2.0, "x_max": 30.0}
            )
        )
        out = tmp_path / "report.json"
        code = main(
            ["bench", "--input", str(instance), "--model", "convex", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert (report["x_min"], report["x_max"]) == (2.0, 30.0)
        assert report["seed"] is None
        assert report["rows"][0]["seed"] is None

    def test_verbose_instance_file_prints_the_seed_it_used(self, tmp_path, capsys):
        instance = tmp_path / "inst.json"
        instance.write_text(
            json.dumps(
                {"horizon": 3, "demands": [5, 6, 7], "x_min": 2.0, "x_max": 30.0}
            )
        )
        code = main(
            ["--verbose", "bench", "--input", str(instance), "--model", "convex"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["seed"] is None
        assert "benchmark model=convex seed=None horizons=[3]" in captured.err

    def test_determinism_across_invocations(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "bench",
                        "--horizons",
                        "5",
                        "--seed",
                        "9",
                        "--model",
                        "convex",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append(json.loads(out.read_text()))

        def strip(obj):
            if isinstance(obj, dict):
                return {
                    k: strip(v)
                    for k, v in obj.items()
                    if k not in ("timing", "wall_time_s")
                }
            if isinstance(obj, list):
                return [strip(v) for v in obj]
            return obj

        assert strip(outs[0]) == strip(outs[1])
