"""The shared verifier harness (`repro.verify`)."""

from __future__ import annotations

import importlib
import json
import logging

import pytest

from repro import verify
from repro.obs.bench import validate_bench_record

#: Every verifier entry point, with the shared flags it accepts.
VERIFIERS = {
    "repro.sharding.__main__": ("--seeds", "--sites"),
    "repro.recovery.__main__": ("--seeds", "--sites"),
    "repro.rebalance.__main__": ("--seeds", "--sites"),
    "repro.serving.__main__": ("--seeds",),
    "repro.obs.__main__": ("--seeds",),
    "repro.fusion.__main__": (),
    "repro.staging.__main__": (),
    "repro.perf.sweeper": (),
}


def _echo_body(options):
    """A body that reports the options it was handed as its payload."""
    return verify.Verdict(
        metrics={"x": 1.0},
        payload={
            "options": {
                key: value
                for key, value in vars(options).items()
                if key != "output"
            }
        },
    )


def _run(tmp_path, argv, body=_echo_body, **kwargs):
    """Run the harness on *argv*; returns (exit code, written record)."""
    output = tmp_path / "record.json"
    code = verify.main(
        "probe", "repro.probe", "probe harness", body,
        [*argv, "--output", str(output)], **kwargs,
    )
    return code, json.loads(output.read_text())


class TestFlags:
    def test_defaults_match_the_ci_matrix(self, tmp_path):
        code, record = _run(tmp_path, [], sites=("a", "b"))
        assert code == 0
        assert record["options"] == {
            "seeds": [5, 23, 101], "sites": ["a", "b"], "smoke": False,
        }
        assert record["smoke"] is False

    def test_all_flags_parse(self, tmp_path):
        code, record = _run(
            tmp_path,
            ["--seeds", "1,2", "--sites", "x,y", "--smoke"],
            sites=("a",),
        )
        assert code == 0
        assert record["options"] == {
            "seeds": [1, 2], "sites": ["x", "y"], "smoke": True,
        }
        assert record["smoke"] is True

    def test_seedless_harness_rejects_the_seeds_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            _run(tmp_path, ["--seeds", "1"], seeds=False)

    def test_siteless_harness_rejects_the_sites_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            _run(tmp_path, ["--sites", "x"])

    def test_extra_arguments_are_added(self, tmp_path):
        code, record = _run(
            tmp_path, ["--rows", "7"], seeds=False,
            arguments=(("--rows", dict(type=int, default=None)),),
        )
        assert record["options"] == {"rows": 7, "smoke": False}

    def test_output_defaults_to_the_bench_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = verify.main("probe", "repro.probe", "probe", _echo_body, [])
        assert code == 0
        record = json.loads((tmp_path / "BENCH_probe.json").read_text())
        assert record["bench"] == "probe"


class TestRecord:
    def test_passing_body_writes_a_valid_record(self, tmp_path):
        code, record = _run(tmp_path, [])
        assert code == 0
        assert validate_bench_record(record) == []
        assert record["ok"] is True
        assert record["metrics"] == {"x": 1.0}
        assert record["wall_seconds"] >= 0.0

    def test_problems_exit_one_and_still_write_the_record(
        self, tmp_path, caplog
    ):
        def failing(options):
            return verify.Verdict(
                metrics={"x": 2.0},
                problems=["gate moved"],
                tolerances={"x": {"rel": 0.0, "direction": "lower_better"}},
            )

        with caplog.at_level(logging.INFO, logger="repro.verify"):
            code, record = _run(tmp_path, [], body=failing)
        assert code == 1
        assert validate_bench_record(record) == []
        assert record["ok"] is False
        assert record["tolerances"]["x"]["rel"] == 0.0
        assert "gate moved" in caplog.text
        assert caplog.text.count("probe verifier: FAILED") == 1


class TestRunCells:
    def test_every_cell_runs_twice(self):
        calls = []

        def cell():
            calls.append(1)
            return {"value": 3}

        records, problems = verify.run_cells([("a", cell), ("b", cell)])
        assert len(calls) == 4
        assert problems == []
        assert records == [
            {"value": 3, "deterministic": True, "problems": []},
        ] * 2

    def test_a_cell_whose_rerun_differs_is_flagged(self):
        runs = iter([{"value": 1}, {"value": 2}])
        records, problems = verify.run_cells([("flaky", lambda: next(runs))])
        (record,) = records
        assert record["deterministic"] is False
        assert record["problems"] == ["records differ between identical runs"]
        assert problems == ["flaky: records differ between identical runs"]

    def test_cell_problems_are_kept_and_labelled(self):
        records, problems = verify.run_cells(
            [("bad", lambda: {"problems": ["lost a row"]})]
        )
        assert records[0]["deterministic"] is True
        assert problems == ["bad: lost a row"]


class TestParsers:
    def test_parse_csv_strips_and_drops_empties(self):
        assert verify.parse_csv("a, b ,,c,") == ["a", "b", "c"]

    def test_parse_seeds_decodes_integers(self):
        assert verify.parse_seeds(verify.DEFAULT_SEEDS) == [5, 23, 101]


class TestRouting:
    @pytest.mark.parametrize("module_name", sorted(VERIFIERS))
    def test_main_calls_verify(self, module_name, monkeypatch):
        """Each CLI hands its flags and body to ``verify.main``."""
        module = importlib.import_module(module_name)
        seen = {}

        def fake_main(bench, module_arg, description, body, argv, **kwargs):
            seen.update(bench=bench, argv=argv, kwargs=kwargs)
            return 0

        monkeypatch.setattr(verify, "main", fake_main)
        assert module.main(["--smoke"]) == 0
        assert seen["argv"] == ["--smoke"]
        flags = VERIFIERS[module_name]
        assert seen["kwargs"].get("seeds", True) == ("--seeds" in flags)
        assert (seen["kwargs"].get("sites") is not None) == (
            "--sites" in flags
        )
