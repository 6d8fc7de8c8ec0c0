import csv
import functools
import importlib.util
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest

import pelab.checks as checks
import pelab.cli as cli
import pelab.documents as documents
from pelab import config_hash, read_snapshot
from pelab.checks import paper_core_suite, run_suite
from pelab.cli import main


def heat_doc(name="heat-sin", size=128, t_end=0.01):
    return {
        "name": name,
        "grid": {"sizes": [size], "h": 1.0 / size, "boundary": "periodic"},
        "components": 1,
        "potential": {"id": "quadratic", "r_max": 2.0},
        "t_end": t_end,
        "cfl_sigma": 0.9,
        "snapshot_every": 8,
        "seed": 1,
        "initial": {"kind": "mode", "k": [1], "amplitude": 1.0},
    }


def unseeded(doc):
    """A run config as a check's `config`: without `seed`, as a suite gives its runs theirs."""
    return {k: v for k, v in doc.items() if k != "seed"}


def read_csv(path, reader=csv.reader):
    """Every row of a CSV file, through `reader` (csv.reader or csv.DictReader)."""
    with open(path, newline="") as fh:
        return list(reader(fh))


def write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# case -> (initial-data kind or None, dotted key, mistyped value, its type): one case per
# key of a run config's top level, grid, potential and initial-data families; the first
# eleven are values that the run config coerced or accepted before its keys were typed
RUN_WRONG_TYPES = {
    "components-float": (None, "components", 2.7, "int, not float"),
    "components-bool": (None, "components", True, "int, not bool"),
    "snapshot_every": (None, "snapshot_every", 8.5, "int, not float"),
    "seed": (None, "seed", 1.9, "int, not float"),
    "cfl_sigma": (None, "cfl_sigma", True, "float, not bool"),
    "t_end": (None, "t_end", "0.01", "float, not str"),
    "grid.sizes": (None, "grid.sizes", [64.9], "list[int], not list"),
    "grid.h": (None, "grid.h", "0.015625", "float, not str"),
    "bands.kmax": ("bands", "initial.kmax", 2.5, "int, not float"),
    "mode.amplitude": ("mode", "initial.amplitude", "0.5", "float, not str"),
    "boundary_values": (None, "boundary_values", "ab", "list[float] | None, not str"),
    "grid": (None, "grid", [64], "dict, not list"),
    "potential": (None, "potential", "cosh", "dict, not str"),
    "system": (None, "system", ["diffusion"], "str, not list"),
    "initial": (None, "initial", "mode", "dict, not str"),
    "dt_override": (None, "dt_override", [1e-5], "float | None, not list"),
    "name": (None, "name", None, "str, not NoneType"),
    "grid.boundary": (None, "grid.boundary", 0, "str, not int"),
    "potential.id": (None, "potential.id", 3, "str, not int"),
    "potential.r_max": (None, "potential.r_max", "2", "float | None, not str"),
    "potential.table": (None, "potential.table", [[0.5]], "dict | None, not list"),
    "constant.amplitude": ("constant", "initial.amplitude", None, "float, not NoneType"),
    "constant.value": ("constant", "initial.value", 0.5, "list[float] | None, not float"),
    "mode.k": ("mode", "initial.k", 1.5, "int | list[int], not float"),
    "mode.phase": ("mode", "initial.phase", "0", "float, not str"),
    "mode.direction": ("mode", "initial.direction", [1, "0"], "list[float] | None, not list"),
    "bands.amplitude": ("bands", "initial.amplitude", [0.5], "float, not list"),
    "bands.offset": ("bands", "initial.offset", 0.8, "list[float] | None, not float"),
    "bump.amplitude": ("bump", "initial.amplitude", False, "float, not bool"),
    "bump.direction": ("bump", "initial.direction", {"x": 1}, "list[float] | None, not dict"),
    "bump.center": ("bump", "initial.center", "0.5", "list[float] | None, not str"),
    "bump.width": ("bump", "initial.width", "0.1", "float | None, not str"),
    "two_bump.amplitude": ("two_bump", "initial.amplitude", "1", "float, not str"),
    "two_bump.center1": ("two_bump", "initial.center1", [None], "list[float] | None, not list"),
    "two_bump.center2": ("two_bump", "initial.center2", 0.75, "list[float] | None, not float"),
    "two_bump.width": ("two_bump", "initial.width", [0.1], "float | None, not list"),
    "two_bump.direction1": ("two_bump", "initial.direction1", True,
                            "list[float] | None, not bool"),
    "two_bump.direction2": ("two_bump", "initial.direction2", "e2",
                            "list[float] | None, not str"),
}


def mistyped(kind, key, value):
    """heat_doc with `value` at the dotted `key`, its `initial` of `kind` when given."""
    doc = heat_doc()
    if kind is not None:
        doc["initial"] = {"kind": kind}
    *outer, last = key.split(".")
    (doc[outer[0]] if outer else doc)[last] = value
    return doc


class TestRunConfigKeys:
    """A run config's keys are the keyword-only parameters of `_run_config`, `_grid`,
    `build_potential` and its initial-data family, typed by their annotations."""

    @pytest.mark.parametrize("case", list(RUN_WRONG_TYPES))
    def test_a_mistyped_key_is_a_usage_error(self, tmp_path, capsys, monkeypatch, case):
        forbid_runs(monkeypatch)
        kind, key, value, named = RUN_WRONG_TYPES[case]
        cfg = write_doc(tmp_path, mistyped(kind, key, value))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            f"error: bad run config: wrong type(s) ['{key}: {named}']\n"
        assert not (tmp_path / "out").exists()

    def test_every_key_is_covered(self):
        from pelab.solver import _FAMILIES
        sections = {"": documents._run_config, "grid.": documents._grid, "potential.": documents.build_potential}
        keys = {at + k for at, fn in sections.items() for k in documents._keywords(fn)}
        keys |= {f"{kind}.{k}" for kind, fn in _FAMILIES.items() for k in documents._keywords(fn)}
        assert {key if kind is None else f"{kind}.{key.split('.')[1]}"
                for kind, key, *_ in RUN_WRONG_TYPES.values()} == keys

    def test_every_problem_of_every_section_is_named_at_once(self, tmp_path, capsys):
        doc = mistyped("bands", "initial.kmax", 2.5)
        doc.update(tend=0.01, components="2")
        del doc["t_end"], doc["grid"]["h"]
        doc["potential"].update(r_max="1", idd="cosh")
        assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: bad run config: unknown key(s) ['potential.idd', 'tend'], missing key(s) "
            "['grid.h', 't_end'], wrong type(s) ['components: int, not str', "
            "'initial.kmax: int, not float', 'potential.r_max: float | None, not str']\n")

    def test_an_int_stands_for_a_float_and_keeps_the_hash(self):
        # t_end, cfl_sigma, h and dt_override are floats in the description either way
        doc = {**heat_doc(), "t_end": 1, "cfl_sigma": 1, "dt_override": 1 / 1024}
        doc["grid"]["h"] = 1
        as_floats = {**doc, "t_end": 1.0, "cfl_sigma": 1.0, "grid": {**doc["grid"], "h": 1.0}}
        assert documents.build_config(doc).describe() == documents.build_config(as_floats).describe()
        assert json.dumps(documents.build_config(doc).describe()["t_end"]) == "1.0"


class TestRunCommand:
    def test_missing_config_names_path(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json")])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    def test_invalid_json_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 1

    def test_valid_run_writes_parseable_outputs(self, tmp_path):
        cfg = write_doc(tmp_path, heat_doc())
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        outdir = tmp_path / "out" / "heat-sin"
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["kind"] == "run"
        assert manifest["potential_id"] == "quadratic"
        assert manifest["trajectory"] == "trajectory.pelb"
        snap = read_snapshot(outdir / manifest["trajectory"])
        assert snap.values.shape == (1, 128)
        snaps = [read_snapshot(outdir / "trajectory.pelb", k) for k in range(manifest["frames"])]
        assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json", "trajectory.pelb"]
        assert [s.t for s in snaps] == manifest["times"] == sorted(s.t for s in snaps)
        assert snaps[0].t == 0.0 and snaps[-1].t == pytest.approx(0.01)
        with pytest.raises(IndexError, match=f"frame index {manifest['frames']} out of range"):
            read_snapshot(outdir / "trajectory.pelb", manifest["frames"])

    def test_range_excursion_exits_2(self, tmp_path, capsys):
        doc = heat_doc()
        doc["potential"] = {"id": "cosh", "r_max": 1.0}
        doc["initial"]["amplitude"] = 1.4
        cfg = write_doc(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "r_max" in capsys.readouterr().err

    @pytest.mark.parametrize("initial, message", [
        ({"kind": "spiral"}, "unknown initial-data kind 'spiral'"),
        ({"kind": "bump", "center": [0.5, 0.5]}, "does not match the grid dimension 1"),
    ])
    def test_initial_section_errors_are_usage_errors(self, tmp_path, capsys, initial, message):
        doc = heat_doc()
        doc["initial"] = initial
        cfg = write_doc(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad run config: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_scalar_system_is_a_usage_error(self, tmp_path, capsys):
        doc = heat_doc()
        doc["system"] = "scalar"
        cfg = write_doc(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad run config: ") and "unknown system 'scalar'" in err
        assert not (tmp_path / "out").exists()

    def test_non_numeric_dt_override_is_a_usage_error(self, tmp_path, capsys):
        doc = heat_doc()
        doc["dt_override"] = "abc"
        cfg = write_doc(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == ("error: bad run config: wrong type(s) "
                       "['dt_override: float | None, not str']\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("initial", 5, "wrong type(s) ['initial: dict, not int']"),
        ("initial", [1], "wrong type(s) ['initial: dict, not list']"),
        ("name", 7, "wrong type(s) ['name: str, not int']"),
    ])
    def test_mistyped_initial_and_name_are_usage_errors(self, tmp_path, capsys, key, value,
                                                        message):
        doc = heat_doc()
        doc[key] = value
        cfg = write_doc(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad run config: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, shown", [
        (None, "tend", "tend"), ("grid", "bogus", "grid.bogus"),
        ("potential", "typo", "potential.typo")])
    def test_unknown_keys_are_usage_errors(self, tmp_path, capsys, section, key, shown):
        doc = heat_doc()
        (doc[section] if section else doc)[key] = 1
        cfg = write_doc(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad run config: unknown key(s) ['{shown}']\n"
        assert not (tmp_path / "out").exists()

    def test_every_unknown_key_is_named_at_once(self, tmp_path, capsys):
        doc = heat_doc()
        doc.update(tend=0.1, bogus=True)
        doc["grid"]["bogus"] = 1
        doc["potential"]["typo"] = "x"
        doc["initial"]["seed"] = 99
        cfg = write_doc(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: bad run config: unknown key(s) "
                                           "['bogus', 'grid.bogus', 'initial.seed', "
                                           "'potential.typo', 'tend']\n")

    def test_built_in_suites_and_the_initial_section_use_no_unknown_key(self, tmp_path, capsys):
        # a run has one seed, its `seed` or --seed: a `seed` inside `initial` is refused
        for suite in (paper_core_suite(64), checks.negative_control_suite(64)):
            for check in suite["checks"]:
                for initial in [check[k] for k in ("initial0", "initial1") if k in check]:
                    documents.build_config({**check["config"], "initial": initial})
                documents.build_config(check["config"])
        doc = heat_doc()
        doc["initial"]["seed"] = 99
        assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: bad run config: unknown key(s) "
                                           "['initial.seed']\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["constant", "mode", "bands", "bump", "two_bump", None])
    def test_an_unknown_initial_key_is_a_usage_error(self, tmp_path, capsys, kind, monkeypatch):
        # the keys of `initial` are its family's keyword-only parameters (`mode` by default)
        forbid_runs(monkeypatch)
        doc = heat_doc()
        doc["initial"] = {"kmaxx": 3} if kind is None else {"kind": kind, "kmaxx": 3}
        assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: bad run config: unknown key(s) "
                                           "['initial.kmaxx']\n")
        assert not (tmp_path / "out").exists()

    def test_table_potentials_hash_their_tables(self, tmp_path):
        hashes, dts = [], []
        for a in (0.5, 1.0):
            doc = heat_doc(size=32, t_end=0.002)
            doc["potential"] = {"r_max": 2.0, "table": {"breakpoints": [0.0, 2.0],
                                                        "coeffs": [[a, 0.0, 0.0]]}}
            cfg = write_doc(tmp_path, doc, f"cfg{a}.json")
            assert main(["run", cfg, "--out", str(tmp_path / str(a))]) == 0
            manifest = json.loads((tmp_path / str(a) / "heat-sin" / "manifest.json").read_text())
            assert manifest["potential_id"] == "table"
            assert manifest["config"]["potential"]["table"] == {
                "breakpoints": [0.0, 2.0], "coeffs": [[a, 0.0, 0.0]]}
            hashes.append(manifest["config_hash"])
            dts.append(manifest["dt"])
        assert dts[0] != dts[1] and hashes[0] != hashes[1]

    @pytest.mark.parametrize("pid, digest", [
        ("quadratic", "4338171fc862204c8575c2492b6f7047c26a602deb4440d7d8ffd8ebada114b2"),
        ("cosh", "84c2c729e3c2c0347946b8a26426aaa4cb8a038a9ae68a9685e65943aa9dc558"),
        ("quartic", "ffd04d99422517832ef66812349183bf36e6729f4e0e72191b37e44bc0672886"),
        ("porous", "8441da2c30c727799f7a1c64591969bd11b413ba9ef3103a410aa0316f85e5b4"),
    ])
    def test_built_in_hashes_are_unchanged(self, pid, digest):
        # built-in ids are described by id and r_max alone, as before tables
        # entered the description
        doc = heat_doc()
        doc["potential"] = {"id": pid}
        described = documents.build_config(doc).describe()
        assert set(described["potential"]) == {"id", "r_max"}
        assert config_hash(described) == digest

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_doc(tmp_path, heat_doc(t_end=0.002))
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "b")]) == 0
        da, db = tmp_path / "a" / "heat-sin", tmp_path / "b" / "heat-sin"
        names = sorted(p.name for p in da.iterdir())
        assert names == sorted(p.name for p in db.iterdir())
        for n in names:
            assert (da / n).read_bytes() == (db / n).read_bytes()

    def test_dirichlet_run_with_boundary_values(self, tmp_path):
        doc = {
            "name": "wall",
            "grid": {"sizes": [65], "h": 1.0 / 64, "boundary": "dirichlet"},
            "components": 1,
            "potential": {"id": "cosh", "r_max": 1.0},
            "t_end": 0.002,
            "snapshot_every": 4,
            "seed": 2,
            "initial": {"kind": "mode", "k": [1], "amplitude": 0.5},
            "boundary_values": [0.0],
        }
        cfg = write_doc(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "wall" / "manifest.json").read_text())
        last = read_snapshot(tmp_path / "out" / "wall" / manifest["trajectory"],
                             manifest["frames"] - 1)
        assert last.boundary_values == (0.0,)
        assert last.values[0, 0] == 0.0 and last.values[0, -1] == 0.0

    def test_table_potential_in_run_config(self, tmp_path):
        doc = heat_doc(size=64, t_end=0.002)
        doc["potential"] = {"id": "tab-quad", "r_max": 2.0,
                            "table": {"breakpoints": [0.0, 2.0],
                                      "coeffs": [[0.5, 0.0, 0.0]]}}
        cfg = write_doc(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads(
            (tmp_path / "out" / "heat-sin" / "manifest.json").read_text())
        assert manifest["potential_id"] == "tab-quad"
        assert manifest["window"]["lam"] == pytest.approx(1.0, abs=1e-12)

    def test_seed_override_changes_hash(self, tmp_path):
        doc = heat_doc(t_end=0.002)
        doc["initial"] = {"kind": "bands", "kmax": 2, "amplitude": 0.4}
        cfg = write_doc(tmp_path, doc)
        assert main(["run", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", cfg, "--seed", "99", "--out", str(tmp_path / "b")]) == 0
        ha = json.loads((tmp_path / "a/heat-sin/manifest.json").read_text())["config_hash"]
        hb = json.loads((tmp_path / "b/heat-sin/manifest.json").read_text())["config_hash"]
        assert ha != hb


class TestVerifyCommand:
    def test_empty_suite_passes(self, tmp_path):
        suite = write_doc(tmp_path, {"name": "empty", "checks": []}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 0
        rows = read_csv(tmp_path / "v" / "empty" / "summary.csv")
        assert rows[0] == ["check", "passed", "tolerance", "provenance"]
        assert len(rows) == 1

    def test_duplicate_check_names_rejected(self, tmp_path):
        suite = write_doc(tmp_path, {"name": "dup", "checks": [
            {"name": "a", "kind": "sup-norm", "config": heat_doc()},
            {"name": "a", "kind": "sup-norm", "config": heat_doc()},
        ]}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1

    def test_crashing_check_recorded_as_failure(self, tmp_path):
        doc = unseeded(heat_doc(size=64, t_end=0.002))
        doc["potential"] = {"id": "nope"}
        suite = write_doc(tmp_path, {"name": "crash", "checks": [
            {"name": "boom", "kind": "sup-norm", "config": doc},
            {"name": "fine", "kind": "sup-norm",
             "config": unseeded(heat_doc(size=64, t_end=0.002))},
        ]}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1
        rep = json.loads((tmp_path / "v" / "crash" / "boom.report.json").read_text())
        assert rep["passed"] is False and "error" in rep["values"]
        rep2 = json.loads((tmp_path / "v" / "crash" / "fine.report.json").read_text())
        assert rep2["passed"] is True
        # a crashed check writes no series file; the sup-norm series of the other one
        manifest = json.loads((tmp_path / "v" / "crash" / "suite_manifest.json").read_text())
        assert manifest["files"] == ["boom.report.json", "fine.report.json",
                                     "fine.series.csv", "summary.csv"]
        assert not (tmp_path / "v" / "crash" / "boom.series.csv").exists()

    def test_crash_report_keeps_the_traceback(self, tmp_path):
        doc = unseeded(heat_doc(size=64, t_end=0.002))
        suite = write_doc(tmp_path, {"name": "crash", "checks": [
            {"name": "tiny-radius", "kind": "morrey", "radii_h": [2], "config": doc},
        ]}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1
        rep = json.loads((tmp_path / "v" / "crash" / "tiny-radius.report.json").read_text())
        assert rep["passed"] is False
        assert rep["values"]["error"].startswith("ValueError: radius")
        assert "in _check_morrey" in rep["values"]["traceback"]

    @pytest.mark.parametrize("kind,extra", [
        ("reverse-holder", {"R": 0.05}),
        ("estimate-ratios", {"r": 0.05, "R": 0.1, "t0": 0.0015}),
    ])
    def test_refinement_pair_takes_exactly_two_sizes(self, tmp_path, kind, extra):
        suite = write_doc(tmp_path, {"name": "pair", "checks": [
            {"name": "three", "kind": kind, "sizes": [32, 64, 128],
             "config": unseeded(heat_doc(size=32, t_end=0.002)), **extra},
        ]}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1
        rep = json.loads((tmp_path / "v" / "pair" / "three.report.json").read_text())
        assert rep["passed"] is False
        assert rep["values"]["error"] == ("UsageError: 'three' takes exactly two sizes "
                                          "(coarse, fine), got [32, 64, 128]")

    def test_an_entropy_checks_calibration_takes_an_offset_datum(self, tmp_path):
        # sup|u0| is above 2 here: the calibration's quadratic takes its range from the
        # run's own initial state, not from the datum's amplitude
        bands = {"kind": "bands", "kmax": 3, "amplitude": 0.5, "offset": [1.7]}
        config = {"grid": {"sizes": [64], "h": 1 / 64}, "potential": {"id": "cosh", "r_max": 3},
                  "t_end": 0.002, "initial": bands}
        check = {"name": "e", "kind": "entropy-diffusion", "sizes": [32, 64], "config": config}
        [fitted] = run_suite({"name": "s", "checks": [check]}, tmp_path / "fit", 3)
        [given] = run_suite({"name": "s", "checks": [{**check, "K": 1000.0}]},
                            tmp_path / "given", 3)
        assert "error" not in fitted.values and fitted.passed and given.passed
        # the same residuals, judged against the fitted K
        untaued = lambda rep: [{k: v for k, v in rung.items() if k != "tau"}  # noqa: E731
                               for rung in rep.values["per_size"]]
        assert untaued(fitted) == untaued(given) and len(untaued(given)) == 2

    @pytest.mark.parametrize("K", [None, 1.0])
    @pytest.mark.parametrize("kind", ["entropy-diffusion", "entropy-coupled"])
    def test_an_entropy_check_with_no_sizes_fails(self, tmp_path, monkeypatch, kind, K):
        # a monitor that runs nothing has checked nothing, so it may not pass
        forbid_runs(monkeypatch)
        config = {**unseeded(heat_doc(size=32, t_end=0.001)), "snapshot_every": 1,
                  "potential": {"id": "cosh", "r_max": 1.0}}
        check = {"name": "e", "kind": kind, "sizes": [], "config": config}
        [rep] = run_suite({"name": "s", "checks": [check if K is None else {**check, "K": K}]},
                          tmp_path / "v", 3)
        assert rep.passed is False
        assert rep.values["error"] == "UsageError: 'e' needs at least one size in 'sizes'"

    @pytest.mark.parametrize("K", [None, 1.0])
    @pytest.mark.parametrize("kind", ["entropy-diffusion", "entropy-coupled"])
    def test_an_entropy_check_with_a_size_of_zero_fails_naming_it(self, tmp_path, monkeypatch,
                                                                  kind, K):
        # it failed with a bare "ZeroDivisionError: float division by zero"
        forbid_runs(monkeypatch)
        config = {**unseeded(heat_doc(size=32, t_end=0.001)), "snapshot_every": 1,
                  "potential": {"id": "cosh", "r_max": 1.0}}
        check = {"name": "e", "kind": kind, "sizes": [0, 32], "config": config}
        [rep] = run_suite({"name": "s", "checks": [check if K is None else {**check, "K": K}]},
                          tmp_path / "v", 3)
        assert rep.passed is False
        assert rep.values["error"] == "ValueError: resolution 0 leaves axis 0 no cells"

    def test_negative_control_suite_fails_with_witnesses(self, tmp_path):
        assert main(["verify", "negative-control", "--out", str(tmp_path / "v")]) == 1
        vdir = tmp_path / "v" / "negative-control"
        for rep_path in vdir.glob("*.report.json"):
            rep = json.loads(rep_path.read_text())
            assert rep["passed"] is False
            assert rep["witness"]

    def test_paper_core_suite_passes(self, tmp_path):
        # the bundled structural-property suite on the cosh potential at size 128
        assert main(["verify", "paper-core", "--out", str(tmp_path / "v")]) == 0
        vdir = tmp_path / "v" / "paper-core"
        summary = read_csv(vdir / "summary.csv", csv.DictReader)
        assert len(summary) == 9
        assert all(row["passed"] == "True" for row in summary)
        manifest = json.loads((vdir / "suite_manifest.json").read_text())
        assert manifest["passed"] is True
        listed = set(manifest["files"])
        on_disk = {p.name for p in vdir.iterdir() if p.name != "suite_manifest.json"}
        assert listed == on_disk  # every emitted file is referenced exactly once

    def test_unknown_suite_name(self, tmp_path):
        assert main(["verify", str(tmp_path / "ghost.json")]) == 1

    @pytest.mark.parametrize("entry, message", [
        (5, "error: bad suite: wrong type(s) ['checks: list[dict], not list']\n"),
        ({"name": ["a"], "kind": "sup-norm", "config": {}},
         "error: check name ['a'] is not one plain path component\n"),
    ])
    def test_a_malformed_checks_entry_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                       entry, message):
        forbid_runs(monkeypatch)
        verify_workers(monkeypatch)
        suite = write_doc(tmp_path, {"name": "s", "checks": [small_check(), entry]}, "s.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1
        assert capsys.readouterr().err == message
        assert not (tmp_path / "v").exists()

    @pytest.mark.parametrize("section", ["initial0", "initial1"])
    def test_a_typo_in_contractions_data_fails_that_check(self, tmp_path, section):
        checks = [{"name": "contr", "kind": "contraction", **CONTRACTION_KEYS,
                   "config": contraction_config()}, small_check("fine")]
        checks[0][section] = {**checks[0][section], "ampiltude": 0.4}
        suite = write_doc(tmp_path, {"name": "s", "checks": checks}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1
        rep = json.loads((tmp_path / "v" / "s" / "contr.report.json").read_text())
        assert rep["passed"] is False
        # each datum is built as the run config's `initial`, under its family's keys
        assert rep["values"]["error"] == ("UsageError: bad run config: unknown key(s) "
                                          "['initial.ampiltude']")
        assert json.loads((tmp_path / "v" / "s" / "fine.report.json").read_text())["passed"]

    @pytest.mark.parametrize("kind", ["contraction", "tampered-contraction"])
    def test_an_initial_in_a_contractions_config_is_refused_before_any_run(
            self, tmp_path, monkeypatch, kind):
        # both runs start from initial0 and initial1, so nothing would read it
        keys = counting_runs(monkeypatch)
        verify_workers(monkeypatch)
        bump = {"kind": "bump", "amplitude": 0.9, "width": 0.05}
        checks = [{"name": "contr", "kind": kind, **CONTRACTION_KEYS,
                   "config": {**contraction_config(), "initial": bump}}]
        suite = write_doc(tmp_path, {"name": "s", "checks": checks}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1
        rep = json.loads((tmp_path / "v" / "s" / "contr.report.json").read_text())
        assert rep["passed"] is False and keys == []
        assert rep["values"]["error"] == ("UsageError: 'contr': a contraction config "
                                          "takes no 'initial'")

    @pytest.mark.parametrize("checks, kind", [
        (5, "int"), ("sup", "str"), ({"name": "a", "kind": "sup-norm"}, "dict"),
        (None, "NoneType")])
    def test_checks_that_are_not_a_list_are_a_usage_error(self, tmp_path, capsys,
                                                          monkeypatch, checks, kind):
        forbid_runs(monkeypatch)
        verify_workers(monkeypatch)
        suite = write_doc(tmp_path, {"name": "x", "checks": checks}, "s.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1
        assert capsys.readouterr().err == \
            f"error: bad suite: wrong type(s) ['checks: list[dict], not {kind}']\n"
        assert not (tmp_path / "v").exists()


def contraction_config():
    """A contraction check's config: both runs take their data from initial0 and initial1."""
    return {k: v for k, v in heat_doc(size=32, t_end=0.001).items()
            if k not in ("initial", "seed")}


def verify_workers(monkeypatch, workers=1):
    """Have `pelab verify` run its plan with `workers` workers, not one per usable CPU.
    With 1 it runs in this process, so what a test patches or records here sees every
    run."""
    monkeypatch.setattr(cli, "_workers", lambda threads: workers)


def counting_runs(monkeypatch):
    """Record the name-free hash of every config `checks.run` integrates."""
    keys, real = [], checks.run

    def counted(cfg, observe=None):
        keys.append(config_hash({**cfg.describe(), "name": None}))
        return real(cfg, observe)
    monkeypatch.setattr(checks, "run", counted)
    return keys


def bare_key(doc, seed, size=None):
    """The key a suite runs a config under: its description without the name."""
    cfg = documents.build_config(doc, seed)
    cfg = cfg if size is None else cli.with_resolution(cfg, size)
    return config_hash({**cfg.describe(), "name": None})


def assert_each_reports_as_alone(tmp_path, suite, seed=3):
    """Each check of `suite`, already run into tmp_path/all, writes there the files,
    and the summary row, that it writes in a suite of its own."""
    summary = read_csv(tmp_path / "all" / "summary.csv")
    for i, check in enumerate(suite["checks"]):
        alone = tmp_path / check["name"]
        run_suite({**suite, "checks": [check]}, alone, seed)
        files = {f.name for f in alone.iterdir()} - {"summary.csv", "suite_manifest.json"}
        assert files and all((alone / f).read_bytes() == (tmp_path / "all" / f).read_bytes()
                             for f in files)
        assert read_csv(alone / "summary.csv")[1] == summary[i + 1]


class TestSuiteMemo:
    """A suite integrates each distinct config once, in the order the configs were first
    subscribed, whatever the order of its checks; each check reports as it does alone."""

    def test_one_run_per_distinct_config_and_an_unchanged_tree(self, tmp_path, monkeypatch):
        suite = paper_core_suite(64)
        keys = counting_runs(monkeypatch)
        run_suite(suite, tmp_path / "all", 3)
        # contraction 4, sup-norm 2, entropy 2 x (its calibration and 2 rungs), morrey's 64
        # and the 128 that reverse-holder and estimate-ratios share with it and each other
        assert len(keys) == 14 == len(set(keys))
        keys.clear()
        assert_each_reports_as_alone(tmp_path, suite)
        assert len(keys) == 17   # the three shared runs, each run alone

    def test_a_shared_run_is_replayed_into_each_streaming_check(self, tmp_path, monkeypatch):
        keys = counting_runs(monkeypatch)
        config = unseeded(cell_base([32], t_end=0.002, snapshot_every=2))
        bare = {k: v for k, v in config.items() if k != "initial"}
        entropy = {"kind": "entropy-diffusion", "sizes": [16, 32],
                   "config": {**config, "snapshot_every": 1}}
        checks = [{"name": "a", "kind": "sup-norm", "config": config},
                  {"name": "b", "kind": "tampered-sup", "config": config},
                  {"name": "c", "kind": "contraction", "config": bare, **CONTRACTION_KEYS},
                  {"name": "d", "kind": "tampered-contraction", "config": bare,
                   **CONTRACTION_KEYS},
                  {"name": "e", **entropy}, {"name": "f", **entropy}]
        suite = {"name": "s", "checks": checks}
        run_suite(suite, tmp_path / "all", 3)
        # a and b share one run, c and d two, e and f a calibration run and two rungs
        assert len(keys) == 6
        assert_each_reports_as_alone(tmp_path, suite)

    def test_equal_configs_that_are_not_consecutive_run_once(self, tmp_path, monkeypatch):
        keys = counting_runs(monkeypatch)
        a, b = unseeded(cell_base([32], t_end=0.004)), unseeded(cell_base([32], t_end=0.002))
        suite = {"name": "s", "checks": [
            {"name": "m", "kind": "morrey", "points": 2, "radii_h": [8, 4], "config": a},
            {"name": "s", "kind": "sup-norm", "config": b},
            {"name": "r", "kind": "reverse-holder", "sizes": [32, 64], "R": 0.1,
             "cylinders": 3, "config": {**a, "name": "other"}}]}
        run_suite(suite, tmp_path / "all", 3)
        assert keys == [bare_key(a, 3), bare_key(b, 3), bare_key(a, 3, 64)]
        assert_each_reports_as_alone(tmp_path, suite)

    @pytest.mark.parametrize("kind", ["contraction", "tampered-contraction"])
    def test_a_contraction_whose_second_run_comes_first_reports_as_alone(
            self, tmp_path, monkeypatch, kind):
        # run 1 is stored and run 0 measured against it, still as run 1 - run 0; the
        # sup-norm check that shares run 1 gets it unplanted
        keys = counting_runs(monkeypatch)
        bare = contraction_config()
        second = {**bare, "initial": CONTRACTION_KEYS["initial1"], "name": "other"}
        suite = {"name": "s", "checks": [
            {"name": "s", "kind": "sup-norm", "config": second},
            {"name": "c", "kind": kind, "config": bare, **CONTRACTION_KEYS}]}
        run_suite(suite, tmp_path / "all", 3)
        assert keys == [bare_key(second, 3),
                        bare_key({**bare, "initial": CONTRACTION_KEYS["initial0"]}, 3)]
        assert_each_reports_as_alone(tmp_path, suite)

    def test_a_raising_fold_fails_only_its_check_and_an_idle_run_stops(self, tmp_path,
                                                                       monkeypatch):
        fed, real = [], checks.run

        class Raising(checks._MorreyFold):
            def feed(self, snap):
                if snap.t > 0.0:
                    raise RuntimeError("fold broke")
                super().feed(snap)

        def counted(cfg, observe=None):
            return real(cfg, lambda snap: (fed.append(cfg.name), observe(snap)))
        monkeypatch.setattr(checks, "_MorreyFold", Raising)
        monkeypatch.setattr(checks, "run", counted)
        a, b = (unseeded(cell_base([32], t_end=0.004)),
                unseeded(cell_base([32], t_end=0.002, name="b")))
        morrey = {"kind": "morrey", "points": 2, "radii_h": [8, 4]}
        suite = {"name": "s", "checks": [{"name": "m", **morrey, "config": a},
                                         {"name": "s", "kind": "sup-norm", "config": a},
                                         {"name": "n", **morrey, "config": b}]}
        reports = run_suite(suite, tmp_path / "all", 3)
        assert [(r.name, r.passed, r.values.get("error")) for r in reports] == [
            ("m", False, "RuntimeError: fold broke"), ("s", True, None),
            ("n", False, "RuntimeError: fold broke")]
        assert "in feed" in reports[0].values["traceback"]
        # a's run goes on for the sup-norm check; b's stops once its one observer failed
        assert fed.count("b") == 2 < fed.count("cell") == len(reports[1].values["sup"])
        assert_each_reports_as_alone(tmp_path, suite)

    def test_a_raising_run_fails_every_check_on_it(self, tmp_path, monkeypatch):
        keys = counting_runs(monkeypatch)
        real = checks.run

        def flaky(cfg, observe=None):
            if cfg.t_end == 0.002:
                raise RuntimeError("run broke")
            return real(cfg, observe)
        monkeypatch.setattr(checks, "run", flaky)
        a, b = unseeded(cell_base([32], t_end=0.004)), unseeded(cell_base([32], t_end=0.002))
        suite = {"name": "s", "checks": [
            {"name": "s", "kind": "sup-norm", "config": b},
            {"name": "t", "kind": "tampered-sup", "config": {**b, "name": "t"}},
            {"name": "u", "kind": "sup-norm", "config": a},
            {"name": "r", "kind": "reverse-holder", "sizes": [32, 64], "R": 0.1,
             "cylinders": 3, "config": b}]}
        reports = run_suite(suite, tmp_path / "all", 3)
        assert [(r.name, r.passed, r.values.get("error")) for r in reports] == [
            ("s", False, "RuntimeError: run broke"), ("t", False, "RuntimeError: run broke"),
            ("u", True, None), ("r", False, "RuntimeError: run broke")]
        assert "in flaky" in reports[0].values["traceback"]
        # the reverse-holder check's fine rung is left unrun, as no check needs it
        assert keys == [bare_key(a, 3)]
        assert not (tmp_path / "all" / "s.series.csv").exists()

    def test_no_fold_outlives_the_check_that_made_it(self, tmp_path, monkeypatch):
        from pelab import diagnostics, grid
        planning, made = [], []   # the check being planned; (its name, a fold) of every fold
        for cls in (diagnostics._SupFold, diagnostics._ResidualFold, diagnostics._EstimateFold,
                    diagnostics._ContractionFold, grid._CylinderFold):
            def init(fold, *args, real=cls.__init__):
                made.append((planning[-1], weakref.ref(fold)))
                real(fold, *args)
            monkeypatch.setattr(cls, "__init__", init)
        for kind, (check, *leading) in list(checks._CHECKS.items()):
            @functools.wraps(check)   # the spy declares the keys its check declares
            def spy(seed, *lead, check=check, **keys):
                planning.append(keys["name"])
                return check(seed, *lead, **keys)
            monkeypatch.setitem(checks._CHECKS, kind, (spy, *leading))
        real, judged = checks.run, []

        def checked(cfg, observe=None):   # no gc: a fold is freed once nothing refers to it
            judged.append(sorted(p.name.split(".")[0] for p in (tmp_path / "v").glob("*.json")))
            assert [name for name, fold in made if name in judged[-1] and fold()] == []
            return real(cfg, observe)
        monkeypatch.setattr(checks, "run", checked)
        two = unseeded(cell_base([32, 32], t_end=0.002, snapshot_every=4))
        one = unseeded(cell_base([32], t_end=0.004))
        run_suite({"name": "v", "checks": [
            {"name": "c", "kind": "contraction",
             "initial0": {"kind": "mode", "k": [1, 1], "amplitude": 0.5},
             "initial1": {"kind": "bands", "kmax": 2, "amplitude": 0.4},
             "config": {k: v for k, v in two.items() if k != "initial"}},
            {"name": "s", "kind": "sup-norm", "config": {**two, "components": 2}},
            {"name": "e", "kind": "entropy-diffusion", "sizes": [16, 32], "config": one},
            {"name": "m", "kind": "morrey", "points": 2, "radii_h": [8, 4], "config": one},
            {"name": "r", "kind": "reverse-holder", "sizes": [32, 64], "R": 0.1,
             "cylinders": 3, "config": one},
            {"name": "x", "kind": "estimate-ratios", "sizes": [32, 64], "r": 0.05, "R": 0.1,
             "t0": 0.003, "cylinders": 2, "config": one}]}, tmp_path / "v", 3)
        # the contraction's stored run is freed before the sup-norm run starts; the entropy
        # check's fine rung is the 32-point run of the three cylinder checks
        assert judged == [[], [], ["c"], ["c", "s"], ["c", "s"], ["c", "s"],
                          ["c", "e", "m", "s"]]
        assert len(made) == 1 + 1 + 3 + 1 + 2 + 2 * 4 and all(f() is None for _, f in made)


class TestSweepCommand:
    def sweep_doc(self, tmp_path, axes):
        return write_doc(tmp_path, {
            "name": "sw",
            "base": {
                "name": "cell",
                "grid": {"sizes": [64], "h": 1.0 / 64, "boundary": "periodic"},
                "components": 1,
                "potential": {"id": "cosh", "r_max": 1.0},
                "t_end": 0.01,
                "snapshot_every": 1,
                "seed": 11,
                "initial": {"kind": "bands", "kmax": 3, "amplitude": 0.5},
            },
            "axes": axes,
        }, "sweep.json")

    def test_single_cell_equals_run_plus_diagnostics(self, tmp_path):
        path = self.sweep_doc(tmp_path, {})
        assert main(["sweep", path, "--out", str(tmp_path / "s")]) == 0
        rows = read_csv(tmp_path / "s" / "sw" / "sweep.csv", csv.DictReader)
        assert len(rows) == 1
        assert rows[0]["error"] == ""
        assert float(rows[0]["terminal_sup"]) > 0
        assert (tmp_path / "s" / "sw" / rows[0]["label"] / "manifest.json").exists()

    def test_resolution_axis_monotone_residuals(self, tmp_path):
        path = self.sweep_doc(tmp_path, {"resolution": [64, 128, 256]})
        assert main(["sweep", path, "--out", str(tmp_path / "s"), "--threads", "2"]) == 0
        rows = read_csv(tmp_path / "s" / "sw" / "sweep.csv", csv.DictReader)
        assert len(rows) == 3
        pos = [float(r["resid_pos_max"]) for r in rows]
        assert pos[0] >= pos[1] >= pos[2]

    @pytest.mark.parametrize("threads", ["-1", "-2"])
    def test_negative_thread_count_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                     threads):
        from pelab import cli

        def no_workers(*args, **kwargs):
            raise AssertionError("workers were started")

        monkeypatch.setattr(cli, "fan_out", no_workers)
        path = self.sweep_doc(tmp_path, {})
        assert main(["sweep", path, "--out", str(tmp_path / "s"), "--threads", threads]) == 1
        assert f"--threads must be 0 (the usable CPUs) or positive, got {threads}" \
            in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_seed_flag_overrides_base_seed(self, tmp_path):
        path = self.sweep_doc(tmp_path, {})
        rows = {}
        for seed in ("3", "4"):
            out = tmp_path / f"s{seed}"
            assert main(["sweep", path, "--out", str(out), "--seed", seed]) == 0
            rows[seed] = read_csv(out / "sw" / "sweep.csv", csv.DictReader)[0]
        assert (rows["3"]["seed"], rows["4"]["seed"]) == ("3", "4")
        assert rows["3"]["config_hash"] != rows["4"]["config_hash"]
        path = self.sweep_doc(tmp_path, {"seed": [5]})
        assert main(["sweep", path, "--out", str(tmp_path / "axis"), "--seed", "3"]) == 0
        row = read_csv(tmp_path / "axis" / "sw" / "sweep.csv", csv.DictReader)[0]
        assert row["seed"] == "5"

    def test_duplicate_labels_rejected_before_any_run(self, tmp_path):
        path = self.sweep_doc(tmp_path, {"potential": ["cosh", "cosh"]})
        assert main(["sweep", path, "--out", str(tmp_path / "s")]) == 1
        assert not (tmp_path / "s" / "sw").exists()

    @pytest.mark.parametrize("sizes, extra, axes, message", [
        ([32], {"initial": {"kind": "bands", "seed": 3}}, {"potential": ["quadratic", "cosh"]},
         "bad run config: unknown key(s) ['initial.seed']"),
        ([32], {}, {"potential": ["cosh", "nope"]},
         "bad potential section: unknown potential id 'nope'"),
        ([32, 48], {}, {"resolution": [32, 33]},
         "bad sweep cell 'cosh-n33': resolution 33 gives axis 1 a fractional count of "
         "points (48 points at 32 on axis 0)"),
        # it ended in an uncaught ZeroDivisionError traceback
        ([32], {}, {"resolution": [32, 0]},
         "bad sweep cell 'cosh-n0': resolution 0 leaves axis 0 no cells\n"),
    ], ids=["base", "potential-axis", "resolution-axis", "resolution-zero"])
    def test_a_cell_config_error_exits_1_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                           sizes, extra, axes, message):
        forbid_runs(monkeypatch)
        doc = write_doc(tmp_path, {"name": "sw", "base": cell_base(sizes, **extra),
                                   "axes": axes}, "sweep.json")
        assert main(["sweep", doc, "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "s").exists()


BAD_NAMES = ["", ".", "..", "a/b", "a\\b", "../escaped"]
TABLE_QUAD = {"id": "tab-quad", "r_max": 2.0,
              "table": {"breakpoints": [0.0, 2.0], "coeffs": [[0.5, 0.0, 0.0]]}}


def forbid_runs(monkeypatch):
    def no_run(cfg, observe=None):
        raise AssertionError(f"run '{cfg.name}' started")
    for module in (cli, checks):   # `pelab run` and sweep cells; suites
        monkeypatch.setattr(module, "run", no_run)


def small_check(name="sup"):
    return {"name": name, "kind": "sup-norm",
            "config": unseeded(heat_doc(size=32, t_end=0.001))}


class TestNamesThatBecomePaths:
    """Every name that becomes a path is one plain path component; any other
    name exits 1 before anything runs or is written."""

    def rejected(self, capsys, monkeypatch, argv, tmp_path, what):
        forbid_runs(monkeypatch)
        assert main(argv + ["--out", str(tmp_path / "box" / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {what} ")
        assert not (tmp_path / "box").exists()

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_run_name(self, tmp_path, capsys, monkeypatch, name):
        cfg = write_doc(tmp_path, heat_doc(name=name, size=32, t_end=0.001))
        self.rejected(capsys, monkeypatch, ["run", cfg], tmp_path, "run name")

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_suite_name(self, tmp_path, capsys, monkeypatch, name):
        verify_workers(monkeypatch)
        suite = write_doc(tmp_path, {"name": name, "checks": [small_check()]}, "suite.json")
        self.rejected(capsys, monkeypatch, ["verify", suite], tmp_path, "suite name")

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_check_name(self, tmp_path, capsys, monkeypatch, name):
        verify_workers(monkeypatch)
        suite = write_doc(tmp_path, {"name": "s", "checks": [small_check(name)]}, "suite.json")
        self.rejected(capsys, monkeypatch, ["verify", suite], tmp_path, "check name")

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_sweep_name(self, tmp_path, capsys, monkeypatch, name):
        sweep = write_doc(tmp_path, {"name": name, "base": heat_doc(size=32, t_end=0.001)},
                          "sweep.json")
        self.rejected(capsys, monkeypatch, ["sweep", sweep], tmp_path, "sweep name")

    @pytest.mark.parametrize("name", BAD_NAMES[1:])   # an empty id labels the cell "cell"
    def test_sweep_cell_label(self, tmp_path, capsys, monkeypatch, name):
        sweep = write_doc(tmp_path, {"name": "sw", "base": heat_doc(size=32, t_end=0.001),
                                     "axes": {"potential": ["cosh", name]}}, "sweep.json")
        self.rejected(capsys, monkeypatch, ["sweep", sweep], tmp_path, "cell label")

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_entropy_potential_id(self, tmp_path, capsys, monkeypatch, name):
        table = write_doc(tmp_path, {**TABLE_QUAD["table"], "id": name}, "table.json")
        monkeypatch.setattr(cli, "certify_window", lambda p: pytest.fail("certified"))
        self.rejected(capsys, monkeypatch, ["entropy", "--table", table], tmp_path,
                      "potential id")

    def test_plain_names_with_dots_and_dashes_still_work(self, tmp_path):
        cfg = write_doc(tmp_path, heat_doc(name="..heat.v2-", size=32, t_end=0.001))
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "..heat.v2-" / "manifest.json").exists()


class TestTopLevelKeys:
    """Suites and sweeps reject unknown top-level keys before anything runs."""

    def test_a_suite_typo_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        forbid_runs(monkeypatch)
        verify_workers(monkeypatch)
        suite = write_doc(tmp_path, {"name": "s", "chekcs": [small_check()]}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: bad suite: unknown key(s) ['chekcs']\n"
        assert not (tmp_path / "out").exists()

    def test_a_sweep_typo_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        forbid_runs(monkeypatch)
        sweep = write_doc(tmp_path, {"name": "sw", "base": heat_doc(size=32, t_end=0.001),
                                     "axis": {"seed": [1, 2]}, "nmae": "x"}, "sweep.json")
        assert main(["sweep", sweep, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: bad sweep: unknown key(s) ['axis', 'nmae']\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, doc, named", [
        ("verify", {"name": "s", "seed": "11", "checks": []}, "suite: wrong type(s) "
                                                             "['seed: int, not str']"),
        ("sweep", {"name": "sw", "base": heat_doc(), "axes": [["seed", [1]]]},
         "sweep: wrong type(s) ['axes: dict, not list']"),
        ("sweep", {"name": 5, "base": heat_doc()}, "sweep: wrong type(s) ['name: str, not int']"),
        ("sweep", {"name": "sw"}, "sweep: missing key(s) ['base']"),
        # the sections a sweep reads itself, before it builds a cell: the base's top
        # level (a label names the base potential's id) and each axis
        ("sweep", {"name": "sw", "base": {**heat_doc(), "potential": "cosh"}},
         "sweep: wrong type(s) ['base.potential: dict, not str']"),
        ("sweep", {"name": "sw", "base": heat_doc(), "axes": {"resolution": 64}},
         "sweep: wrong type(s) ['axes.resolution: list[int], not int']"),
    ], ids=["suite-seed", "sweep-axes", "sweep-name", "sweep-base", "sweep-base-potential",
            "sweep-axis-not-a-list"])
    def test_a_mistyped_or_missing_key_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                        command, doc, named):
        forbid_runs(monkeypatch)
        verify_workers(monkeypatch)
        path = write_doc(tmp_path, doc, "doc.json")
        assert main([command, path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: bad {named}\n"
        assert not (tmp_path / "out").exists()

    def test_a_suite_name_that_is_not_a_string_is_named(self, tmp_path):
        # the command refuses it as a path first; run_suite types it
        with pytest.raises(documents.UsageError, match=r"\['name: str, not int'\]"):
            run_suite({"name": 5, "checks": []}, tmp_path / "v")
        assert not (tmp_path / "v").exists()

    def test_built_in_suites_use_only_known_keys(self):
        for suite in (paper_core_suite(64), checks.negative_control_suite(64)):
            assert set(suite) == {"name", "seed", "checks"}


class TestDocumentsThatAreNotObjects:
    """A JSON document, or a sweep's base, that is not an object is a usage error
    naming its file, before anything runs or is written."""

    @pytest.mark.parametrize("argv, doc, message", [
        (["verify"], [], "{path} holds a JSON list, not an object"),
        (["verify"], "x", "{path} holds a JSON str, not an object"),
        (["run"], 5, "{path} holds a JSON int, not an object"),
        (["sweep"], {"name": "sw", "base": []}, "bad sweep: wrong type(s) ['base: dict, not "
                                                "list']"),
        (["entropy", "--table"], [1], "{path} holds a JSON list, not an object"),
    ], ids=["verify-list", "verify-string", "run-int", "sweep-base-list", "entropy-table-list"])
    def test_a_usage_error_naming_the_file(self, tmp_path, capsys, monkeypatch, argv, doc,
                                           message):
        forbid_runs(monkeypatch)
        if argv[0] == "verify":
            verify_workers(monkeypatch)
        path = write_doc(tmp_path, doc, "doc.json")
        assert main(argv + [path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not (tmp_path / "out").exists()


CONTRACTION_KEYS = {"initial0": {"kind": "mode", "k": [1], "amplitude": 0.5},
                    "initial1": {"kind": "mode", "k": [1], "amplitude": 0.3}}
# kind -> (its required keys besides `name` and `config`, the key the missing-key test drops)
EVERY_KIND = {
    "contraction": (CONTRACTION_KEYS, "initial1"),
    "sup-norm": ({}, "config"),
    "entropy-diffusion": ({}, "config"),
    "entropy-coupled": ({}, "config"),
    "morrey": ({}, "config"),
    "reverse-holder": ({"R": 0.05}, "R"),
    "estimate-ratios": ({"r": 0.05, "R": 0.1, "t0": 0.0005}, "t0"),
    "tampered-sup": ({}, "config"),
    "tampered-contraction": (CONTRACTION_KEYS, "initial0"),
}


# case -> (kind, mistyped keys, the error naming them): one case per kind, named after
# it, the first the crash that a string "points" used to become once its morrey check
# had run; then one for each other key of each kind but `name` (a plain path component)
WRONG_TYPES = {
    "morrey": ("morrey", {"points": "10"}, "['points: int, not str']"),
    "contraction": ("contraction", {"decay_ratio_rtol": "0.02"},
                    "['decay_ratio_rtol: float, not str']"),
    "sup-norm": ("sup-norm", {"config": "heat.json"}, "['config: dict, not str']"),
    "entropy-diffusion": ("entropy-diffusion", {"config": None}, "['config: dict, not NoneType']"),
    "entropy-coupled": ("entropy-coupled", {"config": [heat_doc()]}, "['config: dict, not list']"),
    "reverse-holder": ("reverse-holder", {"cylinders": 20.0, "p": "2.5"},
                       "['cylinders: int, not float', 'p: float, not str']"),
    "estimate-ratios": ("estimate-ratios", {"cylinders": True}, "['cylinders: int, not bool']"),
    "tampered-sup": ("tampered-sup", {"config": 1}, "['config: dict, not int']"),
    "tampered-contraction": ("tampered-contraction", {"decay_ratio_rtol": False},
                             "['decay_ratio_rtol: float, not bool']"),
    "morrey-t0": ("morrey", {"t0": "0.002"}, "['t0: float | None, not str']"),
    "morrey-radii_h": ("morrey", {"radii_h": "abc"}, "['radii_h: list[int], not str']"),
    "entropy-diffusion-sizes": ("entropy-diffusion", {"sizes": [64.5, "x"]},
                                "['sizes: list[int], not list']"),
    "entropy-diffusion-K": ("entropy-diffusion", {"K": [1]}, "['K: float | None, not list']"),
    "entropy-coupled-sizes": ("entropy-coupled", {"sizes": 64}, "['sizes: list[int], not int']"),
    "entropy-coupled-K": ("entropy-coupled", {"K": "1e-3"}, "['K: float | None, not str']"),
    "reverse-holder-t0": ("reverse-holder", {"t0": True}, "['t0: float | None, not bool']"),
    "reverse-holder-sizes": ("reverse-holder", {"sizes": [128, None]},
                             "['sizes: list[int], not list']"),
    "estimate-ratios-t0": ("estimate-ratios", {"t0": None}, "['t0: float, not NoneType']"),
    "estimate-ratios-sizes": ("estimate-ratios", {"sizes": [[128], [256]]},
                              "['sizes: list[int], not list']"),
    "contraction-decay_ratio_target": ("contraction", {"decay_ratio_target": "0.6"},
                                       "['decay_ratio_target: float | None, not str']"),
    "tampered-contraction-decay_ratio_target": (
        "tampered-contraction", {"decay_ratio_target": [0.6]},
        "['decay_ratio_target: float | None, not list']"),
    "contraction-initial0": ("contraction", {"initial0": "mode"}, "['initial0: dict, not str']"),
    "contraction-initial1": ("contraction", {"initial1": [1]}, "['initial1: dict, not list']"),
    "tampered-contraction-initial0": ("tampered-contraction", {"initial0": None},
                                      "['initial0: dict, not NoneType']"),
    "tampered-contraction-initial1": ("tampered-contraction", {"initial1": 2},
                                      "['initial1: dict, not int']"),
    "reverse-holder-R": ("reverse-holder", {"R": "0.05"}, "['R: float, not str']"),
    "estimate-ratios-r": ("estimate-ratios", {"r": None}, "['r: float, not NoneType']"),
    "estimate-ratios-R": ("estimate-ratios", {"R": [0.1]}, "['R: float, not list']"),
}


class TestCheckKeys:
    """A check kind's keys are the keyword-only parameters of its function; every
    check of a suite is bound to them before anything runs or is written."""

    def rejected(self, tmp_path, capsys, monkeypatch, suite, err):
        keys = counting_runs(monkeypatch)
        verify_workers(monkeypatch)
        path = write_doc(tmp_path, suite, "suite.json")
        assert main(["verify", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists() and keys == []

    def test_every_kind_is_covered(self):
        assert set(EVERY_KIND) == set(checks._CHECKS)

    @pytest.mark.parametrize("kind", sorted(EVERY_KIND))
    def test_an_unknown_key(self, tmp_path, capsys, monkeypatch, kind):
        check = {**small_check("c"), "kind": kind, **EVERY_KIND[kind][0], "bogus": 1}
        self.rejected(tmp_path, capsys, monkeypatch, {"name": "s", "checks": [check]},
                      "error: bad check 'c': unknown key(s) ['bogus']\n")

    @pytest.mark.parametrize("kind", sorted(EVERY_KIND))
    def test_a_missing_required_key(self, tmp_path, capsys, monkeypatch, kind):
        extra, dropped = EVERY_KIND[kind]
        check = {**small_check("c"), "kind": kind, **extra}
        del check[dropped]
        self.rejected(tmp_path, capsys, monkeypatch, {"name": "s", "checks": [check]},
                      f"error: bad check 'c': missing key(s) ['{dropped}']\n")

    @pytest.mark.parametrize("case", list(WRONG_TYPES))
    def test_a_mistyped_key(self, tmp_path, capsys, monkeypatch, case):
        kind, wrong, named = WRONG_TYPES[case]
        check = {**small_check("c"), "kind": kind, **EVERY_KIND[kind][0], **wrong}
        self.rejected(tmp_path, capsys, monkeypatch, {"name": "s", "checks": [check]},
                      f"error: bad check 'c': wrong type(s) {named}\n")

    def test_every_typed_key_is_covered(self):
        assert {kind for kind, *_ in WRONG_TYPES.values()} == set(checks._CHECKS)
        # every key declares its type; `config` is a dict in every kind, and a case of four
        for fn, *_ in checks._CHECKS.values():
            assert all(p.annotation is not p.empty for p in inspect.signature(fn).parameters
                       .values() if p.kind is p.KEYWORD_ONLY)
        typed = {(kind, k) for kind, (fn, *_) in checks._CHECKS.items()
                 for k in documents._keywords(fn) if k not in ("name", "config")}
        assert typed == {(kind, k) for kind, wrong, _ in WRONG_TYPES.values()
                         for k in wrong if k != "config"}

    def test_an_int_may_stand_for_a_float(self):
        check = {**small_check("c"), "kind": "reverse-holder", "R": 1, "p": 3,
                 "cylinders": 4, "t0": None, "sizes": [32, 64]}
        assert checks._bind_check(check)[2] == {k: v for k, v in check.items() if k != "kind"}
        for kind in ("contraction", "tampered-contraction"):
            checks._bind_check({**small_check("c"), "kind": kind, **CONTRACTION_KEYS,
                             "decay_ratio_rtol": 1})

    def test_every_problem_of_a_check_is_named_at_once(self, tmp_path, capsys, monkeypatch):
        check = {**small_check("c"), "kind": "estimate-ratios", "rr": 0.05, "R": 0.1,
                 "cylindres": 3}
        self.rejected(tmp_path, capsys, monkeypatch, {"name": "s", "checks": [check]},
                      "error: bad check 'c': unknown key(s) ['cylindres', 'rr'], "
                      "missing key(s) ['r', 't0']\n")

    @pytest.mark.parametrize("seed", [2, 99])
    def test_a_seed_in_a_checks_config_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                       seed):
        # a run has one seed, the suite's or --seed; one in a check's config was dropped
        check = {**small_check("c"), "config": {**small_check()["config"], "seed": seed}}
        self.rejected(tmp_path, capsys, monkeypatch,
                      {"name": "s", "seed": 2, "checks": [small_check(), check]},
                      "error: check 'c': its config may not set 'seed'\n")

    def test_the_misspelt_morrey_keys_of_paper_core(self, tmp_path, capsys, monkeypatch):
        suite = paper_core_suite(64)
        morrey = next(c for c in suite["checks"] if c["kind"] == "morrey")
        morrey["pointz"] = morrey.pop("points")
        morrey["radii"] = [16, 8, 4]
        self.rejected(tmp_path, capsys, monkeypatch, suite,
                      "error: bad check 'morrey': unknown key(s) ['pointz', 'radii']\n")

    @pytest.mark.parametrize("kind", ["sup_norm", ["sup-norm"], None])
    def test_a_bad_kind_after_valid_checks_leaves_nothing(self, tmp_path, capsys,
                                                          monkeypatch, kind):
        suite = paper_core_suite(64)
        suite["checks"][3]["kind"] = kind
        self.rejected(tmp_path, capsys, monkeypatch, suite,
                      f"error: unknown check kind '{kind}' in 'boundedness-bands'\n")

    @pytest.mark.parametrize("suite", [paper_core_suite(64), paper_core_suite(128),
                                       checks.negative_control_suite()],
                             ids=["paper-core-64", "paper-core-128", "negative-control"])
    def test_the_built_in_suites_bind(self, suite):
        for check in suite["checks"]:
            fn, leading, keys = checks._bind_check(check)
            assert (fn, *leading) == checks._CHECKS[check["kind"]]
            assert keys == {k: v for k, v in check.items() if k != "kind"}

    @pytest.mark.parametrize("tiny", [True, False], ids=["tiny", "full"])
    def test_the_benchmark_documents_bind(self, monkeypatch, tiny):
        # read only: a kind change must not make a benchmark workload exit 1
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)   # its dataclasses look it up
        monkeypatch.setattr(sys, "dont_write_bytecode", True)    # leave perfbench/ as it is
        spec.loader.exec_module(workloads)
        for w in workloads.WORKLOADS.values():
            doc = w.document(7, tiny)
            if w.command == "verify":
                documents._check_keys("suite", ("", doc, checks._suite))
                for check in doc["checks"]:
                    checks._bind_check(check)
                    documents.build_config(check["config"])
                    # contraction's data, each under the strict keys of its family
                    for initial in [check[k] for k in ("initial0", "initial1") if k in check]:
                        documents.build_config({**check["config"], "initial": initial})
            else:
                documents._check_keys("sweep", ("", doc, cli._sweep))
                documents.build_config(doc["base"])
                cli._sweep_cells(doc)


def frozen_write_series_csv(path, report):
    """The series writer as it was when it picked a report's series from its values,
    kept as an oracle."""
    values = report.values
    series = None
    if "d" in values and "times" in values:
        series = ("t,d", zip(values["times"], values["d"]))
    elif "sup" in values and "times" in values:
        series = ("t,sup,bound", zip(values["times"], values["sup"], values["bound"]))
    elif "profiles" in values:
        rows = []
        for prof in values["profiles"]:
            for R, v in zip(prof["radii"], prof["values"]):
                rows.append((prof["t0"], R, v))
        series = ("t0,R,quotient", iter(rows))
    if series is None:
        return False
    header, rows = series
    tol = report.tolerance if isinstance(report.tolerance, (int, float)) else ""
    with open(path, "w", newline="") as fh:
        fh.write(f"check,{report.name},config_hash,{report.provenance},tolerance,{tol}\n")
        fh.write(header + "\n")
        w = csv.writer(fh)
        for row in rows:
            w.writerow([f"{x:.17g}" if isinstance(x, (float, np.floating)) else x
                        for x in row])
    return True


class TestSeries:
    """Each report sets its own series; the writer reads nothing else."""

    def test_the_series_files_are_those_picked_from_the_values(self, tmp_path):
        reports = {tmp_path / "v" / "paper-core": run_suite(paper_core_suite(64),
                                                            tmp_path / "v" / "paper-core"),
                   tmp_path / "v" / "neg": run_suite(checks.negative_control_suite(),
                                                     tmp_path / "v" / "neg")}
        written = []
        for outdir, reps in reports.items():
            for rep in reps:
                got = outdir / f"{rep.name}.series.csv"
                assert frozen_write_series_csv(tmp_path / "oracle.csv", rep) == got.exists()
                if got.exists():
                    written.append(rep.name)
                    assert got.read_bytes() == (tmp_path / "oracle.csv").read_bytes()
                    checks._write_series_csv(tmp_path / "bare.csv", replace(rep, values={}))
                    assert (tmp_path / "bare.csv").read_bytes() == got.read_bytes()
        assert written == ["contraction-cosh", "contraction-heat-rate", "boundedness-bump",
                           "boundedness-bands", "morrey", "injected-sup-growth",
                           "injected-contraction-growth"]
        assert all("series" not in rep.to_json() for reps in reports.values() for rep in reps)


class TestSweepPotentialAxis:
    def test_a_named_potential_replaces_a_table_base(self, tmp_path):
        base = {**heat_doc(size=32, t_end=0.002), "potential": TABLE_QUAD}
        sweep = write_doc(tmp_path, {"name": "sw", "base": base,
                                     "axes": {"potential": ["quadratic", "cosh"]}}, "sweep.json")
        assert main(["sweep", sweep, "--out", str(tmp_path / "s")]) == 0
        rows = read_csv(tmp_path / "s" / "sw" / "sweep.csv", csv.DictReader)
        assert [r["potential"] for r in rows] == ["quadratic", "cosh"]
        assert rows[0]["terminal_sup"] != rows[1]["terminal_sup"]
        for row in rows:
            manifest = json.loads((tmp_path / "s" / "sw" / row["label"] / "manifest.json")
                                  .read_text())
            assert manifest["config"]["potential"] == {"id": row["potential"], "r_max": 2.0}

    def test_a_table_base_without_a_potential_axis_runs_its_table(self, tmp_path):
        base = {**heat_doc(size=32, t_end=0.002), "potential": TABLE_QUAD}
        sweep = write_doc(tmp_path, {"name": "sw", "base": base, "axes": {"seed": [1]}},
                          "sweep.json")
        assert main(["sweep", sweep, "--out", str(tmp_path / "s")]) == 0
        manifest = json.loads((tmp_path / "s" / "sw" / "tab-quad-s1" / "manifest.json")
                              .read_text())
        assert manifest["potential_id"] == "tab-quad"
        assert manifest["config"]["potential"]["table"]["coeffs"] == [[0.5, 0.0, 0.0]]


def frozen_run_cell(base_doc, cell, outdir, seed):
    """The sweep cell as it was composed before cells streamed, kept as an oracle:
    run, then write the trajectory file (encoded here, apart from the program's
    writer) and the manifest, then the stored run replayed into the entropy residual
    fold, then into the Morrey fold."""
    import struct
    from pelab import build_entropy, certify_window, run, vector_norm, with_resolution
    from pelab.diagnostics import _diffusion_fold, _MorreyFold
    from pelab.grid import _replay
    doc = json.loads(json.dumps(base_doc))
    if "potential" in cell:
        doc["potential"].pop("table", None)
        doc["potential"]["id"] = cell["potential"]
    doc["name"] = cell["label"]
    cfg = documents.build_config(doc, cell.get("seed", seed))
    if "resolution" in cell:
        cfg = with_resolution(cfg, int(cell["resolution"]))
    traj = run(cfg)
    cell_dir = outdir / cell["label"]
    cell_dir.mkdir(parents=True)
    g = cfg.grid
    with open(cell_dir / "trajectory.pelb", "wb") as fh:
        fh.write(struct.pack("<4sIBBB", b"PELB", 2, g.n, cfg.n_components, int(not g.periodic)))
        fh.write(struct.pack(f"<{g.n}Qd", *g.sizes, g.h))
        for snap in traj.snapshots:
            fh.write(struct.pack("<d", snap.t) + snap.values.astype("<f8").tobytes())
    times = [snap.t for snap in traj.snapshots]
    (cell_dir / "manifest.json").write_text(json.dumps(
        {"kind": "run", **traj.meta, "trajectory": "trajectory.pelb", "frames": len(times),
         "times": times}, sort_keys=True, indent=2) + "\n")
    row = dict.fromkeys(cli._SWEEP_FIELDS, "")
    row.update(label=cell["label"], potential=cfg.potential.id,
               size=cfg.grid.sizes[0], seed=cfg.seed,
               config_hash=traj.meta["config_hash"],
               terminal_sup=float(vector_norm(traj.final.values).max()))
    pot = cfg.potential
    if cfg.snapshot_every == 1 and cfg.system == "diffusion":
        fold = _diffusion_fold(traj.grid, pot, build_entropy(pot), certify_window(pot))
        rep = _replay(traj, fold).report(traj, None, "entropy-diffusion")
        row["resid_pos_max"] = rep.values["max_pos"]
        row["resid_abs_max"] = rep.values["max_abs"]
    try:
        h = cfg.grid.h
        center = tuple(0.5 * cfg.grid.extent(a) for a in range(cfg.grid.n))
        fold = _MorreyFold(traj.grid, [(center, cfg.t_end)], [16 * h, 8 * h, 4 * h])
        prof = _replay(traj, fold).profiles()[0]
        row["morrey_16h"], row["morrey_8h"], row["morrey_4h"] = (v for _, v in prof)
    except ValueError:
        pass
    return row


def tree(root):
    """Relative path -> bytes of every file under root."""
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
            if f.is_file()}


def orphans(root):
    """Trajectory files under root that are not the `trajectory` of the one
    manifest.json beside them."""
    def listed(f):
        m = f.parent / "manifest.json"
        return m.is_file() and json.loads(m.read_text())["trajectory"] == f.name
    return sorted(str(f) for f in root.rglob("*.pelb") if not listed(f))


def open_fds():
    """The file descriptors this process holds open."""
    return sorted(os.listdir("/proc/self/fd"))


def plant_in_third_frame(monkeypatch, name, act):
    """act(file) runs in place of the third frame that run `name` (a `pelab run` or a
    sweep cell) appends to its trajectory; a forked worker inherits the patch."""
    real, appends = cli._write_frame, count()

    def planted(fh, snap):
        if Path(fh.name).parent.name == f".{name}.partial" and next(appends) == 2:
            act(fh)
        real(fh, snap)

    monkeypatch.setattr(cli, "_write_frame", planted)


def cell_base(sizes, boundary="periodic", **extra):
    h = 1.0 / (sizes[0] if boundary == "periodic" else sizes[0] - 1)
    return {"name": "cell", "grid": {"sizes": sizes, "h": h, "boundary": boundary},
            "components": 1, "potential": {"id": "cosh", "r_max": 1.0}, "t_end": 0.003,
            "snapshot_every": 1, "seed": 7,
            "initial": {"kind": "bands", "kmax": 3, "amplitude": 0.5}, **extra}


class TestStreamedSweepCells:
    """A cell writes and folds each snapshot as `run` hands it over, so its memory
    stays flat; the cells start costliest first; outputs are those of the cell
    that stored its whole trajectory."""

    @pytest.mark.parametrize("base, axes", [
        (cell_base([64]), {"potential": ["quadratic", "cosh", "quartic"]}),
        (cell_base([48, 48]), {"potential": ["quadratic", "quartic"]}),
        (cell_base([65], "dirichlet", initial={"kind": "mode", "k": [1], "amplitude": 0.5}),
         {}),
        (cell_base([48], t_end=0.01), {"resolution": [48, 64]}),
        (cell_base([48], components=2, system="coupled", snapshot_every=3), {"seed": [1, 2]}),
        (cell_base([16]), {}),   # 16h = 1: the Morrey cylinder does not fit
    ], ids=["1d-periodic", "2d-periodic", "1d-dirichlet", "resolution", "coupled",
            "no-morrey"])
    def test_cells_equal_the_frozen_composition_byte_for_byte(self, tmp_path, base, axes):
        doc = {"name": "sw", "base": base, "axes": axes}
        assert main(["sweep", write_doc(tmp_path, doc, "sweep.json"), "--out",
                     str(tmp_path / "s"), "--threads", "2"]) == 0
        oracle = tmp_path / "oracle"
        oracle.mkdir()
        rows = [frozen_run_cell(base, cell, oracle, None) for cell in cli._sweep_cells(doc)]
        got = tmp_path / "s" / "sw"
        assert read_csv(got / "sweep.csv", csv.DictReader) == \
            [{k: str(v) for k, v in row.items()} for row in rows]
        assert {k: v for k, v in tree(got).items() if not k.startswith("sweep")} == tree(oracle)
        blank = [row["morrey_4h"] == "" for row in rows]
        assert all(blank) if base["grid"]["sizes"] == [16] else not any(blank)
        resid = [row["resid_pos_max"] == "" for row in rows]
        assert all(resid) if base.get("system") == "coupled" else not any(resid)

    def test_a_cells_peak_memory_does_not_grow_with_the_step_count(self, tmp_path):
        import tracemalloc
        peaks = []
        for t_end in (0.002, 0.004):   # 57 and 113 steps at 64^2
            base = cell_base([64, 64], t_end=t_end)
            cli._run_cell(documents.build_config({**base, "name": "warm"}), tmp_path)   # cached tables
            tracemalloc.start()
            try:
                cli._run_cell(documents.build_config({**base, "name": f"t{t_end}"}), tmp_path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        field = 64 * 64 * 8
        # a few fields of allocator noise; a stored trajectory would add 56 fields
        assert peaks[1] - peaks[0] < 4 * field, peaks

    def test_cells_start_costliest_first_and_rows_keep_cell_order(self, tmp_path,
                                                                  monkeypatch):
        submitted = []

        def in_order(fn, cells, workers):   # runs each cell, in this process, as it starts
            submitted.extend(cell["label"] for cell in cells)
            return [fn(cell) for cell in cells]

        monkeypatch.setattr(cli, "fan_out", in_order)
        # 40 steps of 5e-5: within the CFL bound at 32 and 64 points, beyond it at 128
        doc = {"name": "sw", "base": cell_base([32], t_end=0.002, dt_override=5e-5),
               "axes": {"resolution": [32, 64, 128], "potential": ["quadratic", "cosh"]}}
        assert main(["sweep", write_doc(tmp_path, doc, "sweep.json"), "--out",
                     str(tmp_path / "s")]) == 1
        labels = [c["label"] for c in cli._sweep_cells(doc)]
        # 64 points cost twice 32 (equal steps); equal costs keep cell order, and a
        # cell whose run cannot be planned goes last
        assert submitted == ["quadratic-n64", "cosh-n64", "quadratic-n32", "cosh-n32",
                             "quadratic-n128", "cosh-n128"]
        rows = read_csv(tmp_path / "s" / "sw" / "sweep.csv", csv.DictReader)
        assert [r["label"] for r in rows] == labels
        assert [bool(r["error"]) for r in rows] == [label.endswith("n128") for label in labels]
        assert rows[-1]["error"].startswith("ValueError: dt_override 5e-05 violates the CFL")

    @pytest.mark.parametrize("threads, affinity, expected", [
        ("0", {0, 1, 2}, 3), ("0", None, 7), ("5", {0, 1, 2}, 5)])
    def test_zero_threads_means_the_usable_cpus(self, tmp_path, monkeypatch, threads,
                                                affinity, expected):
        seen, fan_out = [], cli.fan_out

        def recording(fn, cells, workers):
            seen.append(workers)
            return fan_out(fn, cells, workers)

        monkeypatch.setattr(cli, "fan_out", recording)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        doc = {"name": "sw", "base": cell_base([16], t_end=0.001), "axes": {}}
        assert main(["sweep", write_doc(tmp_path, doc, "sweep.json"), "--out",
                     str(tmp_path / "s"), "--threads", threads]) == 0
        assert seen == [expected]

    @staticmethod
    def failing_third_write(monkeypatch, cell_dir):
        """The third frame appended to `cell_dir`'s trajectory fails half-written."""
        def disk_full(fh):
            fh.write(b"partial")
            raise OSError("disk full")

        plant_in_third_frame(monkeypatch, cell_dir, disk_full)

    def test_a_failed_cell_leaves_no_snapshot_and_keeps_its_error_row(self, tmp_path,
                                                                      monkeypatch):
        self.failing_third_write(monkeypatch, "cosh")
        doc = {"name": "sw", "base": cell_base([32]),
               "axes": {"potential": ["quadratic", "cosh"]}}
        fds = open_fds()
        assert main(["sweep", write_doc(tmp_path, doc, "sweep.json"), "--out",
                     str(tmp_path / "s"), "--threads", "2"]) == 1
        assert open_fds() == fds and multiprocessing.active_children() == []
        rows = read_csv(tmp_path / "s" / "sw" / "sweep.csv", csv.DictReader)
        assert [(r["label"], r["error"]) for r in rows] == [
            ("quadratic", ""), ("cosh", "OSError: disk full")]
        assert not (tmp_path / "s" / "sw" / "cosh").exists()
        assert (tmp_path / "s" / "sw" / "quadratic" / "manifest.json").exists()
        assert orphans(tmp_path / "s") == []

    def test_a_failed_run_leaves_no_snapshot(self, tmp_path, monkeypatch):
        self.failing_third_write(monkeypatch, "heat-sin")
        cfg = write_doc(tmp_path, heat_doc())
        fds = open_fds()
        with pytest.raises(OSError, match="disk full") as failed:
            main(["run", cfg, "--out", str(tmp_path / "out")])
        # the traceback keeps the writer's frames alive: the file must be closed, not collected
        assert failed.traceback and open_fds() == fds
        assert list((tmp_path / "out").iterdir()) == []
        assert orphans(tmp_path) == []

    def test_a_failed_rerun_leaves_the_earlier_run_as_it_was(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["run", write_doc(tmp_path, heat_doc()), "--out", str(out)]) == 0
        before = tree(out)
        bad = {**heat_doc(), "dt_override": 0.003}   # does not divide t_end = 0.01
        assert main(["run", write_doc(tmp_path, bad), "--out", str(out)]) == 1
        assert tree(out) == before
        self.failing_third_write(monkeypatch, "heat-sin")
        with pytest.raises(OSError, match="disk full"):
            main(["run", write_doc(tmp_path, heat_doc(t_end=0.02)), "--out", str(out)])
        assert tree(out) == before and [p.name for p in out.iterdir()] == ["heat-sin"]

    def test_a_rerun_replaces_the_earlier_run_whole(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", write_doc(tmp_path, heat_doc(t_end=0.02)), "--out", str(out)]) == 0
        assert main(["run", write_doc(tmp_path, heat_doc()), "--out", str(out)]) == 0
        fresh = tmp_path / "fresh"
        assert main(["run", write_doc(tmp_path, heat_doc()), "--out", str(fresh)]) == 0
        assert tree(out) == tree(fresh)   # no snapshot of the longer run is left over

    def test_a_failed_cell_rerun_leaves_the_earlier_cell_as_it_was(self, tmp_path,
                                                                   monkeypatch):
        doc = write_doc(tmp_path, {"name": "sw", "base": cell_base([32]),
                                   "axes": {"potential": ["quadratic", "cosh"]}}, "sweep.json")
        assert main(["sweep", doc, "--out", str(tmp_path / "s"), "--threads", "2"]) == 0
        before = tree(tmp_path / "s" / "sw" / "cosh")
        self.failing_third_write(monkeypatch, "cosh")
        assert main(["sweep", doc, "--out", str(tmp_path / "s"), "--threads", "2"]) == 1
        assert tree(tmp_path / "s" / "sw" / "cosh") == before
        assert sorted(p.name for p in (tmp_path / "s" / "sw").iterdir()) == [
            "cosh", "quadratic", "sweep.csv", "sweep_manifest.json"]


def raise_in_parent(monkeypatch):
    """Reading a worker's result raises, in the parent only: workers only send."""
    from multiprocessing.connection import Connection

    def broken(conn):
        raise RuntimeError("parent broke")

    monkeypatch.setattr(Connection, "recv", broken)


class TestSweepWorkers:
    """Each cell runs in a forked worker process, at most --threads at a time; every
    way out of the sweep joins every worker and leaves no partial directory."""

    def sweep(self, tmp_path):
        doc = {"name": "sw", "base": cell_base([32]),
               "axes": {"potential": ["quadratic", "cosh", "quartic"]}}
        return main(["sweep", write_doc(tmp_path, doc, "sweep.json"), "--out",
                     str(tmp_path / "s"), "--threads", "2"])

    # a cell that raises: TestStreamedSweepCells.test_a_failed_cell_leaves_no_snapshot_and_...
    @pytest.mark.parametrize("plant, errors", [
        (None, ["", "", ""]),
        (lambda fh: os._exit(3), ["", "ChildProcessError: worker exited with code 3", ""]),
    ], ids=["success", "worker-death"])
    def test_every_worker_is_joined_and_a_dead_one_leaves_nothing(self, tmp_path, capsys,
                                                                  monkeypatch, plant, errors):
        if plant is not None:   # the worker dies inside `_run_cell`, mid-trajectory
            plant_in_third_frame(monkeypatch, "cosh", plant)
        fds = open_fds()
        assert self.sweep(tmp_path) == (1 if any(errors) else 0)
        assert multiprocessing.active_children() == [] and open_fds() == fds
        out, labels = tmp_path / "s" / "sw", ["quadratic", "cosh", "quartic"]
        rows = read_csv(out / "sweep.csv", csv.DictReader)
        assert [(r["label"], r["error"]) for r in rows] == list(zip(labels, errors))
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        assert manifest["failed"] == (["cosh"] if any(errors) else [])
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [label for label, e in zip(labels, errors) if not e]
            + ["sweep.csv", "sweep_manifest.json"])
        assert orphans(tmp_path / "s") == []
        if any(errors):
            assert f"cell cosh failed: {errors[1]}" in capsys.readouterr().err

    def test_an_exception_in_the_parent_ends_every_worker(self, tmp_path, monkeypatch):
        raise_in_parent(monkeypatch)
        fds = open_fds()
        with pytest.raises(RuntimeError, match="parent broke"):
            self.sweep(tmp_path)
        assert multiprocessing.active_children() == [] and open_fds() == fds
        assert [p.name for p in (tmp_path / "s" / "sw").iterdir()
                if p.name.endswith(".partial")] == []

    def test_a_worker_does_not_print_the_parents_buffered_output(self, tmp_path):
        # stdout to a pipe is block-buffered: a worker forked with the parent's unflushed
        # buffer would write it again when it exits
        doc = write_doc(tmp_path, {"name": "sw", "base": cell_base([16], t_end=0.001),
                                   "axes": {"seed": [1, 2]}}, "sweep.json")
        code = ("import sys; from pelab.cli import main; print('before', end=''); "
                f"sys.exit(main(['sweep', {doc!r}, '--out', {str(tmp_path / 's')!r}]))")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1])] + (
            [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("before") == 1 and proc.stdout.startswith("beforewrote ")


def two_2d_checks():
    """A 2D contraction and a coupled 2D N=2 sup-norm check: two runs of their own."""
    contraction = unseeded(cell_base([16, 16], t_end=0.002, snapshot_every=8))
    del contraction["initial"]
    coupled = unseeded(cell_base([24, 24], t_end=0.001, snapshot_every=5, components=2,
                                 system="coupled",
                                 initial={"kind": "two_bump", "amplitude": 0.8}))
    return [{"name": "contraction-2d", "kind": "contraction", "config": contraction,
             "initial0": {"kind": "mode", "k": [1, 1], "amplitude": 0.5},
             "initial1": {"kind": "bands", "kmax": 2, "amplitude": 0.4}},
            {"name": "sup-coupled-2d", "kind": "sup-norm", "config": coupled}]


def recording_fan_out(monkeypatch, started):
    """The suite's fan_out, recording the check names of each job as it is handed over
    and the worker count; the jobs still run in forked workers."""
    real = checks.fan_out

    def recording(fn, parts, workers):
        started.append(([sorted(i for i in part) for part in parts], workers))
        return real(fn, parts, workers)
    monkeypatch.setattr(checks, "fan_out", recording)


class TestVerifyWorkers:
    """With K > 1 workers, each group of checks that share runs is a job in a forked
    worker, the costliest first; the parent writes every file, so the tree is the same
    for every K, and a worker that dies fails the checks of its group.  `pelab verify`
    takes one worker per usable CPU."""

    @pytest.mark.parametrize("suite", [{**paper_core_suite(64), "name": "core"},
                                       {"name": "tiny-2d", "seed": 7, "checks": two_2d_checks()}],
                             ids=["paper-core-64", "tiny-2d"])
    def test_the_tree_and_stdout_do_not_depend_on_the_thread_count(self, tmp_path, capsys,
                                                                   monkeypatch, suite):
        started = []
        recording_fan_out(monkeypatch, started)
        path, out = write_doc(tmp_path, suite, "suite.json"), {}
        for k in (1, 2):
            verify_workers(monkeypatch, k)
            assert main(["verify", path, "--out", str(tmp_path / str(k))]) == 0
            out[k] = capsys.readouterr().out
        assert tree(tmp_path / "1") == tree(tmp_path / "2") and out[1] == out[2]
        assert out[1].endswith(f"{len(suite['checks'])}/{len(suite['checks'])} checks passed\n")
        # 1 worker ran the plan in this process; 2 forked one job per group
        [(parts, workers)] = started
        assert workers == 2 and len(parts) == (7 if suite["name"] == "core" else 2)

    def test_the_groups_start_costliest_first_and_the_reports_keep_check_order(
            self, tmp_path, capsys, monkeypatch):
        started = []
        recording_fan_out(monkeypatch, started)
        small, mid, big = (unseeded(cell_base([m], t_end=0.002)) for m in (16, 32, 64))
        suite = {"name": "s", "checks": [
            {"name": "small", "kind": "sup-norm", "config": small},
            {"name": "big-a", "kind": "sup-norm", "config": big},
            {"name": "mid", "kind": "sup-norm", "config": mid},
            {"name": "big-b", "kind": "reverse-holder", "sizes": [64, 128], "R": 0.1,
             "cylinders": 3, "config": big}]}
        verify_workers(monkeypatch, 5)
        assert main(["verify", write_doc(tmp_path, suite, "suite.json"), "--out",
                     str(tmp_path / "v")]) == 0
        # big-a and big-b share the 64-point run; a 64-point run costs 8 times a 32-point one
        assert started == [([[1, 3], [2], [0]], 5)]
        assert capsys.readouterr().out.splitlines()[:4] == [
            "PASS small", "PASS big-a", "PASS mid", "PASS big-b"]
        summary = read_csv(tmp_path / "v" / "s" / "summary.csv")
        assert [row[0] for row in summary[1:]] == ["small", "big-a", "mid", "big-b"]

    @pytest.mark.parametrize("affinity, expected", [({0, 1, 2}, 3), (None, 7)])
    def test_verify_takes_the_usable_cpus(self, tmp_path, monkeypatch, affinity, expected):
        started = []
        recording_fan_out(monkeypatch, started)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        suite = {"name": "s", "checks": [small_check("a"), {**small_check("b"), "config": {
            **small_check()["config"], "t_end": 0.002}}]}
        assert main(["verify", write_doc(tmp_path, suite, "suite.json"), "--out",
                     str(tmp_path / "v")]) == 0
        assert [workers for _, workers in started] == [expected]

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("entries", [two_2d_checks()[:1], two_2d_checks()],
                             ids=["one-group", "two-groups"])
    def test_fewer_than_one_worker_is_refused_before_anything_runs(self, tmp_path,
                                                                   monkeypatch, workers,
                                                                   entries):
        def no_workers(*args, **kwargs):
            raise AssertionError("workers were started")

        monkeypatch.setattr(checks, "fan_out", no_workers)
        forbid_runs(monkeypatch)
        with pytest.raises(ValueError, match=f"^workers must be 1 or more, got {workers}$"):
            run_suite({"name": "s", "checks": entries}, tmp_path / "v", workers=workers)
        assert not (tmp_path / "v").exists()

    def test_a_dead_worker_fails_exactly_the_checks_of_its_group(self, tmp_path, capsys,
                                                                 monkeypatch):
        class Dying(checks._MorreyFold):   # made here, fed in the worker, which inherits it
            def feed(self, snap):
                os._exit(3)

        monkeypatch.setattr(checks, "_MorreyFold", Dying)
        shared = unseeded(cell_base([32], t_end=0.004))
        suite = {"name": "s", "checks": [
            {"name": "m", "kind": "morrey", "points": 2, "radii_h": [8, 4], "config": shared},
            two_2d_checks()[1],
            {"name": "s", "kind": "sup-norm", "config": {**shared, "name": "other"}},
            two_2d_checks()[0]]}
        verify_workers(monkeypatch, 2)
        fds = open_fds()
        assert main(["verify", write_doc(tmp_path, suite, "suite.json"), "--out",
                     str(tmp_path / "v")]) == 1
        assert multiprocessing.active_children() == [] and open_fds() == fds
        died = "ChildProcessError: worker exited with code 3"
        outdir = tmp_path / "v" / "s"
        reports = {c["name"]: json.loads((outdir / f"{c['name']}.report.json").read_text())
                   for c in suite["checks"]}
        assert {name: (rep["passed"], rep["values"].get("error"))
                for name, rep in reports.items()} == {
            "m": (False, died), "sup-coupled-2d": (True, None), "s": (False, died),
            "contraction-2d": (True, None)}
        assert reports["m"]["values"]["traceback"] == died + "\n"
        assert capsys.readouterr().out.splitlines()[-1] == "2/4 checks passed"
        manifest = json.loads((outdir / "suite_manifest.json").read_text())
        assert manifest["passed"] is False
        assert sorted(manifest["files"] + ["suite_manifest.json"]) == \
            sorted(p.name for p in outdir.iterdir())


class TestOneTrajectoryFile:
    """A run directory, of `pelab run` or of a sweep cell, holds its manifest and one
    trajectory file, whose frame k is the run's snapshot k bit for bit."""

    @staticmethod
    def assert_frames_are_the_run(outdir, cfg):
        from pelab import run
        assert sorted(p.name for p in outdir.iterdir()) == ["manifest.json", "trajectory.pelb"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        snaps = run(cfg).snapshots
        assert manifest["trajectory"] == "trajectory.pelb"
        assert manifest["frames"] == len(snaps) > 2
        assert manifest["times"] == [s.t for s in snaps]
        for k, s in enumerate(snaps):
            frame = read_snapshot(outdir / "trajectory.pelb", k)
            assert frame.t == s.t and frame.boundary_values == s.boundary_values
            assert frame.values.tobytes() == s.values.tobytes()

    def test_a_run_directory(self, tmp_path, capsys):
        doc = heat_doc(size=64, t_end=0.002)
        assert main(["run", write_doc(tmp_path, doc), "--out", str(tmp_path / "out")]) == 0
        outdir = tmp_path / "out" / "heat-sin"
        self.assert_frames_are_the_run(outdir, documents.build_config(doc))
        frames = json.loads((outdir / "manifest.json").read_text())["frames"]
        assert capsys.readouterr().out == f"wrote {frames} frames to {outdir}\n"

    @pytest.mark.parametrize("base", [
        cell_base([32, 32]),
        cell_base([33], "dirichlet", initial={"kind": "mode", "k": [1], "amplitude": 0.5},
                  components=2)], ids=["2d-periodic", "1d-dirichlet-n2"])
    def test_a_sweep_cell_directory(self, tmp_path, base):
        doc = {"name": "sw", "base": base, "axes": {"potential": ["quadratic", "cosh"]}}
        assert main(["sweep", write_doc(tmp_path, doc, "sweep.json"), "--out",
                     str(tmp_path / "s"), "--threads", "2"]) == 0
        for cell in cli._sweep_cells(doc):
            self.assert_frames_are_the_run(tmp_path / "s" / "sw" / cell["label"],
                                           cli._cell_config(base, cell, None))


class TestPlantedControls:
    """Each negative control is a plant handed to its monitor's own check."""

    def test_the_controls_keep_their_witnesses(self, tmp_path):
        reports = run_suite(checks.negative_control_suite(), tmp_path / "v")
        assert [(rep.name, rep.passed) for rep in reports] == [
            ("injected-sup-growth", False), ("injected-contraction-growth", False)]
        assert reports[0].to_json()["witness"] == {
            "snapshot": 18, "t": 0.004999999999999994, "sup": 0.5370786701110297,
            "bound": 0.4929844032305154, "location": [29]}
        assert reports[1].to_json()["witness"] == {
            "step": 14, "t": 0.009999999999999981, "d_prev": 0.10702541310743577,
            "d_next": 0.10709459864855937}

    def test_a_plant_leaves_the_run_it_is_given_alone(self):
        # a plant wraps the observer: one snapshot changes on its way to the monitor,
        # and the run's own state and the snapshots it hands over are left as they are
        cfg = documents.build_config(checks.negative_control_suite()["checks"][1]["config"], 5)
        traj = cli.run(cfg)
        before = [s.values.copy() for s in traj.snapshots]
        for plant, k in ((checks._inflate_final, -1), (checks._anti_diffuse_middle,
                                                     len(traj.snapshots) // 2)):
            handed, planted = [], []
            wrapped = plant(cfg, planted.append)

            def observe(snap):
                handed.append(snap)
                wrapped(snap)
            final = cli.run(cfg, observe).final
            assert [s.t for s in planted] == traj.times.tolist()
            changed = [i for i, (a, b) in enumerate(zip(planted, traj.snapshots))
                       if not np.array_equal(a.values, b.values)]
            assert changed == [k % len(traj.snapshots)]
            assert all(np.array_equal(a.values, b) for a, b in zip(handed, before))
            assert np.array_equal(final.values, before[-1])
        assert all(np.array_equal(s.values, b) for s, b in zip(traj.snapshots, before))

    def test_the_default_plant_is_the_identity(self):
        observe = [].append
        for check in (checks._check_sup_norm, checks._check_contraction):
            assert inspect.signature(check).parameters["plant"].default(None, observe) is observe


def frozen_inflate_final(traj):
    """The tampered-sup plant as it was when plants transformed stored trajectories."""
    bad = replace(traj.final, values=traj.final.values * 1.5)
    return replace(traj, snapshots=traj.snapshots[:-1] + (bad,))


def frozen_anti_diffuse_middle(traj):
    """The tampered-contraction plant as it was when plants transformed stored trajectories."""
    from pelab import step_diffusion
    k = len(traj.snapshots) // 2
    snap = traj.snapshots[k]
    bumped = step_diffusion(snap, documents.build_potential(**traj.meta["config"]["potential"]),
                            -40 * traj.dt)
    return replace(traj, snapshots=traj.snapshots[:k] + (replace(bumped, t=snap.t),)
                   + traj.snapshots[k + 1:])


class TestStreamedVerify:
    """Every check folds each snapshot as `run` hands it over, so a check's memory
    stays flat in the step count, and each report is the public monitor's over the
    stored trajectory."""

    @pytest.mark.parametrize("kind, extra", [
        ("sup-norm", {}), ("entropy-diffusion", {"sizes": [64]}),
        ("morrey", {"points": 2, "radii_h": [8, 4]}),
        ("reverse-holder", {"sizes": [32, 64], "R": 0.1, "cylinders": 2}),
        ("estimate-ratios", {"sizes": [32, 64], "r": 0.05, "R": 0.1, "t0": 0.0015,
                             "cylinders": 2})])
    def test_a_checks_peak_memory_does_not_grow_with_the_step_count(self, tmp_path, kind,
                                                                    extra):
        import tracemalloc
        peaks = []
        for t_end in (0.002, 0.004):   # 57 and 113 steps at 64^2
            suite = {"name": "s", "checks": [{"name": "c", "kind": kind, **extra,
                                              "config": unseeded(cell_base([64, 64],
                                                                           t_end=t_end))}]}
            run_suite(suite, tmp_path / "warm")   # cached tables
            tracemalloc.start()
            try:
                run_suite(suite, tmp_path / f"t{t_end}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        field = 64 * 64 * 8
        # a few fields of allocator noise; a stored trajectory would add 56 fields
        assert peaks[1] - peaks[0] < 4 * field, peaks

    def test_a_2d_cylinder_pair_runs_within_a_budget_the_stored_runs_exceed(self, tmp_path):
        # morrey and reverse-holder on a 256^2 N=2 run, which a stored path would hold whole
        import tracemalloc
        from pelab.solver import _planned
        config = unseeded(cell_base([256, 256], t_end=0.002, components=2, snapshot_every=8))
        snapshots = _planned(documents.build_config(config))[2] // 8 + 1
        stored, budget = snapshots * 2 * 256 * 256 * 8, 24 * 2 ** 20
        assert stored > 4 * budget
        suite = {"name": "s", "checks": [
            {"name": "m", "kind": "morrey", "points": 4, "config": config},
            {"name": "r", "kind": "reverse-holder", "sizes": [128, 256], "R": 0.032,
             "cylinders": 6, "config": config}]}
        tracemalloc.start()
        try:
            reports = run_suite(suite, tmp_path / "v", 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.passed for r in reports] == [True, True] and peak < budget, peak

    @pytest.mark.parametrize("sizes, boundary", [([64], "periodic"), ([65], "dirichlet")])
    def test_streamed_reports_equal_the_monitors_over_stored_runs(self, tmp_path, sizes,
                                                                  boundary):
        from pelab import certify_window
        from pelab.diagnostics import _ContractionFold, _SupFold
        from pelab.grid import _replay

        def same(got, want):
            assert json.dumps(got.to_json(), sort_keys=True) == \
                json.dumps(want.to_json(), sort_keys=True)
            assert got.series == want.series

        def alone(kind, **keys):   # the report of a suite of one check
            [rep] = run_suite({"name": "s", "checks": [{"name": "c", "kind": kind, **keys}]},
                              tmp_path / kind, 3)
            return rep

        mode = {"kind": "mode", "k": [1], "amplitude": 0.5}
        config = unseeded(cell_base(sizes, boundary, t_end=0.005, snapshot_every=4,
                                    initial=mode))
        stored = cli.run(documents.build_config(config, 3))
        for kind, plant in (("sup-norm", None), ("tampered-sup", frozen_inflate_final)):
            got = alone(kind, config=config)
            fed = plant(stored) if plant else stored
            same(got, _replay(fed, _SupFold()).report(fed, "c"))
            assert got.passed is (plant is None) and (got.witness is None) is got.passed

        keys = {"initial0": mode, "initial1": {"kind": "bands", "kmax": 2, "amplitude": 0.4}}
        bare = {k: v for k, v in config.items() if k != "initial"}
        base0, base1 = (documents.build_config({**bare, "initial": keys[k]}, 3) for k in keys)
        run0 = cli.run(replace(base0, name="cell-a"))
        run1 = cli.run(replace(base1, name="cell-b"))
        window = certify_window(base0.potential)
        for kind, plant in (("contraction", None),
                            ("tampered-contraction", frozen_anti_diffuse_middle)):
            got = alone(kind, config=bare, **keys)
            fed = plant(run1) if plant else run1
            fold = _replay(fed, _replay(run0, _ContractionFold(window), 0), 1)
            same(got, fold.report(run0, fed, "c"))
            assert got.passed is (plant is None) and (got.witness is None) is got.passed


class TestEntropyCommand:
    def test_quadratic_trivial_tables(self, tmp_path, capsys):
        assert main(["entropy", "quadratic", "--out", str(tmp_path / "e")]) == 0
        out = capsys.readouterr().out
        assert "lam=1" in out and "Lam=1" in out
        assert "trivially" in out
        rows = read_csv(tmp_path / "e" / "quadratic_entropy.csv")
        z, gamma = float(rows[2][0]), float(rows[2][1])
        for row in rows[2:]:
            assert float(row[1]) == pytest.approx(float(row[0]), abs=1e-9)

    def test_cosh_residual_column_small(self, tmp_path, capsys):
        assert main(["entropy", "cosh", "--r-max", "1.0",
                     "--out", str(tmp_path / "e")]) == 0
        assert "H convex on range: yes" in capsys.readouterr().out
        rows = read_csv(tmp_path / "e" / "cosh_entropy.csv")
        assert all(float(r[2]) <= 1e-8 for r in rows[2:])

    def test_non_convex_table_exits_2_naming_radius(self, tmp_path, capsys):
        table = write_doc(tmp_path, {
            "id": "sag",
            "breakpoints": [0.0, 2.0],
            "coeffs": [[-1.0 / 3.0, 0.5, 0.0, 0.0]],  # phi'' = 1 - 2r
            "r_max": 2.0,
        }, "table.json")
        assert main(["entropy", "--table", table, "--out", str(tmp_path / "e")]) == 2
        assert "r =" in capsys.readouterr().err

    def test_unknown_potential(self, tmp_path):
        assert main(["entropy", "unobtainium", "--out", str(tmp_path / "e")]) == 1


class TestReportCommand:
    def test_summarizes_manifests_and_reports(self, tmp_path):
        cfg = write_doc(tmp_path, heat_doc(size=64, t_end=0.002))
        main(["run", cfg, "--out", str(tmp_path / "out")])
        suite = write_doc(tmp_path, {"name": "s", "checks": [
            {"name": "sup", "kind": "sup-norm",
             "config": unseeded(heat_doc(size=64, t_end=0.002))}]}, "suite.json")
        main(["verify", suite, "--out", str(tmp_path / "out")])
        assert main(["report", str(tmp_path / "out")]) == 0
        rows = read_csv(tmp_path / "out" / "report_summary.csv", csv.DictReader)
        kinds = {r["kind"] for r in rows}
        assert kinds == {"run", "check"}

    def test_missing_directory(self):
        assert main(["report", "/nonexistent/dir"]) == 1

    @pytest.mark.parametrize("name, text, message", [
        ("manifest.json", "{not json", "invalid JSON in {path}: Expecting property name"),
        ("manifest.json", "[]", "{path} holds a JSON list, not an object"),
        ("c.report.json", "5", "{path} holds a JSON int, not an object"),
    ], ids=["manifest-not-json", "manifest-list", "report-int"])
    def test_a_malformed_file_is_a_usage_error(self, tmp_path, capsys, name, text, message):
        out = tmp_path / "out"
        assert main(["run", write_doc(tmp_path, heat_doc(size=32, t_end=0.001)),
                     "--out", str(out)]) == 0
        (out / "bad").mkdir()
        (out / "bad" / name).write_text(text)
        capsys.readouterr()
        assert main(["report", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {message.format(path=out / 'bad' / name)}")
        assert not (out / "report_summary.csv").exists()


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_flag(self, tmp_path):
        assert main(["run", "x.json", "--frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["entropy", "cosh", "--seed", "3", "--threads", "9"],
        ["entropy", "cosh", "--threads", "9"],
        ["run", "{dir}/cfg.json", "--threads", "2"],
        ["verify", "paper-core", "--threads", "2"],
        ["report", "{dir}", "--out", "X", "--threads", "2"],
        ["report", "{dir}", "--out", "X"],
        ["report", "{dir}", "--seed", "1"],
    ], ids=lambda argv: "-".join(argv[:1] + [a for a in argv if a.startswith("--")]))
    def test_flags_a_command_never_reads_are_rejected(self, tmp_path, capsys, argv):
        assert main([a.format(dir=tmp_path) for a in argv]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
