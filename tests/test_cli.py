import csv
import json

import pytest

from pelab import read_snapshot
from pelab.cli import load_trajectory, main


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


def write_doc(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        snap = read_snapshot(outdir / manifest["snapshots"][0])
        assert snap.values.shape == (1, 128)
        traj = load_trajectory(outdir / "manifest.json")
        assert len(traj.snapshots) == len(manifest["snapshots"])
        assert traj.meta["config_hash"] == manifest["config_hash"]

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
        last = read_snapshot(tmp_path / "out" / "wall" / manifest["snapshots"][-1])
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
        doc["initial"] = {"kind": "bands", "kmax": 2, "amplitude": 0.4, "seed": 1}
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
        rows = list(csv.reader(open(tmp_path / "v" / "empty" / "summary.csv")))
        assert rows[0] == ["check", "passed", "tolerance", "provenance"]
        assert len(rows) == 1

    def test_duplicate_check_names_rejected(self, tmp_path):
        suite = write_doc(tmp_path, {"name": "dup", "checks": [
            {"name": "a", "kind": "sup-norm", "config": heat_doc()},
            {"name": "a", "kind": "sup-norm", "config": heat_doc()},
        ]}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1

    def test_crashing_check_recorded_as_failure(self, tmp_path):
        doc = heat_doc(size=64, t_end=0.002)
        doc["potential"] = {"id": "nope"}
        suite = write_doc(tmp_path, {"name": "crash", "checks": [
            {"name": "boom", "kind": "sup-norm", "config": doc},
            {"name": "fine", "kind": "sup-norm", "config": heat_doc(size=64, t_end=0.002)},
        ]}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1
        rep = json.loads((tmp_path / "v" / "crash" / "boom.report.json").read_text())
        assert rep["passed"] is False and "error" in rep["values"]
        rep2 = json.loads((tmp_path / "v" / "crash" / "fine.report.json").read_text())
        assert rep2["passed"] is True

    def test_crash_report_keeps_the_traceback(self, tmp_path):
        doc = heat_doc(size=64, t_end=0.002)
        suite = write_doc(tmp_path, {"name": "crash", "checks": [
            {"name": "tiny-radius", "kind": "morrey", "radii_h": [2], "config": doc},
        ]}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1
        rep = json.loads((tmp_path / "v" / "crash" / "tiny-radius.report.json").read_text())
        assert rep["passed"] is False
        assert rep["values"]["error"].startswith("ValueError: radius")
        assert "in morrey_profile" in rep["values"]["traceback"]

    @pytest.mark.parametrize("kind,extra", [
        ("reverse-holder", {"R": 0.05}),
        ("estimate-ratios", {"r": 0.05, "R": 0.1, "t0": 0.0015}),
    ])
    def test_refinement_pair_takes_exactly_two_sizes(self, tmp_path, kind, extra):
        suite = write_doc(tmp_path, {"name": "pair", "checks": [
            {"name": "three", "kind": kind, "sizes": [32, 64, 128],
             "config": heat_doc(size=32, t_end=0.002), **extra},
        ]}, "suite.json")
        assert main(["verify", suite, "--out", str(tmp_path / "v")]) == 1
        rep = json.loads((tmp_path / "v" / "pair" / "three.report.json").read_text())
        assert rep["passed"] is False
        assert rep["values"]["error"] == ("UsageError: 'three' takes exactly two sizes "
                                          "(coarse, fine), got [32, 64, 128]")

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
        summary = list(csv.DictReader(open(vdir / "summary.csv")))
        assert len(summary) == 9
        assert all(row["passed"] == "True" for row in summary)
        manifest = json.loads((vdir / "suite_manifest.json").read_text())
        assert manifest["passed"] is True
        listed = set(manifest["files"])
        on_disk = {p.name for p in vdir.iterdir() if p.name != "suite_manifest.json"}
        assert listed == on_disk  # every emitted file is referenced exactly once

    def test_unknown_suite_name(self, tmp_path):
        assert main(["verify", str(tmp_path / "ghost.json")]) == 1


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
                "initial": {"kind": "bands", "kmax": 3, "amplitude": 0.5, "seed": 11},
            },
            "axes": axes,
        }, "sweep.json")

    def test_single_cell_equals_run_plus_diagnostics(self, tmp_path):
        path = self.sweep_doc(tmp_path, {})
        assert main(["sweep", path, "--out", str(tmp_path / "s")]) == 0
        rows = list(csv.DictReader(open(tmp_path / "s" / "sw" / "sweep.csv")))
        assert len(rows) == 1
        assert rows[0]["error"] == ""
        assert float(rows[0]["terminal_sup"]) > 0
        assert (tmp_path / "s" / "sw" / rows[0]["label"] / "manifest.json").exists()

    def test_resolution_axis_monotone_residuals(self, tmp_path):
        path = self.sweep_doc(tmp_path, {"resolution": [64, 128, 256]})
        assert main(["sweep", path, "--out", str(tmp_path / "s"), "--threads", "2"]) == 0
        rows = list(csv.DictReader(open(tmp_path / "s" / "sw" / "sweep.csv")))
        assert len(rows) == 3
        pos = [float(r["resid_pos_max"]) for r in rows]
        assert pos[0] >= pos[1] >= pos[2]

    def test_seed_flag_overrides_base_seed(self, tmp_path):
        path = self.sweep_doc(tmp_path, {})
        rows = {}
        for seed in ("3", "4"):
            out = tmp_path / f"s{seed}"
            assert main(["sweep", path, "--out", str(out), "--seed", seed]) == 0
            rows[seed] = next(csv.DictReader(open(out / "sw" / "sweep.csv")))
        assert (rows["3"]["seed"], rows["4"]["seed"]) == ("3", "4")
        assert rows["3"]["config_hash"] != rows["4"]["config_hash"]
        path = self.sweep_doc(tmp_path, {"seed": [5]})
        assert main(["sweep", path, "--out", str(tmp_path / "axis"), "--seed", "3"]) == 0
        row = next(csv.DictReader(open(tmp_path / "axis" / "sw" / "sweep.csv")))
        assert row["seed"] == "5"

    def test_duplicate_labels_rejected_before_any_run(self, tmp_path):
        path = self.sweep_doc(tmp_path, {"potential": ["cosh", "cosh"]})
        assert main(["sweep", path, "--out", str(tmp_path / "s")]) == 1
        assert not (tmp_path / "s" / "sw").exists()


class TestEntropyCommand:
    def test_quadratic_trivial_tables(self, tmp_path, capsys):
        assert main(["entropy", "quadratic", "--out", str(tmp_path / "e")]) == 0
        out = capsys.readouterr().out
        assert "lam=1" in out and "Lam=1" in out
        assert "trivially" in out
        rows = list(csv.reader(open(tmp_path / "e" / "quadratic_entropy.csv")))
        z, gamma = float(rows[2][0]), float(rows[2][1])
        for row in rows[2:]:
            assert float(row[1]) == pytest.approx(float(row[0]), abs=1e-9)

    def test_cosh_residual_column_small(self, tmp_path, capsys):
        assert main(["entropy", "cosh", "--r-max", "1.0",
                     "--out", str(tmp_path / "e")]) == 0
        assert "H convex on range: yes" in capsys.readouterr().out
        rows = list(csv.reader(open(tmp_path / "e" / "cosh_entropy.csv")))
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
             "config": heat_doc(size=64, t_end=0.002)}]}, "suite.json")
        main(["verify", suite, "--out", str(tmp_path / "out")])
        assert main(["report", str(tmp_path / "out")]) == 0
        rows = list(csv.DictReader(open(tmp_path / "out" / "report_summary.csv")))
        kinds = {r["kind"] for r in rows}
        assert kinds == {"run", "check"}

    def test_missing_directory(self):
        assert main(["report", "/nonexistent/dir"]) == 1


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
