"""File formats and the command-line pipeline."""

import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from defreg import Image2D, LabelMap, make_grid
from defreg.bspline import ControlGrid, DisplacementField
from defreg.cli import cli_main
from defreg.errors import DomainError
from defreg import io as regio


class TestPgm:
    def test_8bit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image2D(rng.random((9, 7)))
        p = tmp_path / "a.pgm"
        regio.write_pgm(p, img)
        back = regio.read_pgm(p)
        assert back.data.shape == (9, 7)
        assert np.abs(back.data - img.data).max() <= 0.5 / 255 + 1e-12

    def test_16bit_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = Image2D(rng.random((5, 6)))
        p = tmp_path / "a.pgm"
        regio.write_pgm(p, img, maxval=65535)
        back = regio.read_pgm(p)
        assert np.abs(back.data - img.data).max() <= 0.5 / 65535 + 1e-12

    def test_quantization_is_idempotent(self, tmp_path):
        rng = np.random.default_rng(2)
        img = Image2D(rng.random((8, 8)))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        regio.write_pgm(p1, img)
        regio.write_pgm(p2, regio.read_pgm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_label_roundtrip_verbatim(self, tmp_path):
        rng = np.random.default_rng(3)
        lab = LabelMap(rng.integers(0, 4, (10, 11)).astype(np.int32), num_classes=4)
        p = tmp_path / "lab.pgm"
        regio.write_label_pgm(p, lab)
        back = regio.read_label_pgm(p)
        assert np.array_equal(back.labels, lab.labels)
        assert back.num_classes == 4

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.pgm"
        p.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(DomainError):
            regio.read_pgm(p)

    def test_bad_maxval_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            regio.write_pgm(tmp_path / "a.pgm", Image2D(np.zeros((4, 4))), maxval=100)

    def test_header_comment_tolerated(self, tmp_path):
        payload = bytes(range(4))
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n" + payload)
        img = regio.read_pgm(p)
        assert img.data.shape == (2, 2)


class TestRaw:
    def test_image_roundtrip_float32_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        img = Image2D(rng.random((12, 5)).astype(np.float32).astype(np.float64),
                      spacing=2.0)
        p = tmp_path / "img.raw"
        regio.write_raw_image(p, img)
        back = regio.read_raw_image(p)
        assert np.array_equal(back.data, img.data)
        assert back.spacing == 2.0
        assert (tmp_path / "img.json").exists()

    def test_field_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        fld = DisplacementField(
            rng.normal(size=(6, 8, 2)).astype(np.float32).astype(np.float64))
        p = tmp_path / "field.raw"
        regio.write_field(p, fld)
        back = regio.read_field(p)
        assert np.array_equal(back.u, fld.u)

    def test_grid_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        grid = make_grid(32, 24, 8.0)
        grid = ControlGrid(8.0, rng.normal(size=grid.coeffs.shape)
                           .astype(np.float32).astype(np.float64))
        p = tmp_path / "grid.raw"
        regio.write_grid(p, grid)
        back = regio.read_grid(p)
        assert back.spacing_px == 8.0
        assert np.array_equal(back.coeffs, grid.coeffs)

    def test_field_and_grid_kinds_distinct(self, tmp_path):
        fld = DisplacementField(np.zeros((4, 4, 2)))
        p = tmp_path / "x.raw"
        regio.write_field(p, fld)
        with pytest.raises(DomainError):
            regio.read_grid(p)


def _exact32(rng, shape):
    return rng.normal(size=shape).astype(np.float32).astype(np.float64)


# kind -> (make(rng, h, w), write, read, array of the object, file that is truncated)
FORMATS = {
    "raw_image": (lambda rng, h, w: Image2D(_exact32(rng, (h, w)), spacing=1.5),
                  regio.write_raw_image, regio.read_raw_image, lambda x: x.data, "raw"),
    "field": (lambda rng, h, w: DisplacementField(_exact32(rng, (h, w, 2))),
              regio.write_field, regio.read_field, lambda x: x.u, "raw"),
    "grid": (lambda rng, h, w: ControlGrid(4.0, _exact32(rng, (h, w, 2))),
             regio.write_grid, regio.read_grid, lambda x: x.coeffs, "raw"),
    "labels8": (lambda rng, h, w: LabelMap(rng.integers(0, 256, (h, w)), num_classes=256),
                regio.write_label_pgm, regio.read_label_pgm, lambda x: x.labels, "pgm"),
    "labels16": (lambda rng, h, w: LabelMap(rng.integers(0, 65536, (h, w)),
                                            num_classes=65536),
                 regio.write_label_pgm, regio.read_label_pgm, lambda x: x.labels, "pgm"),
}


@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(h=st.integers(1, 9), w=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_roundtrip_and_truncation(tmp_path, kind, h, w, seed, data):
    """Every format reads back what it wrote; every shorter file is a DomainError."""
    make, write, read, array, suffix = FORMATS[kind]
    obj = make(np.random.default_rng(seed), h, w)
    path = tmp_path / f"x.{suffix}"
    write(path, obj)
    assert np.array_equal(array(read(path)), array(obj))
    blob = path.read_bytes()
    path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")])
    with pytest.raises(DomainError):
        read(path)


class TestManifest:
    def test_roundtrip_resolves_relative_paths(self, tmp_path):
        img = Image2D(np.zeros((4, 4)))
        regio.write_raw_image(tmp_path / "f.raw", img)
        regio.write_raw_image(tmp_path / "m.raw", img)
        entries = [{"id": "p0", "fixed_image": "f.raw", "moving_image": "m.raw"}]
        mpath = tmp_path / "manifest.json"
        regio.write_manifest(mpath, entries)
        back = regio.read_manifest(mpath)
        assert back[0]["id"] == "p0"
        assert Path(back[0]["fixed_image"]).is_absolute()
        assert Path(back[0]["fixed_image"]).exists()

    def test_missing_file_rejected(self, tmp_path):
        mpath = tmp_path / "manifest.json"
        regio.write_manifest(mpath, [{"id": "p0", "fixed_image": "nope.raw"}])
        with pytest.raises(DomainError):
            regio.read_manifest(mpath)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A two-pair synthetic dataset emitted by the CLI itself."""
    out = tmp_path_factory.mktemp("synth")
    rc = cli_main(["synth", "--out", str(out), "--pairs", "2",
                   "--width", "48", "--height", "48", "--magnitude", "0"])
    assert rc == 0
    return out


class TestCli:
    def test_zero_magnitude_pipeline_is_perfect(self, synth_dir, tmp_path):
        reg_out = tmp_path / "reg"
        rc = cli_main(["register", "--manifest", str(synth_dir / "manifest.json"),
                       "--out", str(reg_out), "--max-iters", "10"])
        assert rc == 0
        rc = cli_main(["eval", "--manifest", str(synth_dir / "manifest.json"),
                       "--fields-dir", str(reg_out),
                       "--out", str(tmp_path / "scores.csv")])
        assert rc == 0
        with open(tmp_path / "scores.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["pair_id"] for r in rows] == ["pair_000", "pair_001"]
        for row in rows:
            assert float(row["dice_mean"]) == 1.0
            assert float(row["folding_pct"]) == 0.0

    def test_eval_csv_header(self, synth_dir, tmp_path):
        reg_out = tmp_path / "reg"
        cli_main(["register", "--manifest", str(synth_dir / "manifest.json"),
                  "--out", str(reg_out), "--max-iters", "5"])
        cli_main(["eval", "--manifest", str(synth_dir / "manifest.json"),
                  "--fields-dir", str(reg_out), "--out", str(tmp_path / "s.csv")])
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header == "pair_id,dice_lvc,dice_rvc,dice_myo,dice_mean,folding_pct"

    def test_register_single_pair_outputs(self, synth_dir, tmp_path):
        entries = regio.read_manifest(synth_dir / "manifest.json")
        e = entries[0]
        out = tmp_path / "single"
        rc = cli_main(["register", "--fixed", e["fixed_image"],
                       "--moving", e["moving_image"],
                       "--fixed-labels", e["fixed_labels"],
                       "--moving-labels", e["moving_labels"],
                       "--out", str(out), "--max-iters", "5"])
        assert rc == 0
        assert (out / "field.raw").exists()
        assert (out / "grid.raw").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["weights"]["beta"] == 5.0e4
        assert "final_loss" in report and "folding_fraction" in report

    def test_report_deterministic_across_runs(self, synth_dir, tmp_path):
        entries = regio.read_manifest(synth_dir / "manifest.json")
        e = entries[0]
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            cli_main(["register", "--fixed", e["fixed_image"],
                      "--moving", e["moving_image"],
                      "--out", str(out), "--max-iters", "5"])
            outs.append(out)
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        assert (outs[0] / "field.raw").read_bytes() == (outs[1] / "field.raw").read_bytes()

    def test_config_file_and_flag_precedence(self, synth_dir, tmp_path):
        entries = regio.read_manifest(synth_dir / "manifest.json")
        e = entries[0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 500.0, "max_iters": 5}))
        out = tmp_path / "cfgd"
        cli_main(["register", "--fixed", e["fixed_image"], "--moving",
                  e["moving_image"], "--out", str(out),
                  "--config", str(cfg), "--alpha", "250"])
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["weights"]["alpha"] == 250.0  # flag beats file
        assert report["config"]["max_iters_per_level"] == 5  # file beats default

    def test_seed_env_var_fallback(self, tmp_path, monkeypatch):
        argv = ["synth", "--pairs", "1", "--width", "32", "--height", "32"]
        assert cli_main([*argv, "--out", str(tmp_path / "flag"), "--seed", "7"]) == 0
        monkeypatch.setenv("REGVAR_SEED", "7")
        assert cli_main([*argv, "--out", str(tmp_path / "env")]) == 0
        for name in ("pair_000_fixed.raw", "pair_000_moving.raw", "pair_000_gt_field.raw"):
            assert ((tmp_path / "flag" / name).read_bytes()
                    == (tmp_path / "env" / name).read_bytes())

    def test_missing_inputs_exit_code_one(self, tmp_path):
        rc = cli_main(["register", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_missing_input_file_exit_code_one(self, tmp_path):
        assert cli_main(["register", "--fixed", str(tmp_path / "no.raw"), "--moving",
                         str(tmp_path / "no.raw"), "--out", str(tmp_path / "x")]) == 1

    def test_mismatched_label_flags_exit_code_one(self, synth_dir, tmp_path):
        entries = regio.read_manifest(synth_dir / "manifest.json")
        e = entries[0]
        rc = cli_main(["register", "--fixed", e["fixed_image"],
                       "--moving", e["moving_image"],
                       "--fixed-labels", e["fixed_labels"],
                       "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_bad_pair_does_not_stop_the_batch(self, synth_dir, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for f in synth_dir.glob("pair_*"):
            (data / f.name).write_bytes(f.read_bytes())
        (data / "manifest.json").write_bytes((synth_dir / "manifest.json").read_bytes())
        moving = data / "pair_000_moving.raw"
        moving.write_bytes(moving.read_bytes()[:100])
        out = tmp_path / "reg"
        rc = cli_main(["register", "--manifest", str(data / "manifest.json"),
                       "--out", str(out), "--max-iters", "2"])
        assert rc == 1
        assert "error: pair_000: " in capsys.readouterr().err
        assert not (out / "pair_000" / "field.raw").exists()
        assert (out / "pair_001" / "field.raw").exists()

    def test_partial_label_map_registers(self, synth_dir, tmp_path):
        e = regio.read_manifest(synth_dir / "manifest.json")[0]
        moving = regio.read_label_pgm(e["moving_labels"])
        assert moving.num_classes == 4
        partial = tmp_path / "partial.pgm"  # the right-ventricle class 3 left unlabeled
        regio.write_label_pgm(partial, LabelMap(np.where(moving.labels == 3, 0, moving.labels),
                                                num_classes=3))
        out = tmp_path / "reg"
        assert cli_main(["register", "--fixed", e["fixed_image"], "--moving",
                         e["moving_image"], "--fixed-labels", e["fixed_labels"],
                         "--moving-labels", str(partial), "--out", str(out),
                         "--max-iters", "2"]) == 0
        assert cli_main(["eval", "--field", str(out / "field.raw"),
                         "--fixed-labels", e["fixed_labels"], "--moving-labels",
                         str(partial), "--out", str(tmp_path / "score.json")]) == 0

    def test_eval_without_inputs_exit_code_one(self, tmp_path):
        assert cli_main(["eval", "--out", str(tmp_path / "s.json")]) == 1

    def test_ablate_csv(self, synth_dir, tmp_path):
        out = tmp_path / "ablate.csv"
        rc = cli_main(["ablate", "--manifest", str(synth_dir / "manifest.json"),
                       "--param", "beta", "--factors", "1,0",
                       "--max-iters", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "factor,dice_mean,folding_pct"
        assert lines[1].startswith("1,") and lines[2].startswith("0,")

    def test_register_jobs_deterministic(self, synth_dir, tmp_path):
        outs = []
        for jobs, name in (("1", "j1"), ("4", "j4")):
            out = tmp_path / name
            rc = cli_main(["register", "--manifest", str(synth_dir / "manifest.json"),
                           "--out", str(out), "--max-iters", "5", "--jobs", jobs])
            assert rc == 0
            outs.append(out)
        for pid in ("pair_000", "pair_001"):
            assert ((outs[0] / pid / "field.raw").read_bytes()
                    == (outs[1] / pid / "field.raw").read_bytes())

    def test_diff_emits_pgm(self, synth_dir, tmp_path):
        entries = regio.read_manifest(synth_dir / "manifest.json")
        e = entries[0]
        out = tmp_path / "diff.pgm"
        rc = cli_main(["diff", "--a", e["fixed_image"], "--b", e["moving_image"],
                       "--out", str(out)])
        assert rc == 0
        img = regio.read_pgm(out)
        # identical zero-magnitude pair: everything mid-grey
        assert np.allclose(img.data, 0.5, atol=0.51 / 255)

    def test_augment_expands_manifest(self, synth_dir, tmp_path):
        out = tmp_path / "aug"
        rc = cli_main(["augment", "--manifest", str(synth_dir / "manifest.json"),
                       "--out", str(out), "--factor", "2", "--magnitude", "1"])
        assert rc == 0
        entries = regio.read_manifest(out / "manifest.json")
        assert len(entries) == 4  # 2 pairs x factor 2
        assert all("gt_field" not in e for e in entries)

    def test_eval_single_json_echoes_defaults(self, synth_dir, tmp_path):
        entries = regio.read_manifest(synth_dir / "manifest.json")
        e = entries[0]
        reg_out = tmp_path / "reg1"
        cli_main(["register", "--fixed", e["fixed_image"], "--moving",
                  e["moving_image"], "--fixed-labels", e["fixed_labels"],
                  "--moving-labels", e["moving_labels"],
                  "--out", str(reg_out), "--max-iters", "5"])
        out = tmp_path / "score.json"
        rc = cli_main(["eval", "--field", str(reg_out / "field.raw"),
                       "--fixed-labels", e["fixed_labels"],
                       "--moving-labels", e["moving_labels"], "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["mean_dice"] == 1.0
        assert payload["defaults"]["beta"] == 5.0e4
