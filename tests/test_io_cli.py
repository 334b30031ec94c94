"""File formats and the command-line pipeline."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import defreg
from defreg import Image2D, LabelMap, RegistrationConfig, ablate, make_grid
from defreg.bspline import ControlGrid, DisplacementField
from defreg.cli import DEFAULTS, cli_main
from defreg.errors import DomainError
from defreg import io as regio
from test_acceptance import ablation_pair


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

    def test_label_code_beyond_16_bits_rejected(self, tmp_path):
        """A code above 65535 wrapped silently: 70000 read back as 4464."""
        p = tmp_path / "lab.pgm"
        lab = LabelMap(np.array([[0, 70000], [1, 2]]), num_classes=70001)
        with pytest.raises(DomainError, match="70000 exceeds 65535"):
            regio.write_label_pgm(p, lab)
        assert not p.exists()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.pgm"
        p.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(DomainError):
            regio.read_pgm(p)

    def test_bad_maxval_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            regio.write_pgm(tmp_path / "a.pgm", Image2D(np.zeros((4, 4))), maxval=100)

    def test_label_sample_above_maxval_rejected(self, tmp_path):
        """Under maxval 3 a sample 255 gave 256 classes (``BAD_INPUTS`` has the
        intensity read)."""
        p = tmp_path / "over.pgm"
        p.write_bytes(b"P5\n2 2\n3\n" + bytes([0, 9, 2, 255]))
        with pytest.raises(DomainError, match="sample 255 exceeds the header's maxval 3"):
            regio.read_label_pgm(p)

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

    def test_grid_sidecar_without_spacing_rejected(self, tmp_path):
        p = tmp_path / "grid.raw"
        regio.write_grid(p, make_grid(16, 16, 8.0))
        sidecar = json.loads((tmp_path / "grid.json").read_text())
        del sidecar["spacing_px"]
        (tmp_path / "grid.json").write_text(json.dumps(sidecar))
        with pytest.raises(DomainError):
            regio.read_grid(p)

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
        for level in report["levels"]:
            assert sorted(level["start"]) == sorted(level["end"]) == ["b", "d", "r"]

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


@pytest.fixture
def bad_inputs(tmp_path):
    """Valid 32 px images and labels next to malformed JSON, sidecar and PGM files."""
    rng = np.random.default_rng(0)
    regio.write_raw_image(tmp_path / "img.raw", Image2D(rng.random((32, 32))))
    regio.write_label_pgm(tmp_path / "lab.pgm",
                          LabelMap(rng.integers(0, 2, (32, 32)), num_classes=2))
    pair = {"fixed_image": "img.raw", "moving_image": "img.raw"}
    labels = {"fixed_labels": "lab.pgm", "moving_labels": "lab.pgm"}
    files = {
        "notjson.json": "not json",
        "levels27.json": json.dumps({"levels": 2.7}),
        "itersbool.json": json.dumps({"max_iters": True}),
        "deltastring.json": json.dumps({"delta": "1e0"}),
        "alphainf.json": '{"alpha": Infinity}',
        "nope.json": "nope",
        "numbers.json": "[1,2]",
        "noid.json": json.dumps([pair]),
        "unlabeled.json": json.dumps([{"id": "p0", **pair}]),
        "labeled.json": json.dumps([{"id": "p0", **pair, **labels}]),
        "escape.json": json.dumps([{"id": "../escaped", **pair}]),
        "repeated.json": json.dumps([{"id": "p0", **pair}, {"id": "p0", **pair}]),
        "pathnumber.json": json.dumps([{"id": "p0", **pair, "fixed_image": 5}]),
        "pathnewline.json": json.dumps([{"id": "p0", **pair, "fixed_image": "a\nb"}]),
        "nofixed.json": json.dumps([{"id": "p0", "moving_image": "img.raw", **labels}]),
        "short.raw": "", "short.json": json.dumps({"width": 4}),
        "bad.raw": "", "bad.json": "nope",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for name, spacing in (("strspacing", '"x"'), ("nanspacing", "NaN"),
                          ("infspacing", "Infinity")):
        regio.write_raw_image(tmp_path / f"{name}.raw", Image2D(rng.random((32, 32))))
        (tmp_path / f"{name}.json").write_text(
            f'{{"width": 32, "height": 32, "spacing": {spacing}}}')
    regio.write_raw_image(tmp_path / "spacing3.raw", Image2D(rng.random((32, 32)), spacing=3.0))
    regio.write_field(tmp_path / "field.raw", DisplacementField(np.zeros((32, 32, 2))))
    regio.write_label_pgm(tmp_path / "lab30.pgm",
                          LabelMap(rng.integers(0, 2, (30, 30)), num_classes=2))
    (tmp_path / "bad.pgm").write_bytes(b"P5\nab 3\n255\n")
    (tmp_path / "negative.pgm").write_bytes(b"P5\n-1 2\n255\nabcd")
    (tmp_path / "zero.pgm").write_bytes(b"P5\n2 2\n0\n" + bytes(4))
    (tmp_path / "over.pgm").write_bytes(b"P5\n2 2\n3\n" + bytes([0, 9, 2, 255]))
    return tmp_path


REGISTER_PAIR = ["register", "--fixed", "{d}/img.raw", "--moving", "{d}/img.raw",
                 "--max-iters", "1", "--out", "{d}/out"]
# one case per malformed file, bad argument and non-finite setting
BAD_INPUTS = {
    "config_not_json": [*REGISTER_PAIR, "--config", "{d}/notjson.json"],
    "config_levels_not_integer": [*REGISTER_PAIR, "--config", "{d}/levels27.json"],
    "config_max_iters_bool": [*REGISTER_PAIR, "--config", "{d}/itersbool.json"],
    "config_weight_string": [*REGISTER_PAIR, "--config", "{d}/deltastring.json"],
    "config_weight_infinite": [*REGISTER_PAIR, "--config", "{d}/alphainf.json"],
    "manifest_not_json": ["register", "--manifest", "{d}/nope.json", "--out", "{d}/out"],
    "manifest_not_objects": ["register", "--manifest", "{d}/numbers.json", "--out", "{d}/out"],
    "manifest_entry_without_id": ["register", "--manifest", "{d}/noid.json", "--out", "{d}/out"],
    "manifest_id_escapes_out": ["register", "--manifest", "{d}/escape.json", "--out", "{d}/out"],
    "manifest_id_repeated": ["register", "--manifest", "{d}/repeated.json", "--out", "{d}/out"],
    "manifest_path_not_string": ["register", "--manifest", "{d}/pathnumber.json",
                                 "--out", "{d}/out"],
    "manifest_path_with_newline": ["register", "--manifest", "{d}/pathnewline.json",
                                   "--out", "{d}/out"],
    "register_manifest_without_fixed_image": ["register", "--manifest", "{d}/nofixed.json",
                                              "--max-iters", "1", "--out", "{d}/out"],
    "ablate_manifest_without_fixed_image": ["ablate", "--manifest", "{d}/nofixed.json",
                                            "--param", "beta", "--out", "{d}/out/a.csv"],
    "sidecar_without_height": ["diff", "--a", "{d}/short.raw", "--b", "{d}/img.raw",
                               "--out", "{d}/d.pgm"],
    "sidecar_not_json": ["diff", "--a", "{d}/bad.raw", "--b", "{d}/img.raw", "--out", "{d}/d.pgm"],
    "sidecar_spacing_not_number": ["diff", "--a", "{d}/strspacing.raw", "--b", "{d}/img.raw",
                                   "--out", "{d}/d.pgm"],
    "sidecar_spacing_nan": ["diff", "--a", "{d}/nanspacing.raw", "--b", "{d}/img.raw",
                            "--out", "{d}/d.pgm"],
    "sidecar_spacing_inf": ["diff", "--a", "{d}/infspacing.raw", "--b", "{d}/img.raw",
                            "--out", "{d}/d.pgm"],
    "eval_manifest_without_fields_dir": ["eval", "--manifest", "{d}/labeled.json",
                                         "--out", "{d}/s.csv"],
    "eval_manifest_without_labels": ["eval", "--manifest", "{d}/unlabeled.json",
                                     "--fields-dir", "{d}", "--out", "{d}/s.csv"],
    "eval_moving_labels_wrong_size": ["eval", "--field", "{d}/field.raw",
                                      "--fixed-labels", "{d}/lab.pgm",
                                      "--moving-labels", "{d}/lab30.pgm", "--out", "{d}/e.json"],
    "ablate_manifest_without_labels": ["ablate", "--manifest", "{d}/unlabeled.json",
                                       "--param", "beta", "--out", "{d}/a.csv"],
    "ablate_bad_factor": ["ablate", "--manifest", "{d}/labeled.json", "--param", "beta",
                          "--factors", "1,x", "--out", "{d}/a.csv"],
    "pgm_non_integer_header": ["diff", "--a", "{d}/bad.pgm", "--b", "{d}/img.raw",
                               "--out", "{d}/d.pgm"],
    "pgm_negative_width": ["diff", "--a", "{d}/negative.pgm", "--b", "{d}/negative.pgm",
                           "--out", "{d}/d.pgm"],
    "pgm_zero_maxval": ["diff", "--a", "{d}/zero.pgm", "--b", "{d}/zero.pgm", "--out", "{d}/d.pgm"],
    "pgm_sample_above_maxval": ["diff", "--a", "{d}/over.pgm", "--b", "{d}/over.pgm",
                                "--out", "{d}/d.pgm"],
    "register_spacings_differ": ["register", "--fixed", "{d}/img.raw",
                                 "--moving", "{d}/spacing3.raw", "--out", "{d}/out"],
    "diff_spacings_differ": ["diff", "--a", "{d}/img.raw", "--b", "{d}/spacing3.raw",
                             "--out", "{d}/d.pgm"],
    "spacing_inf": [*REGISTER_PAIR, "--spacing", "inf"],
    "spacing_nan": [*REGISTER_PAIR, "--spacing", "nan"],
    "spacing_sub_pixel": [*REGISTER_PAIR, "--spacing", "1e-9"],
    "alpha_nan": [*REGISTER_PAIR, "--alpha", "nan"],
    "epsilon_squared_overflows": [*REGISTER_PAIR, "--epsilon", "1e200"],
    "levels_past_one_pixel": [*REGISTER_PAIR, "--levels", "2000"],
    "register_without_out": ["register", "--fixed", "{d}/img.raw", "--moving", "{d}/img.raw"],
    "unknown_flag": [*REGISTER_PAIR, "--no-such-flag"],
    "seed_env_not_int": ["synth", "--out", "{d}/synth"],
    "seed_env_negative": ["synth", "--out", "{d}/synth"],
    "seed_negative": ["synth", "--seed", "-1", "--out", "{d}/synth"],
    "pairs_zero": ["synth", "--pairs", "0", "--out", "{d}/synth"],
    "pairs_negative": ["synth", "--pairs", "-2", "--out", "{d}/synth"],
    "augment_removed": ["augment", "--manifest", "{d}/labeled.json", "--out", "{d}/aug"],
}
# the process environment of a case, beyond PYTHONPATH
BAD_ENV = {"seed_env_not_int": {"REGVAR_SEED": "abc"}, "seed_env_negative": {"REGVAR_SEED": "-3"}}
# the setting a case's message must name, where another setting's message was printed
BAD_NAMES = {"config_weight_infinite": "alpha", "levels_past_one_pixel": "num_levels",
             "pgm_sample_above_maxval": "over.pgm: PGM sample 255 exceeds the header's maxval 3",
             "diff_spacings_differ": "spacings 1.0 and 3.0 differ"}


def _cli_env(**extra):
    """The environment of a ``defreg.cli`` process that imports this checkout."""
    return dict(os.environ, PYTHONPATH=str(Path(defreg.__file__).parents[1]), **extra)


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_one_line(bad_inputs, case):
    """The installed entry point, run as a process: exit 1, one ``error:`` line, and
    nothing written outside ``{d}/out``."""
    before = set(bad_inputs.rglob("*"))
    proc = subprocess.run([sys.executable, "-m", "defreg.cli",
                           *(a.format(d=bad_inputs) for a in BAD_INPUTS[case])],
                          env=_cli_env(**BAD_ENV.get(case, {})),
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert BAD_NAMES.get(case, "") in lines[0], proc.stderr
    written = set(bad_inputs.rglob("*")) - before
    assert all(bad_inputs / "out" in (p, *p.parents) for p in written), written


def test_truncated_pgm_header_fails_fast(bad_inputs):
    """A header with no token after the magic is rejected in linear time; a header
    pattern with nested repetition backtracked about 3x per two more bytes here."""
    (bad_inputs / "blank.pgm").write_bytes(b"P5" + b" " * 4096)
    proc = subprocess.run([sys.executable, "-m", "defreg.cli", "diff",
                           "--a", str(bad_inputs / "blank.pgm"), "--b", str(bad_inputs / "img.raw"),
                           "--out", str(bad_inputs / "d.pgm")],
                          env=_cli_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "truncated PGM header" in lines[0]


@pytest.mark.parametrize("flag, value", [
    ("--magnitude", "inf"), ("--magnitude", "nan"), ("--magnitude", "1e308"),
    ("--magnitude", "-1"), ("--noise", "inf"), ("--noise", "nan"), ("--noise", "-0.1")])
def test_synth_bad_amplitude_exits_one_line(tmp_path, flag, value):
    """A deformation magnitude or noise amplitude that is negative, not a number,
    or whose span 2 * value overflows, run as a process: exit 1, one ``error:``
    line naming it, and no pair written."""
    proc = subprocess.run([sys.executable, "-m", "defreg.cli", "synth", "--pairs", "1",
                           "--width", "32", "--height", "32", "--out", str(tmp_path / "out"),
                           flag, value],
                          env=_cli_env(), capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert ("noise_amplitude" if flag == "--noise" else "deform_magnitude_px") in lines[0]
    assert not any((tmp_path / "out").glob("*")), proc.stdout


def test_numerical_failure_exits_two(tmp_path):
    """A non-finite loss (delta 1e308), gradient norm (delta 1e300: the loss is
    finite, the gradient's squares are not) or intermediate (a pixel spacing of
    5e-324 from the sidecars: the image gradients overflow, which printed numpy
    warnings before the message), run as a process: exit 2 and one
    ``numerical error:`` line naming the level and iteration, no traceback."""
    rng = np.random.default_rng(0)
    for name in ("fixed", "moving"):
        data = rng.random((32, 32))
        regio.write_raw_image(tmp_path / f"{name}.raw", Image2D(data))
        regio.write_raw_image(tmp_path / f"{name}_tiny.raw", Image2D(data, spacing=5e-324))
    for flags, what in ((["--delta", "1e308"], "non-finite loss"),
                        (["--delta", "1e300"], "non-finite gradient norm"),
                        (["--fixed", str(tmp_path / "fixed_tiny.raw"),
                          "--moving", str(tmp_path / "moving_tiny.raw")],
                         "floating-point error: overflow")):
        proc = subprocess.run([sys.executable, "-m", "defreg.cli", "register",
                               "--fixed", str(tmp_path / "fixed.raw"),
                               "--moving", str(tmp_path / "moving.raw"),
                               "--out", str(tmp_path / "out"), *flags, "--levels", "2"],
                              env=_cli_env(), capture_output=True, text=True, timeout=120)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical error:"), proc.stderr
        assert what in lines[0] and "(level=1, iteration=0," in lines[0], proc.stderr


def test_largest_finite_control_spacing_registers_without_warning(tmp_path):
    """Prolongation works on lattice positions, so a control spacing of 1e308
    neither overflows nor warns: exit 0 and the summary as the only stderr line."""
    rng = np.random.default_rng(0)
    for name in ("fixed", "moving"):
        regio.write_raw_image(tmp_path / f"{name}.raw", Image2D(rng.random((32, 32))))
    proc = subprocess.run([sys.executable, "-m", "defreg.cli", "register",
                           "--fixed", str(tmp_path / "fixed.raw"),
                           "--moving", str(tmp_path / "moving.raw"), "--out", str(tmp_path / "out"),
                           "--levels", "2", "--spacing", "1e308"],
                          env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "final loss" in lines[0], proc.stderr


def test_entry_without_images_does_not_stop_the_batch(bad_inputs, capsys):
    pair = {"fixed_image": "img.raw", "moving_image": "img.raw"}
    regio.write_manifest(bad_inputs / "batch.json",
                         [{"id": "p0", "moving_image": "img.raw"}, {"id": "p1", **pair}])
    out = bad_inputs / "out"
    assert cli_main(["register", "--manifest", str(bad_inputs / "batch.json"),
                     "--max-iters", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: p0: manifest entry 'p0' lacks fixed_image/moving_image" in err
    assert (out / "p1" / "field.raw").exists()


def test_cli_import_leaves_scipy_out():
    """numpy is the only runtime dependency: neither the CLI nor the phantom's blur loads scipy."""
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, defreg.cli; print('scipy' in sys.modules); "
                           "from defreg.phantom import PhantomSpec, make_phantom; "
                           "make_phantom(PhantomSpec()); print('scipy' in sys.modules)"],
                          env=_cli_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


@pytest.fixture(scope="module")
def pair112(tmp_path_factory):
    """The fixed and moving raw images of one default 112 px synth pair."""
    out = tmp_path_factory.mktemp("synth112")
    assert cli_main(["synth", "--out", str(out)]) == 0
    return out / "pair_000_fixed.raw", out / "pair_000_moving.raw"


def test_normalize_ignores_intensity_scale(pair112, tmp_path):
    """Scaling by 256 is exact in float32, and so is min-max normalising the result."""
    scaled = []
    for path in pair112:
        scaled.append(tmp_path / path.name)
        regio.write_raw_image(scaled[-1], Image2D(regio.read_raw_image(path).data * 256))

    def field(images, name, *flags):
        out = tmp_path / name
        assert cli_main(["register", "--fixed", str(images[0]), "--moving", str(images[1]),
                         "--max-iters", "5", "--out", str(out), *flags]) == 0
        return (out / "field.raw").read_bytes()

    normalized = field(pair112, "norm", "--normalize")
    assert field(scaled, "scaled_norm", "--normalize") == normalized
    assert field(scaled, "scaled") != normalized


def test_field_identical_across_blas_threads(pair112, tmp_path):
    """Densify and splat are BLAS matmuls; their thread count must not change a bit."""
    fields = []
    for threads in ("1", "2", None):
        env = _cli_env()
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads_{threads}"
        proc = subprocess.run([sys.executable, "-m", "defreg.cli", "register",
                               "--fixed", str(pair112[0]), "--moving", str(pair112[1]),
                               "--max-iters", "5", "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        fields.append((out / "field.raw").read_bytes())
    assert fields[0] == fields[1] == fields[2]


@pytest.fixture(scope="module")
def weak_manifest(tmp_path_factory):
    """Two criterion-5 pairs as files: raw images and jittered supervision label
    PGMs, the second pair's moving map lacking the right ventricle (class 3).
    Also returns the in-process dataset the CLI reads from them."""
    d = tmp_path_factory.mktemp("weak")
    entries, dataset = [], []
    for seed in range(2):
        pair, sup_fixed, sup_moving = ablation_pair(seed)
        if seed == 1:
            sup_moving = replace(sup_moving, labels=np.where(sup_moving.labels == 3, 0,
                                                             sup_moving.labels))
        pid = f"pair_{seed}"
        entry = {"id": pid, "fixed_image": f"{pid}_fixed.raw",
                 "moving_image": f"{pid}_moving.raw",
                 "fixed_labels": f"{pid}_fixed_labels.pgm",
                 "moving_labels": f"{pid}_moving_labels.pgm"}
        regio.write_raw_image(d / entry["fixed_image"], pair.fixed_image)
        regio.write_raw_image(d / entry["moving_image"], pair.moving_image)
        regio.write_label_pgm(d / entry["fixed_labels"], sup_fixed)
        regio.write_label_pgm(d / entry["moving_labels"], sup_moving)
        entries.append(entry)
        # the files hold float32 intensities, so the in-process images are read back
        dataset.append((regio.read_raw_image(d / entry["fixed_image"]),
                        regio.read_raw_image(d / entry["moving_image"]),
                        sup_fixed, sup_moving))
    regio.write_manifest(d / "manifest.json", entries)
    return d / "manifest.json", dataset


@pytest.mark.parametrize("param", ["beta", "delta"])
def test_weak_supervision_ablate_matches_in_process(weak_manifest, tmp_path, param):
    """The paper's use case through the CLI: ``defreg ablate`` on noisy images with
    jittered and partial label maps writes the rows of an in-process ``ablate``.
    Two pairs cannot carry criterion 5's Dice directions, so none is asserted."""
    manifest, dataset = weak_manifest
    out = tmp_path / "ablate.csv"
    proc = subprocess.run([sys.executable, "-m", "defreg.cli", "ablate",
                           "--manifest", str(manifest), "--param", param,
                           "--factors", "1,0", "--max-iters", "30", "--out", str(out)],
                          env=_cli_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = ablate(dataset, RegistrationConfig(max_iters_per_level=30), param, [1.0, 0.0])
    expected = [["factor", "dice_mean", "folding_pct"],
                *([f"{f:g}", f"{dice:.6f}", f"{fold:.6f}"] for f, dice, fold in rows)]
    with open(out, newline="") as fh:
        assert list(csv.reader(fh)) == expected


# ---------------------------------------------------------------------------
# generated inputs: a valid labelled register run on 8-16 px images, one level
# and 1-3 iterations, or a valid eval or diff run on the same files and a field,
# with one to three of its inputs mutated

_ODD_JSON = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324, 1e-300,
                     1.7976931348623157e308, -1.0, 0, 0.0, -0.0, 1, 2.5, 8, 16, 2 ** 70,
                     True, False, None, "", "1", "x", "img.raw"]),
    st.floats(), st.integers(-2 ** 64, 2 ** 64), st.text(max_size=4),
    st.lists(st.integers(0, 16), max_size=2),
    st.dictionaries(st.sampled_from(["width", "kind", "id"]), st.integers(0, 16), max_size=1))
_ODD_FLAG = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e309", "1e308", "1.7e308", "5e-324", "1e-300",
                     "-0", "0", "1", "2", "0x10", "1_0", "", "x", " 1", "1e3", "-1"]),
    st.floats().map(repr), st.integers(-3, 20).map(str))
_TARGETS = st.sampled_from(["fixed", "moving", "both"])
_FILE_MUTATIONS = st.one_of(
    st.tuples(st.just("sidecar"), _TARGETS,
              st.sampled_from(["width", "height", "spacing", "kind", "extra"]), _ODD_JSON),
    st.tuples(st.just("raw_length"), _TARGETS, st.integers(-8, 8)),
    st.tuples(st.just("pgm_token"), _TARGETS, st.integers(0, 3),
              st.one_of(st.integers(-2, 70000).map(str),
                        st.sampled_from(["P2", "P6", "x", "1e1", "+8", "0x8", "1_6", "٣"]))),
    st.tuples(st.just("pgm_length"), _TARGETS, st.integers(-4, 3)),
    st.tuples(st.just("pgm_label"), _TARGETS, st.integers(0, 255), st.integers(0, 255)),
    st.tuples(st.just("entry"), st.sampled_from(["id", "fixed_image", "moving_image",
                                                 "fixed_labels", "moving_labels", "gt_field",
                                                 "extra"]),
              st.one_of(_ODD_JSON, st.sampled_from(["", ".", "..", "a/b", "x" * 300, "a\nb",
                                                    "fixed.raw", "fixed_labels.pgm",
                                                    "missing.raw", "manifest.json"]))),
    st.tuples(st.just("manifest"), _ODD_JSON))
_MUTATIONS = st.one_of(
    _FILE_MUTATIONS,
    st.tuples(st.just("config"), st.sampled_from([*DEFAULTS, "extra"]), _ODD_JSON),
    st.tuples(st.just("config_file"), _ODD_JSON),
    st.tuples(st.just("flag"), st.sampled_from(["--delta", "--alpha", "--beta", "--epsilon",
                                                "--spacing", "--levels"]), _ODD_FLAG),
    st.tuples(st.just("flag"), st.just("--max-iters"),
              st.sampled_from(["-1", "0", "1", "3", "1.5", "x", "", "nan"])))
# eval reads the field too, which register writes and never reads
_EVAL_MUTATIONS = st.one_of(
    _FILE_MUTATIONS,
    st.tuples(st.just("sidecar"), st.just("field"),
              st.sampled_from(["width", "height", "spacing_px", "kind", "extra"]), _ODD_JSON),
    st.tuples(st.just("raw_length"), st.just("field"), st.integers(-8, 8)))


def _mutated_inputs(d, size, seed, mutations):
    """Write a labelled pair of ``size`` px raw images and label PGMs, a one-entry
    manifest, a config file and the entry's field ``p0/field.raw`` into ``d`` with
    ``mutations`` applied; return the extra register flags the mutations give."""
    rng = np.random.default_rng(seed)
    both = ("fixed", "moving")
    raws = {n: rng.random((size, size)).astype("<f4").tobytes() for n in both}
    sidecars = {n: {"width": size, "height": size, "spacing": 1.0} for n in both}
    tokens = {n: [b"P5", b"%d" % size, b"%d" % size, b"255"] for n in both}
    bodies = {n: bytearray(rng.integers(0, 4, size * size).astype(np.uint8).tobytes())
              for n in both}
    raws["field"] = (2.0 * rng.standard_normal((size, size, 2))).astype("<f4").tobytes()
    sidecars["field"] = {"kind": "field", "width": size, "height": size, "spacing_px": 1.0}
    entry = {"id": "p0", "fixed_image": "fixed.raw", "moving_image": "moving.raw",
             "fixed_labels": "fixed_labels.pgm", "moving_labels": "moving_labels.pgm"}
    manifest, config, flags = [entry], {"delta": 1.0}, []
    for kind, *args in mutations:
        names = both if args[0] == "both" else (args[0],)
        for n in names:
            if kind == "sidecar":
                sidecars[n][args[1]] = args[2]
            elif kind == "raw_length":
                raws[n] = raws[n][:len(raws[n]) + args[1]] if args[1] < 0 else \
                    raws[n] + bytes(args[1])
            elif kind == "pgm_token":
                tokens[n][args[1]] = args[2].encode()
            elif kind == "pgm_length":
                bodies[n] = bodies[n][:len(bodies[n]) + args[1]] if args[1] < 0 else \
                    bodies[n] + bytes(args[1])
            elif kind == "pgm_label" and bodies[n]:
                bodies[n][args[1] % len(bodies[n])] = args[2]
        if kind == "entry":
            entry[args[0]] = args[1]
        elif kind == "manifest":
            manifest = args[0]
        elif kind == "config" and isinstance(config, dict):
            config[args[0]] = args[1]
        elif kind == "config_file":
            config = args[0]
        elif kind == "flag":
            flags += [args[0], args[1]]
    for n in both:
        (d / f"{n}.raw").write_bytes(raws[n])
        (d / f"{n}.json").write_text(json.dumps(sidecars[n]))
        (d / f"{n}_labels.pgm").write_bytes(b"\n".join(tokens[n]) + b"\n" + bodies[n])
    (d / "manifest.json").write_text(json.dumps(manifest))
    (d / "config.json").write_text(json.dumps(config))
    (d / "p0").mkdir()
    (d / "p0" / "field.raw").write_bytes(raws["field"])
    (d / "p0" / "field.json").write_text(json.dumps(sidecars["field"]))
    return flags


def _assert_exits_cleanly(root, argv):
    """``cli_main(argv)`` in process: the exit code is 0, 1 or 2; on 1 or 2 stderr is
    one ``error:`` or ``numerical error:`` line; ``root/in`` is unchanged and
    nothing is written beside it but ``root/out``."""
    d, out = root / "in", root / "out"
    before = {p: p.read_bytes() for p in d.rglob("*") if p.is_file()}
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    assert {p: p.read_bytes() for p in d.rglob("*") if p.is_file()} == before
    assert {p for p in root.iterdir()} <= {d, out}
    lines = stderr.getvalue().splitlines()
    assert code in (0, 1, 2), lines
    assert "Traceback" not in stderr.getvalue()
    if code:
        assert len(lines) == 1, lines
        assert lines[0].startswith("numerical error:" if code == 2 else "error:"), lines
    else:
        assert not any(line.startswith(("error:", "numerical error:")) for line in lines)


@settings(max_examples=150, deadline=None)
@given(size=st.sampled_from([8, 12, 16]), seed=st.integers(0, 3),
       iters=st.integers(1, 3), use_manifest=st.booleans(),
       mutations=st.lists(_MUTATIONS, min_size=1, max_size=3))
def test_mutated_inputs_exit_cleanly(size, seed, iters, use_manifest, mutations):
    """``register`` on mutated inputs exits cleanly (:func:`_assert_exits_cleanly`).
    A numpy ``RuntimeWarning`` is an error here, so it fails too."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        d, out = root / "in", root / "out"
        d.mkdir()
        flags = _mutated_inputs(d, size, seed, mutations)
        pair = (["--manifest", str(d / "manifest.json")] if use_manifest else
                ["--fixed", str(d / "fixed.raw"), "--moving", str(d / "moving.raw"),
                 "--fixed-labels", str(d / "fixed_labels.pgm"),
                 "--moving-labels", str(d / "moving_labels.pgm")])
        _assert_exits_cleanly(root, ["register", *pair, "--config", str(d / "config.json"),
                                     "--levels", "1", "--max-iters", str(iters), *flags,
                                     "--out", str(out)])


_DIFF_INPUTS = st.sampled_from(["fixed.raw", "moving.raw", "fixed_labels.pgm",
                                "moving_labels.pgm"])


@settings(max_examples=150, deadline=None)
@given(size=st.sampled_from([8, 12, 16]), seed=st.integers(0, 3),
       command=st.sampled_from(["eval", "eval --manifest", "diff"]),
       a=_DIFF_INPUTS, b=_DIFF_INPUTS, mutations=st.lists(_EVAL_MUTATIONS, min_size=1,
                                                          max_size=3))
def test_mutated_eval_and_diff_inputs_exit_cleanly(size, seed, command, a, b, mutations):
    """As above for ``eval`` (one field and its label maps, or a manifest and a
    fields directory) and for ``diff`` of two of the images and label maps."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        d, out = root / "in", root / "out"
        d.mkdir()
        out.mkdir()
        _mutated_inputs(d, size, seed, mutations)
        labels = ["--fixed-labels", str(d / "fixed_labels.pgm"),
                  "--moving-labels", str(d / "moving_labels.pgm")]
        argv = {"eval": ["eval", "--field", str(d / "p0" / "field.raw"), *labels,
                         "--out", str(out / "e.json")],
                "eval --manifest": ["eval", "--manifest", str(d / "manifest.json"),
                                    "--fields-dir", str(d), "--out", str(out / "s.csv")],
                "diff": ["diff", "--a", str(d / a), "--b", str(d / b),
                         "--out", str(out / "d.pgm")]}[command]
        _assert_exits_cleanly(root, argv)
