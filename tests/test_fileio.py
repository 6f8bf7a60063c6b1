import json
import re

import numpy as np
import pytest

from dydila.config import RunConfig, init_params
from dydila.attention import multihead_forward
from dydila.fileio import (
    assemble_stack,
    fmt_float,
    load_tokens_csv,
    load_weights_blob,
    read_csv,
    read_pgm,
    save_weights_blob,
    stack_entries,
    stack_from_weights,
    write_csv,
    write_pgm,
    write_tokens_csv,
)
from dydila.numerics import ConfigError, ContractViolation

from conftest import mat


def _tiny_cfg(**over):
    base = {
        "preset": "custom", "dim": 6, "heads": 1, "blocks": 2,
        "n_projectors": 2, "n_kernel_factors": 2, "n_lambda_factors": 2,
        "grid": {"h": 2, "w": 3}, "seed": 11,
    }
    base.update(over)
    return RunConfig.from_dict(base)


class TestCsv:
    def test_float_format_roundtrips_exactly(self):
        for x in (0.1, 1.0 / 3.0, -2.5e-17, 1e300):
            assert float(fmt_float(x)) == x

    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 0.5], [2, -0.25]])
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [["1", "0.5"], ["2", "-0.25"]]

    def test_lines_are_lf_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[1.5]])
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_tokens_roundtrip_bitwise(self, tmp_path):
        tokens = mat(3, 8, 5)
        path = tmp_path / "tokens.csv"
        write_tokens_csv(path, tokens)
        back = load_tokens_csv(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, tokens)

    def test_tokens_precision_cast(self, tmp_path):
        tokens = mat(4, 4, 3)
        path = tmp_path / "tokens.csv"
        write_tokens_csv(path, tokens)
        assert load_tokens_csv(path, precision="f32").dtype == np.float32

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c0,c1\n1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(ContractViolation, match="row 1"):
            load_tokens_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("c0\nnot-a-number\n", encoding="utf-8")
        with pytest.raises(ContractViolation, match="row 0"):
            load_tokens_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ContractViolation, match="empty"):
            read_csv(path)

    def test_non_utf8_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("c0\n0.5\n\u00e9\n".encode("latin-1"))
        with pytest.raises(ContractViolation, match=re.escape(str(path))):
            read_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "no_rows.csv"
        path.write_text("c0,c1\n", encoding="utf-8")
        with pytest.raises(ContractViolation, match="no token rows"):
            load_tokens_csv(path)

    def test_non_finite_tokens_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("c0\ninf\n", encoding="utf-8")
        with pytest.raises(ContractViolation):
            load_tokens_csv(path)


class TestPgm:
    def test_header_and_pixel_count(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, mat(5, 6, 4))
        w, h, pixels = read_pgm(path)
        assert (w, h) == (4, 6)
        assert len(pixels) == 24

    def test_min_max_normalization_endpoints(self, tmp_path):
        path = tmp_path / "ramp.pgm"
        write_pgm(path, np.array([[0.0, 0.5], [1.0, 0.25]]))
        _, _, pixels = read_pgm(path)
        vals = list(pixels)
        assert min(vals) == 0 and max(vals) == 255
        assert vals == [0, 128, 255, 64]

    def test_constant_image_is_midgray(self, tmp_path):
        path = tmp_path / "flat.pgm"
        write_pgm(path, np.full((3, 3), 7.0))
        _, _, pixels = read_pgm(path)
        assert set(pixels) == {128}

    def test_identical_runs_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        img = mat(6, 8, 8)
        write_pgm(a, img)
        write_pgm(b, img.copy())
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(ContractViolation, match="2-D"):
            write_pgm(tmp_path / "x.pgm", np.zeros(5))

    def test_rejects_non_finite(self, tmp_path):
        img = np.zeros((2, 2))
        img[0, 0] = np.nan
        with pytest.raises(ContractViolation):
            write_pgm(tmp_path / "x.pgm", img)

    def test_read_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n1234")
        with pytest.raises(ContractViolation, match="P5"):
            read_pgm(path)

    @pytest.mark.parametrize("size", [b"2", b"2 x", b"2 2 2", b"-2 -2"])
    def test_read_rejects_a_malformed_size_line(self, tmp_path, size):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n" + size + b"\n255\n1234")
        with pytest.raises(ContractViolation, match="size line"):
            read_pgm(path)


class TestWeightsBlob:
    def test_manifest_and_bytes(self, tmp_path):
        stack = init_params(_tiny_cfg())
        manifest_path = save_weights_blob(stack, tmp_path / "w")
        manifest = json.loads((tmp_path / "w.json").read_text(encoding="utf-8"))
        assert manifest["blob"] == "w.bin"
        names = [e["name"] for e in manifest["entries"]]
        assert names == sorted(names)
        assert "block0/proj/w_q0" in names
        assert "block1/dwc/kernels" in names
        entry = next(e for e in manifest["entries"] if e["name"] == "block0/proj/w_q0")
        assert entry["shape"] == [6, 6] and entry["dtype"] == "f64"
        # raw bytes at the recorded offset are the little-endian array bytes
        blob = (tmp_path / "w.bin").read_bytes()
        arr = stack.blocks[0].proj.w_q0
        start = entry["byte_offset"]
        assert blob[start : start + arr.nbytes] == arr.astype("<f8").tobytes()
        assert manifest_path.endswith("w.json")

    def test_roundtrip_bitwise(self, tmp_path):
        stack = init_params(_tiny_cfg())
        save_weights_blob(stack, tmp_path / "w")
        weights = load_weights_blob(tmp_path / "w.json")
        for name, arr in stack_entries(stack):
            assert weights[name].tobytes() == np.asarray(arr).tobytes(), name

    def test_f32_entries_use_four_bytes(self, tmp_path):
        stack = init_params(_tiny_cfg(precision="f32"))
        save_weights_blob(stack, tmp_path / "w")
        manifest = json.loads((tmp_path / "w.json").read_text(encoding="utf-8"))
        entry = next(e for e in manifest["entries"] if e["name"] == "block0/proj/w_k0")
        assert entry["dtype"] == "f32"
        weights = load_weights_blob(tmp_path / "w.json")
        assert weights["block0/proj/w_k0"].dtype == np.float32

    @pytest.mark.parametrize("fault", ["past_the_end", "negative_offset", "truncated_blob",
                                       "unknown_dtype", "no_name", "no_byte_offset",
                                       "float_offset", "bool_offset", "negative_shape",
                                       "non_list_shape", "not_an_object", "no_blob"])
    def test_corrupt_manifest_names_the_entry(self, tmp_path, fault):
        save_weights_blob(init_params(_tiny_cfg()), tmp_path / "w")
        manifest_path, blob_path = tmp_path / "w.json", tmp_path / "w.bin"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        index = len(manifest["entries"]) - 1
        entry = manifest["entries"][index]  # the last entry ends at the blob's end
        named = repr(entry["name"])
        if fault == "past_the_end":
            entry["byte_offset"] += 8
        elif fault == "negative_offset":
            entry["byte_offset"] = -8
        elif fault == "truncated_blob":
            blob_path.write_bytes(blob_path.read_bytes()[:-1])
        elif fault == "unknown_dtype":
            entry["dtype"] = "f16"
        elif fault == "no_name":
            del entry["name"]
            named = f"{manifest_path} entry {index}"
        elif fault == "no_byte_offset":
            del entry["byte_offset"]
        elif fault == "float_offset":
            entry["byte_offset"] = 1.5
        elif fault == "bool_offset":  # would load from byte 1
            entry["byte_offset"] = True
        elif fault == "negative_shape":  # would read the blob's tail
            entry["shape"] = [-1, 6]
        elif fault == "non_list_shape":
            entry["shape"] = 6
        elif fault == "not_an_object":
            manifest, named = manifest["entries"], str(manifest_path)
        else:
            del manifest["blob"]
            named = str(manifest_path)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ContractViolation, match=re.escape(named)):
            load_weights_blob(manifest_path)

    @pytest.mark.parametrize("text", [b'{"blob": "caf\xe9.bin"}', b'{"blob": '],
                             ids=["not_utf8", "not_json"])
    def test_unreadable_manifest_names_it(self, tmp_path, text):
        manifest_path = tmp_path / "w.json"
        manifest_path.write_bytes(text)
        with pytest.raises(ContractViolation, match=re.escape(str(manifest_path))):
            load_weights_blob(manifest_path)


class TestStackRebuild:
    def test_rebuilt_stack_runs_bit_identical(self, tmp_path):
        cfg = _tiny_cfg()
        stack = init_params(cfg)
        save_weights_blob(stack, tmp_path / "w")
        rebuilt = stack_from_weights(cfg, load_weights_blob(tmp_path / "w.json"))
        x = mat(7, 6, 6)
        out_a, _ = multihead_forward(x, stack.blocks[0])
        out_b, _ = multihead_forward(x, rebuilt.blocks[0])
        assert out_a.tobytes() == out_b.tobytes()

    def test_missing_entry_rejected(self, tmp_path):
        cfg = _tiny_cfg()
        save_weights_blob(init_params(cfg), tmp_path / "w")
        weights = load_weights_blob(tmp_path / "w.json")
        del weights["block1/proj/w_v0"]
        with pytest.raises(ConfigError, match="missing entry"):
            stack_from_weights(cfg, weights)

    def test_two_dim_gammas_rejected(self):
        cfg = _tiny_cfg()
        weights = dict(stack_entries(init_params(cfg)))
        weights["block0/head0/kernel_k/gammas"] = weights["block0/head0/kernel_k/gammas"][None]
        with pytest.raises(ConfigError, match="block0/head0/kernel_k/gammas"):
            stack_from_weights(cfg, weights)

    def test_other_precision_rejected(self):
        cfg = _tiny_cfg()
        weights = dict(stack_entries(init_params(cfg)))
        weights["block1/proj/w_q0"] = weights["block1/proj/w_q0"].astype(np.float32)
        with pytest.raises(ConfigError, match="block1/proj/w_q0"):
            stack_from_weights(cfg, weights)

    @pytest.mark.parametrize("dwc", [True, False], ids=["dwc", "no_dwc"])
    def test_one_weight_schema(self, dwc):
        cfg = _tiny_cfg(heads=2, dim=8, dwc={"enabled": dwc})
        entries = list(stack_entries(init_params(cfg)))
        asked = []

        def weight(block, name, shape):
            asked.append(name)
            return np.ones(shape)

        assemble_stack(cfg, weight)
        assert asked == [name for name, _ in entries]
        rebuilt = stack_from_weights(cfg, dict(entries))
        for (name, want), (name_b, got) in zip(entries, stack_entries(rebuilt), strict=True):
            assert name_b == name
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    def test_entry_count_matches_structure(self):
        cfg = _tiny_cfg(heads=2, dim=8)
        names = [name for name, _ in stack_entries(init_params(cfg))]
        assert len(names) == len(set(names))
        # per block: 3 shared + 2*2 routed + 2 routers + 2 heads * (4*2 kernel
        # + 4 diff) + 1 dwc = 34
        assert len(names) == cfg.blocks * 34
