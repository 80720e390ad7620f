"""File format round trips and malformed-input behaviour.

The text format is checked at the byte level: writing what was read must
reproduce the file exactly. Images must recover their values bit for bit
at the stored 8-bit precision once quantized.
"""

import numpy as np
import pytest

from pixpoint.errors import ParseError
from pixpoint.fileio import read_correspondences, read_image, write_correspondences, write_image
from pixpoint.geometry import Image
from pixpoint.synthdata import SceneConfig, generate_scene


class TestImageFormat:
    def test_quantized_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        img = Image(rng.uniform(0, 1, size=(7, 9, 3)))
        p1, p2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
        write_image(p1, img)
        back = read_image(p1)
        assert back.width == 9 and back.height == 7
        # write-read is lossy (8-bit) but within half a step, then stable
        assert np.abs(back.pixels - img.pixels).max() <= 0.5 / 255 + 1e-12
        write_image(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(read_image(p2).pixels, back.pixels)

    def test_half_up_quantization(self, tmp_path):
        img = Image(np.full((1, 1, 3), 127.5 / 255.0))
        path = tmp_path / "q.ppm"
        write_image(path, img)
        assert path.read_bytes().endswith(bytes([128, 128, 128]))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.ppm"
        write_image(path, Image(np.zeros((4, 4, 3))))
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ParseError):
            read_image(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "w.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(12))
        with pytest.raises(ParseError):
            read_image(path)


class TestCorrespondenceFormat:
    def test_exact_round_trip(self, tmp_path):
        scene = generate_scene(SceneConfig(n_points=300, n_cameras=1, seed=7))
        cs = scene.cameras[0].correspondences
        p1, p2 = tmp_path / "a.corr", tmp_path / "b.corr"
        write_correspondences(p1, cs)
        back = read_correspondences(p1)
        assert np.array_equal(back.point_index, cs.point_index)
        assert np.array_equal(back.u, cs.u)
        assert np.array_equal(back.depth, cs.depth)
        assert back.camera_id == cs.camera_id
        write_correspondences(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "x.corr"
        path.write_bytes(b"NOPE\n")
        with pytest.raises(ParseError):
            read_correspondences(path)
