"""YCbCr metric tests: color transform, Laplacian, TV, weighted loss."""

import numpy as np
import pytest

from shtc import imagemetric as im
from shtc.errors import DataError, DimMismatch

from .oracles import write_ppm


def solid(r, g, b, h=4, w=5):
    img = np.zeros((h, w, 3))
    img[..., 0], img[..., 1], img[..., 2] = r, g, b
    return img


@pytest.fixture()
def fixture_images():
    rng = np.random.default_rng(42)
    ramp = np.zeros((6, 8, 3))
    ramp[..., 0] = np.linspace(0, 1, 8)
    ramp[..., 1] = np.linspace(1, 0, 8)
    ramp[..., 2] = 0.25
    checker = np.indices((6, 8)).sum(axis=0) % 2
    checkimg = np.stack([checker, 1 - checker, checker * 0.5], axis=-1).astype(float)
    noise = rng.random((6, 8, 3))
    return [ramp, checkimg, noise]


class TestColorTransform:
    def test_white(self):
        out = im.rgb_to_ycbcr(solid(1, 1, 1))
        assert np.allclose(out[..., 0], 1.0)
        assert np.allclose(out[..., 1], 0.5)
        assert np.allclose(out[..., 2], 0.5)

    def test_black(self):
        out = im.rgb_to_ycbcr(solid(0, 0, 0))
        assert np.allclose(out[..., 0], 0.0)
        assert np.allclose(out[..., 1], 0.5)
        assert np.allclose(out[..., 2], 0.5)

    def test_mid_gray_achromatic(self):
        out = im.rgb_to_ycbcr(solid(0.5, 0.5, 0.5))
        assert np.allclose(out, 0.5)

    def test_luma_weights(self):
        out = im.rgb_to_ycbcr(solid(1, 0, 0))
        assert out[0, 0, 0] == pytest.approx(0.299)


class TestLaplacian:
    def test_constant_plane_zero(self):
        assert np.allclose(im.laplacian(np.full((5, 7), 0.3)), 0.0)

    def test_center_impulse(self):
        plane = np.zeros((3, 3))
        plane[1, 1] = 1.0
        out = im.laplacian(plane)
        assert out[1, 1] == pytest.approx(-4.0)
        assert out[0, 1] == out[2, 1] == out[1, 0] == out[1, 2] == pytest.approx(1.0)

    def test_linear_ramp_interior_zero(self):
        plane = np.outer(np.arange(6.0), np.ones(5)) + np.arange(5.0)
        out = im.laplacian(plane)
        assert np.allclose(out[1:-1, 1:-1], 0.0, atol=1e-12)


class TestTv:
    def test_constant_zero(self):
        assert im.tv(np.full((4, 4), 0.7)) == 0.0

    def test_two_pixel_column(self):
        assert im.tv(np.array([[0.0], [1.0]])) == pytest.approx(1.0)

    def test_checkerboard_maximal(self):
        checker = (np.indices((6, 6)).sum(axis=0) % 2).astype(float)
        assert im.tv(checker) == pytest.approx(1.0)
        assert im.tv(checker) > im.tv(np.full((6, 6), 0.5))


class TestLoss:
    def test_identical_constant_images_zero(self):
        img = solid(0.2, 0.6, 0.8)
        assert im.ycbcr_components(img, img)["total"] == pytest.approx(0.0, abs=1e-15)

    def test_identical_images_only_regularizers(self, fixture_images):
        for img in fixture_images:
            comps = im.ycbcr_components(img, img)
            ycc = im.rgb_to_ycbcr(im.as_image(img))
            expected = 0.1 * (im.tv(ycc[..., 1]) + im.tv(ycc[..., 2]))
            assert comps["total"] == pytest.approx(expected, abs=1e-15)
            assert comps["l1_y"] == 0.0 and comps["l1_cb"] == 0.0

    def test_luma_errors_cost_more_than_chroma(self):
        base = im.rgb_to_ycbcr(solid(0.5, 0.5, 0.5))

        def from_ycbcr(y, cb, cr):
            # invert BT.601 full-range
            r = y + (cr - 0.5) / 0.713
            b = y + (cb - 0.5) / 0.564
            g = (y - 0.299 * r - 0.114 * b) / 0.587
            return np.stack([r, g, b], axis=-1)

        ref = from_ycbcr(base[..., 0], base[..., 1], base[..., 2])
        luma_err = from_ycbcr(base[..., 0] + 0.1, base[..., 1], base[..., 2])
        chroma_err = from_ycbcr(base[..., 0], base[..., 1] + 0.1, base[..., 2])
        fidelity = lambda c: c["l1_y"] + 0.6 * c["l1_cb"] + 0.6 * c["l1_cr"]
        cy = im.ycbcr_components(ref, luma_err)
        cc = im.ycbcr_components(ref, chroma_err)
        assert fidelity(cy) > fidelity(cc)

    def test_symmetric_fidelity_terms(self, fixture_images):
        a, b = fixture_images[0], fixture_images[2]
        ca = im.ycbcr_components(a, b)
        cb = im.ycbcr_components(b, a)
        for key in ("l1_y", "l1_cb", "l1_cr", "l1_laplacian_y"):
            assert ca[key] == pytest.approx(cb[key])

    def test_nonnegative(self, fixture_images):
        for img in fixture_images:
            assert im.ycbcr_components(img, fixture_images[1])["total"] >= 0.0

    def test_weights_read_back(self):
        w = im.DEFAULT_WEIGHTS
        assert (w["l1_y"], w["l1_cb"], w["l1_cr"], w["l1_laplacian_y"], w["tv_cb"], w["tv_cr"]) == (1.0, 0.6, 0.6, 0.15, 0.1, 0.1)

    def test_chroma_swap_invariance(self, fixture_images):
        def from_ycbcr(y, cb, cr):
            r = y + (cr - 0.5) / 0.713
            b = y + (cb - 0.5) / 0.564
            g = (y - 0.299 * r - 0.114 * b) / 0.587
            return np.stack([r, g, b], axis=-1)

        rng = np.random.default_rng(7)
        # mid-range luma and small chroma offsets keep all four RGB images
        # inside the gamut, so clamping cannot break the symmetry
        y1, y2 = 0.4 + 0.2 * rng.random((2, 6, 8))
        cb1, cr1 = 0.5 + 0.02 * rng.standard_normal((2, 6, 8))
        cb2, cr2 = 0.5 + 0.02 * rng.standard_normal((2, 6, 8))
        a = from_ycbcr(y1, cb1, cr1)
        b = from_ycbcr(y2, cb2, cr2)
        a_swapped = from_ycbcr(y1, cr1, cb1)
        b_swapped = from_ycbcr(y2, cr2, cb2)
        swapped = im.ycbcr_components(a_swapped, b_swapped)["total"]
        assert im.ycbcr_components(a, b)["total"] == pytest.approx(swapped, abs=1e-9)

    def test_size_mismatch(self):
        with pytest.raises(DimMismatch):
            im.ycbcr_components(solid(0, 0, 0, 4, 4), solid(0, 0, 0, 4, 5))


class TestPpm:
    def test_round_trip(self, tmp_path, fixture_images):
        path = tmp_path / "img.ppm"
        img = fixture_images[2]
        write_ppm(path, img)
        back = im.read_ppm(path)
        assert back.shape == img.shape
        assert np.abs(back - np.clip(img, 0, 1)).max() <= 0.5 / 255.0 + 1e-12

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.ppm"
        pixels = bytes([255, 0, 0, 0, 255, 0])
        path.write_bytes(b"P6 # comment\n# another\n 2 1 \n255\n" + pixels)
        img = im.read_ppm(path)
        assert img.shape == (1, 2, 3)
        assert img[0, 0, 0] == pytest.approx(1.0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 1\n255\n\x00\x00")
        with pytest.raises(DataError):
            im.read_ppm(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(DataError):
            im.read_ppm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "w.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00")
        with pytest.raises(DataError):
            im.read_ppm(path)
