"""Caffe-style image preprocessing.

The paper's NCSw framework decodes images with OpenCV, resizes them to
the network's input geometry (224 x 224 for GoogLeNet), subtracts the
ILSVRC 2012 training-set channel means, and — for the VPU path —
converts the pixels to FP16 with OpenEXR's ``half`` (paper §III).
:class:`Preprocessor` reproduces that pipeline on uint8 HWC inputs up
to the FP16 step, which the VPU's precision policy applies.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError

#: BGR channel means of the ILSVRC 2012 training set, as shipped with
#: Caffe's GoogLeNet (values in 8-bit counts). The synthetic dataset is
#: constructed with matching first moments, so the same constants apply.
ILSVRC2012_MEAN_BGR = (104.0, 117.0, 123.0)


def resize_bilinear(img: np.ndarray, out_size: int) -> np.ndarray:
    """Bilinear resize of an HWC uint8/float image to a square size."""
    if img.ndim != 3:
        raise DatasetError(f"expected HWC image, got ndim={img.ndim}")
    h, w, _ = img.shape
    if h == out_size and w == out_size:
        return img.copy()
    src = img.astype(np.float32)
    ys = np.linspace(0, h - 1, out_size)
    xs = np.linspace(0, w - 1, out_size)
    y0 = np.clip(np.floor(ys).astype(int), 0, max(h - 2, 0))
    x0 = np.clip(np.floor(xs).astype(int), 0, max(w - 2, 0))
    wy = (ys - y0).reshape(-1, 1, 1)
    wx = (xs - x0).reshape(1, -1, 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    top = src[y0][:, x0] * (1 - wx) + src[y0][:, x1] * wx
    bot = src[y1][:, x0] * (1 - wx) + src[y1][:, x1] * wx
    out = top * (1 - wy) + bot * wy
    if img.dtype == np.uint8:
        return np.clip(out, 0, 255).astype(np.uint8)
    return out.astype(img.dtype)


class Preprocessor:
    """Decode-side preprocessing: resize, BGR mean-subtract, scale.

    Parameters
    ----------
    input_size:
        Network input geometry (paper: 224).
    mean_bgr:
        Per-channel means to subtract (Caffe operates in BGR order).
    scale:
        Multiplier applied after mean subtraction.  1/128 keeps the
        tensor roughly in [-1, 1], comfortably inside FP16 range.
    """

    def __init__(self, input_size: int,
                 mean_bgr: tuple[float, float, float] = ILSVRC2012_MEAN_BGR,
                 scale: float = 1.0 / 128.0) -> None:
        if input_size < 1:
            raise DatasetError("input_size must be >= 1")
        self.input_size = input_size
        self.mean_bgr = tuple(float(m) for m in mean_bgr)
        self.scale = float(scale)

    def __call__(self, img_u8: np.ndarray) -> np.ndarray:
        """uint8 HWC RGB -> float32 CHW, mean-subtracted and scaled."""
        if img_u8.ndim != 3 or img_u8.shape[2] != 3:
            raise DatasetError(
                f"expected HxWx3 image, got shape {img_u8.shape}")
        img = resize_bilinear(img_u8, self.input_size).astype(np.float32)
        # OpenCV decodes to BGR; emulate by flipping RGB -> BGR before
        # subtracting the BGR means, exactly as Caffe transformers do.
        bgr = img[:, :, ::-1]
        bgr = bgr - np.asarray(self.mean_bgr, dtype=np.float32)
        chw = np.ascontiguousarray(bgr.transpose(2, 0, 1)) * self.scale
        return chw.astype(np.float32)

    def batch(self, imgs: list[np.ndarray]) -> np.ndarray:
        """Preprocess a list of images into one NCHW batch."""
        if not imgs:
            raise DatasetError("empty batch")
        return np.stack([self(im) for im in imgs])
