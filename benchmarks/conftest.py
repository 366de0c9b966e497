"""Shared benchmark configuration.

Every benchmark regenerates one paper artefact and prints the same
rows/series the paper reports (paper-reference values included), so a
``pytest benchmarks/ --benchmark-only`` run doubles as the full
reproduction report.

Scale knobs (environment variables):

* ``REPRO_BENCH_SCALE`` — functional-experiment scale for the Fig. 7
  benches: ``smoke`` (default, seconds) or ``default`` (a minute or
  two) or ``paper`` (hours; the honest full geometry).
* ``REPRO_BENCH_IMAGES`` — timing-only images per measurement
  (default 160; must be a positive integer).

Campaign fan-out: the figure drivers and the ``chaos-run`` /
``serve-sweep`` CLI commands accept ``--jobs N`` (or the ``jobs=``
keyword) to spread independent runs across processes.  Results are
guaranteed identical to the serial run — the flag only buys wall
clock — so the same knob is safe under a benchmark run; it is kept
off here by default so each benchmark times one process.
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-scale",
        default=os.environ.get("REPRO_BENCH_SCALE", "smoke"),
        help="functional experiment scale: smoke | default | paper")


@pytest.fixture(scope="session")
def repro_scale(request):
    return request.config.getoption("--repro-scale")


@pytest.fixture(scope="session")
def timing_images():
    raw = os.environ.get("REPRO_BENCH_IMAGES", "160")
    try:
        images = int(raw)
    except ValueError:
        raise pytest.UsageError(
            f"REPRO_BENCH_IMAGES={raw!r} is not an integer")
    if images <= 0:
        raise pytest.UsageError(
            f"REPRO_BENCH_IMAGES must be a positive image count, "
            f"got {images}")
    return images


def emit(text: str) -> None:
    """Print a reproduction table under the benchmark output."""
    print()
    print(text)
