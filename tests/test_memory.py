"""Peak memory of the steps that hold full-size arrays, measured in process
with ``tracemalloc`` (NumPy reports its array buffers to it).

Each bound sits above the measured peak of the in-place code and below the
peak of the code that built full-size temporaries: the second mapping
path's maps and predictions held across a round, the Box-Muller transform
in new arrays, and a text matrix held as a list of lines.
"""

import tracemalloc

import numpy as np
import pytest

from dmap import io as dio
from dmap.model import DmapConfig, train
from dmap.synth import PortableRng, SynthConfig, generate


def peak_bytes(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(autouse=True)
def not_traced_already():
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing this process")


# d > k, so each second-path map is d x d and its predictions d x n;
# d < n, so the feature side solves the d x d Gram.
D, P, K, NPC = 300, 20, 10, 60
N = K * NPC


def train_peak():
    """Peak of ``train`` with two refinement rounds on a world of that shape."""
    world = generate(SynthConfig(d=D, p=P, k=K, l=3, n_per_class=NPC,
                                 noise_sigma=0.05, irc_distortion=0.2, seed=1))
    config = DmapConfig(m=10, gamma=1.0, eta=1.0, train_max_iter=2)
    train(world.train, config)  # first calls allocate caches of their own
    model, peak = peak_bytes(train, world.train, config)
    assert model.train_iterations_run == 2
    return peak


def test_train_holds_one_prediction_array_and_two_maps():
    # Slack: the arrays that scale with p or k, not with d x n or d x d (the
    # first path's map and predictions, the feature side, labels, keys).
    slack = 8 * (D * P + P * N + 4 * K * N + 4 * D * K)
    assert train_peak() <= 8 * (D * N + 2 * D * D) + slack


def test_a_training_round_drops_its_map_before_its_predictions_form():
    # k (d + n) < d n, so training predicts from the k-dimensional
    # coordinates of span(T): a round's d x d map is gone before its d x n
    # predictions are allocated, with room left for the small arrays.
    assert train_peak() <= 8 * (D * N + D * D)


def test_normal_holds_one_and_a_half_outputs():
    rng = PortableRng(3)
    rng.normal(11)
    z, peak = peak_bytes(rng.normal, 200_001)
    assert peak <= 1.5 * z.nbytes + 4096


def test_load_matrix_holds_the_text_once(tmp_path):
    # Reading decodes the file's bytes into one string, about twice its
    # size at the peak; the rows are parsed from that string one at a time.
    path = tmp_path / "m.dmx"
    matrix = np.random.default_rng(0).normal(size=(200, 300))
    dio.save_matrix(matrix, path)
    dio.load_matrix(path)
    loaded, peak = peak_bytes(dio.load_matrix, path)
    assert loaded.tobytes() == matrix.tobytes()
    assert peak <= 2.25 * path.stat().st_size
