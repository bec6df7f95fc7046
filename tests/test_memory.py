"""Peak memory of the steps that hold full-size arrays, measured in process
with ``tracemalloc`` (NumPy reports its array buffers to it).

Each bound sits above the measured peak of the in-place code and below the
peak of the code that built full-size temporaries: the second mapping
path's maps and predictions held across a round, the Box-Muller transform
in new arrays, a text matrix held as a list of lines or as one string, and
containers that copy the fresh arrays they are given.
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


def test_load_matrix_holds_the_output_and_a_few_lines(tmp_path):
    # The text is parsed as it is read, one line at a time: beside the
    # output, the peak holds one line's tokens and the reader's buffer, far
    # below the file's size (the whole text would be 2.45 outputs).
    path = tmp_path / "m.dmx"
    matrix = np.random.default_rng(0).normal(size=(200, 300))
    dio.save_matrix(matrix, path)
    dio.load_matrix(path)
    loaded, peak = peak_bytes(dio.load_matrix, path)
    assert loaded.tobytes() == matrix.tobytes()
    assert peak <= loaded.nbytes + path.stat().st_size / 16


@pytest.mark.parametrize("suffix", [".dmx", ".npy"])
def test_load_dataset_holds_each_matrix_once(tmp_path, suffix):
    # The containers adopt the arrays the loaders read.  Beside the three
    # matrices the peak holds the finiteness checks' bool masks (an eighth
    # of a matrix) and the id tuples; one more copy of the training
    # features would add three quarters of the total.
    world = generate(SynthConfig(d=D, p=P, k=K, l=3, n_per_class=NPC,
                                 noise_sigma=0.05, seed=1))
    dio.save_dataset(world, tmp_path)
    if suffix == ".npy":
        for stem in ("train_features", "test_features", "embeddings"):
            dio.save_matrix(dio.load_matrix(tmp_path / f"{stem}.dmx"), tmp_path / f"{stem}.npy")
            (tmp_path / f"{stem}.dmx").unlink()
    dio.load_dataset(tmp_path)
    (train, test, _, embeddings), peak = peak_bytes(dio.load_dataset, tmp_path)
    assert train.features.data.tobytes() == world.train.features.data.tobytes()
    total = train.features.data.nbytes + test.data.nbytes + embeddings.data.nbytes
    assert peak <= 1.15 * total


def test_generate_hands_its_arrays_to_the_containers():
    # The awa-api bench world.  generate peaks while the Box-Muller
    # transform builds the training features, at one and a half of them;
    # the containers adopt what generate built, so no copy of a feature
    # matrix rises above that (a copy of the training features: +9.8 MB).
    config = SynthConfig(d=768, p=85, k=40, l=10, n_per_class=40,
                         noise_sigma=0.05, irc_distortion=0.2, seed=1)
    generate(config)
    world, peak = peak_bytes(generate, config)
    assert not world.train.features.data.flags.owndata  # a view of generate's buffer
    assert peak <= 1.5 * world.train.features.data.nbytes + world.test_features.data.nbytes
