"""Reference implementations shared by the test modules."""

import numpy as np


def prediction_to_dict(prediction, mode):
    """The JSON object whose ``json.dumps(..., sort_keys=True, indent=2)``
    bytes ``dmap.io.save_prediction`` writes."""
    return {
        "mode": mode,
        "instance_ids": list(prediction.instance_ids),
        "predicted": list(prediction.predicted_class),
        "candidates": list(prediction.candidate_ids),
        "scores": np.asarray(prediction.score_matrix, dtype=np.float64).tolist(),
    }
