"""Result check: a compact digest of a job's outputs and its comparison.

A digest holds, for the job's predictions, the exact predicted class of
every test instance (as a SHA-256 of the id list), the exact bytes of the
final unseen prototypes (as a SHA-256), a summary of each score table
(Frobenius norm plus fixed random bilinear projections ``u^T S v``) and
the scalar results (``cm``, ``irc_gap``, mean per-class accuracy).
Hashes must match exactly; floats must agree to :data:`RTOL`.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

#: Relative tolerance for scores and scalar results.  Reruns are expected
#: to be bit-identical; the tolerance only absorbs printing differences.
RTOL = 1e-9

#: Number of bilinear projections summarising a score table.
PROJECTIONS = 4


def sha256_ids(ids) -> str:
    return hashlib.sha256("\n".join(map(str, ids)).encode("utf-8")).hexdigest()


def sha256_array(a) -> str:
    a = np.ascontiguousarray(a, dtype=np.float64)
    head = f"{a.shape}".encode("ascii")
    return hashlib.sha256(head + a.tobytes()).hexdigest()


def score_summary(scores) -> dict:
    """Frobenius norm and ``PROJECTIONS`` values ``u_i^T S v_i`` (unit u, v)."""
    S = np.asarray(scores, dtype=np.float64)
    rng = np.random.default_rng(20170314)
    u = rng.standard_normal((PROJECTIONS, S.shape[0]))
    v = rng.standard_normal((PROJECTIONS, S.shape[1]))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return {"norm": float(np.linalg.norm(S)),
            "proj": [float(x) for x in np.einsum("ij,jk,ik->i", u, S, v)]}


def argmax_problems(name, predicted, candidates, scores) -> list[str]:
    """Each prediction must be its column's top score, ties to the lower index."""
    S = np.asarray(scores, dtype=np.float64)
    winners = np.argmax(S, axis=0)
    wrong = sum(1 for i, w in enumerate(winners) if candidates[w] != predicted[i])
    return [f"{name}: {wrong} prediction(s) are not the top score"] if wrong else []


def digest(predictions: dict, prototypes, values: dict) -> tuple[dict, list[str]]:
    """Digest of one job's outputs plus the invariant violations found in them.

    ``predictions`` maps a name to ``(predicted_ids, candidate_ids, scores)``
    with scores shaped candidates x instances.
    """
    problems = []
    out = {"predicted": {}, "scores": {}, "prototypes": sha256_array(prototypes),
           "values": {k: float(v) for k, v in values.items()}}
    for name, (predicted, candidates, scores) in predictions.items():
        out["predicted"][name] = sha256_ids(predicted)
        out["scores"][name] = score_summary(scores)
        problems += argmax_problems(name, predicted, candidates, scores)
    return out, problems


def compare(got: dict, want: dict) -> list[str]:
    """Differences between two digests; empty when they agree."""
    problems = []
    for name in sorted(set(got["predicted"]) | set(want["predicted"])):
        if got["predicted"].get(name) != want["predicted"].get(name):
            problems.append(f"predicted classes of {name!r} differ")
    if got["prototypes"] != want["prototypes"]:
        problems.append("final unseen prototype bytes differ")
    for name in sorted(set(got["scores"]) | set(want["scores"])):
        a, b = got["scores"].get(name), want["scores"].get(name)
        if a is None or b is None:
            problems.append(f"score table {name!r} missing")
            continue
        scale = max(a["norm"], b["norm"])
        close = [math.isclose(x, y, rel_tol=RTOL, abs_tol=RTOL * scale)
                 for x, y in zip([a["norm"]] + a["proj"], [b["norm"]] + b["proj"])]
        if len(a["proj"]) != len(b["proj"]) or not all(close):
            problems.append(f"score table {name!r} differs")
    for key in sorted(set(got["values"]) | set(want["values"])):
        a, b = got["values"].get(key), want["values"].get(key)
        if a is None or b is None or not math.isclose(a, b, rel_tol=RTOL, abs_tol=RTOL):
            problems.append(f"{key}: {a!r} != {b!r}")
    return problems
