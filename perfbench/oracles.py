"""Output checks run after each campaign pass, outside the timed region.

Each frame's LLRs are regenerated from the public `trial_rng`, `transmit`
and `llr`, independently of the copy the decoders saw.  Every decode is
one attempted operation; it fails when the decoder reported
`solver_error` or when any check below does not hold for it.

- A codeword output has a zero syndrome and value `llr @ codeword`.
- When the code is small enough to enumerate, an `ml_certified` output is
  a minimiser found by `ml_bruteforce` (any of them when several codewords
  tie, which BSC LLRs make common) and carries the ML value.
- Two decoders that both certify a frame report the same value.
- An LP relaxation value (`lp`, `adaptive_lp`) never exceeds the ML value,
  taken from brute force or from a certificate on the same frame.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from mpdec.channels import llr, transmit, trial_rng
from mpdec.decoders import DecodeStatus
from mpdec.gf2 import enumerate_codewords, ml_bruteforce

RELAXATIONS = ("lp", "adaptive_lp")
BRUTEFORCE_MAX_K = 16


def frame_llrs(code, channel, seed: int, trial: int) -> np.ndarray:
    zero = np.zeros(code.n, dtype=np.uint8)
    return llr(transmit(zero, channel, trial_rng(seed, 0, trial)), channel)


def check_pass(code, channel, seed: int, decodes) -> tuple[int, int, int, list[str]]:
    """Check one pass of `(trial, decoder, DecodeResult)` records.

    Returns (attempted, failed, solver errors among the failed, messages
    for the first few failures).
    """
    h = code.H.to_array().astype(np.int64)
    codewords = enumerate_codewords(code) if code.k <= BRUTEFORCE_MAX_K else None
    by_trial = defaultdict(dict)
    for trial, name, res in decodes:
        by_trial[trial][name] = res
    failed: set[tuple[int, str]] = set()
    solver_errors = 0
    messages: list[str] = []

    def fail(trial, name, why):
        failed.add((trial, name))
        if len(messages) < 20:
            messages.append(f"trial {trial} {name}: {why}")

    for trial, results in sorted(by_trial.items()):
        lam = frame_llrs(code, channel, seed, trial)
        tol = 1e-6 * (1.0 + float(np.abs(lam).sum()))
        ml_value = None
        if codewords is not None:
            ml_word, ml_value = ml_bruteforce(code, lam)
            values = codewords @ lam
            tied = codewords[values <= ml_value + tol]
        certified = {}
        for name, res in results.items():
            if res.status is DecodeStatus.SOLVER_ERROR:
                fail(trial, name, "solver_error")
                solver_errors += 1
                continue
            if not res.success:
                continue
            word = res.codeword()
            if ((h @ word) % 2).any():
                fail(trial, name, "output is not a codeword")
                continue
            if abs(res.value - float(lam @ word)) > tol:
                fail(trial, name, f"value {res.value} != llr @ codeword {lam @ word}")
            if res.status is DecodeStatus.ML_CERTIFIED:
                certified[name] = res.value
                if ml_value is not None:
                    if not (tied == word).all(axis=1).any():
                        fail(trial, name, f"certified codeword is not ML ({ml_word})")
                    if abs(res.value - ml_value) > tol:
                        fail(trial, name, f"certified value {res.value} != ML {ml_value}")
        if len(certified) > 1 and max(certified.values()) - min(certified.values()) > tol:
            for name in certified:
                fail(trial, name, f"certified values disagree: {certified}")
        if ml_value is None and certified:
            ml_value = min(certified.values())
        for name in RELAXATIONS:
            res = results.get(name)
            if (ml_value is not None and res is not None
                    and math.isfinite(res.value) and res.value > ml_value + tol):
                fail(trial, name, f"relaxation value {res.value} above ML {ml_value}")
    attempted = sum(len(r) for r in by_trial.values())
    return attempted, len(failed), solver_errors, messages
