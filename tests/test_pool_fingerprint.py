"""The benchmark-pool fingerprint tool (``tests/pool_fingerprint.py``) runs
and gives the same hash twice; it only reads ``bench/refs``."""

import re

import pool_fingerprint


def test_eval_pool_fingerprint_is_repeatable():
    first, second = (pool_fingerprint.fingerprint("eval") for _ in range(2))
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert first == second
