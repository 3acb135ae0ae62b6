"""Acceptance gate: one test per exit criterion, at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` (or `starlab verify`) to see
one pass/fail line per criterion.
"""

import pytest

from starlab import acceptance
from starlab.acceptance import CRITERIA

_ids = [f"c{cid:02d}-{name.replace(' ', '-')}" for cid, name, _ in CRITERIA]


@pytest.mark.parametrize(("cid", "name", "fn"), CRITERIA, ids=_ids)
def test_criterion(cid, name, fn):
    details = fn()
    print(f"PASS criterion {cid:2d} ({name}): "
          + ", ".join(f"{k}={v}" for k, v in details.items()))


def test_verify_solves_each_star_once(monkeypatch):
    # c01 and c07 read the delta = 0 star, c02 and c10 the thermo star
    solves = []
    for name in ("solve_isentropic_profile", "solve_thermo_profile"):
        def counted(*args, _solve=getattr(acceptance, name), **kwargs):
            solves.append(args)
            return _solve(*args, **kwargs)
        monkeypatch.setattr(acceptance, name, counted)
    monkeypatch.setattr(acceptance, "_cache", {})
    results = acceptance.run_all(ids={1, 2, 7, 10, 12})
    assert [r.cid for r in results if r.passed] == [1, 2, 7, 10, 12]
    assert solves.count((1.0, 0.25)) == 1
    assert solves.count((0.0,)) == 1
