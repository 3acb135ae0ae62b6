"""Acceptance gate: one test per exit criterion, at its stated tolerance and budget.

Run with `pytest -s tests/test_acceptance.py` (or `starlab verify`) to see
one pass/fail line per criterion.
"""

import pytest

from starlab import acceptance
from starlab.acceptance import CRITERIA

_ids = [f"c{cid:02d}-{name.replace(' ', '-')}" for cid, name, _ in CRITERIA]


@pytest.mark.parametrize(("cid", "name"), [(cid, name) for cid, name, _ in CRITERIA], ids=_ids)
def test_criterion(cid, name):
    # through run_all, which fails a criterion past its runtime budget
    [res] = acceptance.run_all(ids={cid})
    assert res.passed, res.error
    assert res.details["runtime_limit_s"] == acceptance._BUDGET_S[cid]
    print(f"PASS criterion {cid:2d} ({name}): "
          + ", ".join(f"{k}={v}" for k, v in res.details.items()))


def test_every_criterion_has_one_budget():
    assert all(len(entry) == 3 for entry in CRITERIA)
    assert sorted(acceptance._BUDGET_S) == sorted(cid for cid, _, _ in CRITERIA)


def test_criterion_past_its_budget_fails(monkeypatch):
    monkeypatch.setitem(acceptance._BUDGET_S, 3, 0.0)
    [res] = acceptance.run_all(ids={3})
    assert not res.passed and res.details == {}
    assert res.error.startswith("runtime ") and res.error.endswith(" exceeded 0.0s")


def test_verify_solves_each_star_once(monkeypatch):
    # c01, c07 and c12 read the delta = 0 star, c02, c10 and c12 the thermo star
    solves = []
    for name in ("solve_isentropic_profile", "solve_thermo_profile"):
        def counted(*args, _solve=getattr(acceptance, name), _name=name, **kwargs):
            solves.append((_name, args))
            return _solve(*args, **kwargs)
        monkeypatch.setattr(acceptance, name, counted)
    monkeypatch.setattr(acceptance, "_cache", {})
    results = acceptance.run_all(ids={1, 2, 7, 10, 12})
    assert [r.cid for r in results if r.passed] == [1, 2, 7, 10, 12]
    assert solves.count(("solve_thermo_profile", (1.0, 0.25))) == 1
    # every delta = 0 solve, whatever its grid spec
    assert sum(name == "solve_isentropic_profile" and args[0] == 0.0
               for name, args in solves) == 1
