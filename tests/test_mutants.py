"""Self-test of the mutation census script ``tests/mutants.py``: one mutant that the tests kill and
one that they let survive, each run once against a small subset, in a copy that leaves ``src/`` as it is."""

import hashlib

import mutants

SUBSET = ["-p", "no:hypothesispytest", "tests/test_evolution.py::TestMeasureProbe"]  # no hypothesis test: skip its start-up


def _site(code: str, mutation: str) -> mutants.Site:
    (site,) = [s for s in mutants.sites() if s.file.endswith("evolution.py") and (s.code, s.mutation) == (code, mutation)]
    return site


def _package_digest() -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (mutants.ROOT / mutants.PACKAGE).glob("*.py")}


def test_known_killed_and_known_surviving_mutants():
    # the conditional tangle 4 |det|^2 with a minus in |det|^2 is off the projector oracle; the
    # degenerate-outcome test made strict changes only probabilities equal to the threshold, which
    # no test draws (its edge test sits at +-5e-4 of it)
    killed = _site("det.real**2 + det.imag**2", "+ -> -")
    equivalent = _site("probs >= DEGENERATE_OUTCOME_PROB", ">= -> >")
    before = _package_digest()
    with mutants.Workspace() as work:
        assert work.root != mutants.ROOT
        assert [work.run(SUBSET, site) for site in (killed, equivalent)] == ["killed", "survived"]
    assert _package_digest() == before
