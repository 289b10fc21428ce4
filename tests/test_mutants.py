"""The mutant list in tests/mutants/run.py still fits the code: every snippet occurs exactly once in its file."""

import importlib.util
import pathlib

_RUN = pathlib.Path(__file__).parent / "mutants" / "run.py"


def _runner():
    spec = importlib.util.spec_from_file_location("mutants_run", _RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_snippet_occurs_exactly_once():
    run = _runner()
    assert run.MUTANTS and len({m.name for m in run.MUTANTS}) == len(run.MUTANTS)
    assert run.snippet_counts() == {m.name: 1 for m in run.MUTANTS}
    # a mutant either names the tests that kill it or says why none can
    assert all(bool(m.tests) != bool(m.equivalent) for m in run.MUTANTS)
