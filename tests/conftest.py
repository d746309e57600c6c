"""Suite-wide pytest options (test tooling; the product has no such flag)
and the committed figures, made once per session."""

import argparse
import contextlib
import importlib
import io

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--kill-points-wide", action="store_true", default=False,
        help="tests/harness/test_kill_points.py: enumerate all three Fenix "
             "strategies x 0/1/2 spares x every instant and draw 300 "
             "two-kill examples (CI's kill-points job; minutes, not "
             "seconds), leaving each failing point's JSONL trace under "
             "kill-points-failures/",
    )


class Figures:
    """The default-scale tables under ``root/results`` and the run cache
    there, which serves :meth:`evidence` warm."""

    def __init__(self, root):
        self.results = root / "results"
        self._evidence = {}

    def evidence(self, target):
        """The cells ``target``'s claims were checked on (doctor a copy)."""
        if target not in self._evidence:
            from repro.experiments import SCALES
            from repro.parallel import DEFAULT_TRACE_MAX_RECORDS, RunCache

            args = argparse.Namespace(
                scale=SCALES["default"], jobs=1, progress=None,
                cache=RunCache(self.results / "cache"),
                max_records=DEFAULT_TRACE_MAX_RECORDS, rules=None)
            main = importlib.import_module("repro.experiments.__main__")
            self._evidence[target] = main.TARGETS[target](args)[1]
        return self._evidence[target]


@pytest.fixture(scope="session")
def figures(tmp_path_factory):
    """``python -m repro experiments all --jobs 2`` at the committed
    scale, in a tmp working directory with a tmp run cache; it exits 0
    only when every claim holds on the cells it tabulated.

    ``partial``'s convergence runs report per-rank iteration counts, which
    the run cache does not keep, so the session serves that one target
    from memory after its first run, as the cache serves the others."""
    from repro import cli

    main = importlib.import_module("repro.experiments.__main__")
    once = {}

    def partial_once(args, run=main.TARGETS["partial"]):
        if not once:
            once["out"] = run(args)
        return once["out"]

    root = tmp_path_factory.mktemp("figures")
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(main.TARGETS, "partial", partial_once)
        with pytest.MonkeyPatch.context() as cwd:
            cwd.chdir(root)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["experiments", "all", "--jobs", "2"]) == 0
        yield Figures(root)
