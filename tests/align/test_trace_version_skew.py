"""Trace files written while head sampling existed read as current ones.

Every meta line such a file holds carries two keys no writer sets any
more, always as ``"sampled_out": 0, "sampled_window": null``.  The same
recording with and without them must give every reader the same answer:
``read_trace``, ``monitor check``, ``live check`` and ``align diff`` --
including a diff of an old file against a new one.
"""

import json
import pathlib

import pytest

from repro.align.__main__ import main as align_main
from repro.live.__main__ import main as live_main
from repro.monitor.__main__ import main as monitor_main
from repro.monitor.trace_io import read_trace, write_trace

RULES = str(pathlib.Path(__file__).resolve().parents[2]
            / "examples" / "slo_rules.json")
LEGACY = {"sampled_out": 0, "sampled_window": None}


def with_legacy_meta(line):
    """A meta line as the sampling-era writer spelt it: the two keys right
    after the ring-buffer accounting, before the schema stamp."""
    obj = json.loads(line)
    if "meta" not in obj:
        return line
    meta = {}
    for key, value in obj["meta"].items():
        meta[key] = value
        if key == "dropped_window":
            meta.update(LEGACY)
    return json.dumps({"meta": meta})


@pytest.fixture(scope="module")
def skew_dirs(tmp_path_factory, base_trace, perturbed_trace):
    """``new/``: ``a`` and ``b`` as written today; ``old/``: the same with
    legacy metas; ``mixed/``: an old ``a`` beside a new ``b``."""
    root = tmp_path_factory.mktemp("skew")
    dirs = {name: root / name for name in ("new", "old", "mixed")}
    for path in dirs.values():
        path.mkdir()
    for name, trace in (("a", base_trace), ("b", perturbed_trace)):
        new = dirs["new"] / f"{name}.jsonl"
        write_trace(str(new), trace)
        old = "\n".join(with_legacy_meta(line)
                        for line in new.read_text().splitlines()) + "\n"
        (dirs["old"] / f"{name}.jsonl").write_text(old)
    (dirs["mixed"] / "a.jsonl").write_text(
        (dirs["old"] / "a.jsonl").read_text())
    (dirs["mixed"] / "b.jsonl").write_text(
        (dirs["new"] / "b.jsonl").read_text())
    return dirs


def run_in(directory, monkeypatch, capsys, main, argv):
    """One command run from ``directory`` (so every path it echoes is the
    same relative name); returns ``(exit code, parsed JSON stdout)``."""
    monkeypatch.chdir(directory)
    capsys.readouterr()
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_the_old_file_really_carries_the_legacy_keys(skew_dirs):
    old = (skew_dirs["old"] / "a.jsonl").read_text().splitlines()[0]
    new = (skew_dirs["new"] / "a.jsonl").read_text().splitlines()[0]
    assert '"sampled_out": 0, "sampled_window": null' in old
    assert "sampled" not in new


def test_read_trace_gives_the_same_records_and_accounting(skew_dirs):
    for name in ("a.jsonl", "b.jsonl"):
        records_old, meta_old = read_trace(str(skew_dirs["old"] / name))
        records_new, meta_new = read_trace(str(skew_dirs["new"] / name))
        assert [r.to_dict() for r in records_old] \
            == [r.to_dict() for r in records_new]
        # the header is handed back as read: the legacy keys pass through
        # untouched, and nothing else differs
        assert {k: meta_old.pop(k) for k in LEGACY} == LEGACY
        assert meta_old == meta_new


def test_monitor_check_answers_the_same(skew_dirs, monkeypatch, capsys):
    argv = ["check", "b.jsonl", "--json"]
    new = run_in(skew_dirs["new"], monkeypatch, capsys, monitor_main, argv)
    assert run_in(skew_dirs["old"], monkeypatch, capsys, monitor_main,
                  argv) == new


def test_live_check_answers_the_same(skew_dirs, monkeypatch, capsys):
    argv = ["check", "b.jsonl", "--rules", RULES, "--json"]
    new = run_in(skew_dirs["new"], monkeypatch, capsys, live_main, argv)
    old = run_in(skew_dirs["old"], monkeypatch, capsys, live_main, argv)
    # ``meta`` echoes the file's header: the old one's legacy keys are in
    # the echo, and everything the check concluded is identical
    assert {k: old[1]["meta"].pop(k) for k in LEGACY} == LEGACY
    assert old == new
    assert new[1]["records"] > 0


def test_align_diff_answers_the_same_across_versions(
        skew_dirs, monkeypatch, capsys):
    argv = ["diff", "a.jsonl", "b.jsonl", "--json"]
    new = run_in(skew_dirs["new"], monkeypatch, capsys, align_main, argv)
    assert new[0] == 1 and new[1]["divergent"]  # the victims differ
    for name in ("old", "mixed"):
        assert run_in(skew_dirs[name], monkeypatch, capsys, align_main,
                      argv) == new, name
