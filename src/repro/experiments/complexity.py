"""Section VI-E: complexity-of-use statistics, over this repository.

The paper quantifies integration effort on MiniMD: "over the 20+ source
files 15 of them collectively contain over 148 locations with MPI code.
With a typical ULFM error handling approach, each of these would need to
be adapted ... Using Fenix we can simply swap references to
MPI_COMM_WORLD to the resilient communicator ... and then add in fewer
than 20 lines of simple code to a single file."

The analogue here is computed from our own sources with ``ast``:

- MPI call sites across the application modules (every one of which would
  need ULFM error handling without Fenix);
- resilience-specific lines in the KR-integrated application mains (the
  "fewer than 20 lines" claim) versus the hand-integrated variant.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field
from typing import Dict, List

import repro.apps.heatdis as heatdis_mod
import repro.apps.heatdis_manual as manual_mod
import repro.apps.minimd as minimd_mod

#: CommHandle methods that are MPI call sites
MPI_METHODS = {
    "send", "recv", "sendrecv", "bcast", "allreduce", "allgather",
    "revoke", "agree", "shrink",
}

#: identifiers marking a line as resilience-integration code
RESILIENCE_MARKERS = (
    "kr", "make_kr", "checkpoint", "latest_version", "reset", "recover",
    "mem_protect", "restart_test", "veloc", "client", "Role", "role",
    "tracker", "recompute",
)


@dataclass
class ModuleStats:
    module: str
    mpi_call_sites: int
    total_lines: int
    resilience_lines: int


@dataclass
class ComplexityReport:
    modules: List[ModuleStats] = field(default_factory=list)

    @property
    def total_mpi_call_sites(self) -> int:
        return sum(m.mpi_call_sites for m in self.modules)

    @property
    def files_with_mpi(self) -> int:
        return sum(1 for m in self.modules if m.mpi_call_sites > 0)

    def module(self, name: str) -> ModuleStats:
        for m in self.modules:
            if m.module == name:
                return m
        raise KeyError(name)


class _MPICallCounter(ast.NodeVisitor):
    def __init__(self) -> None:
        self.count = 0

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MPI_METHODS:
            self.count += 1
        self.generic_visit(node)


def _resilience_lines(lines: List[str]) -> int:
    """How many of ``lines`` name a resilience marker."""
    return sum(any(marker in ln for marker in RESILIENCE_MARKERS)
               for ln in lines)


def _analyze_module(mod) -> ModuleStats:
    source = inspect.getsource(mod)
    tree = ast.parse(source)
    counter = _MPICallCounter()
    counter.visit(tree)
    lines = [
        ln for ln in source.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    return ModuleStats(
        module=mod.__name__.rsplit(".", 1)[-1],
        mpi_call_sites=counter.count,
        total_lines=len(lines),
        resilience_lines=_resilience_lines(lines),
    )


def analyze_complexity() -> ComplexityReport:
    """Static statistics over the application sources of this repo."""
    report = ComplexityReport()
    for mod in (heatdis_mod, manual_mod, minimd_mod):
        report.modules.append(_analyze_module(mod))
    return report


def integration_line_counts() -> Dict[str, int]:
    """Lines of resilience-integration code in each application main.

    The KR-integrated mains concentrate resilience handling in one small
    function; the manual variant spreads VeloC bookkeeping through the
    loop.  (The Fenix part of the paper's claim -- swap the communicator,
    no per-call-site error handling -- is structural: every MPI call site
    counted by :func:`analyze_complexity` goes unmodified.)
    """
    out = {}
    for name, fn in (
        ("heatdis_kr", heatdis_mod.make_heatdis_main),
        ("heatdis_manual", manual_mod.make_manual_heatdis_main),
        ("minimd_kr", minimd_mod.make_minimd_main),
    ):
        source = inspect.getsource(fn)
        lines = [
            ln for ln in source.splitlines()
            if ln.strip() and not ln.strip().startswith("#")
            and '"""' not in ln
        ]
        out[name] = _resilience_lines(lines)
    return out


def format_complexity(report: ComplexityReport) -> str:
    """``results/complexity.txt``: the call-site census, the integration
    line counts and the paper's figures beside them."""
    lines = [
        "Section VI-E analogue: integration complexity over this repo",
        f"  MPI call sites across app modules: {report.total_mpi_call_sites} "
        f"(in {report.files_with_mpi} files)",
        "  (with raw ULFM, every one would need error-handling changes;",
        "   with Fenix, zero call sites change -- only the handle swaps)",
    ]
    for m in report.modules:
        lines.append(
            f"  {m.module:<16} mpi_sites={m.mpi_call_sites:<3} "
            f"lines={m.total_lines:<4} resilience_lines={m.resilience_lines}"
        )
    lines += ["", "Integration line counts:"]
    for name, n in sorted(integration_line_counts().items()):
        lines.append(f"  {name:<16} {n} resilience lines")
    lines += [
        "",
        "Paper reference: MiniMD has 148 MPI call sites in 15 of 20+ files;",
        "Fenix integration needed <20 added lines in a single file, and the",
        "view census (61 views: 39/3/19) needed inspecting only a handful.",
    ]
    return "\n".join(lines)
