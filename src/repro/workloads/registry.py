"""Workload registry: every program the experiment harness can analyse.

Each workload is a small MiniC program with the entry point convention

    int main(unsigned char *input, int len);

where ``input`` points at the symbolic input buffer (NUL-terminated by the
harness) and ``len`` is its length.  The buffer plays the role of the
symbolic command-line arguments / stdin that the paper's Coreutils
experiments feed to KLEE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class Workload:
    """One analysable program."""

    name: str
    source: str
    description: str
    category: str = "coreutils"
    #: Suggested symbolic-input size for the Figure 4 sweep.
    default_input_bytes: int = 4
    #: Sample concrete input for single-execution runs (the CLI's --run).
    sample_input: bytes = b"the quick brown fox"

    def __post_init__(self) -> None:
        if "int main(" not in self.source:
            raise ValueError(f"workload {self.name} has no main()")


_REGISTRY: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise ValueError(f"duplicate workload '{workload.name}'")
    _REGISTRY[workload.name] = workload
    return workload


def get_workload(name: str) -> Workload:
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(f"unknown workload '{name}'; known: "
                       f"{sorted(_REGISTRY)}") from exc


def all_workloads(category: Optional[str] = None) -> List[Workload]:
    """All registered workloads, sorted by name."""
    workloads = sorted(_REGISTRY.values(), key=lambda w: w.name)
    if category is not None:
        workloads = [w for w in workloads if w.category == category]
    return workloads


def workload_names(category: Optional[str] = None) -> List[str]:
    return [w.name for w in all_workloads(category)]
