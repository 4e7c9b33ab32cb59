"""Seeded job lists of the four workloads.

The seed only orders and mixes jobs drawn from the workload registry; the
program under test sees nothing but the generated sources and requests.
A local run walks ``passes_for(workload, seconds)`` passes over its
workload's jobs, each pass in the order drawn from ``(seed, pass)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.pipelines import OptLevel
from repro.workloads import all_workloads

#: The paper's Figure 3 build chain: every level, one session.
CHAIN_LEVELS = (OptLevel.O0, OptLevel.O1, OptLevel.O2, OptLevel.O3,
                OptLevel.OVERIFY)
#: The paper's Table 1 / Figure 4 pair.
PAIR_LEVELS = (OptLevel.O0, OptLevel.OVERIFY)
#: Levels the service clients ask for.
SERVICE_LEVELS = (OptLevel.OVERIFY, OptLevel.O2)

#: Programs whose -O1 builds seed the service's knowledge store before the
#: server starts, so that its load and prime do work and the warm-store
#: path exists.  Fixed, not seeded: the seed orders requests only.
STORE_SEED_PROGRAMS = ("wc", "cat", "head", "tail", "tr", "uniq", "cut",
                       "grep")


@dataclass(frozen=True)
class LocalJob:
    """One forked child's work: ``levels`` built from one session."""

    ident: str
    program: str
    levels: Tuple[OptLevel, ...]
    input_bytes: int


#: Seconds one pass over a local workload's jobs takes at HEAD on a 2-vCPU
#: x86-64 VM.  The number of passes follows from ``--seconds`` and these,
#: not from the clock, so a run attempts the same jobs however fast the
#: program is.
PASS_SECONDS = {"compile-heavy": 20.0, "verify-heavy": 35.0,
                "relcheck-sweep": 20.0}


def passes_for(workload: str, seconds: float) -> int:
    """Passes a local run of ``seconds`` makes over its job list."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def local_jobs(workload: str, seed: int, seconds: float) -> List[LocalJob]:
    """A local run's whole job list."""
    make = {"compile-heavy": compile_heavy, "verify-heavy": verify_heavy,
            "relcheck-sweep": relcheck_sweep}[workload]
    return [job for pass_ in range(passes_for(workload, seconds))
            for job in make(seed, pass_)]


def _rng(seed: int, pass_: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{pass_}")


def compile_heavy(seed: int, pass_: int = 0) -> List[LocalJob]:
    """Every registry program's five-level chain at 1 symbolic byte."""
    names = [w.name for w in all_workloads()]
    _rng(seed, pass_, "compile-heavy").shuffle(names)
    return [LocalJob(f"r{pass_}/{name}", name, CHAIN_LEVELS, 1)
            for name in names]


def verify_heavy(seed: int, pass_: int = 0) -> List[LocalJob]:
    """Every registry program at -O0 and -OVERIFY at its own
    ``default_input_bytes``, one job (and one fresh backend) each."""
    jobs = [LocalJob(f"r{pass_}/{w.name}{level}", w.name, (level,),
                     w.default_input_bytes)
            for w in all_workloads() for level in PAIR_LEVELS]
    _rng(seed, pass_, "verify-heavy").shuffle(jobs)
    return jobs


def relcheck_sweep(seed: int, pass_: int = 0) -> List[LocalJob]:
    """Every registry program's (-O0, -OVERIFY) pair at 2 bytes."""
    names = [w.name for w in all_workloads()]
    _rng(seed, pass_, "relcheck-sweep").shuffle(names)
    return [LocalJob(f"r{pass_}/{name}", name, PAIR_LEVELS, 2)
            for name in names]


# ----------------------------------------------------------- service-mix

#: Request kinds of the service mix.  Nothing in the repository records
#: what CI callers actually send, so every block of ``BLOCK`` steps holds
#: ``PER_KIND`` of each kind: every service path gets the same weight.
#: The order inside a block is seeded; fixed counts keep the mix of a run
#: the same whatever the seed.
KINDS = ("cold", "memo", "noop", "semantic", "dup")
PER_KIND = 1
BLOCK = PER_KIND * len(KINDS)


@dataclass(frozen=True)
class Request:
    """One request a service client sends.  ``edit`` is ``""`` (the
    registry source), ``"noop:N"`` (an unused helper added) or
    ``"guard:K"`` (main wrapped in an ``input[0] == K`` guard)."""

    ident: str
    kind: str
    program: str
    level: OptLevel
    edit: str = ""

    @property
    def answer_key(self) -> Tuple[str, str, str]:
        """Requests with equal keys must get equal answers: a no-op edit
        shares its base program's key."""
        edit = "" if self.edit.startswith("noop") else self.edit
        return (self.program, str(self.level), edit)


@dataclass
class _ClientPlan:
    index: int
    cold: List[Tuple[str, OptLevel]]
    sent: List[Tuple[str, OptLevel]] = field(default_factory=list)
    requests: List[Request] = field(default_factory=list)


def service_mix(seed: int, blocks: int = 3) -> List[List[Request]]:
    """Two clients' request sequences, in blocks of ``BLOCK`` steps.
    Cold requests are split between the clients so a first submission is
    never in flight twice; memo and
    no-op requests revisit the same client's earlier (already answered)
    requests; guard constants are disjoint per client.  A ``dup`` step
    appears at the same position in both sequences: both clients send the
    identical fresh request at once."""
    rng = _rng(seed, 0, "service-mix")
    base = [(w.name, level) for w in all_workloads()
            for level in SERVICE_LEVELS]
    # First submissions come in one fixed order, so every run submits the
    # same programs first; the seed orders and fills in the rest.
    random.Random("service-mix:first-submissions").shuffle(base)
    plans = [_ClientPlan(0, base[0::2]), _ClientPlan(1, base[1::2])]
    guard_counter = [0, 0]
    kinds: List[str] = []
    for _ in range(blocks):
        block = [kind for kind in KINDS for _ in range(PER_KIND)]
        rng.shuffle(block)
        kinds.extend(block)
    for step, kind in enumerate(kinds):
        if kind == "dup":
            program, level = base[rng.randrange(len(base))]
            edit = f"guard:{200 + step % 56}"
            for plan in plans:
                plan.requests.append(Request(
                    f"c{plan.index}/{step}", "dup", program, level, edit))
            continue
        for plan in plans:
            plan.requests.append(_next_request(plan, kind, step, rng,
                                               guard_counter))
    return [plan.requests for plan in plans]


def _next_request(plan: _ClientPlan, kind: str, step: int,
                  rng: random.Random, guard_counter: List[int]) -> Request:
    ident = f"c{plan.index}/{step}"
    if kind != "cold" and not plan.sent:
        kind = "cold"
    if kind == "cold" and not plan.cold:
        kind = "memo"
    if kind == "cold":
        program, level = plan.cold.pop()
        plan.sent.append((program, level))
        return Request(ident, "cold", program, level)
    program, level = plan.sent[rng.randrange(len(plan.sent))]
    if kind == "memo":
        return Request(ident, "memo", program, level)
    if kind == "noop":
        return Request(ident, "noop", program, level, f"noop:{step}")
    # Guard constants 0..199, even for client 0 and odd for client 1, so
    # the two clients never race on one semantic edit.
    constant = (2 * guard_counter[plan.index] + plan.index) % 200
    guard_counter[plan.index] += 1
    return Request(ident, "semantic", program, level, f"guard:{constant}")


def edited_source(source: str, edit: str) -> str:
    """Apply a service-mix edit to a registry program's source."""
    if not edit:
        return source
    kind, _, value = edit.partition(":")
    if kind == "noop":
        # Unused, so globaldce removes it: the optimized IR is unchanged
        # and the request reaches the memo through the IR fingerprint.
        return (source + f"\nint perfbench_unused_{value}(int x) {{\n"
                f"    return x * {value} + 1;\n}}\n")
    if kind == "guard":
        renamed = source.replace("int main(", "int perfbench_body(", 1)
        return (renamed + "\nint main(unsigned char *input, int len) {\n"
                f"    if (input[0] == {value}) {{\n"
                "        return perfbench_body(input, len);\n"
                "    }\n    return 0;\n}\n")
    raise ValueError(f"unknown edit {edit!r}")


def guard_byte(edit: str) -> Optional[int]:
    """The input byte a guard edit lets through, or ``None``."""
    kind, _, value = edit.partition(":")
    return int(value) if kind == "guard" else None
