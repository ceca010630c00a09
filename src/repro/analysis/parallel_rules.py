"""Parallel-safety rules guarding the multi-process audit engine.

``repro.parallel`` promises that a ``--jobs N`` run is bit-identical
to a sequential one.  Three classes of construct silently break that
promise, and each gets a rule:

* **module-level mutable state in the parallel package** -- workers
  import the same modules in separate processes, so mutable module
  globals silently fork into per-process copies that diverge (a
  counter used for naming per-run resources, a cache of results).
  Module-level containers in ``repro.parallel`` must be immutable:
  tuples, frozensets, or ``MappingProxyType``-wrapped mappings.
* **direct multiprocessing outside the parallel package** -- process
  management, canonical-order merging and checkpoint-before-raise
  failure handling live behind ``repro.parallel``; a second ad-hoc
  pool elsewhere would duplicate none of those invariants.
* **fixed-seed RNGs in worker-reachable code** -- a worker that seeds
  an RNG with a bare literal gives every shard the same stream (or,
  unseeded, a different stream every run); worker entropy must derive
  from task parameters such as the shard key
  (:func:`repro.parallel.plan.derive_chaos_seed`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule
from repro.analysis.layering import _import_targets

__all__ = ["MULTIPROCESSING_MODULES", "RNG_CONSTRUCTORS"]

#: Top-level modules that manage processes or cross-process memory.
MULTIPROCESSING_MODULES = frozenset({"multiprocessing", "concurrent"})

#: RNG constructors whose seeding the worker-rng rule inspects.
RNG_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.RandomState",
    }
)

#: Module-level names exempt from the immutability contract.
_EXEMPT_NAMES = frozenset({"__all__"})

#: Callables building mutable containers.
_MUTABLE_CALLS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.deque",
        "collections.Counter",
    }
)


def _in_parallel_package(module: str) -> bool:
    return module == "repro.parallel" or module.startswith("repro.parallel.")


def _module_level_assigns(
    tree: ast.Module,
) -> Iterator[tuple[ast.stmt, list[ast.expr], ast.expr]]:
    """(statement, targets, value) for every top-level assignment.

    Descends into module-level ``if``/``try`` blocks (version-gated
    constants) but never into function or class bodies.
    """
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign):
            yield node, node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield node, [node.target], node.value
        elif isinstance(node, ast.If):
            stack += node.body + node.orelse
        elif isinstance(node, ast.Try):
            stack += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                stack += handler.body


def _is_mutable_container(value: ast.expr, ctx: ModuleContext) -> bool:
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(value, ast.Call):
        name = ctx.resolve(value.func)
        if name is None and isinstance(value.func, ast.Name):
            name = value.func.id  # bare builtins: dict(), set(), list()
        return name in _MUTABLE_CALLS
    return False


@rule(
    "parallel/module-state",
    "module-level containers in repro.parallel are immutable "
    "(tuple/frozenset/MappingProxyType); mutable globals fork into "
    "divergent per-process copies",
)
def check_module_state(ctx: ModuleContext) -> Iterator[Finding]:
    if not _in_parallel_package(ctx.module):
        return
    for statement, targets, value in _module_level_assigns(ctx.tree):
        names = {
            target.id for target in targets if isinstance(target, ast.Name)
        }
        if names and names <= _EXEMPT_NAMES:
            continue
        if _is_mutable_container(value, ctx):
            shown = ", ".join(sorted(names)) or "<target>"
            yield ctx.finding(
                "parallel/module-state",
                statement,
                f"module-level mutable container {shown}: every worker "
                "process gets its own diverging copy; use a tuple, "
                "frozenset, or types.MappingProxyType (or move the state "
                "into an instance)",
            )


@rule(
    "parallel/direct-multiprocessing",
    "process pools are repro.parallel's job; no "
    "multiprocessing/concurrent.futures imports elsewhere in repro",
)
def check_direct_multiprocessing(ctx: ModuleContext) -> Iterator[Finding]:
    if not ctx.module.startswith("repro"):
        return
    if _in_parallel_package(ctx.module):
        return
    for node, target in _import_targets(ctx):
        top = target.partition(".")[0]
        if top in MULTIPROCESSING_MODULES:
            yield ctx.finding(
                "parallel/direct-multiprocessing",
                node,
                f"import of {target}: worker lifecycles and the "
                "canonical-order merge live in repro.parallel; route "
                "process fan-out through its engine",
            )


def _literal_seed(call: ast.Call) -> bool:
    """True when an RNG constructor was seeded with a bare literal."""
    candidates: list[ast.expr] = []
    if call.args:
        candidates.append(call.args[0])
    candidates += [
        keyword.value for keyword in call.keywords if keyword.arg == "seed"
    ]
    return any(
        isinstance(candidate, ast.Constant)
        and candidate.value is not None
        for candidate in candidates
    )


@rule(
    "parallel/unseeded-worker-rng",
    "RNGs in repro.parallel derive their seeds from task parameters "
    "(shard key, config seed), never literals or ambient entropy",
)
def check_worker_rng(ctx: ModuleContext) -> Iterator[Finding]:
    if not _in_parallel_package(ctx.module):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = ctx.resolve(node.func)
        if name not in RNG_CONSTRUCTORS:
            continue
        if not node.args and not node.keywords:
            yield ctx.finding(
                "parallel/unseeded-worker-rng",
                node,
                f"{name}() without a seed draws fresh OS entropy in every "
                "worker; derive the seed from the shard task",
            )
        elif _literal_seed(node):
            yield ctx.finding(
                "parallel/unseeded-worker-rng",
                node,
                f"{name}(<literal>) hands every shard the same stream; "
                "derive the seed from the shard key and config seed "
                "(see plan.derive_chaos_seed)",
            )
