"""Persistent estimate checkpoints for resumable audit runs.

A real audit study that dies mid-run -- a tripped circuit breaker, an
exhausted query budget, a crashed laptop -- must not re-issue the
thousands of size queries it already paid for.  The checkpoint is the
durable form of :class:`~repro.core.audit.AuditTarget`'s estimate
cache: every successful ``(interface, spec) -> estimate`` lands here,
and attaching the store to a fresh target pre-warms its cache so the
query planner skips everything already measured.

Because audit records are a pure function of the cached estimates,
``kill + resume`` produces output bit-identical to an uninterrupted
run -- enforced by ``tests/test_chaos.py``.

The on-disk format (version 2) is one JSON document of interned
tables::

    {"version": 2,
     "options": [option_id, ...],                     # sorted, each once
     "rules": [[[[option_index, ...], ...], [option_index, ...]], ...],
     "interfaces": {key: [[country, genders|null, ages|null,
                           rule_index, estimate], ...]}}

A rule is a spec's ``(clauses, exclusions)`` pair: clause order is
kept, option indexes are sorted.  An audit measures each composition
under several demographic splits, so the estimates share far fewer
rules (a seed-42 ``--scale small`` run: 92k estimates, 37k rules, 4.5k
option ids); interning writes every rule and option once, and loading decodes each rule once so specs that share it share
its clauses tuple again.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from repro.platforms.targeting import Clause, TargetingSpec
from repro.population.demographics import AgeRange, Gender

__all__ = ["EstimateCheckpoint"]


def _int_list(values) -> str:
    """Compact JSON text of an int list, sorted."""
    return "[" + ",".join(map(str, sorted(values))) + "]"


def _codes(values: frozenset | None) -> str:
    """JSON text of a demographic filter: sorted int codes or null."""
    return "null" if values is None else _int_list(int(v) for v in values)


def _decoder(enum: type) -> Callable[[list | None], frozenset | None]:
    """Memoised decoder of demographic filters back to enum frozensets."""
    memo: dict[tuple, frozenset] = {}

    def decode(codes: list | None) -> frozenset | None:
        if codes is None:
            return None
        key = tuple(codes)
        value = memo.get(key)
        if value is None:
            value = memo[key] = frozenset(enum(code) for code in key)
        return value

    return decode


class EstimateCheckpoint:
    """Completed size estimates, sharded per interface key.

    Construct with a ``path`` to load any existing checkpoint file and
    make :meth:`save` write there by default; construct bare for a
    purely in-memory store (useful in tests).
    """

    _VERSION = 2

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._shards: dict[str, dict[TargetingSpec, int]] = {}
        self.records_loaded = 0
        if self.path is not None and self.path.exists():
            self.load(self.path)

    def shard(self, interface_key: str) -> dict[TargetingSpec, int]:
        """The (live) estimate mapping for one interface."""
        return self._shards.setdefault(interface_key, {})

    def record(
        self, interface_key: str, spec: TargetingSpec, estimate: int
    ) -> None:
        """Persist one completed estimate."""
        self._shards.setdefault(interface_key, {})[spec] = estimate

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards.values())

    def __contains__(self, key: tuple[str, TargetingSpec]) -> bool:
        interface_key, spec = key
        return spec in self._shards.get(interface_key, {})

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path | None = None) -> Path:
        """Write the checkpoint as JSON (atomic rename).

        Rows are formatted straight to text, so the save allocates
        strings rather than a container per estimate.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no checkpoint path configured")
        rule_index: dict[tuple, int] = {}
        # Country and demographic filters take a handful of values.
        prefix_of: dict[tuple, str] = {}
        shards = []
        for key, shard in self._shards.items():
            rows = []
            for spec, estimate in shard.items():
                demographics = (spec.country, spec.genders, spec.age_ranges)
                prefix = prefix_of.get(demographics)
                if prefix is None:
                    prefix = prefix_of[demographics] = (
                        f"[{json.dumps(spec.country)},{_codes(spec.genders)},"
                        f"{_codes(spec.age_ranges)},"
                    )
                rule = rule_index.setdefault(
                    (spec.clauses, spec.exclusions), len(rule_index)
                )
                rows.append(f"{prefix}{rule},{estimate}]")
            shards.append(json.dumps(key) + ":[" + ",".join(rows) + "]")
        options: set[str] = set()
        for clauses, exclusions in rule_index:
            options.update(exclusions)
            for clause in clauses:
                options.update(clause.options)
        option_ids = sorted(options)
        option_index = {option: index for index, option in enumerate(option_ids)}
        # Rules share clauses (a pair shares each member with its other
        # pairs), so each option set is encoded once.
        text_of: dict[frozenset[str], str] = {}

        def indexes(members: frozenset[str]) -> str:
            text = text_of.get(members)
            if text is None:
                text = text_of[members] = _int_list(option_index[o] for o in members)
            return text

        rules = ",".join(
            "[[" + ",".join(indexes(c.options) for c in clauses) + "],"
            + indexes(exclusions) + "]"
            for clauses, exclusions in rule_index
        )
        document = (
            f'{{"version":{self._VERSION},"options":{json.dumps(option_ids)},'
            f'"rules":[{rules}],"interfaces":{{{",".join(shards)}}}}}'
        )
        scratch = target.with_name(target.name + ".tmp")
        scratch.write_text(document, encoding="utf-8")
        scratch.replace(target)
        return target

    def load(self, path: str | Path | None = None) -> int:
        """Merge a checkpoint file in; returns the records loaded."""
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ValueError("no checkpoint path configured")
        payload = json.loads(source.read_text(encoding="utf-8"))
        if payload.get("version") != self._VERSION:
            raise ValueError(
                f"unsupported checkpoint version {payload.get('version')!r}"
            )
        options = payload["options"]
        rules = [
            (
                tuple(Clause(options[i] for i in clause) for clause in clauses),
                frozenset(options[i] for i in exclusions),
            )
            for clauses, exclusions in payload["rules"]
        ]
        genders_of = _decoder(Gender)
        ages_of = _decoder(AgeRange)
        loaded = 0
        for key, rows in payload["interfaces"].items():
            shard = self._shards.setdefault(key, {})
            for country, genders, ages, rule, estimate in rows:
                clauses, exclusions = rules[rule]
                spec = TargetingSpec(
                    country=country,
                    genders=genders_of(genders),
                    age_ranges=ages_of(ages),
                    clauses=clauses,
                    exclusions=exclusions,
                )
                shard[spec] = int(estimate)
                loaded += 1
        self.records_loaded += loaded
        return loaded

    def __repr__(self) -> str:
        where = f" path={self.path}" if self.path else ""
        return f"<EstimateCheckpoint {len(self)} estimates{where}>"
