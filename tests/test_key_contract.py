"""Cache-key contract conformance for every ``to_key_dict()`` dataclass.

The result cache's stale-key hazard class (see DESIGN.md): any dataclass
that feeds the cache key must (a) serialise to *canonical JSON* losslessly —
``canonical_text`` of its key dict must round-trip through ``json.loads``
unchanged, so the key depends on field values rather than repr formatting —
and (b) change the key whenever **any** field changes, nested fields
included.  This module asserts both properties generically for every
key-contributing dataclass (``MachineConfig``, ``PolicySpec``,
``PowerConfig``, plus the nested ``ClusterSpec``/``Topology``), by
perturbing each field in turn and checking the canonical text moves.

Deliberate exemptions (fields that must *not* reach the key) are listed in
``KEY_EXEMPT`` so the contract is explicit in both directions.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.config import (
    ClusterSpec,
    MachineConfig,
    Topology,
    helper_topology,
    topology_config,
)
from repro.core.steering import PolicySpec, Scheme, policy_spec
from repro.power.wattch import PowerConfig
from repro.trace.store import canonical_text

#: Fields deliberately excluded from the cache key, per owning class.
#: ``PolicySpec.in_ladder`` is a presentation flag: it orders the ladder
#: tables and must not fragment the cache.
KEY_EXEMPT = {
    PolicySpec: {"in_ladder"},
}

#: The key-contributing instances under test.
SUBJECTS = [
    pytest.param(MachineConfig(), id="MachineConfig"),
    pytest.param(policy_spec("ir_wa"), id="PolicySpec"),
    pytest.param(PowerConfig(), id="PowerConfig"),
    pytest.param(helper_topology().helpers[0], id="ClusterSpec"),
    pytest.param(helper_topology(), id="Topology"),
]


def _candidates(value):
    """Type-appropriate replacement candidates for one field value."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        # Several options: validators constrain some fields (powers of two,
        # 2-bit ranges, >= 1 minima); the first constructible one wins.
        return [value * 2, value + 1, value - 1, 1]
    if isinstance(value, float):
        return [value * 2 + 1.0]
    if isinstance(value, str):
        return [value + "_probe"]
    if isinstance(value, frozenset):
        return [frozenset(set(value) ^ {Scheme.N888})]
    if isinstance(value, tuple):
        if value and dataclasses.is_dataclass(value[0]):
            # Topology.clusters: mutate the last cluster spec.
            mutated = _mutate_any_field(value[-1])
            return [] if mutated is None else [value[:-1] + (mutated,)]
        return [(("probe_knob", 1),)]
    if dataclasses.is_dataclass(value):
        mutated = _mutate_any_field(value)
        return [] if mutated is None else [mutated]
    return []


def _mutate_field(obj, field_name):
    """A copy of ``obj`` with ``field_name`` changed, or None if impossible."""
    for candidate in _candidates(getattr(obj, field_name)):
        try:
            mutated = dataclasses.replace(obj, **{field_name: candidate})
        except (ValueError, TypeError):
            continue  # rejected by a validator; try the next candidate
        if mutated != obj:
            return mutated
    return None


def _mutate_any_field(obj):
    for field in dataclasses.fields(obj):
        mutated = _mutate_field(obj, field.name)
        if mutated is not None:
            return mutated
    return None


class TestKeyDictConformance:
    @pytest.mark.parametrize("subject", SUBJECTS)
    def test_round_trips_through_canonical_json(self, subject):
        """Canonical JSON is lossless: the key hashes values, not reprs."""
        key_dict = subject.to_key_dict()
        assert json.loads(canonical_text(key_dict)) == key_dict

    @pytest.mark.parametrize("subject", SUBJECTS)
    def test_canonical_text_is_deterministic(self, subject):
        rebuilt = dataclasses.replace(subject)
        assert canonical_text(rebuilt.to_key_dict()) == \
            canonical_text(subject.to_key_dict())

    @pytest.mark.parametrize("subject", SUBJECTS)
    def test_every_field_change_changes_the_key(self, subject):
        base_text = canonical_text(subject.to_key_dict())
        exempt = KEY_EXEMPT.get(type(subject), set())
        for field in dataclasses.fields(subject):
            mutated = _mutate_field(subject, field.name)
            assert mutated is not None, (
                f"{type(subject).__name__}.{field.name}: no constructible "
                f"perturbation — extend _candidates() for this field type")
            mutated_text = canonical_text(mutated.to_key_dict())
            if field.name in exempt:
                assert mutated_text == base_text, (
                    f"{type(subject).__name__}.{field.name} is documented as "
                    f"key-exempt but changed the key")
            else:
                assert mutated_text != base_text, (
                    f"{type(subject).__name__}.{field.name} changed without "
                    f"changing the cache key — stale-hit hazard")


class TestPowerConfigReachesEngineKey:
    """The engine folds PowerConfig into result keys (end-to-end check)."""

    def test_power_config_changes_job_key(self):
        from repro.sim.engine import SweepEngine, SweepJob

        job = SweepJob("gcc", "ir", 1000, 2006)
        default = SweepEngine(config=topology_config(helper_topology()))
        tweaked = SweepEngine(config=topology_config(helper_topology()),
                              power=PowerConfig(alu_access=11.0))
        assert default.key_for(job) != tweaked.key_for(job)

    def test_job_carried_power_overrides_engine_power(self):
        from repro.sim.engine import SweepEngine, SweepJob

        engine = SweepEngine(config=topology_config(helper_topology()))
        plain = SweepJob("gcc", "ir", 1000, 2006)
        carried = SweepJob("gcc", "ir", 1000, 2006,
                           power=PowerConfig(enabled=False))
        assert engine.key_for(plain) != engine.key_for(carried)

    def test_baseline_jobs_key_on_power_too(self):
        # Baseline energies feed ED² comparisons, so a coefficient change
        # must also invalidate cached baselines.
        from repro.sim.engine import SweepEngine, SweepJob

        job = SweepJob("gcc", "baseline", 1000, 2006)
        default = SweepEngine(config=topology_config(helper_topology()))
        tweaked = SweepEngine(config=topology_config(helper_topology()),
                              power=PowerConfig(wide_clock_per_cycle=13.0))
        assert default.key_for(job) != tweaked.key_for(job)
