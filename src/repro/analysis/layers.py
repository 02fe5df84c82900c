"""Layer contracts of this repository, declared as plain data.

DESIGN.md's architectural invariants live here in machine-checkable form;
:mod:`repro.analysis.rules` reads them, and ``tests/test_analysis.py``
validates the declarations against the real tree so a renamed module
cannot silently hollow a contract out.

Adding a module to a layer (or a new forbidden backend) is a one-line
change to the tuples below — the import-graph rule (``RPR003``) and the
coroutine-purity exemption (``RPR002``) pick it up automatically.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LayerContract:
    """One import-graph invariant: *modules* must never import *forbidden*.

    Prefixes cover whole subtrees: ``repro.util`` covers every
    ``repro.util.*`` module, and ``repro.providers`` forbids every
    ``repro.providers.*`` import.
    """

    #: Short name used in finding messages (``sans-io``).
    name: str
    #: Why the contract exists — one sentence, surfaced in messages.
    rationale: str
    #: Dotted module prefixes the contract covers.
    modules: tuple[str, ...]
    #: Dotted module prefixes the covered modules must not import.
    forbidden: tuple[str, ...]


#: The sans-IO planner layer (DESIGN.md §8): metadata geometry, the
#: frontier read/build planners, wire serialization, the pure utility
#: helpers, and the version-manager record types are driven by generators
#: and return values only.  They must stay importable — and testable —
#: without pulling in any I/O engine, backend, simulator, fault-tolerance
#: machinery or observability code.
SANS_IO = LayerContract(
    name="sans-io",
    rationale=(
        "sans-IO planners must stay free of I/O engines and backends so "
        "both the threaded client and the simulator can drive them"
    ),
    modules=(
        "repro.metadata.geometry",
        "repro.metadata.read_plan",
        "repro.metadata.build",
        "repro.metadata.serialization",
        "repro.util",
        "repro.version.records",
    ),
    forbidden=(
        "repro.providers",
        "repro.aio",
        "repro.sim",
        "repro.fault",
        "repro.obs",
    ),
)

#: Every declared contract, in the order findings should cite them.
LAYER_CONTRACTS: tuple[LayerContract, ...] = (SANS_IO,)

#: Modules that ARE the I/O runtime seam: the one place in the tree where
#: a coroutine may legitimately block (``SyncRuntime``'s awaitables all
#: complete inline — blocking there is its contract, see
#: :mod:`repro.aio`).  The coroutine-purity rule (``RPR002``) skips them.
RUNTIME_SEAM_MODULES: tuple[str, ...] = ("repro.aio",)


def validate_contracts() -> None:
    """Sanity-check the declarations themselves (run by the test suite).

    A contract whose ``modules`` and ``forbidden`` prefixes overlap would
    make every covered file its own violation; empty tuples would make the
    rule silently vacuous.
    """
    names = [contract.name for contract in LAYER_CONTRACTS]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate contract names: {names}")
    for contract in LAYER_CONTRACTS:
        if not contract.modules or not contract.forbidden:
            raise ValueError(f"contract {contract.name!r} is vacuous")
        for module in contract.modules:
            for banned in contract.forbidden:
                if module == banned or module.startswith(banned + "."):
                    raise ValueError(
                        f"contract {contract.name!r}: covered module "
                        f"{module!r} lies inside forbidden prefix {banned!r}"
                    )
