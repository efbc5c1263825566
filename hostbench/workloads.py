"""The three workloads: burst-sim, burst-ecdsa and chaos.

A workload is a list of *units*.  A burst unit is one Fig. 10 burst on a
fresh two-cell deployment; a chaos unit is one pinned corpus scenario
through :func:`repro.chaos.check_scenario`.  Running a unit returns a
:class:`UnitResult` with its set-up and timed host wall, the simulated
submit/receipt times of its committed operations, deterministic program
counters, a digest of its ledgers and state, and any correctness failure.

All inputs come from the seed: the burst deployment seeds, the recipient
addresses, and the corpus slice.  The program itself only sees the
generated deployment configuration and transactions.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from _harness import azure_deployment
from repro import chaos
from repro.audit.auditor import Auditor
from repro.client import BlockumulusClient, FastMoneyClient, build_client_pools
from repro.client.sharded import ShardedClient
from repro.client.workload import _fresh_recipient
from repro.core import BlockumulusDeployment
from repro.crypto.keys import PrivateKey
from repro.messages.signer import SimulatedSigner

#: Burst shape shared by both burst workloads (the paper's Fig. 10 harness
#: and ``benchmarks/test_pipeline_batching.py``): two cells, eight client
#: pools, submission pinned to one simulated instant after pool funding.
BURST_CELLS = 2
BURST_POOLS = 8
SUBMIT_AT = 60.0
HORIZON = 3_600.0

#: Chaos scenarios per matrix round: ``sample_scenario`` stratifies the
#: matrix point over ``seed % 12``, so any 12 consecutive corpus seeds
#: cover shards {1, 2, 4} x lanes {1, 4} x batching {on, off} exactly once.
MATRIX_ROUND = 12


@dataclass
class UnitResult:
    """What one unit run produced."""

    key: str
    setup_s: float
    wall_s: float
    #: Client operations submitted (transactions, or chaos operations).
    attempted: int
    #: Operations whose client saw a successful outcome.
    ok: int
    #: (submitted_at, completed_at) in simulated seconds, committed ops only.
    committed: list[tuple[float, float]]
    #: Deterministic counters read from the program after the unit.
    counters: dict[str, int]
    #: Hex digest of ledgers, state fingerprints and client outcomes.
    digest: str
    #: Correctness failures (empty when the unit is correct).
    failures: list[str] = field(default_factory=list)


def reset_process_state() -> None:
    """Drop the process-global state a previous unit could leave behind.

    These are every class- or function-level cache in the program that
    outlives a deployment: the simulated signer's address registry, the
    single-slot public-key cache, and the default-name counters of clients
    and auditors.  Resetting them makes every unit start as it would in a
    fresh interpreter; the traced run checks that per-unit call counts
    then repeat exactly.
    """
    SimulatedSigner.clear_registry()
    PrivateKey._public_key.cache_clear()
    BlockumulusClient._counter = 0
    ShardedClient._counter = 0
    Auditor._counter = 0
    gc.collect()


def _no_phase(_phase: str) -> None:
    pass


def _digest(value: Any) -> str:
    # Stdlib JSON and hashlib, not the program's own encoders, so that a
    # change to those encoders cannot change the digest it is checked by.
    text = json.dumps(value, sort_keys=True, default=repr)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _collect(deployment: BlockumulusDeployment, events: list, horizon: float) -> None:
    env = deployment.env
    env.run(env.any_of([env.all_of(events), env.timeout(horizon)]))


# ----------------------------------------------------------------------
# Bursts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BurstUnit:
    """One burst of ``count`` simultaneous FastMoney transfers."""

    scheme: str
    count: int
    seed: int

    @property
    def key(self) -> str:
        return f"burst/{self.scheme}/{self.count}tx/seed{self.seed}"

    def run(self, on_phase: Callable[[str], None] = _no_phase) -> UnitResult:
        """Set up, fund, submit the burst and check the outcome.

        ``on_phase`` is called as each measured phase begins and ends:
        ``"setup"``, ``"timed"`` and ``"done"`` (the timed run uses them to
        place its speed samples, the traced run to window its spans).
        """
        reset_process_state()
        started = time.perf_counter()
        on_phase("setup")
        deployment = azure_deployment(
            BURST_CELLS, seed=self.seed, signature_scheme=self.scheme)
        clients = build_client_pools(deployment, BURST_POOLS)
        funding = [FastMoneyClient(client).faucet(self.count * 2) for client in clients]
        _collect(deployment, funding, HORIZON)
        failures = [
            f"pool funding failed: {event.value.error if event.triggered else 'no reply'}"
            for event in funding
            if not (event.triggered and event.value.ok)
        ]
        if deployment.env.now > SUBMIT_AT:
            failures.append(f"funding ran past the submission instant ({deployment.env.now})")
        else:
            deployment.run(until=SUBMIT_AT)
        # The program's own burst recipients, so the burst matches BENCH_pipeline.json.
        recipients = [_fresh_recipient(index) for index in range(self.count)]
        timed = time.perf_counter()
        on_phase("timed")
        events = [
            FastMoneyClient(clients[index % BURST_POOLS]).transfer(recipients[index], 1)
            for index in range(self.count)
        ]
        _collect(deployment, events, HORIZON)
        on_phase("done")
        done = time.perf_counter()

        results = [event.value if event.triggered else None for event in events]
        committed = [(r.submitted_at, r.completed_at) for r in results if r is not None and r.ok]
        unanswered = sum(1 for r in results if r is None)
        failed = sum(1 for r in results if r is not None and not r.ok)
        if unanswered or failed:
            failures.append(f"{failed} transfers failed and {unanswered} got no reply")
        failures.extend(_check_burst_state(deployment, clients, recipients))
        return UnitResult(
            key=self.key,
            setup_s=timed - started,
            wall_s=done - timed,
            attempted=self.count,
            ok=len(committed),
            committed=committed,
            counters=_counters(deployment.network, deployment.cells),
            digest=_digest(_burst_digest(deployment, results)),
            failures=failures,
        )


def _check_burst_state(deployment: BlockumulusDeployment, clients: list,
                       recipients: list[str]) -> list[str]:
    """Every cell executed every transaction into the expected balances,
    and the cells agree on every contract fingerprint."""
    count = len(recipients)
    expected = {
        "total_supply": 2 * count * len(clients),
        "transfer_count": count,
        **{recipient: 1 for recipient in recipients},
        **{
            client.signer.address.hex(): 2 * count - len(range(index, count, len(clients)))
            for index, client in enumerate(clients)
        },
    }
    failures = []
    states = set()
    for cell in deployment.cells:
        executed = sum(1 for entry in cell.ledger if entry.status == "executed")
        if executed != count + len(clients):
            failures.append(f"{cell.node_name} executed {executed} of {count + len(clients)}")
        fastmoney = cell.contracts.get("fastmoney")
        wrong = [
            key for key, value in expected.items()
            if (fastmoney.query(key, {}) if not key.startswith("0x")
                else fastmoney.query("balance_of", {"account": key})) != value
        ]
        if wrong:
            failures.append(f"{cell.node_name}: {len(wrong)} FastMoney values are wrong, "
                            f"e.g. {wrong[0]}")
        states.add(tuple(sorted(
            (name, cell.contracts.get(name).fingerprint_hex()) for name in cell.contracts.names()
        )))
    if len(states) != 1:
        failures.append("cells disagree on contract state fingerprints")
    return failures


def _burst_digest(deployment: BlockumulusDeployment, results: list) -> dict[str, Any]:
    """Timing-free ledgers, state and receipts (modelled on the pipeline
    benchmark's ledger/receipt/state digests)."""
    return {
        "ledgers": {
            cell.node_name: [
                [entry.sequence, entry.tx_id, entry.status,
                 entry.envelope.sender.hex(), entry.envelope.data]
                for entry in cell.ledger
            ]
            for cell in deployment.cells
        },
        "states": {
            cell.node_name: sorted(
                (name, cell.contracts.get(name).fingerprint_hex())
                for name in cell.contracts.names()
            )
            for cell in deployment.cells
        },
        "receipts": [
            None if result is None or result.receipt is None else [
                result.receipt.tx_id,
                result.receipt.fingerprint_hex,
                sorted(result.receipt.cells()),
            ]
            for result in results
        ],
    }


def _counters(network: Any, cells: list) -> dict[str, int]:
    """Deterministic program counters compared across repeats."""
    batchers = [cell.batcher for cell in cells if cell.batcher is not None]
    return {
        "network_messages": network.total_messages(),
        "network_bytes": network.total_bytes(),
        "batches_sent": sum(b.batches_sent for b in batchers),
        "items_coalesced": sum(b.items_coalesced for b in batchers),
        "conflict_deferrals": sum(
            cell.lanes.statistics()["conflict_deferrals"]
            for cell in cells if cell.lanes is not None
        ),
    }


# ----------------------------------------------------------------------
# Chaos
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosUnit:
    """One pinned-corpus scenario through all four oracles."""

    corpus_seed: int

    @property
    def key(self) -> str:
        return f"chaos/scenario{self.corpus_seed}"

    def run(self, on_phase: Callable[[str], None] = _no_phase) -> UnitResult:
        """Sample the spec (set-up), then run and check the scenario."""
        reset_process_state()
        started = time.perf_counter()
        on_phase("setup")
        spec = chaos.sample_scenario(self.corpus_seed)
        timed = time.perf_counter()
        on_phase("timed")
        # Looked up on the package at call time, so a traced run goes
        # through the wrapper that opens the scenario's root span.
        run, oracles = chaos.check_scenario(spec)
        on_phase("done")
        done = time.perf_counter()

        failures = [
            f"scenario {self.corpus_seed}: oracle {result.oracle} failed: {result.findings[:2]}"
            for result in oracles
            if not result.passed
        ]
        if [result.oracle for result in oracles] != [
                "conservation", "differential", "replay", "audit"]:
            failures.append(f"scenario {self.corpus_seed}: oracle stack incomplete")
        results = run.workload.results
        committed = [
            (r.submitted_at, r.completed_at) for r in results if r is not None and r.ok
        ]
        return UnitResult(
            key=self.key,
            setup_s=timed - started,
            wall_s=done - timed,
            attempted=len(results),
            ok=len(committed),
            committed=committed,
            counters=_counters(
                run.deployment.network,
                [cell for group in run.deployment.groups for cell in group.cells]),
            digest=_digest(run.artifacts),
            failures=failures,
        )


def chaos_slice(seed: int, rounds: int) -> list[ChaosUnit]:
    """``rounds`` matrix rounds of consecutive corpus seeds from ``seed``."""
    offset = seed % chaos.CORPUS_SIZE
    return [
        ChaosUnit((offset + index) % chaos.CORPUS_SIZE)
        for index in range(rounds * MATRIX_ROUND)
    ]
