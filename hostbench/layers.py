"""Which program functions the traced run wraps, and the per-layer metrics.

Span names are ``<layer>.<module>.<function>``.  The layer is the
top-level package under ``repro`` (crypto, encoding, messages, sim,
contracts, core, ethchain, client, chaos, audit); ``<layer>.<module>`` is
the span's *group*, and a call counts as a call "from outside" a group
when its parent span belongs to another group.

Most cell and client logic runs inside simulation processes (generators
resumed by the kernel), not inside calls that could be wrapped.  So
``Process._resume`` is wrapped too, and each resume span is named after
the module of the generator it resumes: resuming a cell's service
pipeline is a ``core.process.*`` span.  The kernel's own self time is
what remains in ``sim.kernel.step``.

A target that no longer exists (or became a generator function) cannot
be wrapped.  The traced run then fails its correctness check rather than
report the target's counts as 0, which would read as a gain; a refactor
that renames a target updates this catalog with it.
"""

from __future__ import annotations

from typing import Any, Callable

from tracing import SpanRecorder, SpanSummary

#: Packages whose module attributes and defaults are rebound.
PACKAGES = ("repro.",)

#: Layers whose self share is reported, in report order.
LAYERS = ("crypto", "encoding", "messages", "sim", "contracts", "core", "ethchain", "client")

# (module, function or Class.method, span name, options)
FUNCTIONS: list[tuple[str, str, str, dict[str, Any]]] = [
    ("repro.crypto.keccak", "keccak256", "crypto.keccak.keccak256", {}),
    ("repro.crypto.secp256k1", "scalar_multiply", "crypto.secp256k1.scalar_multiply", {}),
    ("repro.crypto.ecdsa", "sign_hash", "crypto.ecdsa.sign_hash", {}),
    ("repro.crypto.ecdsa", "recover_public_key", "crypto.ecdsa.recover_public_key", {}),
    ("repro.crypto.ecdsa", "verify_hash", "crypto.ecdsa.verify_hash", {}),
    ("repro.crypto.hashing", "fast_hash", "crypto.hashing.fast_hash", {}),
    ("repro.crypto.hashing", "combine_hashes", "crypto.hashing.combine_hashes", {}),
    ("repro.crypto.fingerprint", "canonical_bytes", "crypto.fingerprint.canonical_bytes",
     {"reentrant": False}),
    ("repro.crypto.fingerprint", "fingerprint_state", "crypto.fingerprint.fingerprint_state", {}),
    ("repro.crypto.fingerprint", "snapshot_fingerprint",
     "crypto.fingerprint.snapshot_fingerprint", {}),
    ("repro.crypto.keys", "recover_address", "crypto.keys.recover_address", {}),
    ("repro.encoding.canonical_json", "dumps", "encoding.canonical.dumps", {"measure": len}),
    ("repro.encoding.canonical_json", "dump_bytes", "encoding.canonical.dump_bytes",
     {"measure": len}),
    ("repro.encoding.canonical_json", "loads", "encoding.canonical.loads", {}),
    ("repro.encoding.rlp", "encode", "encoding.rlp.encode", {"reentrant": False}),
    ("repro.encoding.rlp", "decode", "encoding.rlp.decode", {}),
    ("repro.messages.signer", "verify_signature", "messages.signer.verify_signature", {}),
    ("repro.contracts.state_store", "_entry_digest", "contracts.store.entry_digest", {}),
    ("repro.client.workload", "run_mixed_operations", "client.workload.run_mixed_operations", {}),
    ("repro.chaos.runner", "check_scenario", "chaos.runner.check_scenario", {}),
    ("repro.chaos.runner", "run_scenario", "chaos.runner.run_scenario", {}),
    ("repro.chaos.runner", "run_replay_oracle", "chaos.runner.run_replay_oracle", {}),
    ("repro.chaos.runner", "run_differential_oracle", "chaos.runner.run_differential_oracle", {}),
    ("repro.audit.oracles", "run_audit_oracle", "audit.oracles.run_audit_oracle", {}),
    ("repro.audit.oracles", "run_conservation_oracle", "audit.oracles.run_conservation_oracle",
     {}),
]

METHODS: list[tuple[str, str, str, dict[str, Any]]] = [
    ("repro.crypto.keys", "PrivateKey.from_seed", "crypto.keys.from_seed", {}),
    ("repro.crypto.keys", "Address.from_public_key", "crypto.keys.from_public_key", {}),
    ("repro.crypto.merkle", "MerkleTree.__init__", "crypto.merkle.build", {}),
    ("repro.messages.envelope", "Envelope.create", "messages.envelope.create", {}),
    ("repro.messages.envelope", "Envelope.verify", "messages.envelope.verify", {}),
    ("repro.messages.envelope", "Envelope.wire_bytes", "messages.envelope.wire_bytes", {}),
    ("repro.messages.envelope", "Envelope.byte_size", "messages.envelope.byte_size", {}),
    ("repro.messages.envelope", "Envelope.to_wire", "messages.envelope.to_wire", {}),
    ("repro.messages.envelope", "Envelope.from_wire", "messages.envelope.from_wire", {}),
    ("repro.messages.envelope", "NonceFactory.next", "messages.envelope.next_nonce", {}),
    ("repro.messages.payload", "Payload.canonical_bytes", "messages.payload.canonical_bytes", {}),
    ("repro.messages.payload", "Payload.to_dict", "messages.payload.to_dict", {}),
    ("repro.messages.payload", "Payload.from_dict", "messages.payload.from_dict", {}),
    ("repro.messages.signer", "SimulatedSigner.sign", "messages.signer.sim_sign", {}),
    ("repro.messages.signer", "SimulatedSigner.verify", "messages.signer.sim_verify", {}),
    ("repro.messages.signer", "EcdsaSigner.sign", "messages.signer.ecdsa_sign", {}),
    ("repro.sim.environment", "Environment.step", "sim.kernel.step", {}),
    ("repro.sim.network", "Network.send", "sim.network.send", {}),
    ("repro.sim.rng", "SeedSequence.seed_for", "sim.rng.seed_for", {}),
    ("repro.contracts.state_store", "KeyValueStore.get", "contracts.store.get", {}),
    ("repro.contracts.state_store", "KeyValueStore.put", "contracts.store.put", {}),
    ("repro.contracts.state_store", "KeyValueStore.increment", "contracts.store.increment", {}),
    ("repro.contracts.state_store", "KeyValueStore.delete", "contracts.store.delete", {}),
    ("repro.contracts.state_store", "KeyValueStore.recompute_fingerprint",
     "contracts.store.recompute_fingerprint", {}),
    ("repro.contracts.interface", "BContract.invoke", "contracts.bcontract.invoke", {}),
    ("repro.contracts.interface", "BContract.query", "contracts.bcontract.query", {}),
    ("repro.core.cell", "BlockumulusCell._on_message", "core.cell.on_message", {}),
    ("repro.core.ledger", "TransactionLedger.admit", "core.ledger.admit", {}),
    ("repro.core.ledger", "TransactionLedger.mark_executed", "core.ledger.mark_executed", {}),
    ("repro.core.batching", "BatchDispatcher.queue_forward", "core.batching.queue_forward", {}),
    ("repro.core.batching", "BatchDispatcher.queue_confirmation",
     "core.batching.queue_confirmation", {}),
    ("repro.core.batching", "BatchDispatcher._flush", "core.batching.flush", {}),
    ("repro.core.receipts", "Confirmation.create", "core.receipts.confirmation_create", {}),
    ("repro.core.receipts", "Confirmation.verify", "core.receipts.confirmation_verify", {}),
    ("repro.core.receipts", "AggregatedReceipt.verify", "core.receipts.receipt_verify", {}),
    ("repro.core.lanes", "LaneScheduler.acquire", "core.lanes.acquire", {}),
    ("repro.core.lanes", "LaneScheduler.release", "core.lanes.release", {}),
    ("repro.core.executor", "TransactionExecutor.execute", "core.executor.execute", {}),
    ("repro.core.deployment", "BlockumulusDeployment.__init__", "core.deployment.build", {}),
    ("repro.core.sharding", "ShardedDeployment.__init__", "core.sharding.build", {}),
    ("repro.ethchain.transaction", "EthTransaction.hash", "ethchain.transaction.hash", {}),
    ("repro.ethchain.transaction", "EthTransaction.sign", "ethchain.transaction.sign", {}),
    ("repro.ethchain.block", "BlockHeader.hash", "ethchain.block.hash", {}),
    ("repro.ethchain.chain", "Blockchain.apply_block", "ethchain.chain.apply_block", {}),
    ("repro.ethchain.node", "EthereumNode.submit_transaction", "ethchain.node.submit", {}),
    ("repro.client.client", "BlockumulusClient._on_message", "client.client.on_message", {}),
    ("repro.client.client", "BlockumulusClient.submit", "client.client.submit", {}),
    ("repro.audit.auditor", "Auditor._on_message", "audit.auditor.on_message", {}),
]

#: Names of the spans behind the per-layer metrics.
WRITES = ("contracts.store.put", "contracts.store.increment", "contracts.store.delete")
STORE_FINGERPRINTS = ("contracts.store.entry_digest", "contracts.store.recompute_fingerprint")
ENCODES = ("encoding.canonical.dumps", "encoding.canonical.dump_bytes")
FINGERPRINT_GROUP = (
    "crypto.fingerprint.canonical_bytes",
    "crypto.fingerprint.fingerprint_state",
    "crypto.fingerprint.snapshot_fingerprint",
)


def group_of(name: str) -> str:
    """``layer.module`` of a span name."""
    return name.rsplit(".", 1)[0]


def _layer_of_module(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "other"


def _process_namer() -> Callable[..., str]:
    names: dict[Any, str] = {}

    def name_of(process: Any, _event: Any = None) -> str:
        generator = process._generator
        code = generator.gi_code
        name = names.get(code)
        if name is None:
            frame = generator.gi_frame
            module = frame.f_globals.get("__name__", "") if frame is not None else ""
            name = names[code] = f"{_layer_of_module(module)}.process.{code.co_name}"
        return name

    return name_of


def install(recorder: SpanRecorder) -> None:
    """Wrap every catalogued function and method."""
    for module, attribute, name, options in FUNCTIONS:
        recorder.patch_function(
            module, attribute,
            lambda function, n=name, o=options: recorder.wrap(function, n, **o), name)
    for module, qualname, name, options in METHODS:
        recorder.patch_method(
            module, qualname,
            lambda function, n=name, o=options: recorder.wrap(function, n, **o), name)
    namer = _process_namer()
    recorder.patch_method(
        "repro.sim.events", "Process._resume",
        lambda function: recorder.wrap(function, namer), "sim.process.resume")


def per_layer_metrics(summary: SpanSummary, counters: dict[str, int], ops: int,
                      units: int, wall_ns: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    ``ops`` is the per-op denominator (committed transactions on bursts,
    scenarios on chaos); ``units`` counts scenarios (a burst is one);
    ``wall_ns`` is the traced host wall of the timed phases.
    """
    s = summary

    def calls(*names: str) -> int:
        return s.total(names, "calls")

    def per_op(value: float) -> float:
        return value / ops

    def mean_us(names: tuple[str, ...], attribute: str = "inclusive_ns") -> float:
        count = calls(*names)
        return s.total(names, attribute) / count / 1e3 if count else 0.0

    def stage_s(name: str) -> float:
        return s.get(name).inclusive_ns / units / 1e9

    encoded_bytes = s.total(ENCODES, "outer_quantity")
    encode_ns = s.total(ENCODES, "outer_inclusive_ns")
    writes = calls(*WRITES)
    wall = wall_ns or 1
    metrics = {
        "crypto.keccak.calls_per_op": per_op(calls("crypto.keccak.keccak256")),
        "crypto.keccak.us_per_call": mean_us(("crypto.keccak.keccak256",)),
        "crypto.secp256k1.scalar_mults_per_op": per_op(calls("crypto.secp256k1.scalar_multiply")),
        "crypto.secp256k1.us_per_scalar_mult": mean_us(("crypto.secp256k1.scalar_multiply",)),
        "crypto.ecdsa.sign_us": mean_us(("crypto.ecdsa.sign_hash",)),
        "crypto.ecdsa.recover_us": mean_us(("crypto.ecdsa.recover_public_key",)),
        "crypto.fast_hash.calls_per_op": per_op(calls("crypto.hashing.fast_hash")),
        "crypto.fingerprint.calls_per_op": per_op(s.total(FINGERPRINT_GROUP, "outer_calls")),
        "encoding.canonical.encodes_per_op": per_op(s.total(ENCODES, "outer_calls")),
        "encoding.canonical.bytes_per_op": per_op(encoded_bytes),
        "encoding.canonical.us_per_kb": (
            encode_ns / 1e3 / (encoded_bytes / 1024) if encoded_bytes else 0.0),
        "messages.envelope.creates_per_op": per_op(calls("messages.envelope.create")),
        "messages.envelope.verifies_per_op": per_op(calls("messages.envelope.verify")),
        "messages.envelope.wire_encodes_per_op": per_op(calls("messages.envelope.wire_bytes")),
        "messages.payload.encodes_per_op": per_op(calls("messages.payload.canonical_bytes")),
        "sim.kernel.events_per_op": per_op(calls("sim.kernel.step")),
        "sim.kernel.us_per_event": mean_us(("sim.kernel.step",), "self_ns"),
        "sim.network.messages_per_op": per_op(counters["network_messages"]),
        "sim.network.bytes_per_op": per_op(counters["network_bytes"]),
        "contracts.store.writes_per_op": per_op(writes),
        "contracts.store.fingerprints_per_op": per_op(calls(*STORE_FINGERPRINTS)),
        "contracts.store.us_per_write": mean_us(WRITES),
        "core.batching.mean_batch_size": (
            counters["items_coalesced"] / counters["batches_sent"]
            if counters["batches_sent"] else 0.0),
        "core.lanes.conflict_deferrals_per_op": per_op(counters["conflict_deferrals"]),
        "core.ledger.admits_per_op": per_op(calls("core.ledger.admit")),
        "core.receipts.confirmation_verifies_per_op": per_op(
            calls("core.receipts.confirmation_verify")),
        "ethchain.tx_hashes_per_scenario": calls("ethchain.transaction.hash") / units,
        "ethchain.block_hashes_per_scenario": calls("ethchain.block.hash") / units,
        "chaos.stage.run_s": s.child_inclusive_ns(
            "chaos.runner.check_scenario", "chaos.runner.run_scenario") / units / 1e9,
        "chaos.stage.replay_s": stage_s("chaos.runner.run_replay_oracle"),
        "chaos.stage.differential_s": stage_s("chaos.runner.run_differential_oracle"),
        "audit.stage.audit_s": stage_s("audit.oracles.run_audit_oracle"),
        "audit.stage.conservation_s": stage_s("audit.oracles.run_conservation_oracle"),
        "trace.unattributed_share": max(0.0, 1.0 - s.covered_ns / wall),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = s.self_ns_by_prefix(layer + ".") / wall
    return metrics
