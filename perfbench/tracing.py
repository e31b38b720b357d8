"""Per-layer spans for the traced run.

The tracer replaces netpad's public functions with timing wrappers at run
time; nothing in the package changes.  Spans nest: each span adds its
duration to its parent's child time, so a layer's self time is its
duration minus the traced calls inside it.  Durations are process CPU
time, like the end-to-end timings.  Values are recorded only
while ``recording`` is on, which the harness sets for the timed part of
an operation, so set-up and correctness checks leave no samples.

The sampler's peak memory is not taken inside the timed spans: tracemalloc
slows every Python allocation.  ``end_op`` replays the operation's largest
sampler call once, untimed, under tracemalloc.
"""

from __future__ import annotations

import functools
import os
import statistics
import tracemalloc
from collections import defaultdict
from time import process_time

import netpad.adversary
import netpad.amplify
import netpad.gf2
import netpad.keystore_io
import netpad.permutation
import netpad.predistribution
import netpad.secure_check

# Metrics a traced run reports: name -> (unit, kind).  "call" metrics are
# the median over calls, "op" metrics the median over operations of a
# per-operation total, "replay" metrics the median over operations of an
# untimed replay.  A layer a workload never calls reads 0.
LAYER_METRICS = {
    "cli.encrypt_ms": ("ms", "call"),
    "cli.decrypt_ms": ("ms", "call"),
    "cli.self_ms": ("ms", "call"),
    "keystore_io.save_ms": ("ms", "call"),
    "keystore_io.load_ms": ("ms", "call"),
    "keystore_io.save_node_view_ms": ("ms", "call"),
    "keystore_io.load_node_view_ms": ("ms", "call"),
    "keystore_io.bytes_written": ("bytes", "op"),
    "predistribution.generate_ms": ("ms", "call"),
    "permutation.permute_calls": ("count", "op"),
    "amplify.encrypt_ms": ("ms", "call"),
    "amplify.decrypt_ms": ("ms", "call"),
    "amplify.sampling_matrix_ms": ("ms", "call"),
    "amplify.sampling_matrix_peak_mb": ("MB", "replay"),
    "amplify.codec_ms": ("ms", "call"),
    "gf2.from_dense_ms": ("ms", "call"),
    "gf2.mul_ms": ("ms", "call"),
    "gf2.rank_ms": ("ms", "call"),
    "secure_check.check_exact_ms": ("ms", "call"),
    "secure_check.check_feasibility_ms": ("ms", "call"),
    "secure_check.check_relaxed_ms": ("ms", "call"),
    "adversary.build_security_matrix_ms": ("ms", "call"),
    "adversary.key_rows": ("count", "op"),
}


class Tracer:
    def __init__(self):
        self.recording = False
        self._calls = defaultdict(list)
        self._per_op = defaultdict(list)
        self._op_counts = defaultdict(int)
        self._stack: list[float] = []
        self._sampler_args: list[tuple] = []
        self._originals = []

    # -- recording ------------------------------------------------------

    def call(self, name, fn, *args, self_name=None, **kwargs):
        """Run fn as a span; record its time under name and its self time
        under self_name (either may be None)."""
        if not self.recording:
            return fn(*args, **kwargs)
        self._stack.append(0.0)
        t0 = process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = process_time() - t0
            child = self._stack.pop()
            if self._stack:
                self._stack[-1] += dt
            if name:
                self._calls[name].append(dt * 1e3)
            if self_name:
                self._calls[self_name].append((dt - child) * 1e3)

    def count(self, name, k=1) -> None:
        if self.recording:
            self._op_counts[name] += k

    def end_op(self) -> None:
        """Close one operation's per-operation totals, and replay its
        largest sampler call (by matrix size) to take its peak memory.  Call
        it outside the timed part, with recording off."""
        for name, (_, kind) in LAYER_METRICS.items():
            if kind == "op":
                self._per_op[name].append(self._op_counts.get(name, 0))
        self._op_counts.clear()
        if self._sampler_args:
            args = max(self._sampler_args, key=lambda a: a[0] * a[1])
            self._sampler_args.clear()
            tracemalloc.start()
            try:
                self._sampler(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self._per_op["amplify.sampling_matrix_peak_mb"].append(peak / 1e6)

    def metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name, (unit, kind) in LAYER_METRICS.items():
            values = self._calls[name] if kind == "call" else self._per_op[name]
            out[name] = (statistics.median(values) if values else 0.0, unit)
        return out

    # -- patching ---------------------------------------------------------

    def _replace(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        if isinstance(original, classmethod):
            func = original.__func__
            setattr(owner, attr, classmethod(functools.wraps(func)(
                lambda cls, *a, **k: wrapper(functools.partial(func, cls), *a, **k))))
        else:
            setattr(owner, attr, functools.wraps(original)(
                lambda *a, **k: wrapper(original, *a, **k)))

    def timed(self, owner, attr, name=None, self_name=None, after=None):
        def wrapper(fn, *args, **kwargs):
            result = self.call(name, fn, *args, self_name=self_name, **kwargs)
            if after is not None:
                after(result, args)
            return result
        self._replace(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every layer the workloads reach."""
        io, amp, gf2 = netpad.keystore_io, netpad.amplify, netpad.gf2

        def wrote(_result, args):
            self.count("keystore_io.bytes_written", os.path.getsize(args[-1]))

        self.timed(io, "save", "keystore_io.save_ms", after=wrote)
        self.timed(io, "save_node_view", "keystore_io.save_node_view_ms", after=wrote)
        self.timed(io, "load", "keystore_io.load_ms")
        self.timed(io, "load_node_view", "keystore_io.load_node_view_ms")
        self.timed(netpad.predistribution, "generate", "predistribution.generate_ms")

        def permute(fn, *args, **kwargs):
            self.count("permutation.permute_calls")
            return fn(*args, **kwargs)
        self._replace(netpad.permutation.PermutationFamily, "permute", permute)

        self.timed(amp, "encrypt", "amplify.encrypt_ms")
        self.timed(amp, "decrypt", "amplify.decrypt_ms")
        self.timed(amp.CipherText, "to_bytes", "amplify.codec_ms")
        self.timed(amp.CipherText, "from_bytes", "amplify.codec_ms")

        # The sampler is a pure function of its arguments (sizes, weight and
        # seed), so a replay allocates what the timed call did.
        self._sampler = amp.sampling_matrix

        def sampler(fn, *args):
            if self.recording:
                self._sampler_args.append(args)
            return self.call("amplify.sampling_matrix_ms", fn, *args)
        # adversary holds its own reference to the sampler.
        self._replace(amp, "sampling_matrix", sampler)
        self._replace(netpad.adversary, "sampling_matrix", sampler)

        self.timed(gf2.BitMatrix, "from_dense", "gf2.from_dense_ms")
        self.timed(gf2.BitMatrix, "mul", "gf2.mul_ms")
        self.timed(gf2.BitMatrix, "rank", "gf2.rank_ms")

        sc = netpad.secure_check
        self.timed(sc, "check_exact", "secure_check.check_exact_ms")
        self.timed(sc, "check_feasibility", "secure_check.check_feasibility_ms")
        self.timed(sc, "check_relaxed", "secure_check.check_relaxed_ms")
        self.timed(netpad.adversary, "build_security_matrix",
                   self_name="adversary.build_security_matrix_ms",
                   after=lambda w, _args: self.count("adversary.key_rows",
                                                     w.a_matrix.n_rows))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
