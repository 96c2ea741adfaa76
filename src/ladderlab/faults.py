"""Declarative fault plans consumed by the ladder runners.

Register faults overwrite a register between two loop iterations; key
stuck-at faults pin the bits a run reads, never the key itself.
"""

import random
from dataclasses import dataclass
from itertools import chain, islice, repeat


@dataclass(frozen=True)
class RegisterFault:
    """One register overwrite: explicit `value`, or a fresh draw seeded by `seed`."""

    target: str  # "x" or "y"
    iteration: int  # 1-based; applied just before this iteration executes
    value: object = None
    seed: int | None = None

    def __post_init__(self):
        if self.target not in ("x", "y"):
            raise ValueError(f"unknown register {self.target!r}")
        if self.value is None and self.seed is None:
            raise ValueError("random fault needs a seed")

    def pick(self, current, draw):
        """Resolve the injected value; random draws are resampled until != current."""
        if self.value is not None:
            return self.value
        rng = random.Random(self.seed)
        new = draw(rng)
        while new == current:
            new = draw(rng)
        return new


@dataclass(frozen=True)
class FaultPlan:
    register_faults: tuple = ()
    key_stuckat: tuple | None = None  # (threshold, bit): iterations > threshold read `bit`

    def __post_init__(self):
        if self.key_stuckat is not None:
            threshold, bit = self.key_stuckat
            if bit not in (0, 1):
                raise ValueError("stuck-at bit must be 0 or 1")
            if threshold < 0:
                raise ValueError("stuck-at threshold must be >= 0")

    def validate(self, nbits: int) -> None:
        seen = set()
        for f in self.register_faults:
            if not 1 <= f.iteration <= nbits:
                raise ValueError(f"fault iteration {f.iteration} outside [1, {nbits}]")
            key = (f.target, f.iteration)
            if key in seen:
                raise ValueError(f"duplicate fault on {key}")
            seen.add(key)
        if self.key_stuckat is not None and self.key_stuckat[0] > nbits:
            raise ValueError("stuck-at threshold beyond key length")

    def bit(self, i: int, bits) -> int:
        """Effective key bit consumed at iteration i (1-based)."""
        if self.key_stuckat is not None and i > self.key_stuckat[0]:
            return self.key_stuckat[1]
        return bits[i - 1]

    def effective_bits(self, bits, start=0, stop=None):
        """The bits iterations start + 1 .. stop (default: all) consume, `bit` for each, lazily."""
        stop = len(bits) if stop is None else stop
        threshold, bit = self.key_stuckat or (stop, 0)
        if start >= threshold:  # a resumed run mostly starts in the pinned tail
            return repeat(bit, stop - start)
        head = islice(bits, start, min(threshold, stop))
        return head if stop <= threshold else chain(head, repeat(bit, stop - threshold))

    def apply(self, i: int, x, y, draw):
        """Return the (x, y) register pair after the faults targeting iteration i."""
        for f in self.register_faults:
            if f.iteration != i:
                continue
            if f.target == "x":
                x = f.pick(x, draw)
            else:
                y = f.pick(y, draw)
        return x, y
