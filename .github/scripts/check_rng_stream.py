"""Fail unless semi's per-iteration draws are CPython's `randrange` stream.

    python .github/scripts/check_rng_stream.py

Semi's fresh masks come from `modexp._below(n, rng)` and ECC semi's fresh
coefficients from `ecc._semi_coef(order, rng)`, which run the loop of
CPython's `Random._randbelow_with_getrandbits` without its frames.  On
twin `random.Random` instances with equal seeds, each must give the values
`rng.randrange(n)` gives (for a coefficient, redrawn while it is 0 or 2),
draw for draw, and leave the RNG in the same state.  The attack goldens
pin outputs that depend on every mask drawn, so a Python whose `randrange`
ran another loop would change them.  Standard library only, so that it
runs on every Python the package supports; tests/test_rng_stream.py runs
the same cases under pytest.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from ladderlab.ecc import _semi_coef
from ladderlab.modexp import _below

DRAWS = 2000
MODULI = (1, 2, 3, 97, 2**16 - 1, 2**16, 2**16 + 1, 2**64 - 1, 2**64, 2**64 + 1, 1_000_003,
          2**2047 + 2**1023 + 1)
# the 256-bit order is that of the secp256k1 base point
ORDERS = (3, 16, 97, 971, 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141)


def _randrange_coef(order, rng):
    c = rng.randrange(order)
    while c in (0, 2):
        c = rng.randrange(order)
    return c


def _label(n):
    if n < 10**7:
        return str(n)
    near = [(n - p, p.bit_length() - 1) for p in (1 << n.bit_length() - 1, 1 << n.bit_length())]
    return next((f"2^{k}{d:+d}" for d, k in near if abs(d) < 10**7), f"{n.bit_length()}-bit")


def cases():
    """(name, build(rng) -> draw, reference(rng) -> value) for every checked n and order."""
    out = [(f"_below({_label(n)})", lambda rng, n=n: _below(n, rng),
            lambda rng, n=n: rng.randrange(n)) for n in MODULI]
    out += [(f"_semi_coef({_label(order)})", lambda rng, order=order: _semi_coef(order, rng),
             lambda rng, order=order: _randrange_coef(order, rng)) for order in ORDERS]
    return out


def mismatch(build, reference, seed=2024):
    """None if `build(rng)` draws what `reference(rng)` does and ends in its state, else why not."""
    ours, theirs = random.Random(seed), random.Random(seed)
    draw = build(ours)
    for i in range(DRAWS):
        got, want = draw(), reference(theirs)
        if got != want:
            return f"draw {i} gave {got}, randrange gave {want}"
    if ours.getstate() != theirs.getstate():
        return f"values agree over {DRAWS} draws, but the RNG states differ"
    return None


def main():
    failures = [f"{name}: {why}" for name, build, reference in cases()
                if (why := mismatch(build, reference)) is not None]
    print("\n".join(failures) or f"{len(cases())} draws match randrange over {DRAWS} values "
          f"each on Python {sys.version.split()[0]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
