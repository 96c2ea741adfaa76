"""Count the ladder steps the attack cells of two benchmark workloads drive per key.

    python3 tools/steps_per_key.py --seed 1 --keys 20          # this checkout
    python3 tools/steps_per_key.py --root OTHER_CHECKOUT        # another one

Every loop in ladderlab runs through `ladders.drive`, which the runners and
the oracles import by name, so each of those names is replaced by a wrapper
that counts the calls to the step it is given.  A pinned key tail that an
oracle answers without `drive` (`Target.tail`) drives no step; it is
counted apart, by wrapping the `tail` of every target `attacks.exp_step`
and `attacks.ecc_step` build.  Semi's and fully's exp tails run their
iterations one by one off their link (`modexp._linked_tail`'s `unlinked`),
and those iterations are counted apart again, as loop iterations.  Each
seeded or valued fault an oracle resolves is a call of
`faults.RegisterFault.pick`, which is wrapped to count picks; a fault that
no output can see is dropped unpicked (`Target.seen`).  The
keys and cell seeds are those `bench/workloads.py` draws for
`attack-matrix` (its ten exp cells) and `ecc-ladders` (its three ECC attack
cells, not its five direct ladders) from `--seed`.  The counts are
deterministic: they measure the work an oracle skips, free of the timing
noise of `bench/run.py`.  Prints one JSON object: per workload,
`steps_per_key`, `tails_per_key`, `loops_per_key` and `picks_per_key`, and
`steps_per_cell`, `tails_per_cell`, `loops_per_cell` and `picks_per_cell`,
one number per listed cell, so a changed total shows which cell moved and
where the skipped steps went.
"""

import argparse
import importlib
import json
import os
import sys

MODULES_WITH_DRIVE = ("ladders", "modexp", "ecc", "attacks")


def count_steps(root, seed, keys):
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    workloads = importlib.import_module("workloads")
    from spans import NullTracer

    lib = workloads.load_lib("ladderlab")
    steps, tails, loops, picks = [0], [0], [0], [0]

    def counting(drive):
        def wrapped(bits, x, y, step, **kw):
            def counted(bit, x, y):
                steps[0] += 1
                return step(bit, x, y)

            return drive(bits, x, y, counted, **kw)

        return wrapped

    for name in MODULES_WITH_DRIVE:
        module = importlib.import_module(f"ladderlab.{name}")
        module.drive = counting(module.drive)

    def counting_tails(build):
        def wrapped(*args, **kw):
            target = build(*args, **kw)
            if target.tail is None:
                return target

            def counted(*args):
                out = target.tail(*args)
                tails[0] += 1
                return out

            return target._replace(tail=counted)

        return wrapped

    def counting_loops(linked_tail):
        def wrapped(a, s, n, unlinked, *rest):
            def counted(bit, k, x, y):
                loops[0] += k
                return unlinked(bit, k, x, y)

            return linked_tail(a, s, n, counted, *rest)

        return wrapped

    lib.attacks.exp_step = counting_tails(lib.attacks.exp_step)
    lib.attacks.ecc_step = counting_tails(lib.attacks.ecc_step)
    lib.modexp._linked_tail = counting_loops(lib.modexp._linked_tail)
    fault = importlib.import_module("ladderlab.faults").RegisterFault
    pick = fault.pick

    def counting_pick(self, current, draw):
        picks[0] += 1
        return pick(self, current, draw)

    fault.pick = counting_pick

    out = {}
    matrix = workloads.AttackMatrix(lib, seed, pool_size=keys)
    ecc = workloads.EccLadders(lib, seed, pool_size=keys)
    ecc.setup(NullTracer())
    for name, cells, inputs, bundle in (
        ("attack-matrix", workloads.EXP_CELLS, matrix.inputs, None),
        ("ecc-ladders", workloads.ECC_CELLS, [i[:2] for i in ecc.inputs], ecc.bundle),
    ):
        per_cell, tails_per_cell, loops_per_cell, picks_per_cell = ([0] * len(cells) for _ in range(4))
        for key, seeds in inputs:
            run = workloads._run_cells(lib.attacks, cells, key, seeds, NullTracer(), bundle)
            for cell in range(len(cells)):  # the generator yields once after each cell
                steps[0] = tails[0] = loops[0] = picks[0] = 0
                next(run)
                per_cell[cell] += steps[0]
                tails_per_cell[cell] += tails[0]
                loops_per_cell[cell] += loops[0]
                picks_per_cell[cell] += picks[0]
            reports = workloads.run_to_end(run)
            if not all(workloads._cell_ok(m, t, r, key) for (m, t), r in zip(cells, reports)):
                raise SystemExit(f"{name}: a cell gave the wrong outcome")
        out[name] = {"cells": [f"m{m}.{t}" for m, t in cells], "steps_per_key": sum(per_cell) / keys,
                     "steps_per_cell": [n / keys for n in per_cell],
                     "tails_per_key": sum(tails_per_cell) / keys,
                     "tails_per_cell": [n / keys for n in tails_per_cell],
                     "loops_per_key": sum(loops_per_cell) / keys,
                     "loops_per_cell": [n / keys for n in loops_per_cell],
                     "picks_per_key": sum(picks_per_cell) / keys,
                     "picks_per_cell": [n / keys for n in picks_per_cell]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        help="checkout to measure (default: this one)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--keys", type=int, default=20)
    args = parser.parse_args()
    result = count_steps(os.path.abspath(args.root), args.seed, args.keys)
    print(json.dumps({"seed": args.seed, "keys": args.keys, **result}))


if __name__ == "__main__":
    main()
