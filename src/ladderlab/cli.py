"""Command-line interface: exp, verify, attack, prob, ecc subcommands.

All randomness in a run is derived from one 64-bit seed (flag --seed, or
the LADDERLAB_SEED environment variable), so identical invocations give
byte-identical output.  Big integers cross the wire as decimal strings;
hex with an 0x prefix is accepted on input.
"""

import argparse
import csv
import io
import json
import os
import random
import sys
from fractions import Fraction

from . import attacks, ecc, modexp, residues
from .errors import LadderError
from .ladders import (
    DEFAULT_SWEEP_LIMIT, KeyBits, Trace, check_fully_equations, check_semi_equations, spec_from_json,
)


def _int(text: str) -> int:
    return int(text, 0)


def _positive(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _frac(f) -> str:
    return f"{f.numerator}/{f.denominator}"


def _seed_default() -> int:
    env = os.environ.get("LADDERLAB_SEED")
    return _int(env) if env else 0


def cmd_exp(args) -> tuple[dict, list | None]:
    rng = random.Random(args.seed)
    mask = modexp.MaskPolicy.parse(args.mask)
    key = KeyBits.from_int(args.k)
    constants = None
    if args.algo == "fully":
        if args.ell is not None:
            constants = modexp.ladder_constants(args.a, args.ell, args.n)
        else:
            constants = modexp.find_ladder_constant(args.a, args.n, rng)
    trace = Trace() if args.trace else None
    x, y = modexp.run_exp_algorithm(
        args.algo, args.a, key, args.n,
        constants=constants, mask=mask, rng=rng, trace=trace,
    )
    out = {"x": str(x)}
    if y is not None:
        out["y"] = str(y)
    if constants is not None:
        out["constants"] = {
            "ell": str(constants.constant),
            "xy_coef": str(constants.xy_coef),
            "sq_coef": str(constants.sq_coef),
            "sync_sq_coef": str(constants.sync_sq_coef),
            "sync_x_coef": str(constants.sync_x_coef),
            "draws": constants.draws,
        }
    if args.count_ops:
        cost = modexp.cost_per_bit(
            args.algo, args.a, key, args.n,
            mask=mask, constants=constants, rng=random.Random(args.seed),
        )
        out["cost_per_bit"] = {"mul": _frac(cost.mul), "sq": _frac(cost.sq), "add": _frac(cost.add)}
    if trace is not None:
        out["trace"] = {"x": [str(v) for v in trace.xs]}
        if trace.ys is not None:
            out["trace"]["y"] = [str(v) for v in trace.ys]
    return out, None


def cmd_verify(args) -> tuple[dict, list | None]:
    if args.spec == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.spec) as fh:
            doc = json.load(fh)
    ring, spec = spec_from_json(doc)
    if spec.sync_step is None:
        result = check_semi_equations(spec, ring, args.limit)
        kind = "semi"
    else:
        result = check_fully_equations(spec, ring, args.limit)
        kind = "fully"
    return {
        "kind": kind,
        "n": str(ring.n),
        "ok": result.ok,
        "counterexamples": [{"x": str(x), "equation": eq} for x, eq in result.counterexamples],
    }, None


def cmd_attack(args) -> tuple[dict, list | None]:
    rng = random.Random(args.seed)
    readable = ("x", "y") if args.readable == "both" else (args.readable,)
    curve_bundle = ecc.find_small_curve() if args.target in attacks.ECC_TARGETS else None
    trials = []
    claimed_total = 0
    correct_total = 0
    for t in range(args.trials):
        key = KeyBits.from_int(rng.getrandbits(args.bits), width=args.bits)
        oracle = attacks.make_oracle_for_target(
            args.target, key,
            seed=rng.getrandbits(64), readable=readable, curve_bundle=curve_bundle,
        )
        report = attacks.run_attack(
            args.model, args.target, oracle, random.Random(rng.getrandbits(64)), args.readable
        )
        scored = attacks.evaluate_report(report, key)
        correct = sum(1 for m in scored.matches_true_key if m)
        claimed = scored.claimed()
        claimed_total += claimed
        correct_total += correct
        trials.append({
            "trial": t,
            "key": "".join(str(b) for b in key.bits),
            "recovered": "".join("?" if b is None else str(b) for b in report.recovered),
            "claimed": claimed,
            "correct": correct,
            "oracle_calls": report.oracle_calls,
        })
    aggregate = {
        "model": args.model,
        "target": args.target,
        "trials": args.trials,
        "bits": args.bits,
        "claimed_bits": claimed_total,
        "correct_bits": correct_total,
        "accuracy": (correct_total / claimed_total) if claimed_total else None,
    }
    return {"aggregate": aggregate, "trials": trials}, trials


def _need(args, *names) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        # a usage error, reported by the subcommand's parser in main
        raise argparse.ArgumentError(None, f"mode {args.mode!r} requires {', '.join(missing)}")


def cmd_prob(args) -> tuple[dict, list | None]:
    if args.mode.startswith("dsa-"):
        _need(args, "n")
    elif args.mode.startswith("rsa-"):
        _need(args, "p", "q")
    else:
        _need(args, "p")
    if args.mode == "dsa-exact":
        suitable, total = residues.dsa_exhaustive_counts(args.n)
        formula = residues.dsa_probability_formula(args.n)
        return {
            "mode": args.mode,
            "n": str(args.n),
            "exact": f"{suitable}/{total}",
            "formula": _frac(formula),
            "match": Fraction(suitable, total) == formula,
        }, None
    if args.mode == "dsa-formula":
        return {
            "mode": args.mode,
            "n": str(args.n),
            "formula": _frac(residues.dsa_probability_formula(args.n)),
        }, None
    if args.mode == "rsa-bound":
        return {
            "mode": args.mode,
            "p": str(args.p),
            "q": str(args.q),
            "bound": _frac(residues.rsa_probability_bound(args.p, args.q)),
        }, None
    if args.mode == "rsa-sample":
        rng = random.Random(args.seed)
        freq, bound = residues.rsa_sampled_frequency(args.p, args.q, args.samples, rng)
        return {
            "mode": args.mode,
            "p": str(args.p),
            "q": str(args.q),
            "samples": args.samples,
            "frequency": _frac(freq),
            "bound": _frac(bound),
            "ge_bound": freq >= bound,
        }, None
    if args.mode == "gauss":
        census = residues.gauss_residue_census(args.p, args.r)
        return {
            "mode": args.mode,
            "p": str(args.p),
            "r": args.r,
            "b": census.b,
            "residue_count": census.residue_count,
            "roots_per_residue": {str(k): v for k, v in sorted(census.roots_per_residue.items())},
        }, None
    raise ValueError(f"unknown mode {args.mode!r}")


def _ecc_point_json(P) -> dict | str:
    if P.is_infinity:
        return "infinity"
    return {"x": str(P.x), "y": str(P.y)}


def cmd_ecc(args) -> tuple[dict, list | None]:
    curve = ecc.Curve(args.p, args.a, args.b, subgroup_order=args.order)
    A = ecc.Point(args.Ax % args.p, args.Ay % args.p)
    if not ecc.double_and_add(curve, args.order, A).is_infinity:
        raise ValueError(f"--order {args.order} times the base point is not the point at infinity")
    rng = random.Random(args.seed)
    params = None
    if args.algo == "semi":
        params = ecc.semi_params(args.cP, args.order)
    elif args.algo == "fully":
        params = ecc.fully_params(args.cP, args.order)
    ops = ecc.PointOps(curve)
    trace = Trace()
    P, Q = ecc.run_ecc_algorithm(
        args.algo, curve, A, KeyBits.from_int(args.k),
        params=params, fresh_coef=args.fresh_cP, rng=rng, trace=trace, ops=ops,
    )
    invariant_ok = None
    if Q is not None:
        # on a PointOps of its own, so the reported tallies are the run's alone
        link, _ = ecc.ladder_link(args.algo, ecc.PointOps(curve), A, params)
        invariant_ok = all(link(px) == py for px, py in zip(trace.xs, trace.ys))
    out = {
        "result": _ecc_point_json(P),
        "point_adds": ops.adds,
        "point_doubles": ops.doubles,
    }
    if Q is not None:
        out["companion"] = _ecc_point_json(Q)
        out["invariant_ok"] = invariant_ok
    if args.trace:
        out["trace"] = [_ecc_point_json(p) for p in trace.xs]
    return out, None


def _add_common(parser, top=False):
    # present on the root and on every subcommand so the position is free;
    # subcommand copies SUPPRESS their default to not stomp root values
    kw = {} if top else {"default": argparse.SUPPRESS}
    parser.add_argument("--seed", type=_int,
                        help="64-bit seed for all randomness (default: $LADDERLAB_SEED or 0)",
                        **({"default": None} if top else kw))
    parser.add_argument("--format", choices=("json", "csv", "jsonl"),
                        **({"default": "json"} if top else kw))
    parser.add_argument("--out", help="output path, '-' for stdout",
                        **({"default": "-"} if top else kw))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderlab",
        description="Interleaved ladders for modular exponentiation and ECC, "
        "fault-attack simulation, and ladder-constant analysis.",
    )
    _add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exp", help="run one exponentiation variant")
    p.add_argument("--algo", choices=modexp.ALGORITHMS, required=True)
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--mask", default="zero", help="zero | fixed:<m> | fresh")
    p.add_argument("--ell", type=_int, default=None, help="explicit ladder constant")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--count-ops", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_exp)

    p = sub.add_parser("verify", help="sweep the ladder equations of a JSON spec")
    p.add_argument("--spec", required=True, help="path to the spec JSON, '-' for stdin")
    p.add_argument("--limit", type=_int, default=DEFAULT_SWEEP_LIMIT)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("attack", help="run a fault-attack protocol over random keys")
    p.add_argument("--model", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--target", choices=attacks.EXP_TARGETS + attacks.ECC_TARGETS, required=True)
    p.add_argument("--bits", type=_positive, default=16)
    p.add_argument("--trials", type=_positive, default=10)
    p.add_argument("--readable", choices=("x", "y", "both"), default="both")
    _add_common(p)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("prob", help="ladder-constant probabilities and residue censuses")
    p.add_argument("--mode", choices=("dsa-exact", "dsa-formula", "rsa-bound", "rsa-sample", "gauss"),
                   required=True)
    p.add_argument("--n", type=_int)
    p.add_argument("--p", type=_int)
    p.add_argument("--q", type=_int)
    p.add_argument("--r", type=_positive, default=3)
    p.add_argument("--samples", type=_positive, default=10000)
    _add_common(p)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("ecc", help="run one scalar-multiplication variant")
    p.add_argument("--p", type=_int, required=True)
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--b", type=_int, required=True)
    p.add_argument("--Ax", type=_int, required=True)
    p.add_argument("--Ay", type=_int, required=True)
    p.add_argument("--order", type=_positive, required=True)
    p.add_argument("--algo", choices=("daa", "montgomery", "semi", "fully"), required=True)
    p.add_argument("--cP", type=_int, default=3)
    p.add_argument("--fresh-cP", action="store_true")
    p.add_argument("--k", type=_int, required=True)
    p.add_argument("--trace", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_ecc)

    for p in sub.choices.values():
        p.set_defaults(command_parser=p)  # reports the usage errors found after parsing
    return parser


def _emit(payload: dict, rows: list | None, fmt: str, out: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "jsonl":
        items = rows if rows is not None else [payload]
        text = "\n".join(json.dumps(item) for item in items) + "\n"
    else:
        items = rows if rows is not None else [payload]
        buf = io.StringIO()
        fieldnames = list(items[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for item in items:
            writer.writerow({k: json.dumps(v) if isinstance(v, (dict, list)) else v
                             for k, v in item.items()})
        text = buf.getvalue()
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = _seed_default()
    try:
        payload, rows = args.func(args)
    except argparse.ArgumentError as exc:
        args.command_parser.error(str(exc))
    except LadderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(payload, rows, args.format, args.out)
    return 0


def entrypoint() -> None:
    sys.exit(main())
