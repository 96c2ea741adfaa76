"""The four benchmark workloads.

A workload is built for one copy of the package, `lib` from `load_lib`:
the program under test (`ladderlab`) or the frozen copy of it taken when
the benchmark was defined (`ladderlab_seed`).  It draws a pool of inputs
from the seed before any timing; inputs never depend on the program under
test, so both copies get the same ones.  It then exposes one operation
(`run_op`, one unit of user work: a generator that yields after each call
into the package and returns the op's result, so that the caller can time
the op whole or interleave it step by step with the same op on the other
copy), an output check (`check`, never timed), the exact counts taken on
its first input (`counts`), and the per-layer metrics it derives from the
spans of a traced run (`layer_metrics`).  Calls into the package go through public
functions only; spans are recorded here, around those calls.
"""

import importlib
import math
import random
from fractions import Fraction
from statistics import median
from types import SimpleNamespace

from ladderlab_seed import modarith as seed_modarith
from ladderlab_seed import modexp as seed_modexp
from ladderlab_seed import residues as seed_residues
from ladderlab_seed.ladders import spec_to_json
from spans import NullTracer

MODULES = ("attacks", "ecc", "ladders", "modarith", "modexp", "residues")


def load_lib(package):
    """The modules the workloads call, imported from `package`."""
    lib = SimpleNamespace(package=package)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"{package}.{name}"))
    return lib


EXP_BITS = 2048
ATTACK_BITS = 64


def _fault_class(plan):
    if plan is not None and plan.register_faults:
        return "register"
    if plan is not None and plan.key_stuckat is not None:
        return "stuckat"
    return "none"


def _timed_oracle(oracle, layer, target, tracer):
    """Wrap `exe` on an oracle the benchmark built, one span per call."""
    exe = oracle.exe

    def timed(x_init=None, y_init=None, plan=None):
        with tracer.span(f"{layer}.oracle.{target}.{_fault_class(plan)}"):
            return exe(x_init, y_init, plan)

    oracle.exe = timed


def _run_cells(attacks, cells, key, seeds, tracer, curve_bundle=None):
    """One key through a list of (model, target) attack cells; returns the reports."""
    reports = []
    for (model, target), (oracle_seed, attack_seed) in zip(cells, seeds):
        with tracer.span("attacks.make_oracle"):
            oracle = attacks.make_oracle_for_target(
                target, key, seed=oracle_seed, curve_bundle=curve_bundle
            )
        if tracer.enabled:
            layer = "ecc" if target.startswith("ecc-") else "modexp"
            _timed_oracle(oracle, layer, target, tracer)
        attack_rng = random.Random(attack_seed)
        with tracer.span(f"attacks.run.m{model}.{target}"):
            reports.append(attacks.run_attack(model, target, oracle, attack_rng))
        yield
    return reports


def _trailing(bits):
    """Bits safe-error probing recovers from a half-coupled ladder: the trailing run."""
    out = [None] * len(bits)
    for i in range(len(bits) - 1, -1, -1):
        out[i] = bits[i]
        if bits[i] != bits[-1]:
            break
    return tuple(out)


def _cell_ok(model, target, report, key):
    """The vulnerability-matrix outcome each cell must show."""
    if model == 1 and target == "fully":
        return report.claimed() == 0
    if model == 2 and target == "fully":
        return report.claimed() == len(key)  # claims every bit, learns nothing
    if model == 1 and target == "semi":
        return report.recovered == _trailing(key.bits)
    return report.recovered == key.bits


def run_to_end(steps):
    """Drive an op's generator to the end; return the op's result."""
    while True:
        try:
            next(steps)
        except StopIteration as stop:
            return stop.value


def _spans_by_op(tracer, name):
    out = {}
    for s in tracer.spans:
        if s[0] == name:
            out[s[4]] = out.get(s[4], 0.0) + s[2] - s[1]
    return out


def _median_us(tracer, name_prefix):
    return median((s[2] - s[1]) * 1e6 for s in tracer.prefixed(name_prefix))


class ExpRsa:
    """2048-bit moduli: all five exponentiation ladders plus the pow() reference."""

    name = "exp-rsa"
    setup_code = "import ladderlab"
    pool_size = 256
    algorithms = ("sm", "sma", "montgomery", "semi", "fully")

    def __init__(self, lib, seed, pool_size=None):
        self.lib = lib
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = []
        for _ in range(pool_size or self.pool_size):
            n = rng.getrandbits(EXP_BITS) | (1 << (EXP_BITS - 1)) | 1
            while n % 3 == 0:  # 3 | n leaves no ladder constant with l^2 - 1 a unit
                n = rng.getrandbits(EXP_BITS) | (1 << (EXP_BITS - 1)) | 1
            a = rng.randrange(2, n - 1)
            k = rng.getrandbits(EXP_BITS) | (1 << (EXP_BITS - 1))
            key = lib.ladders.KeyBits.from_int(k)
            self.inputs.append((n, a, k, key, rng.getrandbits(64), rng.getrandbits(64)))

    def setup(self, tracer):
        pass

    def run_op(self, i, tracer):
        modexp = self.lib.modexp
        n, a, k, key, const_seed, mask_seed = self.inputs[i]
        const_rng, mask_rng = random.Random(const_seed), random.Random(mask_seed)
        span = tracer.span
        with span("modexp.find_ladder_constant"):
            constants = modexp.find_ladder_constant(a, n, const_rng)
        yield
        with span("builtin.pow"):
            pow(a, k, n)
        yield
        with span("modarith.modpow_reference"):
            ref = self.lib.modarith.modpow_reference(a, k, n)
        yield
        with span("modexp.sm"):
            sm = modexp.square_and_multiply(a, key, n)
        yield
        with span("modexp.sma"):
            sma = modexp.square_and_multiply_always(a, key, n)
        yield
        with span("modexp.montgomery"):
            mont = modexp.montgomery_ladder(a, key, n)
        yield
        with span("modexp.semi"):
            semi = modexp.semi_interleaved_exp(a, key, n, modexp.MaskPolicy.fresh(), mask_rng)
        yield
        with span("modexp.fully"):
            fully = modexp.fully_interleaved_exp(a, key, n, constants)
        yield
        return constants, ref, sm, sma, mont, semi, fully

    def check(self, i, result):
        n, a, k, _, _, _ = self.inputs[i]
        constants, ref, sm, sma, mont, semi, fully = result
        if ref != pow(a, k, n) or sm != ref:
            return False
        if any(pair[0] != ref for pair in (sma, mont, semi, fully)):
            return False
        links = ((mont, a), (semi, a), (fully, constants.constant))
        return all(y == scale * x % n for (x, y), scale in links)

    def counts(self):
        modexp = self.lib.modexp
        n, a, _, key, const_seed, mask_seed = self.inputs[0]
        constants = modexp.find_ladder_constant(a, n, random.Random(const_seed))
        out = {"modexp.constant_draws": constants.draws}
        for algo in self.algorithms:
            cost = modexp.cost_per_bit(
                algo, a, key, n, mask=modexp.MaskPolicy.fresh(), constants=constants,
                rng=random.Random(mask_seed),
            )
            for field in ("mul", "sq", "add"):
                out[f"modexp.{algo}.{field}_per_bit"] = float(getattr(cost, field))
        return out

    def layer_metrics(self, tracer):
        pow_by_op = _spans_by_op(tracer, "builtin.pow")
        out = {
            "modexp.find_ladder_constant.us": _median_us(tracer, "modexp.find_ladder_constant"),
            "modarith.modpow_reference.ms": _median_us(tracer, "modarith.modpow_reference") / 1e3,
        }
        for algo in self.algorithms:
            by_op = _spans_by_op(tracer, f"modexp.{algo}")
            out[f"modexp.{algo}.us_per_bit"] = median(by_op.values()) * 1e6 / EXP_BITS
            out[f"modexp.{algo}.ratio_to_pow"] = median(
                t / pow_by_op[op] for op, t in by_op.items()
            )
        return out


EXP_CELLS = (
    (1, "sma"), (1, "semi"), (1, "fully"),
    (2, "semi"), (2, "montgomery"), (2, "fully"),
    (3, "sma"), (3, "montgomery"), (3, "semi"), (3, "fully"),
)


def _attack_inputs(lib, rng, pool_size, ncells):
    """Per op: a 64-bit key and an (oracle seed, attack seed) pair for each cell."""
    return [
        (
            lib.ladders.KeyBits.from_int(rng.getrandbits(ATTACK_BITS), width=ATTACK_BITS),
            [(rng.getrandbits(64), rng.getrandbits(64)) for _ in range(ncells)],
        )
        for _ in range(pool_size)
    ]


class AttackMatrix:
    """64-bit keys through the ten exponentiation cells of the vulnerability matrix."""

    name = "attack-matrix"
    setup_code = "import ladderlab.attacks"
    pool_size = 1024

    def __init__(self, lib, seed, pool_size=None):
        self.lib = lib
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = _attack_inputs(lib, rng, pool_size or self.pool_size, len(EXP_CELLS))

    def setup(self, tracer):
        pass

    def run_op(self, i, tracer):
        key, seeds = self.inputs[i]
        return (yield from _run_cells(self.lib.attacks, EXP_CELLS, key, seeds, tracer))

    def check(self, i, reports):
        key = self.inputs[i][0]
        return all(_cell_ok(m, t, r, key) for (m, t), r in zip(EXP_CELLS, reports))

    def counts(self):
        key, _ = self.inputs[0]
        reports = run_to_end(self.run_op(0, NullTracer()))
        out = {f"attacks.m{m}.calls_per_key": 0 for m in (1, 2, 3)}
        correct = 0
        for (model, _), report in zip(EXP_CELLS, reports):
            out[f"attacks.m{model}.calls_per_key"] += report.oracle_calls
            scored = self.lib.attacks.evaluate_report(report, key)
            correct += sum(1 for hit in scored.matches_true_key if hit)
        out["attacks.bits_per_call"] = correct / sum(r.oracle_calls for r in reports)
        return out

    def layer_metrics(self, tracer):
        out = {"attacks.make_oracle.us": _median_us(tracer, "attacks.make_oracle")}
        for target in ("sma", "montgomery", "semi", "fully"):
            out[f"attacks.oracle.{target}.us_per_call"] = _median_us(
                tracer, f"modexp.oracle.{target}."
            )
        by_class = {}
        for s in tracer.prefixed("modexp.oracle."):
            by_class.setdefault(s[0].rsplit(".", 1)[1], []).append((s[2] - s[1]) * 1e6)
        for cls in ("none", "stuckat", "register"):
            out[f"faults.{cls}.us_per_call"] = median(by_class[cls])
        protocol = {}
        for s, self_time in zip(tracer.spans, tracer.self_times()):
            name = s[0]
            if name.startswith("attacks.run.") and not name.split(".")[-1].startswith("ecc-"):
                protocol[s[4]] = protocol.get(s[4], 0.0) + self_time
        out["attacks.protocol_self.us_per_key"] = median(protocol.values()) * 1e6
        return out


ECC_LADDERS = ("daa", "montgomery", "semi", "semi_fresh", "fully")
ECC_CELLS = ((3, "ecc-semi"), (3, "ecc-fully"), (2, "ecc-semi"))


def _timed_point_ops(ecc):
    """A `PointOps` tally of `ecc` that also records one span per addition and doubling."""

    class TimedPointOps(ecc.PointOps):
        def __init__(self, curve, tracer):
            super().__init__(curve)
            self.tracer = tracer

        def add(self, P, Q):
            with self.tracer.span("ecc.point_add"):
                return super().add(P, Q)

        def dbl(self, P):
            with self.tracer.span("ecc.point_double"):
                return super().dbl(P)

    return TimedPointOps


class EccLadders:
    """64-bit scalars on the small generated curve: five ladders and three attack cells."""

    name = "ecc-ladders"
    setup_code = "import ladderlab.attacks, ladderlab.ecc; ladderlab.ecc.find_small_curve()"
    pool_size = 256

    def __init__(self, lib, seed, pool_size=None):
        self.lib = lib
        rng = random.Random(f"{self.name}:{seed}")
        pool = _attack_inputs(lib, rng, pool_size or self.pool_size, len(ECC_CELLS))
        self.inputs = [(key, cell_seeds, rng.getrandbits(64)) for key, cell_seeds in pool]

    def setup(self, tracer):
        ecc = self.lib.ecc
        with tracer.span("ecc.find_small_curve"):
            self.bundle = ecc.find_small_curve()
        curve, A, order = self.bundle
        self.timed_ops = _timed_point_ops(ecc)
        self.semi = ecc.semi_params(3, order)
        self.fully = ecc.fully_params(3, order)
        wA = ecc.double_and_add(curve, self.fully.link_scale, A)

        # Q as a function of P at every loop boundary, per ladder
        def semi_link(P):
            return ecc.point_neg(curve, ecc.point_add(curve, P, A))

        self.links = {
            "montgomery": lambda P: ecc.point_add(curve, P, A),
            "semi": semi_link,
            "semi_fresh": semi_link,
            "fully": lambda P: ecc.point_add(curve, P, wA),
        }

    def _ladders(self, i, tracer, make_ops):
        ecc = self.lib.ecc
        curve, A, _ = self.bundle
        key, _, fresh_seed = self.inputs[i]
        kwargs = {
            "daa": ("daa", {}),
            "montgomery": ("montgomery", {}),
            "semi": ("semi", {"params": self.semi}),
            "semi_fresh": ("semi", {"params": self.semi, "fresh_coef": True,
                                    "rng": random.Random(fresh_seed)}),
            "fully": ("fully", {"params": self.fully}),
        }
        out = {}
        for name in ECC_LADDERS:
            algo, kw = kwargs[name]
            trace, ops = self.lib.ladders.Trace(), make_ops()
            with tracer.span(f"ecc.run.{name}"):
                P, _ = ecc.run_ecc_algorithm(algo, curve, A, key, trace=trace, ops=ops, **kw)
            out[name] = (P, trace, ops)
            yield
        return out

    def run_op(self, i, tracer):
        curve = self.bundle[0]
        if tracer.enabled:
            ladders = yield from self._ladders(i, tracer, lambda: self.timed_ops(curve, tracer))
        else:
            ladders = yield from self._ladders(i, tracer, lambda: None)
        key, cell_seeds, _ = self.inputs[i]
        reports = yield from _run_cells(
            self.lib.attacks, ECC_CELLS, key, cell_seeds, tracer, self.bundle
        )
        return ladders, reports

    def check(self, i, result):
        curve, A, _ = self.bundle
        key = self.inputs[i][0]
        ladders, reports = result
        ref = self.lib.ecc.double_and_add(curve, key.to_int(), A)
        for name, (P, trace, _) in ladders.items():
            if P != ref:
                return False
            link = self.links.get(name)
            if link and any(link(px) != py for px, py in zip(trace.xs, trace.ys)):
                return False
        return all(_cell_ok(m, t, r, key) for (m, t), r in zip(ECC_CELLS, reports))

    def counts(self):
        curve = self.bundle[0]
        ladders = run_to_end(self._ladders(0, NullTracer(), lambda: self.lib.ecc.PointOps(curve)))
        return {
            f"ecc.{name}.point_ops_per_bit": (ops.adds + ops.doubles) / ATTACK_BITS
            for name, (_, _, ops) in ladders.items()
        }

    def layer_metrics(self, tracer):
        out = {
            "ecc.point_add.us": _median_us(tracer, "ecc.point_add"),
            "ecc.point_double.us": _median_us(tracer, "ecc.point_double"),
            "ecc.find_small_curve.ms": _median_us(tracer, "ecc.find_small_curve") / 1e3,
        }
        for target in ("ecc-semi", "ecc-fully"):
            out[f"ecc.oracle.{target}.us_per_call"] = _median_us(tracer, f"ecc.oracle.{target}.")
        return out


def _primes(lo, hi):
    return [p for p in range(lo, hi + 1) if seed_modarith.is_probable_prime(p)]


def _next_prime(n):
    while not seed_modarith.is_probable_prime(n):
        n += 1
    return n


def _prime_near(rng, lo, hi):
    return _next_prime(rng.randrange(lo, hi))


def _strata(rng, lo, hi, k):
    """One integer from each of k equal slices of [lo, hi): every op does about the same work."""
    width = (hi - lo) // k
    return [rng.randrange(lo + j * width, lo + (j + 1) * width) for j in range(k)]


# n of the equation sweeps: many tiny grids and a few large ones
SMALL_BAND, SMALL_COUNT = (10, 70), 10
LARGE_BAND = (140, 170)
DSA_BANDS = ((140, 160), (220, 240))
RSA_P, RSA_Q = _primes(17, 23), _primes(41, 47)
GAUSS_BAND = (45_000, 55_000)
VERIFY_BAND = (98_000, 102_000)


class Exhaustive:
    """Equation sweeps, constant censuses, residue census and spec verification; no ladder."""

    name = "exhaustive"
    setup_code = "import ladderlab.residues, ladderlab.sweeps"
    pool_size = 256

    def __init__(self, lib, seed, pool_size=None):
        self.lib = lib
        rng = random.Random(f"{self.name}:{seed}")
        self.inputs = []
        for _ in range(pool_size or self.pool_size):
            bands = {}
            for kind in ("semi", "fully"):
                bands[kind, "small"] = _strata(rng, *SMALL_BAND, SMALL_COUNT)
                # prime n: the fully sweep's grid size swings with n's factors, and is
                # largest and steadiest at a prime
                bands[kind, "large"] = [_next_prime(n) for n in _strata(rng, *LARGE_BAND, 2)]
            # the specs are built with the frozen copy, so both copies verify the same JSON
            n = _prime_near(rng, *VERIFY_BAND)
            ring = seed_modarith.Ring(n)
            a = rng.randrange(2, n - 1)
            semi = seed_modexp.masked_semi_spec(ring, a, rng.randrange(n))
            constants = seed_modexp.find_ladder_constant(a, n, random.Random(rng.getrandbits(64)))
            fully = seed_modexp.fully_ladder_spec(ring, constants)
            self.inputs.append({
                "bands": bands,
                "dsa": [_prime_near(rng, *band) for band in DSA_BANDS],
                "rsa": (rng.choice(RSA_P), rng.choice(RSA_Q)),
                "gauss": _prime_near(rng, *GAUSS_BAND),
                "verify": (spec_to_json(ring, semi), spec_to_json(ring, fully)),
            })

    def setup(self, tracer):
        # imported here so that numpy loads only in the workload that uses it
        self.sweeps = importlib.import_module(f"{self.lib.package}.sweeps")

    def run_op(self, i, tracer):
        residues, ladders = self.lib.residues, self.lib.ladders
        inp = self.inputs[i]
        span = tracer.span
        out = {}
        sweep_of = {"semi": self.sweeps.sweep_masked_semi,
                    "fully": self.sweeps.sweep_fully_constants}
        for (kind, band), ns in inp["bands"].items():
            sweep = sweep_of[kind]
            with span(f"sweeps.{kind}.{band}"):
                out[kind, band] = [sweep(n, n) for n in ns]
            yield
        with span("residues.dsa_census"):
            out["dsa"] = [residues.dsa_exhaustive_counts(n) for n in inp["dsa"]]
        yield
        with span("residues.rsa_exhaustive"):
            out["rsa"] = residues.rsa_exhaustive_frequency(*inp["rsa"])
        yield
        with span("residues.gauss"):
            out["gauss"] = residues.gauss_residue_census(inp["gauss"])
        yield
        semi_doc, fully_doc = inp["verify"]
        with span("ladders.spec_from_json"):
            semi_ring, semi_spec = ladders.spec_from_json(semi_doc)
            fully_ring, fully_spec = ladders.spec_from_json(fully_doc)
        with span("ladders.check_semi"):
            out["check_semi"] = ladders.check_semi_equations(semi_spec, semi_ring)
        yield
        with span("ladders.check_fully"):
            out["check_fully"] = ladders.check_fully_equations(fully_spec, fully_ring)
        return out

    def check(self, i, out):
        inp = self.inputs[i]
        if any(failures for key in inp["bands"] for failures in out[key]):
            return False
        for n, (suitable, total) in zip(inp["dsa"], out["dsa"]):
            if Fraction(suitable, total) != self.lib.residues.dsa_probability_formula(n):
                return False
        if out["rsa"] != _rsa_exact_frequency(*inp["rsa"]):
            return False
        p, census = inp["gauss"], out["gauss"]
        residue_count = (p - 1) // census.b
        if census.residue_count != residue_count or sum(census.roots_per_residue.values()) != p - 1:
            return False
        return out["check_semi"].ok and out["check_fully"].ok

    def counts(self):
        return {}

    def layer_metrics(self, tracer):
        out = {}
        by_op = {op: self.inputs[i] for op, i in tracer.op_inputs[self.name].items()}
        for kind in ("semi", "fully"):
            for band in ("small", "large"):
                name = f"sweeps.{kind}.{band}"
                cells = seconds = 0.0
                for op, t in _spans_by_op(tracer, name).items():
                    cells += sum(_sweep_cells(kind, n) for n in by_op[op]["bands"][kind, band])
                    seconds += t
                out[f"{name}.cells_per_s"] = cells / seconds
        for name, pairs in (
            ("residues.dsa_census", lambda inp: sum((n - 3) * (n - 4) for n in inp["dsa"])),
            ("residues.rsa_exhaustive", lambda inp: _pairs(inp["rsa"][0] * inp["rsa"][1])),
        ):
            by = _spans_by_op(tracer, name)
            out[f"{name}.pairs_per_s"] = sum(pairs(by_op[op]) for op in by) / sum(by.values())
        by = _spans_by_op(tracer, "residues.gauss")
        out["residues.gauss.elements_per_s"] = (
            sum(by_op[op]["gauss"] - 1 for op in by) / sum(by.values())
        )
        for kind in ("semi", "fully"):
            by = _spans_by_op(tracer, f"ladders.check_{kind}")
            out[f"ladders.check_{kind}.us_per_element"] = median(
                t * 1e6 / int(by_op[op]["verify"][0]["n"]) for op, t in by.items()
            )
        return out


def _pairs(n):
    """(a, l) pairs a constant census visits: a in [2, n-2], l in [2, n-2] minus {a}."""
    return (n - 3) * (n - 4)


def _sweep_cells(kind, n):
    """(n, a, m, x) cells of the semi sweep, or (n, a, l, x) cells of the fully sweep."""
    if kind == "semi":
        return (n - 1) * n * n
    census = seed_residues.census_suitable_constants
    return sum(census(a, n).suitable for a in range(2, n - 1)) * n


def _rsa_exact_frequency(p, q):
    """Closed-form suitable frequency for n = pq, an independent check of the census.

    By CRT there are (p-1)(p-3) good (a, l) pairs modulo p; the out-of-range
    bases a in {0, 1, n-1} and the diagonal l = a are then removed.
    """
    b_p, b_q = math.gcd(p - 1, 3), math.gcd(q - 1, 3)
    n = p * q
    good = (
        (p - 1) * (p - 3) * (q - 1) * (q - 3)
        - 2 * (p - 3) * (q - 3)
        - 2 * (p - 2 - b_p) * (q - 2 - b_q)
    )
    return Fraction(good, _pairs(n))


WORKLOADS = {w.name: w for w in (ExpRsa, AttackMatrix, EccLadders, Exhaustive)}
