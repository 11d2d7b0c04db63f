"""Workload inputs and operations.

Inputs are generated here from the workload seed with this file's own
``random.Random``, never with ``fischerdec.verification.random_*``, so a change
to the package cannot change what the benchmark feeds it.  ``specs`` returns
plain JSON-ready data and imports nothing from the package; ``materialize``
turns one spec into an ``Op`` by parsing it through the package's public JSON
loaders, which is part of set-up.

Every workload mixes a fixed reference block (drawn from ``REFERENCE_SEED``,
its exact outputs pinned by a digest in ``reference.json``) with a block drawn
from the run's seed; ``dirichlet-cli``'s timed requests are all fixed, and its
seed orders them and draws the invalid requests.  Discrete structure
(leading-term kind, which lower parts exist, domain and truncation) is
balanced within each block, so that the cost of a repetition varies little
between seeds; coefficients stay random.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
from fractions import Fraction

import oracle

REFERENCE_SEED = "reference"
WORKLOADS = ("decompose-random", "dirichlet-cli", "sphere-d3", "certify-scan")


@functools.cache
def load_reference() -> dict:
    """``reference.json``: pinned digests and recorded reference values."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Random polynomial data (same distribution as acceptance criterion 04).
# ---------------------------------------------------------------------------

def _fraction(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _nonzero_fraction(rng: random.Random, bound: int = 9) -> Fraction:
    while True:
        value = _fraction(rng, bound)
        if value:
            return value


def _monomials(dimension: int, degree: int) -> list:
    if dimension == 1:
        return [(degree,)]
    return [
        (first,) + rest
        for first in range(degree, -1, -1)
        for rest in _monomials(dimension - 1, degree - first)
    ]


def _homogeneous(rng: random.Random, dimension: int, degree: int, density: float = 0.7) -> dict:
    terms = {}
    for alpha in _monomials(dimension, degree):
        if rng.random() < density:
            value = _fraction(rng)
            if value:
                terms[alpha] = value
    if not terms:
        terms[rng.choice(_monomials(dimension, degree))] = Fraction(rng.randint(1, 9))
    return terms


def _polynomial(rng: random.Random, dimension: int, max_degree: int, share: float = 0.8) -> dict:
    """Random polynomial; each degree 0..max_degree is present with probability ``share``."""
    poly: dict = {}
    for degree in range(max_degree + 1):
        if rng.random() < share:
            poly.update(_homogeneous(rng, dimension, degree))
    return poly or {(0,) * dimension: Fraction(1)}


def _elliptic_quadratic(rng: random.Random) -> dict:
    while True:
        a = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        b = _fraction(rng, 4)
        if b * b < 4 * a * c:
            return {alpha: v for alpha, v in {(2, 0): a, (1, 1): b, (0, 2): c}.items() if v}


LEADING_KINDS = ("x2sq", "radial", "elliptic")
LOWER_KINDS = ((), (0,), (1,), (0, 1))


def _balanced(rng: random.Random, cells: list, count: int) -> list:
    """``count`` cells, each cell used equally often (up to one), shuffled."""
    out = [cells[i % len(cells)] for i in range(count)]
    rng.shuffle(out)
    return out


def _problem(leading: dict, lower: dict, dimension: int) -> dict:
    """Problem JSON in the package's format; ``lower`` maps degree -> part."""
    return {
        "dimension": dimension,
        "k": 1,
        "leading": oracle.encode(leading, dimension),
        "lower": [
            {"degree": degree, "part": oracle.encode(part, dimension)}
            for degree, part in sorted(lower.items())
        ],
    }


def _random_problem(rng: random.Random, leading_kind: str, lower_kind: tuple) -> dict:
    if leading_kind == "x2sq":
        leading = {(0, 2): Fraction(1)}
    elif leading_kind == "radial":
        leading = {(2, 0): Fraction(1), (0, 2): Fraction(1)}
    else:
        leading = _elliptic_quadratic(rng)
    lower = {}
    if 0 in lower_kind:
        lower[0] = {(0, 0): _nonzero_fraction(rng)}
    if 1 in lower_kind:
        lower[1] = _homogeneous(rng, 2, 1, density=0.8)
    return _problem(leading, lower, 2)


def _decompose_block(rng: random.Random, tag: str, n_decompose: int, n_equivalence: int) -> list:
    cells = [(lead, low) for lead in LEADING_KINDS for low in LOWER_KINDS]
    ops = []
    for i, (lead, low) in enumerate(_balanced(rng, cells, n_decompose)):
        problem = _random_problem(rng, lead, low)
        data = _polynomial(rng, 2, 10)
        ops.append({"id": f"{tag}-dec-{i:02d}", "kind": "decompose",
                    "problem": problem, "data": oracle.encode(data, 2)})
    for i, (lead, low) in enumerate(_balanced(rng, cells, n_equivalence)):
        problem = _random_problem(rng, lead, low)
        degree = rng.randint(0, 10)
        ops.append({"id": f"{tag}-eq-{i:02d}", "kind": "equivalence", "problem": problem,
                    "degree": degree, "fm": oracle.encode(_homogeneous(rng, 2, degree), 2)})
    return ops


# ---------------------------------------------------------------------------
# Series data for the Dirichlet and order workloads.
# ---------------------------------------------------------------------------

def _series(dimension: int, truncation: int, parts: dict) -> dict:
    """Series JSON with one part per degree 0..N; ``parts`` maps degree -> poly."""
    return {
        "dimension": dimension,
        "truncation": truncation,
        "parts": [oracle.encode(parts.get(m, {}), dimension) for m in range(truncation + 1)],
    }


def _exp_axis(dimension: int, axis: int, truncation: int) -> dict:
    """exp(x_axis) truncated at degree N."""
    parts = {}
    for m in range(truncation + 1):
        alpha = tuple(m if i == axis else 0 for i in range(dimension))
        parts[m] = {alpha: Fraction(1, math.factorial(m))}
    return _series(dimension, truncation, parts)


STRIP_SCALE = Fraction(355, 113)


def _strip_harmonic(truncation: int, c: Fraction = STRIP_SCALE) -> dict:
    """sin(c x1) exp(c x2) truncated at degree N; every part is harmonic."""
    parts = {}
    for m in range(truncation + 1):
        parts[m] = {
            (j, m - j): c**m * Fraction(-1 if (j // 2) % 2 else 1, math.factorial(j) * math.factorial(m - j))
            for j in range(1, m + 1, 2)
        }
    return _series(2, truncation, parts)


def _decay(rho: Fraction, truncation: int) -> dict:
    """Single monomials m^(-m/rho) x1^m wherever m/rho is an integer."""
    parts = {}
    for m in range(2, truncation + 1):
        exponent = Fraction(m) / rho
        if exponent.denominator == 1:
            parts[m] = {(m, 0): Fraction(1, m ** int(exponent))}
    return _series(2, truncation, parts)


PARABOLA = {"kind": "parabola", "a": "1"}
STRIP = {"kind": "strip", "a": "1"}
ELLIPSE = {"kind": "ellipsoid", "semi_axes": ["1", "2"]}
CYLINDER = {"kind": "cylinder", "semi_axes": ["1", "2"], "dimension": 3}
# An odd number of requests puts the median latency on one request rather
# than between the two middle ones.
DIRICHLET_TRUNCATIONS = (12, 20, 28)
STRIP_EXTRA_TRUNCATION = 16
CYLINDER_TRUNCATION = 8


def _dirichlet_requests(rng: random.Random) -> list:
    """The fixed requests, in ascending truncation per domain.

    Each domain has its own graded systems, so a request pays for exactly the
    builds between its domain's previous truncation and its own, whatever
    the seed; the seed only orders the domains within a truncation tier.
    """
    def request(name: str, domain: dict, data: dict, n: int) -> dict:
        return {"id": f"ref-{name}-{n}", "kind": "dirichlet",
                "request": {"domain": domain, "data": data, "truncation": n}}

    ops = []
    for n in DIRICHLET_TRUNCATIONS:
        tier = [request("parabola", PARABOLA, _exp_axis(2, 0, n), n),
                request("strip", STRIP, _strip_harmonic(n), n),
                request("ellipse", ELLIPSE, _exp_axis(2, 1, n), n)]
        if not ops:
            tier.append(request("cylinder", CYLINDER, _exp_axis(3, 0, CYLINDER_TRUNCATION),
                                CYLINDER_TRUNCATION))
        rng.shuffle(tier)
        ops += tier
        if n < STRIP_EXTRA_TRUNCATION:
            ops.append(request("strip", STRIP, _strip_harmonic(STRIP_EXTRA_TRUNCATION),
                               STRIP_EXTRA_TRUNCATION))
    return ops


def _invalid_requests(rng: random.Random) -> list:
    """Requests the CLI contract says must end in exit 2 with one envelope."""
    complex_data = _exp_axis(2, 0, 12)
    degree = rng.randint(1, 12)
    complex_data["parts"][degree]["terms"][0]["im"] = str(_nonzero_fraction(rng))
    negative = {"domain": PARABOLA, "data": oracle.encode({(6, 0): Fraction(1, 720)}, 2),
                "truncation": -rng.randint(1, 9)}
    mismatch = {"domain": PARABOLA, "data": _exp_axis(3, 0, rng.randint(8, 12))}
    return [
        {"id": "run-invalid-complex", "kind": "dirichlet-invalid",
         "request": {"domain": PARABOLA, "data": complex_data, "truncation": 12}},
        {"id": "run-invalid-truncation", "kind": "dirichlet-invalid", "request": negative},
        {"id": "run-invalid-dimension", "kind": "dirichlet-invalid", "request": mismatch},
    ]


# ---------------------------------------------------------------------------
# d = 3 decompositions and Gauss splits.
# ---------------------------------------------------------------------------

RADIAL3 = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}
ELLIPSOID123 = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1, 4), (0, 0, 2): Fraction(1, 9)}
SPHERE_DEGREE = 12


def _sphere_block(rng: random.Random, tag: str) -> list:
    """One |x|^2 and one ellipsoid decomposition, and the Gauss split of the
    |x|^2 data's top part, which rebuilds that same |x|^2 system uncached."""
    ops = []
    for name, problem in (("radial", _problem(RADIAL3, {}, 3)),
                          ("ellipsoid", _problem(ELLIPSOID123, {0: {(0, 0, 0): Fraction(1)}}, 3))):
        # Every degree is present: which degrees a d=3 op has decides its cost
        # far more than in d=2, and would make the run depend on the seed.
        data = _polynomial(rng, 3, SPHERE_DEGREE, share=1.0)
        ops.append({"id": f"{tag}-dec-{name}", "kind": "decompose",
                    "problem": problem, "data": oracle.encode(data, 3)})
        if name == "radial":
            top = {alpha: v for alpha, v in data.items() if sum(alpha) == SPHERE_DEGREE}
            ops.append({"id": f"{tag}-gauss-{name}", "kind": "gauss",
                        "degree": SPHERE_DEGREE, "fm": oracle.encode(top, 3)})
    return ops


# ---------------------------------------------------------------------------
# Spectral and growth certificates.
# ---------------------------------------------------------------------------

# Multipliers for the Gram minima.  Permuting coordinates leaves the spectrum
# unchanged, so each row shares one reference value (closed form in d=2, a
# recorded value in d=3) and the seed picks among equally costly inputs.
GRAM_MULTIPLIERS = {
    2: [{(0, 2): Fraction(1)}, {(2, 0): Fraction(1)}],
    3: [{(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1)},
        {(2, 0, 0): Fraction(1), (0, 0, 2): Fraction(1)},
        {(0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}],
}
X1SQ_X2SQ = GRAM_MULTIPLIERS[3][0]


def _gram(op_id: str, dimension: int, degree: int, multiplier: dict) -> dict:
    return {"id": op_id, "kind": "gram", "dimension": dimension,
            "degree": degree, "multiplier": oracle.encode(multiplier, dimension)}


def _certify_reference() -> list:
    ops = [
        {"id": "ref-main-inequality", "kind": "main-inequality", "m_max": 200},
        {"id": "ref-chebyshev", "kind": "chebyshev", "n_max": 16},
        {"id": "ref-sine", "kind": "sine", "n_max": 10**6},
        {"id": "ref-order-exp", "kind": "order", "series": _exp_axis(2, 0, 40),
         "order": 1, "order_abs": 0.05, "type": 1, "type_abs": 0.10},
    ]
    for rho in ("1/2", "1", "2"):
        ops.append({"id": f"ref-order-decay-{rho}", "kind": "order",
                    "series": _decay(Fraction(rho), 60),
                    "order": float(Fraction(rho)), "order_abs": 0.02 * float(Fraction(rho))})
    ops += [_gram("ref-gram2-40", 2, 40, GRAM_MULTIPLIERS[2][0]),
            _gram("ref-gram3-8", 3, 8, GRAM_MULTIPLIERS[3][0])]
    return ops


def _certify_block(rng: random.Random) -> list:
    return [_gram(f"run-gram{d}-{m}", d, m, rng.choice(GRAM_MULTIPLIERS[d]))
            for d, m in ((2, 16), (2, 24), (2, 32), (3, 5), (3, 6), (3, 7))]


def specs(workload: str, seed: int) -> tuple:
    """(timed op specs, untimed probe specs) for one repetition; pure data."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    reference = random.Random(f"{workload}:{REFERENCE_SEED}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dirichlet-cli":
        return _dirichlet_requests(rng), _invalid_requests(rng)
    if workload == "decompose-random":
        ops = _decompose_block(reference, "ref", 12, 12) + _decompose_block(rng, "run", 180, 36)
    elif workload == "sphere-d3":
        ops = _sphere_block(reference, "ref") + _sphere_block(rng, "run")
    else:
        ops = _certify_reference() + _certify_block(rng)
    rng.shuffle(ops)
    return ops, []


# ---------------------------------------------------------------------------
# Materialisation: library objects, the timed call, and the oracle.
# ---------------------------------------------------------------------------

class Op:
    """One timed operation: ``run()`` is timed; ``check(result)`` is not.

    ``check`` raises ``oracle.OracleError`` (or any error) on a wrong result
    and otherwise returns the exact record that feeds the output digest.
    Floats stay out of it: the oracle judges them within a tolerance, and
    a correct change may compute them another way.
    """

    __slots__ = ("op_id", "reference", "run", "check", "out_bytes")

    def __init__(self, op_id: str, run, check):
        self.op_id = op_id
        self.reference = op_id.startswith("ref-")
        self.run = run
        self.check = check
        self.out_bytes = 0


def _lowered(problem: dict) -> tuple:
    """(P, k) from a problem JSON: P = leading - sum of lower parts."""
    p = oracle.decode(problem["leading"])
    for row in problem["lower"]:
        p = oracle.sub(p, oracle.decode(row["part"]))
    return p, int(problem["k"])


def run_cli(cli, argv: list) -> tuple:
    """cli.main in-process with stdout captured: (exit code or exception, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            outcome = cli.main(argv)
        except SystemExit as exc:
            outcome = exc.code
        except Exception as exc:  # the contract violation being measured
            outcome = exc
    return outcome, buffer.getvalue()


def materialize(spec: dict, workdir: str) -> Op:
    from fischerdec import cli, entire, fischer, spectral, sphere
    from fischerdec.polynomials import polynomial_from_json_dict, polynomial_to_json_dict

    kind = spec["kind"]

    def decode_poly(poly) -> dict:
        return oracle.decode(polynomial_to_json_dict(poly))

    if kind == "decompose":
        problem = fischer.FischerProblem.from_json_dict(spec["problem"])
        data = polynomial_from_json_dict(spec["data"])

        def check(result):
            q, h = decode_poly(result.quotient), decode_poly(result.remainder)
            p, k = _lowered(spec["problem"])
            oracle.check_decomposition(oracle.decode(spec["data"]), p, q, h, k)
            return {"q": oracle.canonical(q), "h": oracle.canonical(h)}

        return Op(spec["id"], lambda: fischer.decompose_recursive(problem, data), check)

    if kind == "equivalence":
        problem = fischer.FischerProblem.from_json_dict(spec["problem"])
        f_m = polynomial_from_json_dict(spec["fm"]).part(spec["degree"])

        def run():
            return (fischer.decompose_series_formula(problem, f_m),
                    fischer.quotient_polynomial(problem, f_m))

        def check(result):
            series_q, recursive_q = (decode_poly(q) for q in result)
            if series_q != recursive_q:
                raise oracle.OracleError("series and recursion quotients differ")
            p, k = _lowered(spec["problem"])
            oracle.check_quotient(oracle.decode(spec["fm"]), p, recursive_q, k)
            return {"q": oracle.canonical(recursive_q)}

        return Op(spec["id"], run, check)

    if kind in ("dirichlet", "dirichlet-invalid"):
        path = os.path.join(workdir, spec["id"] + ".json")
        with open(path, "w") as handle:
            json.dump(spec["request"], handle)
        op = Op(spec["id"], lambda: run_cli(cli, ["dirichlet", "--request", path]), None)

        def check(result):
            outcome, text = result
            op.out_bytes = len(text.encode())
            if kind == "dirichlet-invalid":
                envelopes = [line for line in text.splitlines() if line.startswith("{")]
                if outcome != 2 or len(envelopes) != 1 or json.loads(envelopes[0])["ok"]:
                    raise oracle.OracleError(f"invalid request gave {outcome!r}, "
                                             f"{len(envelopes)} envelope(s)")
                return {}
            if outcome != 0:
                raise oracle.OracleError(f"exit {outcome!r}")
            lines = text.splitlines()
            if len(lines) != 1:
                raise oracle.OracleError(f"{len(lines)} stdout lines, expected one envelope")
            envelope = json.loads(lines[0])
            if envelope.get("command") != "dirichlet" or envelope.get("ok") is not True:
                raise oracle.OracleError("envelope is not an ok dirichlet result")
            result_json = envelope["result"]
            request = spec["request"]
            for name in ("harmonic_extension", "quotient"):
                if result_json[name]["truncation"] != request["truncation"]:
                    raise oracle.OracleError(f"{name} truncation differs from the request")
            h = oracle.decode_series(result_json["harmonic_extension"])
            q = oracle.decode_series(result_json["quotient"])
            f = oracle.decode_series(request["data"])
            oracle.check_decomposition(f, oracle.domain_polynomial(request["domain"]), q, h, 1)
            residual = result_json["boundary_residual"]["max_residual"]
            if not (isinstance(residual, float) and math.isfinite(residual)):
                raise oracle.OracleError(f"boundary residual {residual!r} is not finite")
            return {"q": oracle.canonical(q), "h": oracle.canonical(h)}

        op.check = check
        return op

    if kind == "gauss":
        f_m = polynomial_from_json_dict(spec["fm"]).part(spec["degree"])

        def check(result):
            harmonics = [decode_poly(h.to_polynomial()) for h in result.harmonics]
            oracle.check_gauss(oracle.decode(spec["fm"]), spec["degree"], 3, harmonics)
            return {"harmonics": [oracle.canonical(h) for h in harmonics]}

        return Op(spec["id"], lambda: sphere.gauss_decompose(f_m), check)

    if kind == "main-inequality":
        m_max = spec["m_max"]

        def check(reports):
            if [r.degree for r in reports] != list(range(m_max + 1)):
                raise oracle.OracleError("reports do not cover every degree")
            for r in reports:
                m = r.degree
                oracle.check_close(r.min_eigenvalue, oracle.x2sq_min_eigenvalue(m), 1e-9, f"m={m}")
                if r.min_eigenvalue < math.pi**2 / (4 * (m + 4) ** 2):
                    raise oracle.OracleError(f"minimum below pi^2/(4(m+4)^2) at m={m}")
                if m % 2 == 0 and r.min_eigenvalue < math.pi**2 / (4 * (m + 3) ** 2):
                    raise oracle.OracleError(f"even sharp bound fails at m={m}")
            return {}

        return Op(spec["id"], lambda: spectral.verify_main_inequality(m_max), check)

    if kind == "gram":
        dimension, degree = spec["dimension"], spec["degree"]
        multiplier = polynomial_from_json_dict(spec["multiplier"]).part(2)
        if dimension == 2:
            expected = oracle.x2sq_min_eigenvalue(degree)
        else:
            expected = load_reference()["gram3_min_eigenvalue"][str(degree)]

        def check(report):
            oracle.check_close(report.min_eigenvalue, expected, 1e-9, spec["id"])
            return {}

        return Op(spec["id"],
                  lambda: spectral.min_quadratic_form_eigenvalue(multiplier, degree, dimension),
                  check)

    if kind == "chebyshev":
        n_max = spec["n_max"]

        def check(flags):
            if flags != [True] * n_max:
                raise oracle.OracleError(f"Chebyshev identity failed: {flags}")
            return {"flags": flags}

        return Op(spec["id"],
                  lambda: [spectral.chebyshev_identity_check(n) for n in range(1, n_max + 1)],
                  check)

    if kind == "sine":
        n_max = spec["n_max"]

        def check(record):
            if record.ok is not True or not record.worst_margin > 0:
                raise oracle.OracleError(f"sine bound record {record}")
            return {"ok": record.ok}

        return Op(spec["id"], lambda: spectral.sine_bound_check(n_max), check)

    if kind == "order":
        series = entire.EntireSeries.from_json_dict(spec["series"])

        def check(estimate):
            oracle.check_close(estimate.order, float(spec["order"]), spec["order_abs"], "order")
            if "type" in spec:
                if estimate.type is None:
                    raise oracle.OracleError("no type estimate")
                oracle.check_close(estimate.type, float(spec["type"]), spec["type_abs"], "type")
            return {}

        return Op(spec["id"], lambda: entire.order_estimate(series), check)

    raise ValueError(f"unknown op kind {kind!r}")
