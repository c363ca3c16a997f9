"""The four benchmark workloads: seeded inputs, the calls each input runs
through, and the ground-truth check of each output.

Inputs are built with numpy alone from zero sets chosen here, so the ground
truth (zero pairs, multiplicities, class counts, verdicts) is known by
construction and the package only ever receives the generated data.

Every workload is a sequence of rounds.  A round is a fixed mix of strata,
and the timed pass always runs whole rounds, so the input mix is the same on
every run whatever the seed.  The seed picks the geometry inside each
stratum.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os

import numpy as np

ZERO_TOL = 1e-6
"""Relative distance allowed between a certified zero and its generating zero."""

FORM_TOL = 1e-7
"""Relative canonical-form distance at which two signals are the same class."""

NEAR_CIRCLE = 1e-2
"""An off-circle pair this close to the unit circle counts as near-circle."""

POOL_ROUNDS = 12
"""Rounds generated per run.  A run that needs more cycles through them, so
the same input (the same id) then runs more than once."""


# -- zero geometry -----------------------------------------------------------

def _outside_zero(rng, avoid, min_gap=0.15):
    """A zero with radius in [1.15, 3], at least `min_gap` from each of `avoid`."""
    while True:
        z = complex(np.exp(rng.uniform(0.14, 1.1)) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        if all(abs(z - w) >= min_gap * max(1.0, abs(w)) for w in avoid):
            return z


def _generic_pairs(rng, count, taken=()):
    """`count` simple pairs spread around the circle, clear of `taken`.

    Angles are stratified, one zero per sector of 2 pi / count, so that the
    seed changes the geometry without drawing accidental clusters: root
    certification time depends strongly on clustering, and clusters are a
    slice of their own.
    """
    reps = list(taken)
    out = []
    offset = rng.uniform(-np.pi, np.pi)
    for k in range(count):
        for _ in range(100):
            angle = offset + 2.0 * np.pi * (k + rng.uniform(0.1, 0.9)) / count
            z = complex(np.exp(rng.uniform(0.14, 1.1)) * np.exp(1j * angle))
            if all(abs(z - w) >= 0.15 * max(1.0, abs(w)) for w in reps):
                break
        reps.append(z)
        out.append((z, 1, False))
    return out


def _pair_zeros(rng, pairs, same_side=False):
    """Signal zeros realising the pairs: each occurrence picks a side at random."""
    zeros = []
    for rep, mult, circled in pairs:
        first = rng.random() < 0.5
        for _ in range(mult):
            inside = first if same_side else rng.random() < 0.5
            zeros.append(rep if circled or not inside else 1.0 / rep.conjugate())
    return zeros


def geometry(rng, kind, n):
    """Zero pairs (representative, multiplicity, on_circle) and signal zeros.

    Representatives lie outside the unit circle (or on it); the signal's
    N-1 zeros realise every pair occurrence on one side or the other.
    """
    if kind == "generic":
        pairs = _generic_pairs(rng, n - 1)
        return pairs, _pair_zeros(rng, pairs)
    if kind == "near_circle":
        gap = 10.0 ** rng.uniform(-5.0, -2.0)
        near = complex((1.0 + gap) * np.exp(1j * rng.uniform(-np.pi, np.pi)))
        pairs = [(near, 1, False)] + _generic_pairs(rng, n - 2, [near])
        return pairs, _pair_zeros(rng, pairs)
    if kind == "on_circle":
        ring = complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))
        pairs = [(ring, 1, True)] + _generic_pairs(rng, n - 2, [ring])
        return pairs, _pair_zeros(rng, pairs)
    if kind == "repeated":
        # the magnitude_counterexample family: {r, -1/r} plus i*s repeated N-3 times
        r, s = rng.uniform(1.5, 3.0, size=2)
        pairs = [(complex(r), 1, False), (complex(-r), 1, False), (complex(0, s), n - 3, False)]
        return pairs, [complex(r), complex(-1.0 / r)] + [complex(0, s)] * (n - 3)
    if kind == "doubled":
        double = _generic_pairs(rng, 1)
        pairs = [(double[0][0], 2, False)] + _generic_pairs(rng, n - 3, [double[0][0]])
        return pairs, _pair_zeros(rng, pairs[:1], same_side=True) + _pair_zeros(rng, pairs[1:])
    if kind == "clustered":
        # three zeros within 0.05 of one centre, plus one zero together with its reflection
        centre = _outside_zero(rng, [])
        centre *= 1.4 / abs(centre) if abs(centre) < 1.4 else 1.0
        angle = rng.uniform(-np.pi, np.pi)
        cluster = [centre + 0.05 * np.exp(1j * (angle + 2.0 * np.pi * k / 3)) for k in range(3)]
        mirrored = _outside_zero(rng, cluster, min_gap=0.3)
        pairs = ([(complex(z), 1, False) for z in cluster] + [(mirrored, 2, False)]
                 + _generic_pairs(rng, n - 6, cluster + [mirrored]))
        zeros = (_pair_zeros(rng, pairs[:3]) + [mirrored, 1.0 / mirrored.conjugate()]
                 + _pair_zeros(rng, pairs[4:]))
        return pairs, zeros
    if kind == "negative_real":
        # spaced negative reals; representatives stay clear of -1 and of each other
        radii = np.exp(np.linspace(0.15, 1.35, n - 1) + rng.uniform(-0.03, 0.03, n - 1))
        pairs = [(complex(-r), 1, False) for r in radii]
        return pairs, _pair_zeros(rng, pairs)
    raise ValueError(f"unknown geometry {kind!r}")


def signal_values(zeros, rng):
    """Signal with the given zeros, peak modulus 1 and a random global phase."""
    values = np.poly(np.asarray(zeros, dtype=complex))[::-1] if len(zeros) else np.ones(1)
    values = np.asarray(values, dtype=complex)
    return values / np.abs(values).max() * np.exp(1j * rng.uniform(-np.pi, np.pi))


def acf_coeffs(values):
    """Autocorrelation a[-(N-1)] .. a[N-1] of a signal."""
    n = values.size
    positive = np.array([np.vdot(values[: n - k], values[k:]) for k in range(n)])
    return np.concatenate([np.conj(positive[:0:-1]), positive])


def intensity(values, omegas):
    return np.abs(np.exp(-1j * np.multiply.outer(omegas, np.arange(values.size))) @ values) ** 2


def intensity_samples(values, rng, equispaced):
    """Equispaced samples, or irregular ones jittered within equal sectors.

    Independent uniform frequencies leave gaps: at N = 14 one draw in a few
    hundred makes the sample system's condition number 1e8 to 1e10, and the
    autocorrelation can then not be recovered to ZERO_TOL by any method.
    One frequency per sector keeps it below about 15.
    """
    n = values.size
    if equispaced:
        count = 2 * n + 1
        omegas = -np.pi + 2.0 * np.pi * np.arange(count) / count
    else:
        count = 2 * n + 4
        omegas = -np.pi + 2.0 * np.pi * (np.arange(count) + rng.uniform(0.0, 1.0, count)) / count
    return [(float(w), float(v)) for w, v in zip(omegas, intensity(values, omegas))]


def canonical(values):
    """Support at zero, largest component rotated onto the positive real axis."""
    pivot = int(np.argmax(np.abs(values)))
    return values * np.conj(values[pivot] / abs(values[pivot]))


def features(pairs):
    """Which pair geometries an input contains, for the census."""
    return {
        "repeated": any(mult >= 2 for _, mult, _ in pairs),
        "on_circle": any(circled for _, _, circled in pairs),
        "near_circle": any(not circled and abs(abs(rep) - 1.0) < NEAR_CIRCLE
                           for rep, _, circled in pairs),
    }


def class_counts(pairs):
    """Classes up to rotation/shift, and up to reflection as well."""
    mults = [mult for _, mult, circled in pairs if not circled]
    plain = math.prod(m + 1 for m in mults)
    self_mirrored = 1 if all(m % 2 == 0 for m in mults) else 0
    return plain, (plain + self_mirrored) // 2


def expected_matches(pairs, certified):
    """Match certified (zero, multiplicity, on_circle) triples to the
    generating pairs; None on any mismatch.

    Returns the largest relative zero error when every generating pair has
    a certified partner of equal multiplicity and circle flag.
    """
    if len(certified) != len(pairs):
        return None
    left = list(certified)
    worst = 0.0
    for rep, mult, circled in pairs:
        scale = max(1.0, abs(rep))
        best = min(left, key=lambda p: abs(p[0] - rep))
        err = abs(best[0] - rep) / scale
        if err > ZERO_TOL or best[1] != mult or bool(best[2]) != circled:
            return None
        worst = max(worst, err)
        left.remove(best)
    return worst


# -- workloads ---------------------------------------------------------------

class Workload:
    """A named mix of strata; subclasses build items, run them and check them.

    `strata` lists (slice, sizes) entries.  Round r takes one input from
    every entry, with N = sizes[r % len(sizes)].
    """

    name = ""
    strata = ()
    warmup = ()
    probe = ()
    """(slice, N) inputs run once per run, untimed and outside `attempted`:
    the geometries on which the package fails in the baseline.  Their
    outcomes are printed by input id; only a crash marks the run incorrect."""

    def __init__(self, pt, seed, workdir=None):
        self.pt = pt
        self.seed = int(seed)
        self.workdir = workdir

    def rounds(self, count=POOL_ROUNDS):
        out = []
        for r in range(count):
            items = []
            for index, (kind, sizes) in enumerate(self.strata):
                n = sizes[r % len(sizes)]
                rng = np.random.default_rng([self.seed, r, index])
                items.append(self.make(f"{self.name}-{r}-{index}-{kind}-n{n}", kind, n, rng))
            out.append(items)
        return out

    def warmup_items(self):
        rng = np.random.default_rng([self.seed, 10**6])
        return [self.make(f"{self.name}-warmup-{i}-{kind}-n{n}", kind, n, rng)
                for i, (kind, n) in enumerate(self.warmup)]

    def probe_items(self):
        return [self.make(f"{self.name}-probe-{i}-{kind}-n{n}", kind, n,
                          np.random.default_rng([self.seed, 10**6 + 1, i]))
                for i, (kind, n) in enumerate(self.probe)]

    def make(self, item_id, kind, n, rng):
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output):
        """Return (status, detail): ("ok", zero error or None), or ("wrong" or
        "raised", message) when the output is wrong or reports a typed error."""
        raise NotImplementedError


class Spectrum(Workload):
    """Intensity -> certified zero pairs: associated_polynomial, find_roots, pair_roots."""

    name = "spectrum"
    # Two inputs at each N from 8 to 13 spread the cost of the middle inputs
    # evenly over a factor of ten, so item_p50_ms moves smoothly with the
    # machine's speed instead of jumping between two sizes; two at N = 16
    # keep the ten slowest inputs of a run in one size.
    strata = tuple(("generic", (n,)) for n in (8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
                                             14, 15, 16, 16)) + (
        ("near_circle", (10, 11, 12, 13, 14)),
    )
    warmup = (("generic", 6), ("on_circle", 6), ("generic", 8))
    # The package raises or returns wrong pairs on many of these in the
    # baseline, so they are probed rather than timed: a timed input that
    # fails marks the run incorrect.
    probe = tuple((kind, n) for kind in ("on_circle", "repeated", "doubled", "clustered",
                                         "negative_real") for n in range(10, 15))
    FORMS = ("coeffs", "equispaced", "coeffs", "irregular")

    def make(self, item_id, kind, n, rng):
        pairs, zeros = geometry(rng, kind, n)
        values = signal_values(zeros, rng)
        form = self.FORMS[int(rng.integers(len(self.FORMS)))]
        item = {"id": item_id, "n": n, "slice": kind, "form": form, "pairs": pairs}
        if form == "coeffs":
            item["coeffs"] = acf_coeffs(values)
        else:
            item["samples"] = intensity_samples(values, rng, form == "equispaced")
        return item

    def run(self, item):
        pt = self.pt
        if item["form"] == "coeffs":
            acf = pt.signals.Autocorrelation(item["coeffs"])
        else:
            acf = pt.signals.acf_from_intensity_samples(item["samples"], item["n"])
        poly = pt.factorization.associated_polynomial(acf)
        roots = pt.factorization.find_roots(poly)
        return pt.factorization.pair_roots(roots, leading=poly.leading)

    def check(self, item, output):
        got = [(complex(p.zero), p.multiplicity, p.on_circle) for p in output.pairs]
        err = expected_matches(item["pairs"], got)
        if err is None:
            return "wrong", f"certified pairs {got} differ from generating pairs {item['pairs']}"
        return "ok", err


class Enumerate(Workload):
    """Known zero sets -> pairs_from_zeros -> enumerate_solutions (plain and modulo
    reflection) -> filter_by_constraints -> JSON, plus phase_counterexample."""

    name = "enumerate"
    strata = (
        ("generic", (8,)), ("generic", (9,)), ("generic", (10,)), ("generic", (11,)),
        ("repeated_pair", (8,)), ("repeated_pair", (9,)), ("repeated_pair", (10,)),
        ("repeated_pair", (11,)), ("phase_counterexample", (8,)),
        ("phase_counterexample", (9,)), ("phase_counterexample", (10,)),
    )
    warmup = (("generic", 5), ("repeated_pair", 6), ("phase_counterexample", 5))

    def make(self, item_id, kind, n, rng):
        if kind == "phase_counterexample":
            pairs, zeros = geometry(rng, "negative_real", n)
            zeros = [z.real for z in zeros]
            return {"id": item_id, "n": n, "slice": kind, "pairs": pairs, "zeros": zeros}
        if kind == "generic":
            pairs, zeros = geometry(rng, "generic", n)
        else:
            mult = 2 + n % 2
            pairs = [(_outside_zero(rng, []), mult, False)]
            pairs += _generic_pairs(rng, n - 1 - mult, [pairs[0][0]])
            zeros = _pair_zeros(rng, pairs)
        values = signal_values(zeros, rng)
        picks = rng.choice(n, size=3, replace=False)
        constraints = [("magnitude", int(picks[0]), float(abs(values[picks[0]]))),
                       ("phase", int(picks[1]), float(np.angle(values[picks[1]]))),
                       ("phase", int(picks[2]), float(np.angle(values[picks[2]])))]
        return {"id": item_id, "n": n, "slice": kind, "pairs": pairs, "zeros": zeros,
                "leading": complex(np.conj(values[0]) * values[-1]),
                "constraints": constraints, "reference": canonical(values)}

    def run(self, item):
        pt = self.pt
        if item["slice"] == "phase_counterexample":
            return pt.counterexamples.phase_counterexample(item["zeros"], item["n"])
        pairs = pt.factorization.pairs_from_zeros(item["zeros"], leading=item["leading"])
        plain = pt.enumeration.enumerate_solutions(pairs)
        merged = pt.enumeration.enumerate_solutions(pairs, modulo_reflection=True)
        constraints = [pt.enumeration.Constraint(*c) for c in item["constraints"]]
        kept = pt.enumeration.filter_by_constraints(plain, constraints)
        text = pt.serialization.dumps(pt.serialization.solution_set_to_dict(plain))
        return plain, merged, kept, text

    def check(self, item, output):
        n = item["n"]
        if item["slice"] == "phase_counterexample":
            want = 2 ** (n - 2) - 1
            if len(output) != want:
                return "wrong", f"{len(output)} phase counterexamples, expected {want}"
            return "ok", None
        plain, merged, kept, text = output
        want_plain, want_merged = class_counts(item["pairs"])
        if len(plain) != want_plain or len(merged) != want_merged:
            return "wrong", (f"class counts {len(plain)}/{len(merged)}, "
                           f"expected {want_plain}/{want_merged}")
        reference = item["reference"]
        scale = float(np.abs(reference).max())

        def holds_reference(solutions):
            return any(c.values.size == reference.size
                       and float(np.abs(c.values - reference).max()) <= FORM_TOL * scale
                       for c in solutions.classes)

        if not holds_reference(plain):
            return "wrong", "reference signal's class missing from the enumeration"
        if not holds_reference(kept):
            return "wrong", "reference signal's class removed by its own constraints"
        document = json.loads(text)
        if len(document["classes"]) != want_plain:
            return "wrong", f"JSON holds {len(document['classes'])} classes, expected {want_plain}"
        return "ok", None


class Uniqueness(Workload):
    """All four criterion families at every offset on the zero set of one signal."""

    name = "uniqueness"
    strata = (
        # a Latin square over N: every round holds N = 9, 9, 10, 11 plus the
        # N = 8 oracle input, so the median input is an N = 9 one
        ("generic", (9, 9, 10, 11)), ("magnitude_counterexample", (9, 10, 11, 9)),
        ("negative_real", (10, 11, 9, 9)), ("generic", (11, 9, 9, 10)), ("oracle", (8,)),
    )
    warmup = (("generic", 5), ("negative_real", 5))
    ORACLE_KINDS = ("generic", "magnitude_counterexample", "negative_real")

    def make(self, item_id, kind, n, rng):
        geometry_kind = kind
        if kind == "oracle":
            geometry_kind = self.ORACLE_KINDS[int(rng.integers(len(self.ORACLE_KINDS)))]
        if geometry_kind == "magnitude_counterexample":
            pairs, zeros = geometry(rng, "repeated", n)
        else:
            pairs, zeros = geometry(rng, geometry_kind, n)
        return {"id": item_id, "n": n, "slice": kind, "kind": geometry_kind,
                "pairs": pairs, "zeros": zeros}

    def run(self, item):
        crit = self.pt.criteria
        zeros, n = item["zeros"], item["n"]
        inner = range(1, n - 1)
        return {
            "magnitude": [crit.check_magnitude_uniqueness(zeros, off, n) for off in range(n)],
            "all_moduli": [crit.check_all_moduli_uniqueness(zeros, n)],
            "phase_endpoint": [crit.check_phase_uniqueness_endpoint(zeros, off, n)
                               for off in inner],
            "phase_two_points": [crit.check_phase_uniqueness_two_points(zeros, a, b, n)
                                 for a, b in itertools.combinations(inner, 2)],
        }

    def known_verdicts(self, item):
        """Verdicts that hold by construction, as {family: unique}."""
        kind = item["kind"]
        if kind == "generic":
            return {"magnitude": True, "all_moduli": True, "phase_endpoint": True,
                    "phase_two_points": True}
        if kind == "magnitude_counterexample":
            return {"magnitude": False, "all_moduli": False}
        return {"phase_endpoint": False, "phase_two_points": False}

    def check(self, item, output):
        for family, unique in self.known_verdicts(item).items():
            for index, report in enumerate(output[family]):
                if not report.borderline and bool(report.unique) != unique:
                    return "wrong", f"{family}[{index}] unique={report.unique}, expected {unique}"
        if item["slice"] == "oracle":
            return self._check_oracle(item, output)
        return "ok", None

    def _check_oracle(self, item, output):
        """Compare every verdict with brute force: enumerate, then filter."""
        pt = self.pt
        zeros, n = item["zeros"], item["n"]
        values = np.asarray(pt.enumeration.synthesize(zeros, float(np.prod(np.abs(zeros)))).values)
        pairs = pt.factorization.pairs_from_zeros(
            zeros, leading=complex(np.conj(values[0]) * values[-1]))
        solutions = {False: pt.enumeration.enumerate_solutions(pairs),
                     True: pt.enumeration.enumerate_solutions(pairs, modulo_reflection=True)}

        def survivors(targets, merged):
            constraints = [pt.enumeration.Constraint(kind, idx, abs(values[idx]) if kind == "magnitude"
                                                     else float(np.angle(values[idx])))
                           for kind, idx in targets]
            return len(pt.enumeration.filter_by_constraints(solutions[merged], constraints))

        inner = range(1, n - 1)
        cases = [("magnitude", [("magnitude", n - 1 - off)]) for off in range(n)]
        cases.append(("all_moduli", [("magnitude", idx) for idx in range(n)]))
        cases += [("phase_endpoint", [("phase", n - 1), ("phase", n - 1 - off)]) for off in inner]
        cases += [("phase_two_points", [("phase", n - 1 - a), ("phase", n - 1 - b)])
                  for a, b in itertools.combinations(inner, 2)]
        reports = [r for family in ("magnitude", "all_moduli", "phase_endpoint", "phase_two_points")
                   for r in output[family]]
        rr = pt.criteria.ROTATION_REFLECTION
        for (family, targets), report in zip(cases, reports):
            if report.borderline:
                continue
            kept = survivors(targets, report.equivalence_kind == rr)
            if bool(report.unique) != (kept == 1):
                return "wrong", (f"{family} {targets}: criterion unique={report.unique}, "
                               f"oracle keeps {kept} classes")
        return "ok", None


class Cli(Workload):
    """In-process phase_toolkit.cli.main over documents written during setup."""

    name = "cli"
    strata = (
        # analyze at N = 9 (1 s, 40% of a round) is left out: on the reference
        # machine the heaviest inputs drift with its load by up to 35% more
        # than light ones, which made the throughput of this mix unsteady
        ("analyze", (6,)), ("analyze", (7,)), ("analyze", (8,)),
        ("enumerate_samples", (7,)), ("enumerate_samples", (8,)), ("recover_unique", (7,)),
        ("recover_inconsistent", (7,)), ("recover_ambiguous", (7,)),
        ("counterexample_modulus", (6, 7, 8, 9)), ("counterexample_phase", (7,)),
        ("counterexample_phase", (8,)),
    )
    warmup = (("analyze", 4), ("enumerate_samples", 4), ("recover_ambiguous", 4),
              ("counterexample_modulus", 4), ("counterexample_phase", 4))

    def __init__(self, pt, seed, workdir=None):
        super().__init__(pt, seed, workdir)
        self._files = 0

    def _write(self, document):
        path = os.path.join(self.workdir, f"doc{self._files}.json")
        self._files += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return path

    def make(self, item_id, kind, n, rng):
        item = {"id": item_id, "n": n, "slice": kind}
        if kind == "counterexample_modulus":
            r, s = rng.uniform(1.5, 3.0, size=2)
            item["pairs"] = [(complex(r), 1, False), (complex(-r), 1, False),
                             (complex(0, s), n - 3, False)]
            item["argv"] = ["counterexample", "modulus", "--support", str(n),
                            "--split-radius", repr(float(r)), "--repeated-radius", repr(float(s)),
                            "--seed", str(int(rng.integers(1 << 30)))]
            return item
        if kind == "counterexample_phase":
            pairs, zeros = geometry(rng, "negative_real", n)
            item["pairs"] = pairs
            item["argv"] = ["counterexample", "phase", "--support", str(n),
                            "--zeros=" + ",".join(repr(z.real) for z in zeros)]
            return item
        pairs, zeros = geometry(rng, "generic", n)
        item["pairs"] = pairs
        values = signal_values(zeros, rng)
        pair_list = [[float(v.real), float(v.imag)] for v in values]
        if kind == "analyze":
            item["out"] = os.path.join(self.workdir, f"report{self._files}.json")
            item["argv"] = ["analyze", self._write({"offset": 0, "values": pair_list}),
                            "--out", item["out"]]
        elif kind == "enumerate_samples":
            samples = intensity_samples(values, rng, equispaced=bool(rng.integers(2)))
            item["argv"] = ["enumerate", self._write({"n": n, "samples": samples})]
        else:
            coeffs = [[float(c.real), float(c.imag)] for c in acf_coeffs(values)]
            source = self._write({"n": n, "coeffs": coeffs})
            if kind == "recover_unique":
                constraints = [{"kind": "magnitude", "index": i, "value": float(abs(v))}
                               for i, v in enumerate(values)]
                constraints += [{"kind": "phase", "index": i, "value": float(np.angle(v))}
                                for i, v in enumerate(values)]
            elif kind == "recover_inconsistent":
                constraints = [{"kind": "magnitude", "index": 0,
                                "value": float(10.0 * np.abs(values).max())}]
            else:
                index = int(rng.integers(n))
                constraints = [{"kind": "phase", "index": index,
                                "value": float(np.angle(values[index]))}]
            item["argv"] = ["recover", source, self._write(constraints)]
        return item

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.pt.cli.main(item["argv"])
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    EXPECTED_EXIT = {"recover_unique": 0, "recover_inconsistent": 3, "recover_ambiguous": 4}

    def check(self, item, output):
        code, out, err = output
        kind, n = item["slice"], item["n"]
        want_code = self.EXPECTED_EXIT.get(kind, 0)
        if code != want_code:
            # exit code 2 is the CLI's typed domain error; any other mismatch is a wrong answer
            status = "raised" if code == 2 else "wrong"
            return status, f"exit code {code}, expected {want_code}: {err.strip()[:120]}"
        plain, merged = class_counts(item["pairs"])
        if kind == "analyze":
            with open(item["out"], "r", encoding="utf-8") as handle:
                document = json.load(handle)
            return self._check_report(item, document, plain, merged)
        document = json.loads(out)
        if kind == "counterexample_modulus":
            x = np.array([complex(*v) for v in document["x"]["values"]])
            y = np.array([complex(*v) for v in document["y"]["values"]])
            if not document["shared"]["moduli"] or x.size != n or y.size != n or \
                    float(np.abs(np.abs(x) - np.abs(y)).max()) > 1e-9 * float(np.abs(x).max()):
                return "wrong", "modulus counterexample does not share its moduli"
            return "ok", None
        if kind == "counterexample_phase":
            want = 2 ** (n - 2) - 1
            if len(document) != want:
                return "wrong", f"{len(document)} phase counterexamples, expected {want}"
            return "ok", None
        want = {"enumerate_samples": plain, "recover_unique": 1,
                "recover_inconsistent": 0, "recover_ambiguous": plain}[kind]
        if len(document["classes"]) != want:
            return "wrong", f"{len(document['classes'])} classes, expected {want}"
        return "ok", None

    @staticmethod
    def _check_report(item, document, plain, merged):
        """The analyze report: class counts, zero pairs, and every criterion
        verdict, which is unique on a generic signal unless borderline."""
        n = item["n"]
        counts = (document["class_count"], document["class_count_modulo_reflection"])
        if counts != (plain, merged):
            return "wrong", f"class_count {counts[0]}/{counts[1]}, expected {plain}/{merged}"
        got = [(complex(*p["gamma"]), p["mult"], p["on_circle"])
               for p in document["zero_pairs"]["pairs"]]
        if expected_matches(item["pairs"], got) is None:
            return "wrong", f"zero pairs {got} differ from generating pairs {item['pairs']}"
        criteria = document["criteria"]
        families = {family: [entry["report"] for entry in criteria[family]]
                    for family in ("magnitude", "phase_endpoint", "phase_two_points")}
        families["all_moduli"] = [criteria["all_moduli"]]
        sizes = {"magnitude": n, "all_moduli": 1, "phase_endpoint": n - 2,
                 "phase_two_points": math.comb(n - 2, 2)}
        for family, size in sizes.items():
            if len(families[family]) != size:
                return "wrong", f"{len(families[family])} {family} verdicts, expected {size}"
            for index, report in enumerate(families[family]):
                if not report["borderline"] and not report["unique"]:
                    return "wrong", f"{family}[{index}] ambiguous on a generic signal"
        return "ok", None


WORKLOADS = {w.name: w for w in (Spectrum, Enumerate, Uniqueness, Cli)}
