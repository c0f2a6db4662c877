"""Seeded inputs, job mixes and closed-form oracles of the pdef benchmark.

A family is a group presentation (or, for power quotients, a number
triple) with a known answer.  Every job draws a fresh variant of its
family through transformations that keep the group: generator renaming,
permutation and inversion, and relator rotation, inversion and
reordering.  The program only ever sees the generated text.

A word is a tuple of nonzero ints (+i is generator i, -i its inverse); a
relator is stored as ``(root, exponent)`` so the oracles can read nu_p
off the exponent without asking the program.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

# ---------------------------------------------------------------------------
# words and presentations


def inverse(w):
    return tuple(-x for x in reversed(w))


def commutator(u, v):
    """[u, v] = u^-1 v^-1 u v, the grammar's convention."""
    return inverse(u) + inverse(v) + u + v


@dataclass(frozen=True)
class Spec:
    names: tuple[str, ...]
    relators: tuple[tuple[tuple[int, ...], int], ...]  # (root, exponent)


def spec(names, *relators):
    return Spec(tuple(names), tuple((tuple(root), exp) for root, exp in relators))


def _period(w):
    """Smallest d with w equal to (w[:d])^(len(w)/d)."""
    n = len(w)
    for d in range(1, n):
        if n % d == 0 and w == w[:d] * (n // d):
            return d
    return n


def render_word(w, names):
    """Run-length text form, a proper power as (root)^k."""
    d = _period(w)
    if d < len(w) and d > 1:
        return f"({render_word(w[:d], names)})^{len(w) // d}"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        count = j - i if w[i] > 0 else i - j
        name = names[abs(w[i]) - 1]
        parts.append(name if count == 1 else f"{name}^{count}")
        i = j
    return "*".join(parts)


def render(names, words):
    return "gens: " + ", ".join(names) + "\n" + "".join(f"rel: {render_word(w, names)}\n" for w in words)


def _fresh_names(rng, n):
    style = rng.randrange(3)
    names = []
    while len(names) < n:
        a = rng.choice(string.ascii_lowercase)
        if style == 1:
            a += rng.choice(string.ascii_lowercase)
        elif style == 2:
            a += str(rng.randrange(10))
        if a not in names:
            names.append(a)
    return names


def variant(sp: Spec, rng, subgroup_words=()):
    """Random isomorphic copy of ``sp``: returns (text, mapped subgroup
    words as text).  Subgroup words only follow the generator map, so
    they still generate the image of the same subgroup."""
    n = len(sp.names)
    order = list(range(n))
    rng.shuffle(order)  # order[new position] = old generator index
    new_pos = {old: pos + 1 for pos, old in enumerate(order)}
    sign = [rng.choice((1, -1)) for _ in range(n)]

    def mapped(w):
        return tuple((1 if x > 0 else -1) * sign[abs(x) - 1] * new_pos[abs(x) - 1] for x in w)

    words = []
    for root, exp in sp.relators:
        w = mapped(root) * exp
        k = rng.randrange(len(w))
        w = w[k:] + w[:k]
        if rng.random() < 0.5:
            w = inverse(w)
        words.append(w)
    rng.shuffle(words)
    names = _fresh_names(rng, n)
    text = render(names, words)
    subs = ";".join(render_word(mapped(w), names) for w in subgroup_words)
    return text, subs


# ---------------------------------------------------------------------------
# families


def free_product_of_cyclics(n, m):
    return spec([f"g{i}" for i in range(1, n + 1)], *[((i,), m) for i in range(1, n + 1)])


TRIANGLE_POWER = spec("xyz", ((1,), 3), ((2,), 3), ((3,), 3), ((1, 2), 3), ((1, 3), 3), ((2, 3), 3))
# (Z2 x Z2) * (Z2 x Z2)
COXETER_2222 = spec("xyzw", ((1,), 2), ((2,), 2), ((3,), 2), ((4,), 2), ((1, 2), 2), ((3, 4), 2))
# abelianization Z^4; killing two generators leaves a free group of rank 2
RANK4 = spec(
    "abcd",
    (commutator((-3,), (-1,)), 1),
    (commutator((-4,), (-2,)), 1),
    ((1, 4, -3, -1, 2, 3, -4, -2), 1),
)
DINF = spec(["x1", "x2"], ((1,), 2), ((2,), 2))
Z2_Z3 = spec("ab", ((1,), 2), ((2,), 3))
F2 = spec("xy")


def surface(g):
    rel = ()
    for i in range(g):
        rel += commutator((2 * i + 1,), (2 * i + 2,))
    return spec([f"{c}{i}" for i in range(1, g + 1) for c in "ab"], (rel, 1))


def triangle(l, m, n):
    return spec("ab", ((1,), l), ((2,), m), ((1, 2), n))


def symmetric_coxeter(n):
    """Coxeter presentation of S_n on the n-1 adjacent transpositions."""
    k = n - 1
    rels = [((i,), 2) for i in range(1, k + 1)]
    rels += [((i, i + 1), 3) for i in range(1, k)]
    rels += [((i, j), 2) for i in range(1, k + 1) for j in range(i + 2, k + 1)]
    return spec([f"s{i}" for i in range(1, n)], *rels)


def triangle_commutator(k):
    """<a, b | a^2, b^3, (ab)^7, [a,b]^k>."""
    return spec("ab", ((1,), 2), ((2,), 3), ((1, 2), 7), (commutator((1,), (2,)), k))


# the ATLAS standard generators of M11
M11 = spec(
    "ab",
    ((1,), 2),
    ((2,), 4),
    ((1, 2), 11),
    ((1, 2, 2), 6),
    ((1, 2, 1, 2, 1, -2, 1, 2, 1, 2, 2, 1, -2, 1, 2, 1, -2, 1, -2), 1),
)

# ---------------------------------------------------------------------------
# jobs and oracles


@dataclass
class Job:
    family: str
    argv: list[str]
    stdin: str | None
    certify: bool  # a certify --json call, followed by `pdef verify`
    check: object  # callable(rc, out, verify_rc, verify_out) -> error text or None


def _nu(exp, p):
    nu = 0
    while exp % p == 0:
        exp //= p
        nu += 1
    return nu


def p_deficiency(sp: Spec, p):
    """def_p = |X| - sum p^-nu_p(r); a relator (root)^e with a primitive
    root has nu_p = v_p(e)."""
    return len(sp.names) - sum(Fraction(1, p ** _nu(e, p)) for _, e in sp.relators)


def _cert_check(kind, rc, **witness):
    """Expect ``kind`` with exit ``rc``, each witness field equal to the
    given value, and `pdef verify` to answer true."""

    def check(got_rc, out, vrc, vout):
        if got_rc != rc:
            return f"exit {got_rc}, expected {rc}"
        d = json.loads(out)
        if d["kind"] != kind:
            return f"kind {d['kind']}, expected {kind}"
        for key, want in witness.items():
            have = d["witness"].get(key) if key != "p" else d["parameters"].get("p")
            if key == "kill_set":
                have = len(have or ())
            if have != want:
                return f"{key} = {have!r}, expected {want!r}"
        if not d["verified"] or vrc != 0 or vout.strip() != "verified: true":
            return f"verify said {vout.strip()!r} (exit {vrc})"
        return None

    return check


def _free(rank):
    return {"rank": rank, "torsion": []}


def _table_check(order, ngens):
    def check(rc, out, _vrc, _vout):
        if rc != 0:
            return f"exit {rc}, expected 0"
        lines = out.splitlines()
        if lines[0] != f"cosets {order} gens {ngens}":
            return f"header {lines[0]!r}, expected |G| = {order}"
        rows = [list(map(int, line.split())) for line in lines[1:]]
        if len(rows) != order:
            return f"{len(rows)} rows for {order} cosets"
        for col in range(2 * ngens):
            if any(rows[rows[i][col] - 1][col ^ 1] != i + 1 for i in range(order)):
                return f"column {col} is not inverse to column {col ^ 1}"
        return None

    return check


def _lowindex_normal_check(counts):
    """``lowindex --normal`` text: one line per subgroup, tagged normal."""

    def check(rc, out, _vrc, _vout):
        if rc != 0:
            return f"exit {rc}, expected 0"
        lines = out.splitlines()
        if lines[0] != f"{sum(counts)} records":
            return f"{lines[0]!r}, expected {sum(counts)} records"
        by_index = [0] * len(counts)
        for line in lines[1:]:
            if not line.endswith("(normal)"):
                return f"non-normal record {line!r}"
            by_index[int(line.split("index ")[1].split()[0]) - 1] += 1
        if by_index != counts:
            return f"normal subgroups by index {by_index}, expected {counts}"
        return None

    return check


# Normal subgroups of F2 by index n: the sum over groups G of order n of
# (generating pairs of G) / |Aut G|.
F2_NORMAL_BY_INDEX = [1, 3, 4, 7, 6, 15]


def _cli_job(family, sp, argv, check, rng, subgroup_words=(), certify=True):
    text, subs = variant(sp, rng, subgroup_words)
    if subgroup_words:
        argv = argv + ["--subgroup-gens", subs]
    return Job(family, argv + (["--json", "-"] if certify else ["-"]), text, certify, check)


def _p_large(sp, p, max_index, kill_budget, index):
    argv = ["certify", "p-large", "-p", str(p), "--max-index", str(max_index), "--kill-budget", str(kill_budget)]
    return lambda family, rng: _cli_job(
        family, sp, argv, _cert_check("PLargeWitness", 0, index=index, abelian_invariants=_free(2)), rng
    )


def _p_large_def(sp, p):
    value = p_deficiency(sp, p)
    check = (
        _cert_check("PLargeByDeficiency", 0, bound=str(value))
        if value > 1
        else _cert_check("Inconclusive", 1, bound=str(value))
    )
    return lambda family, rng: _cli_job(family, sp, ["certify", "p-large-def", "-p", str(p)], check, rng)


def _primes(lo, hi):
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(hi**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(lo, hi + 1) if sieve[i]]


_BIG_PRIMES = _primes(1_000_000, 1_010_000)


def _power_quotient(family, rng):
    """rank r, k = 100(r-1) powers, q = s * P with every prime power in s
    at most 100 = k/(r-1): only the large prime P can fire, after the
    search has stepped p up to it."""
    r = rng.choice((2, 3))
    k = 100 * (r - 1)
    s = rng.choice((2, 6, 10, 12, 30, 60, 90))
    big = rng.choice(_BIG_PRIMES)
    check = _cert_check("PowerQuotientLarge", 0, p=big, bound=str(r - Fraction(k, big)))
    return Job(family, ["certify", "power-quotient", str(r), str(k), str(s * big), "--json"], None, True, check)


def _free_quotient(family, rng):
    check = _cert_check("FreeQuotientWitness", 0, kill_set=2, abelian_invariants=_free(2))
    return _cli_job(family, RANK4, ["certify", "free-quotient", "--kill-budget", "3"], check, rng)


def _surface_kernel(g, n):
    """Kernel of the genus-g surface group onto Z/n sending a1 to 1 and
    every other generator to 0: a surface group of genus 1 + n(g-1)."""
    sp = surface(g)
    words = [(1,) * n] + [(1,) * i + (x,) + (-1,) * i for i in range(n) for x in range(2, 2 * g + 1)]
    check = _cert_check(
        "AllcockBound", 0, index=n, bound=str(1 + n * (2 * g - 2)), abelian_invariants=_free(2 + 2 * n * (g - 1))
    )
    return lambda family, rng: _cli_job(family, sp, ["certify", "allcock"], check, rng, words)


def _dinf_power(k):
    """<(x1 x2)^k> is normal of index 2k in D_inf and infinite cyclic."""
    check = _cert_check("AllcockBound", 0, index=2 * k, bound="1", abelian_invariants=_free(1))
    return lambda family, rng: _cli_job(family, DINF, ["certify", "allcock"], check, rng, [(1, 2) * k])


def _z2z3_commutator(family, rng):
    """[G, G] of Z2 * Z3 is free of rank 2, of index 6."""
    check = _cert_check("AllcockBound", 0, index=6, bound="2", abelian_invariants=_free(2))
    words = [commutator((1,), (2,)), commutator((1,), (-2,))]
    return _cli_job(family, Z2_Z3, ["certify", "allcock"], check, rng, words)


def _dump_table(sp, order):
    check = _table_check(order, len(sp.names))
    return lambda family, rng: _cli_job(family, sp, ["dump-table"], check, rng, certify=False)


def _z_surjection(sp, max_index, check):
    return lambda family, rng: _cli_job(family, sp, ["certify", "z-surjection", "--max-index", str(max_index)], check, rng)


def _f2_normal(family, rng):
    check = _lowindex_normal_check(F2_NORMAL_BY_INDEX)
    return _cli_job(family, F2, ["lowindex", "--normal", "--max-index", "6"], check, rng, certify=False)


_NO_Z = _cert_check("Inconclusive", 1)

# family name -> job maker(family, rng)
FAMILIES = {
    # plarge_search
    "p_large.triangle_power": _p_large(TRIANGLE_POWER, 3, 3, 3, index=3),
    "p_large.coxeter_2222": _p_large(COXETER_2222, 2, 4, 2, index=4),
    "p_large.z3_z3_z3": _p_large(free_product_of_cyclics(3, 3), 3, 3, 3, index=3),
    "p_large.z2_z2_z2_z2": _p_large(free_product_of_cyclics(4, 2), 2, 2, 3, index=2),
    "free_quotient.rank4": _free_quotient,
    "power_quotient.big_prime": _power_quotient,
    "p_large_def.z3_z3_z3": _p_large_def(free_product_of_cyclics(3, 3), 3),
    "p_large_def.z2_z2_z2_z2": _p_large_def(free_product_of_cyclics(4, 2), 2),
    "p_large_def.triangle_power": _p_large_def(TRIANGLE_POWER, 3),
    # subgroup_invariants
    "allcock.z2_z3_commutator": _z2z3_commutator,
    "allcock.surface2_mod4": _surface_kernel(2, 4),
    "allcock.surface2_mod8": _surface_kernel(2, 8),
    "allcock.surface2_mod12": _surface_kernel(2, 12),
    "allcock.surface2_mod16": _surface_kernel(2, 16),
    "allcock.dinf_k4": _dinf_power(4),
    "allcock.dinf_k8": _dinf_power(8),
    "allcock.dinf_k16": _dinf_power(16),
    # coset_enum
    "dump_table.s7_coxeter": _dump_table(symmetric_coxeter(7), factorial(7)),
    "dump_table.237_7": _dump_table(triangle_commutator(7), 1092),
    "dump_table.237_8": _dump_table(triangle_commutator(8), 10752),
    "dump_table.m11": _dump_table(M11, 7920),
    # normal_search
    "z_surjection.surface2_k4": _z_surjection(surface(2), 4, _cert_check("ZSurjectionWitness", 0, index=1, abelian_invariants=_free(4))),
    "z_surjection.z2_z3_k8": _z_surjection(Z2_Z3, 8, _cert_check("ZSurjectionWitness", 0, index=6, abelian_invariants=_free(2))),
    "z_surjection.z2_z3_k10": _z_surjection(Z2_Z3, 10, _cert_check("ZSurjectionWitness", 0, index=6, abelian_invariants=_free(2))),
    "z_surjection.triangle_238_k8": _z_surjection(triangle(2, 3, 8), 8, _NO_Z),
    "z_surjection.triangle_334_k8": _z_surjection(triangle(3, 3, 4), 8, _NO_Z),
    "z_surjection.triangle_245_k8": _z_surjection(triangle(2, 4, 5), 8, _NO_Z),
    "lowindex_normal.f2_k6": _f2_normal,
}

# One round of each workload: family -> jobs per round.  The counts put
# the median job and the 90th-percentile job inside one family's band of
# the latency distribution, never on the edge between two families.
WORKLOADS = {
    "plarge_search": {
        "p_large_def.z3_z3_z3": 1,
        "p_large_def.z2_z2_z2_z2": 1,
        "p_large_def.triangle_power": 1,
        "free_quotient.rank4": 3,
        "p_large.z3_z3_z3": 9,
        "power_quotient.big_prime": 3,
        "p_large.z2_z2_z2_z2": 3,
        "p_large.coxeter_2222": 4,
        "p_large.triangle_power": 1,
    },
    "subgroup_invariants": {
        "allcock.z2_z3_commutator": 2,
        "allcock.surface2_mod4": 2,
        "allcock.dinf_k4": 2,
        "allcock.surface2_mod8": 2,
        "allcock.dinf_k8": 5,
        "allcock.surface2_mod12": 2,
        "allcock.surface2_mod16": 1,
        "allcock.dinf_k16": 4,
    },
    "coset_enum": {
        "dump_table.237_7": 26,
        "dump_table.s7_coxeter": 12,
        "dump_table.237_8": 1,
        "dump_table.m11": 1,
    },
    "normal_search": {
        "z_surjection.triangle_238_k8": 4,
        "z_surjection.triangle_334_k8": 3,
        "z_surjection.triangle_245_k8": 3,
        "z_surjection.z2_z3_k8": 4,
        "z_surjection.z2_z3_k10": 19,
        "lowindex_normal.f2_k6": 6,
        "z_surjection.surface2_k4": 1,
    },
}


def job_stream(workload, seed):
    """Endless jobs of ``workload``: round after round of its mix, each
    round shuffled, every job a fresh variant.  A variant whose bytes
    repeat an earlier job's is drawn again, so no input repeats."""
    rng = random.Random(f"{workload}/{seed}")
    mix = WORKLOADS[workload]
    seen = set()
    while True:
        families = [f for f, count in mix.items() for _ in range(count)]
        rng.shuffle(families)
        for family in families:
            while True:
                job = FAMILIES[family](family, rng)
                key = (tuple(job.argv), job.stdin)
                if key not in seen:
                    seen.add(key)
                    break
            yield job
