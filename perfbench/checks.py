"""Correctness checks made apart from ssgpkit.

Everything here reads the chain file as plain JSON and computes with
`fractions.Fraction` and the standard library only; nothing imports the
package under test.  An element is a triple (q, free, tor) of tuples.
Each check returns a list of failure messages, empty when it passes.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

FOREIGN_PRIME_LIMIT = 500  # foreign denominator primes are drawn below this
FOREIGN_NUMERATOR = 40  # ... with numerators in [-40, 40]
PART_MULTIPLES = (1, -1, 2, -2, -3)


def canonical_bytes(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii") + b"\n"


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class Ambient:
    """Arithmetic in Q^m + Z^a + Z/d_1 + ... read from the chain's instance."""

    def __init__(self, instance: dict):
        self.m = int(instance["group"]["m"])
        self.free_rank = int(instance["h"]["free_rank"])
        self.orders = tuple(int(d) for d in instance["h"]["torsion_orders"])

    def elem(self, obj: dict):
        return (
            tuple(Fraction(c) for c in obj["q"]),
            tuple(int(c) for c in obj.get("free", ())),
            tuple(int(c) % d for c, d in zip(obj.get("tor", ()), self.orders)),
        )

    def zero(self):
        return ((Fraction(0),) * self.m, (0,) * self.free_rank, (0,) * len(self.orders))

    def add(self, x, y):
        return (
            tuple(a + b for a, b in zip(x[0], y[0])),
            tuple(a + b for a, b in zip(x[1], y[1])),
            tuple((a + b) % d for a, b, d in zip(x[2], y[2], self.orders)),
        )

    def smul(self, n: int, x):
        return (
            tuple(n * a for a in x[0]),
            tuple(n * a for a in x[1]),
            tuple((n * a) % d for a, d in zip(x[2], self.orders)),
        )

    @staticmethod
    def literal(x) -> str:
        """The `a/b,...;h` text form the ssgpkit command line reads."""
        qs = ",".join(str(c) for c in x[0])
        hs = ",".join(str(c) for c in x[1] + x[2])
        return f"{qs};{hs}" if hs else qs


# -- the chain file ----------------------------------------------------------


def check_canonical(raw: bytes) -> list[str]:
    """The file is one line of sorted-key, whitespace-free JSON."""
    if canonical_bytes(json.loads(raw)) != raw:
        return ["chain file is not canonical JSON"]
    return []


def _captures(doc: dict):
    return [e for e in doc["met"] if e["request"]["kind"] == "ssgp"]


def _avoids(doc: dict):
    return [e for e in doc["met"] if e["request"]["kind"] == "avoid"]


def check_witnesses(doc: dict, amb: Ambient) -> list[str]:
    """target = head + sum(parts) in plain Fraction sums, and 2^n + 1 parts
    at capture depth n (the trivial witness of 0 has none)."""
    bad = []
    for k, e in enumerate(_captures(doc)):
        w = e["witness"]
        target, head = amb.elem(w["target"]), amb.elem(w["head"])
        parts = [amb.elem(g) for g in w["parts"]]
        if target != amb.elem(e["request"]["elem"]):
            bad.append(f"capture {k}: witness target is not the requested element")
        acc = head
        for g in parts:
            acc = amb.add(acc, g)
        if acc != target:
            bad.append(f"capture {k}: head + parts != target for {amb.literal(target)}")
        if target == amb.zero():
            if parts or head != amb.zero():
                bad.append(f"capture {k}: the witness of 0 is not trivial")
        elif len(parts) != 2 ** int(w["level"]) + 1:
            bad.append(
                f"capture {k}: {len(parts)} parts at depth {w['level']}, "
                f"expected {2 ** int(w['level']) + 1}"
            )
    return bad


def _pure_lattice(amb: Ambient, level: dict):
    """The modulus s if the level set is exactly 0 + s*Z^m, else None."""
    if level["sums"] or len(level["atoms"]) != 1:
        return None
    a = level["atoms"][0]
    if a["gens"] or amb.elem(a["base"]) != amb.zero():
        return None
    return int(a["mod"])


def check_separations(doc: dict, amb: Ambient) -> list[str]:
    """Each separated x is nonzero and, at its separation level n, every
    condition reaching n holds the pure lattice s*Z^m + 0 with x outside it,
    so x is outside the stage set (their union)."""
    bad = []
    for e in _avoids(doc):
        x = amb.elem(e["request"]["elem"])
        n = int(e["level"])
        name = amb.literal(x)
        if x == amb.zero():
            bad.append("separation of 0 recorded")
            continue
        for k, cond in enumerate(doc["conditions"]):
            if cond["n"] < n:
                continue
            s = _pure_lattice(amb, cond["u"][n])
            if s is None:
                bad.append(f"separation of {name}: condition {k} level {n} is not a pure lattice")
                break
            inside = (
                not any(x[1]) and not any(x[2])
                and all(c.denominator == 1 and c.numerator % s == 0 for c in x[0])
            )
            if inside:
                bad.append(f"separation of {name}: inside {s}*Z^m at condition {k} level {n}")
                break
    return bad


def check_certificates(doc: dict, amb: Ambient, seps: dict, caps: dict) -> list[str]:
    """The program's certificates equal the ones recorded in the file.

    seps maps a separated element to the level separation_certificate gave;
    caps maps (element, level) to the (head, parts) ssgp_certificate gave.
    """
    bad = []
    for e in _avoids(doc):
        x = amb.elem(e["request"]["elem"])
        if seps.get(x) != int(e["level"]):
            bad.append(f"separation_certificate({amb.literal(x)}) = {seps.get(x)}, file says {e['level']}")
    for e in _captures(doc):
        x = amb.elem(e["request"]["elem"])
        lv = int(e["request"]["level"])
        w = e["witness"]
        want = (amb.elem(w["head"]), tuple(amb.elem(g) for g in w["parts"]))
        if caps.get((x, lv)) != want:
            bad.append(f"ssgp_certificate({amb.literal(x)}, {lv}) differs from the file")
    return bad


# -- queries with known answers ----------------------------------------------


def known_queries(doc: dict, amb: Ambient, head_pairs: int, foreign: int, seed: int):
    """(element, level, expected) triples whose answer follows from the
    axioms and the recorded witnesses alone:

    - 0 is in every stage;
    - each head h and -h is in every stage <= L, the capture level (h is
      in stage L);
    - k*g for k in PART_MULTIPLES and each part g is in stage L (<g> is);
    - a sum of two signed heads is in stage L-1 (U_L + U_L in U_{L-1});
    - an element with a denominator prime outside the final pi is in no
      stage, down to the deepest separation level (no atom reaches that
      prime; G = Q^m in every workload, so any prime is allowed).

    The seed draws the head pairs and the foreign elements only.
    """
    caps = _captures(doc)
    L = max(int(e["witness"]["level"]) for e in caps)  # the capture level
    levels = range(L + 1)
    deepest = max(int(c["n"]) for c in doc["conditions"])
    zero = amb.zero()
    heads, parts = [], []
    for e in caps:
        h = amb.elem(e["witness"]["head"])
        if h != zero and h not in heads:
            heads.append(h)
        for g in e["witness"]["parts"]:
            g = amb.elem(g)
            if g not in parts:
                parts.append(g)
    out = [(zero, i, True) for i in range(deepest + 1)]
    for h in heads:
        out += [(y, i, True) for y in (h, amb.smul(-1, h)) for i in levels]
    out += [(amb.smul(k, g), L, True) for g in parts for k in PART_MULTIPLES]

    rng = random.Random(seed)
    signed = heads + [amb.smul(-1, h) for h in heads]
    if L >= 1 and signed:
        for _ in range(head_pairs):
            out.append((amb.add(rng.choice(signed), rng.choice(signed)), L - 1, True))
    pi = set(doc["conditions"][-1]["pi"])
    primes = [
        p for p in range(2, FOREIGN_PRIME_LIMIT)
        if _is_prime(p) and p not in pi
    ]
    for _ in range(foreign):
        p = rng.choice(primes)
        a = rng.choice([a for a in range(-FOREIGN_NUMERATOR, FOREIGN_NUMERATOR + 1) if a % p])
        q = (Fraction(a, p),) + tuple(Fraction(rng.randint(-3, 3)) for _ in range(amb.m - 1))
        free = tuple(rng.randint(-3, 3) for _ in range(amb.free_rank))
        tor = tuple(rng.randrange(d) for d in amb.orders)
        out += [((q, free, tor), i, False) for i in range(deepest + 1)]
    return out


def check_known(known, answers: list[bool], amb: Ambient) -> list[str]:
    return [
        f"member({amb.literal(x)}, level {i}) = {got}, expected {want}"
        for (x, i, want), got in zip(known, answers)
        if got != want
    ]


# -- open answers ------------------------------------------------------------


def property_closure(open_keys, answers: dict, amb: Ambient):
    """The (element, level) pairs whose answers the two properties need
    beyond the open batch: -x at the same level, and x one level down
    wherever x is in a stage above 0."""
    need = []
    for x, i in open_keys:
        need.append((amb.smul(-1, x), i))
        if answers[(x, i)] and i > 0:
            need.append((x, i - 1))
    return [k for k in dict.fromkeys(need) if k not in answers]


def check_open_properties(open_keys, answers: dict, amb: Ambient) -> list[str]:
    """member(x) = member(-x), and member(x, S_{i+1}) implies member(x, S_i)."""
    bad = []
    for x, i in open_keys:
        ans = answers[(x, i)]
        if answers[(amb.smul(-1, x), i)] != ans:
            bad.append(f"level {i}: member({amb.literal(x)}) differs from member of its negation")
        if ans and i > 0 and not answers[(x, i - 1)]:
            bad.append(f"{amb.literal(x)} is in stage {i} but not in stage {i - 1}")
    return bad


# -- the coset oracle (m = 1) ------------------------------------------------


class OracleError(ValueError):
    """The chain is outside what the coset oracle decides."""


def _qgcd(a: Fraction, b: Fraction) -> Fraction:
    """Positive generator of Z*a + Z*b in Q (0 only if both are 0)."""
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


class CosetOracle:
    """Membership in the stage sets of an m = 1 chain, decided by expanding
    every sum part from the chain JSON into cosets r + Z*d (with a fixed
    H-part) and testing x against each coset directly.

    An atom base + Z*g_1 + ... + Z*g_r + mod*Z is the coset
    base + Z*gcd(g_1, ..., g_r, mod) when every generator has zero H-part;
    a sum of two cosets is the coset of the summed bases modulo the gcd of
    both moduli and the sum's lattice term.  A stage set is the union of its
    level over every condition that reaches it.
    """

    def __init__(self, doc: dict, amb: Ambient):
        if amb.m != 1:
            raise OracleError("the coset oracle handles m = 1 only")
        self.amb = amb
        self.doc = doc
        self._memo: dict[str, frozenset] = {}
        self._stages: dict[int, dict] = {}

    def _atom(self, a: dict):
        base = self.amb.elem(a["base"])
        d = Fraction(int(a["mod"]))
        for g in a["gens"]:
            g = self.amb.elem(g)
            if any(g[1]) or any(g[2]):
                raise OracleError("a generator has a nonzero H-part")
            d = _qgcd(d, g[0][0])
        return (d, base[0][0] % d, base[1], base[2])

    def _add(self, c1, c2, latt: int):
        d = _qgcd(c1[0], c2[0])
        if latt:
            d = _qgcd(d, Fraction(latt))
        h = self.amb.add(((Fraction(0),), c1[2], c1[3]), ((Fraction(0),), c2[2], c2[3]))
        return (d, (c1[1] + c2[1]) % d, h[1], h[2])

    def cosets(self, S: dict) -> frozenset:
        key = json.dumps(S, sort_keys=True)
        if key not in self._memo:
            out = {self._atom(a) for a in S["atoms"]}
            for sp in S["sums"]:
                left, right = self.cosets(sp["left"]), self.cosets(sp["right"])
                out |= {self._add(a, b, int(sp["lattice"])) for a in left for b in right}
            self._memo[key] = frozenset(out)
        return self._memo[key]

    def stage(self, i: int) -> dict:
        """Residues of stage i grouped by (modulus, H-part)."""
        if i not in self._stages:
            union = set()
            for cond in self.doc["conditions"]:
                if int(cond["n"]) >= i:
                    union |= self.cosets(cond["u"][i])
            grouped: dict = {}
            for d, r, free, tor in union:
                grouped.setdefault((d, free, tor), set()).add(r)
            self._stages[i] = grouped
        return self._stages[i]

    def member(self, x, i: int) -> bool:
        q, free, tor = x
        return any(
            f == free and t == tor and q[0] % d in rs
            for (d, f, t), rs in self.stage(i).items()
        )


def check_oracle(oracle: CosetOracle, open_keys, answers: dict, amb: Ambient) -> list[str]:
    return [
        f"member({amb.literal(x)}, level {i}) = {answers[(x, i)]}, oracle says {not answers[(x, i)]}"
        for x, i in open_keys
        if oracle.member(x, i) != answers[(x, i)]
    ]
