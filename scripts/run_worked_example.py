#!/usr/bin/env python3
"""Walk one capture step by hand on the smallest interesting instance.

Starting from the root condition over Q + Z/2 with denominators opened at
{3}, the target x = 1/3 is captured at depth 0, so the witness has k = 2
generator parts.  The script prints every object the step produces and
re-derives the span lemma that keeps the decomposition honest: no small
multiple of the head lands in a partial generator span.
"""

from fractions import Fraction as F

from ssgpkit import (
    HSpec,
    Instance,
    WideGroup,
    check_lemma_iterative,
    extend_primes,
    extend_ssgp,
    member,
)
from ssgpkit.arith import valuation
from ssgpkit.poset import root


def main():
    inst = Instance(WideGroup(1, "full"), HSpec(0, (2,)))
    p = extend_primes(inst, root(inst), {3})
    x = inst.make([F(1, 3)], [], [0])
    print(f"condition p: pi = {sorted(p.pi)}, depth = {p.n}, scales = {list(p.s)}")
    print(f"target x = {inst.format_elem(x)}")

    q, w = extend_ssgp(inst, p, x)
    print(f"\ncondition q: pi = {sorted(q.pi)}, depth = {q.n}")
    print(f"witness: k = {len(w.parts)} parts")
    print(f"  head g_0 + h = {inst.format_elem(w.head)}")
    for j, g in enumerate(w.parts, start=1):
        print(f"  part g_{j}   = {inst.format_elem(g)}")
    assert w.verify_identity(inst), "head + parts must sum to x"
    print("identity x = (g_0 + h) + g_1 + g_2 checked exactly")

    top = q.u[q.n]
    print(f"\ntop level set: {len(top.atoms)} atoms, {len(top.sums)} sum parts")
    print(f"head is a member: {member(inst, w.head, top)}")
    print(f"x itself is a member: {member(inst, x, top)} "
          "(capture goes through the witness, not through x)")

    # the obstruction behind the decomposition: l*g_0 keeps a denominator
    # prime that p has not opened and only one part carries
    g0 = w.head.q
    gs = [g.q for g in w.parts]
    pis = [p.pi, p.pi | {5}, p.pi | {5, 7}]
    print("\nspan lemma for pi_0 = {3}, g_1 = 1/5, g_2 = 1/7:")
    for l in (-2, -1, 1, 2):
        vals = {r: valuation(r, l * g0[0]) for r in (5, 7)}
        print(f"  l = {l:+d}: v_5 = {vals[5]}, v_7 = {vals[7]}")
        assert vals[5] < 0 and vals[7] < 0
    rep = check_lemma_iterative(pis, gs, 1, g0)
    print(f"  checks: {rep.checks}")
    assert rep.ok()
    print("so l*g_0 is outside Z*g_j + Q_{3} for each j and 0 < |l| <= 2")

if __name__ == "__main__":
    main()
