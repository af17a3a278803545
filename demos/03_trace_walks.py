"""Traces, the alternating word family, and the return-bound verifiers.

A word acts with its rightmost letter first; its trace records where a
point travels under longer and longer terminal subwords.  Interleaving a
transposition between group letters bounds every such walk: each point
returns within ord(g1...gk) * (k+1) block applications, which is what
makes the whole telescope a torsion group.  A word is a tuple of signed
codes, 0 for t and k for g_k: ``build_w`` and ``parse_word`` make one and
``format_word`` spells it.  ``sweep_case`` evaluates one generator
sequence on every block at once, and both verifiers read a block of it.

The suite also illustrates honest machine-checking: two of the three
documented trace facts verify exhaustively, while the third (the
pigeonhole pairing) has genuine counterexamples that the verifier
surfaces rather than hides.
"""

from telescope import (build_telescope, build_w, format_word, grigorchuk,
                       parse_word, sweep_case, trace, verify_fundamental_general,
                       verify_trace_lemmas, WreathRecursion, Permutation)

rec = grigorchuk()
tg = build_telescope(rec, [1, 2, 3])

comp = tg.components[1]
print("component 2: degree", comp.extended_degree, " basepoint", comp.basepoint,
      " tau =", comp.tau.cycle_string())

word = build_w(1, 2, 0)
print("w(2,0) over one generator:", format_word(word))
for point in range(comp.extended_degree):
    walk = trace(word, point, comp.gen_images, comp.tau)
    print(f"  trace of {point}: {walk}")

print()
print("return bound, swept over every point of every component:")
case = sweep_case(tg, [parse_word("g1"), parse_word("g2")])
for ci in range(3):
    report = verify_fundamental_general(tg, ci, case)
    worst = report.witnesses[0]["largest_return"]
    print(f"  component {ci + 1}: bound {report.parameters['bound']}, "
          f"worst return time {worst}, pass = {report.passed}")

print()
print("trace facts on the smallest extension (one involution on two points):")
c2 = WreathRecursion(arity=2, names=("g1",), root_perms=(Permutation((1, 0)),),
                     sections=(((), ()),), contracting=True)
demo = build_telescope(c2, [1])
report = verify_trace_lemmas(demo, 0, sweep_case(demo, [parse_word("g1")]))
print("  clear/return facts hold:",
      not any(w.get("check") in ("trace_stays_clear", "basepoint_returns")
              for w in report.witnesses))
pigeonhole = [w for w in report.witnesses if w.get("check") == "pigeonhole_pair"]
print("  stated pigeonhole fact fails at points:",
      sorted(w["point"] for w in pigeonhole))
print("  (the verifier reports the counterexamples; the return bound above")
print("   holds regardless, and it is the fact the torsion bound rests on)")
