"""The Grigorchuk group through its level actions.

The recursion a = swap, b = (a, c), c = (a, d), d = (1, b) defines a
finitely generated infinite torsion group acting on the binary tree.
Its level actions are the finite quotients the telescope construction
feeds on: every level is transitive, every element has 2-power order,
and word balls grow slowly enough to enumerate exactly.
"""

from telescope import grigorchuk

rec = grigorchuk()

print("level actions:")
for level in (1, 2, 3):
    perms = rec.level_action(level)
    images = ", ".join(f"{name} -> {perm.cycle_string()}"
                       for name, perm in zip(rec.names, perms))
    print(f"  level {level} (degree {perms[0].degree}): {images}")

print()
print("exact element orders:")
for text in ("a", "b", "c", "d", "a d", "a c", "a b", "b c"):
    word = rec.parse(text)
    print(f"  ord({text.replace(' ', '')}) = {rec.element_order(word)}")
print("  (b c equals d:", rec.equal(rec.parse("b c"), rec.parse("d")), ")")

print()
print("ball sizes and torsion growth:")
for radius in range(1, 6):
    ball = rec.ball(radius)
    print(f"  radius {radius}: {len(ball):3d} elements, "
          f"max order {rec.torsion_growth(radius)}")

print()
print("the order of a*b climbs with the level and stabilizes at 16:")
ab = rec.parse("a b")
for level in range(1, 7):
    a, b = rec.level_action(level)[:2]
    image = a * b
    print(f"  level {level}: order {image.order()}")
print("element_order(a b) =", rec.element_order(ab))
