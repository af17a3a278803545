"""Extending a single finite action by one fresh point.

The smallest interesting example: the two-element group acting regularly
on {0, 1}.  Appending a fresh point q = 2 and the transposition
tau = (0, 2) turns the extension into all of Sym(3), and the product
tau * g is a 3-cycle, so the extended group mixes the new point into
every orbit.
"""

from telescope import (ExtendedAction, PermGroup, Permutation, orbit,
                       parse_word, TelescopeGroup)

base = Permutation((1, 0))
print("base action: g =", base.cycle_string(), "on {0, 1}")

ext = ExtendedAction([base], 0)
print("extended degree:", ext.extended_degree)
print("tau =", ext.tau.cycle_string())
print("g extends to", ext.gen_images[0].cycle_string(), "fixing the fresh point")

group = PermGroup(list(ext.gen_images) + [ext.tau])
print("order of <g, tau> =", group.order(), "(all of Sym(3):",
      group.is_full_symmetric(), ")")

tg = TelescopeGroup((ext,), ("g1",))
word = parse_word("t g1")
image = tg.evaluate(word)[0]
print("t g1 evaluates to", image.cycle_string(), "of order", image.order())
print("orbit of 0 under t g1:", orbit([image], 0))

print()
print("powers of t g1 acting on 0:")
point = 0
for step in range(1, 4):
    point = image(point)
    print(f"  after {step} application(s): {point}")
print("so the fresh point joins the walk after a single transposition.")
