"""The full certification pipeline on a Grigorchuk tower.

Every block projection of the telescope is the full symmetric group of
its degree; the kernel of the componentwise sign map contains the
commutator subgroup, so it projects onto the full alternating group of
every such block; ball elements stay separated
by the tail of the tower; and sampled words obey the factorial torsion
bound.  The certificate packages the whole run deterministically.
"""

import json

from telescope import (alt_cutoff, build_telescope, certificate_bytes,
                       check_subdirect, check_tail_injectivity, component_table,
                       emit_certificate, grigorchuk, perfectness_scan,
                       sign_vectors)

rec = grigorchuk()
tg = build_telescope(rec, [1, 2, 3, 4])

print("components:")
for row in component_table(tg):
    print(f"  level {row['level']}: degree {row['base_degree']} + 1 "
          f"-> Sym({row['extended_degree']})")

subdirect = check_subdirect(tg)
print()
print("block projections (full symmetric groups):")
for witness in subdirect.witnesses:
    print(f"  component {witness['component']}: order {witness['order']} "
          f"= {witness['extended_degree']}!")

vectors, image_size, sign_report = sign_vectors(tg)
print()
symbols = sign_report.parameters["symbols"]
print("sign vectors:", ", ".join(
    f"{symbol}: " + "".join("+" if s > 0 else "-" for s in vector)
    for symbol, vector in zip(symbols, vectors)))
print("sign image size:", image_size)

cutoff_report, cutoff = alt_cutoff(tg, image_size)
print()
print(f"alternating cutoff m = {cutoff} "
      "(the sign kernel contains [Gamma, Gamma], so it projects onto "
      "Alt(n) on every Sym(n) block)")
for witness in cutoff_report.witnesses[1:]:
    print(f"  component {witness['component']}: kernel projection order "
          f"{witness['kernel_projection_order']} "
          f"(Alt order {witness['alternating_order']})")

tail = check_tail_injectivity(tg, 2)
print()
print("tail injectivity on the radius-2 ball:", tail.witnesses[0])

scan = perfectness_scan(tg)
print("finite quotients perfect?",
      [(w["component"], w["perfect"]) for w in scan.witnesses])

certificate = certificate_bytes(emit_certificate(
    b"demo", component_table(tg),
    [subdirect, sign_report, cutoff_report, tail, scan], cutoff, []))
doc = json.loads(certificate)
print()
print("certificate digest:", doc["config_digest"][:16], "...")
print("checks recorded:", [c["name"] for c in doc["checks"]])
