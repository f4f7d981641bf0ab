"""Recorded mutations of `src/` and the tests that must catch each one.

`run_mutations.py` applies an entry's `old` -> `new` replacement (the `old`
snippet must occur exactly once in `path`) to a copy of `src/` and expects
the `tests` node ids to fail there.  `recorded` names the change that added
the entry.
"""

MUTATIONS = [
    dict(
        id="hull-seed-projected-edge",
        path="src/troprat/geom.py",
        old="    queue = deque([(a, along[t1])])\n",
        new="    queue = deque([(a, b)])\n",
        tests=["tests/test_hull.py::test_dense_grids_with_tied_lifts"],
        recorded="upper hull from the polynomial's ints and one seed edge",
    ),
    dict(
        id="hull-no-reverse-edges",
        path="src/troprat/geom.py",
        old="            queue.append((v, u))\n",
        new="",
        tests=["tests/test_hull.py::test_random_lifts"],
        recorded="upper hull from the polynomial's ints and one seed edge",
    ),
    dict(
        id="hull-seed-cw-edge",
        path="src/troprat/geom.py",
        old="    a, b = hull.vertices[:2]\n",
        new="    a, b = hull.vertices[0], hull.vertices[-1]\n",
        tests=["tests/test_hull.py::test_random_lifts"],
        recorded="upper hull from the polynomial's ints and one seed edge",
    ),
    dict(
        id="hull-line-points-untested",
        path="src/troprat/geom.py",
        old="        on += [p for p in line if n0 * p[0] + n1 * p[1] + n2 * val[p] == d]\n",
        new="        on += line\n",
        tests=["tests/test_hull.py::test_dense_grids_with_tied_lifts"],
        recorded="chord-filtered one-scan upper hull",
    ),
    dict(
        id="hull-cw-triangle",
        path="src/troprat/geom.py",
        old="            corners = (a, b, on[0])\n",
        new="            corners = (b, a, on[0])\n",
        tests=["tests/test_hull.py::test_dense_grids_with_tied_lifts"],
        recorded="chord-filtered one-scan upper hull",
    ),
    dict(
        id="divisor-normal-unsigned",
        path="src/troprat/curve.py",
        old="    if n[0] < 0 or (n[0] == 0 and n[1] < 0):\n        n = (-n[0], -n[1])\n",
        new="",
        tests=["tests/test_fraction_reference.py::test_curve_pieces_match_the_reference"],
        recorded="parser terms and plane-curve pieces in ints",
    ),
    dict(
        id="balancing-edge-unoriented",
        path="src/troprat/curve.py",
        old="        if (d > (0, 0)) != (e.a < e.b):",
        new="        if False:",
        tests=["tests/test_fraction_reference.py::test_curve_pieces_match_the_reference"],
        recorded="parser terms and plane-curve pieces in ints",
    ),
    dict(
        id="parse-number-power-ignored",
        path="src/troprat/parse.py",
        old="(t.lexeme).as_integer_ratio()\n"
        "                p, q = p * b + a * self.power() * q, q * b\n",
        new="(t.lexeme).as_integer_ratio()\n"
        "                p, q = p * b + a * q + 0 * self.power(), q * b\n",
        tests=["tests/test_fraction_reference.py::test_terms_match_the_fraction_reference"],
        recorded="parser terms and plane-curve pieces in ints",
    ),
]
