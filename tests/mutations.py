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
    dict(
        id="curve-piece-unbudgeted",
        path="src/troprat/curve.py",
        old="    geom.check_lattice_count(g + 1)\n",
        new="",
        tests=["tests/test_plane_curve.py::test_a_piece_past_the_lattice_bound_is_refused"],
        recorded="one implementation per job",
    ),
    dict(
        id="newt-projects-higher-arity",
        path="src/troprat/cli.py",
        old="        newt = newton_polygon(f)\n",
        new="        from .geom import hull2\n        newt = hull2(f.support)\n",
        tests=["tests/test_cli.py::TestDeterminismAndErrors::test_newt_refuses_three_variables"],
        recorded="one implementation per job",
    ),
    dict(
        id="unit-key-anchor-lex-max",
        path="src/troprat/rep.py",
        old="    base = ints[min(ints)]\n",
        new="    base = ints[max(ints)]\n",
        tests=["tests/test_search.py::test_unit_key_matches_the_normalized_terms"],
        recorded="one implementation per job",
    ),
    dict(
        id="summand-walk-reversed",
        path="src/troprat/geom.py",
        old="    for d, c in edges:\n",
        new="    for d, c in reversed(edges):\n",
        tests=["tests/test_search.py::test_summand_pairs_of_fixed_polygons"],
        recorded="one implementation per job",
    ),
    dict(
        id="merge-joins-bare-dashes",
        path="src/troprat/cli.py",
        old=' and argv[i + 1] != "--":\n',
        new=":\n",
        tests=["tests/test_cli.py::TestDeterminismAndErrors::test_bare_double_dash_value_exits_2"],
        recorded="one implementation per job",
    ),
    dict(
        id="read-echoes-raw-text",
        path="src/troprat/cli.py",
        old="    inputs = {n: format_poly(p, vars) for n, p in zip(names, polys)}\n",
        new="    inputs = {n: getattr(args, n) for n in names}\n",
        tests=["tests/test_cli_golden.py::test_cli_golden[divisor-edge]"],
        recorded="one input reader, one canvas, one breakpoint computation",
    ),
    dict(
        id="chain-line-root-negated",
        path="src/troprat/curve.py",
        old="CurveLine(_line_anchor((s, root)),",
        new="CurveLine(_line_anchor((s, -root)),",
        tests=["tests/test_cli_golden.py::test_cli_golden[curve-segment]"],
        recorded="one input reader, one canvas, one breakpoint computation",
    ),
    dict(
        id="segment-walked-one-way",
        path="src/troprat/geom.py",
        old="        out.append(((-d[0], -d[1]), c))\n",
        new="",
        tests=["tests/test_geom.py::TestSummands::test_segment"],
        recorded="one input reader, one canvas, one breakpoint computation",
    ),
    dict(
        id="recession-fan-on-lattice-points",
        path="src/troprat/curve.py",
        old="    corners = geom.hull2(f.support).vertices",
        new="    corners = geom.lattice_points(geom.hull2(f.support))",
        tests=["tests/test_curve.py::TestRecessionFan::test_fan_of_a_wide_triangle"],
        recorded="one input reader, one canvas, one breakpoint computation",
    ),
    dict(
        id="canvas-origin-fallback-dropped",
        path="src/troprat/svg.py",
        old="        xs = [Fraction(p[0]) for p in points] or [Fraction(0)]\n"
        "        ys = [Fraction(p[1]) for p in points] or [Fraction(0)]\n",
        new="        xs = [Fraction(p[0]) for p in points]\n"
        "        ys = [Fraction(p[1]) for p in points]\n",
        tests=["tests/test_cli_golden.py::test_cli_golden[divisor-svg-empty]"],
        recorded="one input reader, one canvas, one breakpoint computation",
    ),
    dict(
        id="factor-unit-branch-dropped",
        path="src/troprat/rep.py",
        old="        if p.is_unit:\n            results = set()\n        elif env.chain is not None:\n",
        new="        if env.chain is not None:\n",
        tests=["tests/test_cli.py::TestVerbs::test_factor_of_a_monomial"],
        recorded="one input reader, one canvas, one breakpoint computation",
    ),
]
