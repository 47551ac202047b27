"""Source-level rules for the package."""
import ast
import importlib
import pathlib
import shutil
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "diskeds"
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm"}


def test_no_assert_statements_in_the_package():
    # asserts vanish under python -O; invariants raise CrossCheckMismatch
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_floats_in_the_package():
    # exact arithmetic only: no float literal, no float(...) call, no
    # import of math (its functions return floats) and from math only its
    # integer functions
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno}: float literal")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append(f"{path.name}:{node.lineno}: float(...)")
            elif isinstance(node, ast.Import) and any(
                    alias.name == "math" for alias in node.names):
                found.append(f"{path.name}:{node.lineno}: import math")
            elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                    alias.name not in INTEGER_MATH for alias in node.names):
                found.append(f"{path.name}:{node.lineno}: from math import")
    assert found == []


def _owned_nodes(body, owner=None):
    """(owner, node) for every node under the statements ``body``: the
    owner is the top-level function or assigned name a node lies in, or
    ``Class.method`` inside a class."""
    for stmt in body:
        if isinstance(stmt, ast.ClassDef):
            yield from _owned_nodes(stmt.body, stmt.name)
            continue
        name = getattr(stmt, "name", None) or "/".join(
            t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name))
        name = f"{owner}.{name}" if owner else name
        yield from ((name, node) for node in ast.walk(stmt))


def test_exact_power_owns_every_computed_power():
    # exact.power bounds the bits of each power the analysis takes; a '**'
    # or pow() with an exponent that is not an integer literal anywhere
    # else escapes that bound.  The digit writer's powers of 10 are sized
    # by the value it writes, not by the input
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, node in _owned_nodes(tree.body):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                exponent = node.right
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
                exponent = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "pow" and len(node.args) >= 2):
                exponent = node.args[1]
            else:
                continue
            if not (isinstance(exponent, ast.Constant) and type(exponent.value) is int):
                found.append(f"{path.name}:{owner}")
    assert sorted(found) == ["exact.py:_PIECE", "exact.py:_digits", "exact.py:power"]


FRACTION_SLOTS = {"_numerator", "_denominator"}


def _fraction_layout_uses(sources):
    """name:owner for every use of Fraction's private layout in the modules
    of ``sources`` (name -> text): an attribute or a string naming one of
    its slots, or object.__new__."""
    found = []
    for name, text in sources.items():
        for owner, node in _owned_nodes(ast.parse(text).body):
            if isinstance(node, ast.Attribute):
                used = node.attr in FRACTION_SLOTS or (
                    node.attr == "__new__" and getattr(node.value, "id", None) == "object")
            else:
                used = isinstance(node, ast.Constant) and node.value in FRACTION_SLOTS
            if used:
                found.append(f"{name}:{owner}")
    return sorted(set(found))


def test_exact_owns_the_fraction_layout():
    # exact checks at import that Fraction keeps its parts in the two slots
    # its _fraction writes and its kernels read; a slot read or a Fraction
    # made by object.__new__ anywhere else rests on a layout never checked
    found = _fraction_layout_uses({path.name: path.read_text()
                                   for path in sorted(SRC.glob("*.py"))})
    assert "exact.py:_fraction" in found
    assert [use for use in found if not use.startswith("exact.py:")] == []


def test_the_fraction_layout_rule_finds_a_slot_read():
    source = (SRC / "geometry.py").read_text() + (
        "\n\ndef _denominator_of(x):\n    return x._denominator\n")
    assert _fraction_layout_uses({"geometry.py": source}) == ["geometry.py:_denominator_of"]


def _report_writes(sources):
    """name:owner for every json.dump or json.dumps call that passes an
    indent, and every call of the report writer ``_write_json`` outside
    ``reports.emit_report`` and the writer itself, in the modules of
    ``sources`` (name -> text)."""
    found = []
    for name, text in sources.items():
        for owner, node in _owned_nodes(ast.parse(text).body):
            if not isinstance(node, ast.Call):
                continue
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            if called in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords):
                found.append(f"{name}:{owner}")
            elif called == "_write_json" and f"{name}:{owner}" not in (
                    "reports.py:emit_report", "reports.py:_write_json"):
                found.append(f"{name}:{owner}")
    return sorted(set(found))


def test_emit_report_writes_every_report():
    # one writer of report bytes: the json module's indented encoder is the
    # pure-Python one, and a second writer could drift from the first
    found = _report_writes({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert found == []


def test_the_report_writer_rule_finds_an_indented_dump():
    source = (SRC / "cli.py").read_text() + (
        "\n\ndef _pretty(obj):\n    return json.dumps(obj, sort_keys=True, indent=2)\n"
        "\n\ndef _again(obj, out):\n    reports._write_json(obj, '\\n', out)\n")
    assert _report_writes({"cli.py": source}) == ["cli.py:_again", "cli.py:_pretty"]


def _rational_str_uses(text):
    """The owner of every use of ``rational_str`` in the module source
    ``text``, a call or the name passed on."""
    return sorted({owner for owner, node in _owned_nodes(ast.parse(text).body)
                   if getattr(node, "id", getattr(node, "attr", None)) == "rational_str"})


def test_the_leaf_rule_owns_every_report_rational():
    # one rule writes a report's Fractions in both formats; a second
    # caller in reports.py is a second rendering that could drift
    assert _rational_str_uses((SRC / "reports.py").read_text()) == ["_leaf"]


def test_the_leaf_rule_finds_a_second_caller():
    source = (SRC / "reports.py").read_text() + (
        "\n\ndef _row(xs):\n    return ', '.join(map(rational_str, xs))\n")
    assert _rational_str_uses(source) == ["_leaf", "_row"]


def test_echelon_owns_every_row_update():
    # one elimination in the package: a row_minus call anywhere else is a
    # second elimination loop
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, node in _owned_nodes(tree.body):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "row_minus":
                found.append(f"{path.name}:{owner}")
    assert sorted(set(found)) == ["linalg.py:_echelon"]


JET_OPERATORS = {f"__{side}{op}__" for side in ("", "r", "i") for op in ("add", "sub", "mul")}


# the tangent-sum arguments of the calls that take them: _add_scaled(nums,
# dens, ...) and _jet(value, nums, dens)
TANGENT_ARGUMENTS = {"_add_scaled": (0, 1), "_jet": (1, 2)}


def _calls(function):
    """(callee name, argument names by position) of every call in ``function``."""
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            yield callee, [getattr(arg, "id", None) for arg in node.args]


def _tangent_sums(functions):
    """The tangent sums of each function of ``functions``: ``nums``,
    ``dens``, the names it passes where _add_scaled, _jet or a function of
    the module takes a tangent sum, and its parameters where a caller
    passes one in."""
    by_name = {}
    for node in functions:
        by_name.setdefault(node.name, []).append(node)
    sums = {node: {"nums", "dens"} for node in functions}

    def taken(callee):
        """The argument positions where ``callee`` takes a tangent sum."""
        out = set(TANGENT_ARGUMENTS.get(callee, ()))
        for target in by_name.get(callee, ()):
            out |= {k for k, a in enumerate(target.args.args) if a.arg in sums[target]}
        return out

    grown = True
    while grown:
        grown = False
        for node in functions:
            for callee, args in _calls(node):
                passed = {k for k, a in enumerate(args) if a in sums[node]}
                for target in by_name.get(callee, ()):
                    names = {a.arg for k, a in enumerate(target.args.args) if k in passed}
                    grown |= not names <= sums[target]
                    sums[target] |= names
                names = {args[k] for k in taken(callee) if k < len(args) and args[k]}
                grown |= not names <= sums[node]
                sums[node] |= names
    return sums


def _first_jet_rule_breaks(sources):
    """name:owner for every + - * operator class FirstJet defines and for
    every write to an item of a tangent sum (see :func:`_tangent_sums`)
    outside exact._add_scaled, in the modules of ``sources`` (name -> text)."""
    found = []
    for name, text in sources.items():
        functions = {}
        for owner, node in _owned_nodes(ast.parse(text).body):
            if owner.startswith("FirstJet.") and owner.split(".")[1] in JET_OPERATORS:
                found.append(f"{name}:{owner}")
            if isinstance(node, ast.FunctionDef):
                functions[node] = owner
        for function, names in _tangent_sums(functions).items():
            for node in ast.walk(function):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, ast.AugAssign):
                    targets = [node.target]
                else:
                    continue
                if any(isinstance(sub, ast.Subscript) and getattr(sub.value, "id", None)
                       in names for target in targets for sub in ast.walk(target)):
                    found.append(f"{name}:{functions[function]}")
    return sorted(use for use in set(found) if use != "exact.py:_add_scaled")


def test_first_jets_run_on_one_rule_set():
    # a FirstJet is a value-and-tangent record: its sums and products run
    # on sum_of_products and its quotients on _quotient, each tangent sum
    # updated by _add_scaled alone; a + - * operator or a second tangent
    # update would be a second rule set to keep in step with the first
    found = _first_jet_rule_breaks({path.name: path.read_text()
                                    for path in sorted(SRC.glob("*.py"))})
    assert found == []


def test_the_first_jet_rule_finds_an_operator_and_a_tangent_update():
    # a tangent sum is found by where it goes, under any name: straight to
    # _jet, into a helper's parameter, or through a helper to _jet
    source = (SRC / "exact.py").read_text().replace(
        "    def __neg__(self):",
        "    def __add__(self, other):\n        return self\n\n"
        "    __rmul__ = __add__\n\n    def __neg__(self):") + (
        "\n\ndef _bump(nums, dens, k):\n    nums[k] += dens[k]\n"
        "\n\ndef _shifted(value, tops, bottoms):\n"
        "    tops[0], bottoms[0] = _pair_sum(tops[0], bottoms[0], 1, 1)\n"
        "    return _jet(value, tops, bottoms)\n"
        "\n\ndef _nudged(value, tops, bottoms):\n"
        "    _nudge(tops)\n    return _jet(value, tops, bottoms)\n"
        "\n\ndef _nudge(row):\n    row[0] += 1\n"
        "\n\ndef _finished(value, tops, bottoms):\n"
        "    tops[-1] = 0\n    return _as_jet(value, tops, bottoms)\n"
        "\n\ndef _as_jet(value, a, b):\n    return _jet(value, a, b)\n")
    assert _first_jet_rule_breaks({"exact.py": source}) == [
        "exact.py:FirstJet.__add__", "exact.py:FirstJet.__rmul__", "exact.py:_bump",
        "exact.py:_finished", "exact.py:_nudge", "exact.py:_shifted"]


STRATUM_BUILDERS = {"make_system", "probe_from_values"}


def _stratum_builds(sources):
    """name:owner for every call of a stratum builder (make_system,
    probe_from_values) in the modules of ``sources`` (name -> text)."""
    found = []
    for name, text in sources.items():
        for owner, node in _owned_nodes(ast.parse(text).body):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in STRATUM_BUILDERS:
                found.append(f"{name}:{owner}")
    return sorted(set(found))


def test_the_loader_owns_every_stratum_build():
    # a stratum's system and probes are built on its first read, from what
    # the loader checked; a builder called anywhere else builds a stratum a
    # second time, or for a command that reads none
    found = _stratum_builds({path.name: path.read_text()
                             for path in sorted(SRC.glob("*.py"))})
    assert found == ["reports.py:_Strata.__getitem__"]


def test_the_stratum_build_rule_finds_a_second_caller():
    source = (SRC / "cli.py").read_text() + (
        "\n\ndef _system_of(lp, name):\n    return make_system(2, [], order=1)\n")
    assert _stratum_builds({"cli.py": source}) == ["cli.py:_system_of"]


def _canonical_builds(sources):
    """name:owner for every call of Polynomial.canonical in the modules of
    ``sources`` (name -> text)."""
    found = []
    for name, text in sources.items():
        for owner, node in _owned_nodes(ast.parse(text).body):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "canonical":
                found.append(f"{name}:{owner}")
    return sorted(set(found))


def test_the_jet_layout_owns_every_unchecked_polynomial():
    # Polynomial.canonical checks nothing, so only outputs canonical by
    # construction may go through it: the derivations, conjugation,
    # widening and the substitution's term removal on the jet layout
    found = _canonical_builds({path.name: path.read_text()
                               for path in sorted(SRC.glob("*.py"))})
    assert found == ["jets.py:_derivation", "jets.py:_widen", "jets.py:_without",
                     "jets.py:conjugate_involution"]


def test_the_unchecked_polynomial_rule_finds_a_second_caller():
    source = (SRC / "geometry.py").read_text() + (
        "\n\ndef _shifted(p):\n    return Polynomial.canonical(p.vars, dict(p.terms))\n")
    assert _canonical_builds({"geometry.py": source}) == ["geometry.py:_shifted"]


def _power_calls(sources):
    """name:owner for every call of exact.power in the modules of
    ``sources`` (name -> text)."""
    found = []
    for name, text in sources.items():
        for owner, node in _owned_nodes(ast.parse(text).body):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) == "power":
                found.append(f"{name}:{owner}")
    return sorted(set(found))


def test_monomial_owns_every_power_at_a_point():
    # one polynomial evaluator in the package: an exact.power call outside
    # the prepared point that exact.polynomial_at reads its powers from,
    # the parser's literal powers and the pseudo-ellipsoid's closed form is
    # a second evaluator
    found = _power_calls({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert found == ["exact.py:PreparedPoint.factor", "expr.py:_Parser.factor",
                     "torsion.py:pseudo_ellipsoid_check"]


def test_the_one_evaluator_rule_finds_a_second_caller():
    source = (SRC / "geometry.py").read_text() + (
        "\n\ndef _value_at(p, point):\n"
        "    return sum(c * power(point[0], e[0]) for e, c in p.terms.items())\n")
    assert _power_calls({"geometry.py": source}) == ["geometry.py:_value_at"]


def _exponent_sums(sources):
    """name:owner for every elementwise sum of two sequences in the modules
    of ``sources`` (name -> text): a map() of an add, or a comprehension of
    x + y over ``zip``, the exponents of a monomial product."""
    found = []
    for name, text in sources.items():
        for owner, node in _owned_nodes(ast.parse(text).body):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "map":
                adds = bool(node.args) and getattr(
                    node.args[0], "id", getattr(node.args[0], "attr", None)) in ("add", "_add")
            elif isinstance(node, (ast.GeneratorExp, ast.ListComp)):
                loop, elt = node.generators[0], node.elt
                adds = (isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Add)
                        and getattr(getattr(loop.iter, "func", None), "id", None) == "zip"
                        and isinstance(loop.target, ast.Tuple)
                        and {getattr(elt.left, "id", None), getattr(elt.right, "id", None)}
                        == {getattr(t, "id", None) for t in loop.target.elts})
            else:
                continue
            if adds:
                found.append(f"{name}:{owner}")
    return sorted(set(found))


def test_the_term_table_product_owns_every_monomial_product():
    # expr._product is the one code that multiplies two term tables; a sum
    # of exponent tuples anywhere else is a second product, outside its
    # order, its budget and its bounds
    found = _exponent_sums({path.name: path.read_text() for path in sorted(SRC.glob("*.py"))})
    assert found == ["expr.py:_product"]


def test_the_monomial_product_rule_finds_a_second_product():
    source = (SRC / "geometry.py").read_text() + (
        "\n\ndef _times(p, q):\n"
        "    out = {}\n"
        "    for e1, c1 in p.terms.items():\n"
        "        for e2, c2 in q.terms.items():\n"
        "            e = tuple(x + y for x, y in zip(e1, e2))\n"
        "            out[e] = out.get(e, 0) + c1 * c2\n"
        "    return out\n"
        "\n\ndef _shift(p, e2):\n"
        "    return {tuple(map(add, e1, e2)): c for e1, c in p.terms.items()}\n")
    assert _exponent_sums({"geometry.py": source}) == ["geometry.py:_shift",
                                                       "geometry.py:_times"]


def test_the_builders_own_the_chart_decision():
    # one chart decision in the package: the builders chart a problem in
    # geometry._chart_order, and the complex closed forms drop a declared
    # pair so that the builders chart it; only the loader reads a
    # document's pair.  A with_pair call or
    # a read of "distinguished_pair" (a subscript, or a call's argument
    # such as .get's) anywhere else takes that decision a second time
    charts, reads = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, node in _owned_nodes(tree.body):
            if isinstance(node, ast.Call):
                if getattr(node.func, "attr", None) == "with_pair":
                    charts.append(f"{path.name}:{owner}")
                keys = node.args
            elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
                keys = [node.slice]
            else:
                continue
            if any(isinstance(key, ast.Constant) and key.value == "distinguished_pair"
                   for key in keys):
                reads.append(f"{path.name}:{owner}")
    assert sorted(set(charts)) == ["geometry.py:_chart_order",
                                   "torsion.py:complex_B_coefficients"]
    assert sorted(set(reads)) == ["reports.py:build_problem"]



LAYERS = SRC.parent.parent / "perfbench" / "layers.py"
# SPECIAL names that no longer exist in the package, each to be mended or
# dropped at the next benchmark change (ROADMAP item 1)
STALE_SPECIAL = {("involutivity", "prolongation_dims"), ("involutivity", "involutivity_order"),
                 ("linalg", "nullity"), ("linalg", "nullspace"), ("linalg", "det"),
                 ("linalg", "in_row_span"), ("geometry", "choose_pair"),
                 ("expr", "Polynomial.differentiate")}


def _defined_names(path):
    """The top-level functions and classes of a module, and ``Class.name``
    for each function a class defines."""
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names |= {f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef)}
    return names


def test_the_benchmark_spans_name_package_functions():
    # perfbench/layers.py times the functions its SPECIAL table names; one
    # renamed or deleted in the package makes its per-layer metrics read 0
    # with no error, so only the listed stale names may be missing
    tree = ast.parse(LAYERS.read_text(), filename=str(LAYERS))
    special, = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SPECIAL"]]
    missing = {(module, name) for module, name in special
               if name not in _defined_names(SRC / f"{module}.py")}
    assert missing == STALE_SPECIAL


def test_no_dataclasses_in_the_package():
    # records are namedtuples: defining dataclasses costs most of the import
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _modules_after(code, root=SRC.parent, flag="-I"):
    """The modules a fresh interpreter, run with ``flag`` and ``root`` first
    on its path, has loaded once ``code`` has run; ``code`` may write to
    stdout."""
    script = (f"import sys\nsys.path.insert(0, sys.argv[1])\n{code}\n"
              "sys.stderr.write(' '.join(sorted(sys.modules)))\n")
    done = subprocess.run([sys.executable, flag, "-c", script, str(root)],
                          capture_output=True, text=True, check=True)
    return set(done.stderr.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    assert {"dataclasses", "inspect"} & _modules_after("import diskeds.cli") == set()


# the modules a command runs; each loads on the dispatch of its command
COMMAND_MODULES = {"diskeds.involutivity", "diskeds.torsion",
                   "diskeds.integral_element", "diskeds.jets"}


def _main_loads(argv):
    """The modules a fresh interpreter run with -S has loaded after
    ``cli.main(argv)`` exits 0.  -S keeps site from loading modules
    (random and shutil among them) that the package may not need."""
    return _modules_after(f"from diskeds import cli\nif cli.main({argv!r}):\n"
                          "    sys.exit('the command failed')", flag="-S")


def test_importing_the_package_loads_no_submodule():
    assert {m for m in _modules_after("import diskeds")
            if m.startswith("diskeds.")} == set()


def _command_modules_the_cli_import_loads(root=SRC.parent):
    return sorted(COMMAND_MODULES & _modules_after("import diskeds.cli", root))


def test_importing_the_cli_loads_no_command_module():
    # every CLI call is a fresh interpreter: the loader, but no command's
    # own module, is paid for before the command is known
    assert _command_modules_the_cli_import_loads() == []


def test_the_cli_import_rule_finds_a_module_level_command_import(tmp_path):
    shutil.copytree(SRC, tmp_path / "diskeds",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "diskeds" / "cli.py"
    cli.write_text(cli.read_text() + "\nfrom .jets import involution_loop\n")
    assert _command_modules_the_cli_import_loads(tmp_path) == ["diskeds.jets"]


def test_torsion_loads_no_stratum_flag_search_or_terminal_module():
    # torsion reads no stratum, flag search or terminal: neither jets,
    # integral_element (nor its random) nor argparse's shutil loads
    loaded = _main_loads(["torsion", "hyperquadric"])
    assert "diskeds.torsion" in loaded
    assert {"diskeds.jets", "diskeds.integral_element", "random", "shutil"} & loaded == set()


def test_jets_loads_no_other_command_module():
    assert COMMAND_MODULES & _main_loads(["jets", "cusp"]) == {"diskeds.jets"}


# every name diskeds exported when its __init__ imported every module
PACKAGE_EXPORTS = {
    "exact": ["GaussianRational", "Rational", "gaussian", "rat"],
    "expr": ["Polynomial", "parse_expression", "print_polynomial"],
    "geometry": ["FirstJetPoint", "GammaBetaData", "HypersurfaceProblem",
                 "StructureMatrix", "complex_standard", "compute_gamma_beta",
                 "full_jet", "make_structure_from_pair", "structure_from_entries"],
    "involutivity": ["DVectors", "TableauReport", "compute_D_vectors", "tableau_report"],
    "torsion": ["ComplexTorsionData", "StructureEquationData", "TorsionVerdict",
                "complex_B_coefficients", "dim6_definiteness", "pseudo_ellipsoid_check",
                "structure_equation_coefficients", "torsion_absorbable"],
    "integral_element": ["FlagSpec", "kahler_regularity", "ordinary_element_search"],
    "jets": ["JetConstraintSystem", "Linearization", "StratumReport",
             "conjugate_involution", "involution_loop", "linearize", "make_system",
             "prolong_constraints", "reduce_redundant", "stratum_analyze"],
}


def test_the_lazy_package_exports_every_name_it_exported():
    import diskeds
    names = [name for names in PACKAGE_EXPORTS.values() for name in names]
    assert sorted(diskeds.__all__) == sorted(names)
    assert set(names) <= set(dir(diskeds))
    for module, names in PACKAGE_EXPORTS.items():
        owner = importlib.import_module(f"diskeds.{module}")
        for name in names:
            assert getattr(diskeds, name) is getattr(owner, name)
    with pytest.raises(AttributeError):
        diskeds.no_such_name


def test_importing_the_cli_builds_no_argument_parser():
    # main builds its parser on the first call, so the import time stays put
    code = ("import argparse, sys; sys.path.insert(0, sys.argv[1]); built = []; "
            "real = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: built.append(1) or real(self, *a, **k); "
            "import diskeds.cli; print(len(built), diskeds.cli._PARSER)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC.parent)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0 None"


def _names(node):
    """The names ``node`` uses: a bare name as it is, an attribute as
    ``.name``."""
    return [sub.id if isinstance(sub, ast.Name) else "." + sub.attr
            for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))]


def _unreachable(sources):
    """Definitions in the modules of ``sources`` (stem -> text) that cli.main
    cannot reach by name.  A top-level function, a class, a module-level
    ``Name = namedtuple(...)`` record and a non-dunder method of a class are
    definitions.  One is reachable when main or a module-level statement
    other than an import or a definition names it, directly or through a
    reachable definition; a method is named by an attribute of its name.  A
    class's own statements, its dunder methods among them, come with it."""
    refs, todo = {}, ["main"]   # (stem, name) -> (names that match it, names it uses)
    for stem, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                           and not (m.name.startswith("__") and m.name.endswith("__"))]
                for m in methods:
                    refs[(stem, f"{node.name}.{m.name}")] = ({"." + m.name}, _names(m))
                node.body = [m for m in node.body if m not in methods]
                refs[(stem, node.name)] = ({node.name, "." + node.name}, _names(node))
            elif isinstance(node, ast.FunctionDef) or (
                    isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "namedtuple"):
                name = node.name if isinstance(node, ast.FunctionDef) else node.targets[0].id
                refs[(stem, name)] = ({name, "." + name}, _names(node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo += _names(node)
    reached = set()
    while todo:
        name = todo.pop()
        for key, (matches, names) in refs.items():
            if name in matches and key not in reached:
                reached.add(key)
                todo += names
    return sorted(f"{mod}.{name}" for mod, name in set(refs) - reached)


def test_every_top_level_definition_is_reachable_from_the_cli():
    # the package holds only what the CLI runs; reference oracles live in
    # tests/oracles.py
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("[!_]*.py"))}
    unreachable = _unreachable(sources)
    assert not unreachable, ", ".join(unreachable)


def test_the_reachability_rule_covers_records():
    # a namedtuple record counts as a definition, so an unused one is found;
    # so does a method that no reachable code names as an attribute, while
    # dunder methods come with their class
    source = (
        "from collections import namedtuple\n"
        "Used = namedtuple('Used', 'a b')\n"
        "Unused = namedtuple('Unused', 'a b')\n"
        "class Sub(namedtuple('Sub', 'a')):\n"
        "    pass\n"
        "class Tool:\n"
        "    def __len__(self):\n"
        "        return self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def unused(self):\n"
        "        return 2\n"
        "def unused():\n"
        "    return 3\n"
        "def main():\n"
        "    return Used(1, 2), len(Tool())\n")
    assert _unreachable({"cli": source}) == [
        "cli.Sub", "cli.Tool.unused", "cli.Unused", "cli.unused"]
