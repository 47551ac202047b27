"""Problem-file ingestion and deterministic report emission.

Problem files are JSON; every numeric quantity is an exact rational given
as a string 'p/q' (or 'p').  Floats are rejected outright.  A load parses
each distinct expression text once and spends one budget of coefficient
pairs and their word pairs (``expr.ParseBudget``) over all its parses.

Reports serialize with sorted keys and canonical rational strings so
identical inputs give byte-identical output.  :func:`emit_report`, the
one writer, reads the command's own values in one pass per format with
one leaf rule: JSON as ``json.dumps(sort_keys=True, indent=2)`` writes it,
each Fraction as its string, or ``path = value`` text lines.
"""
from __future__ import annotations

import hashlib
import json
import re
from collections import namedtuple
from collections.abc import Mapping
from fractions import Fraction

from .errors import CrossCheckMismatch, SchemaViolation
from .exact import gaussian, rat, rational_str
from .expr import (
    Opening,
    ParseBudget,
    jet_table,
    parse_expression,
    parse_tokens,
    tokenize,
    unit_exponents,
)
from .builtins import BUILTIN_PROBLEMS
from .geometry import (
    HypersurfaceProblem,
    complex_standard,
    default_coordinates,
    make_structure_from_pair,
    structure_from_entries,
)


def _reject_float(text):
    raise SchemaViolation(
        f"float literal {text!r} is not allowed; use exact 'p/q' strings")


def load_problem(source) -> dict:
    """Builtin name or path to a JSON problem file."""
    if source in BUILTIN_PROBLEMS:
        return json.loads(json.dumps(BUILTIN_PROBLEMS[source]))
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_reject_float)
    except OSError as exc:   # missing, a directory, or not readable
        raise SchemaViolation(
            f"no such problem: {source!r} is neither a builtin "
            f"({', '.join(sorted(BUILTIN_PROBLEMS))}) nor a readable file "
            f"({exc.strerror})") from None
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"invalid JSON in {source}: {exc}")
    except RecursionError:   # the decoder recurses once per nesting level
        raise SchemaViolation(f"invalid JSON in {source}: nested too deeply") from None
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{source} is not UTF-8: {exc}") from None
    except ValueError:   # int() refuses an integer literal past its digit limit
        raise SchemaViolation(
            f"invalid JSON in {source}: an integer literal has too many digits") from None


def problem_digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# JSON kind -> (Python type, what a value of that kind is)
_KINDS = {"object": (dict, "an object"), "list": (list, "a list"),
          "string": (str, "a string"), "integer": (int, "an integer"),
          "boolean": (bool, "true or false"),
          "rational": ((int, str), "an exact rational 'p/q' string or integer"),
          "rationals": (list, "a list of exact rationals")}


def _typed(value, path, kind):
    """``value`` itself when it has the JSON ``kind``; "rational" and
    "rationals" give the parsed Fraction and tuple.  Raises SchemaViolation
    naming ``path`` otherwise."""
    cls, what = _KINDS[kind]
    if not isinstance(value, cls) or isinstance(value, bool) != (kind == "boolean"):
        raise SchemaViolation(f"{path} must be {what}")
    if kind == "rational":
        try:
            return rat(value)
        except SchemaViolation as exc:
            raise SchemaViolation(f"{path}: {exc}")
    if kind != "rationals":
        return value
    out = []
    for i, v in enumerate(value):
        try:
            out.append(rat(v))
        except SchemaViolation as exc:
            raise SchemaViolation(f"{path}[{i}]: {exc}")
    return tuple(out)


def _field(parent, key, path, kind, required=True, default=None):
    """``parent[key]`` checked by :func:`_typed` in an object ``parent``; an
    absent (or optional null) field is ``default`` or a missing-field error.
    ``kind`` None leaves the check to the value's parser (expressions)."""
    _typed(parent, path, "object")
    where = f"{path}.{key}" if path else key
    if key not in parent or (parent[key] is None and not required):
        if required:
            raise SchemaViolation(f"missing field {where}")
        return default
    return parent[key] if kind is None else _typed(parent[key], where, kind)


# problem: a HypersurfaceProblem, None for complexified-only files; jets:
# name -> FirstJetPoint; strata: a _Strata, name -> (JetConstraintSystem,
# {probe name -> probe tuple})
LoadedProblem = namedtuple("LoadedProblem", "doc digest two_n problem points jets "
                           "flags strata structure_warnings")


# the largest dimension_2n a document may declare: every table is sized by
# it before anything is parsed, so a larger one only exhausts memory
MAX_DIMENSION_2N = 200
# the most names a stratum's jet table 2n (q + 1) may hold: parsing over it
# costs (2n (q + 1))^2 exponent entries, 32 MB at the bound
MAX_JET_NAMES = 2000


class _Strata(Mapping):
    """name -> (JetConstraintSystem, {probe name -> probe}), each stratum
    built on its first read from what the loader checked: the parsed
    equalities and openings, the order and each probe's z values and w
    jets.  Every check that can fail runs at load, so a build raises
    nothing and a command that reads no stratum builds none, nor loads
    ``jets``."""

    def __init__(self, n, checked):
        self._n, self._checked, self._built = n, checked, {}

    def __getitem__(self, name):
        built = self._built.get(name)
        if built is None:
            from .jets import make_system, probe_from_values
            parsed, openings, order, probes = self._checked[name]
            built = self._built[name] = (
                make_system(self._n, parsed, openings, order=order),
                {pname: probe_from_values(self._n, order, z_vals, w_jets)
                 for pname, (z_vals, w_jets) in probes.items()})
        return built

    def __contains__(self, name):
        return name in self._checked

    def __iter__(self):
        return iter(self._checked)

    def __len__(self):
        return len(self._checked)


def build_problem(doc: dict, name="problem") -> LoadedProblem:
    two_n = _field(doc, "dimension_2n", name, "integer")
    if two_n < 4 or two_n % 2:
        raise SchemaViolation("dimension_2n must be an even integer >= 4")
    if two_n > MAX_DIMENSION_2N:
        raise SchemaViolation(f"dimension_2n must be at most {MAX_DIMENSION_2N}")
    n = two_n // 2
    coords = _field(doc, "coordinates", name, "list", required=False)
    coords = default_coordinates(two_n) if coords is None else tuple(coords)
    if len(coords) != two_n:
        raise SchemaViolation("coordinates must list dimension_2n names")
    if not all(type(c) is str for c in coords) or len(set(coords)) != two_n:
        raise SchemaViolation("coordinates must be dimension_2n distinct names")

    problem = None
    structure_warnings = ()
    budget = ParseBudget()   # the coefficient and word pairs every parse below takes from
    parsed = {}    # (text, jet order or None) -> its Polynomial, parsed once in this load
    tables = {}    # jet order or None -> (the table it parses over, its unit exponents)
    texts = {}     # stratum expression text -> (its tokens, the highest jet order it names)

    def stratum_text(text):
        got = texts.get(text) if type(text) is str else None
        if got is None:
            tokens = tokenize(text)   # raises for a text that is not a string
            got = texts[text] = tokens, _jet_order(tokens)
        return got

    def parse(text, order=None):
        """``text`` as a Polynomial over the coordinates (``order`` None) or
        over the jet table of ``order``, parsed, taking from the budget,
        once per (text, order); a stratum text is tokenized once."""
        poly = parsed.get((text, order)) if type(text) is str else None
        if poly is None:
            if order not in tables:
                table = coords if order is None else jet_table(n, order)
                tables[order] = table, unit_exponents(table)
            table, units = tables[order]
            if order is None:
                poly = parse_expression(text, table, units=units, budget=budget)
            else:
                poly = parse_tokens(stratum_text(text)[0], table, complexified=True,
                                    units=units, budget=budget)
            parsed[text, order] = poly
        return poly

    if "rho" in doc:
        rho = parse(doc["rho"])
        spath = f"{name}.structure"
        sdoc = _field(doc, "structure", name, "object", required=False,
                      default={"kind": "complex_standard"})
        kind = _field(sdoc, "kind", spath, "string")
        matrix = lambda key: [
            [parse(e) for e in _typed(row, f"{spath}.{key}[{i}]", "list")]
            for i, row in enumerate(_field(sdoc, key, spath, "list"))]
        if kind == "complex_standard":
            structure = complex_standard(n, coords)
        elif kind == "matrix":
            structure = structure_from_entries(n, matrix("entries"))
        elif kind == "pair":
            a = parse(_field(sdoc, "a", spath, None))
            b = parse(_field(sdoc, "b", spath, None))
            structure = make_structure_from_pair(a, b, matrix("A"), n)
        else:
            raise SchemaViolation(f"unknown structure kind {kind!r}")
        structure_warnings = structure.warnings
        pair = doc.get("distinguished_pair")
        if pair is not None and not (
                isinstance(pair, (list, tuple)) and len(pair) == 2 and pair[0] != pair[1]
                and all(type(i) is int and 1 <= i <= two_n for i in pair)):
            raise SchemaViolation(f"distinguished_pair must be two distinct "
                                  f"integers in 1..{two_n}, got {pair!r}")
        problem = HypersurfaceProblem(rho, structure, pair)

    points_doc = _field(doc, "points", "", "object", required=False, default={})
    points = {}
    for pname in points_doc:
        points[pname] = _field(points_doc, pname, "points", "rationals")
        if len(points[pname]) != two_n:
            raise SchemaViolation(f"points.{pname} must have {two_n} entries")

    jets = {}
    rho_at = {}   # point name -> rho there, evaluated for the first jet at it

    def rho_at_point(pname):
        if pname not in rho_at:
            rho_at[pname] = problem.rho.evaluate(points[pname])
        return rho_at[pname]

    for jname, jdoc in _field(doc, "jets", "", "object", required=False,
                              default={}).items():
        jpath = f"jets.{jname}"
        pname = _field(jdoc, "point", jpath, "string")
        if pname not in points:
            raise SchemaViolation(f"jets.{jname}.point: unknown point {pname!r}")
        p_red = _field(jdoc, "p_reduced", jpath, "rationals")
        if len(p_red) != two_n - 2:
            raise SchemaViolation(f"{jpath}.p_reduced must have {two_n - 2} entries")
        if problem is None:
            raise SchemaViolation("jets need a rho/structure block")
        jets[jname] = problem.make_jet(
            points[pname], p_red,
            allow_off_surface=_field(jdoc, "allow_off_surface", jpath, "boolean",
                                     required=False, default=False),
            rho_at_f=lambda: rho_at_point(pname))

    flags = {}
    for fname, fdoc in _field(doc, "flags", "", "object", required=False,
                              default={}).items():
        from .integral_element import FlagSpec
        fpath = f"flags.{fname}"
        flags[fname] = FlagSpec(
            *(_field(fdoc, key, fpath, "rationals") for key in ("a1", "a2", "c1", "c2")),
            _field(fdoc, "alpha", fpath, "rational", required=False, default=Fraction(1)),
            _field(fdoc, "beta", fpath, "rational", required=False, default=Fraction(0)),
        )

    strata = {}   # name -> what _Strata builds it from
    for sname, sdoc in _field(doc, "strata", "", "object", required=False,
                              default={}).items():
        spath = f"strata.{sname}"
        eq_exprs = _field(sdoc, "equalities", spath, "list")
        probe_docs = _field(sdoc, "probes", spath, "object", required=False, default={})
        # each equality over the table its own jets need; make_system widens
        parsed_eqs, order = [], 1
        for text in eq_exprs:
            own = stratum_text(text)[1]
            if two_n * (own + 1) > MAX_JET_NAMES:
                raise SchemaViolation(
                    f"{spath}: jets of order {own} need a table of {two_n * (own + 1)} "
                    f"names, more than {MAX_JET_NAMES}")
            parsed_eqs.append(parse(text, own))
            order = max(order, own)
        openings = []
        for k, odoc in enumerate(_field(sdoc, "openings", spath, "list",
                                        required=False, default=[])):
            if isinstance(odoc, str):
                odoc = {"expr": odoc, "sign": "nonzero"}
            opath = f"{spath}.openings[{k}]"
            text = _field(odoc, "expr", opath, None)
            if stratum_text(text)[1] > order:
                raise SchemaViolation(
                    f"{opath} uses a jet above the stratum's order {order}")
            op = parse(text, order)
            sign = odoc.get("sign", "nonzero")
            if sign not in ("+", "-", "nonzero"):
                raise SchemaViolation(f"strata.{sname}.openings[{k}].sign must be "
                                      f"\"+\", \"-\" or \"nonzero\", got {sign!r}")
            openings.append(Opening(op, sign))
        probes = {}
        for pname, pdoc in probe_docs.items():
            ppath = f"{spath}.probes.{pname}"
            z_vals = [_gauss(v, f"{ppath}.z") for v in _field(pdoc, "z", ppath, "list")]
            w_jets, key = [], "w"
            while key in pdoc:
                if len(w_jets) == order:
                    raise SchemaViolation(
                        f"{ppath}.{key} is above the stratum's order {order}")
                w_jets.append([_gauss(v, f"{ppath}.{key}")
                               for v in _field(pdoc, key, ppath, "list")])
                key = f"w_{len(w_jets)}"
            read = {f"w_{k}" for k in range(1, len(w_jets))}
            for extra in pdoc:
                if re.fullmatch(r"w_[1-9][0-9]*", extra) and extra not in read:
                    raise SchemaViolation(f"{ppath}.{extra} is given but {key} is missing")
            if len(z_vals) != n or any(len(values) != n for values in w_jets):
                raise SchemaViolation("need n values for z" if len(z_vals) != n
                                      else "need n values for each w jet")
            probes[pname] = z_vals, w_jets
        strata[sname] = parsed_eqs, openings, order, probes

    return LoadedProblem(doc, problem_digest(doc), two_n, problem, points, jets,
                         flags, _Strata(n, strata), structure_warnings)


# a jet-shaped name: z, zb, w or wb, a digit run, and a jet suffix of at
# most two digits, so strata read jets up to order 100; z is order 0, w
# order 1 and w_k order k + 1
_JET_NAME = re.compile(r"([zw])b?[0-9]+(?:_([0-9]{1,2}))?")


def _jet_order(tokens) -> int:
    """The highest jet order among the jet-shaped names of an expression's
    tokens, and at least 1, the lowest order of a stratum."""
    names = [_JET_NAME.fullmatch(name) for kind, name, _ in tokens if kind == "NAME"]
    return max([1] + [int(m[2] or 0) + 1 for m in names if m and m[1] == "w"])


def _gauss(value, path):
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise SchemaViolation(f"{path}: complex values are [re, im] pairs")
        return gaussian(value[0], value[1])
    return gaussian(value)


# ----------------------------------------------------------------------
# emission


# a report's top-level keys; each holds the command's own values: str-keyed
# dicts, lists, tuples, Fractions, str, int, bool and None
Report = namedtuple("Report", "command problem problem_digest options results warnings")


def _leaf(value) -> str:
    """The text of a report value that is not a container, in both formats:
    a Fraction's rational_str, or str() of a str, int, bool or None.  A
    float is an input error; anything else (a record, which subclasses
    tuple, a Gaussian, a first jet) is a cross-check failure."""
    if type(value) is Fraction:
        return rational_str(value)
    if isinstance(value, (str, int)) or value is None:
        return str(value)
    if isinstance(value, float):
        raise SchemaViolation("internal error: a float reached the report layer")
    raise CrossCheckMismatch(f"a {type(value).__name__} reached the report layer")


def _keys(obj) -> list:
    """The keys of the dict ``obj``, sorted; each must be a str."""
    for key in obj:
        if type(key) is not str:
            raise CrossCheckMismatch(f"a {type(key).__name__} key reached the report layer")
    return sorted(obj)


def _flatten(obj, prefix, lines):
    if isinstance(obj, dict):
        for k in _keys(obj):
            _flatten(obj[k], f"{prefix}.{k}" if prefix else k, lines)
    elif type(obj) is list or type(obj) is tuple:
        if any(isinstance(v, dict) or type(v) is list or type(v) is tuple for v in obj):
            for i, v in enumerate(obj):
                _flatten(v, f"{prefix}[{i}]", lines)
        else:
            lines.append(f"{prefix} = [{', '.join(map(_leaf, obj))}]")
    else:
        lines.append(f"{prefix} = {_leaf(obj)}")


_quoted = json.encoder.encode_basestring_ascii


def _write_json(obj, indent, out):
    """Append to ``out`` the pieces of ``json.dumps(obj, sort_keys=True,
    indent=2)``, each tuple a list and each other leaf :func:`_leaf`'s text;
    ``indent`` is a newline and the indentation of obj's own level."""
    if isinstance(obj, str):
        out.append(_quoted(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in _keys(obj):
            out.append(sep + _quoted(key) + ": ")
            _write_json(obj[key], inner, out)
            sep = "," + inner
        out.append(indent + "}")
    elif type(obj) is list or type(obj) is tuple:
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(obj, int):   # True and False are ints too
        out.append("true" if obj is True else "false" if obj is False else int.__repr__(obj))
    elif obj is None:
        out.append("null")
    else:
        out.append(_quoted(_leaf(obj)))


def emit_report(report: Report, fmt: str = "json") -> bytes:
    """The report's bytes, the one writer of a report: JSON with sorted
    keys and an indent of 2, or the text format's flat lines."""
    obj = report._asdict()
    if fmt == "json":
        out = []
        _write_json(obj, "\n", out)
        out.append("\n")
        return "".join(out).encode()
    if fmt == "text":
        lines = [f"diskeds {report.command} on {report.problem}"]
        _flatten(obj, "", lines)
        return ("\n".join(lines) + "\n").encode()
    raise SchemaViolation(f"unknown format {fmt!r}")
