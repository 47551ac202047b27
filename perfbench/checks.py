"""Correctness checks applied to every report the benchmark collects.

Builtin reports are compared with reference values recorded at the
commit that introduced the benchmark (``reference_builtin.json``).  Only
verdict-bearing fields are compared, as exact values rather than bytes,
so a change of report layout or a new report field is not a failure.

Reports on generated problems are checked against identities that hold
for every seed, recomputed here from the problem document with exact
``Fraction`` arithmetic wherever that is cheap:

- gamma/beta re-substitution: rho_1 g1_j + rho_2 g2_j + rho_j = 0 and
  mu_1 g1_j + mu_2 g2_j + mu_j = 0 for the reported gammas, and the
  reported D equals rho_1 mu_2 - rho_2 mu_1;
- D0 = 0 under ``complex_standard``;
- absorbability agrees with the cross condition
  rho_1 res_1 + rho_2 res_2 = 0 (both residuals zero when D0 = 0);
- definiteness labels agree with leading principal minors;
- every certified flag is an integral element with polar dimension 2 and
  a zero Cramer determinant, re-tested through the flag-certificate path.

A check returns a list of problems found; an empty list means it passed.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference_builtin.json")

# verdict-bearing result fields per command; "all" is checked per section
VERDICT_FIELDS = {
    "involutivity": ("distinguished_pair", "reduced_coordinates", "D", "gamma1",
                     "gamma2", "D0", "D0_zero", "dim_A", "dims", "q0",
                     "involutive_from", "involutive_at_0"),
    "torsion": ("case", "residual_1", "residual_2", "absorbable", "witness_v",
                "c_values"),
    "complex-forms": ("B_lower", "B_upper", "c1_matrix", "c2_matrix",
                      "c1_definiteness", "c2_definiteness",
                      "only_points_possible"),
    "dim6": ("delta1", "delta2", "sign1", "sign2", "c1_definiteness",
             "c2_definiteness", "verdict"),
    "integral-element": ("found", "attempted", "candidate_index", "determinant",
                         "verdict", "flag_c1", "flag_c2", "eps_samples"),
    "jets": ("stratum",),
}
JETS_PROBE_FIELDS = ("dims", "verdict", "rounds", "torsion_free",
                     "complex_split", "trivial_velocities")


def exact_value(value):
    """JSON value with rational strings turned into Fractions."""
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            return value
    if isinstance(value, list):
        return [exact_value(v) for v in value]
    if isinstance(value, dict):
        return {k: exact_value(v) for k, v in value.items()}
    return value


def verdict_view(command, results):
    """The verdict-bearing part of one command's results, exact values."""
    if command == "all":
        return {section: verdict_view(_section_command(section), sub)
                for section, sub in results.items()}
    out = {k: exact_value(results.get(k)) for k in VERDICT_FIELDS[command]}
    if command == "jets":
        out["probes"] = {p: {k: exact_value(v.get(k)) for k in JETS_PROBE_FIELDS}
                         for p, v in results.get("probes", {}).items()}
    return out


def _section_command(section):
    return "jets" if section.startswith("jets[") else section


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_builtin(reference, label, rc, out, err):
    want = reference[label]
    command = label.split(" ", 1)[0]
    if want["exit"] != 0:
        # a known failure: the recorded exit code and error class, or a
        # fixed command whose sections agree with the standalone references
        if rc == want["exit"] and err.startswith(want["error"]):
            return []
        if rc != 0:
            return [f"exit {rc} ({err.strip()[:80]}), recorded {want['exit']}"]
        report = json.loads(out)
        if report.get("command") != command:
            return ["report names another command"]
        problems = []
        if command == "all":
            problem = label.split(" ", 1)[1]
            for section, sub in report["results"].items():
                ref = reference.get(f"{_section_command(section)} {problem}")
                if ref and ref["exit"] == 0 and section in ("involutivity", "torsion", "dim6"):
                    got = verdict_view(section, sub)
                    if got != exact_value(ref["verdicts"]):
                        problems.append(f"section {section} differs from its reference")
        return problems
    if rc != 0:
        return [f"exit {rc} ({err.strip()[:80]}), recorded 0"]
    got = verdict_view(command, json.loads(out)["results"])
    expected = exact_value(want["verdicts"])
    if command == "all":
        # a section that is new in the report adds information, not a change
        return [f"section {s} differs from the reference"
                for s in sorted(expected) if got.get(s) != expected[s]]
    return [f"field {k} differs from the reference"
            for k in sorted(expected) if got.get(k) != expected[k]]


# ----------------------------------------------------------------------
# generated problems


class ProblemFacts:
    """Exact first-jet quantities of a generated document at its point."""

    def __init__(self, doc, point="P0"):
        two_n = doc["dimension_2n"]
        self.two_n = two_n
        self.doc = doc
        self.point = [Fraction(x) for x in doc["points"][point]]
        rho = _parse_poly(doc["rho"], two_n)
        self.grad = workloads.poly_grad_at(rho, self.point)
        structure = doc["structure"]
        if structure["kind"] == "complex_standard":
            self.alpha = workloads.complex_standard_matrix(two_n // 2)
        else:
            self.alpha = [[workloads.poly_eval(_parse_poly(e, two_n), self.point)
                           for e in row] for row in structure["entries"]]
        m = two_n
        self.mu = [sum(self.grad[j] * self.alpha[j][i] for j in range(m))
                   for i in range(m)]
        self.pair = tuple(doc.get("distinguished_pair") or self._scan_pair())

    def _scan_pair(self):
        for a in range(1, self.two_n + 1):
            for b in range(a + 1, self.two_n + 1):
                if workloads.chart_determinant(self.grad, self.alpha, (a, b)) != 0:
                    return (a, b)
        raise ValueError("no chart pair at the point")

    def rho_pair(self):
        return self.grad[self.pair[0] - 1], self.grad[self.pair[1] - 1]


def _parse_poly(text, nvars):
    """Parse the generator's own output: signed monomials f_i^k joined by *."""
    poly = {}
    tokens = text.replace(" - ", " + -").split(" + ")
    for tok in tokens:
        tok = tok.strip()
        sign = 1
        if tok.startswith("-"):
            sign, tok = -1, tok[1:]
        coeff = Fraction(sign)
        exps = [0] * nvars
        for factor in tok.split("*"):
            if factor.startswith("f"):
                name, _, power = factor.partition("^")
                exps[int(name[1:]) - 1] += int(power or 1)
            else:
                coeff *= Fraction(factor)
        key = tuple(exps)
        poly[key] = poly.get(key, 0) + coeff
    return poly


def _minors_label(matrix):
    m = len(matrix)
    minors = [_det([row[:k] for row in matrix[:k]]) for k in range(1, m + 1)]
    if all(x > 0 for x in minors):
        return "positive_definite"
    if all((x < 0 if k % 2 == 0 else x > 0) for k, x in enumerate(minors)):
        return "negative_definite"
    return "not_definite"


def _det(matrix):
    a = [list(r) for r in matrix]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out


def check_generated(command, doc, rc, out, err):
    if rc != 0:
        return [f"exit {rc}: {err.strip()[:120]}"]
    results = exact_value(json.loads(out)["results"])
    facts = ProblemFacts(doc, results.get("point", "P0"))
    return _GENERATED_CHECKS[command](facts, results)


def _check_involutivity(facts, r):
    problems = []
    order = list(facts.pair) + [k for k in range(1, facts.two_n + 1)
                                if k not in facts.pair]
    if r["reduced_coordinates"] != order[2:]:
        problems.append("reduced coordinates do not follow the chart pair")
    g = [facts.grad[k - 1] for k in order]
    mu = [facts.mu[k - 1] for k in order]
    if r["D"] != g[0] * mu[1] - g[1] * mu[0]:
        problems.append("D differs from rho_1 mu_2 - rho_2 mu_1")
    for j in range(facts.two_n - 2):
        if g[0] * r["gamma1"][j] + g[1] * r["gamma2"][j] + g[j + 2] != 0:
            problems.append("rho re-substitution of the gammas fails")
        if mu[0] * r["gamma1"][j] + mu[1] * r["gamma2"][j] + mu[j + 2] != 0:
            problems.append("mu re-substitution of the gammas fails")
    if facts.doc["structure"]["kind"] == "complex_standard":
        if not r["D0_zero"] or any(x != 0 for x in r["D0"]):
            problems.append("D0 is not zero under complex_standard")
    if r["D0_zero"] != all(x == 0 for x in r["D0"]):
        problems.append("D0_zero disagrees with D0")
    return problems


def _check_torsion(facts, r):
    r1, r2 = facts.rho_pair()
    res1, res2 = r["residual_1"], r["residual_2"]
    if r["case"] == "D0_zero":
        expected = res1 == 0 and res2 == 0
    else:
        expected = r1 * res1 + r2 * res2 == 0
    problems = []
    if r["absorbable"] != expected:
        problems.append("absorbability disagrees with the cross condition")
    if facts.doc["structure"]["kind"] == "complex_standard" and r["case"] != "D0_zero":
        problems.append("D0 is not zero under complex_standard")
    return problems


def _check_complex_forms(facts, r):
    problems = []
    for key in ("c1", "c2"):
        mat = r[f"{key}_matrix"]
        if any(mat[a][b] != mat[b][a] for a in range(len(mat)) for b in range(len(mat))):
            problems.append(f"{key} matrix is not symmetric")
        if _minors_label(mat) != r[f"{key}_definiteness"]:
            problems.append(f"{key} definiteness disagrees with its minors")
    definite = (r["c1_definiteness"] != "not_definite"
                or r["c2_definiteness"] != "not_definite")
    if r["only_points_possible"] != definite:
        problems.append("only_points_possible disagrees with definiteness")
    return problems


def _check_dim6(facts, r):
    problems = []
    sign = lambda x: (x > 0) - (x < 0)
    if r["sign1"] != sign(r["delta1"]) or r["sign2"] != sign(r["delta2"]):
        problems.append("discriminant signs disagree with the discriminants")
    holds = r["c1_definiteness"] == r["c2_definiteness"] == "not_definite"
    if (r["verdict"] == "necessary_condition_holds") != holds:
        problems.append("dim6 verdict disagrees with definiteness")
    return problems


def _check_integral_element(facts, r):
    if not r["found"]:
        return []
    problems = []
    if r["verdict"] != "kahler_regular" or r["determinant"] != 0:
        problems.append("certified flag lacks a kahler_regular verdict with det 0")
    if any(dim != 2 for _, _, dim in r["eps_samples"]):
        problems.append("an epsilon sample changed the polar dimension")
    verdict = _recheck_flag(facts, r)
    if not verdict.is_integral:
        problems.append("certified flag is not an integral element")
    if verdict.dim_ker_gf != 2:
        problems.append(f"certified flag has polar dimension {verdict.dim_ker_gf}")
    if verdict.determinant != 0:
        problems.append("certified flag has a nonzero Cramer determinant")
    return problems


def _recheck_flag(facts, r):
    """Run the reported flag through the library's flag-certificate path."""
    from diskeds.integral_element import FlagSpec, kahler_regularity
    from diskeds.reports import build_problem
    lp = build_problem(facts.doc)
    jet = lp.jets[r["jet"]]
    problem = lp.problem.with_pair(facts.pair)
    flag = FlagSpec((1, 0), (0, 1), tuple(r["flag_c1"]), tuple(r["flag_c2"]))
    return kahler_regularity(problem, jet, flag)


_GENERATED_CHECKS = {
    "involutivity": _check_involutivity,
    "torsion": _check_torsion,
    "complex-forms": _check_complex_forms,
    "dim6": _check_dim6,
    "integral-element": _check_integral_element,
}
