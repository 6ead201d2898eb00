"""Acceptance battery.

Each test covers one acceptance criterion and prints a single
"[criterion NN] name: PASS/FAIL" line (visible under pytest -s).
Every numeric claim is checked through two independent routes: the
package under test and the standalone oracle module next to this file.
"""

import copy
import itertools
import subprocess
import sys

import oracles
from helpers import random_words
from frob2d import (
    check_extended,
    check_extended_morphism,
    check_frobenius,
    check_morphism,
    check_multiplicativity,
    check_monoidal_naturality,
    closed_oriented_surface,
    closed_unoriented_surface,
    data_path,
    invariant,
    naturality_dictionary,
    search_theta,
    tensor,
    tensor_extended,
)
from frob2d.documents import algebra_document, parse_algebra
from frob2d.examples import (
    dual_numbers,
    extended_battery,
    ground_field,
    ground_field_extended,
    group_algebra_z2,
    group_algebra_z2_extended,
    plain_battery,
    split_pair,
    split_pair_extended,
)
from frob2d.frobenius import ExtendedFrobeniusAlgebra, FrobeniusMorphism
from frob2d.linalg import Matrix, identity

SEED = 1729

PLAIN_TABLES = dict(oracles.PLAIN_TABLE_SET)
EXTENDED_TABLES = dict(oracles.EXTENDED_TABLE_SET)


def conclude(number, name, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"\n[criterion {number:02d}] {name}: {status}")
    assert not problems, problems


def package_failures(algebra):
    if isinstance(algebra, ExtendedFrobeniusAlgebra):
        return set(check_frobenius(algebra.base).failing()) | set(
            check_extended(algebra).failing()
        )
    return set(check_frobenius(algebra).failing())


def oracle_failures(tables):
    failures = set(oracles.frobenius_failures(tables))
    if "phi" in tables:
        failures |= set(oracles.extended_failures(tables))
    return failures


def test_01_axiom_batteries():
    problems = []
    for algebra in plain_battery():
        report = check_frobenius(algebra)
        if not report.passed:
            problems.append(f"{algebra.name}: {report.failing()}")
    for algebra in (*extended_battery(), ground_field_extended(-1)):
        base = check_frobenius(algebra.base)
        ext = check_extended(algebra)
        if not (base.passed and ext.passed):
            problems.append(
                f"{algebra.base.name} extended: {base.failing() + ext.failing()}"
            )
    conclude(1, "axiom batteries", problems)


def test_02_mutation_sensitivity():
    # one +1 bump in each structure table of each bundled algebra; the
    # failing sets must be nonempty, agree with the oracle, and contain
    # the hand-derived first casualty
    plain_primary = {"mult": "unit_left", "unit": "unit_left", "counit": "counit_left"}
    comult_primary = {"K": "counit_left", "D": "frobenius_left",
                      "Z2": "counit_left", "KxK": "counit_left"}
    extended_primary = {"theta": "crosscap", "phi": "involution"}

    cases = []
    for algebra in plain_battery():
        for field in ("mult", "unit", "counit", "comult"):
            cases.append((algebra, field))
    for algebra in extended_battery():
        for field in ("theta", "phi"):
            cases.append((algebra, field))
    assert len(cases) == 22

    problems = []
    for algebra, field in cases:
        name = (algebra.base if isinstance(algebra, ExtendedFrobeniusAlgebra)
                else algebra).name
        doc = algebra_document(algebra)
        tables = copy.deepcopy(
            EXTENDED_TABLES[name] if field in ("theta", "phi") else PLAIN_TABLES[name]
        )
        if field == "mult":
            doc["mult"][0][0][0] += 1
            tables["mult"][0][0][0] += 1
        elif field == "unit":
            doc["unit"][0] += 1
            tables["unit"][0] += 1
        elif field == "counit":
            doc["counit"][0] += 1
            tables["counit"][0] += 1
        elif field == "comult":
            doc["comult"][0][0][0] += 1
            tables["comult"][0][0][0] += 1
        elif field == "theta":
            doc["extended"]["theta"][0] += 1
            tables["theta"][0] += 1
        else:
            doc["extended"]["phi"][0][0] += 1
            tables["phi"][0][0] += 1
        mutated = parse_algebra(doc)
        package = package_failures(mutated)
        oracle = oracle_failures(tables)
        tag = f"{name}/{field}"
        if not package:
            problems.append(f"{tag}: mutation went undetected")
        if package != oracle:
            problems.append(f"{tag}: package {sorted(package)} != oracle {sorted(oracle)}")
        primary = extended_primary.get(field) or (
            comult_primary[name] if field == "comult" else plain_primary[field]
        )
        if primary not in package:
            problems.append(f"{tag}: expected {primary} in {sorted(package)}")
    conclude(2, "mutation sensitivity (22 single-entry bumps)", problems)


def test_03_oriented_genus_table():
    expected = {
        "K": (1, 1, 1, 1),
        "D": (0, 2, 0, 0),
        "Z2": (1, 2, 4, 8),
    }
    problems = []
    for algebra in (ground_field(), dual_numbers(), group_algebra_z2()):
        for genus in range(4):
            value = invariant(closed_oriented_surface(genus), algebra)
            want = expected[algebra.name][genus]
            oracle = oracles.surface_invariant(PLAIN_TABLES[algebra.name], genus)
            if value != want:
                problems.append(f"{algebra.name} g={genus}: {value} != {want}")
            if oracle != want:
                problems.append(f"{algebra.name} g={genus}: oracle {oracle} != {want}")
    conclude(3, "oriented genus 0..3 invariants", problems)


def test_04_crosscap_table():
    expected = {
        "KxK": (0, 2, 0, 2),
        "Z2": (0, 0, 0, 0),
    }
    problems = []
    for algebra in (split_pair_extended(), group_algebra_z2_extended()):
        name = algebra.base.name
        for crosscaps in range(1, 5):
            value = invariant(closed_unoriented_surface(crosscaps), algebra)
            want = expected[name][crosscaps - 1]
            oracle = oracles.surface_invariant(EXTENDED_TABLES[name], 0, crosscaps)
            if value != want:
                problems.append(f"{name} k={crosscaps}: {value} != {want}")
            if oracle != want:
                problems.append(f"{name} k={crosscaps}: oracle {oracle} != {want}")
    conclude(4, "cross-cap 1..4 invariants", problems)


def test_05_tensor_closure():
    problems = []
    plain_pairs = list(itertools.combinations_with_replacement(plain_battery(), 2))
    assert len(plain_pairs) == 10
    for a, b in plain_pairs:
        report = check_frobenius(tensor(a, b))
        if not report.passed:
            problems.append(f"{a.name}*{b.name}: {report.failing()}")
    extended_pairs = list(
        itertools.combinations_with_replacement(extended_battery(), 2)
    )
    assert len(extended_pairs) == 6
    for a, b in extended_pairs:
        product = tensor_extended(a, b)
        base = check_frobenius(product.base)
        ext = check_extended(product)
        if not (base.passed and ext.passed):
            problems.append(
                f"{a.base.name}*{b.base.name} ext: {base.failing() + ext.failing()}"
            )
    conclude(5, "tensor products stay inside the class (10 plain + 6 extended)", problems)


def test_06_multiplicativity():
    problems = []
    plain_pairs = list(itertools.combinations_with_replacement(plain_battery(), 2))
    for a, b in plain_pairs:
        for genus in range(5):
            word = closed_oriented_surface(genus)
            if not check_multiplicativity(word, a, b).passed:
                problems.append(f"{a.name}*{b.name} g={genus}")
    unoriented_shapes = [
        (k, g) for k in range(1, 7) for g in range(3) if k + 2 * g <= 6
    ]
    assert len(unoriented_shapes) == 12
    extended_pairs = list(
        itertools.combinations_with_replacement(extended_battery(), 2)
    )
    for a, b in extended_pairs:
        for crosscaps, genus in unoriented_shapes:
            word = closed_unoriented_surface(crosscaps, genus)
            if not check_multiplicativity(word, a, b).passed:
                problems.append(
                    f"{a.base.name}*{b.base.name} k={crosscaps} g={genus}"
                )

    # spot values, both routes
    torus = closed_oriented_surface(1)
    d_z2 = invariant(torus, tensor(dual_numbers(), group_algebra_z2()))
    if d_z2 != 4:
        problems.append(f"torus on D*Z2: {d_z2} != 4")
    if oracles.surface_invariant(
        oracles.tensor_tables(PLAIN_TABLES["D"], PLAIN_TABLES["Z2"]), 1
    ) != 4:
        problems.append("oracle torus on D*Z2 != 4")
    klein = closed_unoriented_surface(2)
    k_kxk = invariant(
        klein, tensor_extended(ground_field_extended(), split_pair_extended())
    )
    if k_kxk != 2:
        problems.append(f"Klein bottle on K*KxK: {k_kxk} != 2")
    if oracles.surface_invariant(
        oracles.tensor_tables(EXTENDED_TABLES["K"], EXTENDED_TABLES["KxK"]), 0, 2
    ) != 2:
        problems.append("oracle Klein bottle on K*KxK != 2")
    conclude(6, "invariants multiply under tensor product", problems)


def test_07_random_monoidal_naturality():
    problems = []
    plain_pairs = list(itertools.combinations_with_replacement(plain_battery(), 2))
    extended_pairs = list(
        itertools.combinations_with_replacement(extended_battery(), 2)
    )
    oriented = random_words(50, SEED)
    unoriented = random_words(50, SEED + 1, unoriented=True)
    assert len(oriented) + len(unoriented) == 100
    for index, word in enumerate(oriented):
        for a, b in plain_pairs:
            if not check_monoidal_naturality(word, a, b).passed:
                problems.append(f"oriented word {index} on {a.name}*{b.name}")
    for index, word in enumerate(unoriented):
        for a, b in extended_pairs:
            if not check_monoidal_naturality(word, a, b).passed:
                problems.append(
                    f"unoriented word {index} on {a.base.name}*{b.base.name}"
                )
    conclude(
        7,
        f"100 random words (seeds {SEED}, {SEED + 1}) respect the tensor product",
        problems,
    )


def test_08_dictionary_matches_morphism_checks():
    k = ground_field()
    d = dual_numbers()
    z2 = group_algebra_z2()
    kxk = split_pair()
    k_plus = ground_field_extended(1)
    k_minus = ground_field_extended(-1)
    z2e = group_algebra_z2_extended()
    kxke = split_pair_extended()

    roster = [
        # plain, expected to pass
        ("identity on D", FrobeniusMorphism(d, d, identity(2)), set()),
        ("identity on K", FrobeniusMorphism(k, k, identity(1)), set()),
        ("negate x on Z2", FrobeniusMorphism(z2, z2, Matrix(2, 2, [1, 0, 0, -1])), set()),
        ("swap idempotents on KxK",
         FrobeniusMorphism(kxk, kxk, Matrix(2, 2, [0, 1, 1, 0])), set()),
        # plain, expected to fail
        ("kill x on Z2", FrobeniusMorphism(z2, z2, Matrix(2, 2, [1, 0, 0, 0])),
         {"mult", "comult"}),
        ("scale x on D", FrobeniusMorphism(d, d, Matrix(2, 2, [1, 0, 0, 2])),
         {"counit", "comult"}),
        ("zero map on K", FrobeniusMorphism(k, k, Matrix(1, 1, [0])),
         {"unit", "counit"}),
        # extended, expected to pass
        ("identity on Z2 ext", FrobeniusMorphism(z2e, z2e, identity(2)), set()),
        ("negate x on Z2 ext", FrobeniusMorphism(z2e, z2e, Matrix(2, 2, [1, 0, 0, -1])),
         set()),
        ("identity on KxK ext", FrobeniusMorphism(kxke, kxke, identity(2)), set()),
        # extended, expected to fail
        ("point sign flip", FrobeniusMorphism(k_plus, k_minus, identity(1)),
         {"theta"}),
        ("swap idempotents on KxK ext",
         FrobeniusMorphism(kxke, kxke, Matrix(2, 2, [0, 1, 1, 0])), {"theta"}),
        ("kill x on Z2 ext", FrobeniusMorphism(z2e, z2e, Matrix(2, 2, [1, 0, 0, 0])),
         {"mult", "comult"}),
    ]
    dictionary_name = {"cup": "unit", "cap": "counit", "mult": "mult",
                       "comult": "comult", "phi": "phi", "theta": "theta"}

    problems = []
    passing = failing = 0
    for label, morphism, expected_failures in roster:
        extended_ends = isinstance(morphism.source, ExtendedFrobeniusAlgebra)
        checker = check_extended_morphism if extended_ends else check_morphism
        morphism_report = checker(morphism)
        word_report = naturality_dictionary(morphism)
        if set(morphism_report.failing()) != expected_failures:
            problems.append(
                f"{label}: morphism failures {morphism_report.failing()}"
            )
        if word_report.passed != morphism_report.passed:
            problems.append(f"{label}: dictionary verdict diverges")
        for check in word_report.checks:
            if check.name in ("id", "swap"):
                if not check.passed:
                    problems.append(f"{label}: {check.name} must always pass")
                continue
            twin = morphism_report.check(dictionary_name[check.name])
            if check.passed != twin.passed:
                problems.append(
                    f"{label}: {check.name} disagrees with {twin.name}"
                )
        if morphism_report.passed:
            passing += 1
        else:
            failing += 1
    if passing < 3 or failing < 3:
        problems.append(f"roster too thin: {passing} passing, {failing} failing")
    conclude(8, "generator dictionary matches the morphism diagrams", problems)


def test_09_dyck_relation():
    # trading one handle for two cross-caps in the presence of at least one
    # cross-cap never changes the invariant
    shapes = [(k, g) for k in range(1, 7) for g in range(3) if k + 2 * g <= 6]
    assert len(shapes) == 12
    problems = []
    for algebra in extended_battery():
        name = algebra.base.name
        for crosscaps, genus in shapes:
            lhs = invariant(closed_unoriented_surface(crosscaps, genus + 1), algebra)
            rhs = invariant(closed_unoriented_surface(crosscaps + 2, genus), algebra)
            if lhs != rhs:
                problems.append(f"{name} k={crosscaps} g={genus}: {lhs} != {rhs}")
            tables = EXTENDED_TABLES[name]
            if oracles.surface_invariant(
                tables, genus + 1, crosscaps
            ) != oracles.surface_invariant(tables, genus, crosscaps + 2):
                problems.append(f"oracle {name} k={crosscaps} g={genus}")
    conclude(9, "handle vs two cross-caps trade", problems)


def test_10_theta_search():
    problems = []
    hits = search_theta(ground_field(), identity(1), 1)
    if [tuple(m.entries) for m in hits] != [(-1,), (1,)]:
        problems.append(f"ground field: {[m.entries for m in hits]}")
    if search_theta(dual_numbers(), identity(2), 5):
        problems.append("dual numbers: expected no admissible point")
    kxk_hits = search_theta(split_pair(), identity(2), 1)
    if len(kxk_hits) != 4:
        problems.append(f"split pair: {len(kxk_hits)} points, expected 4")
    expected = {(-1, -1), (-1, 1), (1, -1), (1, 1)}
    if {tuple(m.entries) for m in kxk_hits} != expected:
        problems.append(f"split pair points: {[m.entries for m in kxk_hits]}")
    conclude(10, "point search over bounded integer grids", problems)


def test_11_cli_contract(tmp_path):
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "frob2d.cli", *argv],
            capture_output=True, text=True,
        )

    data = lambda name: str(data_path(name))
    problems = []

    checks = [
        (("check", data("dual_numbers.json")), 0, None),
        (("check", "--extended", data("kxk_ext.json")), 0, None),
        (("invariant", data("dual_numbers.json"), "--genus", "1"), 0, "2\n"),
        (("invariant", data("kxk_ext.json"), "--crosscaps", "2"), 0, "2\n"),
        (("eval", data("torus.cob"), data("dual_numbers.json")), 0, "1x1\n2\n"),
        (("search-theta", data("k.json"), "--bound", "1"), 0, "-1\n1\n"),
        (("naturality", data("z2_kill_x.json"), data("z2.json"), data("z2.json")),
         1, None),
        (("eval", data("projective_plane.cob"), data("z2.json")), 2, None),
        (("check", "/no/such/file.json"), 2, None),
    ]
    for argv, code, stdout in checks:
        result = run(*argv)
        if result.returncode != code:
            problems.append(f"{argv}: exit {result.returncode} != {code}")
        if stdout is not None and result.stdout != stdout:
            problems.append(f"{argv}: stdout {result.stdout!r}")
        # failing reports go to stdout; malformed input goes to stderr
        if result.returncode == 2 and not result.stderr.startswith("error:"):
            problems.append(f"{argv}: stderr {result.stderr!r}")
        if result.returncode == 1 and not (result.stdout or result.stderr):
            problems.append(f"{argv}: silent failure")

    # 18-line extended report, byte-deterministic
    first = run("check", "--extended", data("kxk_ext.json"))
    second = run("check", "--extended", data("kxk_ext.json"))
    if first.stdout != second.stdout:
        problems.append("extended check output not deterministic")
    if len(first.stdout.splitlines()) != 18:
        problems.append(f"extended report has {len(first.stdout.splitlines())} lines")

    # tensor writes a loadable passing product
    out = tmp_path / "product.json"
    result = run("tensor", data("z2.json"), data("kxk.json"), "-o", str(out))
    if result.returncode != 0 or result.stdout or not out.exists():
        problems.append("tensor round failed")
    elif run("check", str(out)).returncode != 0:
        problems.append("tensor output fails check")
    conclude(11, "command line contract and goldens", problems)
