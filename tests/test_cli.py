"""Command line interface: golden outputs, exit codes, determinism."""

import ast
import functools
import json
import operator
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import frob2d
from frob2d import data_path, load_algebra, save_algebra
from frob2d.cli import main
from frob2d.examples import dual_numbers
from frob2d.frobenius import check_extended, check_frobenius, tensor

DATA = {
    name: str(data_path(name))
    for name in (
        "k.json", "k_ext.json", "k_ext_minus.json", "dual_numbers.json",
        "z2.json", "z2_ext.json", "kxk.json", "kxk_ext.json",
        "sphere.cob", "torus.cob", "projective_plane.cob", "klein_bottle.cob",
        "identity_d.json", "z2_negate_x.json", "z2_kill_x.json",
    )
}

BASE_PASS = (
    "associativity: pass\n"
    "unit_left: pass\n"
    "unit_right: pass\n"
    "coassociativity: pass\n"
    "counit_left: pass\n"
    "counit_right: pass\n"
    "frobenius_left: pass\n"
    "frobenius_right: pass\n"
    "commutativity: pass\n"
    "cocommutativity: pass\n"
)
EXTENDED_PASS = BASE_PASS + (
    "involution: pass\n"
    "phi_unit: pass\n"
    "phi_mult: pass\n"
    "phi_counit: pass\n"
    "phi_comult: pass\n"
    "theta_multiplication_fixed: pass\n"
    "crosscap: pass\n"
    "phi_fixes_theta: pass\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def broken_algebra(tmp_path):
    # counit_left and friends fail: comult has a doubled x-term
    doc = {
        "name": "B", "dim": 2, "basis": ["1", "x"],
        "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
        "unit": [1, 0], "counit": [0, 1],
        "comult": [[[0, 1], [1, 0]], [[0, 0], [0, 2]]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_check_passing_algebra(capsys):
    code, out, err = run(capsys, "check", DATA["dual_numbers.json"])
    assert (code, out, err) == (0, BASE_PASS, "")


def test_check_extended_passing(capsys):
    code, out, err = run(capsys, "check", "--extended", DATA["kxk_ext.json"])
    assert (code, out, err) == (0, EXTENDED_PASS, "")


def test_check_extended_on_plain_document(capsys):
    code, out, err = run(capsys, "check", "--extended", DATA["kxk.json"])
    assert code == 2
    assert out == ""
    assert "no 'extended' block" in err


def test_check_failing_algebra_reports_witnesses(capsys, tmp_path):
    code, out, _ = run(capsys, "check", broken_algebra(tmp_path))
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 10
    assert "coassociativity: fail at (3,0): 1 != 2" in lines
    assert "counit_left: fail at (1,1): 2 != 1" in lines
    assert lines[0] == "associativity: pass"


def test_check_missing_field(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"name": "M", "dim": 1, "basis": ["1"],
                                "mult": [[[1]]], "unit": [1]}))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert "counit" in err


def test_invariant_goldens(capsys):
    for args, expected in (
        (("invariant", DATA["dual_numbers.json"], "--genus", "1"), "2\n"),
        (("invariant", DATA["kxk_ext.json"], "--crosscaps", "2"), "2\n"),
        (("invariant", DATA["kxk_ext.json"], "--crosscaps", "1"), "0\n"),
        (("invariant", DATA["k_ext_minus.json"], "--crosscaps", "3", "--genus", "2"), "-1\n"),
        (("invariant", DATA["z2.json"], "--genus", "3"), "8\n"),
        (("invariant", DATA["k.json"]), "1\n"),
    ):
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (0, expected, ""), args


def test_invariant_crosscaps_need_extended(capsys):
    code, _, err = run(capsys, "invariant", DATA["z2.json"], "--crosscaps", "1")
    assert code == 2
    assert "extended structure required for cross-caps" in err


def test_invariant_negative_genus(capsys):
    code, _, err = run(capsys, "invariant", DATA["z2.json"], "--genus", "-1")
    assert code == 2
    assert "genus must be nonnegative" in err


def test_invariant_refuses_broken_algebra(capsys, tmp_path):
    code, _, err = run(capsys, "invariant", broken_algebra(tmp_path), "--genus", "1")
    assert code == 1
    assert err == ("error: algebra fails axiom checks: coassociativity, "
                   "counit_left, counit_right, frobenius_left, frobenius_right\n")


def test_eval_goldens(capsys):
    for word, algebra, expected in (
        ("sphere.cob", "k.json", "1x1\n1\n"),
        ("torus.cob", "dual_numbers.json", "1x1\n2\n"),
        ("sphere.cob", "dual_numbers.json", "1x1\n0\n"),
        ("klein_bottle.cob", "kxk_ext.json", "1x1\n2\n"),
    ):
        code, out, err = run(capsys, "eval", DATA[word], DATA[algebra])
        assert (code, out, err) == (0, expected, ""), (word, algebra)


def test_eval_theta_needs_extended(capsys):
    code, _, err = run(capsys, "eval", DATA["projective_plane.cob"], DATA["z2.json"])
    assert code == 2
    assert "generator 'theta' needs an extended Frobenius algebra" in err


def test_eval_open_word_prints_matrix(capsys, tmp_path):
    path = tmp_path / "open.cob"
    path.write_text("oriented\ncomult\n")
    code, out, _ = run(capsys, "eval", str(path), DATA["z2.json"])
    assert code == 0
    assert out == "4x2\n1 0\n0 1\n0 1\n1 0\n"


def test_eval_malformed_word(capsys, tmp_path):
    path = tmp_path / "bad.cob"
    path.write_text("oriented\ncup,\ncap\n")
    code, _, err = run(capsys, "eval", str(path), DATA["k.json"])
    assert code == 2
    assert "slice 1: unknown generator ''" in err


def test_tensor_writes_valid_product(capsys, tmp_path):
    out_path = tmp_path / "kd.json"
    code, out, err = run(capsys, "tensor", DATA["k.json"],
                         DATA["dual_numbers.json"], "-o", str(out_path))
    assert (code, out, err) == (0, "", "")
    product = load_algebra(out_path)
    assert check_frobenius(product).passed
    # the unit factor changes labels only
    d = dual_numbers()
    assert product.mult == d.mult and product.counit == d.counit


def test_tensor_extended(capsys, tmp_path):
    out_path = tmp_path / "zk.json"
    code, out, err = run(capsys, "tensor", "--extended", DATA["z2_ext.json"],
                         DATA["kxk_ext.json"], "-o", str(out_path))
    assert (code, out, err) == (0, "", "")
    product = load_algebra(out_path)
    assert check_frobenius(product.base).passed
    assert check_extended(product).passed
    assert product.base.dim == 4


def test_tensor_matches_library(capsys, tmp_path):
    out_path = tmp_path / "dz.json"
    run(capsys, "tensor", DATA["dual_numbers.json"], DATA["z2.json"],
        "-o", str(out_path))
    assert load_algebra(out_path) == tensor(
        load_algebra(DATA["dual_numbers.json"]), load_algebra(DATA["z2.json"]))


def test_tensor_refuses_broken_input(capsys, tmp_path):
    out_path = tmp_path / "never.json"
    broken = broken_algebra(tmp_path)
    code, _, err = run(capsys, "tensor", broken, DATA["k.json"], "-o", str(out_path))
    assert code == 1
    assert err == (f"error: {broken}: fails axiom checks: coassociativity, "
                   "counit_left, counit_right, frobenius_left, frobenius_right\n")
    assert not out_path.exists()


def test_tensor_over_the_size_budget_is_exit_2(capsys, tmp_path):
    # the split algebra of dimension 17 (idempotent basis, counit all 1)
    # passes its checks; the multiplication of its tensor square does not fit
    n = 17
    split = [[[int(i == j == k) for k in range(n)] for j in range(n)] for i in range(n)]
    doc = {"name": "s17", "dim": n, "basis": [f"e{i}" for i in range(n)],
           "mult": split, "unit": [1] * n, "counit": [1] * n, "comult": split}
    algebra, out_path = tmp_path / "s17.json", tmp_path / "out.json"
    algebra.write_text(json.dumps(doc))
    assert run(capsys, "tensor", str(algebra), str(algebra), "-o", str(out_path)) == (
        2, "", "error: a 289x83521 matrix has 24137569 cells, over the budget of 8388608\n")
    assert not out_path.exists()


def test_naturality_dictionary_passing(capsys):
    code, out, err = run(capsys, "naturality", DATA["identity_d.json"],
                         DATA["dual_numbers.json"], DATA["dual_numbers.json"])
    assert code == 0 and err == ""
    assert out == "id: pass\ncup: pass\ncap: pass\nmult: pass\ncomult: pass\nswap: pass\n"


def test_naturality_dictionary_extended(capsys):
    code, out, _ = run(capsys, "naturality", DATA["z2_negate_x.json"],
                       DATA["z2_ext.json"], DATA["z2_ext.json"])
    assert code == 0
    assert out == ("id: pass\ncup: pass\ncap: pass\nmult: pass\n"
                   "comult: pass\nswap: pass\nphi: pass\ntheta: pass\n")


def test_naturality_dictionary_failing(capsys):
    code, out, _ = run(capsys, "naturality", DATA["z2_kill_x.json"],
                       DATA["z2.json"], DATA["z2.json"])
    assert code == 1
    lines = out.splitlines()
    assert "mult: fail at (0,3): 1 != 0" in lines
    assert "comult: fail at (3,0): 0 != 1" in lines
    assert "cup: pass" in lines


def test_naturality_single_word(capsys):
    code, out, err = run(capsys, "naturality", "--word", DATA["torus.cob"],
                         DATA["identity_d.json"],
                         DATA["dual_numbers.json"], DATA["dual_numbers.json"])
    assert (code, out, err) == (0, "naturality: pass\n", "")


def test_search_theta_goldens(capsys):
    for args, expected_out, expected_code in (
        (("search-theta", DATA["k.json"], "--bound", "1"), "-1\n1\n", 0),
        (("search-theta", DATA["kxk.json"], "--bound", "1"),
         "-1 -1\n-1 1\n1 -1\n1 1\n", 0),
        (("search-theta", DATA["dual_numbers.json"], "--bound", "5"), "", 0),
        (("search-theta", DATA["z2_ext.json"], "--bound", "2"), "0 0\n", 0),
    ):
        code, out, err = run(capsys, *args)
        assert (code, out, err) == (expected_code, expected_out, ""), args


def test_search_theta_bound_1000(capsys):
    # 2001**2 points, under the budget: crosscap prunes each coordinate as it is set
    code, out, err = run(capsys, "search-theta", DATA["kxk.json"], "--bound", "1000")
    assert (code, out, err) == (0, "-1 -1\n-1 1\n1 -1\n1 1\n", "")


def test_search_theta_with_phi_file(capsys):
    code, out, _ = run(capsys, "search-theta", DATA["z2.json"], "--bound", "2",
                       "--phi", DATA["z2_negate_x.json"])
    assert code == 0
    assert out == "0 0\n"


def test_search_theta_bad_bound(capsys):
    code, _, err = run(capsys, "search-theta", DATA["k.json"], "--bound", "0")
    assert code == 2 and "bound" in err


def test_search_theta_grid_past_the_budget_is_exit_2(capsys):
    code, out, err = run(capsys, "search-theta", DATA["kxk.json"], "--bound", "1000000000")
    assert (code, out) == (2, "")
    assert err == (
        "error: a theta grid with bound 1000000000 on 2 coordinates "
        "has more than 8388608 points\n"
    )


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/algebra.json")
    assert code == 2
    assert err.startswith("error:")


def test_not_json_is_exit_2(capsys):
    code, _, err = run(capsys, "check", DATA["sphere.cob"])
    assert code == 2
    assert "not valid JSON" in err


def assert_one_error_line(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


def write_z2_ext(tmp_path, change):
    doc = json.loads(Path(DATA["z2_ext.json"]).read_text())
    change(doc)
    path = tmp_path / "z2_ext.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_integer_and_p_over_q_strings_load(capsys, tmp_path):
    def as_strings(doc):
        doc["unit"] = ["+1", "0/5"]
        doc["counit"] = ["2/2", "-0"]
        doc["extended"]["phi"] = [["1", "0"], ["0", "-3/3"]]
    code, out, err = run(capsys, "check", "--extended", write_z2_ext(tmp_path, as_strings))
    assert (code, out, err) == (0, EXTENDED_PASS, "")


# an exponent would expand to its full integer while loading ("1e10000000" has
# 33 million bits) and get round the digit limit on JSON integers
@pytest.mark.parametrize("text", [
    "1.5", "1e4301", "2E3", "1_000", " 1", "1/2 ", "1/-2", "1/0", "0x10", "\u0661", "",
])
def test_other_scalar_strings_are_exit_2(capsys, tmp_path, text):
    path = write_z2_ext(tmp_path, lambda doc: doc.__setitem__("unit", [text, 0]))
    expect = f"error: field 'unit[0]': not a rational: {text!r}\n"
    assert run(capsys, "check", path) == (2, "", expect)


@pytest.mark.parametrize("text", ["1" * 5001, "2" * 10**6])
def test_long_scalar_strings_are_cut_in_their_error_line(capsys, tmp_path, text):
    path = write_z2_ext(tmp_path, lambda doc: doc.__setitem__("unit", [text, 0]))
    line = f"error: field 'unit[0]': not a rational: '{text[:40]}'... ({len(text)} characters)"
    assert run(capsys, "check", path) == (2, "", line + "\n")
    assert len(line) < 200


@pytest.mark.parametrize("text", ["\x00" * 50, "\U000e0001" * 5000, "1" * 39 + "\x00" * 10])
def test_escaped_scalar_strings_are_cut_between_escapes(capsys, tmp_path, text):
    # an escape prints as up to 10 characters: the start shown is cut before
    # the escape that would pass 42, never inside it
    path = write_z2_ext(tmp_path, lambda doc: doc.__setitem__("unit", [text, 0]))
    code, out, err = run(capsys, "check", path)
    head, _, tail = err.removeprefix("error: field 'unit[0]': not a rational: ").rpartition("... ")
    assert (code, out, tail) == (2, "", f"({len(text)} characters)\n")
    assert len(head) <= 42 and text.startswith(ast.literal_eval(head))
    assert len(err) < 200

@pytest.mark.parametrize("change, line", [
    (lambda block: block.pop("phi"), "missing field 'extended.phi'"),
    (lambda block: block.pop("theta"), "missing field 'extended.theta'"),
    (lambda block: block.update(phi=[[1, 0]]), "field 'extended.phi': expected a 2x2 table"),
    (lambda block: block.update(theta=[0]),
     "field 'extended.theta': expected a list of 2 rationals"),
    (lambda block: block.update(theta=[0, "x"]),
     "field 'extended.theta[1]': not a rational: 'x'"),
    (lambda block: block.update(phi=[[1, 0], [0, 0.5]]),
     "field 'extended.phi[1][1]': floats are not exact, use integers or \"p/q\""),
])
def test_extended_block_errors_name_the_full_field(capsys, tmp_path, change, line):
    path = write_z2_ext(tmp_path, lambda doc: change(doc["extended"]))
    assert run(capsys, "check", "--extended", path) == (2, "", f"error: {line}\n")


def test_non_utf8_algebra_is_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xe9"}')
    assert_one_error_line(*run(capsys, "check", str(path)))


def test_non_utf8_word_is_exit_2(capsys, tmp_path):
    path = tmp_path / "latin1.cob"
    path.write_bytes(b"oriented\n\xffcup\n")
    assert_one_error_line(*run(capsys, "eval", str(path), DATA["z2.json"]))


def test_deeply_nested_json_is_exit_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert_one_error_line(*run(capsys, "check", str(path)))


def test_over_long_integer_literal_is_exit_2(capsys, tmp_path):
    doc = json.loads(Path(DATA["z2.json"]).read_text())
    text = json.dumps(doc).replace('"unit": [1, 0]', '"unit": [1' + "0" * 5000 + ", 0]")
    path = tmp_path / "long.json"
    path.write_text(text)
    assert_one_error_line(*run(capsys, "check", str(path)))


def decimal(value) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_invariant_prints_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    for genus in (14400, 100000):
        code, out, err = run(capsys, "invariant", DATA["z2.json"], "--genus", str(genus))
        assert sys.get_int_max_str_digits() == limit  # lifted for printing only
        assert (code, out, err) == (0, decimal(2**genus) + "\n", ""), genus


def test_invariant_over_the_entry_budget_is_exit_2(capsys):
    code, out, err = run(capsys, "invariant", DATA["z2.json"], "--genus", "1000000000")
    assert_one_error_line(code, out, err)
    assert err == ("error: squaring a 2x2 matrix with 262145-bit entries "
                   "would pass the entry budget of 524288 bits\n")


def test_naturality_witness_prints_past_the_digit_limit(capsys, tmp_path):
    # the handle operator of this algebra is diag(1, 1/2); swapping the
    # idempotents does not commute with its 14300th power
    algebra = tmp_path / "s.json"
    algebra.write_text(json.dumps({
        "name": "S", "dim": 2, "basis": ["e1", "e2"],
        "mult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "unit": [1, 1], "counit": [1, 2],
    }))
    swap = tmp_path / "swap.json"
    swap.write_text(json.dumps({"source": "S", "target": "S", "map": [[0, 1], [1, 0]]}))
    handles = tmp_path / "handles.cob"
    handles.write_text("oriented\n" + "comult\nmult\n" * 14300)
    code, out, err = run(capsys, "naturality", "--word", str(handles),
                         str(swap), str(algebra), str(algebra))
    expected = f"naturality: fail at (0,1): 1/{decimal(2**14300)} != 1\n"
    assert (code, out, err) == (1, expected, "")


def z2_squared(tmp_path):
    z2 = load_algebra(DATA["z2.json"])
    algebra = tmp_path / "z2z2.json"
    save_algebra(tensor(z2, z2), algebra)
    return str(algebra)


def test_eval_over_the_size_budget_is_exit_2(capsys, tmp_path):
    # 8 -> 8 circles on Z2*Z2: a 65536 x 65536 answer, refused before any state
    algebra = z2_squared(tmp_path)
    path = tmp_path / "wide.cob"
    path.write_text("oriented\nmult,mult,mult,mult\ncomult,comult,comult,comult\n")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "eval", str(path), algebra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == "error: a 65536x65536 matrix has 4294967296 cells, over the budget of 8388608\n"
    assert peak < 2**20


def test_eval_of_a_wide_source_word_prints_its_answer(capsys, tmp_path):
    # Z2*Z2 is the group algebra of Z2 x Z2: basis element p = 2i + j multiplies
    # by xor, so the product of 8 circles sits in the row of the xor of its digits
    path = tmp_path / "wide.cob"
    path.write_text("oriented\nmult,mult,mult,mult\nmult,mult\nmult\n")
    code, out, err = run(capsys, "eval", str(path), z2_squared(tmp_path))
    digit_xor = [functools.reduce(operator.xor, ((c >> s) & 3 for s in range(0, 16, 2)))
                 for c in range(4**8)]
    expect = ["4x65536"] + [" ".join("1" if x == row else "0" for x in digit_xor)
                            for row in range(4)]
    assert (code, err) == (0, "")
    assert out.splitlines() == expect


# 16 dimensions with every structure constant 1 (not a Frobenius algebra):
# comult has 256 nonzeros in every column.  Each word goes from 4 circles to
# 1, a 16 x 65536 answer inside the budget; comult on the identity's 65536
# nonzeros is a step past it, and phi needs an extended algebra.  The first
# step that raises decides the line, after the word's own checks.
@pytest.mark.parametrize("text, line", [
    ("unoriented\ncomult, id, id, id\nmult, mult, phi\nmult, id\nmult\n",
     "a 1048576x65536 matrix has 68719476736 cells, over the budget of 8388608"),
    ("unoriented\nphi, id, id, id\ncomult, id, id, id\nmult, mult, id\nmult, id\nmult\n",
     "generator 'phi' needs an extended Frobenius algebra, but 'dense' has no extended structure"),
    ("unoriented\ncomult, id, id, id\nmult, mult, phi\nmult, id\nmult\nmult\n",
     "slice 5: expects 2 input circle(s), previous slice provides 1"),
], ids=["budget first", "phi first", "malformed"])
def test_eval_errors_come_from_the_first_step_that_raises_them(capsys, tmp_path, text, line):
    n = 16
    table = [[[1] * n] * n] * n
    doc = {"name": "dense", "dim": n, "basis": [f"e{i}" for i in range(n)],
           "mult": table, "unit": [1] * n, "counit": [1] * n, "comult": table}
    algebra, path = tmp_path / "dense.json", tmp_path / "word.cob"
    algebra.write_text(json.dumps(doc))
    path.write_text(text)
    assert run(capsys, "eval", str(path), str(algebra)) == (2, "", f"error: {line}\n")


def test_unknown_subcommand_is_exit_2(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_output_is_deterministic(capsys):
    first = run(capsys, "check", "--extended", DATA["kxk_ext.json"])
    second = run(capsys, "check", "--extended", DATA["kxk_ext.json"])
    assert first == second


def test_exit_codes_confined(capsys, tmp_path):
    runs = [
        ("check", DATA["k.json"]),
        ("check", broken_algebra(tmp_path)),
        ("check", "/nope.json"),
        ("invariant", DATA["z2.json"], "--genus", "2"),
        ("eval", DATA["torus.cob"], DATA["z2.json"]),
        ("search-theta", DATA["z2.json"], "--bound", "1"),
    ]
    for argv in runs:
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1, 2), argv


def test_cli_import_loads_no_dataclasses_inspect_or_resources():
    # -S: no site start-up, which loads some of these modules on its own
    src = Path(frob2d.__file__).parents[1]
    probe = ("import sys, frob2d.cli; "
             "print(sorted({'dataclasses', 'inspect', 'importlib.resources'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
