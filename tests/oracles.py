"""Independent oracle computations over raw structure-constant tables.

Everything in this module works on plain nested lists with explicit index
loops and never imports the package under test.  Tests compare these
results against the package's matrix-based route, so the two sides share
only the input tables, not any code.

Table dictionaries use the keys ``mult`` (n x n x n, mult[i][j][k] is the
coefficient of e_k in e_i * e_j), ``unit`` and ``counit`` (length n),
``comult`` (n x n x n, comult[i][j][k] is the coefficient of e_j (x) e_k
in the image of e_i), and optionally ``phi`` (n x n, input-major) and
``theta`` (length n).
"""

import itertools


def dim(tables):
    return len(tables["unit"])


def mul(tables, v, w):
    n = dim(tables)
    out = [0] * n
    for i in range(n):
        if not v[i]:
            continue
        for j in range(n):
            if not w[j]:
                continue
            for k in range(n):
                out[k] += v[i] * w[j] * tables["mult"][i][j][k]
    return out


def comul(tables, v):
    n = dim(tables)
    out = [0] * (n * n)
    for i in range(n):
        if not v[i]:
            continue
        for j in range(n):
            for k in range(n):
                out[j * n + k] += v[i] * tables["comult"][i][j][k]
    return out


def counit_of(tables, v):
    return sum(v[i] * tables["counit"][i] for i in range(dim(tables)))


def apply_phi(tables, v):
    n = dim(tables)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            out[j] += v[i] * tables["phi"][i][j]
    return out


def handle(tables, v):
    """Multiply then comultiply: the genus-adding operator."""
    n = dim(tables)
    c = comul(tables, v)
    out = [0] * n
    for j in range(n):
        for l in range(n):
            coeff = c[j * n + l]
            if not coeff:
                continue
            for k in range(n):
                out[k] += coeff * tables["mult"][j][l][k]
    return out


def surface_invariant(tables, genus, crosscaps=0):
    """Counit of theta^crosscaps times handle^genus applied to the unit."""
    v = list(tables["unit"])
    for _ in range(crosscaps):
        v = mul(tables, tables["theta"], v)
    for _ in range(genus):
        v = handle(tables, v)
    return counit_of(tables, v)


# A nested-list matrix is a list of rows; its column count is passed along,
# since a matrix with no rows does not show it.


def matmul(a, b, b_cols):
    """The product ``a . b`` of nested-list matrices, by the sum over ``b``'s rows."""
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(b_cols)]
            for row in a]


def kron(a, b, a_cols, b_cols):
    """The Kronecker product of nested-list matrices, ``a``'s index major."""
    return [[a[i1][j1] * b[i2][j2] for j1 in range(a_cols) for j2 in range(b_cols)]
            for i1 in range(len(a)) for i2 in range(len(b))]


def first_difference(lhs, rhs):
    """``(row, col, x, y)`` of the first differing entry of two equally shaped matrices, or None.

    Entries are read in row-major order, as a failed check's witness is.
    """
    for i, (lhs_row, rhs_row) in enumerate(zip(lhs, rhs)):
        for j, (x, y) in enumerate(zip(lhs_row, rhs_row)):
            if x != y:
                return i, j, x, y
    return None


def frobenius_failures(tables):
    """Names of the ten axiom checks the tables fail, by direct coefficient sums."""
    n = dim(tables)
    mult, unit, counit, comult = (
        tables["mult"],
        tables["unit"],
        tables["counit"],
        tables["comult"],
    )
    rng = range(n)
    failures = set()

    for i, j, k, l in itertools.product(rng, repeat=4):
        left = sum(mult[i][j][m] * mult[m][k][l] for m in rng)
        right = sum(mult[j][k][m] * mult[i][m][l] for m in rng)
        if left != right:
            failures.add("associativity")
            break

    for j, k in itertools.product(rng, repeat=2):
        if sum(unit[i] * mult[i][j][k] for i in rng) != (1 if j == k else 0):
            failures.add("unit_left")
        if sum(unit[i] * mult[j][i][k] for i in rng) != (1 if j == k else 0):
            failures.add("unit_right")

    for i, j, k, l in itertools.product(rng, repeat=4):
        left = sum(comult[i][m][l] * comult[m][j][k] for m in rng)
        right = sum(comult[i][j][m] * comult[m][k][l] for m in rng)
        if left != right:
            failures.add("coassociativity")
            break

    for i, k in itertools.product(rng, repeat=2):
        if sum(comult[i][j][k] * counit[j] for j in rng) != (1 if i == k else 0):
            failures.add("counit_left")
        if sum(comult[i][k][j] * counit[j] for j in rng) != (1 if i == k else 0):
            failures.add("counit_right")

    for i, j, a, c in itertools.product(rng, repeat=4):
        left = sum(comult[i][a][b] * mult[b][j][c] for b in rng)
        right = sum(mult[i][j][k] * comult[k][a][c] for k in rng)
        if left != right:
            failures.add("frobenius_left")
            break
    for i, j, b, c in itertools.product(rng, repeat=4):
        left = sum(comult[j][a][b] * mult[i][a][c] for a in rng)
        right = sum(mult[i][j][k] * comult[k][c][b] for k in rng)
        if left != right:
            failures.add("frobenius_right")
            break

    for i, j, k in itertools.product(rng, repeat=3):
        if mult[i][j][k] != mult[j][i][k]:
            failures.add("commutativity")
        if comult[i][j][k] != comult[i][k][j]:
            failures.add("cocommutativity")

    return failures


def extended_failures(tables):
    """Names of the extended-structure checks the tables fail."""
    n = dim(tables)
    phi, theta = tables["phi"], tables["theta"]
    rng = range(n)
    failures = set()

    basis = [[1 if i == j else 0 for j in rng] for i in rng]

    for i in rng:
        if apply_phi(tables, apply_phi(tables, basis[i])) != basis[i]:
            failures.add("involution")
            break

    if apply_phi(tables, list(tables["unit"])) != list(tables["unit"]):
        failures.add("phi_unit")
    for i, j in itertools.product(rng, repeat=2):
        lhs = apply_phi(tables, mul(tables, basis[i], basis[j]))
        rhs = mul(tables, apply_phi(tables, basis[i]), apply_phi(tables, basis[j]))
        if lhs != rhs:
            failures.add("phi_mult")
            break
    for i in rng:
        if counit_of(tables, apply_phi(tables, basis[i])) != tables["counit"][i]:
            failures.add("phi_counit")
            break
    for i in rng:
        image = comul(tables, apply_phi(tables, basis[i]))
        spread = [0] * (n * n)
        raw = comul(tables, basis[i])
        for j, k in itertools.product(rng, repeat=2):
            coeff = raw[j * n + k]
            if not coeff:
                continue
            for a, b in itertools.product(rng, repeat=2):
                spread[a * n + b] += coeff * phi[j][a] * phi[k][b]
        if image != spread:
            failures.add("phi_comult")
            break

    for i in rng:
        scaled = mul(tables, list(theta), basis[i])
        if apply_phi(tables, scaled) != scaled:
            failures.add("theta_multiplication_fixed")
            break

    mult = tables["mult"]
    lhs = mul(tables, list(theta), list(theta))
    raw = comul(tables, list(tables["unit"]))
    rhs = [0] * n
    for j, l in itertools.product(rng, repeat=2):
        coeff = raw[j * n + l]
        if not coeff:
            continue
        for a in rng:
            if not phi[j][a]:
                continue
            for k in rng:
                rhs[k] += coeff * phi[j][a] * mult[a][l][k]
    if lhs != rhs:
        failures.add("crosscap")

    if apply_phi(tables, list(theta)) != list(theta):
        failures.add("phi_fixes_theta")

    return failures


def tensor_tables(ta, tb):
    """Product tables on paired indices p = i * dim(tb) + j."""
    na, nb = dim(ta), dim(tb)
    n = na * nb
    split = lambda p: divmod(p, nb)

    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    comult = [[[0] * n for _ in range(n)] for _ in range(n)]
    for p1, p2, p3 in itertools.product(range(n), repeat=3):
        (i1, j1), (i2, j2), (i3, j3) = split(p1), split(p2), split(p3)
        mult[p1][p2][p3] = ta["mult"][i1][i2][i3] * tb["mult"][j1][j2][j3]
        comult[p1][p2][p3] = ta["comult"][i1][i2][i3] * tb["comult"][j1][j2][j3]
    unit = [ta["unit"][split(p)[0]] * tb["unit"][split(p)[1]] for p in range(n)]
    counit = [ta["counit"][split(p)[0]] * tb["counit"][split(p)[1]] for p in range(n)]
    out = {"mult": mult, "unit": unit, "counit": counit, "comult": comult}
    if "phi" in ta and "phi" in tb:
        phi = [[0] * n for _ in range(n)]
        for p, q in itertools.product(range(n), repeat=2):
            (i, j), (a, b) = split(p), split(q)
            phi[p][q] = ta["phi"][i][a] * tb["phi"][j][b]
        out["phi"] = phi
        out["theta"] = [
            ta["theta"][split(p)[0]] * tb["theta"][split(p)[1]] for p in range(n)
        ]
    return out


ARITY = {
    "id": (1, 1),
    "cup": (0, 1),
    "cap": (1, 0),
    "mult": (2, 1),
    "comult": (1, 2),
    "swap": (2, 2),
    "phi": (1, 1),
    "theta": (0, 1),
}


def word_error(orientation, labels):
    """The WordError line of an ill-formed word, else its ``(source, target)`` circle counts.

    ``labels`` lists the slices, each a list of generator labels.  Slices
    are checked in order, and within one slice: empty, then the first phi
    or theta of an oriented word, then an input count other than the
    previous slice's output count.
    """
    counts = []
    for number, slice_labels in enumerate(labels, start=1):
        if not slice_labels:
            return f"slice {number} is empty"
        for label in slice_labels:
            if orientation == "oriented" and label in ("phi", "theta"):
                return f"slice {number}: generator '{label}' requires an unoriented word"
        ins = sum(ARITY[label][0] for label in slice_labels)
        if counts and ins != counts[-1][1]:
            return (f"slice {number}: expects {ins} input circle(s), "
                    f"previous slice provides {counts[-1][1]}")
        counts.append((ins, sum(ARITY[label][1] for label in slice_labels)))
    return (counts[0][0], counts[-1][1]) if counts else (0, 0)


def _generator_terms(label, tables, ins):
    n = dim(tables)
    if label == "id":
        yield (ins[0],), 1
    elif label == "swap":
        yield (ins[1], ins[0]), 1
    elif label == "cup":
        for k in range(n):
            if tables["unit"][k]:
                yield (k,), tables["unit"][k]
    elif label == "cap":
        if tables["counit"][ins[0]]:
            yield (), tables["counit"][ins[0]]
    elif label == "mult":
        row = tables["mult"][ins[0]][ins[1]]
        for k in range(n):
            if row[k]:
                yield (k,), row[k]
    elif label == "comult":
        plane = tables["comult"][ins[0]]
        for j in range(n):
            for k in range(n):
                if plane[j][k]:
                    yield (j, k), plane[j][k]
    elif label == "phi":
        for j in range(n):
            if tables["phi"][ins[0]][j]:
                yield (j,), tables["phi"][ins[0]][j]
    elif label == "theta":
        for k in range(n):
            if tables["theta"][k]:
                yield (k,), tables["theta"][k]
    else:
        raise ValueError(f"unknown generator label {label!r}")


def _apply_slice(labels, tables, state):
    out = {}
    for ins, coeff in state.items():
        partial = {(): coeff}
        pos = 0
        for label in labels:
            take = ARITY[label][0]
            args = ins[pos:pos + take]
            pos += take
            grown = {}
            for prefix, c in partial.items():
                for outs, w in _generator_terms(label, tables, args):
                    key = prefix + outs
                    grown[key] = grown.get(key, 0) + c * w
            partial = grown
        for key, c in partial.items():
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def word_matrix(slices_labels, tables, source_arity):
    """Evaluate a word by sparse state propagation; nested-list result.

    Row and column indices pack basis tuples with the leftmost strand most
    significant, matching the package's Kronecker convention.
    """
    n = dim(tables)
    arity = source_arity
    for labels in slices_labels:
        assert sum(ARITY[l][0] for l in labels) == arity
        arity = sum(ARITY[l][1] for l in labels)
    rows, cols = n ** arity, n ** source_arity
    result = [[0] * cols for _ in range(rows)]
    for col, ins in enumerate(itertools.product(range(n), repeat=source_arity)):
        state = {tuple(ins): 1}
        for labels in slices_labels:
            state = _apply_slice(labels, tables, state)
        for outs, c in state.items():
            row = 0
            for t in outs:
                row = row * n + t
            result[row][col] += c
    return result


K_TABLES = {"mult": [[[1]]], "unit": [1], "counit": [1], "comult": [[[1]]]}

D_TABLES = {
    "mult": [[[1, 0], [0, 1]], [[0, 1], [0, 0]]],
    "unit": [1, 0],
    "counit": [0, 1],
    "comult": [[[0, 1], [1, 0]], [[0, 0], [0, 1]]],
}

Z2_TABLES = {
    "mult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
    "unit": [1, 0],
    "counit": [1, 0],
    "comult": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]],
}

KXK_TABLES = {
    "mult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "unit": [1, 1],
    "counit": [1, 1],
    "comult": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
}

K_EXT_TABLES = {**K_TABLES, "phi": [[1]], "theta": [1]}
K_EXT_MINUS_TABLES = {**K_TABLES, "phi": [[1]], "theta": [-1]}
Z2_EXT_TABLES = {**Z2_TABLES, "phi": [[1, 0], [0, -1]], "theta": [0, 0]}
KXK_EXT_TABLES = {**KXK_TABLES, "phi": [[1, 0], [0, 1]], "theta": [1, -1]}

PLAIN_TABLE_SET = (
    ("K", K_TABLES),
    ("D", D_TABLES),
    ("Z2", Z2_TABLES),
    ("KxK", KXK_TABLES),
)

EXTENDED_TABLE_SET = (
    ("K", K_EXT_TABLES),
    ("Z2", Z2_EXT_TABLES),
    ("KxK", KXK_EXT_TABLES),
)
