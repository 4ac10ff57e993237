"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 when an identity fails,
2 on usage errors.  All data output is deterministic: exact arithmetic,
fixed iteration orders, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from .gaussian import GaussianRational, ZERO, format_gaussian
from .polynomials import MatrixPolynomial, mismatch
from .structure import build_structures, eigen_ledger
from .family import build_family, coeffs_by_recursion, coeffs_by_racah
from .operators import (build_operator, apply, conjugate, commutator_check)
from .orthogonality import (build_weight, symmetry_check, ldu_decompose,
                            commutant, block_offdiagonal_is_zero,
                            weighted_image, inner_product_against_image)


def poly_to_json(p):
    return [format_gaussian(c) for c in p.coeffs]


def matpoly_to_json(M: MatrixPolynomial):
    return {
        "rows": M.rows,
        "cols": M.cols,
        "var": "u",
        "entries": [[poly_to_json(M[i, j]) for j in range(M.cols)]
                    for i in range(M.rows)],
    }


def constant_matrix_csv(M: MatrixPolynomial, out):
    """Row-major CSV flattening of a constant matrix: header (row, col,
    re, im), one line per entry.  Lossless round-trip with the JSON form."""
    out.write("row,col,re,im\n")
    for i in range(M.rows):
        for j in range(M.cols):
            c = M[i, j].constant_term()
            out.write(f"{i},{j},{c.re},{c.im}\n")


def _print_json(doc, sort_keys=False):
    """Write one JSON document to stdout, indented, with a final newline."""
    json.dump(doc, sys.stdout, indent=2, sort_keys=sort_keys)
    sys.stdout.write("\n")


def _cmd_structures(args):
    st = build_structures(args.ell)
    doc = {name: matpoly_to_json(getattr(st, name)) for name in st.names()}
    _print_json({"ell": args.ell, "matrices": doc}, sort_keys=True)
    return 0


def _cmd_family(args):
    fam = build_family(args.ell, args.wmax)
    os.makedirs(args.out, exist_ok=True)
    for w in range(args.wmax + 1):
        for tag, M in (("P", fam.Pw[w]), ("Ptilde", fam.PwTilde[w])):
            path = os.path.join(args.out, f"{tag}_ell{args.ell}_w{w}.json")
            with open(path, "w") as fh:
                json.dump(matpoly_to_json(M), fh, indent=2, sort_keys=True)
                fh.write("\n")
    print(f"wrote {2 * (args.wmax + 1)} files to {args.out}")
    return 0


def _diagonal_invertible(G: MatrixPolynomial, where=""):
    """None when the constant matrix G is diagonal with no zero on the
    diagonal, else a witness."""
    n = G.rows
    return (mismatch(G, MatrixPolynomial.diagonal(
        [G[i, i] for i in range(n)]), where)
        or next((f"{where}entry ({i},{i}) is 0" for i in range(n)
                 if G[i, i].is_zero()), None))


def _first(witnesses):
    return next((w for w in witnesses if w), None)


def _column(values) -> MatrixPolynomial:
    return MatrixPolynomial([[x] for x in values])


def verify_rows(ell: int, wmax: int):
    """Run the full identity suite; yields (label, witness) pairs in a fixed
    order, with witness None when the identity holds and otherwise a short
    string naming where it failed.  Labels name the identity being checked,
    not where it is used."""
    st = build_structures(ell)
    n = ell + 1
    ws = range(wmax + 1)
    neg_v0 = MatrixPolynomial.diagonal([-j * (j + 1) for j in range(n)])
    yield ("(C0+C1)*U = U*diag(-j(j+1))",
           mismatch((st.C0 + st.C1) * st.U, st.U * neg_v0))
    yield ("U**U diagonal with entries (j+l+1)!(l-j)!/((2j+1) l! l!)",
           mismatch(st.U.conjugate_transpose() * st.U, st.UstarU))
    yield ("Uinv*A0*U = Q0+Q1",
           mismatch(st.Uinv * st.A0 * st.U, st.Q0 + st.Q1))
    yield ("Uinv*(C1+C0)*U = -V0",
           mismatch(st.Uinv * (st.C1 + st.C0) * st.U, -st.V0))
    eye = MatrixPolynomial.identity(n)
    yield ("Uinv*(C1-C0)*U = Q1*J - Q0*(J+1)",
           mismatch(st.Uinv * (st.C1 - st.C0) * st.U,
                    st.Q1 * st.J - st.Q0 * (st.J + eye)))

    racah = tail = None
    for w in ws:
        for k in range(n):
            a = coeffs_by_recursion(ell, w, k)
            where = f"w={w} k={k} "
            racah = racah or mismatch(
                _column(a), _column(coeffs_by_racah(ell, w, k)), where)
            tail = tail or mismatch(
                _column(a),
                _column(x if j <= w + k else ZERO for j, x in enumerate(a)),
                where)
    yield ("coefficient recursion = Racah closed form", racah)
    yield ("coefficient tail a_j = 0 for j > w+k", tail)

    fam = build_family(ell, wmax)
    op = {name: build_operator(name, ell)
          for name in ("Dbar", "Ebar", "Dtilde", "Etilde")}
    eig = {(w, name): MatrixPolynomial.diagonal(
        [getattr(eigen_ledger(ell, w, k), name) for k in range(n)])
        for w in ws for name in ("lam", "mu")}
    applied = {}  # op P_w, each once; the symmetry rows reuse them
    for label, name, P, ev in (
            ("Dbar*P_w = P_w*Lambda_w", "Dbar", fam.Pw, "lam"),
            ("Ebar*P_w = P_w*M_w", "Ebar", fam.Pw, "mu"),
            ("Dtilde*Pt_w = Pt_w*Lambda_w", "Dtilde", fam.PwTilde, "lam"),
            ("Etilde*Pt_w = Pt_w*M_w", "Etilde", fam.PwTilde, "mu")):
        applied[name] = [apply(op[name], P[w]) for w in ws]
        yield (label, _first(mismatch(applied[name][w], P[w] * eig[w, ev],
                                      f"w={w} ") for w in ws))
    deg = None
    for w in ws:
        Pt = fam.PwTilde[w]
        deg = deg or (
            f"w={w} degree {Pt.degree()} != {w}" if Pt.degree() != w
            else _diagonal_invertible(MatrixPolynomial(
                Pt.coefficient_matrix(w)), f"w={w} leading coeff "))
    yield ("deg Pt_w = w with invertible diagonal leading coeff", deg)

    for label, src, dst in (("PsiInv*Dbar*Psi = Dtilde", "Dbar", "Dtilde"),
                            ("PsiInv*Ebar*Psi = Etilde", "Ebar", "Etilde")):
        conj = conjugate(op[src], fam.Psi, fam.PsiInv)
        yield (label, _first(mismatch(getattr(conj, A), getattr(op[dst], A),
                                      f"{A} ") for A in ("A2", "A1", "A0")))
    # degree 4 decides the check (commutator_check), so the label holds
    yield ("[Dbar, Ebar] = 0 on monomials to degree 12",
           commutator_check(op["Dbar"], op["Ebar"]))

    W = build_weight(ell)
    members = [fam.PwTilde[w] for w in ws]
    # deep enough for every partner, even one a fault has raised in degree
    depth = max(F.degree() or 0 for F in
                members + applied["Dtilde"] + applied["Etilde"])
    images = weighted_image(members, W, depth)
    zero = MatrixPolynomial.zeros(n, n)
    # <Pt_w, Pt_w> = diag_k (dim K-type)^2 / dim tau, tau the SO(4) irrep
    # with (m1-m2+1)(m1+m2+1) = (w+k+1)(w+ell-k+1): the only check of the
    # scale of each column of Pt_w, which every other row leaves free
    norms = [MatrixPolynomial.diagonal(
        [Fraction(n * n, (w + k + 1) * (w + ell - k + 1)) for k in range(n)])
        for w in ws]
    off = diag = None
    for w1, row in enumerate(inner_product_against_image(members, images)):
        for w2, G in enumerate(row):
            if w1 != w2:
                off = off or mismatch(G, zero, f"w={w1} w'={w2} ")
            else:
                diag = diag or (_diagonal_invertible(G, f"w={w1} ")
                                or mismatch(G, norms[w1], f"w={w1} "))
    yield ("<Pt_w, Pt_w'> = 0 for w != w'", off)
    yield ("<Pt_w, Pt_w> diagonal and invertible", diag)
    # column k of U diag(1, 0, ..., 0) P_w(1) is H_{w,k}(1), which must be
    # (1, ..., 1); then tr Phi(e) = l+1
    e00 = MatrixPolynomial.diagonal([1] + [0] * ell)
    ones = MatrixPolynomial([[1] * n] * n)
    at_one = {w: MatrixPolynomial(
        fam.Pw[w].evaluate_exact(GaussianRational(1))) for w in ws}
    yield ("trace normalization equals l+1",
           _first(mismatch(st.U * e00 * at_one[w], ones, f"w={w} ")
                  for w in ws))
    for label, name in (("Dtilde symmetric on the family", "Dtilde"),
                        ("Etilde symmetric on the family", "Etilde")):
        yield (label, symmetry_check(
            inner_product_against_image(applied[name], images)))
    L, Dg, Uf = ldu_decompose(ell)
    yield ("LDU reassembly equals the weight polynomial part",
           mismatch(L * Dg * Uf, W))
    # the commutant is span{I, J}, J the reversal: dimension 2 for ell >= 1
    dim, basis, reduction = commutant(W)
    expected = 1 if ell == 0 else 2
    if dim != expected:
        witness = f"dimension {dim} != {expected}"
    elif reduction is not None:
        witness = block_offdiagonal_is_zero(W, reduction.R,
                                            reduction.block_sizes)
    else:
        witness = None
    yield ("commutant dimension and block reduction", witness)


def _cmd_verify(args):
    failures = 0
    for label, witness in verify_rows(args.ell, args.wmax):
        if witness is None:
            print(f"PASS  {label}")
        else:
            print(f"FAIL  {label}\n      {witness}")
            failures += 1
    print(f"{'all checks passed' if not failures else f'{failures} failed'}"
          f" (ell={args.ell}, wmax={args.wmax})")
    return 0 if failures == 0 else 1


def _cmd_gram(args):
    fam = build_family(args.ell, args.wmax)
    members = [fam.PwTilde[w] for w in range(args.wmax + 1)]
    images = weighted_image(members, build_weight(args.ell), args.wmax)
    grams = [inner_product_against_image([Pt], [Y])[0][0]
             for Pt, Y in zip(members, images)]
    if args.csv:
        for w, G in enumerate(grams):
            sys.stdout.write(f"# w={w}\n")
            constant_matrix_csv(G, sys.stdout)
        return 0
    doc = {str(w): matpoly_to_json(G) for w, G in enumerate(grams)}
    _print_json({"ell": args.ell, "gram": doc}, sort_keys=True)
    return 0


def _float_list(text, option, ok, expected):
    """The comma-separated floats of one option, each passing ok; a
    ValueError naming the option and the token otherwise."""
    values = []
    for t in text.split(","):
        try:
            v = float(t)
        except ValueError:
            v = None
        if v is None or not ok(v):
            raise ValueError(f"{option} value {t!r} is not {expected}")
        values.append(v)
    return values


def _cmd_weight(args):
    us = _float_list(args.sample, "--sample", lambda u: -1.0 <= u <= 1.0,
                     "a number in [-1, 1]")
    W = build_weight(args.ell)
    samples = []
    for u in us:
        pref = (2.0 / math.pi) * math.sqrt(max(0.0, 1.0 - u * u))
        # W at the float u taken exactly, each entry rounded once
        vals = W.evaluate_exact(Fraction(u))
        samples.append({
            "u": u,
            "W": [[[pref * v.real, pref * v.imag] for v in map(complex, row)]
                  for row in vals],
        })
    _print_json({"ell": args.ell, "samples": samples})
    return 0


def _cmd_reduce(args):
    W = build_weight(args.ell)
    dim, basis, reduction = commutant(W)
    doc = {
        "ell": args.ell,
        "dimension": dim,
        "basis": [[[format_gaussian(x) for x in row] for row in mat]
                  for mat in basis],
    }
    if reduction is not None:
        doc["R"] = matpoly_to_json(reduction.R)
        doc["block_sizes"] = list(reduction.block_sizes)
    _print_json(doc, sort_keys=True)
    return 0


def _cmd_eigen(args):
    rows = []
    for w in range(args.wmax + 1):
        for k in range(args.ell + 1):
            led = eigen_ledger(args.ell, w, k)
            rows.append({
                "w": w, "k": k,
                "m1": str(led.m1), "m2": str(led.m2),
                "lambda": int(led.lam), "mu": str(led.mu),
            })
    _print_json({"ell": args.ell, "ledger": rows})
    return 0


def _cmd_reconstruct(args):
    thetas = _float_list(args.theta, "--theta", math.isfinite,
                         "a finite number")
    from . import geometry   # loads numpy, which exact commands skip
    out = []
    for t in thetas:
        g = geometry.plane_rotation_14(t)
        phi = geometry.reconstruct_phi(args.ell, args.w, args.k, g)
        out.append({
            "theta": t,
            "Phi": [[[v.real, v.imag] for v in row] for row in phi.tolist()],
        })
    _print_json({"ell": args.ell, "w": args.w, "k": args.k, "values": out})
    return 0


def _cmd_cover(args):
    from . import geometry   # loads numpy, which exact commands skip
    with open(args.matrix) as fh:
        g = json.load(fh)
    a, b = geometry.wedge_cover(g)
    _print_json({"a": a.tolist(), "b": b.tolist()})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sphmop",
        description="Exact matrix-valued orthogonal polynomials from "
                    "spherical functions on the 3-sphere",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("structures", _cmd_structures,
            help="dump all structure matrices as JSON")
    p.add_argument("--ell", type=int, required=True)

    p = add("family", _cmd_family,
            help="write the packages P_w and Pt_w to JSON files")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--wmax", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("verify", _cmd_verify, help="run the full identity suite")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--wmax", type=int, required=True)

    p = add("gram", _cmd_gram, help="emit Gram matrices of the family")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--wmax", type=int, required=True)
    p.add_argument("--csv", action="store_true")

    p = add("weight", _cmd_weight, help="numeric weight samples")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--sample", required=True,
                   help="comma-separated u values in [-1, 1]")

    p = add("reduce", _cmd_reduce,
            help="commutant basis and block reduction")
    p.add_argument("--ell", type=int, required=True)

    p = add("eigen", _cmd_eigen, help="eigenvalue ledger table")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--wmax", type=int, required=True)

    p = add("reconstruct", _cmd_reconstruct,
            help="numeric spherical function along the meridian")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--w", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", required=True,
                   help="comma-separated angles")

    p = add("cover", _cmd_cover,
            help="double cover blocks of a 4x4 rotation read from JSON")
    p.add_argument("matrix", help="path to a JSON 4x4 nested list")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse reads a token that starts with '-' as an option unless it is
    # one plain negative number: pass `--theta -1e-3` on as `--theta=-1e-3`
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens[-1:] in (["--sample"], ["--theta"]) \
                and re.match(r"-\.?\d", token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return 2 if exc.code not in (0,) else 0
    if getattr(args, "ell", 0) < 0:
        print("error: --ell must be nonnegative", file=sys.stderr)
        return 2
    if getattr(args, "wmax", 0) < 0:
        print("error: --wmax must be nonnegative", file=sys.stderr)
        return 2
    if getattr(args, "ell", 0) % 2 == 1:
        print("warning: odd ell is algebraically fine but is not an SO(3) "
              "K-type; only even ell has group-level meaning",
              file=sys.stderr)
    try:
        code = args.fn(args)
        # a reader that closed the pipe shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped, which is no input error: as the Python docs'
        # SIGPIPE note does, send what is still buffered to devnull and
        # exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
