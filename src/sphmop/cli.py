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
import sys

import numpy as np

from .gaussian import GaussianRational, ZERO, format_gaussian
from .polynomials import MatrixPolynomial, mismatch
from .structure import build_structures, eigen_ledger
from .family import build_family, coeffs_by_recursion, coeffs_by_racah
from .operators import (build_operator, apply, conjugate, commutator_check)
from .orthogonality import (build_weight, inner_product, symmetry_check,
                            ldu_decompose, commutant,
                            block_offdiagonal_is_zero, weighted_image,
                            inner_product_against_image)
from . import geometry


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
            a = coeffs_by_recursion(ell, w, k).a
            where = f"w={w} k={k} "
            racah = racah or mismatch(
                _column(a), _column(coeffs_by_racah(ell, w, k).a), where)
            tail = tail or mismatch(
                _column(a),
                _column(x if j <= w + k else ZERO for j, x in enumerate(a)),
                where)
    yield ("coefficient recursion = Racah closed form", racah)
    yield ("coefficient tail a_j = 0 for j > w+k", tail)

    fam = build_family(ell, wmax)
    Dbar = build_operator("Dbar", ell)
    Ebar = build_operator("Ebar", ell)
    Dtilde = build_operator("Dtilde", ell)
    Etilde = build_operator("Etilde", ell)
    eig = {(w, name): MatrixPolynomial.diagonal(
        [getattr(eigen_ledger(ell, w, k), name) for k in range(n)])
        for w in ws for name in ("lam", "mu")}
    for label, op, P, name in (
            ("Dbar*P_w = P_w*Lambda_w", Dbar, fam.Pw, "lam"),
            ("Ebar*P_w = P_w*M_w", Ebar, fam.Pw, "mu"),
            ("Dtilde*Pt_w = Pt_w*Lambda_w", Dtilde, fam.PwTilde, "lam"),
            ("Etilde*Pt_w = Pt_w*M_w", Etilde, fam.PwTilde, "mu")):
        yield (label, _first(mismatch(apply(op, P[w]), P[w] * eig[w, name],
                                      f"w={w} ") for w in ws))
    deg = None
    for w in ws:
        Pt = fam.PwTilde[w]
        deg = deg or (
            f"w={w} degree {Pt.degree()} != {w}" if Pt.degree() != w
            else _diagonal_invertible(MatrixPolynomial(
                Pt.coefficient_matrix(w)), f"w={w} leading coeff "))
    yield ("deg Pt_w = w with invertible diagonal leading coeff", deg)

    for label, op, target in (("PsiInv*Dbar*Psi = Dtilde", Dbar, Dtilde),
                              ("PsiInv*Ebar*Psi = Etilde", Ebar, Etilde)):
        conj = conjugate(op, fam.Psi, fam.PsiInv)
        yield (label, _first(mismatch(getattr(conj, A), getattr(target, A),
                                      f"{A} ") for A in ("A2", "A1", "A0")))
    yield ("[Dbar, Ebar] = 0 on monomials to degree 12",
           commutator_check(Dbar, Ebar, 12))

    W = build_weight(ell)
    members = [fam.PwTilde[w] for w in ws]
    # deep enough for op Pt_w even when a faulty op raises the degree
    rise = max((A.degree() or 0) - i for op in (Dtilde, Etilde)
               for i, A in enumerate((op.A0, op.A1, op.A2)))
    images = [weighted_image(F, W, wmax + max(rise, 0)) for F in members]
    zero = MatrixPolynomial.zeros(n, n)
    off = diag = None
    for w1 in ws:
        for w2 in ws:
            G = inner_product_against_image(members[w2], images[w1])
            if w1 != w2:
                off = off or mismatch(G, zero, f"w={w1} w'={w2} ")
            else:
                diag = diag or _diagonal_invertible(G, f"w={w1} ")
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
    for label, op in (("Dtilde symmetric on the family", Dtilde),
                      ("Etilde symmetric on the family", Etilde)):
        yield (label, symmetry_check(op, members, images))
    L, Dg, Uf = ldu_decompose(W)
    yield ("LDU reassembly equals the weight polynomial part",
           mismatch(L * Dg * Uf, W.poly_part))
    dim, basis, reduction = commutant(W)
    if reduction is None:
        witness = None if dim == 1 else f"dimension {dim} != 1"
    else:
        witness = block_offdiagonal_is_zero(W, reduction.R,
                                            reduction.block_sizes)
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
    W = build_weight(args.ell)
    grams = [inner_product(fam.PwTilde[w], fam.PwTilde[w], W)
             for w in range(args.wmax + 1)]
    if args.csv:
        for w, G in enumerate(grams):
            sys.stdout.write(f"# w={w}\n")
            constant_matrix_csv(G, sys.stdout)
        return 0
    doc = {str(w): matpoly_to_json(G) for w, G in enumerate(grams)}
    _print_json({"ell": args.ell, "gram": doc}, sort_keys=True)
    return 0


def _cmd_weight(args):
    texts = args.sample.split(",")
    us = [float(t) for t in texts]
    for t, u in zip(texts, us):
        if not -1.0 <= u <= 1.0:
            raise ValueError(f"--sample value {t!r} is not a number in "
                             "[-1, 1]")
    W = build_weight(args.ell)
    samples = []
    for u in us:
        pref = (2.0 / np.pi) * np.sqrt(max(0.0, 1.0 - u * u))
        vals = W.poly_part.evaluate(u)
        samples.append({
            "u": u,
            "W": [[[pref * v.real, pref * v.imag] for v in row]
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
    texts = args.theta.split(",")
    thetas = [float(t) for t in texts]
    for t, theta in zip(texts, thetas):
        if not math.isfinite(theta):
            raise ValueError(f"--theta value {t!r} is not a finite number")
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
    with open(args.matrix) as fh:
        try:
            g = np.array(json.load(fh), dtype=float)
        except (TypeError, ValueError):   # an object, a string, ragged
            raise ValueError("expected a 4x4 nested list of numbers")
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
    try:
        args = parser.parse_args(argv)
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
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
