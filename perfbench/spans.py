"""Span recorders wrapped around the public functions of the sphmop layers.

Nothing here edits the package: `Tracer.install` replaces each target with a
timing wrapper in every `sphmop.*` module that holds a reference to it (the
defining module and every module that imported the name with
`from ... import ...`), and `Tracer.uninstall` puts the originals back.

Each span reports its call count and its self time: wall time inside the
span minus the time of the spans it encloses.  Spans are aggregated in
memory; nothing is written until the caller asks for `summary()`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

# span name -> (module, attribute path) of every function it covers
TARGETS = {
    "structure.build_structures": [("sphmop.structure", "build_structures")],
    "hypergeometric.hyp_terminating": [
        ("sphmop.hypergeometric", "hyp_terminating")],
    "family.coeffs": [("sphmop.family", "coeffs_by_recursion"),
                      ("sphmop.family", "coeffs_by_racah")],
    "family.build_family": [("sphmop.family", "build_family")],
    "family.eval_H": [("sphmop.family", "eval_H")],
    "polynomials.matmul": [("sphmop.polynomials",
                            "MatrixPolynomial.__mul__")],
    "polynomials.inverse_triangular": [
        ("sphmop.polynomials", "matpoly_inverse_triangular")],
    "operators.apply": [("sphmop.operators", "apply")],
    "operators.conjugate": [("sphmop.operators", "conjugate")],
    "operators.commutator_check": [("sphmop.operators", "commutator_check")],
    "orthogonality.build_weight": [("sphmop.orthogonality", "build_weight")],
    "orthogonality.weighted_image": [
        ("sphmop.orthogonality", "weighted_image")],
    "orthogonality.gram": [("sphmop.orthogonality",
                            "inner_product_against_image")],
    "orthogonality.symmetry_check": [
        ("sphmop.orthogonality", "symmetry_check")],
    "orthogonality.ldu": [("sphmop.orthogonality", "ldu_decompose")],
    "orthogonality.commutant": [("sphmop.orthogonality", "commutant")],
    "exact_linalg.nullspace": [("sphmop.exact_linalg", "nullspace")],
    "exact_linalg.invert": [("sphmop.exact_linalg", "invert")],
    "exact_linalg.solve": [("sphmop.exact_linalg", "solve")],
    "geometry.reconstruct_phi": [("sphmop.geometry", "reconstruct_phi")],
    "geometry.rep_exp": [("sphmop.geometry", "rep_exp")],
    "geometry.section_matrix": [("sphmop.geometry", "section_matrix")],
    "geometry.wedge_cover": [("sphmop.geometry", "wedge_cover")],
    "cli.verify_rows": [("sphmop.cli", "verify_rows")],
}

# spans that must fire on every op of each kind; a span missing here after a
# rename is a test failure, not a silent zero in the report
EXPECTED = {
    "verify": [
        "structure.build_structures", "hypergeometric.hyp_terminating",
        "family.coeffs", "family.build_family", "polynomials.matmul",
        "polynomials.inverse_triangular", "operators.apply",
        "operators.conjugate", "operators.commutator_check",
        "orthogonality.build_weight", "orthogonality.weighted_image",
        "orthogonality.gram", "orthogonality.symmetry_check",
        "orthogonality.ldu", "orthogonality.commutant",
        "exact_linalg.nullspace", "exact_linalg.invert", "exact_linalg.solve",
        "cli.verify_rows",
    ],
    "phi": [
        "structure.build_structures", "hypergeometric.hyp_terminating",
        "family.coeffs", "family.eval_H", "geometry.reconstruct_phi",
        "geometry.rep_exp", "geometry.section_matrix",
        "geometry.wedge_cover",
    ],
}

# counts and values reported beside the spans
EXTRA = ("family.height_bits", "exact_linalg.max_system_entries")

def _bits(x) -> int:
    """Largest numerator or denominator bit length inside an exact result."""
    if hasattr(x, "re") and hasattr(x, "im"):
        return max(x.re.numerator.bit_length(), x.re.denominator.bit_length(),
                   x.im.numerator.bit_length(), x.im.denominator.bit_length())
    if hasattr(x, "coeffs"):
        return max((_bits(c) for c in x.coeffs), default=0)
    if hasattr(x, "entries"):
        return max((_bits(p) for p in x.entries), default=0)
    if hasattr(x, "a"):
        return max((_bits(c) for c in x.a), default=0)
    if hasattr(x, "PwTilde"):
        return max(_bits(M) for M in (x.Psi, x.PsiInv, *x.Pw.values(),
                                      *x.PwTilde.values()))
    return 0


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Aggregating span recorder for one process."""

    def __init__(self):
        self.stats = {name: [0, 0.0] for name in TARGETS}
        self.missing = []
        self._stack = []
        self._patches = []
        self._exact_results = []
        self.max_system_entries = 0

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack

        def close(frame, t0):
            dt = perf_counter() - t0
            stack.pop()
            stats[1] += dt - frame[0]
            if stack:
                stack[-1][0] += dt

        if inspect.isgeneratorfunction(fn):
            # the span is open only while the generator body runs, not while
            # its consumer handles a yielded item
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                stats[0] += 1
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close(frame, t0)
                    yield item
            return gen_wrapper

        keep = self._exact_results if name in (
            "family.coeffs", "family.build_family") else None
        system = name.startswith("exact_linalg.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if system and args and args[0]:
                size = len(args[0]) * len(args[0][0])
                if size > self.max_system_entries:
                    self.max_system_entries = size
            stats[0] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, t0)
            if keep is not None:
                keep.append(result)
            return result
        return wrapper

    def install(self):
        """Wrap every target that exists; names that no longer resolve are
        listed in `missing`.  Exact-linalg spans also record the largest
        system (rows x cols) passed in."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "sphmop" or n.startswith("sphmop.")) and m]
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                try:
                    owner, attr = _resolve(module_name, path)
                    orig = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{module_name}:{path}")
                    continue
                wrapped = self._wrap(name, orig)
                for holder in [owner] + [m for m in modules
                                         if m is not owner]:
                    for key, value in list(vars(holder).items()):
                        if value is orig:
                            self._patches.append((holder, key, orig))
                            setattr(holder, key, wrapped)
        return self

    def uninstall(self):
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    def summary(self):
        """Per-span calls and self seconds, plus the extra counts."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["family.height_bits"] = max(
            (_bits(r) for r in self._exact_results), default=0)
        out["exact_linalg.max_system_entries"] = self.max_system_entries
        return out
