"""Batch command-line front end over the matrix text format.

Every subcommand reads whitespace-separated decimal matrices (two dimension
tokens, then row-major entries), writes results to stdout or --out, and
reports diagnostics on stderr.  Exit codes: 0 success, 2 mathematical
precondition violation, 3 parse, argument or I/O error, 4 internal error
(a failed consistency check).  Code 1 is unused.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from math import lcm

from . import apps
from .hermite_basis import relations_hermite_basis
from .howell import hermite_via_howell, howell_form
from .intmat import (
    DiagonalModulus,
    DimensionError,
    HermiteBasis,
    IntMat,
    InternalError,
    ParseError,
    PreconditionError,
    _parse_int,
    annihilates,
    format_matrix,
    invariant_checks,
    invariant_checks_enabled,
    parse_matrix,
    vstack,
)
from .massager import smith_massager

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _read(path: str) -> IntMat:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_matrix(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _emit(mats: list[IntMat], out: str | None) -> None:
    # matrices are separated by exactly one blank line
    text = "\n\n".join(format_matrix(m).rstrip("\n") for m in mats) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from exc


def _diag_modulus(m: IntMat) -> DiagonalModulus:
    if not m.is_square():
        raise PreconditionError("modulus matrix must be square")
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j and m[i, j] != 0:
                raise PreconditionError("modulus matrix must be diagonal")
    return DiagonalModulus([m[i, i] for i in range(m.rows)])


class _Parser(argparse.ArgumentParser):
    """Argument errors become a ParseError, reported like any input error."""

    def error(self, message):
        raise ParseError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    top = _Parser(prog="hnfkit", description="Hermite bases of integer relations lattices")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, needs_mod=False, needs_rhs=False):
        p.add_argument("--in", dest="inputs", action="append", default=[],
                       metavar="FILE", help="input matrix file (repeatable)")
        if needs_mod:
            p.add_argument("--mod", dest="mod", metavar="FILE", required=True,
                           help="modulus matrix file")
        if needs_rhs:
            p.add_argument("--rhs", dest="rhs", metavar="FILE", required=True,
                           help="right-hand-side matrix file")
        p.add_argument("--out", dest="out", metavar="FILE", default=None,
                       help="write output here instead of stdout")
        p.add_argument("--debug-invariants", dest="debug", action="store_true",
                       help="enable the runtime assertion suite")
        return p

    common(sub.add_parser("hnf", help="Hermite basis of a full column rank matrix"))
    common(sub.add_parser("massager", help="reduced Smith massager of a nonsingular matrix"))
    common(sub.add_parser("relbasis", help="Hermite basis of a relations lattice"),
           needs_mod=True)
    ph = common(sub.add_parser("howell", help="Howell form and transform over Z/(N)"))
    # N is read by the matrix parser's integer rule, in _run
    ph.add_argument("modulus_n", metavar="N", help="the residue ring modulus")
    common(sub.add_parser("remainder", help="remainder of a matrix modulo a Hermite basis"),
           needs_mod=True)
    common(sub.add_parser("product-hnf", help="Hermite basis of a product (two --in files)"))
    common(sub.add_parser("intersect", help="basis of the intersection of two lattices"))
    common(sub.add_parser("crt", help="multivariable Chinese remainder solver"),
           needs_mod=True, needs_rhs=True)
    common(sub.add_parser("verify", help="re-check the invariants of a claimed result"),
           needs_mod=False)
    return top


def _one_input(args) -> IntMat:
    if len(args.inputs) != 1:
        raise ParseError("this subcommand needs exactly one --in file")
    return _read(args.inputs[0])


def _two_inputs(args) -> tuple[IntMat, IntMat]:
    if len(args.inputs) != 2:
        raise ParseError("this subcommand needs exactly two --in files")
    return _read(args.inputs[0]), _read(args.inputs[1])


def _run(args) -> int:
    # --debug-invariants turns the checks on; otherwise the caller's setting holds
    with invariant_checks(args.debug or invariant_checks_enabled()):
        if args.command == "hnf":
            a = _one_input(args)
            _emit([apps.hnf(a).mat], args.out)
        elif args.command == "massager":
            a = _one_input(args)
            mas = smith_massager(a)
            _emit([mas.s.as_matrix(), mas.f], args.out)
        elif args.command == "relbasis":
            mod = _read(args.mod)
            f = _one_input(args)
            _emit([relations_hermite_basis(mod, f).mat], args.out)
        elif args.command == "howell":
            n = _parse_int(args.modulus_n)
            res = howell_form(_one_input(args), n)
            _emit([res.h, res.u], args.out)
        elif args.command == "remainder":
            mod = HermiteBasis(_read(args.mod))
            f = _one_input(args)
            _emit([apps.remainder_mod_hermite(f, mod)], args.out)
        elif args.command == "product-hnf":
            a, b = _two_inputs(args)
            _emit([apps.product_hnf(a, b).mat], args.out)
        elif args.command == "intersect":
            a, b = _two_inputs(args)
            h = apps.lattice_intersection(a, b)
            _emit([h.mat], args.out)
        elif args.command == "crt":
            mod = _diag_modulus(_read(args.mod))
            a = _one_input(args)
            b = _read(args.rhs)
            hval, x_p, hbar = apps.multivariable_crt(mod, a, b)
            _emit([IntMat([[hval]], 1, 1), x_p, hbar.mat], args.out)
        elif args.command == "verify":
            if len(args.inputs) not in (1, 3):
                raise ParseError("verify needs --in H.mat, optionally followed by "
                                 "--in S.mat --in F.mat")
            h = HermiteBasis(_read(args.inputs[0]))   # raises unless valid
            if len(args.inputs) == 3:
                s = _diag_modulus(_read(args.inputs[1]))
                f = _read(args.inputs[2])
                if f.rows != h.dim or f.cols != s.dim:
                    raise DimensionError(f"F is {f.rows}x{f.cols}, but H and S "
                                         f"need it {h.dim}x{s.dim}")
                # raises unless S is nonsingular
                if not annihilates(h.mat, f, s):
                    raise PreconditionError("claimed basis does not annihilate F modulo S")
                # L(H) lies inside the relations lattice, whose index is
                # det S / det T with T the Hermite basis of L(F) + L(S)
                t = hermite_via_howell(vstack(f, s.as_matrix()), lcm(*s.diag))
                if h.determinant() * t.determinant() != s.determinant():
                    raise PreconditionError("claimed basis has the wrong index: "
                                            "det H * det T differs from det S")
            print("ok", file=sys.stderr)
        else:   # pragma: no cover
            raise ParseError(f"unknown command {args.command}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    # entries are arbitrary-precision: lift CPython's int/str digit limit for
    # the call (Python 3.10 before 3.10.7 has no limit to lift)
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return _run(_build_parser().parse_args(argv))
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
