"""Command line interface.

Exit codes: 0 on success, 1 when a computation finishes but the
mathematical verdict is negative (validation fails, a frame is not
canonical/symmetric, an uncertified dual was requested), 2 for input
errors — unreadable files, parse problems with line/column positions,
dimension mismatches, violated preconditions.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import ideals
from .errors import DimensionMismatch, GoodsemiError, NotCertifiedError, ParseError
from .ideals import IdealFrame, from_json, to_json
from .lattice import as_point, zero


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", filename=path) from None


def _load_ideal(path: str) -> IdealFrame:
    return from_json(_read(path), filename=path)


def _load_semigroup(path: str):
    frame = _load_ideal(path)
    try:
        return ideals.GoodSemigroup(frame)
    except NotCertifiedError as exc:
        raise NotCertifiedError(f"{path} is not a good semigroup:\n{exc}") from exc


def _load_curve(path: str):
    from .ringbridge import curves
    return curves.parse_curve(_read(path), filename=path)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _point(text: str, name: str, s: int, what: str) -> tuple:
    """The point of dimension ``s``, the ``what``, given as command-line
    argument ``name``."""
    try:
        p = as_point(int(c.strip()) for c in text.split(","))
    except ValueError:
        raise ParseError(f"cannot read point {text!r}; expected e.g. '3,1'", filename=f"argument {name}")
    if len(p) != s:
        raise DimensionMismatch(f"the {what} {p} has {len(p)} coordinates, not {s} (argument {name})")
    return p


# ------------------------------------------------------------- subcommands


def _cmd_validate(args) -> int:
    E = _load_ideal(args.ideal)
    if args.ambient:
        S = _load_semigroup(args.ambient)
        report = ideals.validate(E, S)
        what = f"ideal of {args.ambient}"
    elif E.mu == zero(E.s):
        report = ideals.validate(E, E)
        what = "semigroup"
    else:
        report = ideals.validate(E)
        what = "frame (axioms only; no ambient given)"
    print(f"checking {args.ideal} as {what}")
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_canonical(args) -> int:
    from . import duality
    S = _load_semigroup(args.semigroup)
    _emit(to_json(duality.canonical_normalized(S)), args.output)
    return 0


def _cmd_dual(args) -> int:
    from . import duality
    S = _load_semigroup(args.semigroup)
    E = _load_ideal(args.ideal)
    K = duality.CanonicalIdeal.normalized(S)
    try:
        first = duality.dualize(K, E)
        certified = True
    except NotCertifiedError as err:
        print(err, file=sys.stderr)
        first = duality.difference(K.ideal, E)
        certified = False
    if not args.twice:
        _emit(to_json(first), args.output)
        return 0 if certified else 1
    second = duality.difference(K.ideal, first)
    _emit(to_json(second), args.output)
    if second == E:
        print("dual applied twice returns the input", file=sys.stderr)
        return 0 if certified else 1
    # e + x is in K for e in E and x in K - E, so E ⊆ K - (K - E) always
    print("dual applied twice strictly contains the input", file=sys.stderr)
    return 1


def _cmd_is_canonical(args) -> int:
    from . import duality
    S = _load_semigroup(args.semigroup)
    K = _load_ideal(args.ideal)
    verdict, alpha = duality.is_canonical(K, S)
    print(f"canonical: {str(verdict).lower()} (shift {','.join(map(str, alpha))})")
    return 0 if verdict else 1


def _cmd_is_symmetric(args) -> int:
    from . import duality
    S = _load_semigroup(args.semigroup)
    verdict = duality.is_symmetric(S)
    print(f"symmetric: {str(verdict).lower()}")
    return 0 if verdict else 1


def _cmd_diff(args) -> int:
    from . import duality
    E = _load_ideal(args.left)
    F = _load_ideal(args.right)
    _emit(to_json(duality.difference(E, F)), args.output)
    return 0


def _cmd_sum(args) -> int:
    E = _load_ideal(args.left)
    F = _load_ideal(args.right)
    _emit(to_json(ideals.sum_ideals(E, F)), args.output)
    return 0


def _cmd_distance(args) -> int:
    from . import metric
    E = _load_ideal(args.ideal)
    start = _point(args.start, "start", E.s, "start point")
    d = metric.distance_between(E, start, _point(args.end, "end", E.s, "end point"))
    print(d)
    return 0


def _cmd_rel_distance(args) -> int:
    from . import metric
    E = _load_ideal(args.smaller)
    F = _load_ideal(args.larger)
    print(metric.relative_distance(E, F))
    return 0


def _cmd_decompose(args) -> int:
    S = _load_semigroup(args.semigroup)
    dec = ideals.decompose(S)
    for block, factor in zip(dec.partition, dec.factors):
        print(f"branches {list(block)}:")
        sys.stdout.write(to_json(factor))
    return 0


def _cmd_gamma_of(args) -> int:
    E = _load_ideal(args.ideal)
    print(f"conductor: {','.join(map(str, E.conductor))}")
    print(f"capping bound: {','.join(map(str, E.gamma))}")
    return 0


def _cmd_curve_gamma(args) -> int:
    from .ringbridge import curves
    spec = _load_curve(args.curve)
    G = curves.value_ideal(spec, args.module)
    _emit(to_json(G), args.output)
    return 0


def _cmd_colon(args) -> int:
    from .ringbridge import curves
    spec = _load_curve(args.curve)
    G = curves.colon_value_ideal(spec, args.left, args.right)
    _emit(to_json(G), args.output)
    return 0


def _cmd_length(args) -> int:
    from .ringbridge import curves
    spec = _load_curve(args.curve)
    print(curves.length_quotient(spec, args.larger, args.smaller))
    return 0


def _cmd_type(args) -> int:
    from .duality import is_symmetric
    from .ringbridge import curves
    spec = _load_curve(args.curve)
    print(f"type: {curves.type_of(spec)}")
    print(f"symmetric: {str(is_symmetric(curves.value_ideal(spec))).lower()}")
    return 0


def _cmd_plot(args) -> int:
    from . import plot
    E = _load_ideal(args.ideal)
    lo = _point(args.lo, "--lo", 2, "lower window corner") if args.lo else None
    hi = _point(args.hi, "--hi", 2, "upper window corner") if args.hi else None
    if args.svg:
        _emit(plot.svg_lattice(E, lo, hi), args.svg)
    else:
        sys.stdout.write(plot.ascii_lattice(E, lo, hi))
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with '-' and a digit, such as the
    point '-2,-1', as a value; argparse alone lets through only plain
    negative numbers.  Subparsers are built with the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def _arg(*flags, **options):
    return flags, options


_OUTPUT = _arg("-o", "--output")

# name -> (handler, help, arguments), in the order that help lists them
COMMANDS = {
    "validate": (_cmd_validate, "check the good-ideal axioms of a frame", _arg("ideal"),
                 _arg("--ambient", help="semigroup JSON to check the ideal property against")),
    "canonical": (_cmd_canonical, "normalized canonical ideal of a semigroup", _arg("semigroup"), _OUTPUT),
    "dual": (_cmd_dual, "dualize an ideal by the canonical ideal", _arg("semigroup"), _arg("ideal"),
             _arg("--twice", action="store_true", help="apply the duality twice"), _OUTPUT),
    "is-canonical": (_cmd_is_canonical, "is this frame a canonical ideal?", _arg("semigroup"), _arg("ideal")),
    "is-symmetric": (_cmd_is_symmetric, "is the semigroup symmetric?", _arg("semigroup")),
    "diff": (_cmd_diff, "ideal difference E - F = {x : x + F in E}", _arg("left"), _arg("right"), _OUTPUT),
    "sum": (_cmd_sum, "pointwise sum of two ideals", _arg("left"), _arg("right"), _OUTPUT),
    "distance": (_cmd_distance, "saturated chain length between two members", _arg("ideal"), _arg("start"),
                 _arg("end")),
    "rel-distance": (_cmd_rel_distance, "distance d(F \\ E) for nested ideals", _arg("smaller"), _arg("larger")),
    "decompose": (_cmd_decompose, "split into local factors", _arg("semigroup")),
    "gamma-of": (_cmd_gamma_of, "conductor and capping bound of a frame", _arg("ideal")),
    "curve-gamma": (_cmd_curve_gamma, "value semigroup ideal of a curve module", _arg("curve"),
                    _arg("--module", default="R"), _OUTPUT),
    "colon": (_cmd_colon, "value ideal of a colon module F : E", _arg("curve"), _arg("left"), _arg("right"),
              _OUTPUT),
    "length": (_cmd_length, "Q-dimension of F/E for nested curve modules", _arg("curve"), _arg("larger"),
               _arg("smaller")),
    "type": (_cmd_type, "type t(R) of a local curve ring, and whether its value semigroup is symmetric",
             _arg("curve")),
    "plot": (_cmd_plot, "draw a 2-branch ideal (ASCII, or SVG with --svg)", _arg("ideal"),
             _arg("--svg", help="write an SVG file instead of ASCII output"),
             _arg("--lo", help="lower window corner, e.g. '0,0'"), _arg("--hi", help="upper window corner, e.g. '8,6'")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of all commands, or of ``command`` alone if it names one:
    its help, usage lines and errors read the same either way."""
    p = _Parser(
        prog="goodsemi",
        description="Good semigroups of N^s: validation, duality, distance, "
        "and value semigroups of curve singularities.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (fn, help, *arguments) in COMMANDS.items():
        if command in COMMANDS and name != command:
            sub.choices[name] = None  # listed in usage lines, never parsed
            continue
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=fn)
        for flags, options in arguments:
            sp.add_argument(*flags, **options)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (GoodsemiError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
