"""Command-line front end.

Subcommands map one-to-one onto the library layers:

    kernel          kernel values as CSV rows (nu, z1, z2, w1, w2, re, im)
    norm            coefficient-space norms of a Laurent polynomial
    project         weighted Bergman projection of a mixed polynomial
    szego           Szego projection (coefficient or FFT grid mode)
    critical-range  the L^p boundedness interval of P_nu
    isometry        the re-indexing isometry onto the bidisc, forward or inverse
    verify          cross-validation suites, CSV + summary table

``kernel --in`` reads its JSON records into complex arrays, checks every
pair's membership in the triangle at once (a bad pair exits 2 and names its
record index) and evaluates the whole batch in one kernel call.  The
argument parser is built on the first ``main`` call and reused after it.

Exit codes: 0 success, 1 I/O error (an unreadable file, malformed JSON,
a missing key or a document of the wrong shape), 2 validation error (a
field of the wrong type or value among them), 3 verification failure (a
failing suite or ``VerificationFailure``); any other exception is a bug
and surfaces with its traceback.  All numeric output uses 12 significant
digits; identical configuration and seed produce byte-identical output.
"""

import argparse
import csv
import functools
import inspect
import io
import itertools
import json
import sys

import numpy as np

from . import coeffspace, isometries, kernels, projections, verify
from .coeffspace import LaurentCoeffs, MixedPoly, SpaceParam, TorusSeries
from .geometry import HartogsPoint
from .specfun import DomainError, VerificationFailure

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_VERIFY = 3


def _fmt(x):
    return f"{x:.12g}"


# the fields after nu of a kernel row: z1, z2, w1, w2 as re+imj, then re, im;
# "%.12g" % x is the string f"{x:.12g}", both from CPython's one float repr routine
_KERNEL_FIELDS = ",".join(["%.12g%+.12gj"] * 4 + ["%.12g", "%.12g"])


def _parse_complex(text):
    try:
        if "," in text:
            re, im = text.split(",")
            return complex(float(re), float(im))
        return complex(text)
    except ValueError as exc:
        raise DomainError(f"cannot parse complex number {text!r}") from exc


class InputError(Exception):
    """An input document lacks a key its format requires or nests the wrong
    kind of container (an i/o error)."""


def _read_json(path, parse):
    """``parse`` applied to the JSON document at ``path`` (``-``: stdin).

    What ``parse`` raises about the document's structure becomes
    InputError: a KeyError is a missing key, a TypeError or AttributeError
    a container of the wrong kind (a list where the format has an object,
    say).  The same errors raised anywhere else are bugs and surface.  A
    field of the wrong type or value is the parser's to report, as
    DomainError.
    """
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as fh:
            data = json.load(fh)
    try:
        return parse(data)
    except KeyError as exc:
        raise InputError(f"missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise InputError(f"document of the wrong shape: {exc}") from exc


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _pair_coords(records):
    """The z1, z2, w1, w2 coordinates of each {z, w} record of a list."""
    if not isinstance(records, list):
        raise TypeError(f"kernel --in needs a list of records, got {type(records).__name__}")
    return [[r["z"]["z1"], r["z"]["z2"], r["w"]["z1"], r["w"]["z2"]] for r in records]


def _read_pairs(path):
    """The --in records as an (n, 4) complex array of z1, z2, w1, w2.

    A record missing a key or a document that is not a list of records
    raises InputError (an i/o error); coordinates that are not [re, im]
    pairs of numbers, booleans included, raise DomainError.
    """
    coords = _read_json(path, _pair_coords)
    try:
        values = np.array(coords)
        # strings infer as kind "U", null as "O" and an all-boolean batch as "b"
        if values.dtype.kind not in "iuf":
            raise TypeError(f"coordinates must be numbers, got {values.dtype}")
        values = values.astype(float)
        # among numbers true and false read as 1 and 0, so only a batch holding a 0 or 1 needs the scan of types
        if ((values == 0.0) | (values == 1.0)).any():
            leaves = coords
            for _ in range(values.ndim - 1):
                leaves = itertools.chain.from_iterable(leaves)
            if bool in set(map(type, leaves)):
                raise ValueError("true and false are not numbers")
        # the complex view keeps each (re, im) pair bit for bit, signed zeros included
        return values.reshape(len(coords), 4, 2).view(complex)[..., 0]
    except (TypeError, ValueError) as exc:
        raise DomainError(f"kernel --in records need [re, im] coordinates: {exc}") from exc


def _cmd_kernel(args):
    if args.infile:
        if any(v is not None for v in (args.z1, args.z2, args.w1, args.w2)):
            raise DomainError("kernel --in takes no --z1 --z2 --w1 --w2")
        pts = _read_pairs(args.infile)
    else:
        if None in (args.z1, args.z2, args.w1, args.w2):
            raise DomainError("kernel needs either --in or all of --z1 --z2 --w1 --w2")
        pts = np.array([[_parse_complex(text) for text in (args.z1, args.z2, args.w1, args.w2)]])
    z = HartogsPoint(pts[:, 0], pts[:, 1])
    w = HartogsPoint(pts[:, 2], pts[:, 3])
    vals = kernels.kernel(args.nu, z, w)
    # one template for the whole output, the header and then a row per pair,
    # filled from every row's real and imaginary parts as Python floats in field order
    template = "\n".join(["nu,z1,z2,w1,w2,re,im"] + [_fmt(args.nu) + "," + _KERNEL_FIELDS] * len(pts)) + "\n"
    _write_text(args.out, template % tuple(np.column_stack([pts, vals]).view(float).ravel().tolist()))
    return EXIT_OK


# the spaces of norm and isometry whose nu is fixed; sharp is the star norm
# at nu = -2, and bergman, weighted-dirichlet and star read --nu
_SPACE_NU = {"hardy": -1.0, "dirichlet": -2.0}


def _space_nu(args, fixed):
    """--nu, or ``fixed`` when it is not None; DomainError if --nu is
    missing where the space needs it or given where it does not."""
    if fixed is None and args.nu is None:
        raise DomainError(f"{args.command} --space {args.space} requires --nu")
    if fixed is not None and args.nu is not None:
        raise DomainError(f"{args.command} --space {args.space} takes no --nu")
    return args.nu if fixed is None else fixed


def _cmd_norm(args):
    f = _read_json(args.infile, LaurentCoeffs.from_json)
    space = args.space
    nu = _space_nu(args, -2.0 if space == "sharp" else _SPACE_NU.get(space))
    if space in ("star", "sharp"):
        _write_text(args.out, f"{space}_norm {_fmt(coeffspace.star_norm(nu, f))}\n")
    else:
        label = space.replace("-", "_") + "_norm_sq"
        _write_text(args.out, f"{label} {_fmt(SpaceParam(nu).require(space, label).norm_sq(f))}\n")
    return EXIT_OK


def _cmd_project(args):
    SpaceParam(args.nu).require("bergman", "the Bergman projection")
    projections.projection_self_test(args.nu)
    f = _read_json(args.infile, MixedPoly.from_json)
    out = projections.project_bergman(args.nu, f)
    _write_json(args.out, out.to_json())
    return EXIT_OK


def _szego_input(data):
    """A TorusSeries for a coefficient file, (n, flat values) for a grid file."""
    if "terms" in data:
        return TorusSeries.from_json(data)
    n, values = data["n"], data["values"]
    try:
        if any(isinstance(x, bool) for x in [n, *(part for pair in values for part in pair)]):
            raise ValueError("true and false are not numbers")  # int() and complex() read them as 1, 0
        if int(n) != n or n < 1:  # 2.5 or "2" would pass int() silently
            raise ValueError(f"n = {n!r} is not an integer >= 1")
        flat = np.array([complex(re, im) for re, im in values])
        if not np.isfinite(flat).all():
            raise ValueError(f"values[{int(np.argmin(np.isfinite(flat)))}] is not finite")
        return int(n), flat
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"a grid file needs an integer n and [re, im] values: {exc}") from exc


def _cmd_szego(args):
    data = _read_json(args.infile, _szego_input)
    if isinstance(data, TorusSeries):
        if args.grid is not None:
            raise DomainError("szego --grid applies to a grid file, not to coefficients")
        _write_json(args.out, projections.project_szego(data).to_json())
        return EXIT_OK
    n, flat = data
    if args.grid is not None and args.grid != n:
        raise DomainError(f"--grid {args.grid} disagrees with input grid size {n}")
    if flat.size != n * n:
        raise DomainError(f"grid file promises {n}x{n} values, found {flat.size}")
    projected = projections.project_szego_grid(flat.reshape(n, n))
    values = [[v.real, v.imag] for v in projected.ravel()]
    _write_json(args.out, {"n": n, "values": values})
    return EXIT_OK


def _cmd_critical_range(args):
    r = projections.critical_range(args.nu)
    _write_text(args.out, f"{r.p_minus:.12f} {r.p_plus:.12f}\n")
    return EXIT_OK


def _cmd_isometry(args):
    f = _read_json(args.infile, LaurentCoeffs.from_json)
    nu = _space_nu(args, _SPACE_NU.get(args.space))
    SpaceParam(nu).require(args.space, f"isometry --space {args.space}")
    fn = isometries.to_bidisc if args.direction == "forward" else isometries.from_bidisc
    _write_json(args.out, fn(nu, f).to_json())
    return EXIT_OK


def _cmd_verify(args):
    if args.suite == "all":
        accepted = ()  # every suite runs at its own fixed bounds
    elif args.suite in verify.SUITES:
        accepted = inspect.signature(verify.SUITES[args.suite]).parameters
    else:
        raise DomainError(
            f"unknown suite {args.suite!r}; choices: all, {', '.join(verify.SUITES)}"
        )
    kwargs = {}
    if args.nu is not None:
        if "nus" not in accepted:
            raise DomainError(f"verify {args.suite} takes no --nu")
        kwargs["nus"] = (args.nu,)
    if args.suite == "all":
        results = verify.run_all(seed=args.seed)
    else:
        results = [verify.run_suite(args.suite, seed=args.seed, **kwargs)]
    table = csv.writer(text := io.StringIO(), lineterminator="\n")  # quotes a label or detail holding a comma
    table.writerow(["case", "closed_form", "quadrature", "abs_err", "rel_err"])
    table.writerows([f"{r.name}:{case}", *map(_fmt, values)] for r in results for case, *values in r.rows)
    table.writerows([[], ["suite", "status", "detail"]])
    table.writerows([r.name, "PASS" if r.passed else "FAIL", r.message] for r in results)
    failed = [r.name for r in results if not r.passed]
    _write_text(args.out, text.getvalue())
    if failed:
        print("failed suites: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hartogs",
        description="Holomorphic function space numerics on the Hartogs triangle",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="evaluate a reproducing kernel")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--in", dest="infile", help="JSON list of {z, w} point pairs")
    p.add_argument("--z1"), p.add_argument("--z2")
    p.add_argument("--w1"), p.add_argument("--w2")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_kernel)

    p = sub.add_parser("norm", help="coefficient-space norm of a Laurent polynomial")
    p.add_argument("--nu", type=float)
    spaces = ("bergman", *_SPACE_NU, "weighted-dirichlet", "star", "sharp")
    p.add_argument("--space", choices=spaces, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("project", help="weighted Bergman projection of a mixed polynomial")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("szego", help="Szego projection (coefficients or FFT grid)")
    p.add_argument("--grid", type=int, help="expected grid size for grid-mode input")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_szego)

    p = sub.add_parser("critical-range", help="L^p boundedness range of P_nu")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_critical_range)

    p = sub.add_parser("isometry", help="re-indexing isometries onto bidisc spaces")
    p.add_argument("--space", choices=(*_SPACE_NU, "bergman"), required=True)
    p.add_argument("--nu", type=float)
    p.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_isometry)

    p = sub.add_parser("verify", help="run cross-validation suites")
    p.add_argument("suite", help="suite name or 'all'")
    p.add_argument("--nu", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_verify)

    return parser


@functools.cache
def _parser():
    """The argument parser, built on the first call and shared after it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (OSError, json.JSONDecodeError, InputError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
