"""Command line front end.

Every subcommand loads one JSON scene file, picks named objects out of
it, runs a single library operation, and prints one JSON document to
stdout through `serialize.dumps`. Human-readable diagnostics go to
stderr. Exit codes: 0 on success, 1 on malformed input (bad flags,
SceneError, DimensionMismatch), 2 on every other HoloError (singular
points, non-unimodular matrices, zeros on contours, non-finite values,
and the like), which also emits an {"error": ...} document on stdout.

Randomized procedures take --seed, a non-negative integer (default 42),
and identical invocations produce byte-identical output. `preserves`
draws no random point; it accepts --seed and ignores it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from . import serialize
from .domains import FullSpace, classify_domain, word_preserves_domain
from .errors import (DimensionMismatch, HoloError, NonFinite, NotUnimodular, SceneError,
                     refuse_non_finite)
from .homotopy import certify_path, continuity_modulus
from .torus import commutes_with_torus, extract_diagonal, validate_exponent_matrix
from .winding import in_negative_component, make_contour, winding_index
from .words import compose, eval_word, invert_word, jacobian_det

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_point(text: str) -> np.ndarray:
    coords = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(",")
        if len(bits) != 2:
            raise UsageError(f'bad point component {part!r}: expected "re,im"')
        try:
            c = complex(float(bits[0]), float(bits[1]))
        except ValueError:
            raise UsageError(f"bad point component {part!r}: not numbers") from None
        if not np.isfinite(c):
            raise NonFinite(f"point component {part!r} is not finite")
        coords.append(c)
    if not coords:
        raise UsageError("point must have at least one coordinate")
    return np.array(coords, dtype=np.complex128)


def _seed(text: str) -> int:
    """A --seed value: numpy seeds its generators with non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seed {text!r}: not an integer") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {seed}")
    return seed


# each flag's argparse definition, stated once
FLAGS = {
    "scene": dict(required=True, metavar="FILE", help="JSON scene file"),
    "word": dict(required=True),
    "point": dict(required=True, metavar='"re,im;..."'),
    "contour": dict(required=True),
    "path": dict(required=True),
    "grid": dict(type=int, default=1001),
    "t": dict(type=float, required=True, help="time grid spacing dt"),
    "radius": dict(type=float, default=2.0),
    "seed": dict(type=_seed, default=42),
    "matrix": dict(required=True),
}

# subcommand -> (help text, its flags after --scene), in --help order
COMMANDS = {
    "eval": ("evaluate a word at a point", ("word", "point")),
    "compose": ("concatenate two words (first applied first)", ("word",)),
    "invert": ("invert a word step by step", ("word",)),
    "jacobian": ("Jacobian determinant of a word at a point", ("word", "point")),
    "winding-index": ("winding number of a word along a contour", ("word", "contour")),
    "negative-component": ("is the word in the reversed-winding class", ("word", "contour")),
    "homotopy-certify": ("certify a path to the identity on a polydisc",
                         ("path", "grid", "radius", "seed")),
    "continuity": ("modulus of continuity of a path at time step --t",
                   ("path", "t", "radius", "seed")),
    "centralizer": ("does the word commute with all torus rotations", ("word", "seed")),
    "extract-diagonal": ("recover the diagonal of a torus-commuting word", ("word", "seed")),
    "classify": ("domain kind and Stein flag", ()),
    "preserves": ("does the word map the scene domain into itself", ("word", "seed")),
    "validate-exponents": ("exact unimodularity check of an integer matrix", ("matrix",)),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="hologroup",
                     description="Automorphism words, winding indices, homotopy "
                                 "certification, and torus centralizers.")
    sub = parser.add_subparsers(dest="command", metavar="<command>",
                                parser_class=_Parser)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for flag in ("scene", *flags):
            spec = FLAGS[flag]
            if name == "compose" and flag == "word":
                spec = dict(spec, action="append",
                            help="word name; give this flag exactly twice")
            p.add_argument(f"--{flag}", **spec)
    return parser


def _named(section: dict, name: str, what: str):
    if name not in section:
        raise SceneError(f"scene has no {what} named {name!r}")
    return section[name]


def _dispatch(args):
    scene = serialize.load_scene(args.scene)
    cmd = args.command
    if cmd == "compose":
        if len(args.word) != 2:
            raise UsageError("compose needs exactly two --word flags")
        a, b = (_named(scene.words, name, "word") for name in args.word)
        return serialize.word_to_json(compose(a, b))
    # each object a subcommand names is looked up, in this order, before it runs
    if "word" in args:
        w = _named(scene.words, args.word, "word")
        space = scene.domain if scene.domain is not None else FullSpace(w.n)
    if "point" in args:
        p = _parse_point(args.point)
        # `eval_word` and `jacobian_det` return an overflow as inf or NaN, since
        # the preservation check evaluates pulled-back points that may overflow;
        # an answer to print is refused here, naming what overflowed and where
        at_p = lambda _: f"p {p}"
    if "path" in args:
        path = _named(scene.paths, args.path, "path")

    if cmd == "eval":
        return {"image": refuse_non_finite(eval_word(w, p)[None], "the image w(p)", at_p)[0]}
    if cmd == "invert":
        return serialize.word_to_json(invert_word(w))
    if cmd == "jacobian":
        return {"det": refuse_non_finite(np.array([jacobian_det(w, p)]),
                                         "the Jacobian determinant", at_p)[0]}
    if cmd in ("winding-index", "negative-component"):
        raw = _named(scene.contours, args.contour, "contour")
        contour = make_contour(scene.domain, raw.axis, raw.p, raw.R)
        if cmd == "negative-component":
            return {"in_negative_component": in_negative_component(w, contour)}
        res = winding_index(w, contour)
        return {"index": res.index, "raw": res.raw, "samples": res.samples_used}
    if cmd == "homotopy-certify":
        return certify_path(path, args.grid, args.radius, seed=args.seed)
    if cmd == "continuity":
        modulus = continuity_modulus(path, args.t, args.radius, seed=args.seed)
        return {"dt": args.t, "modulus": modulus}
    if cmd == "centralizer":
        return commutes_with_torus(w, space, args.seed)
    if cmd == "extract-diagonal":
        return {"lambda": extract_diagonal(w, space, args.seed)}
    if cmd == "classify":
        if scene.domain is None:
            raise SceneError("scene has no domain to classify")
        return classify_domain(scene.domain)
    if cmd == "preserves":
        return word_preserves_domain(w, space, args.seed)
    if cmd == "validate-exponents":
        matrix = _named(scene.exponent_matrices, args.matrix, "exponent matrix")
        return {"det": validate_exponent_matrix(matrix)}
    raise UsageError(f"unknown subcommand {cmd!r}")


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (try --help)")
        text = serialize.dumps(_dispatch(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (SceneError, DimensionMismatch) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except HoloError as exc:
        payload = {"error": type(exc).__name__}
        if isinstance(exc, NotUnimodular):
            payload["det"] = exc.det
        else:
            payload["message"] = str(exc)
        print(serialize.dumps(payload))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0
