"""Command-line front end: verify, expand, eval, convert, gen-cycle, keystream.

Exit codes: 0 the property holds (or the product was emitted), 1 the
property fails, 2 usage or data errors.  Reports are JSON on stdout;
keystream emits plain hex lines, one write per block of the orbit.  All
verdicts come straight from the library calls, the front end adds no logic
of its own: a file's (ring, basis) row is the coefficient type that
declares those tags, found in dynamics.FORMATS once the module its basis
tag names is imported, and the type's own tags name its evaluator and
synthesiser.  `expand` and `convert` read a table of either ring as its
bit map with a basis's one expansion, its F2T type's `expand` tag: van der
Put keeps the table's ring, Carlitz is F2T.  A basis tag is checked
against the known bases before any import, so a run imports only the
modules its command uses.  Every set is one coefficient record: one
`restrict` serves --prec, and each --check is one criterion read off the
set's own scan, so every row takes all three checks.  The record's one
reader owns the document rules (header, body shape, index keys and the
type's precision cap); the front end only reads the JSON text, refusing
repeated keys.  The library refuses a table past the budget (keystream and
convert from a sparse file, gen-cycle --n).  The front end is its tables:
each subparser carries its handler, `_CHECKS` names the criterion of each
--check and `_ORACLES` the table oracles of --exhaustive, in report order.
ValueError is the one error type, from a file reader, the library or the
front end's own usage checks alike: `run` reports it as exit 2 with one
`error:` line, and any other exception is a defect, not bad input.
"""

import argparse
import importlib
import itertools
import json
import os
import sys

from . import dynamics
from .gf2ps import check_residues, parse_hex, to_hex

__all__ = ["main", "run"]

_RING = {"f2t": "F2T", "z2": "Z2"}
_BASIS = {"vdp": "vanderput", "carlitz": "carlitz", "mahler": "mahler"}
_FLAG_OF = {v: f for f, v in [*_RING.items(), *_BASIS.items()]}
# the bases whose types have an `expand` kernel: the choices of expand and convert, in their usage order
_EXPANDABLE = ["vdp", "carlitz"]
# --check name -> criterion, which returns a bool or per-level verdicts
_CHECKS = {"lipschitz": dynamics.check_lipschitz, "mp": dynamics.check_mp, "ergodic": dynamics.check_ergodic}
# --exhaustive report key -> table oracle, in report order; the table holds iff every oracle holds at every level
_ORACLES = {"compatible": dynamics.is_compatible, "bijective": dynamics.is_bijective_mod,
            "transitive": dynamics.is_transitive_mod}
# keystream lines per write
_BLOCK = 4096


class _OneLineParser(argparse.ArgumentParser):
    """Flag errors become a single stderr line and exit code 2."""

    def error(self, message):
        print("error: %s" % message, file=sys.stderr)
        raise SystemExit(2)


def _build_parser():
    parser = _OneLineParser(prog="tadic", description="Ergodic function toolkit over F2[[T]] and Z2.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress stdout, keep only the exit code")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    v = sub.add_parser("verify", parents=[common], help="check a criterion on coefficients, or a table exhaustively")
    v.set_defaults(handler=_cmd_verify)
    v.add_argument("--ring", choices=sorted(_RING))
    v.add_argument("--basis", choices=sorted(_BASIS))
    v.add_argument("--check", choices=sorted(_CHECKS))
    v.add_argument("--coeffs", metavar="FILE")
    v.add_argument("--exhaustive", action="store_true", help="brute-force a table per level instead")
    v.add_argument("--table", metavar="FILE")

    e = sub.add_parser("expand", parents=[common], help="extract basis coefficients from a table")
    e.set_defaults(handler=_cmd_expand)
    e.add_argument("--basis", choices=_EXPANDABLE, required=True)
    e.add_argument("--table", metavar="FILE", required=True)

    ev = sub.add_parser("eval", parents=[common], help="evaluate a coefficient file at one point")
    ev.set_defaults(handler=_cmd_eval)
    ev.add_argument("--coeffs", metavar="FILE", required=True)
    ev.add_argument("--x", metavar="HEX", required=True)
    ev.add_argument("--prec", type=int, metavar="K")

    c = sub.add_parser("convert", parents=[common], help="convert coefficients between bases via the table")
    c.set_defaults(handler=_cmd_convert)
    c.add_argument("--from", dest="from_basis", choices=_EXPANDABLE, required=True)
    c.add_argument("--to", dest="to_basis", choices=_EXPANDABLE, required=True)
    c.add_argument("--coeffs", metavar="FILE", required=True)

    g = sub.add_parser("gen-cycle", parents=[common], help="generate a single-cycle table from steering bits")
    g.set_defaults(handler=_cmd_gen_cycle)
    g.add_argument("--n", type=int, metavar="N")
    g.add_argument("--seed", type=int, default=0, metavar="S")
    g.add_argument("--data", metavar="FILE")

    ks = sub.add_parser("keystream", parents=[common], help="emit orbit residues as hex lines")
    ks.set_defaults(handler=_cmd_keystream)
    ks.add_argument("--coeffs", metavar="FILE", required=True)
    ks.add_argument("--x0", metavar="HEX", required=True)
    ks.add_argument("--prec", type=int, metavar="K")
    ks.add_argument("--steps", type=int, metavar="N", required=True)
    ks.add_argument("--bit", type=int, metavar="I")
    return parser


def _unique_keys(pairs):
    """A JSON object's dict, refusing a repeated key (json.load would keep the last)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError("duplicate key %r" % key)
        obj[key] = value
    return obj


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc.strerror or exc))
    # ValueError: malformed JSON, a duplicate key, or text that is not UTF-8
    except ValueError as exc:
        raise ValueError("invalid JSON in %s: %s" % (path, exc))
    except RecursionError:
        raise ValueError("JSON nested too deeply in %s" % path)
    if not isinstance(obj, dict):
        raise ValueError("expected a JSON object in %s" % path)
    return obj


def _format(ring, basis):
    """The coefficient type of a (ring, basis) format, or None; a known basis's module is imported first."""
    # a tag is checked before it is imported or looked up: a list or an object is unhashable
    if isinstance(ring, str) and basis in _BASIS.values():
        importlib.import_module("." + basis, __package__)
        return dynamics.FORMATS.get((ring, basis))


def _load_table(path):
    obj = _read_json(path)
    ring = obj.get("ring")
    # a tag must be a string before it is looked up: a list or an object is unhashable
    table = dynamics.TABLES.get(ring) if isinstance(ring, str) else None
    if table is None:
        raise ValueError("unsupported ring %r in %s" % (ring, path))
    return table.from_json_dict(obj)


def _load_coeffs(path, prec=None):
    """The coefficient file as the set of its format's type, truncated to precision `prec` when given (--prec)."""
    obj = _read_json(path)
    kind = (obj.get("ring"), obj.get("basis"))
    if (cls := _format(*kind)) is None:
        raise ValueError("unsupported ring/basis %r in %s" % (kind, path))
    c = cls.from_json_dict(obj)
    return c if prec is None else dynamics.restrict(c, prec)


def _emit(args, report):
    if not args.quiet:
        print(json.dumps(report, indent=2))


def _cmd_verify(args):
    if args.exhaustive:
        if not args.table:
            raise ValueError("--exhaustive needs --table FILE")
        t = _load_table(args.table)
        results = {name: oracle(t) for name, oracle in _ORACLES.items()}
        verdict = all(r.overall is True for r in results.values())
        report = {"mode": "exhaustive", "ring": _FLAG_OF[t.ring], "precision": t.precision,
                  **{name: r.json_dict() for name, r in results.items()}, "verdict": verdict}
    else:
        if not (args.ring and args.basis and args.check and args.coeffs):
            raise ValueError("verify needs --ring, --basis, --check and --coeffs (or --exhaustive --table)")
        c = _load_coeffs(args.coeffs)
        kind = (c.ring, c.basis)
        want = (_RING[args.ring], _BASIS[args.basis])
        if kind != want:
            raise ValueError("coefficient file is %s/%s but flags say %s/%s" % (kind + want))
        result = _CHECKS[args.check](c)
        # a per-level criterion holds unless some level is False (check_mp decides them all)
        per_level = isinstance(result, dynamics.LevelVerdicts)
        verdict = result.overall is not False if per_level else result
        report = {"ring": args.ring, "basis": args.basis, "check": args.check, "precision": c.precision,
                  "verdict": verdict, **({"levels": result.json_dict()} if per_level else {})}
    _emit(args, {"command": "verify", **report})
    return 0 if verdict else 1


def _cmd_expand(args):
    t = _load_table(args.table)
    _emit(args, _format("F2T", _BASIS[args.basis]).expand(t).json_dict())
    return 0


def _cmd_eval(args):
    c = _load_coeffs(args.coeffs, args.prec)
    x = parse_hex(args.x)
    value = type(c).evaluate(c, x)
    _emit(args, {
        "command": "eval",
        "ring": _FLAG_OF[c.ring],
        "basis": _FLAG_OF[c.basis],
        "precision": c.precision,
        "x": to_hex(x),
        "value": to_hex(value),
    })
    return 0


def _cmd_convert(args):
    if args.from_basis == args.to_basis:
        raise ValueError("--from and --to must differ")
    c = _load_coeffs(args.coeffs)
    if c.basis != _BASIS[args.from_basis]:
        raise ValueError("coefficient file is %s/%s but --from says %s" % (c.ring, c.basis, args.from_basis))
    out = _format("F2T", _BASIS[args.to_basis]).expand(type(c).synthesize(c))
    _emit(args, out.json_dict())
    return 0


def _cmd_gen_cycle(args):
    from . import cyclegen

    if args.data:
        d = cyclegen.CycleData.from_json_dict(_read_json(args.data))
        if args.n is not None and args.n != d.n:
            raise ValueError("--n %d disagrees with the data file depth %d" % (args.n, d.n))
    elif args.n is None:
        raise ValueError("gen-cycle needs --n N or --data FILE")
    else:
        d = cyclegen.random_data(args.seed, args.n)
    seq, t = cyclegen.gen_cycle(d)
    # the generator and its checks run either way; --quiet skips only the report
    if not args.quiet:
        _emit(args, {**t.json_dict(), "sequence": [to_hex(x) for x in seq], "data": d.json_dict()})
    return 0


def _cmd_keystream(args):
    c = _load_coeffs(args.coeffs, args.prec)
    k = c.precision
    x0 = parse_hex(args.x0)
    check_residues(k, (x0,), "--x0")
    if args.steps < 1:
        raise ValueError("--steps must be positive")
    if args.bit is not None and not 0 <= args.bit < k:
        raise ValueError("--bit must be between 0 and %d" % (k - 1))
    line = to_hex if args.bit is None else lambda x: "%d" % ((x >> args.bit) & 1)
    orbit = itertools.islice(dynamics.trajectory(type(c).synthesize(c), x0), args.steps)
    # one write per block of the orbit: memory is bounded by the block, whatever --steps is
    for block in iter(lambda: list(itertools.islice(orbit, _BLOCK)), []):
        if not args.quiet:
            sys.stdout.write("\n".join(map(line, block)) + "\n")
    return 0


def run(argv=None):
    """Parse argv and execute; returns the exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early: send what is still buffered to devnull, so the final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the output was written", file=sys.stderr)
        return 2


def main():
    sys.exit(run())
