"""Command-line front end: invariant, quotient and Apery queries, identity
verification sweeps, and quasipolynomial fitting.

Exit codes follow one contract everywhere: 0 means every check passed,
1 means at least one identity mismatch (the offending records are in the
output), 2 means a usage or precondition problem.  ``--format json``
emits one object per line; parsing a line and re-serializing it with
sorted keys reproduces the bytes exactly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections import Counter
from typing import Iterator

from .core import (
    PreconditionError,
    ResourceLimitError,
    TheoremViolationError,
    apery_set,
    from_generators,
    invariants_from_apery,
    is_d_symmetric,
)
from .quotient import quotient
from .roots import DEFAULT_TOLERANCE, fit_quasipolynomial
from .verify import (
    IDENTITIES,
    MATCH,
    MISMATCH,
    SKIPPED,
    SweepConfig,
    THEOREM_IDS,
    _frac,
    sweep,
)

RECORD_COLUMNS = ("theorem", "params", "formula", "oracle", "status", "residual")


def _gens_type(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )


def _range_type(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected a range like 3..41, got {text!r}"
        )
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range endpoints must be integers: {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default="table",
        help="output format (default: table)",
    )
    common.add_argument("--seed", type=int, default=0, help="PRNG seed for sweeps")
    common.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="override the floating-point tolerance where one applies",
    )
    common.add_argument(
        "--parallel",
        type=_positive_int,
        default=1,
        help="worker processes for sweeps, at most one per CPU (default: 1)",
    )
    common.add_argument(
        "--out", default=None, metavar="PATH", help="write records to a file"
    )

    parser = argparse.ArgumentParser(
        prog="numsgps",
        description="Numerical semigroup invariants, quotients, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "invariants", parents=[common], help="invariants of a numerical semigroup"
    )
    p.add_argument("--gens", type=_gens_type, required=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser(
        "quotient",
        parents=[common],
        help="quotient S/d with every applicable closed form checked",
    )
    p.add_argument("--gens", type=_gens_type, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser(
        "apery", parents=[common], help="Apery set of S at a member n"
    )
    p.add_argument("--gens", type=_gens_type, required=True)
    p.add_argument(
        "--n", type=_positive_int, default=None, help="member to reduce by (default: multiplicity)"
    )
    p.set_defaults(func=cmd_apery)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="sweep one identity over a grid against brute force",
    )
    p.add_argument("theorem", choices=THEOREM_IDS)
    p.add_argument("--cases", type=_positive_int, default=None)
    p.add_argument("--max-gen", type=_positive_int, default=None)
    p.add_argument("--max", dest="max_value", type=_positive_int, default=None)
    p.add_argument("--d-max", type=_positive_int, default=None)
    p.add_argument("--a-max", type=_positive_int, default=None)
    p.add_argument("--k-max", type=_positive_int, default=None)
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--k-list", type=_gens_type, default=None)
    p.add_argument(
        "--inject-offby1",
        action="store_true",
        default=False,
        help=argparse.SUPPRESS,
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "fit",
        parents=[common],
        help="fit the per-residue-class quadratic for g(<a, a+k>/d)",
    )
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--a", type=_range_type, required=True, metavar="MIN..MAX")
    p.set_defaults(func=cmd_fit)

    return parser


# one encoder for every record, as json.dumps(obj, sort_keys=True) would build
_dump = json.JSONEncoder(sort_keys=True).encode


def _cell(value) -> str:
    if isinstance(value, (dict, list, tuple)):
        text = _dump(value)
    elif value is None:
        text = ""
    else:
        text = str(value)
    if "," in text or '"' in text:
        text = '"' + text.replace('"', '""') + '"'
    return text


def _flat(value) -> str:
    """Compact single-line rendering for table cells."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, dict):
        return " ".join(f"{k}={_flat(v)}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return ",".join(_flat(v) for v in value)
    return str(value)


def _json_records(records: list[dict]) -> str:
    return "".join([_dump(record) + "\n" for record in records])


def _csv_records(records: list[dict]) -> str:
    return "".join(
        [",".join([_cell(record[column]) for column in RECORD_COLUMNS]) + "\n" for record in records]
    )


def _table_records(records: list[dict]) -> str:
    return "".join(
        [
            f"{record['theorem']}  {_flat(record['params'])}  "
            f"formula={_flat(record['formula'])}  oracle={_flat(record['oracle'])}  "
            f"{record['status']}\n"
            for record in records
        ]
    )


# per format: the text before a sweep's records, and the renderer of a run
# of them; module-level functions, so that a pool worker can render its own
_RECORD_FORMS = {
    "json": ("", _json_records),
    "csv": (",".join(RECORD_COLUMNS) + "\n", _csv_records),
    "table": ("", _table_records),
}

# gap-mask positions, or values of a list of ints, rendered per write of a
# report entry; for a mask, a whole number of the 1,000-position chunks that
# share the text of position // 1000
GAP_BLOCK = 8000

# per format: a report's opening, the text between two fields, a field's
# key, the renderer of its value and the report's close
_REPORT_FORMS = {
    "json": ("{", ", ", lambda key: _dump(key) + ": ", _dump, "}\n"),
    "table": ("", "\n", "{}: ".format, _flat, "\n"),
    "csv": ("key,value\n", "\n", "{},".format, _cell, "\n"),
}


def _silence(stream) -> None:
    """Point a stream whose reader has gone at the null device, so that
    what it still buffers, later writes and the interpreter's flush at
    exit all succeed.  A stream with no descriptor is left as it is: each
    write to it fails the same way and is dropped."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


class _Output:
    """Routes rendered text to stdout or --out, keeping headers visible.

    The seed header goes to stdout for tables but to stderr for json/csv
    so that machine-readable streams stay pure.  ``main`` opens it before
    a command does any work, so a bad --out path fails at once.  Text is
    written as it is produced: a sweep's records one write per run of
    cases, rendered where the run was checked, so a sweep that fails
    part-way leaves the records it finished.  A report is written field
    by field in sorted-key order, each value by the renderer of its
    format.  A ``bytes`` value, which is always a gap mask, goes out as the
    list of its set positions, one block of ``GAP_BLOCK`` positions per
    write (see ``_gap_blocks``), and a list of ints, such as an Apery
    table, one block of ``GAP_BLOCK`` values per write: no list of the
    gaps and no whole report or list text is ever built.  A stream whose reader has gone away
    (``numsgps ... | head``) is not an error: output to it stops quietly
    and the command's exit code stands.
    """

    def __init__(self, args):
        self.format = args.format
        self.seed = args.seed
        self.path = args.out
        self.handle = open(self.path, "w") if self.path else sys.stdout
        # where the seed header and the sweep summary go
        self.notes = self.handle if self.format == "table" and self.path is None else sys.stderr

    def _write(self, text: str, stream) -> None:
        try:
            stream.write(text)
        except BrokenPipeError:
            _silence(stream)

    def write(self, text: str) -> None:
        self._write(text, self.handle)

    def note(self, text: str) -> None:
        self._write(text + "\n", self.notes)

    def header(self) -> None:
        self.note(f"# seed {self.seed}")

    def close(self) -> None:
        if self.path:
            self.handle.close()
            return
        try:
            self.handle.flush()
        except BrokenPipeError:
            _silence(self.handle)

    def report(self, report: dict) -> None:
        self.header()
        text, between, head, render, end = _REPORT_FORMS[self.format]
        # a list's opening, separator and close, as the renderer writes [0, 0]
        first, sep, last = render([0, 0]).split("0")
        for n, key in enumerate(sorted(report)):
            text += (between if n else "") + head(key)
            value = report[key]
            if isinstance(value, bytes) and value.count(1) > 1:
                blocks = _gap_blocks(value, sep)
            elif isinstance(value, (list, tuple)) and len(value) > 1 and set(map(type, value)) == {int}:
                blocks = (
                    sep.join(map(str, value[at : at + GAP_BLOCK]))
                    for at in range(0, len(value), GAP_BLOCK)
                )
            else:
                if isinstance(value, bytes):  # no separator, so csv does not quote the list
                    value = list(itertools.compress(itertools.count(), value))
                text += render(value)
                continue
            # each block goes out with the text before it, the last with what follows
            text += first
            for i, block in enumerate(blocks):
                if i:
                    self._write(text, self.handle)
                    text = sep
                text += block
            text += last
        self._write(text + end, self.handle)


def _gap_blocks(value: bytes, sep: str) -> Iterator[str]:
    """The set positions of a gap mask ``value`` as text joined by ``sep``,
    one block per ``GAP_BLOCK`` positions that holds a gap, each 1,000
    positions joined from a table of the text of 0..999."""
    # the text of i < 1000, alone and zero-padded after a lead of 1000x + i
    plain = [str(i) for i in range(1000)]
    padded = [f"{i:03d}" for i in range(1000)]
    for lo in range(0, len(value), GAP_BLOCK):
        block = value[lo : lo + GAP_BLOCK]
        chunks = []
        for at in range(0, len(block), 1000):
            chunk = block[at : at + 1000]
            if 1 in chunk:
                lead = str((lo + at) // 1000) if lo + at else ""
                table = padded if lead else plain
                chunks.append(lead + (sep + lead).join(itertools.compress(table, chunk)))
        if chunks:
            yield sep.join(chunks)


def cmd_invariants(args, out: _Output) -> int:
    S = from_generators(args.gens)
    report = {
        "generators": list(S.minimal_generators),
        "multiplicity": S.multiplicity,
        "embedding_dimension": S.embedding_dimension,
        "frobenius": S.frobenius,
        "genus": S.genus,
        "conductor": S.conductor,
        "gaps": S._gap_mask,
        "apery_at_multiplicity": list(S.apery),
        "symmetric": is_d_symmetric(S, 1),
        "d_symmetric": {str(d): is_d_symmetric(S, d) for d in range(2, 11)},
    }
    out.report(report)
    return 0


def cmd_quotient(args, out: _Output) -> int:
    """Report S/d with every closed form that applies next to its brute-force
    side; the gaps go out as the quotient's gap mask, which the report
    writer turns into their list.  Exit 1 after the whole report if any
    formula disagrees."""
    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    if not tolerance > 0:  # also refuses nan, as verify does
        raise PreconditionError(f"tolerance must be > 0, got {tolerance}")
    S = from_generators(args.gens)
    d = args.d
    Q = quotient(S, d)
    formulas: dict[str, dict] = {}
    for identity in IDENTITIES.values():
        case = identity.case_of(S, d)
        if case is not None:
            formulas.update(identity.entries(case, S, Q, tolerance))
    report = {
        "base_generators": list(S.minimal_generators),
        "d": d,
        "generators": list(Q.minimal_generators),
        "frobenius": Q.frobenius,
        "genus": Q.genus,
        "gaps": Q._gap_mask,
        "formulas": formulas,
    }
    out.report(report)
    mismatched = [name for name, entry in formulas.items() if not entry["match"]]
    if mismatched:
        print(f"formula mismatch: {', '.join(sorted(mismatched))}", file=sys.stderr)
        return 1
    return 0


def cmd_apery(args, out: _Output) -> int:
    S = from_generators(args.gens)
    n = args.n if args.n is not None else S.multiplicity
    ap = apery_set(S, n)
    frobenius, genus = invariants_from_apery(ap)
    report = {
        "generators": list(S.minimal_generators),
        "n": n,
        "apery": list(ap),
        "frobenius": frobenius,
        "genus": genus,
    }
    out.report(report)
    return 0


def cmd_verify(args, out: _Output) -> int:
    # every field of the config has an option of the same name
    config = SweepConfig(**{name: getattr(args, name) for name in SweepConfig._fields})
    head, render = _RECORD_FORMS[args.format]
    blocks = sweep(config, render)  # a refused grid raises here, before any output
    out.header()
    out.write(head)
    counts = Counter()
    for statuses, text, fault in blocks:
        for status in statuses:
            counts[status] += 1
        out.write(text)
        if fault is not None:
            raise fault
    out.note(
        f"{args.theorem}: {counts[MATCH]} match, {counts[MISMATCH]} mismatch, "
        f"{counts[SKIPPED]} skipped"
    )
    return 1 if counts[MISMATCH] else 0


def cmd_fit(args, out: _Output) -> int:
    from fractions import Fraction  # here, so that only the fits load fractions and decimal

    fit = fit_quasipolynomial(args.k, args.d, args.a)
    classes = {}
    for residue in sorted(fit.per_class):
        c2, c1, c0 = fit.per_class[residue]
        classes[str(residue)] = {
            "c2": _frac(c2),
            "c1": _frac(c1),
            "c0": _frac(c0),
        }
    constants = {
        f"{ra},{rb}": _frac(value)
        for (ra, rb), value in sorted(fit.cabd_constant.items())
    }
    report = {
        "k": args.k,
        "d": args.d,
        "a_min": args.a[0],
        "a_max": args.a[1],
        "classes": classes,
        "genus_minus_sylvester_constants": constants,
        "leading_coefficient": _frac(Fraction(1, 2 * args.d)),
    }
    out.report(report)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        out = _Output(args)
        try:
            return args.func(args, out)
        finally:
            out.close()
    except TheoremViolationError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
