"""Command-line front end.

Exit codes: 0 when a value was computed or a certificate issued, 1 when a
search was inconclusive or a coset bound was exceeded, 2 on usage, parse,
or resource errors.  Output is deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import certificates as certs
from .abelian import abelian_invariants
from .cosets import DEFAULT_MAX_COSETS, Exhausted, todd_coxeter
from .lowindex import low_index_normal, low_index_subgroups, subgroup_record
from .presentations import (
    ParseError,
    Presentation,
    deficiency_count,
    p_deficiency,
    parse_presentation,
    parse_word,
    print_presentation,
    print_word,
    tietze_simplify,
)
from .rewriting import reidemeister_schreier


class CliError(Exception):
    pass


def _read_presentation(path: str) -> Presentation:
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            raise CliError(str(e)) from e
    return parse_presentation(text)


def _subgroup_words(P: Presentation, arg: str | None):
    if not arg:
        return []
    return [parse_word(part, P.generator_names) for part in arg.split(";") if part.strip()]


def _emit_certificate(cert: certs.Certificate, as_json: bool) -> int:
    if as_json:
        sys.stdout.write(certs.to_json(cert))
    else:
        print(f"kind: {cert.kind}")
        for key in sorted(cert.parameters):
            print(f"  {key}: {cert.parameters[key]}")
        for key in sorted(cert.witness):
            value = cert.witness[key]
            if key == "table":
                print("  table:")
                for row in value:
                    print("    " + " ".join(str(x) for x in row))
            else:
                print(f"  {key}: {value}")
        for con in cert.conclusions:
            print(f"  conclusion: {con.claim}  [{con.by}]")
        print(f"  verified: {str(cert.verified).lower()}")
    return 0 if cert.kind != certs.INCONCLUSIVE else 1


def _cmd_def(args) -> int:
    P = _read_presentation(args.presentation)
    report = p_deficiency(P, args.p)
    print(f"def_{args.p} = {report.value}")
    for idx, nu, contrib in report.per_relator:
        word = print_word(P.relators[idx], P.generator_names)
        nu_text = "inf" if nu == float("inf") else str(nu)
        print(f"  relator {idx + 1}: {word}  nu_{args.p} = {nu_text}  contributes {contrib}")
    return 0


def _cmd_deficiency(args) -> int:
    P = _read_presentation(args.presentation)
    print(f"deficiency = {deficiency_count(P)}")
    return 0


def _cmd_lowindex(args) -> int:
    P = _read_presentation(args.presentation)
    records = (low_index_normal if args.normal else low_index_subgroups)(P, args.max_index)
    if args.json:
        payload = [
            {
                "index": rec.index,
                "normal": rec.normal,
                "table": [list(row) for row in rec.table.rows],
            }
            for rec in records
        ]
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"{len(records)} records")
        for i, rec in enumerate(records, start=1):
            tag = "normal" if rec.normal else "not normal"
            print(f"  {i}: index {rec.index} ({tag})")
    return 0


def _cmd_cosets(args) -> int:
    # args.emit(P, table, args) prints what the subcommand makes of the
    # complete table and gives the exit code; it is set as a parser default
    P = _read_presentation(args.presentation)
    T = todd_coxeter(P, _subgroup_words(P, args.subgroup_gens), args.max_cosets)
    if not isinstance(T, Exhausted):
        return args.emit(P, T, args)
    if args.json:
        report = {"kind": "Exhausted", "max_cosets": T.max_cosets, "reason": "coset bound exceeded"}
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"coset bound exceeded: more than {T.max_cosets} cosets required or collapse not found")
    return 1


def _write(text: str) -> int:
    sys.stdout.write(text)
    return 0


def _cmd_abelianize(args) -> int:
    P = _read_presentation(args.presentation)
    print(str(abelian_invariants(P)))
    return 0


def _cmd_simplify(args) -> int:
    P = _read_presentation(args.presentation)
    sys.stdout.write(print_presentation(tietze_simplify(P)))
    return 0


def _cmd_certify(args) -> int:
    # args.issue is the target's certifying call, set as a parser default
    return _emit_certificate(args.issue(_read_presentation(args.presentation), args), args.json)


def _cmd_certify_power_quotient(args) -> int:
    return _emit_certificate(certs.power_quotient_largeness(args.rank, args.count, args.exponent), args.json)


def _cmd_verify(args) -> int:
    try:
        with open(args.certificate, "r", encoding="utf-8") as f:
            cert = certs.from_json(f.read())
    except OSError as e:
        raise CliError(str(e)) from e
    ok = certs.verify(cert)
    print("verified: " + ("true" if ok else "false"))
    return 0 if ok else 1


# every option a subcommand can take, declared once: flag -> add_argument keywords
_OPTIONS = {
    "-p": {"type": int, "required": True, "help": "prime for p-deficiency"},
    "--normal": {"action": "store_true"},
    "--max-index": {"type": int, "default": 3},
    "--max-cosets": {"type": int, "default": DEFAULT_MAX_COSETS},
    "--kill-budget": {"type": int, "default": 3},
    "--json": {"action": "store_true"},
    "--subgroup-gens": {"help": "semicolon-separated words"},
}
_COSET_OPTIONS = ("--subgroup-gens", "--max-cosets", "--json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pdef", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, fn, *flags, **kw):
        """A subcommand taking exactly the options flags, then a presentation."""
        sp = subparsers.add_parser(name, **kw)
        for flag in flags:
            sp.add_argument(flag, **_OPTIONS[flag])
        sp.add_argument("presentation", help="presentation file, or - for stdin")
        sp.set_defaults(fn=fn)
        return sp

    add(sub, "def", _cmd_def, "-p", help="p-deficiency report")
    add(sub, "deficiency", _cmd_deficiency, help="generators minus relators")
    add(sub, "lowindex", _cmd_lowindex, "--normal", "--max-index", "--json", help="subgroups of index <= N")
    add(sub, "rewrite", _cmd_cosets, *_COSET_OPTIONS, help="subgroup presentation via rewriting").set_defaults(
        emit=lambda P, T, a: _write(print_presentation(reidemeister_schreier(P, T)))
    )
    add(sub, "abelianize", _cmd_abelianize, help="abelian invariants")
    add(sub, "simplify", _cmd_simplify, help="Tietze-simplify a presentation")
    add(sub, "dump-table", _cmd_cosets, *_COSET_OPTIONS, help="coset table for a subgroup").set_defaults(
        emit=lambda P, T, a: _write(T.dump())
    )

    what = sub.add_parser("certify", help="issue a certificate").add_subparsers(dest="what", required=True)
    add(what, "p-large-def", _cmd_certify, "-p", "--json").set_defaults(
        issue=lambda P, a: certs.certify_p_large_by_deficiency(P, a.p)
    )
    add(what, "p-large", _cmd_certify, "-p", "--max-index", "--kill-budget", "--json").set_defaults(
        issue=lambda P, a: certs.certify_p_large_witness(P, a.p, a.max_index, a.kill_budget)
    )
    add(what, "z-surjection", _cmd_certify, "--max-index", "--json").set_defaults(
        issue=lambda P, a: certs.find_z_surjection(P, a.max_index)
    )
    add(what, "free-quotient", _cmd_certify, "--kill-budget", "--json").set_defaults(
        issue=lambda P, a: certs.certify_free_quotient(P, a.kill_budget)
    )
    add(what, "allcock", _cmd_cosets, *_COSET_OPTIONS).set_defaults(
        emit=lambda P, T, a: _emit_certificate(certs.allcock_rank_bound(P, subgroup_record(T)), a.json)
    )
    wp = what.add_parser("power-quotient")
    wp.add_argument("rank", type=int)
    wp.add_argument("count", type=int)
    wp.add_argument("exponent", type=int)
    wp.add_argument("--json", **_OPTIONS["--json"])
    wp.set_defaults(fn=_cmd_certify_power_quotient)

    sp = sub.add_parser("verify", help="re-check a JSON certificate")
    sp.add_argument("certificate")
    sp.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (CliError, ParseError, ValueError, certs.MalformedCertificate) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as e:
        print(f"error: resource limit reached ({type(e).__name__})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
