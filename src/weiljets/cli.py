"""Command-line front end.

``weiljets run session.json`` executes a session file; the ``algebra``,
``jet`` and ``apoint`` subcommands are one-shot shortcuts that build the
equivalent single-binding session.  Exit codes: 0 success, 1 command error
(or a report too large to render, with nothing written to stdout), 2
parse/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import SessionError, WeilJetsError
from .session import Session, execute, parse_session, render


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weiljets",
        description="exact computations with truncated local algebras and jets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a JSON session file")
    run.add_argument("session", help="path to the session file")
    run.add_argument(
        "--format",
        choices=("json", "text"),
        default=None,
        help="output format; defaults to the session's own selector",
    )
    run.add_argument("--fail-fast", action="store_true")
    run.add_argument(
        "--verify-oracles",
        action="store_true",
        help="cross-check derived jets against the field-generation oracle",
    )

    algebra = sub.add_parser("algebra", help="inspect a quotient algebra")
    algebra.add_argument("--vars", type=int, required=True)
    algebra.add_argument("--relations", nargs="*", default=[])
    algebra.add_argument("--bound", type=int, default=None)
    algebra.add_argument("--describe", action="store_true")
    algebra.add_argument("--format", choices=("json", "text"), default="json")

    jet = sub.add_parser("jet", help="inspect a jet and its contact data")
    jet.add_argument("--vars", type=int, required=True)
    jet.add_argument("--generators", nargs="*", default=[])
    jet.add_argument("--order-hint", type=int, required=True)
    jet.add_argument("--point", nargs="*", default=None)
    jet.add_argument(
        "--op",
        choices=(
            "info",
            "hat",
            "cotangent",
            "tangent",
            "fields",
            "normal_form",
            "derive",
            "contact",
            "taylor",
        ),
        default="info",
    )
    jet.add_argument("--format", choices=("json", "text"), default="json")

    apoint = sub.add_parser("apoint", help="evaluate at an algebra point")
    apoint.add_argument("--algebra-vars", type=int, required=True)
    apoint.add_argument("--relations", nargs="*", default=[])
    apoint.add_argument("--bound", type=int, default=None)
    apoint.add_argument(
        "--images",
        nargs="+",
        required=True,
        help="one comma-separated coordinate list per ambient variable",
    )
    apoint.add_argument("--poly", default=None, help="polynomial to evaluate")
    apoint.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _session_from_args(args: argparse.Namespace) -> Session:
    if args.command == "algebra":
        bind = {"algebra": "A", "vars": args.vars, "relations": args.relations}
        if args.bound is not None:
            bind["bound"] = args.bound
        op = "describe" if args.describe else "info"
        doc = {"bind": [bind], "run": [{"op": op, "of": "A"}]}
    elif args.command == "jet":
        bind = {
            "jet": "p",
            "vars": args.vars,
            "generators": args.generators,
            "order_hint": args.order_hint,
        }
        if args.point is not None:
            bind["point"] = args.point
        doc = {"bind": [bind], "run": [{"op": args.op, "of": "p"}]}
    else:
        bind_a = {
            "algebra": "A",
            "vars": args.algebra_vars,
            "relations": args.relations,
        }
        if args.bound is not None:
            bind_a["bound"] = args.bound
        images = [img.split(",") for img in args.images]
        bind_p = {"apoint": "P", "algebra": "A", "images": images}
        commands = [{"op": "kernel", "of": "P"}]
        if args.poly is not None:
            commands.insert(0, {"op": "evaluate", "of": "P", "poly": args.poly})
        doc = {"bind": [bind_a, bind_p], "run": commands}
    return parse_session(json.dumps(doc))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            with open(args.session, "r", encoding="utf-8") as handle:
                session = parse_session(handle.read())
            report = execute(
                session,
                fail_fast=args.fail_fast,
                verify_oracles=args.verify_oracles,
            )
            fmt = args.format or session.format
        else:
            session = _session_from_args(args)
            report = execute(session)
            fmt = args.format
    except SessionError as exc:
        print(f"session error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read session: {exc}", file=sys.stderr)
        return 2
    except WeilJetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        text = render(report, fmt)
    except MemoryError:
        text = None  # reported below, once the handler has dropped render's frames
    if text is None:
        print("error: out of memory while rendering the report", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
