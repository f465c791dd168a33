"""Command-line front end.

Subcommands: generate | analyze | member | expansion | cantor-fn |
counterexample | render. Machine output (JSON/CSV/SVG) goes to stdout,
diagnostics to stderr. Exit codes: 1 cantor-fn point not in the set, 2 invalid
family, malformed rational, out-of-range argument or a result with too many
digits to print, 3 depth, stage size, period or walk bits over its cap, 4 --limit
requested where no digit characterization exists, 141 stdout closed by its
reader before the output ended (as a shell reports a SIGPIPE death; nothing
goes to stderr).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from fractions import Fraction

from . import analysis, counterexample, render
from .exact import _digit_limit, _echo, _over_limit, _read_int, format_rational, parse_rational, rational_decimal
from .families import (
    _FAMILY_FIELDS,
    DepthCapError,
    FamilySpec,
    Power,
    _length_bits,
    _live_steps,
    digit_form,
    family_from_json,
    family_to_json,
    level_stats,
    limit_measure,
    measure_at_depth,
    member_at_depth,
    moran_row,
)

EXIT_BAD_FAMILY = 2
EXIT_DEPTH_CAP = 3
EXIT_NO_DIGIT_FORM = 4
EXIT_BROKEN_PIPE = 141


def _fail(code: int, message: str) -> None:  # never returns
    print(message, file=sys.stderr)
    raise SystemExit(code)


def _too_large(what: str) -> None:  # never returns
    _fail(EXIT_BAD_FAMILY, f"result too large to print: {what} over {_digit_limit()} digits "
                           f"(sys.get_int_max_str_digits())")


def _int(text: str) -> int:
    # exact._read_int, its refusal in argparse's message.
    try:
        return _read_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _choice(text: str) -> str:
    # No choice is 40 characters long: a longer value fails as its first 40 do.
    return text[:40]


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", type=_choice, choices=list(_FAMILY_FIELDS))
    p.add_argument("--alpha", help="middle proportion for --family proportional, as p/q")
    p.add_argument("--n", type=_int, help="base for --family power or digit")
    p.add_argument("--digits", help="kept digits for --family digit, e.g. 0,2,4")
    p.add_argument("--lambda", dest="lambda", metavar="LAM",
                   help="removal scale for --family lambda, as p/q")
    p.add_argument("--family-json", help="full family spec as JSON (overrides shorthand flags)")


def _unique_keys(pairs: list) -> dict:
    # json.loads keeps the last value of a repeated key; a family document is
    # refused instead, at any depth.
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"family JSON repeats the key {_echo(key)}")
        seen.add(key)
    return dict(pairs)


def _build_family(args: argparse.Namespace, default: FamilySpec | None = None) -> FamilySpec:
    """The family of --family-json, else of --family and its field flags, else default if no flag is given."""
    try:
        if args.family_json:
            import json

            try:
                return family_from_json(json.loads(args.family_json, object_pairs_hook=_unique_keys,
                                                   parse_int=_read_int))
            except (json.JSONDecodeError, RecursionError):  # not JSON, or nested past what can be read
                _fail(EXIT_BAD_FAMILY, f"invalid family: malformed family JSON {_echo(args.family_json)}")
        flags = {name: getattr(args, name) for _, _, fields in _FAMILY_FIELDS.values() for name, *_ in fields}
        given = [name for name, text in flags.items() if text is not None]
        if args.family is None:
            if default is not None and not given:
                return default
            raise ValueError("no family given (use --family or --family-json)")
        cls, _, fields = _FAMILY_FIELDS[args.family]
        names = [name for name, *_ in fields]
        if not set(names) <= set(given):
            raise ValueError(f"--family {args.family} requires {' and '.join(f'--{name}' for name in names)}")
        if extra := [name for name in given if name not in names]:
            raise ValueError(f"family flags have a flag --{extra[0]} that family {args.family!r} does not read")
        return cls(*(read(flags[name]) for name, *_, read in fields))
    except ValueError as exc:
        _fail(EXIT_BAD_FAMILY, f"invalid family: {exc}")


def _require_at_least(flag: str, value: int, low: int) -> None:
    if value < low:
        _fail(EXIT_BAD_FAMILY, f"{flag} must be >= {low}, got {_echo(value)}")


def _parse_x(text: str) -> Fraction:
    try:
        x = parse_rational(text)
    except ValueError as exc:
        _fail(EXIT_BAD_FAMILY, str(exc))
    if not 0 <= x <= 1:
        _fail(EXIT_BAD_FAMILY, f"x must lie in [0,1], got {_echo(text, str)}")
    return x


def _cmd_generate(args: argparse.Namespace) -> None:
    family = _build_family(args)
    _require_at_least("--depth", args.depth, 0)
    if args.format == "svg":  # render, too: the diagram runs its own stage pass
        _require_at_least("--width", args.width, 1)
        _require_at_least("--row-height", args.row_height, 1)
        try:
            float(args.width)  # as render_svg refuses it, but with the flag's name
        except OverflowError:
            _fail(EXIT_BAD_FAMILY, f"--width is too large for a float, got {_echo(args.width)}")
        render.render_svg(family, args.depth, args.width, args.row_height, sys.stdout.write)
        return
    for piece in render.stage_rows(family, args.depth, args.format, args.decimal):
        sys.stdout.write(piece)
        del piece  # the piece goes before the next one is made


def _cmd_analyze(args: argparse.Namespace) -> None:
    import json

    family = _build_family(args)
    _require_at_least("--depth", args.depth, 0)
    _require_at_least("--kmax", args.kmax, 1)
    row = moran_row(family)
    limit, stage = _digit_limit(), f"the stage-{_echo(args.depth, str)}"
    # The stage length's denominator and the count m^j, j = _live_steps, are each at least 2^bits
    # for the bits below (_length_bits), and past 2^(3.33 limit) > 10^limit cannot be printed.
    for what, bits in (("length", _length_bits(row, args.depth)),
                       ("count", _live_steps(row, args.depth) * (row.m.bit_length() - 1))):
        if limit and bits > 3.33 * limit:
            _too_large(f"{stage} {what} has")
    # What passes is cheap to build and is held to 10^limit exactly. The length's denominator
    # is the largest integer printed: m^j L_j, the measure, is at most 1, so it is at least m^j.
    stats = level_stats(family, args.depth)
    if limit and stats.length.denominator >= 10**limit:
        _too_large(f"{stage} length has")
    measure, limit_value = measure_at_depth(family, args.depth), limit_measure(family)
    report = {
        "family": family_to_json(family),
        "depth": args.depth,
        "measure_at_depth": format_rational(measure),
        "limit_measure": format_rational(limit_value),
        "level_stats": {
            "count": stats.count,
            "min_length": format_rational(stats.length),
            "max_length": format_rational(stats.length),
        },
    }
    try:
        report["similarity_dimension"] = analysis.similarity_dimension(family).to_json()
        report["dimension_estimates"] = analysis.dimension_estimates(family, args.kmax).to_json()
    except DepthCapError:
        raise  # exit 3 in main, not a dimension note
    except ValueError as exc:
        report["dimension_note"] = str(exc)  # power n=2 has no dimension report
    if args.decimal:
        report["measure_at_depth_decimal"] = rational_decimal(measure)
        report["limit_measure_decimal"] = rational_decimal(limit_value)
    print(json.dumps(report))


def _cmd_member(args: argparse.Namespace) -> None:
    family = _build_family(args)
    x = _parse_x(args.x)
    if args.limit:
        if digit_form(family) is None:
            _fail(EXIT_NO_DIGIT_FORM, "no digit characterization exists for this family")
        witness = analysis.membership_witness(x, family)
        print("false" if witness is None else f"true\nwitness: {_expansion_json(witness)}")
    else:
        if args.depth is None:
            _fail(EXIT_BAD_FAMILY, "member requires --depth or --limit")
        _require_at_least("--depth", args.depth, 0)
        print("true" if member_at_depth(x, family, args.depth) else "false")


_DIGIT_BYTES = bytes.maketrans(bytes(range(10)), b"0123456789")


def _expansion_json(record: analysis.ExpansionRecord, alternate: analysis.ExpansionRecord | None = None) -> str:
    """The text of json.dumps(record.to_json()), with "alternate_tail":
    alternate.to_json() added when given. Digits of a base up to 10 are laid
    out in one bytearray, each digit's character every third byte with ", "
    between; those of a larger base are joined from a table of the base's
    digit strings, built when it is no longer than the digits."""
    base = record.base
    size = len(record.preperiod) + len(record.period)
    name = [str(d) for d in range(base)].__getitem__ if base <= size else str

    def join(digits: tuple[int, ...]) -> str:
        if base > 10:
            return ", ".join(map(name, digits))
        text = bytearray(b"0, ") * len(digits)
        text[::3] = bytes(digits).translate(_DIGIT_BYTES)
        del text[-2:]
        return text.decode()

    def text(r: analysis.ExpansionRecord) -> str:
        return f'{{"base": {base}, "preperiod": [{join(r.preperiod)}], "period": [{join(r.period)}]}}'

    if alternate is None:
        return text(record)
    return f'{text(record)[:-1]}, "alternate_tail": {text(alternate)}}}'


def _cmd_expansion(args: argparse.Namespace) -> None:
    x = _parse_x(args.x)
    _require_at_least("--base", args.base, 2)
    record = analysis.base_expansion(x, args.base)
    print(_expansion_json(record, record.alternate_tail_form()))


def _cmd_cantor_fn(args: argparse.Namespace) -> None:
    x = _parse_x(args.x)
    try:
        value = analysis.cantor_function(x)
    except DepthCapError:
        raise  # exit 3 in main, not "not in the set"
    except ValueError as exc:
        _fail(1, str(exc))
    print(format_rational(value))


def _cmd_counterexample(args: argparse.Namespace) -> None:
    family = _build_family(args, Power(4))
    _require_at_least("--n-max", args.n_max, 0)
    for piece in counterexample.tail_table_rows(family, args.n_max):
        sys.stdout.write(piece)
        del piece  # the piece goes before the next one is made


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cantorlike",
                                     description="Exact Cantor-like set construction and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit the stage-k interval listing")
    _add_family_args(p)
    p.add_argument("--depth", type=_int, required=True)
    p.add_argument("--format", type=_choice, choices=["json", "csv", "svg"], default="json")
    p.add_argument("--decimal", action="store_true", help="add 15-digit decimal columns")
    p.add_argument("--width", type=_int, default=800, help="SVG width in px")
    p.add_argument("--row-height", type=_int, default=28, help="SVG row height in px")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("analyze", help="measures, dimensions and level stats")
    _add_family_args(p)
    p.add_argument("--depth", type=_int, default=8)
    p.add_argument("--kmax", type=_int, default=8, help="dilation-estimate sequence length")
    p.add_argument("--decimal", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("member", help="membership at a finite stage or in the limit set")
    _add_family_args(p)
    p.add_argument("--x", required=True, help="query point as p/q")
    depth_or_limit = p.add_mutually_exclusive_group()
    depth_or_limit.add_argument("--depth", type=_int)
    depth_or_limit.add_argument("--limit", action="store_true", help="decide limit-set membership (digit form)")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("expansion", help="eventually periodic base-n expansion of a rational")
    p.add_argument("--x", required=True)
    p.add_argument("--base", type=_int, default=3)
    p.set_defaults(func=_cmd_expansion)

    p = sub.add_parser("cantor-fn", help="devil's-staircase value of a ternary-set point")
    p.add_argument("--x", required=True)
    p.set_defaults(func=_cmd_cantor_fn)

    p = sub.add_parser("counterexample", help="L1 tail table for the fat-Cantor counterexample")
    _add_family_args(p)
    p.add_argument("--n-max", type=_int, default=15)
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("render", help="SVG iteration diagram")
    _add_family_args(p)
    p.add_argument("--depth", type=_int, default=5)
    p.add_argument("--width", type=_int, default=800)
    p.add_argument("--row-height", type=_int, default=28)
    p.set_defaults(func=_cmd_generate, format="svg")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # The command name is the first argument that is not an option. The
    # subparsers action takes no type= reader (one would read every later
    # argument too), so the name is cut here as _choice cuts a choice flag:
    # argparse's invalid-choice message then echoes at most 40 characters.
    command = next((i for i, arg in enumerate(argv) if not arg.startswith("-")), None)
    if command is not None:
        argv[command] = _choice(argv[command])
    args, extras = parser.parse_known_args(argv)
    if extras:  # parse_args's message, with at most 40 characters of the extras echoed
        parser.error(f"unrecognized arguments: {_echo(' '.join(extras), str)}")
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`). Python's documented recipe:
        # point stdout at devnull so the flush at exit finds no broken pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(EXIT_BROKEN_PIPE)
    except DepthCapError as exc:  # a depth, stage size, period or walk cap, before any output
        _fail(EXIT_DEPTH_CAP, str(exc))
    except ValueError as exc:
        # An exact result of over _digit_limit() digits is a request out of range, not a crash.
        if not _over_limit(exc):
            raise
        _too_large("an integer has")
    return 0


def run() -> int:
    """main() on sys.argv, for a process that ends with the command: both
    launchers call it. Freezing the collector then moves every tracked object
    to the permanent generation, which the teardown collections skip; atexit
    handlers, the flushes, the exit code and any traceback stay as they are.
    main() never touches the collector, so in-process callers keep theirs."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
