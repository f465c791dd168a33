"""The design rules of ``src/``: each test holds one decision in place.

The rules record the package's structure: exact arithmetic with no private
``Fraction`` state and no collector toggles, no family dispatch, one family
table, one integer reader and one digit-limit rule, the collector touched
only by ``cli.run``, one walk of the Moran row, one closed form, one way to
read a set, one value base, one fold, one cap type, a CLI that reads
``analysis``, ``counterexample``, ``render`` and ``json`` only when its command
runs, measures beside the closed form, so ``counterexample`` reads no
``analysis``, the point descent beside the step table, so ``member --depth``
reads none of the three, the text of a stage in ``render``, and the set-valued
API in ``sets``, which no module reads at import. Each module of ``src/`` is
read once, as text and as a syntax tree. A rule that bans a pattern matches it
line by line, as ``grep -n`` does; a rule that allows a pattern in one def or
class finds the def or class a line lies in from the tree.

``test_each_rule_fails_on_its_recorded_break`` keeps, for every rule, the
break it was written against: the edit is made to the source in memory, and
the rule must flag exactly the lines that the edit adds or changes.
"""

import ast
import difflib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


class Module:
    """One module of src/: its path as grep prints it, its lines and its syntax tree."""

    def __init__(self, path: str, text: str):
        self.path, self.name = path, path.rsplit("/", 1)[-1]
        self.text, self.lines = text, text.splitlines()
        self.tree = ast.parse(text, path)

    def hit(self, n: int) -> str:
        return f"{self.path}:{n}:{self.lines[n - 1]}"

    def scopes(self) -> dict:
        """Each line's enclosing defs and classes, outermost first, as ("def run",) or ("class _Frozen", "def __eq__")."""
        chains = {}

        def visit(node: ast.AST, chain: tuple) -> None:
            for child in ast.iter_child_nodes(node):
                inner = chain
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = chain + (("class " if isinstance(child, ast.ClassDef) else "def ") + child.name,)
                    chains.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), inner))
                visit(child, inner)

        visit(self.tree, ())
        return chains


MODULES = [Module(path.relative_to(SRC.parent).as_posix(), path.read_text())
           for path in sorted(SRC.rglob("*.py"))]


def grep(modules: list, pattern: str, skip: str = "", only: str = "") -> list:
    """The lines that match pattern, as grep -rnE prints them, in the modules
    named only (every module when empty) but skip."""
    return [m.hit(n) for m in modules if m.name != skip and only in ("", m.name)
            for n, line in enumerate(m.lines, 1) if re.search(pattern, line)]


def outside(modules: list, pattern: str, allowed) -> list:
    """The lines that match pattern where allowed(module, line, scope) is false;
    scope is the line's enclosing defs and classes, read off the syntax tree."""
    hits = []
    for m in modules:
        scopes = m.scopes()
        hits += [m.hit(n) for n, line in enumerate(m.lines, 1)
                 if re.search(pattern, line) and not allowed(m, line, scopes.get(n, ()))]
    return hits


def no_private_fraction_state_or_hidden_identity(modules):
    """No private Fraction attributes, as_integer_ratio, collector toggles,
    dataclasses, exec, typing or id() in src/. as_integer_ratio accepts a float
    or a Decimal, so reading a point through it would let an inexact value feed
    a verdict; a cache keyed by id() can return another object's entry once
    CPython reuses the id."""
    return grep(modules, r"_numerator|_denominator|as_integer_ratio|gc\.disable|gc\.enable|dataclasses|exec\("
                         r"|from typing|import typing|\bid\(")


def no_family_dispatch(modules):
    """No isinstance(f, ...) or isinstance(family, ...): read the family's Moran row instead."""
    return grep(modules, r"isinstance\((f|family)\b")


def cli_reads_kinds_from_the_family_table(modules):
    """The CLI never branches on args.family; it builds families from families._FAMILY_FIELDS."""
    return grep(modules, r"args.family ==")


def integer_flags_are_read_by_cli_int(modules):
    """No argparse type=int, whose error echoes the whole value: cli._int echoes at most 40 characters."""
    return grep(modules, r"type=int")


def one_digit_limit_rule(modules):
    """exact._digit_limit is the only lookup of sys.get_int_max_str_digits,
    exact._over_limit the only test for "integer string conversion" and
    exact._read_int the only integer reader; the helpers they replaced stay
    gone. The tree reads code, so message text that mentions the limit does
    not count."""
    gone = {"_flag_int", "_over_digit_limit", "_DIGIT_RUN"}
    hits = []
    for m in modules:
        for node in ast.walk(m.tree):
            name = getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
            if name in gone or m.name != "exact.py" and (name == "get_int_max_str_digits" or (
                    type(node) is ast.Constant and node.value in ("get_int_max_str_digits",
                                                                  "integer string conversion"))):
                hits.append(m.hit(node.lineno))
    return hits


def gc_only_in_cli_run(modules):
    """cli.run, the entry of both launchers, freezes the collector once the
    command is done. main() and the library serve in-process callers too, who
    keep collecting cycles, so the only lines of src/ that name gc are cli.py's
    import gc and the gc.freeze() directly in run."""
    return outside(modules, r"(^|[^\w])gc([^\w]|$)", lambda m, line, scope: m.name == "cli.py" and (
        line == "import gc" or scope == ("def run",) and re.fullmatch(r"\s+gc\.freeze\(\)", line)))


def one_walk_of_the_moran_row(modules):
    """families._steps is the only walk of the row: no _lengths, and no module
    but families.py reads a row's digits."""
    return (grep(modules, r"def _lengths\b")
            + grep(modules, r"(moran_row\([^)]*\)|\brow)\.digits|\bdigits = (moran_row|row)\b", skip="families.py"))


def closed_form_only_in_families(modules):
    """Only families.py reads a Moran row's c, r and g; the rest read families._closed_form."""
    return grep(modules, r"\bs, m, c, r\b|(moran_row\([^)]*\)|\brow)\.(c|r|g)\b|\bc - g\b|gcd\(c, s\)",
                skip="families.py")


def one_way_to_read_a_set(modules):
    """No _Intervals, normalize, IntervalSet.intervals or .min_length/.max_length
    read: iterate a set or read its ends, call IntervalSet(xs), read
    LevelStats.length. The quoted "min_length" and "max_length" keys of
    analyze's report do not match."""
    return grep(modules, r"class _Intervals\b|def (normalize|intervals)\b|\bnormalize = |\.(min|max)_length\b")


def one_value_base_and_one_svg_path(modules):
    """exact._Frozen is the only class that defines or assigns __eq__ or
    __hash__, and cli.py has no _cmd_render: render runs _cmd_generate."""
    def in_frozen(m, line, scope):
        return [s for s in scope if s.startswith("class ")][-1:] == ["class _Frozen"]

    return (outside(modules, r"^\s+(def\s+)?__(eq|hash)__\s*[(=]", in_frozen)
            + grep(modules, r"_cmd_render[^\w]", only="cli.py"))


def one_fold_and_one_block_list(modules):
    """families._fold is the only fold of the tree's levels and
    families._stage_halves the only list of a stage's blocks: no _blocks, and
    the fold's comprehension lies directly in _fold."""
    return (grep(modules, r"def _blocks\b")
            + outside(modules, r"for a in lefts for o in offsets",
                      lambda m, line, scope: m.name == "families.py" and scope == ("def _fold",)))


def every_cap_raises_depth_cap_error(modules):
    """No cap type but DepthCapError: a cap raises it with a message that names the cap."""
    return grep(modules, r"StageSizeError|PeriodCapError|class \w+\(DepthCapError\)")


def cli_reads_lazy_modules_and_json_on_use(modules):
    """cli.py binds no name from analysis, counterexample or render at module
    level, and imports json only inside a def. The package loads those three
    modules on first use, so a launch compiles only what its command reads; a
    module-level import or attribute read of one would load it at every launch."""
    lazy = {"analysis", "counterexample", "render"}
    lines = set()
    for m in modules:
        if m.name != "cli.py":
            continue
        scopes = m.scopes()
        for node in ast.walk(m.tree):
            if any(s.startswith("def ") for s in scopes.get(getattr(node, "lineno", 0), ())):
                continue
            if (type(node) is ast.ImportFrom and (node.module or "").rsplit(".", 1)[-1] in lazy | {"json"}
                    or type(node) is ast.Import and any(a.name.split(".")[0] == "json" for a in node.names)
                    or type(node) is ast.Attribute and type(node.value) is ast.Name and node.value.id in lazy):
                lines.add((m, node.lineno))
    return [m.hit(n) for m, n in lines]


def measures_live_in_families(modules):
    """measure_at_depth and limit_measure are defined only in families.py, beside
    level_stats and the closed form they read, and counterexample.py imports
    nothing from analysis: a counterexample launch or a library caller of a
    measure never runs analysis."""
    return (grep(modules, r"from \.analysis import", only="counterexample.py")
            + grep(modules, r"def (measure_at_depth|limit_measure)\b", skip="families.py"))


def point_descent_lives_in_families(modules):
    """member_at_depth, _check_walk and MAX_WALK_BITS are defined only in
    families.py, beside the step table _steps that the descent walks: a
    member --depth launch or a library caller of the descent never runs analysis."""
    return grep(modules, r"def (member_at_depth|_check_walk)\b|^MAX_WALK_BITS\s*=", skip="families.py")


def stage_text_lives_in_render(modules):
    """The row templates _ROWS and the row writer _end_plans are defined only in
    render.py, which holds the text of a stage in every format: a launch that
    prints no stage compiles none of them."""
    return grep(modules, r"^_ROWS\s*=|def _end_plans\b", skip="render.py")


SET_NAMES = ("ClosedInterval", "IntervalSet", "OpenInterval", "IfsMaps", "iterate", "removed_by_generation",
             "ifs_step", "ifs_maps")


def set_api_lives_in_sets(modules):
    """The eight names of SET_NAMES are defined only in sets.py, and no module
    of src/ imports one of them, or reads a name off sets, at module level:
    render.py reaches them through sets. at call time. The package loads sets
    on first use, so a launch that builds no set compiles none of them."""
    lines = set()
    for m in modules:
        scopes = m.scopes()
        for node in ast.walk(m.tree):
            if any(s.startswith("def ") for s in scopes.get(getattr(node, "lineno", 0), ())):
                continue
            if (type(node) is ast.ImportFrom and any(a.name in SET_NAMES for a in node.names)
                    or type(node) is ast.Attribute and type(node.value) is ast.Name and node.value.id == "sets"):
                lines.add((m, node.lineno))
    return ([m.hit(n) for m, n in lines]
            + grep(modules, rf"^(class|def) ({'|'.join(SET_NAMES)})\b", skip="sets.py"))


RULES = [no_private_fraction_state_or_hidden_identity, no_family_dispatch, cli_reads_kinds_from_the_family_table,
         integer_flags_are_read_by_cli_int, one_digit_limit_rule, gc_only_in_cli_run, one_walk_of_the_moran_row,
         closed_form_only_in_families, one_way_to_read_a_set, one_value_base_and_one_svg_path,
         one_fold_and_one_block_list, every_cap_raises_depth_cap_error, cli_reads_lazy_modules_and_json_on_use,
         measures_live_in_families, point_descent_lives_in_families, stage_text_lives_in_render,
         set_api_lives_in_sets]


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.__name__)
def test_src_keeps_the_rule(rule):
    hits = rule(MODULES)
    assert not hits, rule.__doc__ + "\n" + "\n".join(hits)


CLI, EXACT, FAMILIES, ANALYSIS, COUNTEREXAMPLE, RENDER = (f"src/cantorlike/{name}.py" for name in (
    "cli", "exact", "families", "analysis", "counterexample", "render"))

# (rule, module, old, new): new in place of the first old, or appended to the
# module when old is None. Each is a break a rule was written against.
BREAKS = [
    (no_private_fraction_state_or_hidden_identity, EXACT, None, "_x._numerator, _x._denominator = 1, 3"),
    (no_private_fraction_state_or_hidden_identity, FAMILIES, None, "gc.disable()\ngc.enable()"),
    (no_private_fraction_state_or_hidden_identity, FAMILIES, None, "from dataclasses import dataclass"),
    (no_private_fraction_state_or_hidden_identity, EXACT, None, "_n, _d = _x.as_integer_ratio()"),
    (no_private_fraction_state_or_hidden_identity, ANALYSIS, None, 'exec("_x = 1")'),
    (no_private_fraction_state_or_hidden_identity, CLI, None, "from typing import Iterator\nimport typing"),
    (no_private_fraction_state_or_hidden_identity, FAMILIES, None, "_cache = {id(_x): _x}"),
    (no_family_dispatch, FAMILIES, None, "_power = isinstance(f, Power)"),
    (no_family_dispatch, ANALYSIS, None, "_lam = isinstance(family, LambdaFamily)"),
    (cli_reads_kinds_from_the_family_table, CLI, None, 'power = args.family == "power"'),
    (integer_flags_are_read_by_cli_int, CLI, 'p.add_argument("--n-max", type=_int',
     'p.add_argument("--n-max", type=int'),
    (one_digit_limit_rule, FAMILIES, None, "def _flag_int(text): return int(text)"),
    (one_digit_limit_rule, EXACT, None, "def _over_digit_limit(exc): return _over_limit(exc)\n_DIGIT_RUN = 4300"),
    (one_digit_limit_rule, CLI, None, "_limit = sys.get_int_max_str_digits()"),
    (one_digit_limit_rule, ANALYSIS, None, '_limit = getattr(sys, "get_int_max_str_digits", int)()'),
    (one_digit_limit_rule, CLI, None, '_over = "integer string conversion" in str(ValueError())'),
    (gc_only_in_cli_run, FAMILIES, None, "import gc\ngc.collect()"),
    (gc_only_in_cli_run, CLI, "        gc.freeze()", "        gc.collect()\n        gc.freeze()"),
    (gc_only_in_cli_run, CLI, "    args, extras = parser", "    gc.freeze()\n    args, extras = parser"),
    (gc_only_in_cli_run, CLI, "import gc\n", "import gc as g\n"),
    (gc_only_in_cli_run, CLI, "import gc\n", "from gc import freeze\n"),
    (one_walk_of_the_moran_row, FAMILIES, None, "def _lengths(f, unit=1): return _steps(f, unit)"),
    (one_walk_of_the_moran_row, ANALYSIS, None, "_digits = moran_row(f).digits\ndigits = row"),
    (closed_form_only_in_families, CLI, None, "s, m, c, r, g, digits = moran_row(family)"),
    (closed_form_only_in_families, ANALYSIS, None, "_b = Fraction(row.r, c - g)\n_h = gcd(c, s)"),
    (one_way_to_read_a_set, EXACT, None, "class _Intervals(tuple): pass\ndef normalize(xs): return IntervalSet(xs)"),
    (one_way_to_read_a_set, EXACT, None, "normalize = IntervalSet"),
    (one_way_to_read_a_set, CLI, '"min_length": format_rational(stats.length)',
     '"min_length": format_rational(stats.min_length)'),
    (one_way_to_read_a_set, ANALYSIS, None, "_longest = level_stats(f, 1).max_length"),
    (one_value_base_and_one_svg_path, FAMILIES, "class Power(_Frozen):\n",
     "class Power(_Frozen):\n    __hash__ = None\n    def __eq__(self, other): return True\n"),
    (one_value_base_and_one_svg_path, CLI, None, "_cmd_render = _cmd_generate"),
    (one_fold_and_one_block_list, FAMILIES, None, "def _blocks(level): return level"),
    (one_fold_and_one_block_list, FAMILIES, None, "_lefts = [a * s + o for a in lefts for o in offsets]"),
    (one_fold_and_one_block_list, FAMILIES, "    _check_stage(f, k)\n",
     "    _check_stage(f, k)\n    lefts = [a * s + o for a in lefts for o in offsets]\n"),
    (every_cap_raises_depth_cap_error, FAMILIES, None, "class StageSizeError(DepthCapError): pass"),
    (every_cap_raises_depth_cap_error, ANALYSIS, None, "class X(DepthCapError): pass\n_cap = PeriodCapError"),
    (cli_reads_lazy_modules_and_json_on_use, CLI, None, "from .analysis import member_at_depth"),
    (cli_reads_lazy_modules_and_json_on_use, CLI, None, "import json"),
    (cli_reads_lazy_modules_and_json_on_use, CLI, None, "_svg = render.render_svg"),
    (measures_live_in_families, COUNTEREXAMPLE, None, "from .analysis import limit_measure"),
    (measures_live_in_families, ANALYSIS, None, "def limit_measure(f): return moran_row(f).m"),
    (point_descent_lives_in_families, ANALYSIS, None,
     "MAX_WALK_BITS = 1 << 14\ndef _check_walk(f, k, unit): pass\ndef member_at_depth(x, f, k): return True"),
    (point_descent_lives_in_families, CLI, None, "def member_at_depth(x, f, k): return True"),
    (stage_text_lives_in_render, CLI, None, '_ROWS = {("csv", False): "{},{}"}\ndef _end_plans(): pass'),
    (set_api_lives_in_sets, EXACT, None, "class IntervalSet(_Frozen): pass"),
    (set_api_lives_in_sets, FAMILIES, None, "def ifs_step(s, maps): return s"),
    (set_api_lives_in_sets, RENDER, None, "from .families import iterate"),
    (set_api_lives_in_sets, RENDER, None, "_iterate = sets.iterate"),
]


@pytest.mark.parametrize("rule, path, old, new", BREAKS,
                         ids=[f"{rule.__name__}-{path.rsplit('/', 1)[-1]}-{n}"
                              for n, (rule, path, *_) in enumerate(BREAKS)])
def test_each_rule_fails_on_its_recorded_break(rule, path, old, new):
    module = next(m for m in MODULES if m.path == path)
    if old is None:
        text = module.text + new + "\n"
    else:
        assert old in module.text
        text = module.text.replace(old, new, 1)
    broken = Module(path, text)
    opcodes = difflib.SequenceMatcher(None, module.lines, broken.lines, autojunk=False).get_opcodes()
    changed = [broken.hit(n + 1) for tag, _, _, j1, j2 in opcodes if tag != "equal" for n in range(j1, j2)]
    assert sorted(rule([broken if m is module else m for m in MODULES])) == sorted(changed)
