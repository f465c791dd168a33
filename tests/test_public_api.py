"""The public names of the package: one path per result.

Each name removed from the API restated a kept path: ``removed_intervals``
and ``removed_sequence`` (with ``RemovedSequence``) flattened
``removed_by_generation``, ``digit_equivalent(alpha)`` was
``digit_form(Proportional(alpha))``, ``partial_indicator_discontinuity_count(n)``
returned ``2 * n``, ``ClosedInterval.contains`` had no caller,
``stage_stream`` had one caller, ``stage_pairs``, ``RenderSpec`` only
carried ``render_svg``'s arguments, ``total_removed_measure(f)`` was
``1 - limit_measure(f)``, ``discontinuity_report(f)`` (with
``DiscontinuityReport``) paired ``limit_measure(f)`` with ``== 0``, and
``exact.UNIT`` had no caller. ``families.StageSizeError`` and
``analysis.PeriodCapError`` were subclasses of ``DepthCapError`` that no
caller told apart from it: every cap raises ``DepthCapError``, whose
message names the cap. ``IntervalSet.pairs`` is ``tuple(zip(it, it))`` over
``it = iter(s.ends)``, and ``stage_pairs`` became ``stage_ends``, which gives
the same ends in one flat list. ``ClosedInterval.is_degenerate`` was
``iv.a == iv.b``, ``ExpansionRecord.terminating`` was ``not r.period`` and
``ExpansionRecord.digits_used()`` was ``set(r.preperiod) | set(r.period)``.
``normalize(xs)`` was ``IntervalSet(xs)``, and ``IntervalSet.intervals`` was
a sequence view of the ``ClosedInterval`` objects that iterating the set
gives; interval i is ``s.ends[2 * i]`` and ``s.ends[2 * i + 1]`` over
``s.denom``. ``LevelStats.min_length`` and ``max_length`` were always equal,
as every stage-k interval of a homogeneous Moran row has the one length
``LevelStats.length``.
"""

import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import cantorlike
from cantorlike import analysis, counterexample, exact, families, render, sets
from cantorlike.families import Power

PUBLIC_NAMES = [
    "CANTOR_TERNARY", "ClosedInterval", "ConstructionError", "DEFAULT_DEPTH_CAP", "DepthCapError",
    "DigitSet", "DimensionReport", "ExpansionRecord", "FamilySpec",
    "IfsMaps", "IntervalSet", "LambdaFamily", "LevelStats", "OpenInterval", "Power",
    "Proportional", "analysis", "base_expansion", "cantor_function",
    "counterexample", "digit_form", "dimension_estimates", "exact",
    "families", "family_from_json", "family_to_json", "format_rational", "ifs_maps", "ifs_step",
    "iterate", "level_stats", "limit_measure", "measure_at_depth", "member_at_depth",
    "member_limit", "membership_witness", "parse_rational", "removed_by_generation",
    "render", "render_svg", "sets", "similarity_dimension", "tail_measure", "tail_table",
]


def test_public_names_are_pinned():
    # In a fresh interpreter: a submodule imported later (cantorlike.cli by
    # the CLI tests) would add its name to the package.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    program = "import cantorlike; print(*sorted(n for n in dir(cantorlike) if n[0] != '_'))"
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True,
                          env=env, timeout=60)
    names = proc.stdout.split()
    assert (proc.returncode, proc.stderr, len(names)) == (0, "", 44)
    assert names == PUBLIC_NAMES


# The names of analysis, counterexample, render and sets: the package loads
# those modules on first use, so it resolves these through its __getattr__.
LAZY_NAMES = {
    analysis: ["CANTOR_TERNARY", "DimensionReport", "ExpansionRecord", "base_expansion", "cantor_function",
               "dimension_estimates", "member_limit", "membership_witness", "similarity_dimension"],
    counterexample: ["tail_measure", "tail_table"],
    render: ["render_svg"],
    sets: ["ClosedInterval", "IfsMaps", "IntervalSet", "OpenInterval", "ifs_maps", "ifs_step", "iterate",
           "removed_by_generation"],
}


def fresh_python(program: str, stdin: bytes = b"") -> bytes:
    """The stdout of ``program`` run in a new interpreter with this checkout's src/ on its path."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", program], input=stdin, capture_output=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


def test_star_import_binds_the_pinned_names():
    namespace = {}
    exec("from cantorlike import *", namespace)
    assert sorted(name for name in namespace if name[0] != "_") == PUBLIC_NAMES


def test_star_import_without_all_binds_only_the_eager_names():
    # What __all__ adds are the 20 names of the modules loaded on first use.
    program = ("import cantorlike\ndel cantorlike.__all__\nnamespace = {}\n"
               "exec('from cantorlike import *', namespace)\n"
               "print(*sorted(name for name in namespace if name[0] != '_'))")
    names = fresh_python(program).decode().split()
    lazy = [name for names in LAZY_NAMES.values() for name in names]
    assert names == [name for name in PUBLIC_NAMES if name not in lazy]
    assert (len(names), len(lazy)) == (24, 20)


def test_a_measure_call_leaves_analysis_unexecuted():
    # measure_at_depth and limit_measure live in families, beside the closed form
    # they read, and member_at_depth beside the step table it walks: until code
    # reads a name of analysis, sys.modules holds the lazy module type, not ModuleType.
    program = ("import sys, types\nimport cantorlike\nfrom fractions import Fraction\n"
               "from cantorlike import Power\n"
               "print(cantorlike.measure_at_depth(Power(4), 3), cantorlike.limit_measure(Power(4)),\n"
               "      cantorlike.member_at_depth(Fraction(7, 32), Power(4), 2),\n"
               "      type(sys.modules['cantorlike.analysis']) is types.ModuleType)")
    assert fresh_python(program) == b"9/16 1/2 True False\n"


def test_a_point_or_measure_call_leaves_sets_unexecuted_and_a_set_call_runs_it():
    # The point descent, the measures, the closed form and the digit form read
    # integers and the Moran row: only a call that builds a set executes sets.
    program = ("import sys, types\nimport cantorlike\nfrom fractions import Fraction\n"
               "from cantorlike import Power, Proportional\n"
               "def executed():\n"
               "    return type(sys.modules['cantorlike.sets']) is types.ModuleType\n"
               "print(cantorlike.member_at_depth(Fraction(7, 32), Power(4), 2),\n"
               "      cantorlike.measure_at_depth(Power(4), 3), cantorlike.level_stats(Power(4), 2).count,\n"
               "      cantorlike.digit_form(Proportional(Fraction(1, 3))).digits, executed())\n"
               "print(len(cantorlike.iterate(Power(4), 2)), executed())")
    assert fresh_python(program) == b"True 9/16 4 (0, 2) False\n4 True\n"


def test_the_old_homes_of_the_set_names_give_the_sets_objects():
    # exact and families resolve what moved to sets through their module
    # __getattr__, so imports (and pickles) that name the old module still work.
    from cantorlike.exact import IntervalSet
    from cantorlike.families import iterate

    assert IntervalSet is sets.IntervalSet and iterate is sets.iterate
    for module, names in ((exact, ("ClosedInterval", "IntervalSet")),
                          (families, ("IfsMaps", "OpenInterval", "ifs_maps", "ifs_step", "iterate",
                                      "removed_by_generation"))):
        for name in names:
            assert getattr(module, name) is getattr(sets, name)
        with pytest.raises(AttributeError, match=f"module '{module.__name__}' has no attribute 'render_svg'"):
            module.render_svg


def test_a_name_loaded_on_first_use_is_its_modules_object():
    assert cantorlike.render_svg is cantorlike.render.render_svg
    for module, names in LAZY_NAMES.items():
        assert getattr(cantorlike, module.__name__.rsplit(".", 1)[1]) is sys.modules[module.__name__] is module
        for name in names:
            assert getattr(cantorlike, name) is getattr(module, name)


def test_reports_pickle_round_trip_through_a_fresh_interpreter():
    # The new interpreter reads the classes off cantorlike.analysis, which its
    # import of the package registers without running.
    values = (cantorlike.dimension_estimates(Power(4), 3), cantorlike.base_expansion(F(1, 7), 3))
    program = ("import pickle, sys\nvalues = pickle.loads(sys.stdin.buffer.read())\n"
               "sys.stdout.buffer.write(pickle.dumps(values, {}))")
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(fresh_python(program.format(protocol), pickle.dumps(values, protocol))) == values


def test_digit_form_is_the_families_one():
    assert cantorlike.digit_form is families.digit_form


@pytest.mark.parametrize("owner, name", [
    (families, "removed_intervals"),
    (families, "digit_equivalent"),
    (counterexample, "removed_sequence"),
    (counterexample, "RemovedSequence"),
    (counterexample, "partial_indicator_discontinuity_count"),
    (sets.ClosedInterval, "contains"),
    (families, "stage_stream"),
    (render, "RenderSpec"),
    (counterexample, "total_removed_measure"),
    (counterexample, "discontinuity_report"),
    (counterexample, "DiscontinuityReport"),
    (exact, "UNIT"),
    (sets.IntervalSet, "dumps"),
    (sets.IntervalSet, "loads"),
    (families, "StageSizeError"),
    (analysis, "PeriodCapError"),
    (sets.IntervalSet, "pairs"),
    (families, "stage_pairs"),
    (sets.ClosedInterval, "is_degenerate"),
    (analysis.ExpansionRecord, "terminating"),
    (analysis.ExpansionRecord, "digits_used"),
    (exact, "normalize"),
    (sets.IntervalSet, "intervals"),
    (families.LevelStats, "min_length"),
    (families.LevelStats, "max_length"),
])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(cantorlike, name)
