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
import subprocess
import sys
from pathlib import Path

import pytest

import cantorlike
from cantorlike import analysis, counterexample, exact, families, render

PUBLIC_NAMES = [
    "CANTOR_TERNARY", "ClosedInterval", "ConstructionError", "DEFAULT_DEPTH_CAP", "DepthCapError",
    "DigitSet", "DimensionReport", "ExpansionRecord", "FamilySpec",
    "IfsMaps", "IntervalSet", "LambdaFamily", "LevelStats", "OpenInterval", "Power",
    "Proportional", "analysis", "base_expansion", "cantor_function",
    "counterexample", "digit_form", "dimension_estimates", "exact",
    "families", "family_from_json", "family_to_json", "format_rational", "ifs_maps", "ifs_step",
    "iterate", "level_stats", "limit_measure", "measure_at_depth", "member_at_depth",
    "member_limit", "membership_witness", "parse_rational", "removed_by_generation",
    "render", "render_svg", "similarity_dimension", "tail_measure", "tail_table",
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
    assert (proc.returncode, proc.stderr, len(names)) == (0, "", 43)
    assert names == PUBLIC_NAMES


def test_digit_form_is_the_families_one():
    assert cantorlike.digit_form is families.digit_form


@pytest.mark.parametrize("owner, name", [
    (families, "removed_intervals"),
    (families, "digit_equivalent"),
    (counterexample, "removed_sequence"),
    (counterexample, "RemovedSequence"),
    (counterexample, "partial_indicator_discontinuity_count"),
    (exact.ClosedInterval, "contains"),
    (families, "stage_stream"),
    (render, "RenderSpec"),
    (counterexample, "total_removed_measure"),
    (counterexample, "discontinuity_report"),
    (counterexample, "DiscontinuityReport"),
    (exact, "UNIT"),
    (exact.IntervalSet, "dumps"),
    (exact.IntervalSet, "loads"),
    (families, "StageSizeError"),
    (analysis, "PeriodCapError"),
    (exact.IntervalSet, "pairs"),
    (families, "stage_pairs"),
    (exact.ClosedInterval, "is_degenerate"),
    (analysis.ExpansionRecord, "terminating"),
    (analysis.ExpansionRecord, "digits_used"),
    (exact, "normalize"),
    (exact.IntervalSet, "intervals"),
    (families.LevelStats, "min_length"),
    (families.LevelStats, "max_length"),
])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(cantorlike, name)
