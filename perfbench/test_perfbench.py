"""Tests of the benchmark itself (no timing assertions).

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _inputs(workload: str, seed: int, tmp: Path) -> list:
    cmds = workloads.build(workload, seed, tmp)
    files = [Path(a).read_text() for c in cmds if c.entry == "session" for a in c.args]
    return [c.key for c in cmds] + files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    assert _inputs(workload, 7, tmp_path) == _inputs(workload, 7, tmp_path)


def test_other_seed_gives_other_points(tmp_path):
    assert _inputs("point-queries", 7, tmp_path) != _inputs("point-queries", 8, tmp_path)
    assert _inputs("library-session", 7, tmp_path) != _inputs("library-session", 8, tmp_path)


def _find(cmds, prefix):
    return next(c for c in cmds if c.args[: len(prefix)] == prefix)


def test_flipped_digit_is_counted_as_failure(tmp_path):
    cmds = workloads.build("point-queries", 3, tmp_path)
    tally = run.Tally(workloads.load_expected())
    staircase = [c for c in cmds if c.args[0] == "cantor-fn" and run.call(c)[0].code == 0]
    for flips, cmd in enumerate((*staircase, _find(cmds, ("expansion",)))):
        good, _ = run.call(cmd)
        tally.record(cmd, good)
        assert tally.failed == flips
        text = good.data.decode()
        i = max(i for i, ch in enumerate(text) if ch in "012")
        flipped = text[:i] + ("1" if text[i] != "1" else "2") + text[i + 1:]
        bad = run.Outcome(good.code, _sha256(flipped.encode()), flipped.encode(), 0.0)
        tally.record(cmd, bad)
    assert (tally.attempted, tally.failed) == (4, 2)


def test_recorded_output_mismatch_and_garbage_are_failures_not_crashes(tmp_path):
    cmd = workloads.deterministic_commands()[0]
    expected = workloads.load_expected()
    assert cmd.key in expected
    tally = run.Tally(expected)
    tally.record(cmd, run.Outcome(0, _sha256(b"0/1,1/1\n"), None, 0.0))
    tally.record(cmd, run.Outcome(1, expected[cmd.key]["sha256"], None, 0.0))
    expansion = _find(workloads.build("point-queries", 3, tmp_path), ("expansion",))
    tally.record(expansion, run.Outcome(0, "", b"not json", 0.0))
    assert (tally.attempted, tally.failed) == (3, 3)


def test_oracle_points_lie_where_the_construction_puts_them():
    import random

    from cantorlike import member_at_depth
    from cantorlike.cli import _build_family, build_parser

    rng = random.Random(0)
    for flags in (workloads.TERNARY, workloads.POWER4, workloads.LAMBDA_HALF, workloads.DIGIT_014):
        family = _build_family(build_parser().parse_args(["member", "--x", "0", *flags]))
        for depth in (1, 5):
            assert member_at_depth(workloads.stage_point(flags, depth, rng, "end"), family, depth)
            assert member_at_depth(workloads.stage_point(flags, depth, rng, "mid"), family, depth)
            assert not member_at_depth(workloads.gap_point(flags, depth, rng), family, depth)


def test_periodic_value_and_digits_to_int():
    assert workloads.periodic_value([0, 2], [], 3) == Fraction(2, 9)
    assert workloads.periodic_value([], [0, 2], 3) == Fraction(1, 4)
    digits = [1, 0, 2] * 300
    assert workloads.digits_to_int(digits, 3) == int("".join(map(str, digits)), 3)


def test_self_time_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("a.child", 2.0, 3.0, 1),
        S("b", 5.0, 6.0, 0),
        S("c", 5.5, 7.0, 0),    # overlaps b: the union counts once
        S("d", 9.5, 11.0, 0),   # runs past its parent: clipped
        S("other", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 2 - 0.5, 2, 1, 1, 1.5, 1.5, 1])


def test_traced_calls_nest_and_counters_fill():
    from cantorlike import cli

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        out, size = run.call(workloads.Command("cli", ("render", *workloads.POWER4, "--depth", "3")))
    assert out.code == 0 and cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names[:2] == ["cli", "render.render_svg"] and names.count("families.iterate") == 4
    metrics = tracing.layer_metrics(tracer, size)
    assert metrics["render.iterate_calls"] == 4
    assert metrics["families.iterate.calls"] == 4
    assert metrics["families.intervals_built"] == 1 + 2 + 4 + 8
    assert metrics["cli.bytes_out"] == size > 0
    assert sum(tracing.self_times(tracer.spans)) <= out.wall


def test_every_printed_metric_is_declared_in_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.END_TO_END) == [m["name"] for m in bench["end_to_end"]]
    assert [run.END_TO_END[m["name"]] for m in bench["end_to_end"]] == [m["unit"] for m in bench["end_to_end"]]
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert declared == tracing.LAYER_METRICS
    printed = set(tracing.layer_metrics(tracing.Tracer(), 0)) | {"trace.overhead_ratio"}
    assert printed == set(declared)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
