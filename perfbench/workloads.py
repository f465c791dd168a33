"""Seeded workloads for the cantorlike benchmark, and the oracles that check them.

A workload is a list of ``Command``s run back to back as one pass. Every
command carries its own output check:

* deterministic commands (stage dumps, removal tails, renders, analyze) are
  compared with the exit code and sha256 recorded in ``expected.json``;
* seeded commands are checked by oracles in this file that never call the
  code under test: the query points are built here from the construction's
  definition, so the right answer is known before the program runs.

Nothing here imports ``cantorlike``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("stage-dump", "removal-tails", "point-queries", "library-session")

# Families as CLI flags.
TERNARY = ("--family", "proportional", "--alpha", "1/3")
POWER4 = ("--family", "power", "--n", "4")
LAMBDA_HALF = ("--family", "lambda", "--lambda", "1/2")
DIGIT_014 = ("--family", "digit", "--n", "5", "--digits", "0,1,4")
DIGIT_02 = ("--family", "digit", "--n", "3", "--digits", "0,2")

# Sizes. Each pass is a few seconds at the recording commit, so a 20 s run
# holds several passes; see README.md for the single-command timings.
STAGE_DUMP = (
    ("generate", *TERNARY, "--depth", "16", "--format", "csv"),
    ("generate", *POWER4, "--depth", "16", "--format", "json"),
    ("generate", *LAMBDA_HALF, "--depth", "15", "--format", "csv", "--decimal"),
    ("generate", *DIGIT_014, "--depth", "10", "--format", "json"),
)
REMOVAL_TAILS = (
    ("counterexample", *POWER4, "--n-max", "30000"),
    ("counterexample", *LAMBDA_HALF, "--n-max", "30000"),
    ("render", *POWER4, "--depth", "14"),
    ("generate", *LAMBDA_HALF, "--depth", "14", "--format", "svg"),
)
ANALYZE = (
    ("analyze", *POWER4, "--depth", "2000", "--kmax", "300"),
    ("analyze", *LAMBDA_HALF, "--depth", "2000", "--kmax", "300"),
)
MEMBER_DEPTH = 2000
MEMBER_GAP_GENERATIONS = (1900, 2000)  # false points sit in a gap of one of these generations
LIMIT_PERIOD = 3000                    # ternary digits in the period of member --limit / cantor-fn points
EXPANSION_PRIMES = (500_000, 505_000)  # 1/p with 3 a primitive root mod p: a period of p-1 digits
SESSION_CASES = (
    # (family spec, CLI flags for the oracle, depth, points, ifs_step applies)
    ({"family": "proportional", "alpha": "1/3"}, TERNARY, 13, 10_000, True),
    ({"family": "digit", "n": 5, "digits": [0, 1, 4]}, DIGIT_014, 8, 5_000, True),
    ({"family": "power", "n": 4}, POWER4, 12, 5_000, False),
)


# --- the construction, from its definition ------------------------------------
#
# An interval of the tree is (a, length) over a common integer denominator.
# step() returns the scale s of the new denominator, the children and the gaps
# of one refinement at step k, all over denom * s.

def _step(flags: tuple, k: int, a: int, length: int) -> tuple[int, list, list]:
    kind = flags[1]
    if kind == "proportional":
        p, q = map(int, flags[3].split("/"))
        s = 2 * q
        child = length * (q - p)            # (1 - alpha)/2 of the parent, over denom*2q
        lo, hi = a * s, (a + length) * s
        return s, [(lo, child), (hi - child, child)], [(lo + child, hi - child)]
    if kind in ("power", "lambda"):
        if kind == "power":
            n = int(flags[3])
            s = 2 * n
            removal = 2**k                  # 1/n^k over (2n)^k
        else:
            p, q = map(int, flags[3].split("/"))
            s = 6 * q
            removal = p * 2**k * q ** (k - 1)  # lam/3^k over (6q)^k
        lo, hi = a * s, (a + length) * s
        child = (hi - lo - removal) // 2
        return s, [(lo, child), (hi - child, child)], [(lo + child, hi - child)]
    if kind == "digit":
        n = int(flags[3])
        digits = [int(d) for d in flags[5].split(",")]
        children = [(a * n + d * length, length) for d in digits]
        gaps = [(a * n + (d0 + 1) * length, a * n + d1 * length)
                for d0, d1 in zip(digits, digits[1:]) if d1 > d0 + 1]
        return n, children, gaps
    raise ValueError(f"unknown family flags {flags}")


def stage_point(flags: tuple, depth: int, rng: random.Random, where: str) -> Fraction:
    """A point of a random stage-``depth`` interval: its left or right end, or its midpoint."""
    a, length, denom = 0, 1, 1
    for k in range(1, depth + 1):
        s, children, _ = _step(flags, k, a, length)
        a, length = rng.choice(children)
        denom *= s
    if where == "end":
        return Fraction(rng.choice((a, a + length)), denom)
    return Fraction(2 * a + length, 2 * denom)


def gap_point(flags: tuple, generation: int, rng: random.Random) -> Fraction:
    """The midpoint of a random gap removed at the given generation."""
    a, length, denom = 0, 1, 1
    for k in range(1, generation + 1):
        s, children, gaps = _step(flags, k, a, length)
        denom *= s
        if k == generation:
            lo, hi = rng.choice(gaps)
            return Fraction(lo + hi, 2 * denom)
        a, length = rng.choice(children)
    raise ValueError("generation must be >= 1")


# --- digit strings and their values --------------------------------------------

def digits_to_int(digits: list[int], base: int) -> int:
    """The integer with these base-``base`` digits, by balanced splitting so
    that long digit strings cost a few big multiplications, not a quadratic loop."""
    powers: dict[int, int] = {}

    def power(e: int) -> int:
        if e not in powers:
            powers[e] = base**e
        return powers[e]

    def go(lo: int, hi: int) -> int:
        if hi - lo <= 64:
            v = 0
            for d in digits[lo:hi]:
                v = v * base + d
            return v
        mid = (lo + hi) // 2
        return go(lo, mid) * power(hi - mid) + go(mid, hi)

    return go(0, len(digits))


def periodic_value(pre: list[int], period: list[int], base: int) -> Fraction:
    """Exact value of 0.(pre)(period)(period)... in the given base."""
    m = len(pre)
    value = Fraction(digits_to_int(pre, base), base**m)
    if period:
        value += Fraction(digits_to_int(period, base), base**m * (base ** len(period) - 1))
    return value


def _ternary_02(rng: random.Random) -> tuple[list[int], list[int]]:
    """A random preperiod and period of 0/2 digits. The period holds both digits,
    so the expansion neither terminates nor ends in all 2s and is the only
    ternary expansion of its value."""
    pre = [rng.choice((0, 2)) for _ in range(rng.randrange(5, 50))]
    period = [rng.choice((0, 2)) for _ in range(LIMIT_PERIOD - 2)] + [0, 2]
    rng.shuffle(period)
    return pre, period


# --- primes for the expansion query ---------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def _prime_factors(n: int) -> set[int]:
    out, f = set(), 2
    while f * f <= n:
        while n % f == 0:
            out.add(f)
            n //= f
        f += 1
    if n > 1:
        out.add(n)
    return out


def primitive_root_3_prime(rng: random.Random) -> int:
    """A random prime p in EXPANSION_PRIMES for which 3 has order p-1, so 1/p
    has a purely periodic ternary expansion with a period of p-1 digits."""
    while True:
        p = rng.randrange(*EXPANSION_PRIMES)
        if p % 3 and _is_prime(p) and all(pow(3, (p - 1) // r, p) != 1 for r in _prime_factors(p - 1)):
            return p


# --- commands and checks -----------------------------------------------------------

Oracle = Callable[[int, bytes], bool]


@dataclass(frozen=True)
class Command:
    """One program invocation. ``entry`` is "cli" (the cantorlike CLI) or
    "session" (perfbench/session.py). The output is checked against the
    recorded (exit code, sha256) when ``oracle`` is None, else by ``oracle``."""

    entry: str
    args: tuple[str, ...]
    oracle: Optional[Oracle] = None

    @property
    def key(self) -> str:
        return " ".join((self.entry, *self.args))


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}


def check(cmd: Command, code: int, digest: str, data: Optional[bytes], expected: dict) -> bool:
    """Whether one command's exit code and stdout are right. Never raises."""
    if cmd.oracle is None:
        want = expected.get(cmd.key)
        return want is not None and want == {"exit": code, "sha256": digest}
    try:
        return bool(cmd.oracle(code, data or b""))
    except (ValueError, KeyError, TypeError, IndexError):  # malformed output
        return False


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _expect_verdict(verdict: bool) -> Oracle:
    def oracle(code: int, out: bytes) -> bool:
        return code == 0 and out == (b"true\n" if verdict else b"false\n")
    return oracle


def _expect_limit_member(x: Fraction) -> Oracle:
    """member --limit on a 0/2 point: "true" and a witness expansion in {0,2}
    whose value is x."""
    def oracle(code: int, out: bytes) -> bool:
        lines = out.decode().split("\n")
        if code != 0 or len(lines) != 3 or lines[0] != "true" or lines[2] != "":
            return False
        prefix = "witness: "
        if not lines[1].startswith(prefix):
            return False
        w = json.loads(lines[1][len(prefix):])
        digits = set(w["preperiod"]) | set(w["period"])
        return w["base"] == 3 and digits <= {0, 2} and periodic_value(w["preperiod"], w["period"], 3) == x
    return oracle


def _expect_staircase(pre: list[int], period: list[int]) -> Oracle:
    value = periodic_value([d // 2 for d in pre], [d // 2 for d in period], 2)
    want = (_fmt(value) + "\n").encode()
    return lambda code, out: code == 0 and out == want


def _expect_not_in_set(code: int, out: bytes) -> bool:
    return code == 1 and out == b""


def _expect_expansion(p: int) -> Oracle:
    """expansion of 1/p: digits in range, and the expansion round-trips to 1/p."""
    def oracle(code: int, out: bytes) -> bool:
        obj = json.loads(out)
        if code != 0 or obj["base"] != 3 or "alternate_tail" in obj:
            return False
        pre, period = obj["preperiod"], obj["period"]
        if not all(d in (0, 1, 2) for d in pre) or not all(d in (0, 1, 2) for d in period):
            return False
        return periodic_value(pre, period, 3) == Fraction(1, p)
    return oracle


def _expect_session(code: int, out: bytes) -> bool:
    return code == 0 and out == b"ok\n"


def _deterministic(rows: tuple) -> list[Command]:
    return [Command("cli", tuple(args)) for args in rows]


def _point_queries(rng: random.Random) -> list[Command]:
    cmds = _deterministic(ANALYZE)
    for flags in (TERNARY, POWER4, LAMBDA_HALF, DIGIT_014):
        # one query per family; either verdict costs about MEMBER_DEPTH steps
        if rng.random() < 0.5:
            x, verdict = stage_point(flags, MEMBER_DEPTH, rng, "end"), True
        else:
            x, verdict = gap_point(flags, rng.randrange(*MEMBER_GAP_GENERATIONS), rng), False
        cmds.append(Command("cli", ("member", *flags, "--x", _fmt(x), "--depth", str(MEMBER_DEPTH)),
                            _expect_verdict(verdict)))
    pre, period = _ternary_02(rng)
    x_in = periodic_value(pre, period, 3)
    bad = list(period)
    bad[rng.randrange(len(bad))] = 1
    x_out = periodic_value(pre, bad, 3)
    cmds += [
        Command("cli", ("member", *DIGIT_02, "--x", _fmt(x_in), "--limit"), _expect_limit_member(x_in)),
        Command("cli", ("member", *DIGIT_02, "--x", _fmt(x_out), "--limit"), _expect_verdict(False)),
        Command("cli", ("cantor-fn", "--x", _fmt(x_in)), _expect_staircase(pre, period)),
        Command("cli", ("cantor-fn", "--x", _fmt(x_out)), _expect_not_in_set),
    ]
    p = primitive_root_3_prime(rng)
    cmds.append(Command("cli", ("expansion", "--x", f"1/{p}", "--base", "3"), _expect_expansion(p)))
    return cmds


def session_inputs(rng: random.Random) -> dict:
    """Inputs of the library session: per family a depth and query points, half
    in the stage (midpoints or ends of stage intervals), half in its gaps."""
    cases = []
    for spec, flags, depth, count, ifs in SESSION_CASES:
        points = []
        for i in range(count):
            if i % 2:
                x, inside = gap_point(flags, rng.randrange(1, depth + 1), rng), False
            else:
                x, inside = stage_point(flags, depth, rng, rng.choice(("end", "mid"))), True
            points.append([_fmt(x), inside])
        cases.append({"family": spec, "depth": depth, "points": points, "ifs": ifs})
    return {"cases": cases}


def build(workload: str, seed: int, scratch: Path) -> list[Command]:
    """The commands of one pass of ``workload`` for this seed. The seed fixes
    the generated query points and the order of the deterministic commands;
    the library session's inputs are written under ``scratch``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "stage-dump":
        cmds = _deterministic(STAGE_DUMP)
    elif workload == "removal-tails":
        cmds = _deterministic(REMOVAL_TAILS)
    elif workload == "point-queries":
        cmds = _point_queries(rng)
    elif workload == "library-session":
        path = scratch / f"session-{seed}.json"
        path.write_text(json.dumps(session_inputs(rng)))
        return [Command("session", (str(path),), _expect_session)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cmds)
    return cmds


def deterministic_commands() -> list[Command]:
    """Every command whose output is checked against expected.json."""
    return _deterministic(STAGE_DUMP + REMOVAL_TAILS + ANALYZE)
