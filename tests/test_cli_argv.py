"""Random command lines for every subcommand end in a documented exit code.

The exit codes are those of README: 0 success, 1 (cantor-fn only) a point
outside the set, 2 a bad family, rational or argument (including argparse's
usage errors), 3 a depth over the cap, 4 no digit characterization. A failing
command writes nothing to stdout and one line to stderr (after argparse's
usage for a malformed command line), never a traceback; a command that
succeeds writes nothing to stderr. Depths and sizes stay small so every
example is quick.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlike.cli import main

JUNK = ("", "x", "1/0", "0.5", "1e-3", "1/2/3", " 1/3 ", "-0", "nan", "inf", "3/", "--")


def mostly(good, bad):
    """``good`` four times in five, else ``bad``: most lines get past validation."""
    return st.integers(0, 4).flatmap(lambda i: good if i else bad)


def flag(name, values):
    """``[name, value]``, or (one time in five) nothing: the flag is left out."""
    return mostly(values.map(lambda v: [name, v]), st.just([]))


def concat(*parts):
    return st.tuples(*parts).map(lambda lists: [token for part in lists for token in part])


def ints(low, high):
    return st.integers(low, high).map(str)


unit_rationals = st.integers(2, 40).flatmap(
    lambda q: st.integers(1, q - 1).map(lambda p: f"{p}/{q}"))
rationals = mostly(unit_rationals, st.one_of(
    st.builds("{}/{}".format, st.integers(-3, 40), st.integers(-2, 40)),
    st.integers(-2, 3).map(str),
    st.sampled_from(JUNK),
))
points = mostly(st.one_of(unit_rationals, st.sampled_from(("0", "1", "1/4", "3/4", "2/3"))),
                rationals)
int_texts = mostly(ints(2, 8), st.one_of(ints(-3, 1), st.sampled_from(("x", "", "4.0"))))
digit_texts = mostly(
    st.integers(3, 7).flatmap(lambda n: st.sets(st.integers(1, n - 2), max_size=n - 3).map(
        lambda inner: (n, ",".join(map(str, sorted({0, n - 1, *inner})))))),
    st.tuples(int_texts, st.one_of(
        st.lists(st.integers(-1, 8), max_size=5).map(lambda ds: ",".join(map(str, ds))),
        st.sampled_from(("0,,2", "a", ",")))),
)
json_values = st.one_of(st.integers(-2, 8), rationals, st.floats(allow_nan=False), st.booleans(),
                        st.none(), st.lists(st.integers(0, 8), max_size=4))
family_json = st.one_of(
    st.fixed_dictionaries(
        {"family": st.sampled_from(("proportional", "power", "digit", "lambda", "other"))},
        optional={"alpha": json_values, "n": json_values, "digits": json_values,
                  "lambda": json_values},
    ).map(json.dumps),
    st.sampled_from(("[]", "null", "{", '"power"', "4", '{"family": "power", "n": 4.5}')),
)
families = mostly(
    st.one_of(
        concat(st.just(["--family", "proportional"]), flag("--alpha", rationals)),
        concat(st.just(["--family", "power"]), flag("--n", int_texts)),
        digit_texts.map(lambda nd: ["--family", "digit", "--n", str(nd[0]), "--digits", nd[1]]),
        concat(st.just(["--family", "lambda"]), flag("--lambda", rationals)),
    ),
    st.one_of(st.just([]), family_json.map(lambda text: ["--family-json", text])),
)
pixels = concat(flag("--width", mostly(ints(-1, 50), st.just(str(2 * 10**308)))),  # over any float
                flag("--row-height", ints(-1, 30)))
switch = st.booleans()

COMMANDS = {
    "generate": concat(families, flag("--depth", ints(-1, 4)),
                       flag("--format", mostly(st.sampled_from(("json", "csv", "svg")),
                                               st.just("xml"))),
                       switch.map(lambda on: ["--decimal"] * on), pixels),
    "analyze": concat(families, flag("--depth", ints(-1, 300)), flag("--kmax", ints(-1, 10)),
                      switch.map(lambda on: ["--decimal"] * on)),
    "member": concat(families, flag("--x", points), flag("--depth", ints(-1, 60)),
                     switch.map(lambda on: ["--limit"] * on)),
    "expansion": concat(flag("--x", points), flag("--base", ints(-1, 12))),
    "cantor-fn": flag("--x", points),
    "counterexample": concat(families, flag("--n-max", ints(-1, 200))),
    "render": concat(families, flag("--depth", ints(-1, 4)), pixels),
}

argvs = st.one_of(*(
    concat(st.just([name]), flags, mostly(st.just([]), st.sampled_from((["--bogus"], ["7x"]))))
    for name, flags in COMMANDS.items()
))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None)
@given(argvs)
def test_every_command_line_ends_in_a_documented_exit_code(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert code != 1 or argv[0] == "cantor-fn", (argv, err)
    assert code == 0 or out == "", (argv, code, out[:80])
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    elif "usage: " not in err:  # argparse prints its usage line before the error
        assert err.count("\n") == 1, (argv, err)


def test_an_invalid_command_name_is_echoed_to_40_characters():
    # argparse's subparsers message quotes the command name: a 5,000-character
    # name gives the message of its first 40 characters, and a short one is
    # echoed whole.
    code, out, err = run(["x" * 5000, "--family", "power"])
    assert (code, out) == (2, "")
    assert err == run(["x" * 40, "--family", "power"])[2]
    assert err == run(["xyz"])[2].replace("'xyz'", repr("x" * 40))
    assert err.endswith("error: argument command: invalid choice: " + repr("x" * 40)
                        + " (choose from 'generate', 'analyze', 'member', 'expansion', 'cantor-fn', "
                        "'counterexample', 'render')\n")
