"""Generated fuzz of the CLI's float flags and vector components, run in-process.

Each example sets one or two float flags (or components of a vector flag) of
one command to a value that is not a number, or to an extreme of float64.
A value that is not a finite number exits 2 and names its field.  An extreme
value exits 0, 2 or 3 with no traceback; pytest's `error::RuntimeWarning`
turns a numpy warning into a failure, and a written result holds no nan or inf.
"""

import contextlib
import io
import os
import re
import tempfile

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from bandscan import cli

#: Per fuzzed request: its fixed arguments ("{out}" is a fresh directory), and the default
#: text of each float flag or vector it fuzzes, a list of components for a vector.
_PAIR = {"k0": ["0.5", "0.2", "0"], "m0": ["1", "0", "0"]}
_RAY = {"delta_tilde_min": "-0.05", "delta_tilde_max": "0.05"}
_LATTICE = {"exclusion_band": "1e-6", "tol": "1e-9"}
_MATERIALS = dict.fromkeys(("gamma_plus", "gamma_minus", "rho_plus", "rho_minus"), "1.2")
REQUESTS = {
    "classify": (["classify"], {"k": ["0.5", "0.2", "0"], **_LATTICE}),
    "gap": (["gap", "--out", "{out}"],
            {**_PAIR, "a": "0.1", "q": "1", **_RAY, **_LATTICE}),
    "gap-transmission": (["gap", "--problem", "transmission", "--out", "{out}"],
                         {**_PAIR, "a": "0.5", **_MATERIALS, **_RAY}),
    "gap-ellipsoid": (["gap", "--shape", "ellipsoid", "--out", "{out}"],
                      {**_PAIR, "a": "0.1", "semiaxes": ["1", "0.8", "0.5"]}),
    "bands": (["bands", "--samples", "11", "--out-file", "{out}/b.csv"],
              {**_PAIR, "a": "0.1", "q": "1", **_RAY, **_LATTICE}),
    "face-map": (["face-map", "--resolution", "21", "--out", "{out}/f.csv"],
                 {"m0": ["0", "0", "1"], "half_width": "1", **_LATTICE}),
    "global-scan": (["global-scan", "--samples", "20", "--out", "{out}/g.csv"],
                    {"omega_lo": "1", "omega_hi": "2", "a": "0.1", "q": "1"}),
    "capacitance": (["capacitance"], {"ellipsoid": ["1", "0.8", "0.5"]}),
}

NOT_FINITE = ("nan", "-nan", "inf", "-inf", "1e999", "", "x", "1e", "0x1", "1..2")
EXTREME = ("1e308", "-1e308", "1.7976931348623157e308", "1e-320", "-1e-320", "5e-324",
           "-5e-324", "0", "-0")


def _argv(request: str, values: dict, out: str) -> list[str]:
    fixed, defaults = REQUESTS[request]
    argv = [a.format(out=out) for a in fixed]
    texts = {name: ",".join(v) if isinstance(v, list) else v
             for name, v in {**defaults, **values}.items()}
    k = texts.pop("k", None)
    argv += [f"--{name.replace('_', '-')}={text}" for name, text in texts.items()]
    return argv + (["--", *k.split(",")] if k is not None else [])


@st.composite
def fuzzed(draw):
    """(request, {field: text}, the fields set to a value that is not a finite number)."""
    request = draw(st.sampled_from(sorted(REQUESTS)))
    defaults = REQUESTS[request][1]
    slots = [(name, i) for name, v in defaults.items()
             for i in (range(3) if isinstance(v, list) else [None])]
    chosen = draw(st.lists(st.sampled_from(slots), min_size=1, max_size=2, unique=True))
    values, bad = {}, set()
    for name, i in chosen:
        text = draw(st.sampled_from(NOT_FINITE + EXTREME))
        if text in NOT_FINITE:
            bad.add(name)
        if i is None:
            values[name] = text
        else:
            parts = list(values.get(name, defaults[name]))
            parts[i] = text
            values[name] = parts
    return request, values, bad


def _names(field: str) -> str:
    """The ways a refusal names `field`: its key, its flag, or argparse's metavar of `k`."""
    also = {"k": "K", "ellipsoid": "semiaxes"}.get(field, "")
    return "|".join(filter(None, (field, "--" + field.replace("_", "-"), also)))


@seed(20_260_601)
@settings(max_examples=400, deadline=None, database=None)
@given(case=fuzzed())
# the extremes that once ended in a traceback, a numpy warning or non-finite rows
@example(case=("capacitance", {"ellipsoid": ["1e308", "1", "1"]}, set()))
@example(case=("gap-ellipsoid", {"semiaxes": ["1e200", "1", "1"]}, set()))
@example(case=("face-map", {"half_width": "1e-320"}, set()))
@example(case=("classify", {"k": ["1e308", "0", "0"]}, set()))
@example(case=("gap", {"k0": ["0", "0", "1e308"], "m0": ["0", "0", "1"]}, set()))
@example(case=("bands", {"delta_tilde_min": "-1e308", "delta_tilde_max": "1e308"}, set()))
@example(case=("global-scan", {"omega_lo": "1e-320", "omega_hi": "1e308"}, set()))
@example(case=("gap-transmission", {"gamma_plus": "5e-324"}, set()))
@example(case=("gap-transmission", {"rho_minus": "5e-324"}, set()))
@example(case=("face-map", {"m0": ["1e308", "0", "1"]}, set()))
def test_float_flags_exit_with_their_documented_code(case):
    request, values, bad = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(request, values, tmp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse refuses text that is not a number
                rc = exc.code
        written = [open(os.path.join(root, n), encoding="ascii").read()
                   for root, _, names in os.walk(tmp) for n in names]
    err = err.getvalue()
    assert "Traceback" not in err, argv
    if bad:
        assert rc == 2, (argv, err)
        assert re.search(rf"(?<![\w-])({'|'.join(map(_names, values))})(?![\w-])", err), (argv, err)
    else:
        assert rc in (0, 2, 3), (argv, err)
    if rc == 0:
        for text in [out.getvalue(), *written]:
            assert not re.search(r"\b(nan|inf)\b", text), argv
