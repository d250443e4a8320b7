"""The four benchmark workloads: seeded request rounds and their output checks.

A workload is a list of rounds.  Every round holds the same mix of request
kinds in a seeded order, so a run that stops between rounds measures the
mix exactly; the seed only changes the Bloch pairs, scales, materials and
shapes inside the kinds.  Each request is an argv list for
``bandscan.cli.main`` plus a check that compares the command's output with
the values of ``reference`` (which does not import bandscan).

A check returns None when the output is right and a one-line reason when
it is not.  Defects of the program that a check tolerates on purpose are
counted in ``defects`` under a fixed label (see NOTES.md).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

Check = Callable[[object, str, str, Counter], "str | None"]


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Check


def _vec(v) -> str:
    return ",".join(repr(float(x)) if isinstance(x, float) else str(int(x)) for x in v)


def _k_m_flags(k0, m0) -> list[str]:
    # "--k0=..." and not "--k0 ...": argparse reads "-0.5,0.2,0" as a flag
    return [f"--k0={_vec(tuple(float(x) for x in k0))}", f"--m0={_vec(tuple(int(x) for x in m0))}"]


def read_report(path: str) -> dict[str, str]:
    fields = {}
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, val = (s.strip() for s in line.split("=", 1))
                fields[key] = val
    return fields


def _opt(s: str) -> float | None:
    return None if s == "none" else float(s)


def read_csv(text: str) -> tuple[str, np.ndarray]:
    lines = text.strip().splitlines()
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    return lines[0], np.array(rows, dtype=float)


def _all_close(got: np.ndarray, want: np.ndarray, rel: float = ref.REL) -> bool:
    return got.shape == want.shape and bool(
        np.all((got == want) | (np.abs(got - want) <= rel * np.maximum(np.abs(got), np.abs(want))))
    )


def _traceback(err: str) -> str | None:
    return "traceback on stderr" if "Traceback" in err else None


# ---------------------------------------------------------------------------
# seeded inputs


class PairDeck:
    """Seeded order-two (k0, m0) pairs on both sides of nu = 1.

    Built as tests/conftest.py::random_order_two_pairs builds them: k0 = m/2
    plus an in-plane offset of length u |m|, u in [0.05, 0.95], with the
    reference classifier in place of bandscan's.  A closed-form request costs
    more as |k0| grows, so m is dealt from a shuffled deck of all 124 shifts
    in [-2, 2]^3 and u from equal strata of [0.05, 0.95]: every run sees the
    same spread of sizes, and the seed changes only the values.
    """

    STRATA = 16

    def __init__(self, rng):
        self.rng = rng
        r = range(-2, 3)
        self.shifts = np.array([m for m in itertools.product(r, r, r) if any(m)])
        self.m_deck: list = []
        self.u_deck: list = []

    def draw(self) -> tuple[np.ndarray, tuple[int, int, int]]:
        rng = self.rng
        if not self.m_deck:
            self.m_deck = list(self.shifts[rng.permutation(len(self.shifts))])
        if not self.u_deck:
            self.u_deck = list(rng.permutation(self.STRATA))
        m, stratum = self.m_deck.pop(), self.u_deck.pop()
        m2 = float(m @ m)
        m0 = tuple(int(x) for x in m)
        while True:
            t = rng.standard_normal(3)
            t -= (t @ m) / m2 * m
            u = 0.05 + 0.9 * (stratum + rng.random()) / self.STRATA
            k0 = m / 2.0 + t / np.linalg.norm(t) * u * math.sqrt(m2)
            if ref.shifts(k0) == [m0] and abs(ref.ratio(k0, m0) - ref.SQRT_HALF) > 1e-3:
                return k0, m0


def axis_pair(rng, offset: float):
    """k0 = m0/2 + offset e_j for m0 = +-e_i, e_j a random other axis with a random sign.

    offset 0 gives nu = 0 and offset 0.2 gives nu = 0.16, as in the ROADMAP's
    k0 = (0.5, 0.2, 0).  All pairs with one offset are images of each other
    under the cube group, with the same eigenvalues and a similar oracle
    cost, so the seed changes the inputs more than the work.
    """
    axis, other = rng.permutation(3)[:2]
    m0 = [0, 0, 0]
    m0[axis] = int(rng.choice((-1, 1)))
    k0 = np.array(m0, dtype=float) / 2.0
    k0[other] = offset * rng.choice((-1.0, 1.0))
    assert ref.shifts(k0) == [tuple(m0)]
    return k0, tuple(m0)


def materials(rng, lo: float, hi: float) -> tuple[float, float, float, float]:
    return tuple(float(x) for x in rng.uniform(lo, hi, size=4))


def _coupling(mats, k0, m0) -> float:
    """|alpha + beta kh0.kh1|, the contrast factor of the transmission splitting."""
    g_plus, g_minus, r_plus, r_minus = mats
    alpha = 1.0 - g_minus / g_plus
    sigma = r_plus / r_minus
    beta = 3.0 * (sigma - 1.0) / (sigma + 2.0)
    k1 = np.asarray(k0) - np.asarray(m0)
    return abs(alpha + beta * float(k0 @ k1) / (np.linalg.norm(k0) * np.linalg.norm(k1)))


#: Largest predicted window share a verify-transmission request may have.
#: Of 160 requests at nu = 0.16, g_max = 3 and materials in [0.6, 1.6],
#: those failing began at a share of 0.91 and all at or below 0.90 passed;
#: of 24 requests run at both, g_max = 5 failed on the same ones as g_max = 3.
MAX_WINDOW_SHARE = 0.7


def _window_share(mats, k0, m0, a: float) -> float:
    """How far the two-mode branches stray from c|k0| on the oracle's ray, as a
    share of the half-width of its tracking window (a known defect: the window
    is centred at c|k0|, not at the predicted centre, see NOTES.md).

    The ray and the window are those `gap --verify` uses by default: delta_tilde
    in [-2 s, 2 s] and a half-width of max(5 s / |k0|, 1e-3), s the splitting.
    A request whose share passes 1 exits 3 with "expected 2 bands within ...".
    """
    centre, s, nu_val, knorm = ref.two_mode("transmission", k0, m0, a, 1.0, mats)
    lo, hi = ref.branches((centre, s, nu_val, knorm), np.linspace(-2.0 * s, 2.0 * s, 41))
    stray = max(float(np.abs(lo - knorm).max()), float(np.abs(hi - knorm).max()))
    return stray / max(5.0 * s / knorm, 1e-3)


def _material_flags(mats) -> list[str]:
    names = ("--gamma-plus", "--gamma-minus", "--rho-plus", "--rho-minus")
    return [f"{n}={v!r}" for n, v in zip(names, mats)]


# ---------------------------------------------------------------------------
# checks


def _check_prediction(fields: dict, model) -> str | None:
    edges = ref.gap_edges(model)
    want_verdict = "GapPredicted" if model[2] < 1.0 else "NoGap"
    if fields["verdict"] != want_verdict:
        return f"verdict {fields['verdict']} != {want_verdict}"
    if abs(float(fields["nu"]) - model[2]) > ref.REL * max(1.0, abs(model[2])):
        return f"nu {fields['nu']} != {model[2]!r}"
    lo, hi = _opt(fields["predicted_lo_over_c"]), _opt(fields["predicted_hi_over_c"])
    if edges is None:
        return None if lo is None and hi is None else "gap predicted where nu >= 1"
    if lo is None or not (ref.close(lo, edges[0]) and ref.close(hi, edges[1])):
        return f"predicted gap ({lo}, {hi}) != reference {edges}"
    return None


def _check_branches(text: str, model, samples: int, lo=-0.05, hi=0.05) -> str | None:
    header, rows = read_csv(text)
    if header != "delta_tilde,omega_minus_over_c,omega_plus_over_c":
        return f"branch CSV header {header!r}"
    dts = np.linspace(lo, hi, samples)
    if rows.shape != (samples, 3) or not _all_close(rows[:, 0], dts):
        return "branch CSV delta_tilde grid differs"
    want_lo, want_hi = ref.branches(model, dts)
    if not (_all_close(rows[:, 1], want_lo) and _all_close(rows[:, 2], want_hi)):
        return "branch CSV rows differ from the two-mode reference"
    return None


def gap_check(out_dir: str, problem: str, k0, m0, a: float, mats=None, q_ref=None) -> Check:
    """Closed-form gap request: report and branches.csv against the reference.

    q_ref, when given, is the analytic shape factor the report's q must match
    to 2 %; the prediction is then recomputed with the report's own q.
    """
    def check(rc, out, err, defects):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        fields = read_report(os.path.join(out_dir, "report.txt"))
        q = 1.0
        if q_ref is not None:
            q = float(fields["q"])
            if abs(q - q_ref) > 0.02 * q_ref:
                return f"q {q!r} not within 2% of analytic {q_ref!r}"
        model = ref.two_mode(problem, k0, m0, a, q, mats)
        with open(os.path.join(out_dir, "branches.csv"), encoding="ascii") as fh:
            csv = fh.read()
        return _traceback(err) or _check_prediction(fields, model) or _check_branches(csv, model, 101)
    return check


def bands_check(problem, k0, m0, a, mats, samples) -> Check:
    def check(rc, out, err, defects):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        return _traceback(err) or _check_branches(out, ref.two_mode(problem, k0, m0, a, 1.0, mats), samples)
    return check


def classify_check(k) -> Check:
    want = ref.shifts(k)

    def check(rc, out, err, defects):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        got = json.loads(out.strip().splitlines()[-1])
        if got["order"] != 1 + len(want) or [tuple(s["m"]) for s in got["shifts"]] != want:
            return f"classification {got['order']} {got['shifts']} != shifts {want}"
        for s in got["shifts"]:
            m = tuple(s["m"])
            if abs(s["nu"] - ref.nu(k, m)) > ref.REL * max(1.0, abs(s["nu"])):
                return f"nu for {m}: {s['nu']!r}"
            if s["verdict"] != ref.verdict(k, m):
                return f"verdict for {m}: {s['verdict']} != {ref.verdict(k, m)}"
        return _traceback(err)
    return check


def face_map_check(path: str, resolution: int) -> Check:
    def check(rc, out, err, defects):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        with open(path, encoding="ascii") as fh:
            _, rows = read_csv(fh.read())
        if rows.shape != (resolution * resolution, 3):
            return f"face map has {rows.shape[0]} rows"
        wrong = int(np.sum(rows[:, 2].astype(bool) != ref.face_disk(rows[:, 0], rows[:, 1])))
        return f"{wrong} face-map pixels differ from the disk" if wrong else _traceback(err)
    return check


def global_scan_check(path: str, lo: float, hi: float, samples: int, a: float) -> Check:
    def check(rc, out, err, defects):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        with open(path, encoding="ascii") as fh:
            _, rows = read_csv(fh.read())
        if rows.shape != (samples, 6) or not _all_close(rows[:, 0], np.linspace(lo, hi, samples)):
            return "global-scan omega grid differs"
        for om, k1, k2, k3, order, _ in rows:
            k = (k1, k2, k3)
            if order != 1 or ref.shifts(k):
                return f"cover at omega {om!r} is exceptional"
            if not ref.close(ref.covered_omega(k, a), om):
                return f"cover at omega {om!r} misses the dispersion relation"
        return _traceback(err)
    return check


#: The messages of rejected inputs must name the field at fault; the
#: higher-order rejection names only the condition (a known defect).
UNNAMED_HIGHER_ORDER = "higher-order rejection names no input field"


def rejected_check(fields: tuple[str, ...], known_defect: str | None = None,
                   wording: str = "") -> Check:
    def check(rc, out, err, defects):
        if rc != 2:
            return f"rejected input exited {rc}, not 2"
        if "Traceback" in err:
            return "traceback on a rejected input"
        msg = err.strip().splitlines()[-1] if err.strip() else ""
        if any(f in msg for f in fields):
            return None
        if known_defect and wording in msg:
            defects[known_defect] += 1
            return None
        return f"rejection message names none of {fields}: {msg!r}"
    return check


def verify_check(out_dir: str, problem: str, k0, m0, a, mats=None) -> Check:
    """gap --verify: exit 0, the report round-trips, and where an existing
    oracle test covers the case (nu = 0) the measured gap lies within that
    test's tolerance of the prediction."""
    from bandscan.reports import GapReport

    def check(rc, out, err, defects):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        with open(os.path.join(out_dir, "report.txt"), encoding="ascii") as fh:
            text = fh.read()
        if GapReport.from_text(text).to_text() != text:
            return "report.txt does not round-trip through GapReport.from_text"
        fields = read_report(os.path.join(out_dir, "report.txt"))
        model = ref.two_mode(problem, k0, m0, a, 1.0, mats)
        bad = _traceback(err) or _check_prediction(fields, model)
        if bad or model[2] != 0.0:  # the oracle tests cover nu = 0 only
            return bad
        lo, hi = _opt(fields["measured_lo_over_c"]), _opt(fields["measured_hi_over_c"])
        pred = ref.gap_edges(model)
        if lo is None:
            return "no measured gap at nu = 0"
        width, pred_width = hi - lo, pred[1] - pred[0]
        if problem == "dirichlet":
            # tests/test_gapscan.py::test_dirichlet_gap_brackets_from_above
            ok = 0.5 * pred_width <= width <= 2.0 * pred_width and lo >= model[3] - 1e-3 and hi > model[3]
        else:
            # tests/test_gapscan.py::test_transmission_gap_matches_prediction
            ok = abs(width - pred_width) <= 0.25 * pred_width
        return None if ok else f"measured gap ({lo!r}, {hi!r}) outside the oracle test tolerance of {pred}"
    return check


def capacitance_check(q_ref: float) -> Check:
    def check(rc, out, err, defects):
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}"
        q = float(out.split("q = ", 1)[1].split()[0])
        if abs(q - q_ref) > 0.02 * q_ref:
            return f"q {q!r} not within 2% of analytic {q_ref!r}"
        return _traceback(err)
    return check


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: `rounds(n)` returns n seeded rounds of requests."""

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: str, quick: bool):
        self.rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        self.workdir = workdir
        self.quick = quick
        self.out = os.path.join(workdir, "out")
        os.makedirs(self.out, exist_ok=True)
        self.pairs = PairDeck(self.rng)

    def probe(self) -> list[str]:
        """A fixed cheap request of this workload, for warm-up and set-up timing."""
        raise NotImplementedError

    def round(self, index: int) -> list[Request]:
        raise NotImplementedError

    def rounds(self, n: int) -> list[list[Request]]:
        out = []
        for i in range(n):
            reqs = self.round(i)
            out.append([reqs[j] for j in self.rng.permutation(len(reqs))])
        return out


class Predict(Workload):
    name = "predict"
    why = ("closed-form gap, classify, bands, face-map and global-scan requests plus rejected "
           "inputs: lattice, dirichlet and transmission do the work, no oracle runs")

    def probe(self):
        return ["gap", "--k0=0,0,0.5", "--m0=0,0,1", "--a=0.1", "--out", self.out]

    def _gap(self, problem, via_config=None):
        rng = self.rng
        k0, m0 = self.pairs.draw()
        a = float(rng.uniform(0.02, 0.6)) if problem == "dirichlet" else float(rng.uniform(0.1, 0.6))
        mats = materials(rng, 0.5, 2.0) if problem == "transmission" else None
        check = gap_check(self.out, problem, k0, m0, a, mats)
        if via_config is None:
            argv = ["gap", "--problem", problem, *_k_m_flags(k0, m0), f"--a={a!r}"]
            argv += _material_flags(mats) if mats else []
            return Request(f"gap-{problem}", argv + ["--out", self.out], check)
        lines = [f"problem = {problem}", f"k0 = {_vec(k0)}", f"m0 = {_vec(m0)}", f"a = {a!r}"]
        if mats:
            keys = ("gamma_plus", "gamma_minus", "rho_plus", "rho_minus")
            lines += [f"{key} = {v!r}" for key, v in zip(keys, mats)]
        with open(via_config, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        return Request("gap-config", ["gap", "--config", via_config, "--out", self.out], check)

    def _bands(self, problem):
        k0, m0 = self.pairs.draw()
        a = float(self.rng.uniform(0.1, 0.6))
        mats = materials(self.rng, 0.5, 2.0) if problem == "transmission" else None
        argv = ["bands", "--problem", problem, *_k_m_flags(k0, m0), f"--a={a!r}", "--samples", "2001"]
        argv += _material_flags(mats) if mats else []
        return Request("bands", argv, bands_check(problem, k0, m0, a, mats, 2001))

    def _higher_order(self):
        rng = self.rng
        while True:
            k = np.array([0.5, 0.5, rng.uniform(-0.3, 0.3)])[rng.permutation(3)]
            k *= rng.choice((-1.0, 1.0), size=3)
            found = ref.shifts(k)
            if len(found) >= 2:
                return k, found[int(rng.integers(len(found)))]

    def _rejected(self, index):
        rng = self.rng
        problem = str(rng.choice(("dirichlet", "transmission")))
        if index == 0:
            k0, m0 = self._higher_order()
            check = rejected_check(("k0",), UNNAMED_HIGHER_ORDER, "higher-order")
        else:
            while True:
                m = rng.integers(-2, 3, size=3)
                if not m.any():
                    continue
                t = rng.standard_normal(3)
                t -= (t @ m) / float(m @ m) * m
                t /= np.linalg.norm(t)
                mn = float(np.linalg.norm(m))
                if index == 1:  # |k0|/|m0| = sqrt(2)/2: inside the exclusion band
                    k0 = m / 2.0 + t * mn / 2.0
                else:  # off the plane 2 k.m = |m|^2
                    k0 = m / 2.0 + t * rng.uniform(0.05, 0.4) * mn + 0.05 * m / mn
                m0 = tuple(int(x) for x in m)
                if index == 2 or ref.shifts(k0) == [m0]:
                    break
            check = rejected_check(("k0", "m0"))
        argv = ["gap", "--problem", problem, *_k_m_flags(k0, m0), "--a=0.1", "--out", self.out]
        return Request("rejected", argv, check)

    def round(self, index):
        rng = self.rng
        reqs = [self._gap("dirichlet") for _ in range(14)]
        reqs += [self._gap("transmission") for _ in range(14)]
        for i, problem in enumerate(("dirichlet", "transmission")):
            reqs.append(self._gap(problem, os.path.join(self.workdir, f"r{index}-{i}.cfg")))
            reqs.append(self._bands(problem))
        ks = [self.pairs.draw()[0] for _ in range(2)]
        ks += [rng.uniform(-1.5, 1.5, size=3), self._higher_order()[0]]
        reqs += [Request("classify", ["classify", "--", *map(repr, map(float, k))], classify_check(k))
                 for k in ks]
        axis = [0, 0, 0]
        axis[int(rng.integers(3))] = int(rng.choice((-1, 1)))
        path = os.path.join(self.out, "face.csv")
        reqs.append(Request("face-map", ["face-map", f"--m0={_vec(axis)}", "--resolution", "201",
                                         "--out", path], face_map_check(path, 201)))
        lo = float(rng.uniform(0.3, 0.6))
        hi = lo + float(rng.uniform(0.4, 1.0))
        a = float(rng.uniform(0.02, 0.3))
        path = os.path.join(self.out, "scan.csv")
        reqs.append(Request("global-scan", ["global-scan", f"--omega-lo={lo!r}", f"--omega-hi={hi!r}",
                                            "--samples", "500", f"--a={a!r}", "--out", path],
                            global_scan_check(path, lo, hi, 500, a)))
        reqs += [self._rejected(i) for i in range(3)]
        return reqs


class VerifyDirichlet(Workload):
    name = "verify-dirichlet"
    why = ("gap --verify on the sound-soft sphere at n = 24 and 32, nu = 0 and 0.16: the FD "
           "stencil, FFT preconditioner and block LOBPCG do nearly all the work")

    def probe(self):
        return ["gap", "--verify", "--k0=0,0,0.5", "--m0=0,0,1", "--a=0.4", "--n=16", "--out", self.out]

    #: (n, nu offset, requests per round, range of a).  On a shared two-core
    #: VM one FD request moved by up to 40 % between runs, so the round puts
    #: six cheap n = 24, nu = 0 requests around the median; one n = 24 request
    #: at nu = 0.16 and one n = 32 request at nu = 0 (the CLI default grid)
    #: complete it.  An n = 32 request at nu = 0.16 takes 10-12 s and is left
    #: out.  n = 24 needs a >= 2 pi / 24 (two cells across the sphere).  At
    #: n = 32 along y the eigensolver does not converge on the 27-node mask,
    #: a in (0.3401, 0.3927]: a known defect (NOTES.md) that would add a 40 s
    #: failure to a 25 s round.
    MIX = ((24, 0.0, 6, (0.27, 0.4)), (24, 0.2, 1, (0.27, 0.4)), (32, 0.0, 1, (0.25, 0.34)))

    def round(self, index):
        reqs = []
        for n, offset, count, (lo, hi) in self.MIX[:2] if self.quick else self.MIX:
            count = 1 if self.quick else count
            # one a from each of `count` equal strata: the masked node count,
            # which sets the solver's work, then varies little between rounds
            for stratum in self.rng.permutation(count):
                a = float(lo + (hi - lo) * (stratum + self.rng.random()) / count)
                k0, m0 = axis_pair(self.rng, offset)
                argv = ["gap", "--verify", "--problem", "dirichlet", *_k_m_flags(k0, m0),
                        f"--a={a!r}", f"--n={n}", "--out", self.out]
                reqs.append(Request(f"verify-n{n}", argv, verify_check(self.out, "dirichlet", k0, m0, a)))
        return reqs


class VerifyTransmission(Workload):
    name = "verify-transmission"
    why = ("gap --verify on the penetrable sphere at g_max = 3, 4, 5: PWE assembly and a "
           "dense generalized eigh, the same gapscan layer with another oracle")

    def probe(self):
        return ["gap", "--verify", "--problem", "transmission", "--k0=0,0,0.5", "--m0=0,0,1",
                "--a=0.5", "--gamma-minus=1.3", "--g-max=3", "--out", self.out]

    def round(self, index):
        reqs = []
        # g_max = 4 is the median class; g_max = 5 costs 4.5 s a request
        for g_max in (3, 3, 3) if self.quick else (3, 3, 4, 4, 4, 5):
            if self.rng.random() < 0.5:
                # nu = 0 at a weak contrast near that of the oracle test the check
                # applies: materials (1, 1.2, 1.2, 1) at f = 0.01, i.e. a = 0.84
                k0, m0 = axis_pair(self.rng, 0.0)
                g_minus, r_plus = self.rng.uniform(1.1, 1.3, size=2)
                mats = (1.0, float(g_minus), float(r_plus), 1.0)
                a = float(self.rng.uniform(0.75, 0.9))
            else:
                k0, m0 = axis_pair(self.rng, 0.2)
                # keep the splitting well away from zero, and both bands well
                # inside the oracle's tracking window (see _window_share)
                while True:
                    mats = materials(self.rng, 0.6, 1.6)
                    a = float(self.rng.uniform(0.35, 0.9))
                    if (_coupling(mats, k0, m0) >= 0.15
                            and _window_share(mats, k0, m0, a) <= MAX_WINDOW_SHARE):
                        break
            argv = ["gap", "--verify", "--problem", "transmission", *_k_m_flags(k0, m0),
                    f"--a={a!r}", *_material_flags(mats), f"--g-max={g_max}", "--out", self.out]
            reqs.append(Request(f"verify-g{g_max}", argv,
                                verify_check(self.out, "transmission", k0, m0, a, mats)))
        return reqs


class Shapes(Workload):
    name = "shapes"
    why = ("mesh and ellipsoid inclusions: OFF reading, mesh validation, BEM assembly and "
           "the dense LU of up to 5,120 panels, which no other workload touches")

    def __init__(self, seed, workdir, quick):
        super().__init__(seed, workdir, quick)
        self.axes = tuple(float(x) for x in sorted(self.rng.uniform(0.7, 1.4, size=3), reverse=True))
        self.q_ell = ref.ellipsoid_q(*self.axes)
        self.files = {}

    def rounds(self, n):
        from bandscan import meshes

        # OFF files are written before timing, with bandscan's own generators
        for level in (2, 3) if self.quick else (2, 3, 4):
            for kind, mesh in (("ico", meshes.icosphere(level)),
                               ("ell", meshes.ellipsoid_mesh(*self.axes, subdivisions=level))):
                self.files[kind, level] = os.path.join(self.workdir, f"{kind}{level}.off")
                meshes.write_off(mesh, self.files[kind, level])
        return super().rounds(n)

    def probe(self):
        path = os.path.join(self.workdir, "octahedron.off")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("OFF\n6 8 0\n1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\n"
                     "3 0 2 4\n3 2 1 4\n3 1 3 4\n3 3 0 4\n3 2 0 5\n3 1 2 5\n3 3 1 5\n3 0 3 5\n")
        return ["capacitance", "--mesh", path]

    def _mesh(self, level):
        kind = str(self.rng.choice(("ico", "ell")))
        return self.files[kind, level], 1.0 if kind == "ico" else self.q_ell

    def round(self, index):
        rng = self.rng
        reqs = []
        k0, m0 = self.pairs.draw()
        a = float(rng.uniform(0.02, 0.6))
        argv = ["gap", "--shape", "ellipsoid", f"--semiaxes={_vec(self.axes)}", *_k_m_flags(k0, m0),
                f"--a={a!r}", "--out", self.out]
        reqs.append(Request("gap-ellipsoid", argv, gap_check(self.out, "dirichlet", k0, m0, a,
                                                             q_ref=self.q_ell)))
        reqs.append(Request("capacitance-320", ["capacitance", "--mesh", self.files["ell", 2]],
                            capacitance_check(self.q_ell)))
        for _ in range(3):
            path, q = self._mesh(3)
            k0, m0 = self.pairs.draw()
            a = float(rng.uniform(0.02, 0.6))
            argv = ["gap", "--shape", "mesh", "--mesh", path, *_k_m_flags(k0, m0), f"--a={a!r}",
                    "--out", self.out]
            reqs.append(Request("gap-mesh-1280", argv,
                                gap_check(self.out, "dirichlet", k0, m0, a, q_ref=q)))
        reqs.append(Request("capacitance-refine-320", ["capacitance", "--mesh", self.files["ico", 2],
                                                       "--refine-check"], capacitance_check(1.0)))
        path, q = self._mesh(3 if self.quick else 4)
        reqs.append(Request("capacitance-large", ["capacitance", "--mesh", path], capacitance_check(q)))
        return reqs


WORKLOADS = {w.name: w for w in (Predict, VerifyDirichlet, VerifyTransmission, Shapes)}
WORKLOAD_NAMES = list(WORKLOADS)
