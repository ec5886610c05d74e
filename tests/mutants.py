"""Mutation check of the tests: do they fail when the program is wrong?

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant replaces one exact snippet of one file under src/ (the snippet
must occur exactly once). The script copies src/, tests/, perfbench/ and
pyproject.toml into a temporary directory, applies the mutant there, runs
the tests the mutant names with pytest, and reports it as killed (some
test failed) or survived (all passed). The working tree is never changed.
A mutant marked equivalent computes the same bits as the program, so it
is expected to survive; its entry says why. The exit status is 0 when
every mutant does what its entry expects.

The file name does not match test_*.py, so the tier-1 suite does not
collect it. A change to a rule of the program should add its mutants here.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench")

MODEL = "src/bgsub/frame_model.py"
MODEL_TESTS = ("tests/test_frame_model.py", "tests/test_gmm.py", "tests/test_acceptance.py")
DIGESTS = "tests/test_reference_digests.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    # Why the mutant cannot change a result, for one expected to survive.
    equivalent: str | None = None


MUTANTS = [
    # Mixture rules.
    Mutant(
        "replace-highest-weight",
        MODEL,
        "jt[full] = np.argmin(",
        "jt[full] = np.argmax(",
        (*MODEL_TESTS, DIGESTS),
    ),
    Mutant(
        "match-radius-0.8",
        MODEL,
        "np.multiply(p.d * p.d, var, out=fa)",
        "np.multiply(0.8 * p.d * p.d, var, out=fa)",
        (*MODEL_TESTS, DIGESTS),
    ),
    Mutant(
        "prefix-threshold-plus-0.2",
        MODEL,
        "    m = b.size\n",
        "    m = b.size\n    t = t + 0.2\n",
        (*MODEL_TESTS, DIGESTS),
    ),
    # Slot loops bounded by kl, the highest live count.
    Mutant(
        "network-one-row-short",
        MODEL,
        "for top in range(kl - 1, 0, -1):",
        "for top in range(kl - 2, 0, -1):",
        MODEL_TESTS,
    ),
    Mutant(
        "decay-one-row-short",
        MODEL,
        "w[:kl, cut] *= 1.0 - p.alpha",
        "w[:kl - 1, cut] *= 1.0 - p.alpha",
        MODEL_TESTS,
    ),
    Mutant(
        "no-raise-after-growth",
        MODEL,
        "        kl = int(grown.max(initial=kl))\n",
        "",
        MODEL_TESTS,
    ),
    # The all-matched blend of _match_and_blend.
    Mutant(
        "scalar-blend-with-one-miss",
        MODEL,
        "every = np.count_nonzero(hit) == hit.size",
        "every = np.count_nonzero(hit) >= hit.size - 1",
        MODEL_TESTS,
    ),
    Mutant(
        "scalar-floor-on-masked-blend",
        MODEL,
        "np.maximum(var, np.multiply(hit, p.var_min, out=d2), out=var)",
        "np.maximum(var, p.var_min, out=var)",
        MODEL_TESTS,
    ),
    Mutant(
        "pdf-scalar-blend-plain-alpha",
        MODEL,
        "    if p.rho_mode == PDF_FAITHFUL:\n        # alpha",
        "    if p.rho_mode == PDF_FAITHFUL and not every:\n        # alpha",
        MODEL_TESTS,
    ),
    Mutant(
        "gain-alpha-at-every-pixel",
        MODEL,
        "w[0, cut] += gain",
        "w[0, cut] += p.alpha",
        MODEL_TESTS,
    ),
    # The blend from the match test's difference.
    Mutant(
        "variance-one-keep-short-scalar",
        MODEL,
        "d2 *= rho * keep * keep",
        "d2 *= rho * keep",
        MODEL_TESTS,
    ),
    Mutant(
        "variance-one-keep-short-masked",
        MODEL,
        "np.multiply(np.multiply(rho, keep, out=diff[0]), keep, out=diff[0])",
        "np.multiply(rho, keep, out=diff[0])",
        MODEL_TESTS,
    ),
    Mutant(
        # alpha (keep keep) differs from (alpha keep) keep in the last bit
        # at alpha 0.03, which the exact oracle tests use.
        "scalar-factor-in-another-order",
        MODEL,
        "d2 *= rho * keep * keep",
        "d2 *= rho * (keep * keep)",
        MODEL_TESTS,
    ),
    Mutant(
        "mean-moved-before-the-rate",
        MODEL,
        "    diff *= rho\n    mu += diff\n",
        "    mu += diff\n    diff *= rho\n",
        MODEL_TESTS,
    ),
    Mutant(
        "pdf-exponent-negated-first",
        MODEL,
        "expo = np.divide(d2, np.multiply(2.0, var, out=fb), out=fb)\n"
        "        rho *= np.exp(np.negative(expo, out=expo), out=expo)",
        "expo = np.divide(-d2, np.multiply(2.0, var, out=fb), out=fb)\n"
        "        rho *= np.exp(expo, out=expo)",
        MODEL_TESTS,
        equivalent="IEEE division is sign-symmetric: (-a) / b == -(a / b) bit for bit",
    ),
    # Shadow test and tracker.
    Mutant(
        "shadow-cd-max-0.9",
        "src/bgsub/shadow.py",
        "(cd <= params.cd_max)",
        "(cd <= 0.9 * params.cd_max)",
        ("tests/test_shadow.py", DIGESTS),
    ),
    Mutant(
        "tracker-farthest-pairs-first",
        "src/bgsub/events.py",
        "pairs.sort()",
        "pairs.sort(reverse=True)",
        ("tests/test_events.py",),
    ),
]


def run_mutant(m: Mutant) -> tuple[bool, str]:
    """(killed, pytest's summary line) of one mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / m.file
        text = target.read_text(encoding="utf-8")
        if text.count(m.snippet) != 1:
            raise SystemExit(f"{m.name}: snippet found {text.count(m.snippet)} times in {m.file}")
        target.write_text(text.replace(m.snippet, m.replacement), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *m.tests],
            cwd=work,
            capture_output=True,
            text=True,
        )
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else proc.stderr.strip()
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{m.name}: pytest exited {proc.returncode}: {summary}")
    return proc.returncode == 1, re.sub(r"=+", "", summary).strip()


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    as_expected = True
    for m in chosen:
        killed, summary = run_mutant(m)
        verdict = "killed" if killed else "survived"
        ok = killed != (m.equivalent is not None)
        as_expected &= ok
        note = f" (equivalent: {m.equivalent})" if m.equivalent else ""
        print(f"{m.name}: {verdict}{'' if ok else ' UNEXPECTED'}{note} [{summary}]", flush=True)
    return 0 if as_expected else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
