"""Workloads, seeded inputs, output checks and metrics of the benchmark.

Three workloads drive ``curvepencils`` through its public API from one
thread, as a closed loop with one client: the next operation starts when
the previous one has returned.

- ``catalog-lines``: `build_catalog` on deleted B3, an all-line
  arrangement.  Time goes to the global block-pair search and the
  translated-sweep prefilter; the kernel-solve fallback barely runs.
- ``catalog-curves``: `build_catalog` on exfin3, six lines and two
  quartics.  Each quartic has only two rational vote points, so
  `member_of_pencil_dividing` and special-fiber detection on degree-4
  pencils dominate: the search layer runs in a different way than on
  ``catalog-lines``.  Too long per catalog for the timed set of
  BENCHMARK.json; it runs by hand and in the traced pass.
- ``pencil-reports``: the twelve pencil-level golden CLI reports (``tf``,
  ``check``, ``classify``, ``reconstruct``, ``ray --tf``, ``validate``)
  through `curvepencils.cli.main`, in a seeded order.  No block-pair search
  runs at all, so a search or sweep optimisation should leave it unchanged.

Inputs come from ``data/``, a snapshot of the repository's fixtures and
golden reports, so the benchmark's inputs do not move when tests do.  A
catalog run alternates two inputs, one catalog at a time, so each is timed
several times: the fixture as committed, shared by every seed, and the
seed's own seeded signed permutation of the coordinates (the fixture again
for seed 0), which keeps labels, infinity line and the combinatorial answer
but moves vote points and timings.  Timings are
scaled to a reference host speed measured in the same run; see `measure`.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

from layers import Tracer

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
FIXTURES = DATA / "fixtures"
GOLDEN = DATA / "golden"

CATALOG_FIXTURES = {
    "catalog-lines": "deletedB3.json",
    "catalog-curves": "exfin3.json",
}

# Suciu, "Translated tori in the characteristic varieties of complex
# hyperplane arrangements" (Topology Appl. 2002): deleted B3 has 7 local and
# 5 global components and one 1-dimensional translated component of order 2.
SUCIU_DELETED_B3 = {"local": 7, "global": 5, "translated": 1}

# The non-catalog golden CLI reports: (golden file, argv with fixture names).
REPORT_CASES = (
    ("validate_deletedB3.txt", ("validate", "deletedB3.json")),
    ("tf_deletedB3.txt", ("tf", "deletedB3.json", "--pencil", "fW.json")),
    ("tf_a2.txt", ("tf", "a2.json", "--pencil", "a2pencil.json")),
    ("tf_a3.txt", ("tf", "a3.json", "--pencil", "a3pencil.json")),
    ("tf_exfin3.txt", ("tf", "exfin3.json", "--pencil", "exfin3pencil.json")),
    ("check_b3.txt", ("check", "b3.json", "--pencil", "b3pencil.json")),
    ("check_ceva2.txt", ("check", "ceva2.json", "--pencil", "ceva2pencil.json")),
    (
        "check_ceva3.txt",
        ("check", "ceva3.json", "--pencil", "ceva3pencil.json",
         "--clusters", "3,3,3,3,3,3,3,3,3"),
    ),
    (
        "check_ex2.txt",
        ("check", "ex2.json", "--pencil", "ex2pencil.json", "--clusters", "3,3,3,3"),
    ),
    ("classify_ex2.txt", ("classify", "ex2.json", "--pencil", "ex2pencil.json")),
    ("reconstruct_ceva2.txt", ("reconstruct", "ceva2.json", "--subspace", "ceva2subspace.json")),
    ("ray_deletedB3.txt", ("ray", "deletedB3.json", "--exponents", "1,-1,-1,1,2,0,-2,0", "--tf")),
)

WORKLOADS = tuple(CATALOG_FIXTURES) + ("pencil-reports",)

SETUP_REPEATS = 21

# Mean seconds of one `reference_kernel` call on a 2-core x86-64 host under
# the load it had while the benchmark was written (its least time there was
# 1.25 ms).  Timings are reported at this host speed; see `measure`.
REFERENCE_S = 2.0e-3
# Share of each round's time spent timing the reference kernel after it.
REFERENCE_SHARE = 0.02

# Inputs prepared per catalog run: the committed fixture and the seed's own
# coordinate change.  The loop alternates them.
CATALOG_INPUTS = 2


# ---------------------------------------------------------------------------
# seeded coordinate changes, done here so the program sees only the result

Poly = dict[tuple[int, int, int], int]
Matrix = tuple[tuple[int, int, int], ...]


_TERM = re.compile(r"([+-]?)([0-9xyz^*]+)")


def parse_poly(text: str) -> Poly:
    """Integer ternary form in the fixture syntax ``c*x^a*y^b*z^c``."""
    s = text.replace(" ", "")
    terms: Poly = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None:
            raise ValueError(f"cannot parse {text!r}")
        pos = m.end()
        coeff = -1 if m.group(1) == "-" else 1
        exps = [0, 0, 0]
        for factor in m.group(2).split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            var, _, power = factor.partition("^")
            if var not in ("x", "y", "z") or (power and not power.isdigit()):
                raise ValueError(f"unsupported factor {factor!r} in {text!r}")
            exps["xyz".index(var)] += int(power or 1)
        key = (exps[0], exps[1], exps[2])
        terms[key] = terms.get(key, 0) + coeff
    return {k: v for k, v in terms.items() if v}


def format_poly(poly: Poly) -> str:
    parts = []
    for exps, coeff in sorted(poly.items(), reverse=True):
        factors = [
            v if e == 1 else f"{v}^{e}" for v, e in zip("xyz", exps) if e
        ]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        term = "*".join(factors)
        if not parts:
            parts.append(term if coeff > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if coeff > 0 else f"- {term}")
    return " ".join(parts)


def coordinate_changes(seed: int, count: int) -> list[Optional[Matrix]]:
    """The run's coordinate changes (x, y, z) -> M (x, y, z), in order.

    The first input is always the fixture as committed (None), so every run
    checks the recorded hash; seed 0 keeps it for all inputs.  Other seeds
    follow it with distinct signed permutations: the unimodular matrices
    with entries in {-1, 0, 1} that keep coefficient heights.  General ones
    were tried and left out: on exfin3 one took 46 s against 17-20 s for
    the others, a cost spread no run length could make steady.  The two
    scalar matrices act trivially on the plane and are skipped.
    """
    if seed == 0:
        return [None] * count
    choices = [
        (perm, signs)
        for perm in itertools.permutations(range(3))
        for signs in itertools.product((1, -1), repeat=3)
        if not (perm == (0, 1, 2) and len(set(signs)) == 1)
    ]
    return [None] + [
        tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(3)) for i in range(3))
        for perm, signs in random.Random(seed).sample(choices, count - 1)
    ]


def substitute(poly: Poly, m: Matrix) -> Poly:
    """poly(M (x, y, z)) for a signed permutation M."""
    out: Poly = {}
    for exps, coeff in poly.items():
        new = [0, 0, 0]
        for i, e in enumerate(exps):
            j = next(j for j in range(3) if m[i][j])
            new[j] += e
            coeff *= m[i][j] ** e
        key = (new[0], new[1], new[2])
        out[key] = out.get(key, 0) + coeff
    return out


def arrangement_doc(fixture: str, m: Optional[Matrix]) -> dict:
    """The fixture as committed (m None) or under the coordinate change m."""
    doc = json.loads((FIXTURES / fixture).read_text())
    if m is not None:
        for comp in doc["components"]:
            comp["poly"] = format_poly(substitute(parse_poly(comp["poly"]), m))
    return doc


# ---------------------------------------------------------------------------
# output checks


def catalog_text(catalog) -> str:
    """Canonical catalog JSON, as ``curvepencils catalog --json`` renders it."""
    return json.dumps(catalog.to_json(), indent=2, sort_keys=True)


def _rational_rref(vectors: list[list[int]]) -> list[list[str]]:
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    out: list[list[Fraction]] = []
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rows and col < ncols:
        pivot = next((r for r in rows if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows.remove(pivot)
        pivot = [v / pivot[col] for v in pivot]
        rows = [[a - r[col] * b for a, b in zip(r, pivot)] for r in rows]
        out = [[a - r[col] * b for a, b in zip(r, pivot)] for r in out]
        out.append(pivot)
        col += 1
    return [[str(v) for v in row] for row in out]


def fingerprint(doc: dict) -> list:
    """Coordinate-free summary of a catalog document.

    Per record: kind, dimension, a canonical key of the saturated exponent
    lattice (the reduced row echelon form of its rational span), the torsion
    values and the flags; sorted.  Point coordinates are left out.
    """
    entries = []
    for rec in doc["records"]:
        rows = rec["subtorus"]
        columns = [[row[i] for row in rows] for i in range(rec["dimension"])]
        entries.append(
            [rec["kind"], rec["dimension"], _rational_rref(columns), rec["torsion"], rec["flags"]]
        )
    return sorted(entries, key=json.dumps)


def record_counts(doc: dict) -> dict[str, int]:
    counts = {"local": 0, "global": 0, "translated": 0}
    for rec in doc["records"]:
        counts[rec["kind"]] = counts.get(rec["kind"], 0) + 1
    return counts


def expected_catalogs() -> dict:
    return json.loads((DATA / "expected.json").read_text())


def check_catalog(fixture: str, committed: bool, catalog, expected: dict) -> list[str]:
    """Problems with one catalog; empty when it is correct.

    ``committed`` marks the fixture as committed, whose canonical JSON must
    hash to the recorded sha256; every input must match the recorded
    coordinate-free fingerprint.
    """
    text = catalog_text(catalog)
    doc = json.loads(text)
    want = expected[fixture]
    problems = []
    if committed:
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != want["sha256_seed0"]:
            problems.append(f"catalog sha256 {digest} != {want['sha256_seed0']}")
    if fingerprint(doc) != want["fingerprint"]:
        problems.append("coordinate-free fingerprint differs")
    if fixture == "deletedB3.json" and record_counts(doc) != SUCIU_DELETED_B3:
        problems.append(f"record counts {record_counts(doc)} != {SUCIU_DELETED_B3}")
    return problems


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Task:
    """One operation of the closed loop and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def import_program():
    """Import ``curvepencils`` afresh; returns (catalog, arrangement, cli)."""
    for name in [m for m in sys.modules if m == "curvepencils" or m.startswith("curvepencils.")]:
        del sys.modules[name]
    return (
        importlib.import_module("curvepencils.catalog"),
        importlib.import_module("curvepencils.arrangement"),
        importlib.import_module("curvepencils.cli"),
    )


def _cli_call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _report_check(golden: str) -> Callable[[tuple[int, str, str]], list[str]]:
    want = (GOLDEN / golden).read_text()

    def check(result: tuple[int, str, str]) -> list[str]:
        code, out, err = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if err:
            problems.append(f"stderr {err.strip()!r}")
        if out != want:
            problems.append("report differs from the golden file")
        return problems

    return check


def build_tasks(
    program, workload: str, changes: list[Optional[Matrix]], fixture: Optional[str] = None
) -> list[Task]:
    """Generate the inputs, parse them and return the tasks.

    ``program`` is what `import_program` returns.  A catalog workload gets
    one task per coordinate change of its fixture (or of ``fixture``, which
    tests use for small arrangements); pencil-reports gets the twelve
    reports and ignores ``changes``.
    """
    catalog_mod, arrangement_mod, cli = program
    if workload == "pencil-reports":
        tasks = []
        for golden, argv in REPORT_CASES:
            args = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
            tasks.append(
                Task(golden, lambda args=args: _cli_call(cli, args), _report_check(golden))
            )
        return tasks
    fixture = fixture or CATALOG_FIXTURES[workload]
    expected = expected_catalogs()
    tasks = []
    for m in changes:
        arr = arrangement_mod.Arrangement.from_json(arrangement_doc(fixture, m))
        tasks.append(
            Task(
                f"{fixture} under {m or 'no coordinate change'}",
                lambda arr=arr: catalog_mod.build_catalog(arr),
                lambda cat, committed=m is None: check_catalog(fixture, committed, cat, expected),
            )
        )
    return tasks


def rounds(workload: str, tasks: list[Task], seed: int) -> Iterator[list[Task]]:
    """The closed loop's rounds: one catalog, or one pass over the reports.

    Report passes are whole, so every report weighs the same in the
    latency percentiles, and each pass is shuffled by the seed.
    """
    if workload == "pencil-reports":
        rng = random.Random(seed)
        while True:
            order = list(tasks)
            rng.shuffle(order)
            yield order
    else:
        for task in itertools.cycle(tasks):
            yield [task]


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0

    def record(self, task: Task, result, error: Optional[str], seed: int) -> None:
        self.attempted += 1
        problems = [error] if error else task.check(result)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAIL seed {seed} {task.label}: {p}", file=sys.stderr)


def run_task(task: Task) -> tuple[object, Optional[str], float]:
    """Run one operation; returns (result, error text or None, seconds)."""
    start = time.perf_counter()
    try:
        result = task.run()
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, f"raised {type(exc).__name__}: {exc}", time.perf_counter() - start
    return result, None, time.perf_counter() - start


def reference_kernel() -> dict:
    """Fixed pure-Python work like the program's: a sparse product of two
    ternary forms with rational coefficients, six times.  It never changes
    with the program, so its time in a run measures the host's speed."""
    p = {(i, 7 - i, 1): Fraction(i + 1, 3) for i in range(8)}
    q = {(i, 9 - i, 0): Fraction(2 * i - 5, 7) for i in range(10)}
    for _ in range(6):
        r: dict = {}
        for (a, b, c), u in p.items():
            for (d, e, f), v in q.items():
                key = (a + d, b + e, c + f)
                r[key] = r.get(key, 0) + u * v
    return r


def time_reference(samples: list[float], seconds: float) -> None:
    """Time `reference_kernel` for about ``seconds``, at least once."""
    until = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        reference_kernel()
        now = time.perf_counter()
        samples.append(now - start)
        if now >= until:
            return


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Outcome]:
    """Untraced closed-loop run; returns the end-to-end metrics.

    Set-up (a fresh import of the program plus generating and parsing the
    inputs) is repeated.  A new round starts only if, taking as long as the
    last one, it would end within ``seconds``; the first round always runs.
    Each operation is timed by its mean time in the run.  A report runs once
    per pass, over a hundred times in a 60 s run; each of the two catalog
    inputs runs two to four times.  A round's time is the sum over its
    operations, and ``catalog_s`` the median over the run's distinct rounds:
    over its catalog inputs, or the one pass of reports.  With one client
    the loop completes a round's operations per round time.

    The host's speed drifts by up to 2x over seconds and minutes, so that a
    whole run can be slow and no statistic of the program's times alone is
    steady.  After each set-up and each round the loop therefore times
    `reference_kernel`, which never changes with the program, for a small
    share of the time, and reports every timing at the host speed at which
    the kernel takes `REFERENCE_S` on average: the operations' mean times
    are divided by the run's mean kernel time over `REFERENCE_S` (the host
    slowdown; rates are multiplied), and each set-up by that of the kernel
    call right after it, of which ``setup_s`` is the median.  The measured
    values are printed before the metrics.
    """
    setups: list[float] = []
    setup_reference: list[float] = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        tasks = build_tasks(import_program(), workload, coordinate_changes(seed, CATALOG_INPUTS))
        setups.append(time.perf_counter() - start)
        time_reference(setup_reference, 0)
    outcome = Outcome()
    latencies: dict[str, list[float]] = {}
    distinct_rounds: set[tuple[str, ...]] = set()
    reference: list[float] = []
    start = time.perf_counter()
    for batch in rounds(workload, tasks, seed):
        begun = time.perf_counter()
        for task in batch:
            result, error, elapsed = run_task(task)
            latencies.setdefault(task.label, []).append(elapsed)
            outcome.record(task, result, error, seed)
        distinct_rounds.add(tuple(sorted(task.label for task in batch)))
        time_reference(reference, REFERENCE_SHARE * (time.perf_counter() - begun))
        now = time.perf_counter()
        if (now - start) + (now - begun) > seconds:
            break
    slowdown = statistics.fmean(reference) / REFERENCE_S
    mean = {label: statistics.fmean(v) / slowdown for label, v in latencies.items()}
    round_s = statistics.median(sum(mean[label] for label in r) for r in distinct_rounds)
    print(
        f"host slowdown {slowdown:.4f} (mean of {len(reference)} reference calls);"
        f" measured catalog_s {round_s * slowdown:.6g} s,"
        f" median set-up {statistics.median(setups):.6g} s"
    )
    setup_s = statistics.median(
        elapsed * REFERENCE_S / ref for elapsed, ref in zip(setups, setup_reference)
    )
    metrics = {
        "catalog_s": (round_s, "s"),
        "report_ms_p50": (1000 * percentile(list(mean.values()), 50), "ms"),
        "report_ms_p90": (1000 * percentile(list(mean.values()), 90), "ms"),
        "reports_per_s": (len(batch) / round_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, outcome


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def one_pass(
    program,
    workload: str,
    seed: int,
    outcome: Outcome,
    tracer: Optional[Tracer] = None,
    fixture: Optional[str] = None,
) -> tuple[float, dict[str, int]]:
    """Generate and parse the seed's own input, then run one round on it.

    The round is one catalog, of the seed's first coordinate change (the
    committed fixture for seed 0), or every report in the seed's order.
    With a tracer the whole pass is traced.  Returns the pass's seconds and
    its catalog record counts.
    """
    counts = {"local": 0, "global": 0, "translated": 0}
    start = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        tasks = build_tasks(program, workload, coordinate_changes(seed, 2)[-1:], fixture)
        results = [(task, *run_task(task)[:2]) for task in next(rounds(workload, tasks, seed))]
    elapsed = time.perf_counter() - start
    for task, result, error in results:
        outcome.record(task, result, error, seed)
        if error is None and workload != "pencil-reports":
            for kind, n in record_counts(json.loads(catalog_text(result))).items():
                counts[kind] += n
    return elapsed, counts


def traced_pass(workload: str, seed: int, fixture: Optional[str] = None):
    """Untraced and traced passes over the same inputs.

    A first untraced pass warms the interpreter; the overhead is the traced
    pass minus the second untraced one.  Returns (tracer, record counts of
    the traced pass, overhead seconds, outcome).
    """
    outcome = Outcome()
    program = import_program()
    one_pass(program, workload, seed, outcome, fixture=fixture)
    plain, _ = one_pass(program, workload, seed, outcome, fixture=fixture)
    tracer = Tracer()
    traced, counts = one_pass(program, workload, seed, outcome, tracer, fixture)
    return tracer, counts, traced - plain, outcome
