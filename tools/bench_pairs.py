"""Write a BENCH_<n>.json: alternating runs of perfbench on two source trees.

Usage, from anywhere, with each tree unpacked from a commit (``git archive``):

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_21.json \\
        --workload full-clean --workload delta-lossy --seed 1 --seed 7 \\
        --pairs 10 --seconds 30

For every workload and seed it runs ``perfbench/run.py --trace 0`` in each
tree, one process at a time, ``--pairs`` times: odd pairs run the parent
first, even pairs the change first.  The file records both JSON lines each
run prints last ('details' and 'summary'), and per workload and seed each
side's median, quartiles (``statistics.quantiles``, inclusive), range and
run count of every gated metric, how many pairs the change won (ties count
for neither side), the same spread of the ungated ``peak_rss_setup_mb``
(the peak once set-up is done, from the 'details' line) and of
``minflt_per_op`` (the minor page faults of the run's whole process, the
``RUSAGE_CHILDREN`` ``ru_minflt`` delta around it, divided by its
``attempted`` operations; both printed), the digests and fail shares, the
machine, and each tree's ``src_sha256``: the SHA-256 over each
``src/**/*.py`` file's path relative to the tree (``src/fotasim/...``), a
NUL byte and its bytes, in sorted path order.  ``--extra FILE`` adds a JSON
value under ``"extra"``.
Before the pairs it runs each tree's tier-1 suite once, ``python -m pytest
-q -p no:cacheprovider`` with ``src`` first on ``PYTHONPATH``, and records
its exit status, wall time and last output line under ``"suite"``.  Per
workload and seed it also runs each tree once with ``--seconds 0 --trace
1``, records both runs' metrics under ``"traced"``, and prints every count
row (units ``count/op``, ``B/op`` and ``us/op``) whose value differs
between the trees.  Per workload and seed it also runs each tree once
under cProfile, ``perfbench/run.py --seconds 0`` through ``runpy`` with
``src`` and ``perfbench`` first on ``sys.path``, and records under
``"profiled"`` the calls per operation that touch ``src/fotasim``: all of
them (within the package, into it, and out of it to the standard library
and builtins) and those of the package's own functions.  Both are exact
counts of the whole run, set-up included, divided by its operations; calls
that do not touch the package are left out, because the benchmark's clock
loop runs on a timer and its calls vary from run to run.  Each tree's
``src/**/*.py`` line count is recorded as ``src_lines``, and each file's as
``src_lines_by_module`` (keyed by its path under ``src``); the differences
of all three, and each module whose count changed, are printed.  Per
workload and seed one more ``--seconds 0`` run per tree wraps every binding
of ``integrity.reflect`` in the package's modules and records under
``"reflected"`` the bytes bit-reversed per operation inside the workload's
``execute``: the exact byte cost of the CRCs an operation pays, printed
beside the call counts.  The same run wraps every binding of
``integrity.crc32`` and ``integrity.image_crcs`` and records under
``"crc_memo"`` the calls per operation inside ``execute`` that hit the
CRC memo, those that bit-reverse no byte of a non-empty buffer, and those
that miss it, every other call; both are printed when they differ between
the trees.

Exits 1 when any run (traced, profiled and reflected ones too) or either
suite exits non-zero, or a run prints no result or reports ``correct:
false``; the file is written either way.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
COUNT_UNITS = ("count/op", "B/op", "us/op")

# Run in a tree's root with the workload and seed as arguments; prints one
# JSON line of call counts per operation (see the module docstring).
PROFILE = """
import contextlib, cProfile, io, json, os, runpy, sys
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
sys.argv = ["perfbench/run.py", "--workload", sys.argv[1], "--seed", sys.argv[2], "--seconds", "0"]
out, profile = io.StringIO(), cProfile.Profile()
with contextlib.redirect_stdout(out):
    try:
        profile.runcall(runpy.run_path, "perfbench/run.py", run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise
package = os.path.abspath("src/fotasim") + os.sep
inside = lambda code: getattr(code, "co_filename", "").startswith(package)
entries = [e for e in profile.getstats() if inside(e.code)]  # by code object: no merged labels
own = sum(e.callcount for e in entries)
out_of = sum(c.callcount for e in entries for c in e.calls or () if not inside(c.code))
ops = json.loads(out.getvalue().splitlines()[-1])["attempted"]
print(json.dumps({"calls": (own + out_of) / ops, "fotasim_calls": own / ops}))
"""

# Run like PROFILE; prints one JSON line: the bytes that every binding of
# integrity.reflect in the package's modules reverses inside the workload's
# execute, and the CRC memo's hits and misses there, per operation.
REFLECTED = """
import contextlib, importlib, io, json, os, pkgutil, runpy, sys
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
sys.argv = ["perfbench/run.py", "--workload", sys.argv[1], "--seed", sys.argv[2], "--seconds", "0"]
import fotasim, workloads
modules = [importlib.import_module("fotasim." + m.name) for m in pkgutil.iter_modules(fotasim.__path__)]
integrity, inside, reversed_bytes, memo = fotasim.integrity, [False], [0], {"hits": 0, "misses": 0}
reflect = integrity.reflect
def counted(data):
    if inside[0]:
        reversed_bytes[0] += len(data)
    return reflect(data)
def looked_up(crc):
    def wrapper(data, *args):
        before = reversed_bytes[0]
        result = crc(data, *args)
        if inside[0]:
            hit = reversed_bytes[0] == before and memoryview(data).nbytes > 0
            memo["hits" if hit else "misses"] += 1
        return result
    return wrapper
wrappers = {reflect: counted, integrity.crc32: looked_up(integrity.crc32),
            integrity.image_crcs: looked_up(integrity.image_crcs)}
for module in [fotasim, *modules]:
    for name, value in list(vars(module).items()):
        for original, wrapper in wrappers.items():
            if value is original:
                setattr(module, name, wrapper)
def timed(execute):
    def wrapper(self, state):
        inside[0] = True
        try:
            return execute(self, state)
        finally:
            inside[0] = False
    return wrapper
for workload in workloads.WORKLOADS.values():
    workload.execute = timed(workload.execute)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        runpy.run_path("perfbench/run.py", run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise
ops = json.loads(out.getvalue().splitlines()[-1])["attempted"]
print(json.dumps({"reflected_bytes": reversed_bytes[0] / ops,
                  "crc_memo": {key: count / ops for key, count in memo.items()}}))
"""


def src_sha256(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p.relative_to(tree).as_posix() for p in (tree / "src").rglob("*.py")):
        digest.update(path.encode() + b"\0" + (tree / path).read_bytes())
    return digest.hexdigest()


def src_lines_by_module(tree: Path) -> dict[str, int]:
    return {p.relative_to(tree / "src").as_posix(): len(p.read_bytes().splitlines())
            for p in sorted((tree / "src").rglob("*.py"))}


def probe(tree: Path, script: str, workload: str, seed: int) -> dict:
    """One untimed run of ``script`` (PROFILE or REFLECTED) in ``tree``: its
    exit status and the counts it printed, or its stderr tail when it
    printed none."""
    proc = subprocess.run([sys.executable, "-c", script, workload, str(seed)], cwd=tree,
                          capture_output=True, text=True)
    run = {"exit": proc.returncode}
    try:
        run.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    except (IndexError, ValueError):  # no line, or not JSON
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark process in ``tree``: its exit status, wall time, minor
    page faults per attempted operation and last two JSON lines, or its
    stderr tail when it printed none."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    run = {"exit": proc.returncode, "wall_s": round(time.perf_counter() - start, 3)}
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    lines = proc.stdout.strip().splitlines()
    try:
        run["details"], run["summary"] = (json.loads(line) for line in lines[-2:])
        run["minflt_per_op"] = faults / max(run["summary"]["attempted"], 1)
    except ValueError:  # fewer than two lines, or not JSON
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def run_suite(tree: Path) -> dict:
    """The tree's tier-1 suite, once: its exit status, wall time and last
    line of output (pytest's count of passes and failures)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ("src", env.get("PYTHONPATH"))))
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    wall_s = round(time.perf_counter() - start, 3)
    return {"exit": proc.returncode, "wall_s": wall_s,
            "last_line": (proc.stdout.strip().splitlines() or [""])[-1]}


def traced(trees: dict[str, Path], workload: str, seed: int) -> dict:
    """One ``--seconds 0 --trace 1`` run per tree: each side's exit status,
    correctness and metrics, and the count rows whose values differ."""
    out, metrics = {}, {}
    for side, tree in trees.items():
        run = run_once(tree, workload, seed, 0, trace=1)
        summary = run.get("summary", {})
        metrics[side] = summary.get("metrics", {})
        out[side] = {"exit": run["exit"], "correct": summary.get("correct"),
                     "metrics": metrics[side]}
        if "stderr_tail" in run:
            out[side]["stderr_tail"] = run["stderr_tail"]
    out["count_rows_differ"] = {
        name: {side: metrics[side].get(name, {}).get("value") for side in SIDES}
        for name in sorted(set(metrics["parent"]) | set(metrics["change"]))
        if any(metrics[side].get(name, {}).get("unit") in COUNT_UNITS for side in SIDES)
        and metrics["parent"].get(name) != metrics["change"].get(name)}
    return out


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values), "runs": len(values)}


def summarise(pairs: list[dict], gates: dict[str, dict]) -> dict:
    """Per gated metric: each side's spread, the pairs the change won, and
    whether its median moved by more than the parent's IQR or past the
    metric's bound."""
    complete = [p for p in pairs if all("summary" in p[side] for side in SIDES)]
    out = {"pairs_complete": f"{len(complete)} of {len(pairs)}", "metrics": {}}
    for name, gate in gates.items() if complete else ():
        values = {side: [p[side]["summary"]["metrics"][name]["value"] for p in complete]
                  for side in SIDES}
        lower = gate.get("better", "lower") == "lower"
        won = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        gap = change["median"] - parent["median"]
        out["metrics"][name] = {
            "parent": parent, "change": change, "better": gate.get("better", "lower"),
            "change_better_in_pairs": f"{won} of {len(complete)}",
            "median_change": gap / parent["median"] if parent["median"] else None,
            "gap_exceeds_parent_iqr": abs(gap) > parent["iqr"],
            "bound": gate.get("bound"),
            "within_bound": (None if gate.get("bound") is None else
                             (gap if lower else -gap) <= gate["bound"] * abs(parent["median"])),
        }
    if complete:  # ungated: the peak the set-up alone reaches, to see where a memory gain lands
        out["peak_rss_setup_mb"] = {
            side: spread([p[side]["details"]["peak_rss_setup_mb"] for p in complete])
            for side in SIDES}
        out["minflt_per_op"] = {side: spread([p[side]["minflt_per_op"] for p in complete])
                                for side in SIDES}
    for side in SIDES:
        runs = [p[side] for p in pairs]
        out[side] = {
            "exit": sorted({r["exit"] for r in runs}),
            "correct": sorted({r.get("summary", {}).get("correct") for r in runs}, key=str),
            "attempted": [r.get("summary", {}).get("attempted") for r in runs],
            "failed": [r.get("summary", {}).get("failed") for r in runs],
            "digest": sorted({r.get("details", {}).get("digest") for r in runs}, key=str),
            "digest_baseline": sorted({r.get("details", {}).get("digest_baseline")
                                       for r in runs}, key=str),
            "fail_share": sorted({r.get("details", {}).get("fail_share", {}).get("value")
                                  for r in runs}, key=str),
        }
    return out


def machine(pairs: list[dict]) -> dict:
    provenance = next((p[side]["details"].get("provenance", {}) for p in pairs for side in SIDES
                       if "details" in p[side]), {})
    return {"platform": platform.platform(), "python": platform.python_version(),
            "nproc": provenance.get("nproc"), "cpu_model": provenance.get("cpu_model")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent commit's unpacked tree")
    parser.add_argument("change", type=Path, help="the change's unpacked tree")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--extra", type=Path, help="a JSON file recorded under 'extra'")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{side} tree {tree} has no perfbench/run.py")
    spec_path = trees["parent"] / "BENCHMARK.json"
    gates = ({g["name"]: g for g in json.loads(spec_path.read_text())["end_to_end"]}
             if spec_path.is_file() else {})
    extra = json.loads(args.extra.read_text()) if args.extra else None

    suite = {side: run_suite(tree) for side, tree in trees.items()}
    ok = all(run["exit"] == 0 for run in suite.values())
    print("tier-1 suite: " + ", ".join(f"{side} exit {run['exit']} in {run['wall_s']} s"
                                       for side, run in suite.items()), file=sys.stderr, flush=True)
    modules = {side: src_lines_by_module(tree) for side, tree in trees.items()}
    lines = {side: sum(counts.values()) for side, counts in modules.items()}
    moved = [(name, *(modules[side].get(name, 0) for side in SIDES))
             for name in sorted(modules["parent"].keys() | modules["change"].keys())
             if modules["parent"].get(name) != modules["change"].get(name)]
    print(f"src lines: parent {lines['parent']} -> change {lines['change']} "
          f"({lines['change'] - lines['parent']:+d}); " + ("; ".join(
              f"{name} {old} -> {new} ({new - old:+d})" for name, old, new in moved)
              or "no module changed"), file=sys.stderr, flush=True)
    results = {}
    for workload in args.workload:
        for seed in args.seed:
            calls = {side: probe(tree, PROFILE, workload, seed) for side, tree in trees.items()}
            reflected = {side: probe(tree, REFLECTED, workload, seed)
                         for side, tree in trees.items()}
            memo = {side: run.pop("crc_memo", None) for side, run in reflected.items()}
            rows = {"calls": calls, "fotasim_calls": calls, "reflected_bytes": reflected}
            probed_ok = all(run["exit"] == 0 and key in run
                            for key, runs in rows.items() for run in runs.values())
            ok &= probed_ok
            print(f"{workload} seed {seed} profiled: " + ("; ".join(
                f"{key}/op {runs['parent'][key]:.2f} -> {runs['change'][key]:.2f} "
                f"({runs['change'][key] - runs['parent'][key]:+.2f})"
                for key, runs in rows.items()) if probed_ok else "a profiled or reflected run failed"),
                file=sys.stderr, flush=True)
            if probed_ok and memo["parent"] != memo["change"]:
                print(f"{workload} seed {seed} crc memo per op: " + "; ".join(
                    f"{key} {memo['parent'][key]:.2f} -> {memo['change'][key]:.2f}"
                    for key in ("hits", "misses")), file=sys.stderr, flush=True)
            trace = traced(trees, workload, seed)
            ok &= all(trace[side]["exit"] == 0 and trace[side]["correct"] is True
                      for side in SIDES)
            differ = trace["count_rows_differ"]
            print(f"{workload} seed {seed} traced: " + ("; ".join(
                f"{name} {row['parent']} -> {row['change']}" for name, row in differ.items())
                or "every count row matches"), file=sys.stderr, flush=True)
            pairs = []
            for number in range(1, args.pairs + 1):
                order = SIDES if number % 2 else SIDES[::-1]
                pair = {"pair": number, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed, args.seconds)
                    ok &= pair[side]["exit"] == 0 and \
                        pair[side].get("summary", {}).get("correct") is True
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {number}/{args.pairs}: " + ", ".join(
                    f"{side} {name} {metric['value']:.4g}" for side in SIDES
                    for name, metric in pair[side].get("summary", {}).get("metrics", {}).items()),
                    file=sys.stderr, flush=True)
            summary = summarise(pairs, gates)
            results[f"{workload} seed {seed}"] = {"workload": workload, "seed": seed, **summary,
                                                 "runs": pairs, "traced": trace,
                                                 "profiled": calls, "reflected": reflected,
                                                 "crc_memo": memo}
            for name in ("peak_rss_setup_mb", "minflt_per_op"):
                print(f"{workload} seed {seed} {name} median [q1, q3]: " + ", ".join(
                    f"{side} {row['median']:.4g} [{row['q1']:.4g}, {row['q3']:.4g}]"
                    for side, row in summary.get(name, {}).items()),
                    file=sys.stderr, flush=True)

    report = {
        "what": "End-to-end rows of perfbench/run.py on two source trees, in alternating pairs "
                "(odd pairs run the parent first, even pairs the change first), one process at "
                "a time; written by tools/bench_pairs.py.",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "machine": machine([p for r in results.values() for p in r["runs"]]),
        **{side: {"src_sha256": src_sha256(tree), "src_lines": lines[side],
                  "src_lines_by_module": modules[side]}
           for side, tree in trees.items()},
        "suite": {"command": "PYTHONPATH=src python -m pytest -q -p no:cacheprovider", **suite},
        "pairs_per_workload": args.pairs,
        "workloads": results,
    }
    if extra is not None:
        report["extra"] = extra
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
