"""The benchmark's workloads: inputs, the ``pec`` command, and output checks.

Each workload makes its inputs with ``pec synth`` from the workload seed,
then runs one ``pec`` command on them.  ``check`` reads the command's
outputs and returns an ``Outcome``: the quality figure, a digest of the
outputs that must repeat exactly for one seed, the number of operations
the command stands for, and every problem found.

Sizes are chosen so that one command takes a few seconds on a 2-core box
and several fit in one run (see README.md for why each workload exists).
The ``smoke`` sizes run the same code path in about a second of pec time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

OD_DENSE_FLOOR = 0.95  # acceptance criterion 8


@dataclass
class Outcome:
    quality: float = float("nan")
    digest: str = ""
    operations: int = 1
    failed_operations: int = 0
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    fixture: str  # "od" or "metro"
    sizes: dict  # size name -> knobs used by ``command``

    def fixture_args(self, seed: int, out_dir: Path, size: str) -> list[str]:
        if self.fixture == "od":
            blocks, per_block = self.sizes[size]["blocks"]
            return ["synth", "od", "--blocks", str(blocks), "--nodes-per-block", str(per_block),
                    "--intra", "9", "--inter", "1", "--seed", str(seed), "--out-dir", str(out_dir)]
        return ["synth", "metro", "--seed", str(seed), "--out-dir", str(out_dir)]

    def command(self, fx: Path, out: Path, seed: int, size: str) -> list[str]:
        k = self.sizes[size]
        line, transfer = str(fx / "line-membership.csv"), str(fx / "transfer-vs-not.csv")
        common = ["--seed", str(seed), "--workers", "1", "--out-dir", str(out)]
        if self.name == "od-dense":
            return ["pipeline", "--od", str(fx / "od.csv"), "--cluster-mode", "auto-louvain",
                    "--dim", "16", "--walk-length", "20", "--num-walks", str(k["num_walks"]),
                    "--window", "5", "--epochs", str(k["epochs"]),
                    "--truth", str(fx / "block-membership.csv"), *common]
        if self.name == "metro-paper":
            return ["pipeline", "--edges", str(fx / "edges.tsv"), "--cluster-mode", "auto-indices",
                    "--dim", str(k["dim"]), "--walk-length", str(k["walk_length"]),
                    "--num-walks", str(k["num_walks"]), "--epochs", str(k["epochs"]),
                    "--truth", line, "--truth", transfer, *common]
        if self.name == "metro-noise":
            return ["pipeline", "--edges", str(fx / "edges.tsv"), "--n-clusters", "2",
                    "--p", "4", "--q", "1", "--dim", "5", "--walk-length", "10",
                    "--num-walks", str(k["num_walks"]), "--truth", transfer,
                    "--noise", "gaussian:1", "--noise", "poisson:4",
                    "--repeats", str(k["repeats"]), *common]
        return ["sweep", "--graph", str(fx / "edges.tsv"), "--truth", line, "--truth", transfer,
                "--grid", "p=0.25,4", "--grid", "q=0.25,4", "--baselines", "--dim", "5",
                "--num-walks", str(k["num_walks"]), "--repeats", str(k["repeats"]), *common]

    def check(self, out: Path, fx: Path, size: str, score) -> Outcome:
        """Check the outputs in ``out``; ``score(embeddings, truths)`` is score.py."""
        if self.name == "metro-sweep":
            return _check_sweep(out)
        result = Outcome()
        manifest = _check_manifest(out, result)
        if manifest is None:
            return result
        if self.name == "od-dense":
            f1 = _report(out)["block-membership"]["macro_f1"]
            result.quality = f1
            if not f1 >= OD_DENSE_FLOOR:
                result.problems.append(f"Macro-F1 {f1!r} below the {OD_DENSE_FLOOR} floor")
        elif self.name == "metro-paper":
            _check_embeddings(out / "embeddings.txt", 100, self.sizes[size]["dim"], result)
            if not result.problems:
                f1 = score(out / "embeddings.txt",
                           [fx / "line-membership.csv", fx / "transfer-vs-not.csv"])
                result.quality = sum(f1.values()) / len(f1)
        else:
            curves = _report(out)["transfer-vs-not"]["noise"]["curves"]
            if len(curves) != 2:
                result.problems.append(f"expected 2 noise curves, got {sorted(curves)}")
            result.quality = min((c["mean"] for c in curves.values()), default=float("nan"))
        return result


WORKLOADS = {
    w.name: w
    for w in (
        Workload("od-dense", "od", {
            "full": {"blocks": (8, 25), "num_walks": 10, "epochs": 2},
            "smoke": {"blocks": (4, 15), "num_walks": 10, "epochs": 1},
        }),
        Workload("metro-paper", "metro", {
            "full": {"dim": 64, "walk_length": 80, "num_walks": 10, "epochs": 1},
            "smoke": {"dim": 8, "walk_length": 10, "num_walks": 2, "epochs": 1},
        }),
        Workload("metro-noise", "metro", {
            "full": {"num_walks": 10, "repeats": 2},
            "smoke": {"num_walks": 2, "repeats": 1},
        }),
        Workload("metro-sweep", "metro", {
            "full": {"num_walks": 10, "repeats": 1},
            "smoke": {"num_walks": 2, "repeats": 1},
        }),
    )
}


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def _check_manifest(out: Path, result: Outcome) -> dict | None:
    """Every artifact is listed in the manifest; the digest is its output hashes."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        result.problems.append(f"no readable manifest: {exc}")
        return None
    outputs = manifest.get("outputs", {})
    on_disk = {p.name for p in out.iterdir() if p.is_file() and p.name != "manifest.json"}
    if on_disk != set(outputs):
        result.problems.append(
            f"manifest lists {sorted(outputs)} but the run wrote {sorted(on_disk)}"
        )
    result.digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return manifest


def _check_embeddings(path: Path, rows: int, dim: int, result: Outcome) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    body = [ln.split(" ")[1:] for ln in lines[1:] if ln]
    if lines[0] != f"{rows} {dim}" or len(body) != rows or any(len(r) != dim for r in body):
        result.problems.append(f"embeddings are not {rows} x {dim}")
    elif not all(math.isfinite(float(x)) for r in body for x in r):
        result.problems.append("embeddings have non-finite entries")


def _check_sweep(out: Path) -> Outcome:
    """No error cells, SC and HCA columns for both truths; digest is sweep.json."""
    result = Outcome()
    try:
        raw = (out / "sweep.json").read_bytes()
        tables = json.loads(raw)["tables"]
    except (OSError, ValueError, KeyError) as exc:
        result.problems.append(f"no readable sweep.json: {exc}")
        return result
    if not (out / "sweep.csv").is_file():
        result.problems.append("sweep.csv missing")
    result.digest = hashlib.sha256(raw).hexdigest()
    if sorted(tables) != ["line-membership", "transfer-vs-not"]:
        result.problems.append(f"expected tables for both truths, got {sorted(tables)}")
    cells = list(zip(*tables.values()))
    result.operations += len(cells)
    best = []
    for rows in tables.values():
        scored = [r["mean"] for r in rows if r.get("error") is None and "mean" in r]
        best.append(max(scored, default=float("nan")))
    result.quality = sum(best) / len(best) if best else float("nan")
    for rows in cells:
        bad = [r for r in rows if r.get("error") is not None
               or not {"mean", "sc_macro_f1", "hca_macro_f1"} <= set(r)]
        if bad:
            result.failed_operations += 1
            result.problems.append(f"sweep cell {bad[0]['params']}: {bad[0].get('error') or 'missing columns'}")
    return result
