"""The benchmark's workloads: how each builds its inputs, runs and is checked.

Every operation is one in-process call to ``tenalign.cli.main`` with the
arguments a command-line user would type.  Inputs come only from the seed
given to the benchmark.

Alignment inputs perturb fixed reference graphs.  The random geometric
reference draws lognormal neighbour counts, so its triangle count, and with
it the cost of every contraction, changes several-fold from one reference
seed to the next.  Each alignment part therefore owns a fixed set of
references (one per input), and the benchmark seed draws the two noisy
copies and the vertex permutation of each, with the ``synth`` functions
``make_problem`` uses.  That keeps the work of a run comparable across seeds
while the inputs still differ with the seed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace

import numpy as np

# the flags every alignment operation shares (k = 3, the rest CLI defaults)
ALIGN_FLAGS = ("--motif", "3", "--alpha", "0.5", "--beta", "1", "--iters", "15")

# criterion-2 bound on the decoupling gaps; see Checker._check_eigcheck
GAP_BOUND = 1e-6


@dataclass(frozen=True)
class Part:
    """One kind of operation in a workload, and the inputs it runs on."""

    name: str
    kind: str  # "align" or "eigcheck"
    flags: tuple
    n: int = 0
    model: str = ""
    params: tuple = ()
    references: tuple = ()  # rgg seed of each input's reference graph
    grid: tuple = ()  # (--dims, --orders) of each eigcheck input
    check_refinement: bool = False

    @property
    def inputs(self) -> int:
        return len(self.references) or len(self.grid)


# Reference seeds are the first ones whose reference graph's triangle count
# lies in a band chosen so that each operation takes one to two seconds on two
# cores: 1150-1450 triangles at n=100, 260-360 at n=40 and 550-800 at n=60.
# Several inputs per part average out the cost differences the noise draws
# cause; repeats of one input only average out machine noise.
LOWRANK = Part(
    "lowrank-er100", "align", ("--method", "lowrank-tame"),
    n=100, model="er", params=(0.05,), references=(1, 5, 6, 7),
)
TAME = Part(
    "tame-dup40", "align", ("--method", "tame"),
    n=40, model="duplication", params=(0.25, 0.5), references=(1, 5, 25, 31, 41, 69),
)
REFINE = Part(
    "refine-er60", "align",
    ("--method", "lambda-tame", "--refine", "local-search", "--knn", "auto", "--sweeps", "10"),
    n=60, model="er", params=(0.05,), references=(0, 1, 2, 9, 11), check_refinement=True,
)
# One eigcheck input per (dimension, order): a trial's cost depends mostly on
# its shape, so a fixed grid keeps the shape mix, and with it the work of a
# run, the same for every seed.  Dimension 4 is left out because a (4, 4, 5)
# trial alone costs as much as the rest of the grid.
EIGCHECK = Part(
    "eigcheck", "eigcheck", ("--trials", "5", "--restarts", "500"),
    grid=tuple((d, k) for d in ("2", "3") for k in ("3", "4", "5")),
)

# On a shared two-core host the speed drifts by a quarter over tens of
# seconds, so a run has to be long (50 s) to be steady, and a total budget of
# under an hour for 4 + 22 x (workloads) runs then allows two workloads: the
# alignment parts share one, interleaved, and eigcheck, the only one reaching
# ``eigen``, has its own.
WORKLOADS = {"align-mix": (LOWRANK, TAME, REFINE), "eigcheck": (EIGCHECK,)}


def tiny(parts: tuple) -> tuple:
    """The same workload at a size that runs in a few seconds."""
    return tuple(
        replace(p, grid=p.grid[:2], flags=("--trials", "1", "--restarts", "100"))
        if p.kind == "eigcheck"
        else replace(p, n=16, references=p.references[:2])
        for p in parts
    )


@dataclass
class Input:
    """One input of a run and the argument list of the operation on it."""

    index: int
    part: Part
    argv: list
    out: str
    matching_out: str = ""
    graph_a: str = ""
    graph_b: str = ""
    truth: str = ""


def make_inputs(parts: tuple, seed: int, directory: str) -> list[Input]:
    """Generate and write the inputs of one run; the same seed gives the same files.

    The parts' inputs are interleaved, so every stretch of a run holds each
    kind of operation.
    """
    children = iter(np.random.SeedSequence(seed).spawn(sum(p.inputs for p in parts)))
    per_part = [[(p, i, next(children)) for i in range(p.inputs)] for p in parts]
    order = [x for group in itertools.zip_longest(*per_part) for x in group if x]
    return [
        (_eigcheck_input if p.kind == "eigcheck" else _align_input)(p, seed, k, i, child, directory)
        for k, (p, i, child) in enumerate(order)
    ]


def _eigcheck_input(part, seed, index, i, child, directory):
    out = os.path.join(directory, f"in{index}_eig.jsonl")
    cli_seed = int(child.generate_state(1)[0])
    dims, orders = part.grid[i]
    argv = ["eigcheck", "--dims", dims, "--orders", orders, *part.flags,
            "--seed", str(cli_seed), "--out", out]
    return Input(index, part, argv, out)


def _align_input(part, seed, index, i, child, directory):
    from tenalign import records, synth
    from tenalign.graphs import save_edge_list

    noise = {"er": synth.er_noise, "duplication": synth.duplication_noise}[part.model]
    reference = synth.rgg(part.n, part.references[i])
    seed_a, seed_b, seed_perm = child.spawn(3)
    graph_a = noise(reference, *part.params, seed=seed_a)
    graph_b, perm = synth.permute(noise(reference, *part.params, seed=seed_b), seed_perm)
    stem = os.path.join(directory, f"in{index}")
    item = Input(
        index,
        part,
        [],
        stem + "_run.jsonl",
        matching_out=stem + "_match.txt",
        graph_a=stem + "_a.el",
        graph_b=stem + "_b.el",
        truth=stem + "_truth.tsv",
    )
    save_edge_list(graph_a, item.graph_a)
    save_edge_list(graph_b, item.graph_b)
    records.save_truth(perm[: part.n], item.truth)
    item.argv = [
        "align",
        "--graph-a", item.graph_a,
        "--graph-b", item.graph_b,
        "--truth", item.truth,
        *ALIGN_FLAGS,
        *part.flags,
        "--seed", str(seed),
        "--out", item.out,
        "--matching-out", item.matching_out,
    ]
    return item


class Checker:
    """Checks every output of one input against the library's own functions.

    The reference data (graphs, clique tensors, truth) is loaded on the first
    check, after the timed operation, so it adds nothing to set-up time.
    """

    def __init__(self, item: Input):
        self.item = item
        self.first = None
        self._ref = None

    def _reference(self):
        if self._ref is None:
            from tenalign import records
            from tenalign.graphs import clique_tensor, load_edge_list

            graph_a = load_edge_list(self.item.graph_a)
            graph_b = load_edge_list(self.item.graph_b)
            self._ref = (
                graph_a,
                graph_b,
                clique_tensor(graph_a, 3),
                clique_tensor(graph_b, 3),
                records.load_truth(self.item.truth),
            )
        return self._ref

    def check(self) -> tuple[list[str], dict]:
        """Problems found in the latest output, and its quality figures."""
        from tenalign import records

        recs = records.load_records(self.item.out)
        if self.item.part.kind == "eigcheck":
            problems, quality = self._check_eigcheck(recs)
        else:
            problems, quality = self._check_align(recs)
        if self.first is None:
            self.first = recs
        elif not (
            len(recs) == len(self.first)
            and all(records.records_equal_modulo_timing(a, b) for a, b in zip(recs, self.first))
        ):
            problems.append("records differ from the first operation on this input")
        return problems, quality

    def _check_eigcheck(self, recs):
        problems = []
        trials = int(self.item.argv[self.item.argv.index("--trials") + 1])
        if len(recs) != trials:
            problems.append(f"{len(recs)} eigcheck records for {trials} trials")
        for r in recs:
            if not r["converged"]:
                problems.append(f"trial {r['trial']} did not converge")
            if r["eig_gap"] != abs(r["lambda_kron"] - r["lambda_a"] * r["lambda_b"]):
                problems.append(f"trial {r['trial']} eig_gap disagrees with its eigenvalues")
            if not 0.0 <= r["vec_gap"] <= 1.0:
                problems.append(f"trial {r['trial']} vec_gap {r['vec_gap']} outside [0, 1]")
        # A gap above the bound is a finding about the inputs, not a wrong
        # output: for some even-order random tensors the product's dominant
        # eigenvalue exceeds the product of the operands' (reproduce with
        # `tenalign eigcheck --dims 2,3 --orders 3,4,5 --trials 4
        # --restarts 5000 --seed 2105869990`: trial 2 has eig_gap 0.19).
        over = sum(1 for r in recs if not (r["eig_gap"] <= GAP_BOUND and r["vec_gap"] <= GAP_BOUND))
        return problems, {"trials_over_bound": over}

    def _check_align(self, recs):
        from tenalign import records
        from tenalign.matching import accuracy, edges_aligned, motifs_aligned

        if len(recs) != 1:
            return [f"{len(recs)} run records, expected 1"], {}
        final = recs[0]["final"]
        graph_a, graph_b, tensor_a, tensor_b, truth = self._reference()
        matching = records.load_matching(self.item.matching_out)
        problems = []
        if (matching.n_rows, matching.n_cols) != (graph_a.n, graph_b.n):
            problems.append(
                f"matching shape {matching.n_rows}x{matching.n_cols}, graphs {graph_a.n}x{graph_b.n}"
            )
        quality = {
            "motifs_aligned": motifs_aligned(matching, tensor_a, tensor_b),
            "edges_aligned": edges_aligned(matching, graph_a, graph_b),
            "accuracy": accuracy(matching, truth),
        }
        for key, value in quality.items():
            if final[key] != value:
                problems.append(f"record {key} {final[key]} != recomputed {value}")
        if final["matching_size"] != len(matching):
            problems.append(f"record matching_size {final['matching_size']} != {len(matching)}")
        if self.item.part.check_refinement and not quality["motifs_aligned"] >= final["best_score"]:
            problems.append(
                f"refinement lowered motifs aligned: {quality['motifs_aligned']} < {final['best_score']}"
            )
        return problems, quality
