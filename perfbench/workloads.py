"""The four benchmark workloads: seeded inputs, one timed operation, its gate.

Every workload draws the inputs of operation `index` from
`numpy.random.default_rng([seed, stream, i])` alone, where `i` is `index` or
the first index of its cycle, so the same seed gives the same inputs and no
two operations share a whole input unless the workload's parameter space
forces it (see README.md). Stream 0 feeds the measured operations and
stream 1 the warm-up (operation 0 of a fixed seed), so the warm-up never
computes a measured operation's result in advance.

A workload's `cycle` is the number of consecutive operations that together
cover its parameter mix; a run stops only at a cycle boundary, so every run
measures the same mix whatever its length.

A workload's `trace_ops`, a whole number of cycles, is the fixed number of
operations of a traced run. The per-layer totals are sums over those
operations, so a faster layer shows as less time for the same work, never as
more work done in the same time.
"""

from __future__ import annotations

import math
import os

import numpy as np

MEASURED, WARMUP = 0, 1

LEMMA_CUTOFF = 1 << 14
LEMMA_C0_TOL = 1e-6
ROUNDTRIP_TOL = 1e-12
SHIFT_NORM_TOL = 1e-10


def rng_for(seed, stream, index):
    return np.random.default_rng([seed, stream, index])


class Context:
    """Imported haartorus modules, golden c0 and the scratch directory of one run."""

    def __init__(self, package, c0, work_dir):
        self.package = package
        for layer in ("haar", "shifts", "torus", "coding", "experiments", "serialize", "cli"):
            setattr(self, layer, getattr(package, layer))
        self.c0 = c0
        self.work_dir = work_dir


class HvsLemma:
    """verify_lemma_hvs(d, j, j-1, sign, N=2**14), cycling over every (d, j) with d <= 4."""

    name = "hvs-lemma"
    why = "lemma certification: torus builds, rotates, projects and pairs ~16k-term polynomials"
    # The ten (d, j) pairs cost the same (the wave has 2**14 terms for every d),
    # but sign -1 costs about 13% more than sign +1. Drawn independently, the
    # share of each sign would move from seed to seed and carry the median
    # between the two latency groups. So each cycle of three operations has one
    # +1, in a slot the seed draws, and two -1: the median and the tail then
    # fall inside the -1 group.
    cycle = 3
    trace_ops = 4 * cycle
    PAIRS = tuple((d, j) for d in range(1, 5) for j in range(1, d + 1))
    params = {"cutoff": LEMMA_CUTOFF, "pairs": [list(p) for p in PAIRS], "wave_index": "j-1",
              "sign": "per cycle of 3 operations, +1 in a slot drawn from the seed, -1 in the others"}

    def inputs(self, seed, stream, index):
        d, j = self.PAIRS[index % len(self.PAIRS)]
        first = index - index % self.cycle
        plus_slot = int(rng_for(seed, stream, first).integers(self.cycle))
        return {"d": d, "j": j, "sign": 1 if index % self.cycle == plus_slot else -1}

    def prepare(self, ctx, inp):
        pass

    def run(self, ctx, inp):
        return ctx.experiments.verify_lemma_hvs(
            inp["d"], inp["j"], inp["j"] - 1, inp["sign"], N=LEMMA_CUTOFF
        )

    def check(self, ctx, inp, report):
        if not report.passed:
            return f"lemma not certified: residual {report.residual!r} > {report.tolerance!r}"
        gap = abs(report.fitted_constant - ctx.c0)
        if not gap <= LEMMA_C0_TOL:
            return f"fitted constant {report.fitted_constant!r} is {gap:.3e} from golden c0"
        return None


class DualityChain:
    """run_duality_experiment(seed_i, d, depth=6, N=1024, A=1024, c0=golden), d alternating 2, 3."""

    name = "duality-chain"
    why = "coded duality chain: the pairing engine in experiments over many small 1024-cutoff polys"
    cycle = 2
    trace_ops = 12
    DEPTH, CUTOFF, SCALE = 6, 1024, 1024
    FLAGS = ("coded_matches", "projected_within_bound", "multiplier_within_bound",
             "inequality_holds", "transfer_within_bound")
    params = {"d": [2, 3], "depth": DEPTH, "cutoff": CUTOFF, "A": SCALE, "p": 2.0,
              "run_seed": "drawn per operation"}

    def inputs(self, seed, stream, index):
        run_seed = int(rng_for(seed, stream, index).integers(1, 1 << 30))
        return {"run_seed": run_seed, "d": (2, 3)[index % 2]}

    def prepare(self, ctx, inp):
        pass

    def run(self, ctx, inp):
        return ctx.experiments.run_duality_experiment(
            inp["run_seed"], d=inp["d"], depth=self.DEPTH, A=self.SCALE, N=self.CUTOFF,
            c0=ctx.c0,
        )

    def check(self, ctx, inp, report):
        bad = [flag for flag in self.FLAGS if not getattr(report, flag)]
        return f"report flags false: {', '.join(bad)}" if bad else None


class DyadicFiles:
    """CLI pipeline haar analyze -> shift apply -> code decompose -> haar synthesize on a CSV."""

    name = "dyadic-files"
    why = "file pipeline through cli, serialize, haar, shifts and coding; no torus work"
    # (samples, value_dim, d, j). The slice (d, j) sets how many coefficients
    # survive the shift (whether the finest level does), so it is fixed per
    # shape and only the sample values come from the seed. The two 2**14
    # shapes cost about the same, so the median operation falls inside their
    # joint latency group, not on the boundary with the 2**16 one.
    SHAPES = ((1 << 14, 1, 2, 1), (1 << 14, 3, 3, 3), (1 << 16, 1, 2, 2))
    cycle = len(SHAPES)
    trace_ops = 3 * cycle
    params = {"shapes": [dict(zip(("samples", "value_dim", "d", "j"), s)) for s in SHAPES],
              "shift": "sj", "decompose_K": "default (fits the depth limit)"}

    def inputs(self, seed, stream, index):
        n, value_dim, d, j = self.SHAPES[index % self.cycle]
        samples = rng_for(seed, stream, index).standard_normal((n, value_dim))
        return {"samples": samples, "d": d, "j": j}

    @staticmethod
    def paths(ctx):
        names = ("samples.csv", "coeffs.json", "shifted.json", "blocks.json", "back.csv",
                 "ref_back.csv")
        return [os.path.join(ctx.work_dir, n) for n in names]

    def prepare(self, ctx, inp):
        paths = self.paths(ctx)
        for path in paths[1:]:
            if os.path.exists(path):
                os.unlink(path)
        np.savetxt(paths[0], inp["samples"], fmt="%.17g", delimiter=",")

    def run(self, ctx, inp):
        samples, coeffs, shifted, blocks, back, _ = self.paths(ctx)
        d, j = str(inp["d"]), str(inp["j"])
        steps = (
            ["haar", "analyze", "--input", samples, "--output", coeffs],
            ["shift", "apply", "--input", coeffs, "--op", "sj", "--j", j, "--d", d,
             "--output", shifted],
            ["code", "decompose", "--input", shifted, "--d", d, "--output", blocks],
            ["haar", "synthesize", "--input", coeffs, "--output", back],
        )
        return [ctx.cli.main(argv) for argv in steps]

    def check(self, ctx, inp, codes):
        if any(codes):
            return f"cli exit codes {codes}"
        ser = ctx.serialize
        samples = inp["samples"]
        a = ctx.haar.haar_analyze(samples[:, 0] if samples.shape[1] == 1 else samples)
        b = ctx.shifts.apply_sj(inp["j"], inp["d"], a)
        c = ctx.coding.martingale_decompose(b, inp["d"], max(b.depth_limit // inp["d"], 0))
        back = ctx.haar.haar_synthesize(a)
        _, coeffs, shifted, blocks, back_path, ref_back = self.paths(ctx)
        ser.write_samples_csv(ref_back, back)
        expected = (
            (coeffs, ser.dumps_json(ser.haar_coeffs_to_dict(a)).encode()),
            (shifted, ser.dumps_json(ser.haar_coeffs_to_dict(b)).encode()),
            (blocks, ser.dumps_json(ser.blocks_to_dict(c, inp["d"])).encode()),
            (back_path, _read_bytes(ref_back)),
        )
        for path, want in expected:
            if _read_bytes(path) != want:
                return f"{os.path.basename(path)} differs from the in-process pipeline"
        err = float(np.max(np.abs(back - samples)))
        if not err <= ROUNDTRIP_TOL:
            return f"roundtrip error {err:.3e} > {ROUNDTRIP_TOL:.0e}"
        return None


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class NormSweep:
    """Hilbert lower bounds at every (N, p) from one seeded start, then the dimension-free check."""

    name = "norm-sweep"
    why = "iterative L^p norm solver and dense shift matrices, which no other workload runs"
    # One operation is the whole sweep: six estimates and the dimension-free
    # check. Per-start iteration counts vary by a quarter, and summing the
    # sweep keeps that from dominating the latency of a single operation.
    cycle = 1
    trace_ops = 6
    EXPONENTS, CUTOFFS = (4.0, 4.0 / 3.0), (512, 2048, 8192)
    DIM_RANGE, DIM_DEPTH = range(1, 7), 10
    params = {"p": list(EXPONENTS), "cutoffs": list(CUTOFFS), "start": "drawn per operation",
              "dimension_free": {"d": [1, 6], "depth": DIM_DEPTH, "p": 2.0}}

    def inputs(self, seed, stream, index):
        return {"start": int(rng_for(seed, stream, index).integers(0, 1 << 30))}

    def prepare(self, ctx, inp):
        pass

    def run(self, ctx, inp):
        ex = ctx.experiments
        curves = {
            p: [ex.lp_norm_estimate(ex.hilbert_multiplier_operator(n), p, seed=inp["start"])
                for n in self.CUTOFFS]
            for p in self.EXPONENTS
        }
        rows = ex.dimension_free_check(self.DIM_RANGE, depth=self.DIM_DEPTH, p=2.0)
        return curves, rows

    def check(self, ctx, inp, result):
        curves, rows = result
        for p, curve in curves.items():
            ests = [e.estimate for e in curve]
            if not all(math.isfinite(e) for e in ests):
                return f"p={p:.4g}: estimates {ests} not all finite"
            if any(b < a for a, b in zip(ests, ests[1:])):
                return f"p={p:.4g}: estimates {ests} decrease with N in {list(self.CUTOFFS)}"
        for row in rows:
            if not (row.converged and abs(row.estimate - 1.0) <= SHIFT_NORM_TOL):
                return f"shift-vector estimate {row.estimate!r} at d={row.d} " \
                       f"(converged={row.converged})"
        return None


WORKLOADS = {w.name: w for w in (HvsLemma(), DualityChain(), DyadicFiles(), NormSweep())}
