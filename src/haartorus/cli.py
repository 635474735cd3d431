"""Command-line entry point wiring every module behind one tool.

Exit codes: 0 success, 1 internal error, 2 usage or input-format error,
3 golden-file mismatch. All file outputs are written atomically; running the
same subcommand with the same parameters and seed reproduces outputs byte for
byte.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from . import coding, experiments, serialize, shifts, torus
from .errors import (
    GoldenMismatchError,
    InvalidInputError,
    ParseError,
    ResourceLimitError,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_GOLDEN = 3

DEFAULT_D = 2
DEFAULT_DEPTH = 8
DEFAULT_CUTOFF = 4095
DEFAULT_SEED = 1


@dataclass
class RunConfig:
    """One routed invocation: subcommand name plus its parameter set."""

    subcommand: str
    params: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    tolerance: float | None = None
    golden_dir: str | None = None
    compare_golden: bool = False
    input_path: str | None = None
    output_path: str | None = None


def _emit(config: RunConfig, text):
    if config.output_path:
        serialize.atomic_write_text(config.output_path, text)
    else:
        sys.stdout.write(text)


def _emit_json(config: RunConfig, obj):
    _emit(config, serialize.dumps_json(obj))


# ---------------------------------------------------------------------------
# subcommand bodies


def _run_haar_analyze(config):
    from .haar import haar_analyze

    samples = serialize.read_samples_csv(config.input_path)
    coeffs = haar_analyze(samples, depth_limit=config.params.get("depth_limit"))
    _emit(config, serialize.haar_coeffs_text(coeffs))
    return EXIT_OK


def _run_haar_synthesize(config):
    from .haar import haar_synthesize

    coeffs = serialize.read_haar_coeffs(config.input_path)
    _emit(config, serialize.samples_csv_text(haar_synthesize(coeffs)))
    return EXIT_OK


def _run_shift_apply(config):
    coeffs = serialize.read_haar_coeffs(config.input_path)
    kind = config.params["kind"]
    if kind == "s0":
        out = shifts.apply_s0(coeffs)
    else:
        out = shifts.apply_sj(config.params["j"], config.params["d"], coeffs)
    _emit(config, serialize.haar_coeffs_text(out))
    return EXIT_OK


def _run_shift_matrix(config):
    kind = config.params["kind"]
    j = config.params["j"] if kind == "sj" else None
    d = config.params["d"] if kind == "sj" else None
    op = shifts.ShiftOperator(kind, j=j, d=d)
    depth = config.params["depth"]
    if depth > shifts.MAX_MATRIX_DEPTH:
        raise ResourceLimitError(
            f"depth_limit {depth} exceeds the dense-basis cap {shifts.MAX_MATRIX_DEPTH}"
        )
    # streamed row by row: the dense matrix of depth 12 alone would take 512 MiB
    src, dst, sign = shifts.signed_permutation(op, depth)
    lines = serialize.signed_permutation_csv_lines(1 << (depth + 1), src, dst, sign)
    if config.output_path:
        serialize.atomic_write_lines(config.output_path, lines)
    else:
        sys.stdout.writelines(lines)
    return EXIT_OK


def _run_torus_riesz(config):
    p = serialize.read_trig_poly(config.input_path)
    out = torus.riesz_apply(config.params["j"], p)
    _emit(config, serialize.dumps_json(serialize.trig_poly_to_dict(out)))
    return EXIT_OK


def _run_torus_hilbert(config):
    p = serialize.read_trig_poly(config.input_path)
    out = torus.directional_hilbert(config.params["j"], p)
    _emit(config, serialize.dumps_json(serialize.trig_poly_to_dict(out)))
    return EXIT_OK


def _run_torus_project(config):
    p = serialize.read_trig_poly(config.input_path)
    bundle = torus.quarter_arc_project(config.params["var"], p)
    _emit(config, serialize.dumps_json(serialize.arc_bundle_to_dict(bundle)))
    return EXIT_OK


def _run_torus_squarewave(config):
    wave = torus.square_wave(config.params["kind"], config.params["cutoff"])
    d = config.params["d"]
    var = config.params["var"]
    if d > 1 or var > 0:
        wave = torus.embed_variable(wave, var, d)
    _emit(config, serialize.dumps_json(serialize.trig_poly_to_dict(wave)))
    return EXIT_OK


def _run_code_decompose(config):
    coeffs = serialize.read_haar_coeffs(config.input_path)
    d = config.params["d"]
    blocks = coding.martingale_decompose(coeffs, d, config.params.get("K"))
    _emit(config, serialize.blocks_text(blocks, d))
    return EXIT_OK


def _run_code_check_ek(config):
    e = serialize.read_ek_element(config.input_path)
    ok, violations = coding.check_ek_membership(e)
    _emit_json(
        config,
        {"schema": 1, "kind": "ek_membership", "member": ok, "violations": violations},
    )
    return EXIT_OK


def _run_code_modulate(config):
    e = serialize.read_ek_element(config.input_path)
    spectrum = coding.modulate(e, config.params["A"])
    terms = [
        {
            "k": mt.term.k,
            "m": mt.term.m,
            "sign": mt.term.sign,
            "freq": [int(x) for x in mt.term.freq],
            "stacked": [int(x) for x in mt.stacked],
            "leading_power": mt.leading_power,
            "scaled": [
                [[int(off), int(coef)] for off, coef in entry]
                for entry in mt.scaled.entries
            ],
        }
        for mt in spectrum.terms
    ]
    _emit_json(
        config,
        {
            "schema": 1,
            "kind": "modulated_spectrum",
            "A": spectrum.A,
            "d": spectrum.d,
            "clusters": spectrum.clusters,
            "all_distinct": spectrum.all_distinct(),
            "terms": terms,
        },
    )
    return EXIT_OK


def _run_verify_hvs(config):
    params = config.params
    report = experiments.verify_lemma_hvs(
        params["d"],
        params["j"],
        params["i"],
        params["sign"],
        N=params["cutoff"],
        index_base=params["index_base"],
        projection_var=params.get("projection_var"),
        tolerance=config.tolerance if config.tolerance is not None else 5e-3,
    )
    _emit_json(config, serialize.lemma_report_to_dict(report))
    if config.compare_golden:
        golden_c0 = serialize.load_golden_c0(config.golden_dir)
        tol = 1e-6
        serialize.compare_to_golden_scalar(
            "fitted constant", report.fitted_constant, golden_c0, tol
        )
    return EXIT_OK


def _run_experiment_modulation(config):
    params = config.params
    if config.input_path:
        element = serialize.read_ek_element(config.input_path)
    else:
        element = coding.random_ek_element(
            d=params["d"],
            k_max=params["kmax"],
            n_terms=params["terms"],
            seed=config.seed,
            max_mag=params["max_mag"],
        )
    result = experiments.modulation_decay_experiment(element, params.get("A_list"))
    if config.output_path:
        serialize.write_modulation_sweep_csv(
            config.output_path, result.A_values, result.aggregate_errors, result.slope
        )
    else:
        _emit_json(config, serialize.decay_result_to_dict(result))
    if config.compare_golden:
        path = serialize.golden_dir(config.golden_dir) / "modulation_slope.csv"
        serialize.compare_modulation_sweep(
            result, path, config.tolerance if config.tolerance is not None else 1e-9
        )
    return EXIT_OK


def _run_experiment_duality(config):
    params = config.params
    if params["runs"] > experiments.MAX_DUALITY_RUNS:
        raise ResourceLimitError(
            f"{params['runs']} runs exceed MAX_DUALITY_RUNS = {experiments.MAX_DUALITY_RUNS}")
    c0 = serialize.load_golden_c0(config.golden_dir)
    reports = []
    for run_index in range(params["runs"]):
        report = experiments.run_duality_experiment(
            config.seed + run_index,
            d=params["d"],
            depth=params["depth"],
            p=params["p"],
            A=params["A"],
            N=params["cutoff"],
            c0=c0,
        )
        reports.append(serialize.duality_report_to_dict(report))
    _emit_json(config, {"schema": 1, "kind": "duality_runs", "runs": reports})
    return EXIT_OK


def _norm_operator(config):
    params = config.params
    name = params["operator"]
    if name == "hilbert":
        return experiments.hilbert_multiplier_operator(params["cutoff"])
    if name == "identity":
        return experiments.identity_depth_operator(params["depth"])
    if name == "shift-vector":
        return experiments.riesz_vector_operator(params["d"], params["depth"])
    if name == "s0":
        return experiments.signed_permutation_operator(
            [shifts.ShiftOperator("s0")], params["depth"], f"s0[depth={params['depth']},restricted]"
        )
    raise InvalidInputError(f"unknown operator {name!r}")


def _run_norm_estimate(config):
    op = _norm_operator(config)
    est = experiments.lp_norm_estimate(
        op, config.params["p"], seed=config.seed
    )
    _emit_json(config, serialize.norm_estimate_to_dict(est))
    return EXIT_OK


def _run_norm_dimension_sweep(config):
    params = config.params
    rows = experiments.dimension_free_check(
        list(range(1, params["dmax"] + 1)), depth=params["depth"]
    )
    if config.output_path:
        serialize.write_dimension_sweep_csv(config.output_path, rows)
    else:
        _emit_json(
            config,
            {
                "schema": 1,
                "kind": "dimension_sweep",
                "rows": [
                    {"d": r.d, "estimate": r.estimate, "converged": r.converged}
                    for r in rows
                ],
            },
        )
    if config.compare_golden:
        path = serialize.golden_dir(config.golden_dir) / "dimension_free.csv"
        serialize.compare_dimension_sweep(
            rows, path, config.tolerance if config.tolerance is not None else 1e-9
        )
    return EXIT_OK


_HANDLERS = {
    "haar analyze": _run_haar_analyze,
    "haar synthesize": _run_haar_synthesize,
    "shift apply": _run_shift_apply,
    "shift matrix": _run_shift_matrix,
    "torus riesz": _run_torus_riesz,
    "torus hilbert": _run_torus_hilbert,
    "torus project": _run_torus_project,
    "torus squarewave": _run_torus_squarewave,
    "code decompose": _run_code_decompose,
    "code check-ek": _run_code_check_ek,
    "code modulate": _run_code_modulate,
    "verify hvs": _run_verify_hvs,
    "experiment modulation": _run_experiment_modulation,
    "experiment duality": _run_experiment_duality,
    "norm estimate": _run_norm_estimate,
    "norm dimension-sweep": _run_norm_dimension_sweep,
}


def run(config: RunConfig):
    """Execute one routed subcommand; returns the process exit status."""
    handler = _HANDLERS.get(config.subcommand)
    if handler is None:
        sys.stderr.write(f"error: unknown subcommand {config.subcommand!r}\n")
        return EXIT_USAGE
    try:
        return handler(config)
    except (InvalidInputError, ParseError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except GoldenMismatchError as exc:
        sys.stderr.write(f"golden mismatch: {exc}\n")
        return EXIT_GOLDEN
    except ResourceLimitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text):
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _sign_arg(text):
    if text in ("+", "+1", "plus", "1"):
        return 1
    if text in ("-", "-1", "minus"):
        return -1
    raise argparse.ArgumentTypeError(f"sign must be + or -, got {text!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="haartorus",
        description=(
            "Dyadic Haar shifts, torus Riesz multipliers, sign-toss coding, "
            "and desk-scale operator-norm certification."
        ),
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for every randomized component")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the subcommand's default tolerance")
    parser.add_argument("--golden-dir", default=None,
                        help="directory holding golden files (default: the "
                             "repository golden/ directory, or the "
                             f"{serialize.GOLDEN_DIR_ENV} environment variable)")
    top = parser.add_subparsers(dest="group", required=True)

    def sub(group_parser, name, help_text):
        p = group_parser.add_parser(name, help=help_text)
        p.add_argument("--output", default=None, help="output file (default: stdout)")
        return p

    # haar ------------------------------------------------------------------
    haar = top.add_parser("haar", help="Haar wavelet analysis and synthesis on [0,1)")
    haar_sub = haar.add_subparsers(dest="action", required=True)
    p = sub(haar_sub, "analyze", "expand grid samples into Haar coefficients")
    p.add_argument("--input", required=True, help="CSV of samples, one point per row")
    p.add_argument("--depth-limit", type=int, default=None,
                   help="expected finest Haar level; must match the sample "
                        "count (default: inferred)")
    p = sub(haar_sub, "synthesize", "rebuild grid samples from Haar coefficients")
    p.add_argument("--input", required=True, help="coefficient JSON")

    # shift -----------------------------------------------------------------
    shift = top.add_parser("shift", help="dyadic shift operators on coefficients")
    shift_sub = shift.add_subparsers(dest="action", required=True)
    p = sub(shift_sub, "apply", "apply a sibling-swap shift to coefficients")
    p.add_argument("--input", required=True, help="coefficient JSON")
    p.add_argument("--op", dest="kind", choices=("s0", "sj"), default="sj",
                   help="full shift or one depth-sliced component")
    p.add_argument("--j", type=int, default=1, help="slice direction, 1-based")
    p.add_argument("--d", type=int, default=DEFAULT_D, help="number of directions")
    p = sub(shift_sub, "matrix", "dense integer matrix of a shift operator")
    p.add_argument("--op", dest="kind", choices=("s0", "sj"), default="sj")
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--d", type=int, default=DEFAULT_D)
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH,
                   help="deepest Haar level in the matrix")

    # torus -----------------------------------------------------------------
    tor = top.add_parser("torus", help="Fourier multipliers and arc projections")
    tor_sub = tor.add_subparsers(dest="action", required=True)
    p = sub(tor_sub, "riesz", "apply the j-th Riesz multiplier -i n_j/|n|")
    p.add_argument("--input", required=True, help="trig polynomial JSON")
    p.add_argument("--j", type=int, default=1)
    p = sub(tor_sub, "hilbert", "apply the directional multiplier -i sign(n_j)")
    p.add_argument("--input", required=True, help="trig polynomial JSON")
    p.add_argument("--j", type=int, default=1)
    p = sub(tor_sub, "project", "average a polynomial over quarter arcs of one variable")
    p.add_argument("--input", required=True, help="trig polynomial JSON")
    p.add_argument("--var", type=int, default=1, help="projection variable, 1-based")
    p = sub(tor_sub, "squarewave", "truncated square wave as a trig polynomial")
    p.add_argument("--kind", choices=("sqcos", "sqsin"), default="sqcos",
                   help="sign of cos or sign of sin")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF,
                   help="highest retained harmonic")
    p.add_argument("--d", type=int, default=1, help="ambient variable count")
    p.add_argument("--var", type=int, default=0, help="embedding variable, 0-based")

    # code ------------------------------------------------------------------
    code = top.add_parser("code", help="sign-toss coding and modulation")
    code_sub = code.add_subparsers(dest="action", required=True)
    p = sub(code_sub, "decompose", "martingale blocks of Haar coefficients")
    p.add_argument("--input", required=True, help="coefficient JSON")
    p.add_argument("--d", type=int, default=DEFAULT_D)
    p.add_argument("--K", type=int, default=None,
                   help="last torus cluster index (default: fits the depth limit)")
    p = sub(code_sub, "check-ek", "check block-support constraints of a spectrum")
    p.add_argument("--input", required=True, help="constrained-spectrum JSON")
    p = sub(code_sub, "modulate", "separate clusters onto scales of one frequency")
    p.add_argument("--input", required=True, help="constrained-spectrum JSON")
    p.add_argument("--A", type=int, required=True,
                   help="separation scale, must exceed twice the max frequency")

    # verify ----------------------------------------------------------------
    ver = top.add_parser("verify", help="certify structural identities")
    ver_sub = ver.add_subparsers(dest="action", required=True)
    p = sub(ver_sub, "hvs",
            "projected Riesz image of a square wave against the partner wave")
    p.add_argument("--d", type=int, default=DEFAULT_D)
    p.add_argument("--j", type=int, default=1, help="multiplier direction, 1-based")
    p.add_argument("--i", type=int, default=None,
                   help="wave variable (default: matched to j)")
    p.add_argument("--sign", type=_sign_arg, default=1, help="wave sign, + or -")
    p.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    p.add_argument("--index-base", type=int, choices=(0, 1), default=0,
                   help="whether --i counts variables from 0 or from 1")
    p.add_argument("--projection-var", type=int, default=None,
                   help="projection variable, 1-based (default: the wave's)")
    p.add_argument("--compare-golden", action="store_true",
                   help="compare the fitted constant against golden c0.json")

    # experiment ------------------------------------------------------------
    exp = top.add_parser("experiment", help="end-to-end seeded experiments")
    exp_sub = exp.add_subparsers(dest="action", required=True)
    p = sub(exp_sub, "modulation", "multiplier-error decay across scales")
    p.add_argument("--input", default=None,
                   help="constrained-spectrum JSON (default: seeded random)")
    p.add_argument("--d", type=int, default=DEFAULT_D)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--terms", type=int, default=30)
    p.add_argument("--max-mag", type=int, default=7)
    p.add_argument("--A-list", type=_int_list, default=None,
                   help="comma-separated scales (default: 16..4096)")
    p.add_argument("--compare-golden", action="store_true",
                   help="compare the sweep against golden modulation_slope.csv")
    p = sub(exp_sub, "duality", "pairing chain between shifts and multipliers")
    p.add_argument("--runs", type=int, default=1, help="seeded runs to report")
    p.add_argument("--d", type=int, default=DEFAULT_D)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--A", type=int, default=1024)
    p.add_argument("--cutoff", type=int, default=1024)

    # norm ------------------------------------------------------------------
    norm = top.add_parser("norm", help="operator norm lower bounds")
    norm_sub = norm.add_subparsers(dest="action", required=True)
    p = sub(norm_sub, "estimate", "iterative lower bound for one operator")
    p.add_argument("--operator",
                   choices=("hilbert", "shift-vector", "s0", "identity"),
                   default="hilbert")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--cutoff", type=int, default=512,
                   help="frequency cutoff for the band-limited multiplier")
    p.add_argument("--d", type=int, default=DEFAULT_D)
    p.add_argument("--depth", type=int, default=6)
    p = sub(norm_sub, "dimension-sweep", "stacked shift-vector norm for each d")
    p.add_argument("--dmax", type=int, default=6)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--compare-golden", action="store_true",
                   help="compare against golden dimension_free.csv")

    return parser


def config_from_args(args):
    subcommand = f"{args.group} {args.action}"
    params = {}
    for name in (
        "depth_limit", "kind", "j", "d", "depth", "var", "cutoff", "K", "A",
        "kmax", "terms", "max_mag", "index_base", "projection_var", "runs",
        "p", "dmax", "operator", "i", "sign",
    ):
        if hasattr(args, name):
            params[name] = getattr(args, name)
    if getattr(args, "A_list", None) is not None:
        params["A_list"] = args.A_list
    if subcommand == "verify hvs":
        if params.get("i") is None:
            params["i"] = (args.j - 1) + args.index_base
    return RunConfig(
        subcommand=subcommand,
        params=params,
        seed=args.seed,
        tolerance=args.tolerance,
        golden_dir=args.golden_dir,
        compare_golden=getattr(args, "compare_golden", False),
        input_path=getattr(args, "input", None),
        output_path=getattr(args, "output", None),
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = config_from_args(args)
    try:
        return run(config)
    except Exception as exc:  # pragma: no cover - last-resort guard
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
