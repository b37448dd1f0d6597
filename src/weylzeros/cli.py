"""Command-line entry point: one subcommand per experiment, driven by a
sectioned key-value config file, emitting CSV results plus a manifest that
reproduces the run byte-for-byte."""

import argparse
import configparser
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, edgeworth, gaussian_theory, lcd, montecarlo
from .dists import from_name
from .errors import ConfigError, WeylzerosError
from .roots import DEFAULT_H0, DEFAULT_THETA, IntervalSpec

EXIT_CODES = {"config": 2, "resource": 3, "numerical": 4, "acceptance": 5}

class AcceptanceGateError(WeylzerosError):
    category = "acceptance"


# schema: key -> (required, parser, default); unknown keys are rejected
def _floats_list(s):
    return [float(v) for v in s.split(",") if v.strip()]


def _ints_list(s):
    return [int(v) for v in s.split(",") if v.strip()]


def _bool(s):
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


_MC_COMMON = {
    "dist": (True, str, None),
    "n": (True, int, None),
    "a": (True, float, None),
    "b": (True, float, None),
    "trials": (True, int, None),
    "theta": (False, float, DEFAULT_THETA),
    "h0": (False, float, DEFAULT_H0),
    "edge_mode": (False, _bool, False),
    "block_exponent": (False, float, 0.3),
    "values": (False, _floats_list, None),
    "probs": (False, _floats_list, None),
    "max_abs_z": (False, float, None),
}

SCHEMAS = {
    "density": {
        "n": (True, int, None),
        "a": (True, float, None),
        "b": (True, float, None),
        "step": (False, float, 0.1),
    },
    "expect": _MC_COMMON,
    "variance": _MC_COMMON,
    "smallball": {
        "dist": (True, str, None),
        "n": (True, int, None),
        "x": (True, float, None),
        "deltas": (True, _floats_list, None),
        "trials": (True, int, None),
        "values": (False, _floats_list, None),
        "probs": (False, _floats_list, None),
    },
    "blocks": _MC_COMMON,
    "edgeworth": {
        "dist": (True, str, None),
        "values": (False, _floats_list, None),
        "probs": (False, _floats_list, None),
    },
    "sumcheck": {
        "t_values": (False, _ints_list, [3, 4]),
        "s_values": (False, _ints_list, [0, 2, 4]),
        "x_values": (False, _floats_list, [20.0, 30.0, 60.0]),
    },
    "lcd": {
        "family": (True, str, None),
        "n": (False, int, None),
        "x": (False, float, None),
        "weight_scale": (False, float, None),
        "weights_file": (False, str, None),
        "r": (True, float, None),
        "d_max": (True, float, None),
        "tau": (True, float, None),
        "step": (False, float, 1e-3),
    },
    "cw": {},
    "fit": {
        "dist": (True, str, None),
        "n": (True, int, None),
        "x": (True, float, None),
        "trials": (True, int, None),
        "values": (False, _floats_list, None),
        "probs": (False, _floats_list, None),
    },
}


def parse_section(subcommand, raw: dict):
    """Validate one config section against the schema (strict keys)."""
    schema = SCHEMAS[subcommand]
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown keys in [{subcommand}]: {', '.join(unknown)}")
    out = {}
    for key, (required, parser, default) in schema.items():
        if key in raw:
            value = raw[key]
            out[key] = parser(value) if isinstance(value, str) else value
        elif required:
            raise ConfigError(f"missing required key {key!r} in [{subcommand}]")
        else:
            out[key] = default
    return out


def load_config(path, subcommand):
    """Read the [subcommand] section from an INI config or a manifest.json."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if path.suffix == ".json":
        manifest = json.loads(path.read_text())
        params = manifest.get("params")
        if params is None:
            raise ConfigError("manifest lacks a params block")
        return parse_section(subcommand, params), manifest.get("seed")
    parser = configparser.ConfigParser()
    parser.read(path)
    if subcommand not in parser:
        raise ConfigError(
            f"config has no [{subcommand}] section; required keys: "
            + ", ".join(k for k, (req, _, _) in SCHEMAS[subcommand].items() if req)
        )
    return parse_section(subcommand, dict(parser[subcommand])), None


def _dist(params):
    return from_name(params["dist"], params.get("values"), params.get("probs"))


def _mc_config(params, seed, workers):
    iv = IntervalSpec(params["a"], params["b"], edge_mode=params["edge_mode"])
    return montecarlo.ExperimentConfig(
        n=params["n"],
        iv=iv,
        dist=_dist(params),
        trials=params["trials"],
        seed=seed,
        delta_exponent=params["theta"],
        grid_step=params["h0"],
        block_exponent=params["block_exponent"],
        workers=workers,
    )


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _require_seed(seed):
    if seed is None:
        raise ConfigError("this subcommand needs --seed (or a manifest seed)")
    return seed


def run_density(params, seed, workers, out):
    xs = np.arange(params["a"], params["b"] + params["step"] / 2, params["step"])
    rows = [(x, gaussian_theory.intensity_gaussian(x, params["n"])) for x in xs.tolist()]
    write_csv(out / "density.csv", ["x", "rho"], rows)
    return {"points": len(rows)}


def _gate_info(summary_z, max_abs_z):
    # the violation is raised only after the manifest is on disk
    if max_abs_z is not None and abs(summary_z) > max_abs_z:
        return f"|z| = {abs(summary_z):.3f} exceeds gate {max_abs_z}"
    return None


def _moment_runner(csv_name, columns, fields, z_index):
    """The `expect` or `variance` runner: one `run_expectation`, whose summary
    `fields` fill one CSV row under `columns`, gated on z_scores[z_index]."""

    def run(params, seed, workers, out):
        s = montecarlo.run_expectation(_mc_config(params, _require_seed(seed), workers))
        z = s.z_scores[z_index]
        write_csv(out / csv_name, ["dist", "n", "a", "b", "trials", *columns, "z"],
                  [(s.dist, s.n, s.a, s.b, s.trials, *(getattr(s, f) for f in fields), z)])
        return {"validity_fail_rate": s.validity_fail_rate, "warning": s.warning,
                "gate_violation": _gate_info(z, params["max_abs_z"])}

    return run


run_expect = _moment_runner("expectation.csv", ("mean", "se_mean", "theory_mean"),
                            ("mean", "se_mean", "theory_mean"), 0)
run_variance = _moment_runner("variance.csv", ("var", "se_var", "theory_var"),
                              ("variance", "se_variance", "theory_variance"), 1)


def _point_config(params, seed, workers):
    """Config of `smallball` and `fit`, which read no interval.  ExperimentConfig
    needs one; the placeholder [x/2, 2x] stays until perfbench's SmallBall
    workload stops building ExperimentConfig(iv=...)."""
    iv = IntervalSpec(params["x"] / 2.0, params["x"] * 2.0, edge_mode=True)
    return montecarlo.ExperimentConfig(
        n=params["n"], iv=iv, dist=_dist(params), trials=params["trials"],
        seed=_require_seed(seed), workers=workers,
    )


def run_smallball(params, seed, workers, out):
    rows = montecarlo.run_smallball(params["x"], params["deltas"],
                                    _point_config(params, seed, workers))
    write_csv(
        out / "smallball.csv",
        ["dist", "n", "x", "delta", "dim", "freq", "freq_over_vol", "theory"],
        [(r.dist, r.n, r.x, r.delta, r.dim, r.freq, r.freq_over_vol, r.theory) for r in rows],
    )
    return {"rows": len(rows)}


def run_blocks(params, seed, workers, out):
    cfg = _mc_config(params, _require_seed(seed), workers)
    bc = montecarlo.block_covariance(cfg)
    rows = [
        (s, t, float(bc.matrix[s, t]))
        for s in range(bc.matrix.shape[0])
        for t in range(bc.matrix.shape[1])
    ]
    write_csv(out / "blocks.csv", ["s", "t", "cov"], rows)
    return {
        "total_variance": bc.total_variance,
        "additivity_residual": bc.additivity_residual,
        "offdiag_fraction": bc.offdiag_fraction,
        "edges": [float(e) for e in bc.edges],
    }


def run_edgeworth(params, seed, workers, out):
    dist = _dist(params)
    k4, k3sq, terms = edgeworth.expectation_correction_coefficients()
    lines = [
        f"kurtosis coefficient (assembled): {k4!r}",
        f"kurtosis coefficient (closed):    {edgeworth.K4_COEFF!r}",
        f"skew-squared coefficient (assembled): {k3sq!r}",
        f"skew-squared coefficient (closed):    {edgeworth.K3SQ_COEFF!r}",
        f"C_xi[{dist.kind}] = {edgeworth.correction_constant(dist)!r}",
    ]
    print("\n".join(lines))
    rows = []
    for t in terms:
        print(
            f"  {t.source} {t.indices}: weight={t.weight!r} abs={t.abs_factor!r} "
            f"zero={t.zero_factor!r} log_coeff={t.log_coeff!r} -> {t.contribution!r}"
        )
        rows.append(
            (t.source, str(t.indices), t.weight, t.abs_factor, t.zero_factor,
             t.log_coeff, t.contribution)
        )
    write_csv(
        out / "edgeworth.csv",
        ["source", "indices", "weight", "abs_factor", "zero_factor", "log_coeff",
         "contribution"],
        rows,
    )
    return {"k4_coeff": k4, "k3sq_coeff": k3sq,
            "c_xi": edgeworth.correction_constant(dist)}


def run_sumcheck(params, seed, workers, out):
    rows = []
    for x in params["x_values"]:
        n = int(x * x + 30 * x + 200)
        for t in params["t_values"]:
            for s in params["s_values"]:
                exact, closed = edgeworth.asymptotic_sum(t, s, x, n)
                rel = abs(exact / closed - 1.0)
                rows.append((t, s, x, n, exact, closed, rel))
                print(f"t={t} s={s} x={x}: exact={exact!r} closed={closed!r} rel={rel:.3e}")
    write_csv(
        out / "sumcheck.csv",
        ["t", "s", "x", "n", "exact", "closed_form", "rel_err"], rows,
    )
    return {"rows": len(rows)}


def run_lcd(params, seed, workers, out):
    family = params["family"]
    if family == "sk":
        if params["n"] is None:
            raise ConfigError("lcd family 'sk' requires n")
        weights = lcd.sk_weights(params["n"])
    elif family == "weyl":
        if params["n"] is None or params["x"] is None:
            raise ConfigError("lcd family 'weyl' requires n and x")
        scale = params["weight_scale"] if params["weight_scale"] else params["x"]
        weights = lcd.weyl_weights(params["x"], params["n"], scale)
    elif family == "custom-file":
        if not params["weights_file"]:
            raise ConfigError("lcd family 'custom-file' requires weights_file")
        weights = np.loadtxt(params["weights_file"], ndmin=1)
    else:
        raise ConfigError(f"unknown lcd family {family!r}")
    query = lcd.LCDQuery(
        weights=weights, r=params["r"], D_max=params["d_max"], tau=params["tau"],
        scan_step=params["step"],
    )
    res = lcd.lcd_search(query)
    write_csv(out / "lcd_profile.csv", ["D", "objective"], list(res.profile))
    summary = {
        "d_star": res.d_star,
        "min_objective": res.min_objective,
        "argmin": [float(v) for v in np.atleast_1d(res.argmin)],
        "certified_resolution": res.certified_resolution,
        "lipschitz": res.lipschitz,
        "certified_lower_bound": res.certified_lower_bound,
        "max_excluded_supported": lcd.MAX_EXCLUDED,
    }
    print(json.dumps(summary, indent=2))
    return summary


def run_cw(params, seed, workers, out):
    vc = gaussian_theory.variance_constant_weyl()
    info = {
        "reading_a": vc.reading_a,
        "reading_b": vc.reading_b,
        "selected": vc.selected,
        "selected_name": vc.selected_name,
        "tail_bound": vc.tail_bound,
        "truncation": vc.truncation,
    }
    print(json.dumps(info, indent=2))
    (out / "cw.json").write_text(json.dumps(info, indent=2))
    return info


def run_fit(params, seed, workers, out):
    d_edge, d_gauss = montecarlo.edgeworth_fit(params["x"], _point_config(params, seed, workers))
    write_csv(
        out / "fit.csv",
        ["dist", "n", "x", "trials", "dist_emp_vs_edgeworth", "dist_emp_vs_gauss"],
        [(params["dist"], params["n"], params["x"], params["trials"], d_edge, d_gauss)],
    )
    print(f"edgeworth: {d_edge!r}  gauss: {d_gauss!r}")
    return {"dist_emp_vs_edgeworth": d_edge, "dist_emp_vs_gauss": d_gauss}


RUNNERS = {
    "density": run_density,
    "expect": run_expect,
    "variance": run_variance,
    "smallball": run_smallball,
    "blocks": run_blocks,
    "edgeworth": run_edgeworth,
    "sumcheck": run_sumcheck,
    "lcd": run_lcd,
    "cw": run_cw,
    "fit": run_fit,
}

SUBCOMMANDS = tuple(RUNNERS)


def build_parser():
    p = argparse.ArgumentParser(
        prog="weylzeros",
        description="Random Weyl polynomial real-zero experiments",
    )
    p.add_argument("subcommand", choices=SUBCOMMANDS)
    p.add_argument("--config", required=True, help="INI config or manifest.json")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="64-bit master seed")
    p.add_argument("--workers", type=int, default=None, help="parallel workers")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        params, manifest_seed = load_config(args.config, args.subcommand)
        seed = args.seed if args.seed is not None else manifest_seed
        workers = args.workers if args.workers is not None else 0
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        info = RUNNERS[args.subcommand](params, seed, workers, out)
        manifest = {
            "subcommand": args.subcommand,
            "config_path": str(args.config),
            "out": str(out),
            "seed": seed,
            "workers": workers,
            "version": __version__,
            "params": {k: v for k, v in params.items()},
            "result": info,
        }
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, default=float))
        if info.get("gate_violation"):
            raise AcceptanceGateError(info["gate_violation"])
    except WeylzerosError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
