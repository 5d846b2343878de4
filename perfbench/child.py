"""One fresh interpreter of the benchmark; run.py starts it and reads the
JSON object it prints as its last stdout line.

    child.py setup CONFIG                  import flipq + load_run_config, timed
    child.py cli CONFIG TRACE ARGV...      one timed flipq.cli.main(ARGV) call
    child.py batch CONFIG TRACE SEED LANES SECONDS MIN_REPS TRACED_REPS

``cli`` times only the main() call: the metric cache and numpy's first
calls stay cold, as in every real CLI invocation.  ``batch`` warms up once
and then repeats the library calls in this process, as a library user
does, checking every repetition's outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

TRACE_FILE = "trace-{name}.json"
MOMENT_TOL = 1e-12
NEWTON_TOL = 1e-12


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(config: str) -> dict:
    t0 = time.perf_counter()
    import flipq  # noqa: F401  (the import is what is timed)
    from flipq import config_io

    config_io.load_run_config(config)
    return {"setup_s": time.perf_counter() - t0}


def cli(config: str, trace: bool, argv: list[str]) -> dict:
    import flipq.cli

    main = flipq.cli.main
    tracer = None
    if trace:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap(ROOT, main)
    argv = argv + ["--config", config]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            if tracer is None:
                t0 = time.perf_counter()
                code = main(argv)
                wall = time.perf_counter() - t0
            else:
                code, wall = tracer.run_op(0, main, argv)
    except SystemExit as e:  # argparse usage errors
        code, wall = e.code, None
    result = {"run_s": wall, "rss_mb": peak_rss_mb(), "exit_code": code, "stdout": out.getvalue()}
    if tracer is not None:
        result["layers"] = tracer.summary(0)
        tracer.write(Path(config).with_name(TRACE_FILE.format(name=Path(config).stem)))
    return result


# ---------------------------------------------------------------------------
# batch_bulk


def _fourier_norm_sq(terms, thetas, y):
    """|y|^2 under the config's Fourier metric field, evaluated here from the
    config document so the check does not reuse flipq's kernels."""
    import numpy as np

    out = np.zeros(len(thetas))
    for term in terms:
        for key, fn in (("cos", np.cos), ("sin", np.sin)):
            if key in term:
                mat = np.asarray(term[key], dtype=complex)
                q = np.einsum("ni,ij,nj->n", y.conj(), mat, y).real
                out += fn(term["n"] * thetas) * q
    return out


def _moment_residual(doc, thetas, t, y_prime, y_second):
    metrics = doc["metrics"]
    g1 = _fourier_norm_sq(metrics["g_prime"], thetas, y_prime)
    g2 = _fourier_norm_sq(metrics["g_second"], thetas, y_second)
    return abs(0.5 * (g1 - g2) + t)


def batch(config: str, trace: bool, seed: int, lanes: int, seconds: float,
          min_reps: int, traced_reps: int) -> dict:
    import numpy as np

    from flipq import config_io, kernels, perturbation, quotient, sampling

    doc = json.loads(Path(config).read_text())
    cfg = config_io.load_run_config(config).model
    thetas, y_prime, y_second = sampling.random_domain_batch(np.random.default_rng(seed), cfg, lanes)
    chi_ref, g1, g2 = perturbation.chi_parts_batch(cfg, thetas, y_prime, y_second)
    far_seed = np.ones(lanes)

    def op():
        chi = perturbation.chi_eval_batch(cfg, thetas, y_prime, y_second)
        matched = perturbation.matching_map_batch(cfg, thetas, y_prime, y_second)
        level = quotient.level_rho_batch(cfg, thetas, chi, y_prime, y_second)
        newton = kernels.newton_rescale(g1, g2, chi_ref, seed=far_seed)
        return chi, matched, level, newton

    def failed_lanes(outputs) -> int:
        chi, (rho, t, out_prime, out_second, status), level, (nrho, nresid, _, nstatus) = outputs
        ok = (status == kernels.STATUS_OK) & (nstatus == kernels.STATUS_OK)
        ok &= (chi == chi_ref) & (t == chi_ref)
        ok &= _moment_residual(doc, thetas, t, out_prime, out_second) <= MOMENT_TOL
        ok &= np.isfinite(level)
        ok &= _moment_residual(doc, thetas, chi, y_prime * level[:, None], y_second / level[:, None]) <= MOMENT_TOL
        alpha = -0.5 * (nrho * nrho * g1 - g2 / (nrho * nrho)) - chi_ref
        ok &= (nresid <= NEWTON_TOL) & (np.abs(alpha) <= NEWTON_TOL)
        return int(lanes - ok.sum())

    def digest(outputs) -> bytes:
        chi, matched, level, newton = outputs
        return b"".join(a.tobytes() for a in (chi, matched[0], level, newton[0]))

    first = op()  # warm-up, checked like the rest
    reference = digest(first)
    failed = failed_lanes(first)
    reps = 1
    deterministic = True
    samples = []
    start = time.perf_counter()
    while len(samples) < min_reps or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        outputs = op()
        samples.append(time.perf_counter() - t0)
        failed += failed_lanes(outputs)
        deterministic &= digest(outputs) == reference
        reps += 1
        del outputs
    result = {"samples": samples, "rss_mb": peak_rss_mb(), "attempted": reps * lanes,
              "failed": failed, "deterministic": deterministic}

    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.run_op("setup", config_io.load_run_config, config)
        traced = []
        for i in range(traced_reps):
            outputs, wall = tracer.run_op(i, op)
            result["attempted"] += lanes
            result["failed"] += failed_lanes(outputs)
            result["deterministic"] &= digest(outputs) == reference
            traced.append({"run_s": wall, "layers": tracer.summary(i)})
        # the config is loaded once, before the timed loop: report that load
        setup_layers = {k: v for k, v in tracer.summary("setup").items()
                        if k.startswith(("config_io.load_run_config", "core.validate_config"))}
        for t in traced:
            t["layers"].update(setup_layers)
        result["traced"] = traced
        tracer.write(Path(config).with_name(TRACE_FILE.format(name=Path(config).stem)))
    return result


def main(argv: list[str]) -> int:
    mode, config = argv[0], argv[1]
    try:
        if mode == "setup":
            result = setup(config)
        elif mode == "cli":
            result = cli(config, argv[2] == "1", argv[3:])
        else:
            trace, seed, lanes, seconds, min_reps, traced_reps = argv[2:8]
            result = batch(config, trace == "1", int(seed), int(lanes), float(seconds),
                           int(min_reps), int(traced_reps))
    except Exception:  # reported to run.py, which counts the operation as failed
        result = {"error": traceback.format_exc()}
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
