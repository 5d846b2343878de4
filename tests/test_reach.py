"""The reach gate: which functions of flipq the CLI pipeline never enters.

A fixed list of CLI commands runs in this process under sys.setprofile:
verify, scan --csv, match --point/--random/--blowup-rays and report on the
shipped fixtures and on preset documents (built under the hook, so the
presets count as reached), then the error paths.  Every function defined
in src/flipq that the list never enters must be in UNREACHED, with the
reason it stays: a library call that README names, a call of an
acceptance criterion, or the ROADMAP item that will reach it.  The list
only shrinks: a function that the pipeline reaches comes off it, and a new
function that nothing reaches goes on it with its reason.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
from pathlib import Path

from flipq import presets
from flipq.cli import main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
SRC = HERE.parent / "src" / "flipq"

# module.qualname -> why it stays although the CLI list never enters it
UNREACHED = {
    "blowup.BlowupPoint.__post_init__": "criterion 5 builds BlowupPoints",
    "blowup.BoundaryPoint.__post_init__": "criterion 7, through boundary_coords",
    "blowup._check_unit_norm": "criterion 8, through renorm_eval; README names make_blowup_point",
    "blowup._polar_lane": "criterion 3, through to_blowup and cstar_act_blowup",
    "blowup.boundary_coords": "criterion 7; item 8 reaches it from match",
    "blowup.cstar_act_blowup": "criterion 3; item 8 reaches it from match",
    "blowup.from_blowup": "criterion 5, through solve_rho_blowup",
    "blowup.make_blowup_point": "README names it",
    "blowup.to_blowup": "criterion 3",
    "cli.entry": "the console script flipq (pyproject.toml) that README's CLI section runs",
    "core.MetricFieldSpec.identity": "README names it",
    "core._cstar_scalar": "criteria 2 and 3, through cstar_act and cstar_act_blowup",
    "core.cstar_act": "criterion 2",
    "core.fiber_norms": "criterion 6",
    "core.one_lane": "criterion 6, through the scalar wrappers",
    "kernels.Harmonics.nbytes": "perfbench's tracer reads it for bytes_computed (item 21 keeps it)",
    "kernels._newton_block": "criterion 6, through solve_rho(seed=1.0)",
    "kernels.newton_rescale": "criterion 6, through solve_rho(seed=1.0)",
    "kernels.rescale_alpha": "criterion 6, through newton_rescale",
    "kernels.rescale_beta": "criterion 6, through newton_rescale",
    "perturbation.PerturbationSpec.single": "README names it",
    "perturbation.chi_eval": "README names it",
    "perturbation.extract_graph": "item 5 reaches it from report",
    "perturbation.extract_graph.<locals>.phi_at": "item 5, inside extract_graph",
    "perturbation.extract_graph.<locals>.slope": "item 5, inside extract_graph",
    "perturbation.matching_map": "README names it",
    "perturbation.matching_map_batch": "criterion 7",
    "perturbation.phi_moment": "criterion 4",
    "perturbation.renorm_eval": "criterion 8; item 2 reaches it from the rays",
    "perturbation.solve_rho": "criterion 6",
    "perturbation.solve_rho_blowup": "criterion 5",
    "perturbation.taylor_rest": "README names it",
    "presets.builtin_perturbation_terms": "criterion 4",
    "quotient._is_zero": "criterion 2, through quotient_chart",
    "quotient._level_lane": "README names classify and normalize_to_level, which read it",
    "quotient._pivot": "criterion 2, through quotient_chart and tilde_coords",
    "quotient.classify": "README names it",
    "quotient.moment_value": "README names it; item 21 lists it for deletion",
    "quotient.normalize_to_level": "README names it",
    "quotient.quotient_chart": "criterion 2; item 8 reaches it from match",
    "quotient.segre_point": "criterion 2",
    "quotient.tilde_coords": "criterion 2; item 8 reaches it from match",
    "sampling.random_unit_direction": "criteria 3, 5 and 7",
    "sampling.random_zeta": "criteria 2 and 3",
}

SMALL_VERIFY = ["--samples", "200", "--theta-grid", "8", "--fd-step", "1e-3", "--tol", "1e-4"]
SMALL_REPORT = SMALL_VERIFY + ["--theta-steps", "4", "--t-steps", "3", "--match-samples", "20", "--blowup-rays", "2"]


def _commands(config: Path, csv: str) -> list[list[str]]:
    """verify, scan --csv, match and report on one config."""
    ranks = json.loads(config.read_text())["ranks"]
    point = json.dumps({"theta": 0.5, "y_prime": [[0.1, 0.05]] * ranks["r_prime"],
                        "y_second": [[0.1, 0.0]] * ranks["r_second"]})
    return [["verify", *SMALL_VERIFY, "--config", str(config)],
            ["scan", "--theta-steps", "4", "--t-steps", "3", "--samples", "8", "--csv", csv, "--config", str(config)],
            ["match", "--point", point, "--random", "8", "--blowup-rays", "2", "--seed", "1", "--config", str(config)],
            ["report", "--seed", "1", *SMALL_REPORT, "--config", str(config)]]


def _defined() -> set[str]:
    """module.qualname of every function defined in src/flipq, nested ones and methods included."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(prefix + child.name)
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)
        walk(ast.parse(path.read_text()), f"{path.stem}.")
    return names


def _run_pipeline(tmp_path: Path) -> tuple[set[str], list]:
    """(module.qualname of every src/flipq function entered, exit codes) of the fixed command list."""
    src = str(SRC.resolve())
    entered = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(src):
            entered.add(f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_qualname}")

    csv = str(tmp_path / "scan.csv")
    quartic = str(FIXTURES / "quartic.json")
    codes = []
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        configs = [FIXTURES / name for name in ("default.json", "quartic.json", "wrong_sign.json", "fourier21.json")]
        for name, doc in (("fourier33", presets.fourier_metric_config(3, 3)),
                          ("ref_section", presets.ref_section_config())):
            configs.append(tmp_path / f"{name}.json")
            configs[-1].write_text(json.dumps(doc))
        commands = [argv for config in configs for argv in _commands(config, csv)]
        commands += [
            ["match", "--point", '{"theta": 0, "y_prime": [5.0], "y_second": [0]}', "--config", quartic],
            ["match", "--point", '{"theta": 0, "y_prime": [1e-165], "y_second": [0]}', "--config", quartic],
            ["verify", "--fd-step", "5", "--config", quartic],
            ["verify", "--config", str(FIXTURES / "bad_syntax.json")],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes.append(main(argv))
                except SystemExit as e:  # argparse's usage errors
                    codes.append(e.code)
    finally:
        sys.setprofile(previous)
    return entered, codes


def test_the_pipeline_enters_every_function_off_the_allowlist(tmp_path):
    entered, codes = _run_pipeline(tmp_path)
    # wrong_sign.json fails verify and report; the error paths end in a refused lane (exit 0) or a usage
    # error (2)
    assert codes == [0] * 8 + [1, 0, 0, 1] + [0] * 12 + [0, 0, 2, 2]
    unreached = _defined() - entered
    assert sorted(unreached - UNREACHED.keys()) == [], "entered by no command: list it with its reason"
    assert sorted(UNREACHED.keys() - unreached) == [], "reached or gone: take it off UNREACHED"
    assert all(UNREACHED.values())
