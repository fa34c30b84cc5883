"""Every public name of the package resolves, the package exports exactly
the pinned set, and README's library sample runs: a deletion or rename that
leaves an export or the sample behind fails here, not at a user's import,
and a new export is a deliberate edit of ``PUBLIC``."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import marcsim

PUBLIC = {
    # channel
    "BLOCK_SIZE", "FADING", "STATIC", "ChannelState", "FadingProfile", "PowerConfig",
    "sample_fading_block",
    # info
    "DegenerateCovarianceError", "GaussianSystem", "JointPMF", "LabelError",
    "entropy_discrete", "mutual_info_discrete", "mutual_info_gaussian",
    # outage
    "IndividualOutageEstimate", "OutageEstimate", "common_outage_mc",
    "expected_sum_rate_common", "expected_sum_rate_indiv", "individual_outage_mc",
    "optimize_ru_grid", "outage_flags",
    # rates
    "FeasibilityError", "GaussianFamily", "GqfBounds", "MarcPmfFamily", "RateRegion",
    "RateTarget", "cf_region", "gqf_bounds", "gqf_min_terms_gaussian", "gqf_region",
    "quantizer_index_rate", "region", "sigma_q2_for_fixed_ru", "sigma_q2_opt_sum",
}
# names kept off the public surface: the grid search and the index-rate
# inverse only repeat fig4 and quantizer_index_rate, the reference sampler
# belongs to the tests, the stream and slot builders are internals, the
# CLI writes the config file itself, the per-user equalizer variance
# had no preset, CLI or README user, and the silent-relay region is the
# direct and direct15 entries of region (another boost scales PowerConfig)
REMOVED = {
    "draw_states", "substream", "slot1_system", "slot2_system",
    "optimize_sigma_beta_grid", "ru_for_sigma_q2", "save_config", "sigma_q2_opt_indiv",
    "direct_mac_region",
}


def test_public_names_resolve():
    for info in pkgutil.iter_modules(marcsim.__path__):
        module = importlib.import_module(f"marcsim.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], (info.name, missing)
    imports = [node for node in ast.parse(Path(marcsim.__file__).read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"marcsim.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert hasattr(marcsim, alias.asname or alias.name), alias.name


def test_public_surface_is_pinned():
    exported = {n for n, v in vars(marcsim).items()
                if not n.startswith("_") and not inspect.ismodule(v)}
    assert exported == PUBLIC
    assert not REMOVED & set(dir(marcsim))
    for info in pkgutil.iter_modules(marcsim.__path__):
        module = importlib.import_module(f"marcsim.{info.name}")
        assert not REMOVED & set(getattr(module, "__all__", ())), info.name


def test_readme_library_sample_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    sample = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "import marcsim" in sample
    exec(compile(sample, "README.md", "exec"), {})
