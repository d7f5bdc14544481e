"""The package's public surface: what `import memscat` exports, and the test
instruments that stay out of it."""

import importlib

import pytest

import memscat

PUBLIC_NAMES = [
    "BlockOperator", "BreakdownReport", "CapabilityError",
    "CoefficientVector", "ConvergenceReport", "Cylinder", "DEFAULT_SOURCE",
    "InsufficientPointsError", "InteriorPointError", "NORM_L0", "NORM_LHALF",
    "NonConvergenceError", "PRESET_NAMES", "PRESET_RADII", "PairGeometry",
    "PlaneWave", "PointSource", "RateFit", "Scene", "SceneValidationError",
    "SingularSystemError", "SolveResult", "analysis", "approximation_error",
    "assemble_raw", "assemble_system", "assembly", "boundary_residual",
    "breakdown_check", "convergence_sweep", "dump_system", "dumps_scene",
    "errors", "field", "fit_rate", "gamma1", "gamma2", "incident_field",
    "load_scene", "loads_scene", "mode_range", "mode_weights",
    "pairing_block_quadrature", "pairwise_geometry",
    "preset_scene", "presets", "require_valid", "scattered_field", "scene",
    "single_layer_field_quadrature", "solve", "solver", "specfun",
    "total_field_grid", "validate_scene", "write_bounds_csv",
    "write_field_csv", "write_plot_script", "write_report_csv",
]

# instruments only the tests use; they live in tests/instruments.py
TEST_INSTRUMENTS = [
    ("analysis", "sigma_series_raw"),
    ("analysis", "theorem_slack"),
    ("analysis", "onset_truncation"),
    ("specfun", "hyp2f1_peaked"),
    ("field", "far_field_amplitude"),
    ("field", "total_field"),
    ("assembly", "incident_trace_quadrature"),
    ("specfun", "bessel_j"),
    ("specfun", "bessel_y"),
    ("specfun", "hankel1"),
    ("specfun", "_single"),
    ("assembly", "load_system_dump"),
]


def test_public_names():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(memscat.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module, name", TEST_INSTRUMENTS)
def test_instrument_is_not_in_the_package(module, name):
    assert not hasattr(importlib.import_module(f"memscat.{module}"), name)
    assert not hasattr(memscat, name)
