"""The traced benchmark wraps the functions named in perfbench/tracing.py
LAYERS; each must stay a public attribute of its home module."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_layers():
    """LAYERS read from the source text, without importing perfbench."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "LAYERS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("no LAYERS assignment in perfbench/tracing.py")


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert len(layers) > 20
    for module, name in layers:
        home = importlib.import_module(f"factorcover.{module}")
        assert callable(getattr(home, name, None)), (module, name)


def test_report_serialisation_point_resolves():
    # Tracer.installed() also wraps GraphReport.to_dict as report.serialize
    from factorcover.report import GraphReport

    assert callable(getattr(GraphReport, "to_dict", None))
