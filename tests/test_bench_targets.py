"""Every function the benchmark's tracer wraps still exists in the
package, so a rename fails here rather than inside a traced benchmark
run."""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _trace_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _trace_targets()
    assert targets
    for name, module_name, attr in targets:
        owner = importlib.import_module(module_name)
        if "." in attr:
            # the tracer patches the method in the class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr, None)), name
