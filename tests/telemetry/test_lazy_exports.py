"""Lazy export surfaces: ``repro.batch`` PEP 562 exports, the analysis
re-exports of the streaming reducers, and cold-process observer-kind
resolution (the path spawn workers take)."""

import subprocess
import sys

import pytest


def test_batch_dir_lists_lazy_exports_without_importing_them():
    import repro.batch as batch

    listed = dir(batch)
    for name in ("BatchedEngine", "BatchTrace", "ObserverSpec", "run_batch"):
        assert name in listed
    assert listed == sorted(set(listed))
    assert set(batch.__all__) <= set(listed)


def test_batch_getattr_resolves_and_caches():
    import repro.batch as batch

    engine = batch.BatchedEngine
    from repro.batch.engine import BatchedEngine

    assert engine is BatchedEngine
    assert "BatchedEngine" in vars(batch)  # cached after first access
    with pytest.raises(AttributeError, match="no attribute"):
        batch.not_an_export


def test_analysis_reexports_streaming_reducers_lazily():
    import repro.analysis as analysis

    listed = dir(analysis)
    for name in (
        "StreamingConvergence",
        "StreamingFirstBeep",
        "StreamingInvariantChecker",
        "StreamingInvariantSummary",
        "StreamingWaveFronts",
    ):
        assert name in listed
        assert name in analysis.__all__
    from repro.analysis import StreamingConvergence
    from repro.telemetry.reducers import (
        StreamingConvergence as TelemetryStreamingConvergence,
    )

    assert StreamingConvergence is TelemetryStreamingConvergence
    with pytest.raises(AttributeError, match="no attribute"):
        analysis.StreamingNothing


def test_observer_kinds_resolve_in_a_cold_process():
    # A fresh interpreter that never imports repro.telemetry: ObserverSpec
    # must late-register the streaming/spill kinds on first sight — this is
    # exactly what a spawn worker does when it unpickles an observed cell.
    code = (
        "import sys\n"
        "from repro.batch.observers import ObserverSpec, build_observer\n"
        "assert 'repro.telemetry' not in sys.modules\n"
        "spec = ObserverSpec('streaming-first-beep')\n"
        "assert 'repro.telemetry' in sys.modules\n"
        "observer = build_observer(ObserverSpec('spill-trace'))\n"
        "print(type(observer).__name__)\n"
    )
    import os

    import repro

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root, env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    )
    assert completed.stdout.strip() == "SpillingTraceRecorder"


def test_unknown_observer_kind_still_fails_cleanly():
    from repro.batch.observers import ObserverSpec
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="unknown observer kind"):
        ObserverSpec("streaming-nonsense")
