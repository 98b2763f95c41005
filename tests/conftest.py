import os
from pathlib import Path

from hypothesis import HealthCheck, settings

# pyproject puts src on this process's import path; the CLI tests start
# `python -m vandiff` in child processes, which need it too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")
