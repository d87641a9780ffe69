"""reprolint: fixture-driven checker tests + CLI round trip.

Each rule is exercised against known-bad and known-good fixture snippets
under ``tests/analysis_fixtures/`` (parsed, never imported), the CLI is
round-tripped through JSON output / baseline suppression / exit codes,
and a regression test holds the real tree at zero findings so the
committed empty baseline stays honest.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import build_checkers, run_analysis
from repro.analysis.cli import main as cli_main
from repro.analysis.runner import (
    baseline_payload,
    diff_baseline,
    iter_python_files,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"

RULES = (
    "lock-discipline",
    "async-blocking",
    "error-taxonomy",
    "resource-lifecycle",
    "wire-completeness",
    "determinism",
)


def analyse(path: Path, rule: str):
    """Findings of one rule over one fixture file (root = fixtures dir,
    so path-scoped rules see the right path parts)."""
    findings, _ = run_analysis(FIXTURES, [path], build_checkers([rule]))
    return findings


# ---------------------------------------------------------------------------
# Framework basics
# ---------------------------------------------------------------------------

def test_every_rule_is_registered():
    names = [checker.name for checker in build_checkers()]
    assert sorted(names) == sorted(RULES)
    assert all(checker.description for checker in build_checkers())


def test_unknown_rule_is_rejected():
    with pytest.raises(ValueError, match="unknown rule"):
        build_checkers(["no-such-rule"])


def test_file_walk_skips_pycache(tmp_path):
    (tmp_path / "keep.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "skip.py").write_text("x = 1\n")
    hidden = tmp_path / ".hidden"
    hidden.mkdir()
    (hidden / "skip.py").write_text("x = 1\n")
    names = [p.name for p in iter_python_files([tmp_path])]
    assert names == ["keep.py"]


def test_syntax_error_becomes_parse_error_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def nope(:\n")
    findings, checked = run_analysis(tmp_path, [bad])
    assert checked == 1
    assert [f.rule for f in findings] == ["parse-error"]


# ---------------------------------------------------------------------------
# Rule fixtures: positives and negatives
# ---------------------------------------------------------------------------

def test_lock_discipline_flags_unlocked_mutations():
    findings = analyse(FIXTURES / "locks_bad.py", "lock-discipline")
    symbols = sorted(f.symbol for f in findings)
    assert symbols == [
        "RacyCounter.reset",
        "RacyRegistry.evict",
        "RacyRegistry.mark_all",
    ]
    assert all(f.line > 0 and f.rule == "lock-discipline"
               for f in findings)


def test_lock_discipline_accepts_disciplined_classes():
    assert analyse(FIXTURES / "locks_good.py", "lock-discipline") == []


def test_async_blocking_flags_blocking_calls():
    findings = analyse(FIXTURES / "async_bad.py", "async-blocking")
    by_symbol = {f.symbol for f in findings}
    assert by_symbol == {"sleepy", "dialer", "reader", "loader", "consumer"}
    assert len(findings) == 5


def test_async_blocking_accepts_asyncio_native_code():
    assert analyse(FIXTURES / "async_good.py", "async-blocking") == []


def test_error_taxonomy_flags_untyped_raises_and_swallows():
    findings = analyse(FIXTURES / "serve" / "taxonomy_bad.py",
                       "error-taxonomy")
    raises = [f for f in findings if "raise of untyped" in f.message]
    handlers = [f for f in findings if "broad" in f.message]
    assert len(raises) == 2
    assert len(handlers) == 3


def test_error_taxonomy_accepts_sanctioned_shapes():
    assert analyse(FIXTURES / "serve" / "taxonomy_good.py",
                   "error-taxonomy") == []


def test_error_taxonomy_is_scoped_to_serve(tmp_path):
    # The same violation outside a serve/ path is out of scope.
    outside = tmp_path / "taxonomy_elsewhere.py"
    outside.write_text('def f():\n    raise Exception("x")\n')
    findings, _ = run_analysis(tmp_path, [outside],
                               build_checkers(["error-taxonomy"]))
    assert findings == []


def test_error_taxonomy_covers_gateway_paths():
    findings = analyse(FIXTURES / "gateway" / "taxonomy_bad.py",
                       "error-taxonomy")
    raises = [f for f in findings if "raise of untyped" in f.message]
    handlers = [f for f in findings if "broad" in f.message]
    assert len(raises) == 2
    assert len(handlers) == 2


def test_error_taxonomy_accepts_gateway_shapes():
    # Gateway-typed raises (HttpError, AdmissionRejected) and the
    # connection handler's kind-tagged reply dicts are sanctioned.
    assert analyse(FIXTURES / "gateway" / "taxonomy_good.py",
                   "error-taxonomy") == []


def test_async_blocking_flags_gateway_handlers():
    findings = analyse(FIXTURES / "gateway" / "async_bad.py",
                       "async-blocking")
    assert {f.symbol for f in findings} == {
        "handle_connection", "proxy_upstream", "spool_body",
    }


def test_async_blocking_accepts_gateway_native_shapes():
    assert analyse(FIXTURES / "gateway" / "async_good.py",
                   "async-blocking") == []


def test_resource_lifecycle_flags_leaks():
    findings = analyse(FIXTURES / "lifecycle_bad.py", "resource-lifecycle")
    assert sorted(f.symbol for f in findings) == [
        "bind_and_forget", "drop_on_floor", "forget_worker",
    ]


def test_resource_lifecycle_accepts_every_ownership_shape():
    assert analyse(FIXTURES / "lifecycle_good.py",
                   "resource-lifecycle") == []


def test_resource_lifecycle_watches_gateway_constructors():
    findings = analyse(FIXTURES / "gateway" / "lifecycle_bad.py",
                       "resource-lifecycle")
    assert sorted(f.symbol for f in findings) == [
        "leak_client", "probe", "serve_and_forget", "warm_cache",
    ]


def test_resource_lifecycle_accepts_gateway_ownership_shapes():
    assert analyse(FIXTURES / "gateway" / "lifecycle_good.py",
                   "resource-lifecycle") == []


def test_lock_discipline_flags_cache_helper_races():
    findings = analyse(FIXTURES / "gateway" / "locks_bad.py",
                       "lock-discipline")
    assert sorted(f.symbol for f in findings) == [
        "RacyResponseCache.evict", "RacyResponseCache.evict",
    ]


def test_lock_discipline_accepts_cache_discipline_and_pragma():
    assert analyse(FIXTURES / "gateway" / "locks_good.py",
                   "lock-discipline") == []


def test_wire_completeness_flags_codec_drift():
    findings = analyse(FIXTURES / "wire_bad.py", "wire-completeness")
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert any("'retries'" in m and "to_wire and from_wire" in m
               for m in messages)
    assert any("'extra'" in m and "no backing dataclass field" in m
               for m in messages)


def test_wire_completeness_accepts_complete_codecs():
    assert analyse(FIXTURES / "wire_good.py", "wire-completeness") == []


def test_wire_completeness_matches_spquery_across_files(tmp_path):
    ops = tmp_path / "ops.py"
    ops.write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\n"
        "class SPQuery:\n"
        "    predicates: tuple = ()\n"
        "    projection: tuple = None\n"
        "    limit: int = 0\n"
    )
    wire = tmp_path / "wire.py"
    wire.write_text(
        "def encode_query(query):\n"
        "    return {'type': 'sp', 'predicates': list(query.predicates),\n"
        "            'projection': query.projection}\n\n\n"
        "def decode_query(payload):\n"
        "    return (payload['predicates'], payload['projection'])\n"
    )
    findings, _ = run_analysis(tmp_path, [tmp_path],
                               build_checkers(["wire-completeness"]))
    assert len(findings) == 1
    assert "'limit'" in findings[0].message
    assert findings[0].path == "ops.py"
    assert findings[0].symbol == "SPQuery"


def test_determinism_flags_unseeded_and_global_rng():
    findings = analyse(FIXTURES / "repro" / "determinism_bad.py",
                       "determinism")
    assert len(findings) == 6
    assert all(f.rule == "determinism" for f in findings)


def test_determinism_accepts_seeded_generators():
    assert analyse(FIXTURES / "repro" / "determinism_good.py",
                   "determinism") == []


def test_determinism_strict_scope_flags_unseeded_ensure_rng():
    findings = analyse(
        FIXTURES / "repro" / "loadgen" / "determinism_loadgen_bad.py",
        "determinism",
    )
    assert len(findings) == 2
    assert all("entropy" in f.message for f in findings)


def test_determinism_strict_scope_accepts_explicit_seeds():
    assert analyse(
        FIXTURES / "repro" / "loadgen" / "determinism_loadgen_good.py",
        "determinism",
    ) == []


def test_determinism_strict_glob_flags_greedy_baselines():
    # The greedy modules are strict via fnmatch glob, not directory part:
    # their sampling feeds committed tradeoff records that must replay.
    findings = analyse(
        FIXTURES / "repro" / "baselines" / "greedy_determinism_bad.py",
        "determinism",
    )
    assert len(findings) == 2
    assert all("entropy" in f.message for f in findings)


def test_determinism_strict_glob_accepts_seeded_greedy_baselines():
    assert analyse(
        FIXTURES / "repro" / "baselines" / "greedy_determinism_good.py",
        "determinism",
    ) == []


def test_determinism_flags_clock_reads_in_baselines():
    # A selector loop that stops on a deadline answers by host speed.
    findings = analyse(
        FIXTURES / "repro" / "baselines" / "clock_determinism_bad.py",
        "determinism",
    )
    assert len(findings) == 6
    assert all("reads the clock" in f.message for f in findings)


def test_determinism_accepts_counted_loops_and_timed_in_baselines():
    assert analyse(
        FIXTURES / "repro" / "baselines" / "clock_determinism_good.py",
        "determinism",
    ) == []


def test_determinism_ensure_rng_default_is_fine_outside_strict_scope(
    tmp_path,
):
    # The entropy fallback of ensure_rng() is only banned under
    # repro/loadgen/; the same call elsewhere in repro stays legal.
    package = tmp_path / "repro" / "utilsish"
    package.mkdir(parents=True)
    snippet = package / "helper.py"
    snippet.write_text(
        "from repro.utils.rng import ensure_rng\n"
        "rng = ensure_rng()\n"
    )
    findings, _ = run_analysis(tmp_path, [snippet],
                               build_checkers(["determinism"]))
    assert findings == []


def test_determinism_is_scoped_to_repro(tmp_path):
    outside = tmp_path / "script.py"
    outside.write_text("import random\nx = random.random()\n")
    findings, _ = run_analysis(tmp_path, [outside],
                               build_checkers(["determinism"]))
    assert findings == []


def test_pragma_suppression_silences_findings_inline():
    findings, _ = run_analysis(
        FIXTURES, [FIXTURES / "pragma_suppressed.py"], build_checkers()
    )
    assert findings == []


# ---------------------------------------------------------------------------
# The real tree stays clean (the committed baseline is empty)
# ---------------------------------------------------------------------------

def test_repository_is_clean_under_every_rule():
    paths = [REPO_ROOT / "src", REPO_ROOT / "scripts" / "ci"]
    findings, checked = run_analysis(REPO_ROOT, paths)
    assert checked > 50
    assert findings == [], "\n".join(f.render() for f in findings)


def test_committed_baseline_is_empty():
    payload = json.loads(
        (REPO_ROOT / "scripts" / "analysis_baseline.json").read_text()
    )
    assert payload == {"version": 1, "findings": []}


# ---------------------------------------------------------------------------
# Acceptance: one seeded violation per rule -> exactly one new finding
# ---------------------------------------------------------------------------

VIOLATIONS = {
    "lock-discipline": (
        "src/repro/serve/scratch.py",
        "import threading\n\n\n"
        "class G:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self.n = 0\n\n"
        "    def a(self):\n"
        "        with self._lock:\n"
        "            self.n += 1\n\n"
        "    def b(self):\n"
        "        self.n = 0\n",
    ),
    "async-blocking": (
        "src/repro/serve/scratch.py",
        "import time\n\n\nasync def f():\n    time.sleep(1)\n",
    ),
    "error-taxonomy": (
        "src/repro/serve/scratch.py",
        "def f():\n    raise Exception('x')\n",
    ),
    "resource-lifecycle": (
        "src/repro/serve/scratch.py",
        "class C:\n    def close(self):\n        pass\n\n\n"
        "def f():\n    C()\n",
    ),
    "wire-completeness": (
        "src/repro/serve/scratch.py",
        "from dataclasses import dataclass\n\n\n"
        "@dataclass\n"
        "class M:\n"
        "    a: int\n"
        "    b: int\n\n"
        "    def to_wire(self):\n"
        "        return {'a': self.a, 'b': self.b}\n\n"
        "    @classmethod\n"
        "    def from_wire(cls, p):\n"
        "        return cls(a=p['a'], b=0)\n",
    ),
    "determinism": (
        "src/repro/scratch.py",
        "import numpy as np\n\n\ndef f():\n"
        "    return np.random.default_rng()\n",
    ),
}


@pytest.mark.parametrize("rule", RULES)
def test_one_seeded_violation_yields_one_new_finding(tmp_path, rule):
    relpath, source = VIOLATIONS[rule]
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    findings, _ = run_analysis(tmp_path, [tmp_path / "src"],
                               build_checkers([rule]))
    assert len(findings) == 1, [f.render() for f in findings]
    finding = findings[0]
    assert finding.rule == rule
    assert finding.line > 0
    assert finding.path == relpath
    # Against an empty baseline every seeded violation is new.
    assert diff_baseline(findings, []) == findings


# ---------------------------------------------------------------------------
# Baseline semantics
# ---------------------------------------------------------------------------

def test_baseline_grandfathers_by_multiset(tmp_path):
    target = tmp_path / "src" / "repro" / "serve" / "scratch.py"
    target.parent.mkdir(parents=True)
    target.write_text(VIOLATIONS["error-taxonomy"][1])
    findings, _ = run_analysis(tmp_path, [tmp_path / "src"],
                               build_checkers(["error-taxonomy"]))
    baseline = [f.fingerprint for f in findings]
    # Grandfathered exactly: no new findings.
    assert diff_baseline(findings, baseline) == []
    # A second identical violation exceeds the baseline's multiplicity.
    doubled = findings + findings
    assert len(diff_baseline(doubled, baseline)) == 1


def test_baseline_survives_line_moves(tmp_path):
    target = tmp_path / "src" / "repro" / "serve" / "scratch.py"
    target.parent.mkdir(parents=True)
    target.write_text(VIOLATIONS["error-taxonomy"][1])
    findings, _ = run_analysis(tmp_path, [tmp_path / "src"],
                               build_checkers(["error-taxonomy"]))
    baseline = [f.fingerprint for f in findings]
    # Unrelated code above moves the finding down ten lines.
    target.write_text("# padding\n" * 10 + VIOLATIONS["error-taxonomy"][1])
    moved, _ = run_analysis(tmp_path, [tmp_path / "src"],
                            build_checkers(["error-taxonomy"]))
    assert moved[0].line != findings[0].line
    assert diff_baseline(moved, baseline) == []


# ---------------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------------

def _seed_project(tmp_path):
    target = tmp_path / "src" / "repro" / "serve" / "scratch.py"
    target.parent.mkdir(parents=True)
    target.write_text(VIOLATIONS["error-taxonomy"][1])
    return target


def test_cli_json_schema_and_exit_codes(tmp_path, capsys):
    _seed_project(tmp_path)
    report_path = tmp_path / "report.json"
    code = cli_main([
        "--root", str(tmp_path), "--format", "json",
        "--output", str(report_path),
    ])
    assert code == 1  # a fresh finding with no baseline
    report = json.loads(report_path.read_text())
    assert report["version"] == 1
    assert report["files_checked"] == 1
    assert report["new_findings"] == 1
    assert report["ok"] is False
    assert sorted(report["rules"]) == sorted(RULES)
    (finding,) = report["findings"]
    assert finding["rule"] == "error-taxonomy"
    assert finding["path"] == "src/repro/serve/scratch.py"
    assert finding["line"] > 0
    assert finding["new"] is True


def test_cli_baseline_suppresses_then_fresh_finding_fails(tmp_path):
    target = _seed_project(tmp_path)
    # Accept the current findings into the default baseline location...
    assert cli_main(["--root", str(tmp_path), "--update-baseline"]) == 0
    baseline_file = tmp_path / "scripts" / "analysis_baseline.json"
    assert baseline_file.is_file()
    # ...after which the same tree is clean,
    assert cli_main(["--root", str(tmp_path), "--format", "json",
                     "--output", str(tmp_path / "r1.json")]) == 0
    report = json.loads((tmp_path / "r1.json").read_text())
    assert report["ok"] is True and report["new_findings"] == 0
    assert report["baseline"]["entries"] == 1
    # ...but --strict still fails on the grandfathered finding,
    assert cli_main(["--root", str(tmp_path), "--strict",
                     "--output", str(tmp_path / "r2.txt")]) == 1
    # ...and a fresh violation on top of the baseline fails again.
    target.write_text(target.read_text()
                      + "\n\ndef g():\n    raise Exception('y')\n")
    code = cli_main(["--root", str(tmp_path), "--format", "json",
                     "--output", str(tmp_path / "r3.json")])
    assert code == 1
    report = json.loads((tmp_path / "r3.json").read_text())
    assert report["new_findings"] == 1
    fresh = [f for f in report["findings"] if f["new"]]
    assert len(fresh) == 1 and "untyped" in fresh[0]["message"]


def test_cli_select_limits_rules(tmp_path):
    _seed_project(tmp_path)
    # Selecting an unrelated rule sees nothing.
    assert cli_main(["--root", str(tmp_path), "--select", "determinism",
                     "--output", str(tmp_path / "out.txt")]) == 0
    # Selecting the matching rule fails.
    assert cli_main(["--root", str(tmp_path), "--select", "error-taxonomy",
                     "--output", str(tmp_path / "out2.txt")]) == 1


def test_cli_list_rules(tmp_path):
    out = tmp_path / "rules.txt"
    assert cli_main(["--list-rules", "--output", str(out)]) == 0
    text = out.read_text()
    for rule in RULES:
        assert rule in text


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True,
        cwd=str(REPO_ROOT),
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "lock-discipline" in proc.stdout


def test_baseline_payload_is_sorted_and_line_free(tmp_path):
    _seed_project(tmp_path)
    findings, _ = run_analysis(tmp_path, [tmp_path / "src"])
    payload = baseline_payload(findings)
    assert payload["version"] == 1
    for entry in payload["findings"]:
        assert set(entry) == {"rule", "path", "symbol", "message"}
