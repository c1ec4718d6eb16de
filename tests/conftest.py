import re

_CRITERION = re.compile(r"test_criterion_(\d+[a-z]?)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one PASS/FAIL line per acceptance criterion, sub-criteria (08a, 08b, ...) by name."""
    results = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            key = match.group(1)
            ok = status == "passed"
            results[key] = results.get(key, True) and ok
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance summary")
    for key in sorted(results):
        verdict = "PASS" if results[key] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {key}: {verdict}")
