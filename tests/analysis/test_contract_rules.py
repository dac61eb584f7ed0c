"""Rules C301–C303 against the fixture corpus."""

from __future__ import annotations

from repro.analysis.contracts import check_contracts

from .conftest import pairs


def test_config_knob_findings_exact(bad_context):
    findings = check_contracts(bad_context)
    assert pairs(findings, "middleware/config.py") == [
        ("C301", 11),  # dead_knob: documented, consumed nowhere
        ("C302", 10),  # window_ms: consumed, missing from the docs table
    ]


def test_consumed_documented_knob_is_clean(bad_context):
    findings = check_contracts(bad_context)
    # batch_size (line 9) is read by BatchingMiddleware and documented.
    assert all(
        f.line != 9 for f in findings if f.path.endswith("middleware/config.py")
    )


def test_classvar_is_not_a_knob(bad_context):
    findings = check_contracts(bad_context)
    assert all(
        "SCHEMA_VERSION" not in f.message
        for f in findings
        if f.path.endswith("middleware/config.py")
    )


def test_finding_messages_name_the_knob(bad_context):
    findings = check_contracts(bad_context)
    by_line = {
        f.line: f for f in findings if f.path.endswith("middleware/config.py")
    }
    assert "window_ms" in by_line[10].message
    assert "dead_knob" in by_line[11].message


def test_config_table_row_without_a_field_fires_c302(bad_context):
    findings = check_contracts(bad_context)
    # retired_knob (doc line 11) names no PipelineConfig field; the fault
    # table below it backticks `partition` and must not be read.
    assert pairs(findings, "docs/architecture.md") == [("C302", 11)]
    finding = next(
        f for f in findings if f.path.endswith("docs/architecture.md")
    )
    assert "retired_knob" in finding.message
    assert finding.symbol == "config-table.retired_knob"


def test_swallowing_middleware_fires_c303(bad_context):
    findings = check_contracts(bad_context)
    assert pairs(findings, "middleware/stages.py") == [("C303", 23)]
    finding = next(
        f for f in findings if f.path.endswith("middleware/stages.py")
    )
    assert "SwallowMiddleware" in finding.message
    assert finding.symbol == "SwallowMiddleware.handle"


def test_storing_call_next_counts_as_forwarding(bad_context):
    # BatchingMiddleware.handle (line 16) stores call_next for a deferred
    # flush and must not fire.
    findings = check_contracts(bad_context)
    assert all(
        "BatchingMiddleware" not in f.message
        for f in findings
        if f.rule == "C303"
    )


def test_terminal_pragma_suppresses_c303(bad_context):
    findings = check_contracts(bad_context)
    assert all(
        "AuditSink" not in f.message for f in findings if f.rule == "C303"
    )
