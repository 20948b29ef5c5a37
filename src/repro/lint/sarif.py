"""SARIF 2.1.0 export for lint reports.

Static Analysis Results Interchange Format output lets CI surfaces
(code-scanning dashboards, editor SARIF viewers) ingest repro.lint
findings without bespoke glue.  One run, one tool (``repro.lint``),
every RP1xx/RP2xx/RP4xx rule declared in the driver, every unsuppressed
finding a result, every unused waiver a warning notification.  Waived
findings never reach the report.
"""

from __future__ import annotations

import json

from repro.lint.engine import RULES, LintReport
from repro.lint.findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_INFO_URI = "https://example.invalid/repro/docs/STATIC_ANALYSIS.md"


def _rule_descriptors() -> list[dict]:
    return [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.rationale},
            "help": {"text": rule.hint},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in RULES
    ]


def _result(finding: Finding) -> dict:
    return {
        "ruleId": finding.rule,
        "level": "error",
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
        "partialFingerprints": {"reproLint/v1": finding.fingerprint},
    }


def report_to_sarif(report: LintReport) -> dict:
    """Build the SARIF log object for one lint run."""
    invocation = {
        "executionSuccessful": report.clean,
        "toolExecutionNotifications": [
            {"level": "warning", "message": {"text": message}}
            for message in report.unused_waivers
        ],
    }
    return {
        "version": SARIF_VERSION,
        "$schema": SARIF_SCHEMA,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri": _INFO_URI,
                        "rules": _rule_descriptors(),
                    }
                },
                "invocations": [invocation],
                "results": [_result(finding) for finding in report.findings],
            }
        ],
    }


def render_sarif(report: LintReport) -> str:
    return json.dumps(report_to_sarif(report), indent=2, sort_keys=True)
